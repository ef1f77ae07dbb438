"""Experiment drivers regenerating every table and figure of §6.

Each function returns a :class:`repro.common.reporting.Report` holding
the same rows/series the paper plots, computed on the simulated
substrate. Benchmarks under ``benchmarks/`` call these and print the
reports; EXPERIMENTS.md records paper-vs-measured values.

All drivers accept a ``resolution`` override and a ``sweep_sample`` cap
so quick smoke runs and full reproductions share one code path. All
artifact construction (spaces, contours) flows through the process-wide
:class:`~repro.session.RobustSession`, so spaces are built once per
(query, resolution, build-mode) and shared across drivers, benchmark
files and CLI invocations.
"""

from repro.algorithms import (
    AlignedBound,
    NativeOptimizer,
    Oracle,
    SpillBound,
)
from repro.algorithms.spillbound import spillbound_guarantee
from repro.catalog.datagen import generate_database
from repro.common.reporting import Report
from repro.executor.rowengine import RowBackedEngine
from repro.harness.workloads import (
    PAPER_SUITE,
    job_q1a,
    q91_dimensional_ramp,
    workload,
)
from repro.metrics.distribution import suboptimality_histogram
from repro.metrics.mso import exhaustive_sweep, sample_locations
from repro.session import SweepDriver, default_session
from repro.query.query import Query, make_filter, make_join


# ----------------------------------------------------------------------
# Fig. 8 -- MSO guarantees, PlanBouquet vs SpillBound


def fig8_mso_guarantees(names=PAPER_SUITE, resolution=None, lam=0.2):
    report = Report("Fig. 8: MSO guarantees (MSOg)")
    driver = SweepDriver(default_session(), resolution=resolution, lam=lam)
    rows = []
    for name in names:
        pb = driver.algorithm("planbouquet", workload(name))
        sb = driver.algorithm("spillbound", workload(name))
        rows.append((name, pb.space.query.dimensions, pb.rho,
                     pb.mso_guarantee(), sb.mso_guarantee()))
    report.add_table(
        "MSO guarantee per query",
        ["query", "D", "rho_red", "PB (4(1+lam)rho)", "SB (D^2+3D)"],
        rows,
    )
    return report


# ----------------------------------------------------------------------
# Fig. 9 -- guarantee vs dimensionality for Q91


def fig9_dimensionality(resolution=None, lam=0.2):
    report = Report("Fig. 9: MSOg vs dimensionality (Q91)")
    driver = SweepDriver(default_session(), resolution=resolution, lam=lam)
    rows = []
    for query in q91_dimensional_ramp():
        pb = driver.algorithm("planbouquet", query)
        sb = driver.algorithm("spillbound", query)
        rows.append((query.dimensions, pb.mso_guarantee(),
                     sb.mso_guarantee()))
    report.add_table(
        "Q91 guarantee ramp", ["D", "PB MSOg", "SB MSOg"], rows
    )
    return report


# ----------------------------------------------------------------------
# Figs. 10 & 11 -- empirical MSO and ASO, PlanBouquet vs SpillBound


def fig10_11_empirical(names=PAPER_SUITE, resolution=None, lam=0.2,
                       sweep_sample=None, rng=0):
    report = Report("Figs. 10 & 11: empirical MSO / ASO (PB vs SB)")
    driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                         resolution=resolution, lam=lam)
    rows = [
        (name, cells["planbouquet"].mso, cells["spillbound"].mso,
         cells["planbouquet"].aso, cells["spillbound"].aso)
        for name, cells in driver.grid(
            names, ("planbouquet", "spillbound")).items()
    ]
    report.add_table(
        "Empirical robustness per query",
        ["query", "PB MSOe", "SB MSOe", "PB ASO", "SB ASO"],
        rows,
    )
    return report


# ----------------------------------------------------------------------
# Fig. 12 -- sub-optimality distribution


def fig12_distribution(name="4D_Q91", resolution=None, lam=0.2,
                       sweep_sample=None, rng=0):
    report = Report("Fig. 12: sub-optimality distribution (%s)" % name)
    driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                         resolution=resolution, lam=lam)
    cells = driver.grid([name], ("planbouquet", "spillbound"))[name]
    pb_hist = dict(suboptimality_histogram(cells["planbouquet"].sweep))
    sb_hist = dict(suboptimality_histogram(cells["spillbound"].sweep))
    rows = [
        (label, pb_hist[label], sb_hist[label]) for label in pb_hist
    ]
    report.add_table(
        "Share of ESS locations per sub-optimality bin (%)",
        ["subopt range", "PB %", "SB %"],
        rows,
    )
    return report


# ----------------------------------------------------------------------
# Fig. 13 -- empirical MSO, SpillBound vs AlignedBound


def fig13_ab_mso(names=PAPER_SUITE, resolution=None, sweep_sample=None,
                 rng=0):
    report = Report("Fig. 13: empirical MSO (SB vs AB)")
    driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                         resolution=resolution)
    rows = [
        (name, cells["spillbound"].mso, cells["alignedbound"].mso,
         cells["alignedbound"].instance.mso_lower_guarantee())
        for name, cells in driver.grid(
            names, ("spillbound", "alignedbound")).items()
    ]
    report.add_table(
        "Empirical MSO per query",
        ["query", "SB MSOe", "AB MSOe", "2D+2 reference"],
        rows,
    )
    return report


# ----------------------------------------------------------------------
# Table 2 -- cost of enforcing contour alignment


def table2_alignment(names=("3D_Q96", "4D_Q7", "4D_Q26", "4D_Q91",
                            "5D_Q29", "5D_Q84"), resolution=None):
    report = Report("Table 2: cost of enforcing contour alignment")
    rows = []
    for name in names:
        space, contours = default_session().space_and_contours(
            workload(name), resolution=resolution)
        alignment = AlignedBound(space, contours).alignment()
        rows.append((
            name,
            100.0 * alignment.fraction_aligned(1.0),
            100.0 * alignment.fraction_aligned(1.2),
            100.0 * alignment.fraction_aligned(1.5),
            100.0 * alignment.fraction_aligned(2.0),
            alignment.max_penalty(),
        ))
    report.add_table(
        "Percentage of aligned contours vs penalty cap",
        ["query", "original %", "eps<=1.2 %", "eps<=1.5 %", "eps<=2.0 %",
         "max eps"],
        rows,
    )
    return report


# ----------------------------------------------------------------------
# Table 3 -- SpillBound execution drill-down on Q91


def table3_trace(name="4D_Q91", resolution=None, qa_index=None,
                 algorithm_cls=SpillBound):
    """Per-contour drill-down of one discovery run (paper Table 3)."""
    query = workload(name)
    space, contours = default_session().space_and_contours(
        query, resolution=resolution)
    if qa_index is None:
        # A location in the upper-middle of the space, like the paper's
        # (shows several contours and a mid-flight exact learning).
        qa_index = tuple(int(r * 0.75) for r in space.grid.shape)
    algorithm = algorithm_cls(space, contours)
    result = algorithm.run(qa_index)

    report = Report(
        "Table 3: %s execution on %s at qa=%s" %
        (algorithm.name, name, qa_index)
    )
    rows = []
    cumulative = 0.0
    learnt = {epp: 0.0 for epp in query.epps}
    for record in result.executions:
        cumulative += record.spent
        if record.mode == "spill" and record.learned is not None \
                and record.learned >= 0:
            dim = query.epp_index(record.epp)
            learnt[record.epp] = float(
                space.grid.values[dim][record.learned]
            ) * 100.0
        tag = ("p%s" if record.mode == "spill" else "P%s") \
            % (record.plan_id + 1)
        rows.append((
            record.contour + 1,
            record.epp or "-",
            tag,
            "yes" if record.completed else "no",
            record.budget,
            cumulative,
        ) + tuple(learnt[epp] for epp in query.epps))
    report.add_table(
        "Budgeted execution sequence (selectivities in %)",
        ["contour", "spilled epp", "plan", "done", "budget", "cum. cost"]
        + ["sel(%s)%%" % epp for epp in query.epps],
        rows,
    )
    report.add_table(
        "Summary",
        ["metric", "value"],
        [
            ("total executions", result.num_executions),
            ("sub-optimality", result.sub_optimality),
            ("MSO guarantee", algorithm.mso_guarantee()),
        ],
    )
    return report


# ----------------------------------------------------------------------
# Table 4 -- maximum partition penalty observed for AlignedBound


def table4_ab_penalty(names=PAPER_SUITE, resolution=None,
                      sweep_sample=None, rng=0):
    report = Report("Table 4: maximum penalty for AB")
    driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                         resolution=resolution)
    rows = [(record.query_name, record.sweep.extras.get("max_penalty", 0.0))
            for record in driver.run(names, ("alignedbound",))]
    report.add_table(
        "Max partition penalty across all runs",
        ["query", "max penalty"],
        rows,
    )
    return report


# ----------------------------------------------------------------------
# §6.3 -- wall-clock-style experiment on the row executor


def _wallclock_catalog(scale=1.0):
    """A Q91-shaped catalog sized so join order matters on real rows.

    Unlike :func:`mini_tpcds_catalog` (whose dimension tables shrink to
    a handful of rows, collapsing the plan diagram), tables here are
    comparable in size, so a mis-ordered join pipeline genuinely
    explodes intermediate results in the row executor.
    """
    from repro.catalog.schema import Catalog, Column, Table

    def rows(n):
        return max(2, int(n * scale))

    return Catalog("wallclock", [
        Table("returns", rows(3000), [
            Column("r_id", rows(3000)),
            Column("r_date_k", 300),
            Column("r_cust_k", 600),
            Column("r_amount", 100, lo=0, hi=100),
        ]),
        Table("dates", rows(450), [
            Column("d_key", 300),
            Column("d_moy", 12, lo=1, hi=12),
        ]),
        Table("cust", rows(900), [
            Column("c_key", 600),
            Column("c_addr_k", 300),
            Column("c_demo_k", 400),
        ]),
        Table("addr", rows(450), [Column("a_key", 300)]),
        Table("demo", rows(600), [Column("m_key", 400)]),
    ])


def wallclock_experiment(rng=11, resolution=12, delta=1.0, scale=1.0):
    """Native vs SB vs AB sub-optimality measured on actual rows.

    The database is generated with *aligned* Zipf skew on the date join
    (true selectivity ~100x above the uniform estimate: the classic
    underestimation blowup) and *anti-correlated* skew on the address
    join (true selectivity far below the estimate), so the optimal join
    order differs sharply from the native optimizer's choice; all costs
    are metered by the row executor, mirroring the paper's wall-clock
    study (§6.3).
    """
    catalog = _wallclock_catalog(scale)
    query = Query(
        "wallclock_q91", catalog,
        ["returns", "dates", "cust", "addr", "demo"],
        [
            make_join("r_d", "returns.r_date_k", "dates.d_key"),
            make_join("r_c", "returns.r_cust_k", "cust.c_key"),
            make_join("c_a", "cust.c_addr_k", "addr.a_key"),
            make_join("c_m", "cust.c_demo_k", "demo.m_key"),
        ],
        [make_filter("f_moy", "dates.d_moy", "<=", 6)],
        epps=("r_d", "c_a", "r_c", "c_m"),
    )
    skew = {
        "returns.r_date_k": 1.8,
        "dates.d_key": 1.5,
        "cust.c_addr_k": 2.2,
        "addr.a_key": -2.2,
    }
    database = generate_database(catalog, rng=rng, skew=skew)
    # The catalog is re-scaled per call under one query name, so this
    # space must bypass the content-addressed cache.
    space, contours = default_session().space_and_contours(
        query, resolution=resolution, cache=False)

    report = Report("Wall-clock-style experiment (metered row executor)")
    rows = []
    oracle_engine = RowBackedEngine(space, database, delta=delta)
    qa = oracle_engine.qa_index
    oracle_cost = oracle_engine.optimal_cost

    oracle_result = Oracle(space).run(qa, engine=oracle_engine)
    rows.append(("oracle", oracle_result.total_cost,
                 "%.2f" % oracle_result.sub_optimality, 1))

    # The native optimizer runs its estimate-based plan to completion --
    # except that a tuple-at-a-time executor can take arbitrarily long
    # on an exploding intermediate (that *is* the pathology), so the run
    # is killed at a generous cap and reported as a lower bound, the way
    # a DBA's statement timeout would.
    native = NativeOptimizer(space)
    native_plan = space.plans[int(space.plan_at[native.estimate_index])]
    cap = oracle_cost * 500.0
    native_run = oracle_engine.row_engine.run(native_plan.tree, budget=cap)
    native_subopt = native_run.spent / oracle_cost
    rows.append((
        "native",
        native_run.spent,
        ("%.2f" if native_run.completed else ">= %.0f (killed)")
        % native_subopt,
        1,
    ))

    for algorithm in (SpillBound(space, contours),
                      AlignedBound(space, contours)):
        engine = RowBackedEngine(space, database, delta=delta)
        result = algorithm.run(qa, engine=engine)
        rows.append((
            algorithm.name, result.total_cost,
            "%.2f" % result.sub_optimality, result.num_executions,
        ))
    report.add_table(
        "Metered cost at the data's true location qa=%s" % (qa,),
        ["algorithm", "metered cost", "sub-optimality", "executions"],
        rows,
    )
    return report


# ----------------------------------------------------------------------
# §6.5 -- JOB benchmark


def job_experiment(dims=3, resolution=None, sweep_sample=None, rng=0):
    """JOB Q1a: native worst-case MSO vs SB and AB empirical MSO."""
    query = job_q1a(dims)
    driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                         resolution=resolution)
    cells = driver.grid([query], ("spillbound", "alignedbound"))[query.name]
    native = NativeOptimizer(cells["spillbound"].instance.space)
    report = Report("JOB benchmark (Q1a, D=%d)" % dims)
    report.add_table(
        "MSO on the Join Order Benchmark",
        ["algorithm", "MSO"],
        [
            ("native (worst-case over qe)", native.worst_case_mso()),
            ("spillbound (empirical)", cells["spillbound"].mso),
            ("alignedbound (empirical)", cells["alignedbound"].mso),
        ],
    )
    return report


# ----------------------------------------------------------------------
# Ablations (DESIGN.md: REM42 and ANOREX)


def ablation_cost_ratio(name="3D_Q15", ratios=(1.5, 1.8, 2.0, 2.5, 3.0),
                        resolution=None, sweep_sample=None, rng=0):
    """§4.2 remark: contour cost-ratio sweep for SpillBound."""
    report = Report("Ablation: contour cost ratio (%s)" % name)
    rows = []
    for ratio in ratios:
        driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                             resolution=resolution, ratio=ratio)
        record = next(driver.run([name], ("spillbound",)))
        contours = record.instance.contours
        rows.append((
            ratio, len(contours),
            spillbound_guarantee(
                record.instance.space.query.dimensions, ratio),
            record.mso, record.aso,
        ))
    report.add_table(
        "SpillBound vs contour ratio",
        ["ratio", "contours", "MSOg", "MSOe", "ASO"],
        rows,
    )
    return report


def ablation_cost_error(name="2D_Q91", deltas=(0.0, 0.1, 0.3, 0.5),
                        resolution=None, sweep_sample=None, rng=0,
                        seed=13):
    """§7 ablation: MSO under bounded cost-model error ``delta``.

    Budgets are inflated by ``(1+delta)`` and per-plan actual costs
    deviate from the model by up to the same factor; the guarantee
    inflates by ``(1+delta)^2`` and the sweep verifies it empirically.
    """
    from repro.engine.noisy import inflated_guarantee

    session = default_session()
    sb = session.algorithm("spillbound", query=name, resolution=resolution)
    report = Report("Ablation: cost-model error (%s)" % name)
    rows = []
    for delta in deltas:
        sweep = session.sweep(
            name, sb, sample=sweep_sample, rng=rng,
            spec="simulated+noisy(delta=%g,seed=%d)" % (delta, seed))
        rows.append((
            delta,
            inflated_guarantee(sb.mso_guarantee(), delta),
            sweep.mso,
            sweep.aso,
        ))
    report.add_table(
        "SpillBound under bounded cost-model error",
        ["delta", "inflated MSOg", "MSOe", "ASO"],
        rows,
    )
    return report


def fault_sweep(name="2D_Q91", rates=(0.0, 0.05, 0.1, 0.2, 0.4),
                resolution=None, sweep_sample=64, rng=0, fault_seed=23,
                max_retries=3, deadline=None, cost_budget=None,
                breaker=None):
    """Robustness ablation: MSO degradation vs. substrate fault rate.

    Mirrors the §7 delta-sweep, but the imperfection swept is the
    *execution substrate* rather than the cost model: a
    :class:`~repro.engine.faulty.FaultyEngine` injects crashes at
    ``rate`` plus transients / monitor corruption / meter drift at half
    that, and a :class:`~repro.robustness.guard.DiscoveryGuard` drives
    SpillBound to a terminating answer at every sampled location. The
    table reports how the empirical MSO/ASO, degradation share, retry
    count, wasted spend and watchdog interventions (deadline expiries,
    breaker fast-fails) grow with the fault rate.

    Each rate is one :func:`~repro.metrics.mso.exhaustive_sweep` over
    one guard from :meth:`RobustSession.algorithm
    <repro.session.RobustSession.algorithm>`. Every truth draws its own
    fault schedule, seeded ``fault_seed + 997 * flat index``.
    ``deadline``/``cost_budget`` attach a fresh per-rate
    :class:`~repro.robustness.durable.Deadline`; ``breaker`` (an int
    threshold) a fresh per-rate
    :class:`~repro.robustness.durable.CircuitBreaker`. All default to
    off, reproducing the historical accounting exactly.
    """
    from repro.robustness import RetryPolicy
    from repro.robustness.durable import CircuitBreaker, Deadline
    from repro.session import EngineSpec

    session = default_session()
    spec = EngineSpec.parse("simulated+faulty()")

    def guarded(rate):
        """A guard with fresh watchdogs and its engine factory, so one
        rate's expired budget or tripped breaker cannot leak into the
        next."""
        rate_deadline = None
        if deadline is not None or cost_budget is not None:
            rate_deadline = Deadline(wall_limit=deadline,
                                     cost_limit=cost_budget)
        guard = session.algorithm(
            "spillbound", query=name, resolution=resolution,
            guard=RetryPolicy(max_retries=max_retries),
            deadline=rate_deadline,
            breaker=None if breaker is None
            else CircuitBreaker(threshold=breaker))
        space = guard.space

        def engine_factory(qa):
            return spec.build(
                space, qa_index=qa, crash=rate, transient=rate / 2.0,
                corrupt=rate / 2.0, drift=rate / 2.0,
                seed=fault_seed + 997 * space.grid.flat(qa))

        return guard, engine_factory

    rows = []
    for rate in rates:
        guard, engine_factory = guarded(rate)
        sweep = exhaustive_sweep(guard, sample=sweep_sample, rng=rng,
                                 engine_factory=engine_factory)
        extras = sweep.extras
        reasons = extras["degraded_reasons"]
        n = sweep.sub_optimalities.size
        spend = extras["spent"] + extras["wasted_cost"]
        rows.append((
            rate,
            sweep.mso,
            sweep.aso,
            100.0 * extras["degraded"] / n,
            extras["retries"] / n,
            100.0 * extras["wasted_cost"] / spend if spend else 0.0,
            sum(count for reason, count in reasons.items()
                if reason.startswith("deadline-")),
            reasons.get("breaker-open", 0),
        ))

    # The first sampled runs at the last rate, re-run under fresh
    # watchdogs for their full accounting.
    guard, engine_factory = guarded(rates[-1])
    grid = guard.space.grid
    flats, _sampled = sample_locations(grid, sweep_sample, rng)
    samples = []
    for flat in flats[:5]:
        qa = grid.unflat(flat)
        samples.append(("qa=%s" % (qa,), guard.run(
            qa, engine=engine_factory(qa)).extras))

    report = Report("Fault sweep: %s under an unreliable substrate (%s)"
                    % (guard.name, name))
    report.add_table(
        "Guarded SpillBound vs fault rate (%d locations)" % len(flats),
        ["crash rate", "MSOe", "ASO", "degraded %", "retries/run",
         "wasted %", "deadline", "breaker"],
        rows,
    )
    report.add_degradation(
        "Degradation accounting, sample runs at crash rate %g"
        % rates[-1], samples)
    return report


def ab_average_case(names=PAPER_SUITE, resolution=None,
                    sweep_sample=None, rng=0):
    """AB vs SB on ASO and distribution (the §6.4 analyses the paper
    defers to its technical report [14])."""
    report = Report("AB vs SB: average case and distribution")
    driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                         resolution=resolution)
    rows = [
        (name,
         cells["spillbound"].aso, cells["alignedbound"].aso,
         100.0 * cells["spillbound"].sweep.fraction_below(5.0),
         100.0 * cells["alignedbound"].sweep.fraction_below(5.0))
        for name, cells in driver.grid(
            names, ("spillbound", "alignedbound")).items()
    ]
    report.add_table(
        "ASO and share of locations below sub-optimality 5",
        ["query", "SB ASO", "AB ASO", "SB <5 (%)", "AB <5 (%)"],
        rows,
    )
    return report


def ablation_anorexic(name="4D_Q91", lambdas=(0.0, 0.1, 0.2, 0.4, 1.0),
                      resolution=None, sweep_sample=None, rng=0):
    """Anorexic-reduction threshold sweep for PlanBouquet."""
    report = Report("Ablation: anorexic reduction threshold (%s)" % name)
    rows = []
    for lam in lambdas:
        driver = SweepDriver(default_session(), sample=sweep_sample, rng=rng,
                             resolution=resolution, lam=lam)
        record = next(driver.run([name], ("planbouquet",)))
        pb = record.instance
        rows.append((
            lam, pb.rho, pb.mso_guarantee(), record.mso, record.aso,
        ))
    report.add_table(
        "PlanBouquet vs lambda",
        ["lambda", "rho_red", "MSOg", "MSOe", "ASO"],
        rows,
    )
    return report
