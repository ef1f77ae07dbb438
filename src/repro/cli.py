"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the registered benchmark workloads.
``guarantee WORKLOAD``
    Print the MSO guarantees for a workload (PB needs the space; SB's is
    known from the query alone, the paper's headline property).
``run WORKLOAD --qa i,j,...``
    Simulate one discovery run at a hidden truth and print the trace.
    ``--engine SPEC`` swaps the execution environment declaratively
    (e.g. ``simulated+noisy(delta=0.3)``). With ``--faults SPEC`` the
    run executes on a fault-injecting engine under a
    graceful-degradation guard and also prints the guard's degradation
    accounting.
``sweep WORKLOAD``
    Exhaustive empirical MSO/ASO for PB, SB and AB, one
    :class:`~repro.session.SweepDriver` unit per algorithm, with each
    unit's degradation accounting. ``--trace-dir DIR`` records one
    structured discovery trace per (query, algorithm) unit.
``trace show PATH``
    Render a recorded trace: per-execution timeline, budget waterfall
    and MSO spend decomposition.
``epps WORKLOAD``
    Rank the workload's join predicates by estimated error-proneness.
``experiment NAME``
    Regenerate one of the paper's tables/figures (fig8, fig9, fig10,
    fig12, fig13, table2, table3, table4, wallclock, job,
    ablation-ratio, ablation-anorexic, fault-sweep).

Every command resolves its artifacts through the process-wide
:class:`~repro.session.RobustSession`, so repeated invocations inside
one process (and the experiment drivers underneath ``experiment`` /
``reproduce``) share cached spaces and contours.
"""

import argparse
import copy
import sys

from repro.algorithms.spillbound import spillbound_guarantee
from repro.common.reporting import (
    format_degradation,
    format_table,
    sweep_degradation,
)
from repro.harness import experiments
from repro.harness.epp_selection import rank_epps
from repro.harness.workloads import _BUILDERS, workload
from repro.session import default_session

EXPERIMENTS = {
    "fig8": lambda args: experiments.fig8_mso_guarantees(
        resolution=args.resolution),
    "fig9": lambda args: experiments.fig9_dimensionality(
        resolution=args.resolution),
    "fig10": lambda args: experiments.fig10_11_empirical(
        resolution=args.resolution, sweep_sample=args.sample),
    "fig12": lambda args: experiments.fig12_distribution(
        resolution=args.resolution, sweep_sample=args.sample),
    "fig13": lambda args: experiments.fig13_ab_mso(
        resolution=args.resolution, sweep_sample=args.sample),
    "table2": lambda args: experiments.table2_alignment(
        resolution=args.resolution),
    "table3": lambda args: experiments.table3_trace(
        resolution=args.resolution),
    "table4": lambda args: experiments.table4_ab_penalty(
        resolution=args.resolution, sweep_sample=args.sample or 500),
    "wallclock": lambda args: experiments.wallclock_experiment(),
    "job": lambda args: experiments.job_experiment(
        resolution=args.resolution, sweep_sample=args.sample),
    "ablation-ratio": lambda args: experiments.ablation_cost_ratio(
        resolution=args.resolution, sweep_sample=args.sample),
    "ablation-anorexic": lambda args: experiments.ablation_anorexic(
        resolution=args.resolution, sweep_sample=args.sample),
    "fault-sweep": lambda args: experiments.fault_sweep(
        resolution=args.resolution, sweep_sample=args.sample or 64),
}


def _add_data_arguments(p):
    """Row-store knobs shared by run/sweep/serve: row-backed engine
    specs (``row(backend=...)``, ``vectorized``) need actual tuples,
    generated deterministically from these."""
    p.add_argument("--data-rng", type=int, default=None, metavar="SEED",
                   help="generate a row store with this seed for "
                        "row-backed --engine specs")
    p.add_argument("--data-skew", default=None, metavar="T.C=Z,...",
                   help="zipf skew per column, e.g. "
                        "'fact.f_d1=1.5,d1.k1=1' (implies --data-rng 0)")
    p.add_argument("--data-rows", type=int, default=20000, metavar="N",
                   help="cap each generated table at N rows (benchmark "
                        "catalogs quote warehouse-scale counts)")


def _parse_skew(text):
    """``"t.c=1.5,t.c2=2"`` -> ``{"t.c": 1.5, "t.c2": 2.0}``."""
    skew = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        column, eq, value = item.partition("=")
        if not eq or "." not in column:
            raise SystemExit(
                "--data-skew expects table.column=zipf pairs, got %r"
                % item)
        try:
            skew[column.strip()] = float(value)
        except ValueError:
            raise SystemExit(
                "--data-skew zipf exponent must be numeric, got %r"
                % value) from None
    return skew


def _database_spec(args):
    """The declarative row store implied by --data-rng/--data-skew."""
    rng = getattr(args, "data_rng", None)
    skew_text = getattr(args, "data_skew", None)
    if rng is None and skew_text is None:
        return None
    from repro.catalog.datagen import DatabaseSpec
    return DatabaseSpec(rng=rng or 0,
                        skew=_parse_skew(skew_text) if skew_text else None,
                        max_rows=getattr(args, "data_rows", None))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Platform-independent robust query processing "
                    "(SpillBound / AlignedBound reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered workloads")

    p = sub.add_parser("guarantee", help="print MSO guarantees")
    p.add_argument("workload")
    p.add_argument("--resolution", type=int, default=None)

    p = sub.add_parser("run", help="simulate one discovery run")
    p.add_argument("workload", nargs="?", default="2D_Q91",
                   help="registered workload name (default: 2D_Q91)")
    p.add_argument("--qa", default=None,
                   help="comma-separated grid indices of the hidden truth")
    p.add_argument("--algorithm", "--algo", default="spillbound",
                   choices=("planbouquet", "spillbound", "alignedbound"))
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a structured discovery trace (CRC-framed "
                        "JSONL) to PATH; inspect with 'repro trace show'")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--engine", default=None, metavar="SPEC",
                   help="execution environment spec, e.g. "
                        "'simulated+noisy(delta=0.3)' or "
                        "'+faulty(crash=0.2,seed=7)'")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject faults: a crash rate (e.g. 0.2) or a "
                        "k=v list like crash=0.2,corrupt=0.1,drift=0.05; "
                        "the run is driven by a DiscoveryGuard")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the injected fault stream")
    p.add_argument("--max-retries", type=int, default=3,
                   help="guard retry budget before degrading to the "
                        "native-optimizer path")
    _add_data_arguments(p)

    p = sub.add_parser("sweep", help="exhaustive empirical MSO/ASO")
    p.add_argument("workload")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--rng", type=int, default=0,
                   help="seed for sampled sweeps (ignored for full grids)")
    p.add_argument("--engine", default=None, metavar="SPEC",
                   help="execution environment spec for every run")
    p.add_argument("--algorithms",
                   default="planbouquet,spillbound,alignedbound",
                   help="comma-separated algorithms to sweep")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="write every (query, algorithm) unit through a "
                        "write-ahead journal in DIR; a killed sweep can "
                        "then be finished with --resume DIR")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="resume the journaled sweep in DIR: committed "
                        "units are replayed from the log (bit-identical, "
                        "no re-execution), the rest are re-run")
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="cooperative wall-clock budget; units past it "
                        "degrade to the native fallback and say so")
    p.add_argument("--cost-budget", type=float, default=None,
                   help="cumulative execution-cost budget (cost-model "
                        "units) enforced like --deadline")
    p.add_argument("--breaker", type=int, default=None, metavar="K",
                   help="open a per-engine circuit breaker after K "
                        "consecutive crashes; later units fast-fail to "
                        "the native fallback")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="write one discovery trace per (query, algorithm) "
                        "unit into DIR and print aggregated obs metrics")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="shard sweep execution over N processes; grids, "
                        "extras and journal records are bit-identical to "
                        "the serial sweep (requires a declarative "
                        "--engine spec, default simulated)")
    p.add_argument("--chunk-size", type=int, default=None, metavar="K",
                   help="grid locations per worker task (default: sized "
                        "automatically from the grid and worker count)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="sweep-level fault seed, split per (query, "
                        "algorithm) unit when --engine has a faulty "
                        "layer; the split is by unit name, so serial, "
                        "parallel and resumed sweeps draw identical "
                        "fault schedules")
    _add_data_arguments(p)

    p = sub.add_parser("atlas",
                       help="workload-scale robustness atlas: run, "
                            "bless the baseline, or gate against it")
    p.add_argument("action", choices=("run", "bless", "check"),
                   help="'run' writes summary+stats+HTML into --out; "
                        "'bless' regenerates the committed baseline; "
                        "'check' re-runs at the baseline's config and "
                        "fails on metric regressions")
    p.add_argument("--out", default="atlas_out", metavar="DIR",
                   help="output directory for 'run' (journal, summary, "
                        "stats, HTML report)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline summary path (default "
                        "baselines/atlas_summary.json)")
    p.add_argument("--queries", default=None,
                   help="comma-separated skeleton names")
    p.add_argument("--regimes", default=None,
                   help="comma-separated regimes out of baseline, "
                        "uniform-noise, correlated-skew, tail-blowup")
    p.add_argument("--algorithms", default=None,
                   help="comma-separated algorithm names")
    p.add_argument("--resolutions", default=None,
                   help="comma-separated grid resolutions")
    p.add_argument("--seed", type=int, default=None,
                   help="atlas seed: regime instances and sampled "
                        "sweeps derive from it")
    p.add_argument("--sample", type=int, default=None,
                   help="cap swept locations per unit")
    p.add_argument("--ratio", type=float, default=None,
                   help="contour ladder ratio override")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="process-pool width per sweep; the summary is "
                        "byte-identical to a serial run")
    p.add_argument("--resume", action="store_true",
                   help="replay committed units from --out's journal "
                        "and run only the rest")
    p.add_argument("--tolerance", action="append", default=None,
                   metavar="METRIC=VALUE",
                   help="gate tolerance override for 'check' "
                        "(repeatable), e.g. --tolerance mso=0.1")
    p.add_argument("--no-html", action="store_true",
                   help="skip the HTML report for 'run'")
    p.add_argument("--verbose", action="store_true",
                   help="print per-unit progress during 'run'")

    p = sub.add_parser("trace", help="inspect a recorded discovery trace")
    p.add_argument("action", choices=("show",),
                   help="'show' renders the timeline, budget waterfall "
                        "and MSO decomposition of a trace file")
    p.add_argument("path", help="trace file written by --trace/--trace-dir")

    p = sub.add_parser("epps", help="rank predicates by error-proneness")
    p.add_argument("workload")

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--sample", type=int, default=None)

    p = sub.add_parser("figures", help="export SVG figures for a 2D "
                                       "workload")
    p.add_argument("workload")
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--out", default=".")

    p = sub.add_parser("build", help="build a space and save it to disk")
    p.add_argument("workload")
    p.add_argument("path")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--mode", default="fast", choices=("fast", "exact"))

    p = sub.add_parser("reproduce",
                       help="regenerate every paper artifact into one "
                            "markdown report")
    p.add_argument("--out", default="reproduction_report.md")
    p.add_argument("--full", action="store_true",
                   help="benchmark-suite fidelity (slow); default is a "
                        "quick pass")

    p = sub.add_parser("serve",
                       help="long-lived serving daemon (line-JSON over "
                            "TCP or a unix socket)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="serve on a unix socket instead of TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7451)
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="on-disk artifact tier shared across restarts")
    p.add_argument("--resolution", type=int, default=None,
                   help="default grid resolution for served artifacts")
    p.add_argument("--engine", default="simulated", metavar="SPEC",
                   help="default execution environment")
    _add_data_arguments(p)
    p.add_argument("--tenant-rate", type=float, default=16.0,
                   metavar="R", help="per-tenant refill rate "
                   "(requests/second)")
    p.add_argument("--tenant-burst", type=float, default=32.0,
                   metavar="B", help="per-tenant burst capacity")
    p.add_argument("--max-inflight", type=int, default=None,
                   metavar="N",
                   help="concurrent discovery computations "
                        "(default: min(4, cores))")
    p.add_argument("--max-queue", type=int, default=32, metavar="N",
                   help="admitted requests allowed to wait for a slot")
    p.add_argument("--default-deadline", type=float, default=30000.0,
                   metavar="MS",
                   help="server-side per-request ceiling in ms")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   metavar="S",
                   help="seconds to wait for in-flight work on SIGTERM")
    p.add_argument("--max-line-bytes", type=int, default=None,
                   metavar="N",
                   help="per-line byte cap on the wire protocol "
                        "(default: 128 KiB)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="seeded wire chaos on the reply path: a drop "
                        "rate or knobs drop=,truncate=,garbage=,slow=,"
                        "slow_ms= (e.g. 'drop=0.1,garbage=0.05')")
    p.add_argument("--fault-seed", type=int, default=0, metavar="N",
                   help="seed of the wire-chaos schedule")

    return parser


def _sweep(out, session, query, algorithms, args):
    """``sweep``: every (query, algorithm) unit runs through one
    :class:`~repro.session.SweepDriver`.

    ``--journal`` brackets each unit in the write-ahead journal and
    ``--resume`` replays committed units from the log, re-running only
    the rest. An ``--engine`` spec with a ``faulty`` layer guards every
    run with the default :class:`~repro.robustness.RetryPolicy`, as
    ``run --faults`` does, so an injected fault degrades a run (and
    says so in the table) instead of aborting the sweep.
    """
    from repro.robustness import RetryPolicy
    from repro.robustness.durable import CircuitBreaker, Deadline
    from repro.session import SweepDriver
    from repro.session.registry import EngineSpec

    faulty = args.engine is not None and not session.guard_policy and any(
        name == "faulty"
        for name, _kwargs in EngineSpec.parse(args.engine).layers)
    dbspec = _database_spec(args)
    if faulty or dbspec is not None:
        # A shallow copy shares the artifact cache but leaves the
        # process-wide session's policy and row store alone;
        # ``--workers`` processes rehydrate the copy's ``guard_policy``
        # and ``database``.
        session = copy.copy(session)
        if faulty:
            session.guard_policy = RetryPolicy()
        if dbspec is not None:
            session.database = dbspec

    deadline = None
    if args.deadline is not None or args.cost_budget is not None:
        deadline = Deadline(wall_limit=args.deadline,
                            cost_limit=args.cost_budget)
    breaker = None
    if args.breaker is not None:
        breaker = CircuitBreaker(threshold=args.breaker)

    driver = SweepDriver(
        session, sample=args.sample, rng=args.rng,
        resolution=args.resolution, engine_spec=args.engine,
        fault_seed=getattr(args, "fault_seed", None),
        workers=getattr(args, "workers", None),
        chunk_size=getattr(args, "chunk_size", None),
        journal=args.resume if args.resume is not None else args.journal,
        resume=True if args.resume is not None else None,
        deadline=deadline, breaker=breaker,
        trace_dir=getattr(args, "trace_dir", None))

    rows = []
    truths = 0
    for record in driver.run([query], algorithms):
        truths = record.sweep.sub_optimalities.size
        degraded, reasons = sweep_degradation(record.sweep.extras)
        rows.append((
            record.algorithm,
            record.instance.mso_guarantee(),
            record.mso,
            record.aso,
            "replay" if record.replayed else "run",
            degraded,
            ",".join("%s:%d" % kv for kv in sorted(reasons.items()))
            or "-",
        ))
    out.write(format_table(
        ["algorithm", "MSOg", "MSOe", "ASO", "source", "degraded",
         "reasons"], rows,
        title="Empirical robustness for %s (%d truths)" %
              (query.name, truths)) + "\n")
    out.write(format_table(
        ["counter", "value"], sorted(driver.reuse_summary().items()),
        title="Artifact reuse (session cache)") + "\n")
    stats = driver.journal_stats
    if stats is not None:
        out.write("journal: %d unit(s) replayed, %d executed, "
                  "%d torn record(s) truncated\n"
                  % (stats.replayed, stats.executed,
                     stats.truncated_records))
    if getattr(args, "trace_dir", None) is not None:
        out.write("traces written to %s\n" % args.trace_dir)
        obs = driver.obs_summary()
        counters = obs.get("counters") or {}
        if counters:
            out.write(format_table(
                ["counter", "value"],
                sorted(counters.items()),
                title="Aggregated observability counters") + "\n")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = sys.stdout
    session = default_session()

    if args.command == "list":
        rows = []
        for name in sorted(_BUILDERS):
            query = workload(name)
            rows.append((name, query.dimensions, len(query.tables),
                         len(query.joins), query.catalog.name))
        out.write(format_table(
            ["workload", "D", "relations", "joins", "catalog"], rows,
            title="Registered workloads") + "\n")
        return 0

    if args.command == "guarantee":
        query = workload(args.workload)
        pb = session.algorithm("planbouquet", query=query,
                               resolution=args.resolution)
        d = query.dimensions
        rows = [
            ("planbouquet", "4(1+lam)rho", pb.mso_guarantee()),
            ("spillbound", "D^2+3D", spillbound_guarantee(d)),
            ("alignedbound (lower)", "2D+2", 2.0 * d + 2.0),
            ("alignedbound (upper)", "D^2+3D", spillbound_guarantee(d)),
        ]
        out.write(format_table(
            ["algorithm", "formula", "MSO guarantee"], rows,
            title="MSO guarantees for %s (D=%d)" % (query.name, d))
            + "\n")
        return 0

    if args.command == "run":
        query = workload(args.workload)
        guard = None
        if args.faults is not None:
            from repro.robustness import RetryPolicy
            guard = RetryPolicy(max_retries=args.max_retries)
        algorithm = session.algorithm(args.algorithm, query=query,
                                      resolution=args.resolution,
                                      guard=guard)
        space = algorithm.space
        if args.qa:
            qa = tuple(int(x) for x in args.qa.split(","))
        else:
            qa = tuple(int(r * 0.7) for r in space.grid.shape)
        dbspec = _database_spec(args)
        engine = None
        if args.engine is not None:
            engine = session.engine(space, qa_index=qa, spec=args.engine,
                                    database=dbspec)
        if args.faults is not None:
            from repro.engine.faulty import FaultPlan
            plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
            # repr round-trips each knob exactly; "+" separates spec
            # layers, so an exponent drops its sign.
            knobs = ",".join("%s=%r" % (knob, getattr(plan, attr))
                             for knob, attr in FaultPlan.knobs().items())
            spec = "%s+faulty(%s,seed=%d)" % (
                args.engine or "simulated", knobs.replace("e+", "e"),
                plan.seed)
            engine = session.engine(space, qa_index=qa, spec=spec,
                                    database=dbspec)
        if args.qa is None and engine is not None:
            # Row-backed engines discover the truth from the generated
            # data; report the run against that location, not the
            # midpoint default.
            qa = tuple(getattr(engine, "qa_index", qa))
        tracer = session.tracer
        if args.trace is not None:
            from repro.obs import Tracer
            tracer = Tracer(args.trace)
        try:
            result = algorithm.run(qa, engine=engine, tracer=tracer)
        finally:
            if args.trace is not None:
                tracer.close()
        rows = [
            (r.contour + 1, r.mode, "P%d" % (r.plan_id + 1),
             r.epp or "-", r.budget, r.spent,
             "yes" if r.completed else "no")
            for r in result.executions
        ]
        out.write(format_table(
            ["contour", "mode", "plan", "epp", "budget", "spent", "done"],
            rows,
            title="%s at qa=%s: sub-optimality %.2f" %
                  (algorithm.name, qa, result.sub_optimality)) + "\n")
        if args.faults is not None:
            out.write("\n" + format_degradation(
                [("qa=%s" % (qa,), result.extras)],
                title="Degradation accounting (%s)" % plan.describe())
                + "\n")
        if args.trace is not None:
            out.write("trace written to %s "
                      "(inspect with: repro trace show %s)\n"
                      % (args.trace, args.trace))
        return 0

    if args.command == "sweep":
        algorithms = [a.strip() for a in args.algorithms.split(",")
                      if a.strip()]
        return _sweep(out, session, workload(args.workload), algorithms,
                      args)

    if args.command == "atlas":
        from repro.atlas.cli import atlas_main
        return atlas_main(args, out)

    if args.command == "trace":
        from repro.obs import read_trace, render_trace_report
        records = read_trace(args.path)
        out.write(render_trace_report(
            records, title="Discovery trace (%s)" % args.path) + "\n")
        return 0

    if args.command == "epps":
        query = workload(args.workload)
        ranking = rank_epps(query)
        out.write(format_table(
            ["predicate", "optimal-cost spread"], ranking.scores,
            title="Error-proneness ranking for %s" % query.name) + "\n")
        return 0

    if args.command == "experiment":
        report = EXPERIMENTS[args.name](args)
        out.write(report.render() + "\n")
        return 0

    if args.command == "figures":
        import os

        from repro.viz.svg import (
            render_contour_svg,
            render_plan_diagram_svg,
            render_trace_svg,
        )
        query = workload(args.workload)
        space, contours = session.space_and_contours(
            query, resolution=args.resolution)
        os.makedirs(args.out, exist_ok=True)
        prefix = os.path.join(args.out, query.name)
        render_plan_diagram_svg(space, path=prefix + "_plan_diagram.svg")
        render_contour_svg(space, contours, path=prefix + "_contours.svg")
        result = session.algorithm("spillbound", space=space,
                                   contours=contours).run(
            tuple(int(r * 0.7) for r in space.grid.shape))
        render_trace_svg(space, contours, result,
                         path=prefix + "_trace.svg")
        out.write("wrote %s_{plan_diagram,contours,trace}.svg\n" % prefix)
        return 0

    if args.command == "build":
        from repro.ess.persistence import save_space
        query = workload(args.workload)
        space = session.space(query, resolution=args.resolution,
                              mode=args.mode)
        save_space(space, args.path)
        out.write(
            "saved %s (grid %s, %d plans) to %s\n"
            % (query.name, space.grid.shape, len(space.plans), args.path))
        return 0

    if args.command == "reproduce":
        from repro.harness.reproduce import full_reproduction
        text = full_reproduction(
            quick=not args.full,
            progress=lambda title: out.write("... %s\n" % title),
        )
        with open(args.out, "w") as handle:
            handle.write(text)
        out.write("wrote %s\n" % args.out)
        return 0

    if args.command == "serve":
        import asyncio

        from repro.serve import (
            MAX_LINE_BYTES,
            RobustServeDaemon,
            ServeConfig,
            ServeFaultPlan,
        )
        fault_plan = None
        if args.faults:
            fault_plan = ServeFaultPlan.parse(args.faults,
                                              seed=args.fault_seed)
        config = ServeConfig(
            path=args.socket, host=args.host, port=args.port,
            cache_dir=args.cache_dir, resolution=args.resolution,
            engine=args.engine, data_rng=args.data_rng,
            data_skew=_parse_skew(args.data_skew)
            if args.data_skew else None,
            data_rows=args.data_rows,
            tenant_capacity=args.tenant_burst,
            tenant_rate=args.tenant_rate,
            max_inflight=args.max_inflight, max_queue=args.max_queue,
            default_deadline_ms=args.default_deadline,
            drain_grace_s=args.drain_grace,
            max_line_bytes=args.max_line_bytes
            if args.max_line_bytes else MAX_LINE_BYTES,
            fault_plan=fault_plan)
        daemon = RobustServeDaemon(config=config)

        async def _serve():
            await daemon.start()
            out.write("%s\n" % config.describe())
            out.flush()
            await daemon.run_async()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            pass
        out.write("drained: %d requests served, %d coalesced, "
                  "%d shed\n"
                  % (daemon.metrics.counter("serve.requests").value,
                     daemon.coalescer.stats.coalesced,
                     daemon.metrics.counter("serve.shed").value))
        return 0

    raise AssertionError("unhandled command %r" % args.command)
