"""Atlas driver: one run over skeletons x regimes x algorithms.

The paper evaluates each algorithm on a handful of hand-picked
workloads; the 2026 q-error landscape study shows that is not enough --
robustness verdicts flip across cardinality-error regimes. The atlas is
the workload-scale answer: a single parallel, journaled, resumable
enumeration of every configured (skeleton, regime, resolution,
algorithm) unit, producing one canonical summary that CI can diff
against a blessed baseline.

Structurally the atlas is a thin conductor over the existing machinery:

* regime-qualified workload names (:mod:`repro.ess.regimes`) make every
  error regime a first-class workload, so the same
  :class:`~repro.session.SweepDriver` that powers ``repro sweep`` runs
  them -- journal bracketing and ``--workers`` process pools included;
* one :class:`~repro.session.RobustSession` is shared across all
  resolutions, so each (skeleton, regime, resolution) space is built
  once and its artifact-cache counters land in the stats sidecar;
* results are plain :class:`AtlasUnit` records; everything summary- or
  report-shaped lives in :mod:`repro.atlas.summary` and
  :mod:`repro.atlas.report`.

Determinism contract (DESIGN.md §14): with a fixed config the atlas's
canonical summary is byte-identical across runs, across serial and
parallel execution, and across journal replays. Everything volatile --
cache counters, journal stats, wall-clock -- is excluded from the
summary and reported via :meth:`AtlasResult.stats` instead.
"""

import os

from repro.common.errors import DiscoveryError
from repro.ess.regimes import REGIMES, split_regime_name
from repro.harness.workloads import suite_of, workload
from repro.session import RobustSession, SweepDriver
from repro.session.sweep import session_reuse_summary

#: Reduced default suite: one skeleton per benchmark family plus the
#: paper's traced 2D query, small enough for a blocking CI gate.
DEFAULT_QUERIES = ("2D_EQ", "2D_Q91", "3D_Q15", "3D_JOB1a")

#: ``baseline`` is the skeleton's own catalog-derived cost surface; the
#: rest are the synthetic q-error regimes.
DEFAULT_REGIMES = ("baseline",) + REGIMES

DEFAULT_ALGORITHMS = ("spillbound", "alignedbound")

DEFAULT_RESOLUTIONS = (5,)


class AtlasConfig:
    """Declarative atlas extent: what to sweep, at which seed.

    Every field round-trips through :meth:`to_dict` /
    :meth:`from_dict`, because the config is embedded in the canonical
    summary and ``repro atlas check`` rebuilds its run from the
    baseline's embedded config (plus any deliberate CLI overrides --
    the injection path the gate tests use).
    """

    __slots__ = ("queries", "regimes", "algorithms", "resolutions",
                 "seed", "sample", "ratio")

    def __init__(self, queries=DEFAULT_QUERIES, regimes=DEFAULT_REGIMES,
                 algorithms=DEFAULT_ALGORITHMS,
                 resolutions=DEFAULT_RESOLUTIONS, seed=0, sample=None,
                 ratio=None):
        self.queries = tuple(queries)
        self.regimes = tuple(regimes)
        self.algorithms = tuple(algorithms)
        self.resolutions = tuple(int(r) for r in resolutions)
        self.seed = int(seed)
        self.sample = None if sample is None else int(sample)
        self.ratio = None if ratio is None else float(ratio)
        for regime in self.regimes:
            if regime != "baseline" and regime not in REGIMES:
                raise DiscoveryError(
                    "unknown atlas regime %r (known: baseline, %s)"
                    % (regime, ", ".join(REGIMES)))
        if not (self.queries and self.regimes and self.algorithms
                and self.resolutions):
            raise DiscoveryError(
                "atlas config needs at least one query, regime, "
                "algorithm and resolution")

    # ------------------------------------------------------------------

    def qualified(self, base, regime):
        """The workload name of ``(base, regime)`` at this config's
        seed (the ``baseline`` regime is the unqualified skeleton)."""
        if regime == "baseline":
            return base
        suffix = "" if self.seed == 0 else "#%d" % self.seed
        return "%s@%s%s" % (base, regime, suffix)

    def workload_names(self):
        """Every qualified workload name, query-major then regime."""
        return [self.qualified(base, regime)
                for base in self.queries for regime in self.regimes]

    def to_dict(self):
        return {
            "queries": list(self.queries),
            "regimes": list(self.regimes),
            "algorithms": list(self.algorithms),
            "resolutions": list(self.resolutions),
            "seed": self.seed,
            "sample": self.sample,
            "ratio": self.ratio,
        }

    @classmethod
    def from_dict(cls, payload, **overrides):
        """Rebuild a config from a summary's embedded dict; keyword
        ``overrides`` (non-``None`` only) replace individual fields."""
        fields = dict(payload)
        for key, value in overrides.items():
            if value is not None:
                fields[key] = value
        unknown = set(fields) - set(cls.__slots__)
        if unknown:
            raise DiscoveryError(
                "unknown atlas config field(s): %s"
                % ", ".join(sorted(unknown)))
        return cls(**fields)

    def __repr__(self):
        return ("AtlasConfig(%d queries x %d regimes x %d algorithms "
                "x %d resolutions, seed=%d)"
                % (len(self.queries), len(self.regimes),
                   len(self.algorithms), len(self.resolutions),
                   self.seed))


class AtlasUnit:
    """One (resolution, workload, algorithm) cell of the atlas."""

    __slots__ = ("key", "suite", "skeleton", "regime", "resolution",
                 "query_name", "algorithm", "sweep", "guarantee",
                 "replayed", "exhibit")

    def __init__(self, key, suite, skeleton, regime, resolution,
                 query_name, algorithm, sweep, guarantee, replayed):
        self.key = key
        self.suite = suite
        self.skeleton = skeleton
        self.regime = regime
        self.resolution = resolution
        self.query_name = query_name
        self.algorithm = algorithm
        self.sweep = sweep
        self.guarantee = guarantee
        self.replayed = replayed
        #: Optional worst-location deep dive (trace, figures) attached
        #: by :func:`collect_exhibits`; report-only, never summarised.
        self.exhibit = None

    @property
    def mso(self):
        return self.sweep.mso

    def __repr__(self):
        return "AtlasUnit(%s, MSO=%.2f%s)" % (
            self.key, self.mso, ", replayed" if self.replayed else "")


class AtlasResult:
    """Everything one atlas run produced, summary-ready."""

    def __init__(self, config, units, session, journal_stats=None):
        self.config = config
        self.units = units
        self.session = session
        self.journal_stats = journal_stats

    def stats(self):
        """Volatile run accounting: reuse counters + journal stats.

        Deliberately *not* part of the canonical summary -- worker
        processes warm their own caches, so these counters differ
        between serial and parallel runs of the same config.
        """
        payload = {"reuse": session_reuse_summary(self.session)}
        if self.journal_stats is not None:
            payload["journal"] = dict(self.journal_stats)
        return payload


def unit_key(resolution, query_name, algorithm):
    """Canonical unit key: ``res<R>/<workload>/<algorithm>``."""
    return "res%d/%s/%s" % (resolution, query_name, algorithm)


def _split(config, query_name):
    parts = split_regime_name(query_name)
    if parts is None:
        return query_name, "baseline"
    return parts[0], parts[1]


def run_atlas(config, journal_dir=None, resume=False, workers=None,
              session=None, progress=None):
    """Run (or resume) the atlas described by ``config``.

    Parameters
    ----------
    journal_dir:
        Optional durability root; each resolution journals its units
        under ``<journal_dir>/res-<R>``. With ``resume=True`` committed
        units are replayed bit-identically from the WAL and only the
        rest re-execute.
    workers:
        Process-pool width per sweep (``None``/1 serial). The summary
        built from the result is byte-identical either way.
    session:
        Optional externally-owned :class:`RobustSession`; a fresh
        in-memory one is created by default.
    progress:
        Optional callback ``f(done, total, unit_key)``.
    """
    if session is None:
        session = RobustSession(engine_spec="simulated")
    names = config.workload_names()
    algorithms = list(config.algorithms)
    total = len(config.resolutions) * len(names) * len(algorithms)
    units = []
    journal_stats = None
    for resolution in config.resolutions:
        journal = None
        if journal_dir is not None:
            journal = os.path.join(journal_dir, "res-%d" % resolution)
            os.makedirs(journal, exist_ok=True)
        driver = SweepDriver(
            session, sample=config.sample, rng=config.seed,
            resolution=resolution, ratio=config.ratio,
            engine_spec="simulated", workers=workers,
            journal=journal, resume=True if resume and journal else None)
        for record in driver.run(names, algorithms):
            skeleton, regime = _split(config, record.query_name)
            guarantee = record.instance.mso_guarantee()
            unit = AtlasUnit(
                key=unit_key(resolution, record.query_name,
                             record.algorithm),
                suite=suite_of(record.query_name),
                skeleton=skeleton, regime=regime, resolution=resolution,
                query_name=record.query_name,
                algorithm=record.algorithm, sweep=record.sweep,
                guarantee=None if guarantee is None
                else float(guarantee),
                replayed=record.replayed)
            units.append(unit)
            if progress is not None:
                progress(len(units), total, unit.key)
        if driver.journal_stats is not None:
            stats = driver.journal_stats
            if journal_stats is None:
                journal_stats = {"replayed": 0, "executed": 0,
                                 "truncated_records": 0}
            journal_stats["replayed"] += stats.replayed
            journal_stats["executed"] += stats.executed
            journal_stats["truncated_records"] += stats.truncated_records
    return AtlasResult(config, units, session,
                       journal_stats=journal_stats)


def collect_exhibits(result, limit=6):
    """Attach worst-location deep dives to up to ``limit`` 2D units.

    For each selected unit the discovery run at the sweep's worst
    location is re-executed with an in-memory tracer, yielding the
    trace records (for the trajectory table), the
    :class:`~repro.algorithms.base.RunResult` (for the Manhattan
    profile) and the unit's space + contours (for the overlay figure).
    Report-only: exhibits never contribute to the canonical summary,
    so the re-run cost is bounded by ``limit`` single discoveries.
    """
    from repro.obs.tracer import Tracer

    session = result.session
    attached = 0
    for unit in result.units:
        if attached >= limit:
            break
        query = session.query(workload(unit.query_name))
        space, contours = session.space_and_contours(
            query, ratio=result.config.ratio,
            resolution=unit.resolution)
        if space.grid.dims != 2:
            continue
        tracer = Tracer()
        run = session.algorithm(unit.algorithm, space=space,
                                contours=contours).run(
            unit.sweep.worst_location(), tracer=tracer)
        unit.exhibit = {
            "space": space,
            "contours": contours,
            "result": run,
            "records": tracer.records,
        }
        attached += 1
    return result
