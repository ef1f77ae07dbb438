"""Batched sweep driving: many (query, algorithm) sweeps, one stream.

The paper's evaluation repeats one motif a dozen times: for each
workload, build space + contours, instantiate one or more algorithms,
run the exhaustive sweep, tabulate MSO/ASO/distribution columns. The
:class:`SweepDriver` owns that loop once -- artifacts come from the
session's cache, sweeps run through
:func:`repro.metrics.mso.exhaustive_sweep`, and results are emitted as a
uniform stream of :class:`SweepRecord` items that report builders
consume (``driver.grid(...)`` groups them back per query).

Durability (all opt-in, inert by default):

* ``journal=`` brackets every ``(query, algorithm)`` unit with
  ``BEGIN``/``COMMIT`` records in a
  :class:`~repro.robustness.durable.SweepJournal` write-ahead log.
  Re-running a driver against an existing journal *replays* committed
  units from the log -- bit-identical results, zero re-execution -- and
  re-runs only in-flight/pending ones (the ``--resume`` path a killed
  process takes). An in-flight unit re-runs from scratch: the journal's
  segments are the sweep's only durable record, and a run's discovery
  checkpoint lives in memory for its guard's retries.
* ``deadline=`` / ``breaker=`` attach a cooperative
  :class:`~repro.robustness.durable.Deadline` and a per-engine
  :class:`~repro.robustness.durable.CircuitBreaker` to every guarded
  unit, so a sweep terminates within a wall-clock/cost budget and
  fast-fails on a substrate that is down.
"""

import os
import zlib

import numpy as np

from repro.metrics.mso import SweepResult, exhaustive_sweep
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.robustness.durable import SweepJournal
from repro.session.registry import EngineSpec


def unit_fault_seed(base_seed, unit):
    """The per-unit fault seed split from a sweep-level ``fault_seed``.

    Derived from the *unit key* (``query/algorithm``), not the unit's
    position in the dispatch order, so the same unit draws the same
    fault schedule whether the sweep runs serially, across N workers,
    or resumes with a different algorithm list. CRC32 keeps it cheap,
    stable across processes and Python versions, and independent of
    ``PYTHONHASHSEED``.
    """
    return (int(base_seed) + zlib.crc32(unit.encode("utf-8"))) % (2 ** 31)


def session_reuse_summary(session):
    """Reuse counters of ``session``'s artifact cache.

    Shared by :meth:`SweepDriver.reuse_summary`, the ``repro sweep``
    report and the atlas stats sidecar, so every surface quantifies
    reuse with the same keys. These counters are *volatile* -- they
    differ between serial and parallel execution (workers warm their
    own caches) -- which is why the atlas keeps them out of the
    canonical summary and in a sidecar instead.
    """
    stats = session.stats
    return {
        "space_memory_hits": stats.memory_hits,
        "space_disk_hits": stats.disk_hits,
        "space_builds": stats.builds,
        "contour_hits": stats.contour_hits,
        "contour_builds": stats.contour_builds,
    }


class SweepRecord:
    """One (query, algorithm) sweep outcome in a driver's stream.

    ``sweep`` is the :class:`~repro.metrics.mso.SweepResult`;
    ``instance`` the algorithm object that ran it (for guarantees and
    extras); ``query_name`` / ``algorithm`` name the cell. ``replayed``
    marks a unit served from a journal's COMMIT record instead of being
    re-executed.
    """

    __slots__ = ("query_name", "algorithm", "instance", "sweep",
                 "replayed")

    def __init__(self, query_name, algorithm, instance, sweep,
                 replayed=False):
        self.query_name = query_name
        self.algorithm = algorithm
        self.instance = instance
        self.sweep = sweep
        self.replayed = replayed

    @property
    def mso(self):
        return self.sweep.mso

    @property
    def aso(self):
        return self.sweep.aso

    def __repr__(self):
        return "SweepRecord(%s/%s, MSO=%.2f, ASO=%.2f%s)" % (
            self.query_name, self.algorithm, self.mso, self.aso,
            ", replayed" if self.replayed else "")


def _sweep_payload(sweep):
    """JSON-safe COMMIT payload carrying the *full* sweep result.

    Floats go through ``repr`` round-tripping (shortest exact form), so
    a replayed grid is bit-identical to the one that was committed.
    """
    return {
        "algorithm": sweep.algorithm,
        "shape": [int(s) for s in sweep.shape],
        "sub_optimalities": [
            float(x) for x in np.asarray(sweep.sub_optimalities).ravel()
        ],
        "extras": sweep.extras,
        "sample_flats": (None if sweep.sample_flats is None
                         else [int(f) for f in sweep.sample_flats]),
        "grid_shape": (None if sweep.grid_shape is None
                       else [int(s) for s in sweep.grid_shape]),
    }


def _sweep_from_payload(payload):
    shape = tuple(int(s) for s in payload["shape"])
    values = np.array(payload["sub_optimalities"], dtype=float)
    # ``.get`` keeps journals written before sampled-sweep geometry was
    # recorded replayable (their worst_location stays sample-relative).
    flats = payload.get("sample_flats")
    grid_shape = payload.get("grid_shape")
    return SweepResult(
        payload["algorithm"], values.reshape(shape), shape,
        extras=dict(payload.get("extras") or {}),
        sample_flats=None if flats is None else [int(f) for f in flats],
        grid_shape=None if grid_shape is None
        else tuple(int(s) for s in grid_shape))


class SweepDriver:
    """Run sweeps for many queries x algorithms through one session.

    Parameters mirror the historical per-driver arguments:
    ``sample``/``rng`` cap and seed the location sampling, ``resolution``
    overrides the session's grid default, ``lam`` is forwarded to
    PlanBouquet-family factories, ``engine_spec`` names the execution
    environment of every run (default: the session's). ``journal``,
    ``deadline`` and ``breaker`` add the durability layer (see the
    module docstring); with all three at their defaults the driver is
    byte-identical to its pre-durability behaviour.

    Every unit -- serial, in a worker process, or one
    :meth:`RobustSession.sweep <repro.session.RobustSession.sweep>` --
    is wired here: :meth:`algorithm` builds its instance and
    ``_unit_engine_factory`` its engines.
    """

    def __init__(self, session, sample=None, rng=0, resolution=None,
                 lam=None, ratio=None, progress=None, journal=None,
                 resume=None, deadline=None, breaker=None, trace_dir=None,
                 engine_spec=None, fault_seed=None, workers=None,
                 chunk_size=None):
        self.session = session
        self.sample = sample
        self.rng = rng
        self.resolution = resolution
        self.lam = lam
        self.ratio = ratio
        #: Declarative execution environment for every run (an
        #: :class:`~repro.session.registry.EngineSpec`); plain
        #: ``simulated`` runs on each algorithm's own engine.
        self.engine_spec = session.engine_spec if engine_spec is None \
            else EngineSpec.parse(engine_spec)
        #: Sweep-level fault seed, split per unit via
        #: :func:`unit_fault_seed` when the spec has a faulty layer.
        self.fault_seed = fault_seed
        #: Process-pool width; ``None``/``1`` runs serially, ``> 1``
        #: routes execution through
        #: :mod:`repro.session.parallel_sweep` (bit-identical results).
        self.workers = workers
        #: Locations per worker task (``None`` sizes chunks
        #: automatically from the grid and worker count).
        self.chunk_size = chunk_size
        self.progress = progress
        self.journal = journal
        self.resume = resume
        self.deadline = deadline
        self.breaker = breaker
        #: Directory for per-unit discovery traces; ``None`` disables
        #: tracing entirely (the hot path sees only a NullTracer).
        self.trace_dir = trace_dir
        #: Stats of the last journaled ``run`` (replayed/executed).
        self.journal_stats = None
        #: Per-query (space, contours) memo: ``artifacts`` is consulted
        #: twice per unit (algorithm construction and engine factory)
        #: and once per unit per algorithm, so sweeping K algorithms
        #: over one query pays the session-cache lookup once, not 2K
        #: times.
        self._artifact_memo = {}
        #: Driver-level metrics folded from every unit's ``obs``
        #: snapshot (``None`` until a unit reports one).
        self.obs = None

    def obs_summary(self):
        """Aggregated observability snapshot across all units so far."""
        return self.obs.snapshot() if self.obs is not None else {}

    def _merge_obs(self, sweep):
        snapshot = sweep.extras.get("obs")
        if snapshot:
            if self.obs is None:
                self.obs = MetricsRegistry()
            self.obs.merge(snapshot)

    # ------------------------------------------------------------------

    def artifacts(self, query):
        """The (space, contours) pair this driver sweeps over (memoized
        per query name on top of the session cache)."""
        resolved = self.session.query(query)
        cached = self._artifact_memo.get(resolved.name)
        if cached is None:
            cached = self.session.space_and_contours(
                resolved, ratio=self.ratio, resolution=self.resolution)
            self._artifact_memo[resolved.name] = cached
        return cached

    def reuse_summary(self):
        """Cross-unit reuse counters of the session's artifact cache.

        Sweep units sharing a query share one space (and therefore one
        probe table and one subtree-tensor cache) and one contour set per
        ratio (one contour-slice cache). These counters say how many
        space and contour lookups that sharing served without a build.
        """
        return session_reuse_summary(self.session)

    def algorithm(self, algorithm, query):
        """Instantiate ``algorithm`` over the cached artifacts.

        A prebuilt instance runs as given: the session guard, deadline
        and breaker apply to the instances the driver builds from
        names or classes, so an instance is never guarded twice.
        """
        if not isinstance(algorithm, (str, type)):
            return algorithm
        space, contours = self.artifacts(query)
        kwargs = {}
        if self.lam is not None and algorithm in ("planbouquet",
                                                  "randomized"):
            kwargs["lam"] = self.lam
        if self.deadline is not None or self.breaker is not None:
            kwargs["deadline"] = self.deadline
            kwargs["breaker"] = self.breaker
        return self.session.algorithm(algorithm, space=space,
                                      contours=contours, **kwargs)

    @staticmethod
    def _label(algorithm):
        """Stable unit label, computable without building artifacts."""
        if isinstance(algorithm, str):
            return algorithm
        return getattr(algorithm, "name", str(algorithm))

    # ------------------------------------------------------------------
    # journal plumbing

    def _config(self, queries, algorithms):
        """Sweep fingerprint stored in (and checked against) the WAL.

        ``workers`` is deliberately absent: parallel execution is
        bit-identical to serial, so a journal written by either may be
        resumed by the other. ``fault_seed`` joins the fingerprint only
        when set, keeping journals from before the knob existed
        resumable.
        """
        config = {
            "queries": [self.session.query(q).name for q in queries],
            "algorithms": [self._label(a) for a in algorithms],
            "sample": self.sample,
            "rng": self.rng,
            "resolution": self.resolution,
            "lam": self.lam,
            "ratio": self.ratio,
            "engine": self.engine_spec.describe(),
        }
        if self.fault_seed is not None:
            config["fault_seed"] = self.fault_seed
        return config

    def _open_journal(self, queries, algorithms):
        if self.journal is None:
            return None
        journal = self.journal
        if not isinstance(journal, SweepJournal):
            journal = SweepJournal(os.fspath(journal))
        journal.open(config=self._config(queries, algorithms),
                     resume=self.resume)
        return journal

    # ------------------------------------------------------------------

    def run(self, queries, algorithms=("spillbound",)):
        """Yield a :class:`SweepRecord` per (query, algorithm) pair.

        ``queries`` is an iterable of workload names or Query objects;
        ``algorithms`` of registry names, classes or prebuilt
        factories. The stream is ordered query-major, matching the
        paper's tables.
        """
        queries = list(queries)
        algorithms = list(algorithms)
        if self.workers is not None and self.workers > 1:
            from repro.session.parallel_sweep import parallel_run
            yield from parallel_run(self, queries, algorithms)
            return
        journal = self._open_journal(queries, algorithms)
        if journal is not None:
            self.journal_stats = journal.stats
        try:
            for query in queries:
                resolved = self.session.query(query)
                for algorithm in algorithms:
                    yield self._unit(journal, resolved, algorithm)
        finally:
            if journal is not None:
                journal.close()

    def _trace_path(self, query_name, label):
        return os.path.join(self.trace_dir,
                            "%s-%s.jsonl" % (query_name, label))

    def _unit_engine_factory(self, space, unit):
        """The per-location engine factory of one unit over ``space``.

        ``None`` for plain ``simulated``: each algorithm builds its own
        engine, as :meth:`RobustSession.run` does. Otherwise engines are
        built from the spec; with ``fault_seed`` set and a faulty layer
        present, the unit's split seed (:func:`unit_fault_seed`)
        overrides the layer's own, so every unit sees an independent --
        but reproducible -- fault stream. Serial and worker-side drivers
        both build engines here, which is half of the determinism
        contract (the other half is the merge order; DESIGN.md §9).
        """
        spec = self.engine_spec
        if spec == EngineSpec.parse("simulated"):
            return None
        overrides = {}
        if self.fault_seed is not None and any(
                name == "faulty" for name, _kwargs in spec.layers):
            overrides["seed"] = unit_fault_seed(self.fault_seed, unit)
        database = self.session.database

        def factory(qa):
            return spec.build(space, qa_index=qa, database=database,
                              **overrides)

        return factory

    def _unit(self, journal, query, algorithm):
        """Run (or replay) one ``(query, algorithm)`` unit."""
        label = self._label(algorithm)
        unit = SweepJournal.unit_key(query.name, label)
        if journal is not None:
            payload = journal.replay_result(unit)
            if payload is not None:
                instance = self.algorithm(algorithm, query)
                sweep = _sweep_from_payload(payload)
                self._merge_obs(sweep)
                return SweepRecord(query.name, label, instance,
                                   sweep, replayed=True)
            journal.begin(unit)
        instance = self.algorithm(algorithm, query)
        tracer = self.session.tracer
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            tracer = Tracer(self._trace_path(query.name, label))
        try:
            sweep = exhaustive_sweep(
                instance, sample=self.sample, rng=self.rng,
                progress=self.progress,
                engine_factory=self._unit_engine_factory(instance.space,
                                                        unit),
                tracer=tracer)
            if journal is not None:
                journal.commit(unit, _sweep_payload(sweep), tracer=tracer)
        finally:
            if self.trace_dir is not None:
                tracer.close()
        self._merge_obs(sweep)
        label = label if isinstance(algorithm, str) else instance.name
        return SweepRecord(query.name, label, instance, sweep)

    def grid(self, queries, algorithms=("spillbound",)):
        """``{query_name: {algorithm: SweepRecord}}`` for table rows."""
        table = {}
        for record in self.run(queries, algorithms):
            table.setdefault(record.query_name, {})[record.algorithm] = \
                record
        return table
