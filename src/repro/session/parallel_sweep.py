"""Process-pool execution backend for :class:`SweepDriver`.

The paper's §7 observation -- contour constructions "can be carried out
in parallel since they do not have any dependence on each other" --
holds equally for the (query, algorithm, grid-location) units a sweep
grinds through: every location is an independent discovery run. This
module shards those runs across worker processes while keeping the
*results* bit-identical to a serial sweep, so parallelism is purely an
execution detail, invisible to grids, extras, obs counters and journals.

Determinism contract (DESIGN.md §9)
-----------------------------------
* **Work is deterministic, scheduling is not.** Workers rehydrate their
  session from the declarative config, wire each unit through a
  worker-side :class:`~repro.session.sweep.SweepDriver` (the serial
  wiring, engines built from the
  :class:`~repro.session.registry.EngineSpec`) and compute
  per-location outcomes; *all* folding
  happens in the parent, in grid-location order, through the same
  :class:`~repro.metrics.mso.SweepAccumulator` the serial sweep uses.
  Counter merges add floats and float addition is not associative, so
  merge order is part of the contract, not an optimisation detail.
* **Sampling is drawn once, in the parent.** The parent calls
  :func:`~repro.metrics.mso.sample_locations` per pending unit in unit
  order -- exactly the serial draw sequence -- and ships explicit flat
  indices to workers.
* **Fault seeds split by unit key.** ``fault_seed`` derives each unit's
  seed from its ``query/algorithm`` name
  (:func:`~repro.session.sweep.unit_fault_seed`), never from dispatch
  order, so schedules survive resharding and resumes.
* **The journal sees unit order only.** BEGIN/COMMIT pairs are written
  by the parent as each unit's merge completes, in unit order --
  byte-identical to the serial WAL (where BEGIN immediately precedes
  its COMMIT because units run one at a time).

Known divergences (documented, asserted nowhere to be identical):
per-worker circuit breakers trip independently, so degraded-*reason*
tallies under an open breaker may shift between ``retries-exhausted``
and ``breaker-open`` (the degraded results themselves are identical --
both reasons fall back to the same native run); the deadline watchdog is
enforced in the parent at chunk granularity, so a parallel sweep can
overshoot an expired budget by up to one in-flight window rather than
one execution; trace *files* aggregate worker chunks (same events per
location, fresh sequence numbers per chunk).
"""

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.catalog.datagen import DatabaseSpec
from repro.common.errors import DiscoveryError
from repro.metrics.mso import SweepAccumulator, sample_locations
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.robustness.durable import CircuitBreaker, Deadline, \
    SweepJournal
from repro.session.registry import BreakerBoard
from repro.session.sweep import SweepDriver, SweepRecord, \
    _sweep_from_payload, _sweep_payload

#: Outstanding chunk tasks per worker; bounds how far dispatch runs
#: ahead of the deadline watchdog (and journal commit order).
WINDOW_PER_WORKER = 2


def _auto_chunk(locations, workers):
    """Locations per task: ~4 tasks per worker per unit, at least 1."""
    return max(1, -(-locations // (workers * 4)))


def _validate(driver, algorithms):
    """Refuse configurations whose state cannot cross process boundaries.

    Everything refused here works serially; the errors say what to pass
    instead so ``--workers`` is never a silent behaviour change.
    """
    if driver.engine_spec.base != "simulated" \
            and not isinstance(driver.session.database, DatabaseSpec):
        raise DiscoveryError(
            "parallel sweeps support row-backed engine specs only with "
            "a declarative database (%r needs rows; give the session a "
            "DatabaseSpec so workers can regenerate them -- raw arrays "
            "cannot be shipped)" % driver.engine_spec.describe())
    for algorithm in algorithms:
        if not isinstance(algorithm, (str, type)):
            raise DiscoveryError(
                "parallel sweeps take algorithm names or classes, not "
                "prebuilt instances (%r); instances are rebuilt inside "
                "each worker" % (algorithm,))


# ----------------------------------------------------------------------
# worker side
#
# Per-process state, initialised once per worker from the declarative
# config. Engine/session state is *rehydrated*, never shipped: the
# config holds only names, numbers, Query objects and a RetryPolicy.

_WORKER = {}

#: Parent-built ``{query name: (space, contours)}``, published just
#: before the pool starts so fork-started workers inherit the artifacts
#: through copy-on-write memory instead of each rebuilding the space on
#: (possibly) one shared core. Start methods that don't inherit memory
#: (spawn) simply find it empty and rebuild -- slower, still correct,
#: and identical either way because space builds are deterministic.
_FORK_ARTIFACTS = {}


def _die_with_parent():
    """Arrange for this worker to die when its parent does.

    A SIGKILL'd parent cannot clean up its pool, and fork children do
    not see a broken pipe on the shared call queue -- they would block
    on it forever as orphans. On Linux, ``PR_SET_PDEATHSIG`` delivers
    SIGKILL the moment the parent exits; elsewhere a daemon thread
    polls for re-parenting and exits the worker itself.
    """
    try:
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) == 0:
            # The parent may have died between fork and prctl.
            if os.getppid() == 1:
                os._exit(1)
            return
    except Exception:
        pass

    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _init_worker(config):
    from repro.session.session import RobustSession

    _die_with_parent()
    sess = config["session"]
    board = None
    if sess["board"] is not None:
        threshold, cooldown = sess["board"]
        board = BreakerBoard(threshold=threshold, cooldown=cooldown)
    _WORKER.clear()
    _WORKER.update({
        "config": config,
        "session": RobustSession(
            resolution=sess["resolution"], mode=sess["mode"],
            s_min=sess["s_min"], rng=sess["rng"], ratio=sess["ratio"],
            engine_spec=sess["engine_spec"], guard=sess["guard"],
            database=sess.get("database"), breaker=board),
        "breaker": None if config["driver"]["breaker"] is None
        else CircuitBreaker(*config["driver"]["breaker"]),
        "wired": {},
    })


def _expired_deadline(reason):
    """An already-expired :class:`Deadline` reporting ``reason``.

    Attached to runs dispatched after the parent watchdog fired, so the
    guard takes exactly the serial degrade path (``deadline-<reason>``
    extras, native fallback) without any wall-clock dependence in the
    worker.
    """
    if reason == "cost_budget":
        deadline = Deadline(cost_limit=0.0)
        deadline.charge(1.0)
        return deadline
    deadline = Deadline(wall_limit=0.0)
    deadline.started -= 1.0
    return deadline


def _worker_unit(unit_index, expired):
    """The (algorithm instance, engine factory) for one unit.

    Both come from a worker-side :class:`SweepDriver` built from the
    parent driver's config, so a worker wires a unit exactly as the
    serial driver does. Cached per (unit, expiry): expired tasks need a
    guard wired to an expired deadline.
    """
    key = (unit_index, expired)
    wired = _WORKER["wired"].get(key)
    if wired is None:
        config = _WORKER["config"]["driver"]
        deadline = None
        if expired:
            deadline = _expired_deadline(expired)
        elif config["deadline"]:
            deadline = Deadline()
        driver = SweepDriver(
            _WORKER["session"], resolution=config["resolution"],
            lam=config["lam"], ratio=config["ratio"],
            engine_spec=config["engine_spec"],
            fault_seed=config["fault_seed"], deadline=deadline,
            breaker=_WORKER["breaker"])
        driver._artifact_memo.update(_FORK_ARTIFACTS)
        unit = _WORKER["config"]["units"][unit_index]
        instance = driver.algorithm(unit["algorithm"], unit["query"])
        wired = (instance, driver._unit_engine_factory(instance.space,
                                                       unit["unit"]))
        _WORKER["wired"][key] = wired
    return wired


def _run_chunk(task):
    """Execute one chunk of grid locations; return per-location records.

    The return value carries everything the parent's in-order merge
    needs: each location's run distilled by
    :meth:`~repro.metrics.mso.SweepAccumulator.distil`, in location
    order, plus this worker's breaker accounting (latest snapshot wins
    per pid).
    """
    config = _WORKER["config"]
    driver = config["driver"]
    unit_index = task["unit"]
    instance, factory = _worker_unit(unit_index, task.get("expired"))

    tracer = NULL_TRACER
    if driver["trace_dir"] is not None:
        unit = config["units"][unit_index]
        os.makedirs(driver["trace_dir"], exist_ok=True)
        tracer = Tracer(os.path.join(
            driver["trace_dir"], "%s-%s.chunk-%05d.jsonl"
            % (unit["query"].name, unit["label"], task["chunk"])))

    grid = instance.space.grid
    records = []
    try:
        for flat in task["locs"]:
            engine = factory(grid.unflat(int(flat))) if factory else None
            records.append(SweepAccumulator.distil(instance.run(
                grid.unflat(int(flat)), engine=engine, tracer=tracer)))
    finally:
        tracer.close()

    breakers = {}
    if _WORKER["breaker"] is not None:
        breakers["driver"] = _WORKER["breaker"].stats()
    board = _WORKER["session"].breakers
    if board is not None:
        breakers["board"] = board.export()
    return {"unit": unit_index, "chunk": task["chunk"],
            "records": records, "pid": os.getpid(), "breakers": breakers}


# ----------------------------------------------------------------------
# parent side


class _UnitPlan:
    """One pending unit's dispatch geometry and collected results."""

    __slots__ = ("unit", "flats", "sampled", "grid_shape", "size",
                 "chunks", "received", "done_locations")

    def __init__(self, unit, flats, sampled, grid_shape, size):
        self.unit = unit
        self.flats = flats
        self.sampled = sampled
        self.grid_shape = grid_shape
        self.size = size
        self.chunks = -(-len(flats) // size)
        self.received = {}
        self.done_locations = 0

    @property
    def complete(self):
        return len(self.received) == self.chunks


def _worker_config(driver, pending):
    session = driver.session
    board = session.breakers
    return {
        "session": {
            "resolution": session.resolution, "mode": session.mode,
            "s_min": session.s_min, "rng": session.rng,
            "ratio": session.ratio,
            "engine_spec": session.engine_spec.describe(),
            "guard": session.guard_policy,
            # DatabaseSpec is declarative+picklable; raw arrays are not
            # shipped (validation refuses them for row-backed specs).
            "database": session.database
            if isinstance(session.database, DatabaseSpec) else None,
            "board": None if board is None
            else (board.threshold, board.cooldown),
        },
        "driver": {
            "resolution": driver.resolution, "lam": driver.lam,
            "ratio": driver.ratio,
            "engine_spec": driver.engine_spec.describe(),
            "fault_seed": driver.fault_seed,
            "trace_dir": driver.trace_dir,
            "deadline": driver.deadline is not None,
            "breaker": None if driver.breaker is None
            else (driver.breaker.threshold, driver.breaker.cooldown),
        },
        "units": [plan.unit for plan in pending],
    }


def _merge_unit(plan, name):
    """Fold one unit's chunk records into a serial-identical sweep.

    Chunks are iterated in chunk order and records within a chunk are
    already in location order, so the accumulator sees the exact fold
    sequence the serial sweep would have produced.
    """
    acc = SweepAccumulator()
    for chunk_index in range(plan.chunks):
        for run in plan.received[chunk_index]:
            acc.add(run)
    return acc.result(name, plan.flats, plan.sampled, plan.grid_shape)


def _aggregate_traces(driver, plan):
    """Concatenate a unit's worker chunk traces into the per-unit file.

    Trace files are headerless CRC-framed JSONL, so byte concatenation
    in chunk order yields a valid per-unit trace (event ``seq`` fields
    restart per chunk; consumers order by file position).
    """
    unit = plan.unit
    final = driver._trace_path(unit["query"].name, unit["label"])
    with open(final, "wb") as out:
        for chunk_index in range(plan.chunks):
            part = os.path.join(
                driver.trace_dir, "%s-%s.chunk-%05d.jsonl"
                % (unit["query"].name, unit["label"], chunk_index))
            if not os.path.exists(part):
                continue
            with open(part, "rb") as handle:
                out.write(handle.read())
            os.unlink(part)


def _fold_breakers(driver, exports):
    """Fold each worker's final breaker accounting into the parent.

    ``exports`` maps pid -> the latest snapshot that worker reported;
    snapshots are cumulative, so only the last per worker is folded.
    """
    for stats in exports.values():
        if driver.breaker is not None and "driver" in stats:
            driver.breaker.absorb(stats["driver"])
        board = driver.session.breakers
        if board is not None and "board" in stats:
            board.absorb(stats["board"])


def parallel_run(driver, queries, algorithms):
    """Yield :class:`SweepRecord` per unit, executing across processes.

    The stream is ordered exactly as the serial driver's (query-major),
    journal replay/commit semantics included. Execution overlaps across
    units and across chunks within a unit; only the yield/merge/commit
    sequence is serialised.
    """
    _validate(driver, algorithms)
    session = driver.session
    queries = [session.query(q) for q in queries]
    units = []
    for query in queries:
        for algorithm in algorithms:
            label = driver._label(algorithm)
            units.append({
                "query": query, "algorithm": algorithm, "label": label,
                "unit": SweepJournal.unit_key(query.name, label)})

    journal = driver._open_journal(queries, algorithms)
    if journal is not None:
        driver.journal_stats = journal.stats
    try:
        committed = frozenset(journal.committed) if journal is not None \
            else frozenset()
        plans = []
        for unit in units:
            if unit["unit"] in committed:
                continue
            space, _contours = driver.artifacts(unit["query"])
            flats, sampled = sample_locations(space.grid, driver.sample,
                                              driver.rng)
            size = driver.chunk_size or _auto_chunk(len(flats),
                                                    driver.workers)
            plans.append(_UnitPlan(unit, flats, sampled,
                                   tuple(space.grid.shape), size))
        if driver.trace_dir is not None:
            os.makedirs(driver.trace_dir, exist_ok=True)

        tasks = deque()
        for index, plan in enumerate(plans):
            for chunk_index in range(plan.chunks):
                locs = plan.flats[chunk_index * plan.size:
                                  (chunk_index + 1) * plan.size]
                tasks.append({"unit": index, "chunk": chunk_index,
                              "locs": locs})

        breaker_exports = {}
        deadline = driver.deadline
        inflight = {}
        window = driver.workers * WINDOW_PER_WORKER

        def submit_next(pool):
            while tasks and len(inflight) < window:
                task = tasks.popleft()
                if deadline is not None:
                    reason = deadline.exceeded()
                    if reason is not None:
                        task = dict(task, expired=reason)
                inflight[pool.submit(_run_chunk, task)] = task

        def pump(pool):
            """Keep the window full; absorb at least one chunk result."""
            submit_next(pool)
            done, _running = wait(list(inflight),
                                  return_when=FIRST_COMPLETED)
            for future in done:
                inflight.pop(future)
                outcome = future.result()
                plan = plans[outcome["unit"]]
                plan.received[outcome["chunk"]] = outcome["records"]
                plan.done_locations += len(outcome["records"])
                breaker_exports[outcome["pid"]] = outcome["breakers"]
                if deadline is not None:
                    for *_rest, spent, _retries, wasted \
                            in outcome["records"]:
                        deadline.charge(spent + wasted)
                if driver.progress:
                    driver.progress(plan.done_locations, len(plan.flats))
            submit_next(pool)

        _FORK_ARTIFACTS.clear()
        for plan in plans:
            query = plan.unit["query"]
            _FORK_ARTIFACTS[query.name] = driver.artifacts(query)
        with ProcessPoolExecutor(
                max_workers=driver.workers,
                initializer=_init_worker,
                initargs=(_worker_config(driver, plans),)) as pool:
            submit_next(pool)
            next_plan = 0
            for unit in units:
                if unit["unit"] in committed:
                    payload = journal.replay_result(unit["unit"])
                    instance = driver.algorithm(unit["algorithm"],
                                                unit["query"])
                    sweep = _sweep_from_payload(payload)
                    driver._merge_obs(sweep)
                    yield SweepRecord(unit["query"].name, unit["label"],
                                      instance, sweep, replayed=True)
                    continue
                plan = plans[next_plan]
                next_plan += 1
                while not plan.complete:
                    pump(pool)
                instance = driver.algorithm(unit["algorithm"],
                                            unit["query"])
                sweep = _merge_unit(plan, instance.name)
                if journal is not None:
                    journal.begin(unit["unit"])
                    journal.commit(unit["unit"], _sweep_payload(sweep))
                if driver.trace_dir is not None:
                    _aggregate_traces(driver, plan)
                driver._merge_obs(sweep)
                label = unit["label"] if isinstance(unit["algorithm"],
                                                    str) else instance.name
                yield SweepRecord(unit["query"].name, label, instance,
                                  sweep)
            while inflight:
                pump(pool)
        _fold_breakers(driver, breaker_exports)
    finally:
        _FORK_ARTIFACTS.clear()
        if journal is not None:
            journal.close()
