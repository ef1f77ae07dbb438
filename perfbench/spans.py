"""Span recording for the traced benchmark run, from outside the program.

:func:`install` wraps public entry points of the ``repro`` package (and
a few module-level names the package looks up at call time) so that
every call records a span: name, start, end, parent span and the unit
or request id it belongs to. Nothing under ``src/`` is edited, and the
untraced run never calls :func:`install`, so it measures the program
exactly as shipped.

Spans live in compact in-memory arrays (52 bytes each; one
exhaustive sweep round records roughly 700k of them) and are written to
an ``.npz`` file when the run ends. Self time -- a span's duration
minus the durations of its children -- is computed from the recorded
parent links, so nested layers are never counted twice (AlignedBound
inherits ``SpillBound.run``; a guard's span contains the algorithm's).

Timestamps come from ``time.monotonic_ns`` (CLOCK_MONOTONIC), a clock
shared by every process on the host, so spans recorded inside the serve
daemon line up with the client's spans on one timeline.
"""

import array
import collections
import itertools
import json
import threading
import time

import numpy as np

clock = time.monotonic_ns

#: Span names whose ``tag`` records whether the artifact cache had to
#: build (1) or answered from memory (0).
CACHE_SPAN = "session.space_and_contours"


class Recorder:
    """Append-only span store plus exact event counters.

    Each thread keeps its own stack of open spans; a span's parent is
    the span open beneath it on the same thread, or an explicit parent
    (the serve daemon links its worker-thread spans to the request's
    event-loop span). ``on`` gates recording: wrappers pass straight
    through while it is off, so output checks run after the measured
    window leave no spans behind.
    """

    def __init__(self):
        self.on = False
        self.names = []
        self._name_ids = {}
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.rid = array.array("q")
        self.tag = array.array("q")
        self.counts = collections.Counter()
        #: name -> [(monotonic ns, value)] for distributions the program
        #: observes itself (the serve daemon's queue-wait histogram).
        self.samples = collections.defaultdict(list)
        #: request id -> sid of the open span serving it.
        self.request_spans = {}
        self._ids = itertools.count()
        self._local = threading.local()
        #: The serve daemon closes spans on its event loop and on its
        #: worker threads; one row must not interleave with another.
        self._lock = threading.Lock()

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top_name(self):
        stack = self.stack()
        return stack[-1][1] if stack else None

    def open(self, name, rid=None, parent=None):
        """Push a span frame ``[sid, name, rid, parent, start, tag]``."""
        stack = self.stack()
        if parent is None:
            parent = stack[-1][0] if stack else -1
        if rid is None:
            rid = stack[-1][2] if stack else -1
        frame = [next(self._ids), name, rid, parent, clock(), 0]
        stack.append(frame)
        return frame

    def close(self, frame):
        end = clock()
        self.stack().pop()
        with self._lock:
            self.sid.append(frame[0])
            self.parent.append(frame[3])
            self.name.append(self.name_id(frame[1]))
            self.start.append(frame[4])
            self.end.append(end)
            self.rid.append(frame[2])
            self.tag.append(frame[5])

    # ------------------------------------------------------------------

    def arrays(self):
        """The recorded spans as numpy columns plus the name table."""
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "rid": np.frombuffer(self.rid, dtype=np.int64).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int64).copy(),
        }

    def dump(self, path):
        """Write spans, counters and samples to ``path`` (``.npz``)."""
        save(path, self.arrays(), self.names, self.counts, self.samples)


def save(path, columns, names, counts, samples):
    """Write span columns with their name table, counters and samples."""
    meta = {"names": list(names), "counts": dict(counts),
            "samples": dict(samples)}
    np.savez(path, meta=np.array(json.dumps(meta)), **columns)


def load(path):
    """``(columns, names, counts, samples)`` from a :meth:`Recorder.dump`."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        columns = {k: data[k] for k in data.files if k != "meta"}
    return columns, meta["names"], meta["counts"], meta["samples"]


# ----------------------------------------------------------------------
# wrappers


def _wrap(rec, owner, attr, name, skip=None, after=None, on_error=None):
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``skip(args)`` returns True to pass a call straight through (nested
    super-calls of a layer already on the stack). ``after(args,
    result)`` sees each successful call's result and ``on_error(exc)``
    each exception on its way out. ``name`` may be a callable of the
    call's arguments.
    """
    fn = getattr(owner, attr)
    static = isinstance(owner.__dict__.get(attr), classmethod)
    if static:
        fn = fn.__func__
    open_, close_ = rec.open, rec.close

    def wrapper(*args, **kwargs):
        if not rec.on or (skip is not None and skip(args)):
            return fn(*args, **kwargs)
        frame = open_(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            close_(frame)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    setattr(owner, attr, classmethod(wrapper) if static else wrapper)


ALGORITHM_KEYS = {"planbouquet": "pb", "spillbound": "sb",
                  "alignedbound": "ab"}


def install(rec):
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from repro.algorithms import AlignedBound, PlanBouquet, SpillBound
    from repro.common.errors import EngineCrashError, TransientEngineError
    from repro.cost.kernel import GridKernel
    from repro.engine.faulty import FaultyEngine
    from repro.engine.simulated import SimulatedEngine
    from repro.ess.contours import ContourSet
    from repro.ess.space import ExplorationSpace
    from repro.optimizer.dp import Optimizer
    from repro.robustness import DiscoveryCheckpoint, DiscoveryGuard
    from repro.robustness.durable import SweepJournal
    from repro.session import RobustSession
    import repro.session.sweep as sweep_module

    # Setup: artifact cache, space build, batch DP, plan costing. The
    # cache span's tag says whether the call had to build.
    session_fn = RobustSession.space_and_contours

    def space_and_contours(self, *args, **kwargs):
        if not rec.on:
            return session_fn(self, *args, **kwargs)
        builds = self.cache.stats.builds
        frame = rec.open(CACHE_SPAN)
        try:
            return session_fn(self, *args, **kwargs)
        finally:
            frame[5] = int(self.cache.stats.builds != builds)
            rec.close(frame)

    RobustSession.space_and_contours = space_and_contours
    _wrap(rec, ExplorationSpace, "build", "ess.build")
    _wrap(rec, Optimizer, "optimize_batch", "optimizer.batch",
          after=lambda args, result: rec.counts.update(
              {"optimizer.batch_cells": len(next(iter(
                  args[1].values())))}))
    _wrap(rec, GridKernel, "plan_surface", "cost.plan_surface")
    _wrap(rec, ContourSet, "__init__", "ess.contours_build")

    # Discovery loop.
    def algorithm_span(kind):
        return lambda args: "algorithms.%s.%s" % (
            ALGORITHM_KEYS.get(type(args[0]).name, "other"), kind)

    _wrap(rec, PlanBouquet, "run", algorithm_span("run"))
    _wrap(rec, SpillBound, "run", algorithm_span("run"))
    for cls in (PlanBouquet, SpillBound, AlignedBound):
        # AlignedBound.__init__ calls SpillBound.__init__: record the
        # outermost constructor only, under the instance's own class.
        _wrap(rec, cls, "__init__", algorithm_span("construct"),
              skip=lambda args, cls=cls: type(args[0]) is not cls)
    _wrap(rec, ContourSet, "members", "ess.contours_members")
    _wrap(rec, ExplorationSpace, "optimize_at", "ess.optimize_at")
    _wrap(rec, Optimizer, "optimize", "optimizer.point")
    _wrap(rec, Optimizer, "optimize_spilling_on", "optimizer.point")

    def count_fault(exc):
        if isinstance(exc, (TransientEngineError, EngineCrashError)):
            rec.counts["engine.faults_injected"] += 1

    # FaultyEngine.execute* call SimulatedEngine.execute* through
    # super(): only the outermost engine call is an execution.
    for cls in (SimulatedEngine, FaultyEngine):
        for attr in ("execute", "execute_spill"):
            span = "engine." + attr
            _wrap(rec, cls, attr, span,
                  skip=lambda args, span=span: rec.top_name() == span,
                  on_error=count_fault if cls is FaultyEngine else None)
    _wrap(rec, sweep_module, "exhaustive_sweep", "metrics.sweep")

    # Durability and faults.
    _wrap(rec, DiscoveryCheckpoint, "save", "robustness.checkpoint_save")
    _wrap(rec, SweepJournal, "begin", "robustness.journal_append")
    _wrap(rec, SweepJournal, "commit", "robustness.journal_append")

    def guard_outcome(args, result):
        rec.counts["robustness.guard_retries"] += int(
            result.extras.get("retries", 0))
        rec.counts["robustness.guard_degraded"] += int(
            bool(result.extras.get("degraded")))

    _wrap(rec, DiscoveryGuard, "run", "robustness.guard_run",
          after=guard_outcome)


def install_serve(rec):
    """Daemon-side wrappers: protocol, admission, hand-off, queue wait."""
    import repro.serve.daemon as daemon_module
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.admission import AdmissionController
    from repro.serve.daemon import RobustServeDaemon
    from repro.serve.protocol import Request

    handle_fn = RobustServeDaemon._handle_line

    # The span stays open on the event loop's stack while the request
    # awaits its worker thread. That is sound for the benchmark's single
    # closed-loop client, whose requests never overlap.
    async def handle_line(self, line):
        if not rec.on:
            return await handle_fn(self, line)
        frame = rec.open("serve.handle")
        try:
            return await handle_fn(self, line)
        finally:
            rec.request_spans.pop(frame[2], None)
            rec.close(frame)

    RobustServeDaemon._handle_line = handle_line

    def parsed(args, request):
        # The request id is known once parsed: adopt it for the
        # enclosing handle span so worker-thread spans can link to it.
        stack = rec.stack()
        if stack and stack[-1][1] == "serve.handle" \
                and isinstance(request.id, int):
            stack[-1][2] = request.id
            rec.request_spans[request.id] = stack[-1][0]

    _wrap(rec, Request, "parse", "serve.protocol", after=parsed)
    encode_fn = daemon_module.encode_message

    def encode_message(payload):
        if not rec.on:
            return encode_fn(payload)
        frame = rec.open("serve.protocol", rid=payload.get("id"))
        try:
            return encode_fn(payload)
        finally:
            rec.close(frame)

    daemon_module.encode_message = encode_message
    _wrap(rec, AdmissionController, "admit", "serve.admission")
    compute_fn = RobustServeDaemon._compute

    def compute(self, plan):
        if not rec.on:
            return compute_fn(self, plan)
        rid = plan.request.id
        frame = rec.open("serve.compute", rid=rid,
                         parent=rec.request_spans.get(rid, -1))
        try:
            return compute_fn(self, plan)
        finally:
            rec.close(frame)

    RobustServeDaemon._compute = compute
    histogram_fn = MetricsRegistry.histogram

    class _Observed:
        __slots__ = ("histogram", "series")

        def __init__(self, histogram, series):
            self.histogram = histogram
            self.series = series

        def observe(self, value):
            if rec.on:
                self.series.append((clock(), float(value)))
            self.histogram.observe(value)

    def histogram(self, name):
        found = histogram_fn(self, name)
        if name == "serve.queue_wait_ms":
            return _Observed(found, rec.samples[name])
        return found

    MetricsRegistry.histogram = histogram


# ----------------------------------------------------------------------
# analysis


def self_times(columns):
    """``(self_ns, parent_pos, has_parent)`` for every span.

    Self time is the span's duration minus its children's durations.
    Children are spans whose ``parent`` names a span present in
    ``columns``; a span whose parent was filtered out counts as a root.
    ``parent_pos[i]`` indexes span ``i``'s parent where ``has_parent``.
    """
    sid = columns["sid"]
    duration = columns["end"] - columns["start"]
    if not len(sid):
        empty = np.zeros(0, dtype=np.int64)
        return duration, empty, empty.astype(bool)
    order = np.argsort(sid, kind="stable")
    sorted_sid = sid[order]
    slot = np.clip(np.searchsorted(sorted_sid, columns["parent"]), 0,
                   len(sid) - 1)
    has_parent = (columns["parent"] >= 0) \
        & (sorted_sid[slot] == columns["parent"])
    parent_pos = order[slot]
    child = np.bincount(parent_pos[has_parent],
                        weights=duration[has_parent], minlength=len(sid))
    return duration - child.astype(np.int64), parent_pos, has_parent


def window(columns, t0, t1):
    """The spans that started inside ``[t0, t1)``."""
    keep = (columns["start"] >= t0) & (columns["start"] < t1)
    return {k: v[keep] for k, v in columns.items()}


def table(columns, names):
    """``{name: (self seconds, count)}`` over ``columns``."""
    self_ns, _, _ = self_times(columns)
    rows = {}
    for nid in np.unique(columns["name"]):
        mask = columns["name"] == nid
        rows[names[int(nid)]] = (float(self_ns[mask].sum()) / 1e9,
                                 int(mask.sum()))
    return rows


def merge(base, base_names, other, other_names, parent_of):
    """Append ``other``'s spans to ``base`` on one name table and id space.

    ``parent_of(rid)`` supplies a parent for ``other``'s root spans (the
    client span that issued the request), linking two processes' spans
    into one tree.
    """
    names = list(base_names)
    index = {n: i for i, n in enumerate(names)}
    remap = []
    for n in other_names:
        if n not in index:
            index[n] = len(names)
            names.append(n)
        remap.append(index[n])
    offset = int(base["sid"].max()) + 1 if len(base["sid"]) else 0
    moved = dict(other)
    moved["sid"] = other["sid"] + offset
    roots = other["parent"] < 0
    linked = np.array([parent_of(int(r)) for r in other["rid"]],
                      dtype=np.int64)
    moved["parent"] = np.where(roots, linked, other["parent"] + offset)
    moved["name"] = np.asarray(remap, dtype=np.int32)[other["name"]] \
        if len(other["name"]) else other["name"]
    joined = {k: np.concatenate([base[k], moved[k]]) for k in base}
    return joined, names
