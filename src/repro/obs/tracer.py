"""Structured tracing for discovery runs (the behavioral record).

The MSO guarantees are *behavioral*: claims about the exact sequence of
(plan, budget, spend, outcome) executions an algorithm performs. A
:class:`Tracer` records that sequence as typed events inside nested
spans, so a run can be replayed, audited and decomposed after the fact
-- per-contour spend attribution, retry forensics, cache effectiveness.

Event stream
------------
Every record is a flat JSON object with four framework fields --
``seq`` (1-based append order), ``t`` (seconds since the tracer was
created), ``span`` (innermost open span id, 0 at top level) and ``run``
(ordinal of the enclosing discovery run, 0 outside one) -- plus ``type``
and the event's own payload. Core event types:

=================== ====================================================
``execution``        one budgeted (regular or spill) execution
``contour-advance``  the discovery frontier moved up the cost ladder
``half-space-prune``  a failed spill certified a new lower bound
``spill``            an epp's selectivity was exactly learnt
``retry`` / ``escalate`` / ``degrade`` / ``breaker``
                     guard recovery decisions
``fault``            injected adversity fired inside the engine
``cache-hit`` / ``cache-miss``
                     artifact cache lookups
``journal-commit``   a sweep unit's COMMIT reached the WAL
``run-start`` / ``run-end``
                     one discovery run's bracket (totals on the end)
``span-start`` / ``span-end``
                     phase bracket (wall-clock duration on the end)
=================== ====================================================

Serialization reuses the durability layer's CRC-framed JSONL
(:func:`repro.common.atomicio.encode_record`): one canonical-JSON line
per event, each protected by a CRC32 prefix, so a trace file is
torn-tail tolerant and every surviving line re-parses bit-identically.

Overhead contract
-----------------
Tracing is strictly opt-in. The default is the :data:`NULL_TRACER`
singleton whose ``enabled`` flag is ``False``; every instrumentation
site guards itself with that one attribute check, so the disabled hot
path costs a single class-attribute load per site (measured against a
2% budget in ``benchmarks/test_obs_overhead.py``).
"""

import math
import time

from repro.common.atomicio import decode_record, encode_record
from repro.obs.metrics import MetricsRegistry


class _NullSpan:
    """Context manager that does nothing (returned by NullTracer.span)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the default wired into every hot path.

    Instrumentation sites check ``tracer.enabled`` before building event
    payloads, so with this tracer the only cost a run pays is
    that attribute check. All methods exist (and do nothing) so code
    that holds a tracer never needs an ``is None`` branch.
    """

    __slots__ = ()

    enabled = False

    def event(self, etype, **fields):
        pass

    def span(self, name, **fields):
        return _NULL_SPAN

    def begin_run(self, algorithm, qa_index, engine=None):
        return 0

    def end_run(self, **fields):
        pass

    def close(self):
        pass

    def __repr__(self):
        return "NullTracer()"


#: Process-wide no-op singleton; the default value of every ``tracer``
#: argument and attribute in the pipeline.
NULL_TRACER = NullTracer()


def _scrub(value):
    """Coerce a payload value to a JSON-safe builtin.

    Engine outcomes carry numpy scalars (``np.float64`` spends,
    ``np.bool_`` completions); those expose ``item()`` and are unwrapped
    without importing numpy here.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # float() unwraps np.float64 (a float subclass) to the builtin.
        if math.isfinite(value):
            return float(value)
        return repr(float(value))  # inf/nan break canonical JSON
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _scrub(v) for k, v in value.items()}
    if hasattr(value, "item"):
        return _scrub(value.item())
    return str(value)


class _Span:
    """One open span; closing it emits ``span-end`` with the duration."""

    __slots__ = ("tracer", "span_id", "name", "started")

    def __init__(self, tracer, span_id, name, started):
        self.tracer = tracer
        self.span_id = span_id
        self.name = name
        self.started = started

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.tracer._close_span(self)
        return False


class Tracer:
    """Structured event recorder with nested spans and JSONL output.

    Parameters
    ----------
    path:
        Optional JSONL file; events are streamed to it as they are
        emitted (CRC-framed, one line each) in addition to being kept
        in :attr:`records`.
    clock:
        Injectable time source (defaults to :func:`time.perf_counter`);
        event ``t`` fields are offsets from the tracer's creation.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to update
        as events stream through; a fresh one is created by default.
        The tracer counts events per type and aggregates span
        durations per phase name.
    """

    enabled = True

    def __init__(self, path=None, clock=None, metrics=None):
        self.path = path
        self.records = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock or time.perf_counter
        self._start = self._clock()
        self._handle = open(path, "w", encoding="utf-8") if path else None
        self._seq = 0
        self._spans = []  # stack of open span ids
        self._span_ids = 0
        #: Total discovery runs started through this tracer.
        self.runs = 0
        self._run = 0

    # ------------------------------------------------------------------

    def _emit(self, etype, fields):
        self._seq += 1
        payload = {
            "seq": self._seq,
            "t": self._clock() - self._start,
            "type": etype,
            "span": self._spans[-1] if self._spans else 0,
            "run": self._run,
        }
        for key, value in fields.items():
            payload[key] = _scrub(value)
        self.records.append(payload)
        if self._handle is not None:
            self._handle.write(encode_record(payload))
        self.metrics.counter("events.%s" % etype).inc()
        return payload

    def event(self, etype, **fields):
        """Record one typed event (fields must be JSON-representable)."""
        return self._emit(etype, fields)

    # ------------------------------------------------------------------
    # spans

    def span(self, name, **fields):
        """Open a nested span; use as a context manager.

        Emits ``span-start`` now and ``span-end`` (with the wall-clock
        ``dur``) when the context exits; the duration also lands in the
        ``phase.<name>`` histogram for per-phase wall-clock accounting.
        """
        self._span_ids += 1
        span_id = self._span_ids
        fields = dict(fields)
        fields["name"] = name
        fields["span_id"] = span_id
        self._emit("span-start", fields)
        started = self._clock()
        self._spans.append(span_id)
        return _Span(self, span_id, name, started)

    def _close_span(self, span):
        duration = self._clock() - span.started
        # Close any spans left open inside (mis-nested exits).
        while self._spans and self._spans[-1] != span.span_id:
            self._spans.pop()
        if self._spans:
            self._spans.pop()
        self._emit("span-end", {"name": span.name,
                                "span_id": span.span_id,
                                "dur": duration})
        self.metrics.histogram("phase.%s" % span.name).observe(duration)

    # ------------------------------------------------------------------
    # run bracketing

    def begin_run(self, algorithm, qa_index, engine=None):
        """Mark the start of one discovery run; returns its ordinal.

        Every event emitted until the matching :meth:`end_run` carries
        this ordinal in its ``run`` field, which is what lets the
        decomposition reports attribute spend to the run that answered
        (retried attempts keep their own ordinals). ``engine`` tags the
        run with its execution substrate
        (:func:`repro.algorithms.base.engine_label`).
        """
        self.runs += 1
        self._run = self.runs
        fields = {
            "algorithm": algorithm,
            "qa_index": [int(i) for i in qa_index],
        }
        if engine is not None:
            fields["engine"] = engine
        self._emit("run-start", fields)
        return self._run

    def end_run(self, **fields):
        """Mark a run's successful termination (totals in ``fields``)."""
        self._emit("run-end", fields)
        self._run = 0

    # ------------------------------------------------------------------

    def close(self):
        """Flush and close the output file (events keep accumulating
        in memory if more are emitted afterwards)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):
        return "Tracer(%d events, %d runs%s)" % (
            len(self.records), self.runs,
            ", path=%r" % self.path if self.path else "")


def read_trace(path):
    """Parse a JSONL trace file back into its event records.

    Every line is CRC-verified and canonical, so surviving records are
    bit-identical to what was written. A torn final line (the process
    died mid-append) is tolerated and skipped; corruption anywhere else
    raises :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    records = []
    for pos, line in enumerate(lines):
        try:
            if not line.endswith("\n"):
                raise ValueError("unterminated trace record")
            records.append(decode_record(line))
        except ValueError:
            if pos == len(lines) - 1:
                break
            raise
    return records
