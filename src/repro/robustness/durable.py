"""Durable sweeps: write-ahead journal, deadlines, circuit breakers.

PR 1 made a *single* discovery run survive engine faults; this module
makes whole sweeps survive the process dying and the clock running out:

* :class:`SweepJournal` -- an append-only JSONL write-ahead log that a
  :class:`~repro.session.sweep.SweepDriver` brackets every
  ``(query, algorithm)`` unit with (``BEGIN`` before running, ``COMMIT``
  with the full result after). Segments rotate via atomic temp+rename,
  every record carries a CRC32, and replay truncates a torn tail (the
  half-appended record a SIGKILL leaves) while refusing interior
  corruption. Resuming a journal replays committed units *from the log*
  -- bit-identical results, zero re-execution -- and re-runs only
  in-flight/pending ones.
* :class:`Deadline` -- a cooperative wall-clock / cost-spend budget
  checked at execution boundaries. :class:`DeadlineEngine` proxies any
  execution environment and performs the check before every budgeted
  execution, charging actual spend afterwards; the guard converts the
  resulting :class:`~repro.common.errors.DeadlineExceededError` into a
  degraded-but-terminating answer, so one pathological contour can no
  longer pin a sweep forever -- the orchestration-layer analogue of the
  paper's bounded-MSO worst case.
* :class:`CircuitBreaker` -- per-engine crash hygiene: after
  ``threshold`` consecutive :class:`EngineCrashError`\\ s the breaker
  *opens* and subsequent units fast-fail to the native fallback instead
  of burning their full retry budget; after ``cooldown`` fast-fails it
  goes *half-open* and lets one probe attempt through (success closes
  it, another crash re-opens it).

Everything here is opt-in and inert by default: with no journal, no
deadline and no breaker attached, execution sequences are byte-identical
to the undecorated pipeline (the same zero-overhead invariant the
DiscoveryGuard already promises).
"""

import os
import re
import threading as _threading
import time

from repro.common.atomicio import (
    FileLock,
    atomic_write_text,
    decode_record,
    encode_record,
)
from repro.common.errors import DeadlineExceededError, JournalError
from repro.obs.tracer import NULL_TRACER

#: Journal format version; bumping it makes old journals un-resumable
#: (refused with a clear error) rather than silently misread.
JOURNAL_FORMAT = 1

#: Records per segment before rotation.
SEGMENT_RECORDS = 256

_SEGMENT_RE = re.compile(r"^segment-(\d{6})\.wal$")


# ----------------------------------------------------------------------
# deadline watchdog


class Deadline:
    """Cooperative wall-clock and cost-spend budget for one sweep.

    ``wall_limit`` is in seconds of real time from construction (or the
    explicit ``start``); ``cost_limit`` is in the cost model's units,
    charged by :class:`DeadlineEngine` with every execution's actual
    spend. Either may be ``None`` (unbounded). ``clock`` is injectable
    for tests; it defaults to :func:`time.monotonic`.

    Checks are *cooperative*: they fire at execution boundaries, so a
    run always overshoots by at most one execution -- the same
    granularity at which the paper's budgeted executions are aborted.

    ``label`` optionally names the *layer* this deadline belongs to
    (``"client"``, ``"server"``, ``"sweep"``); when it expires the label
    travels on :class:`DeadlineExceededError.layer`, so nested budgets
    (see :func:`compose_deadlines`) report which layer actually fired
    instead of an anonymous ``deadline-wall_clock``.
    """

    __slots__ = ("wall_limit", "cost_limit", "clock", "started", "spent",
                 "label")

    def __init__(self, wall_limit=None, cost_limit=None, clock=None,
                 start=None, label=None):
        if wall_limit is not None and wall_limit < 0:
            raise ValueError("wall_limit must be >= 0")
        if cost_limit is not None and cost_limit < 0:
            raise ValueError("cost_limit must be >= 0")
        self.wall_limit = wall_limit
        self.cost_limit = cost_limit
        self.clock = clock or time.monotonic
        self.started = self.clock() if start is None else start
        self.spent = 0.0
        self.label = label

    def elapsed(self):
        return self.clock() - self.started

    def charge(self, cost):
        """Account ``cost`` units of execution spend against the budget."""
        self.spent += float(cost)

    def exceeded(self):
        """The reason the deadline has expired, or ``None``."""
        if self.wall_limit is not None and self.elapsed() > self.wall_limit:
            return "wall_clock"
        if self.cost_limit is not None and self.spent > self.cost_limit:
            return "cost_budget"
        return None

    def check(self):
        """Raise :class:`DeadlineExceededError` if a budget has expired."""
        reason = self.exceeded()
        if reason is not None:
            where = " [%s]" % self.label if self.label else ""
            raise DeadlineExceededError(
                "deadline%s exceeded (%s): elapsed %.3fs of %s, spent "
                "%.4g of %s" % (where, reason, self.elapsed(),
                                self.wall_limit, self.spent,
                                self.cost_limit),
                reason=reason, elapsed=self.elapsed(), spent=self.spent,
                layer=self.label)

    def remaining_wall(self):
        """Seconds left on the wall budget (``None`` when unbounded)."""
        if self.wall_limit is None:
            return None
        return max(0.0, self.wall_limit - self.elapsed())

    def remaining_cost(self):
        """Cost units left on the spend budget (``None`` = unbounded)."""
        if self.cost_limit is None:
            return None
        return max(0.0, self.cost_limit - self.spent)

    def __repr__(self):
        tag = "%s, " % self.label if self.label else ""
        return "Deadline(%swall=%s, cost=%s, elapsed=%.3f, spent=%.4g)" % (
            tag, self.wall_limit, self.cost_limit, self.elapsed(),
            self.spent)


class CompositeDeadline:
    """Several nested deadline layers enforced as one.

    A serving daemon stacks budgets: the client's request deadline, the
    server's per-request ceiling, possibly a sweep-level budget. The
    composite presents the same cooperative interface as
    :class:`Deadline` -- ``check``/``charge``/``exceeded``/
    ``remaining_wall`` -- while always binding to the **minimum
    remaining budget** across its parts: ``remaining_wall()`` is the
    smallest part's remainder, a charge lands on *every* part, and the
    first part to expire raises with *its* label on
    :class:`DeadlineExceededError.layer`, so the degraded reason names
    which layer fired. Build composites with :func:`compose_deadlines`,
    which flattens nesting and elides ``None``/single-layer cases.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("a composite needs >= 2 deadline layers")
        self.parts = parts

    def charge(self, cost):
        """Account spend against every layer's cost budget."""
        for part in self.parts:
            part.charge(cost)

    def exceeded(self):
        """The first expired layer's reason, or ``None``."""
        for part in self.parts:
            reason = part.exceeded()
            if reason is not None:
                return reason
        return None

    def check(self):
        """Raise the first expired layer's own error (label intact)."""
        for part in self.parts:
            part.check()

    def remaining_wall(self):
        """Minimum remaining wall budget across layers (``None`` when
        every layer is wall-unbounded)."""
        remains = [r for r in (p.remaining_wall() for p in self.parts)
                   if r is not None]
        return min(remains) if remains else None

    def remaining_cost(self):
        """Minimum remaining cost budget across layers."""
        remains = [r for r in (p.remaining_cost() for p in self.parts)
                   if r is not None]
        return min(remains) if remains else None

    @property
    def label(self):
        """The label of the layer with the least remaining wall budget
        (the layer most likely to fire next); ``None`` if indeterminate."""
        best, best_remaining = None, None
        for part in self.parts:
            remaining = part.remaining_wall()
            if remaining is None:
                continue
            if best_remaining is None or remaining < best_remaining:
                best, best_remaining = part.label, remaining
        return best

    def __repr__(self):
        return "CompositeDeadline(%s)" % ", ".join(
            repr(p) for p in self.parts)


def compose_deadlines(*deadlines):
    """The effective deadline of nested layers, or ``None``.

    ``None`` entries are elided; one survivor is returned as-is (zero
    overhead for the common single-budget case); two or more become a
    :class:`CompositeDeadline` bound to the minimum remaining budget.
    Nested composites are flattened so the firing layer's label is
    always a leaf :class:`Deadline`'s.
    """
    flat = []
    for deadline in deadlines:
        if deadline is None:
            continue
        if isinstance(deadline, CompositeDeadline):
            flat.extend(deadline.parts)
        else:
            flat.append(deadline)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return CompositeDeadline(flat)


class DeadlineEngine:
    """Engine proxy enforcing a :class:`Deadline` at execution boundaries.

    Wraps any execution environment: before each budgeted execution the
    deadline is checked (raising :class:`DeadlineExceededError` when
    expired), and after it the *actual* spend is charged. Everything
    else -- ``optimal_cost``, ``true_cost``, ``sound()``, ``delta`` --
    delegates to the wrapped engine, so the proxy never changes what an
    execution computes, only whether it is allowed to start.
    """

    __slots__ = ("engine", "deadline", "spent_this_run")

    def __init__(self, engine, deadline):
        self.engine = engine
        self.deadline = deadline
        #: Spend observed through this proxy (for waste accounting when
        #: the deadline aborts a partially-run attempt).
        self.spent_this_run = 0.0

    def execute(self, plan_info, budget):
        self.deadline.check()
        outcome = self.engine.execute(plan_info, budget)
        self.deadline.charge(outcome.spent)
        self.spent_this_run += outcome.spent
        return outcome

    def execute_spill(self, plan_info, epp, node, budget):
        self.deadline.check()
        outcome = self.engine.execute_spill(plan_info, epp, node, budget)
        self.deadline.charge(outcome.spent)
        self.spent_this_run += outcome.spent
        return outcome

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def __repr__(self):
        return "DeadlineEngine(%r, %r)" % (self.engine, self.deadline)


# ----------------------------------------------------------------------
# circuit breaker


class CircuitBreaker:
    """Crash hygiene for one execution environment.

    State machine:

    * ``closed`` -- normal operation; ``threshold`` *consecutive*
      crashes trip it to ``open``.
    * ``open`` -- :meth:`allow` refuses (units fast-fail to the native
      fallback without spending their retry budget); after ``cooldown``
      refusals the breaker goes ``half-open``.
    * ``half-open`` -- one probe attempt is let through: a recorded
      success closes the breaker, another crash re-opens it (and resets
      the cooldown count).

    The breaker is shared across the runs of a sweep, so a substrate
    that is *down* (every execution crashes) costs one retry ladder for
    the first unit and a fast native fallback for the rest, instead of
    ``max_retries`` crashes per unit.

    Breakers are safe to share across threads: the serving daemon runs
    guarded discoveries on a thread pool against one
    :class:`~repro.session.registry.BreakerBoard`, so every state
    transition (``allow`` / ``record_failure`` / ``record_success``)
    happens under a per-breaker mutex -- two threads can never both
    observe ``threshold - 1`` failures and double-trip the breaker.
    """

    __slots__ = ("threshold", "cooldown", "failures", "state",
                 "fast_fails", "opened", "probing", "_mutex")

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, threshold=3, cooldown=8):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.state = self.CLOSED
        self.fast_fails = 0
        #: Times the breaker tripped open (reporting).
        self.opened = 0
        self.probing = False
        self._mutex = _threading.Lock()

    def allow(self):
        """May an attempt run now? ``False`` means fast-fail."""
        with self._mutex:
            if self.state == self.CLOSED:
                return True
            if self.state == self.HALF_OPEN:
                self.probing = True
                return True
            # open: count the refusal; cool down into half-open.
            self.fast_fails += 1
            if self.fast_fails >= self.cooldown:
                self.state = self.HALF_OPEN
            return False

    def record_failure(self):
        """One :class:`EngineCrashError` observed."""
        with self._mutex:
            self.failures += 1
            if self.state == self.HALF_OPEN:
                # The probe crashed: re-open and restart the cooldown.
                self.state = self.OPEN
                self.opened += 1
                self.fast_fails = 0
                self.probing = False
            elif self.state == self.CLOSED and \
                    self.failures >= self.threshold:
                self.state = self.OPEN
                self.opened += 1
                self.fast_fails = 0

    def record_success(self):
        """One attempt terminated without crashing."""
        with self._mutex:
            self.failures = 0
            if self.state == self.HALF_OPEN:
                self.state = self.CLOSED
                self.probing = False

    @property
    def is_open(self):
        return self.state == self.OPEN

    def stats(self):
        """Pickle/JSON-safe snapshot of this breaker's accounting.

        Shipped across process boundaries by the parallel sweep backend;
        :meth:`absorb` folds it into another breaker.
        """
        with self._mutex:
            return {"threshold": self.threshold,
                    "cooldown": self.cooldown,
                    "failures": self.failures, "state": self.state,
                    "fast_fails": self.fast_fails, "opened": self.opened}

    def absorb(self, stats):
        """Fold another breaker's *reporting* counters into this one.

        Only ``opened`` and ``fast_fails`` accumulate -- they answer
        "how often did crash hygiene kick in anywhere". The local state
        machine (``state``, consecutive ``failures``) is deliberately
        untouched: a remote breaker tripping is evidence about *its*
        stream of attempts, not a command to fast-fail ours.
        """
        with self._mutex:
            self.opened += int(stats.get("opened", 0))
            self.fast_fails += int(stats.get("fast_fails", 0))

    def __repr__(self):
        return "CircuitBreaker(%s, failures=%d/%d, opened=%d)" % (
            self.state, self.failures, self.threshold, self.opened)


# ----------------------------------------------------------------------
# the write-ahead sweep journal


class JournalStats:
    """Counters describing one journal session (for reports/tests)."""

    __slots__ = ("replayed", "executed", "truncated_records",
                 "resumed_segments")

    def __init__(self):
        #: Units served from COMMIT records without re-execution.
        self.replayed = 0
        #: Units actually (re-)run this session.
        self.executed = 0
        #: Torn-tail records dropped during replay.
        self.truncated_records = 0
        #: Segments found on disk at open time.
        self.resumed_segments = 0

    def __repr__(self):
        return ("JournalStats(replayed=%d, executed=%d, truncated=%d)"
                % (self.replayed, self.executed, self.truncated_records))


def _config_compatible(requested, recorded):
    """May a sweep with ``requested`` config resume ``recorded``'s WAL?

    Everything that changes *what a unit computes* (sampling, seeds,
    resolution, engine, contour knobs) must match exactly. The
    ``algorithms`` list alone may differ: units are keyed by
    ``query/algorithm`` name, so dropping an algorithm simply leaves its
    commits unread, and adding one runs fresh units -- neither can
    replay a wrong result. Without this carve-out a resume that narrows
    the algorithm list (the natural "just finish spillbound" move after
    a crash) was refused outright.
    """
    if requested == recorded:
        return True
    if not isinstance(requested, dict) or not isinstance(recorded, dict):
        return False
    relaxed = {k: v for k, v in requested.items() if k != "algorithms"}
    return relaxed == {k: v for k, v in recorded.items()
                       if k != "algorithms"}


class SweepJournal:
    """Append-only write-ahead log for ``(query, algorithm)`` sweep units.

    On-disk layout (one directory per journal)::

        journal/
          segment-000001.wal    CRC-framed JSONL records
          segment-000002.wal    ...rotated after SEGMENT_RECORDS appends
          journal.lock          writer mutex (O_EXCL + PID staleness)

    The segments are the only durable record of a sweep: an in-flight
    unit (``begin`` without ``commit``) leaves no discovery state behind
    and re-runs from scratch on resume.

    Record types: ``meta`` (sweep config fingerprint, first record of
    segment 1), ``segment`` (rotation header), ``begin`` / ``commit``
    (the unit bracket; ``commit`` embeds the full per-location
    sub-optimality grid so replay is bit-identical).

    Durability contract: appends are flushed (and fsync'd by default)
    per record, new segments appear atomically via temp+rename, and
    replay truncates at most the final, torn record of the *last*
    segment -- interior damage raises :class:`JournalError` instead of
    being silently skipped.
    """

    def __init__(self, path, segment_records=SEGMENT_RECORDS, fsync=True,
                 lock_timeout=10.0):
        self.path = path
        self.segment_records = segment_records
        self.fsync = fsync
        self.stats = JournalStats()
        #: unit key -> commit payload (populated by replay).
        self.committed = {}
        #: unit keys with a BEGIN but no COMMIT yet (replay only).
        self.inflight = []
        self.config = None
        self._lock = FileLock(os.path.join(path, "journal.lock"),
                              timeout=lock_timeout)
        self._handle = None
        self._segment_index = 0
        self._segment_count = 0  # records in the current segment

    # ------------------------------------------------------------------
    # lifecycle

    @staticmethod
    def exists(path):
        """Does ``path`` hold a journal (at least one segment)?"""
        try:
            names = os.listdir(path)
        except OSError:
            return False
        return any(_SEGMENT_RE.match(n) for n in names)

    def open(self, config=None, resume=None):
        """Acquire the writer lock and prepare for appends.

        ``config`` is the sweep fingerprint (a JSON-safe dict). For a
        fresh journal it is required and written as the ``meta`` record.
        For an existing journal the stored fingerprint must match, so a
        resume cannot silently continue a *different* sweep; ``resume``
        forces the expectation (``True`` requires an existing journal,
        ``False`` requires a fresh one, ``None`` accepts either).
        """
        existing = self.exists(self.path)
        if resume is True and not existing:
            raise JournalError("no journal to resume at %s" % self.path)
        if resume is False and existing:
            raise JournalError(
                "journal already exists at %s (use resume)" % self.path)
        os.makedirs(self.path, exist_ok=True)
        self._lock.acquire()
        try:
            if existing:
                self._replay()
                if config is not None and self.config is not None \
                        and not _config_compatible(config, self.config):
                    raise JournalError(
                        "journal at %s records a different sweep "
                        "config:\n  journal: %r\n  request: %r"
                        % (self.path, self.config, config))
            else:
                if config is None:
                    raise JournalError(
                        "a fresh journal needs a sweep config")
                self.config = dict(config)
                self._rotate(1, first=True)
        except BaseException:
            self._lock.release()
            raise
        return self

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._lock.release()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # segment plumbing

    def _segment_path(self, index):
        return os.path.join(self.path, "segment-%06d.wal" % index)

    def _segments(self):
        """Sorted (index, path) pairs of the segments on disk."""
        pairs = []
        for name in os.listdir(self.path):
            match = _SEGMENT_RE.match(name)
            if match:
                pairs.append((int(match.group(1)),
                              os.path.join(self.path, name)))
        return sorted(pairs)

    def _rotate(self, index, first=False):
        """Open segment ``index``, creating it atomically if missing.

        A new segment is born with its header record already inside
        (written to a temp file and renamed into place), so a replayer
        either sees a well-formed segment or no segment at all.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        path = self._segment_path(index)
        if not os.path.exists(path):
            header = {"type": "segment", "index": index,
                      "format": JOURNAL_FORMAT}
            lines = [encode_record(header)]
            if first:
                lines.append(encode_record(
                    {"type": "meta", "config": self.config}))
            atomic_write_text(path, "".join(lines), fsync=self.fsync)
            self._segment_count = len(lines)
        else:
            with open(path, "rb") as handle:
                self._segment_count = handle.read().count(b"\n")
        self._segment_index = index
        self._handle = open(path, "a", encoding="utf-8")

    def _append(self, payload):
        if self._handle is None:
            raise JournalError("journal %s is not open" % self.path)
        if self._segment_count >= self.segment_records:
            self._rotate(self._segment_index + 1)
        self._handle.write(encode_record(payload))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._segment_count += 1

    # ------------------------------------------------------------------
    # replay

    def _replay(self):
        """Rebuild committed/in-flight state from the segments on disk.

        A torn final record is physically truncated away so appends
        resume on a clean boundary (:meth:`_decoded`).
        """
        segments = self._segments()
        self.stats.resumed_segments = len(segments)
        self.committed = {}
        begun = {}
        for order, (index, payload) in enumerate(
                self._decoded(segments, truncate=True), 1):
            self._apply(payload, index, order, begun)
        self.inflight = [unit for unit in begun
                         if unit not in self.committed]
        if segments:
            self._rotate(segments[-1][0])

    def _decoded(self, segments, truncate):
        """Yield ``(segment index, payload)`` for every record of
        ``segments``, in append order.

        The final record of the final segment may be torn (a SIGKILL
        mid-append): it ends the stream, truncated off the file when
        ``truncate`` and skipped otherwise. Damage anywhere else is
        *corruption* and raises :class:`JournalError`.
        """
        for pos, (index, path) in enumerate(segments):
            last = pos == len(segments) - 1
            with open(path, "rb") as handle:
                raw = handle.read()
            lines = raw.decode("utf-8", "surrogateescape") \
                       .splitlines(keepends=True)
            offset = 0
            for lpos, line in enumerate(lines):
                try:
                    if not line.endswith("\n"):
                        raise ValueError("unterminated record")
                    payload = decode_record(line)
                except ValueError as exc:
                    if last and lpos == len(lines) - 1:
                        if truncate:
                            self._truncate(path, offset)
                            self.stats.truncated_records += 1
                        return
                    raise JournalError(
                        "corrupt record in %s at byte %d: %s"
                        % (path, offset, exc)) from None
                yield index, payload
                offset += len(line.encode("utf-8", "surrogateescape"))

    def _truncate(self, path, offset):
        with open(path, "r+b") as handle:
            handle.truncate(offset)

    def _apply(self, payload, segment_index, order, begun):
        kind = payload.get("type")
        if kind == "segment":
            if payload.get("format", JOURNAL_FORMAT) != JOURNAL_FORMAT:
                raise JournalError(
                    "journal format %r is not supported (expected %d)"
                    % (payload.get("format"), JOURNAL_FORMAT))
        elif kind == "meta":
            self.config = payload.get("config")
        elif kind == "begin":
            begun[payload["unit"]] = order
        elif kind == "commit":
            unit = payload["unit"]
            if unit in self.committed:
                raise JournalError(
                    "unit %r committed twice (segment %d)"
                    % (unit, segment_index))
            self.committed[unit] = payload
        else:
            raise JournalError("unknown journal record type %r" % kind)

    # ------------------------------------------------------------------
    # the unit bracket

    @staticmethod
    def unit_key(query_name, algorithm_label):
        return "%s/%s" % (query_name, algorithm_label)

    def begin(self, unit):
        """WAL the intent to run ``unit``."""
        self._append({"type": "begin", "unit": unit})

    def commit(self, unit, result, tracer=NULL_TRACER):
        """WAL the unit's full result (a ``journal-commit`` event goes
        to ``tracer``)."""
        self._append({"type": "commit", "unit": unit, "result": result})
        self.committed[unit] = {"type": "commit", "unit": unit,
                                "result": result}
        self.stats.executed += 1
        if tracer.enabled:
            tracer.event("journal-commit", unit=unit,
                         segment=self._segment_index)

    def replay_result(self, unit):
        """The committed result payload for ``unit``, or ``None``."""
        payload = self.committed.get(unit)
        if payload is None:
            return None
        self.stats.replayed += 1
        return payload["result"]

    # ------------------------------------------------------------------

    def records(self):
        """Every decoded record, in append order (diagnostics/tests).

        Readable without holding the writer lock; a torn tail is
        *skipped* here (not truncated) so observers never mutate the
        journal a writer may still be appending to.
        """
        return [payload for _index, payload
                in self._decoded(self._segments(), truncate=False)]

    def __repr__(self):
        return "SweepJournal(%r, %d committed, %d inflight)" % (
            self.path, len(self.committed), len(self.inflight))
