"""Admission control: per-tenant token buckets + a bounded global queue.

The daemon's overload contract is *bounded work, explicit refusal*:

* every tenant draws from its own :class:`TokenBucket` (capacity =
  burst, steady refill rate), so one chatty tenant exhausts its own
  budget without starving the rest;
* at most ``max_inflight`` discovery computations run concurrently, and
  at most ``max_queue`` admitted requests may *wait* for a slot; a
  request that would queue deeper than that is shed immediately with a
  ``retry_after_ms`` hint instead of joining an unbounded line.

Both refusal paths return *when to come back* -- the token bucket knows
exactly when the next token lands, and the queue estimates drain time
from the observed service rate -- which is what keeps client-side p99
bounded under overload: a shed response costs microseconds, a queued
request costs a bounded wait, and nothing ever waits forever.

Everything takes an injectable ``clock`` so tests control time.
"""

import threading
import time


class TokenBucket:
    """Classic token bucket: ``capacity`` burst, ``rate`` tokens/sec.

    ``try_acquire(cost)`` either debits and admits, or refuses and
    reports how long until ``cost`` tokens will have accumulated.
    A ``rate`` of 0 makes the bucket non-replenishing (a hard per-tenant
    quota); refusals then report an infinite retry, which callers clamp
    to their own ceiling. Thread-safe: the daemon's thread pool and
    event loop may hit one bucket concurrently.
    """

    __slots__ = ("capacity", "rate", "tokens", "updated", "clock",
                 "_mutex")

    def __init__(self, capacity, rate, clock=None):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.capacity = float(capacity)
        self.rate = float(rate)
        self.tokens = float(capacity)
        self.clock = clock or time.monotonic
        self.updated = self.clock()
        self._mutex = threading.Lock()

    def _refill(self, now):
        if self.rate > 0 and now > self.updated:
            self.tokens = min(self.capacity,
                              self.tokens + (now - self.updated) * self.rate)
        self.updated = now

    def try_acquire(self, cost=1.0):
        """``(admitted, retry_after_seconds)``; retry is ``None`` on
        admit and ``inf`` when the bucket can never refill enough."""
        cost = float(cost)
        with self._mutex:
            now = self.clock()
            self._refill(now)
            if self.tokens >= cost:
                self.tokens -= cost
                return True, None
            if self.rate <= 0 or cost > self.capacity:
                return False, float("inf")
            return False, (cost - self.tokens) / self.rate

    def available(self):
        """Tokens available right now (refilled view)."""
        with self._mutex:
            self._refill(self.clock())
            return self.tokens

    def __repr__(self):
        return "TokenBucket(%.3g/%.3g @ %.3g/s)" % (
            self.available(), self.capacity, self.rate)


class TenantBudgets:
    """One :class:`TokenBucket` per tenant, created on first use."""

    __slots__ = ("capacity", "rate", "clock", "_buckets", "_mutex")

    def __init__(self, capacity=8.0, rate=4.0, clock=None):
        self.capacity = capacity
        self.rate = rate
        self.clock = clock
        self._buckets = {}
        self._mutex = threading.Lock()

    def bucket(self, tenant):
        with self._mutex:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.capacity, self.rate,
                                     clock=self.clock)
                self._buckets[tenant] = bucket
            return bucket

    def try_acquire(self, tenant, cost=1.0):
        return self.bucket(tenant).try_acquire(cost)

    def snapshot(self):
        """``{tenant: available tokens}`` for the stats endpoint."""
        with self._mutex:
            items = list(self._buckets.items())
        return {tenant: round(bucket.available(), 3)
                for tenant, bucket in items}

    def __len__(self):
        with self._mutex:
            return len(self._buckets)


class AdmissionDecision:
    """Outcome of one admission attempt."""

    __slots__ = ("admitted", "reason", "retry_after", "queued")

    def __init__(self, admitted, reason=None, retry_after=None,
                 queued=False):
        self.admitted = admitted
        #: Why the request was refused: ``tenant-budget`` or
        #: ``queue-full`` (``None`` when admitted).
        self.reason = reason
        #: Seconds after which a retry is expected to be admitted.
        self.retry_after = retry_after
        #: True when the request holds a queue position rather than a
        #: compute slot (the caller must ``promote()`` once it runs).
        self.queued = queued

    def __bool__(self):
        return self.admitted

    def __repr__(self):
        if self.admitted:
            return "AdmissionDecision(admitted)"
        return "AdmissionDecision(shed: %s, retry %.3gs)" % (
            self.reason, self.retry_after or 0.0)


class AdmissionController:
    """Gate in front of the compute pool.

    ``admit()`` runs synchronously on the event loop (no awaits): it
    debits the tenant bucket and reserves either a compute slot or a
    bounded queue position. The caller then *awaits* the slot via the
    returned ticket; ``release()`` frees it. Shedding happens at
    admission, never after queueing -- a request that gets a ticket
    will run (or be drained), so latency under overload is bounded by
    queue depth x service time, both of which are configured finite.
    """

    __slots__ = ("max_inflight", "max_queue", "budgets", "retry_cap",
                 "inflight", "queued", "_mutex", "service_ema")

    def __init__(self, budgets, max_inflight=4, max_queue=16,
                 retry_cap=5.0):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.budgets = budgets
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        #: Ceiling (seconds) on any retry-after hint we hand out.
        self.retry_cap = retry_cap
        self.inflight = 0
        self.queued = 0
        self._mutex = threading.Lock()
        #: Exponential moving average of service time, feeding the
        #: queue-full retry hint (seeded pessimistically at 100ms).
        self.service_ema = 0.1

    # ------------------------------------------------------------------

    def admit(self, tenant, cost=1.0):
        """Try to admit one request for ``tenant``."""
        ok, retry = self.budgets.try_acquire(tenant, cost)
        if not ok:
            return AdmissionDecision(
                False, reason="tenant-budget",
                retry_after=min(retry, self.retry_cap))
        with self._mutex:
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return AdmissionDecision(True)
            if self.queued < self.max_queue:
                self.queued += 1
                return AdmissionDecision(True, queued=True)
            # Full house: estimate drain time of one queue position.
            backlog = self.queued + 1
            retry = self.service_ema * backlog / self.max_inflight
        return AdmissionDecision(False, reason="queue-full",
                                 retry_after=min(retry, self.retry_cap))

    def promote(self):
        """A queued request took a freed compute slot."""
        with self._mutex:
            self.queued = max(0, self.queued - 1)
            self.inflight += 1

    def release(self, service_time=None):
        """A computation finished; fold its service time into the EMA."""
        with self._mutex:
            self.inflight = max(0, self.inflight - 1)
            if service_time is not None:
                self.service_ema = (0.8 * self.service_ema
                                    + 0.2 * float(service_time))

    # ------------------------------------------------------------------

    def pressure(self):
        """Queue occupancy in [0, 1]; the degradation ladder's input.

        Measures the backlog *ahead of* a just-admitted request --
        queued work only, never the request's own slot reservation
        (else the last slot-holder would always read full pressure).
        """
        with self._mutex:
            if self.max_queue == 0:
                return 0.0
            return self.queued / self.max_queue

    def snapshot(self):
        with self._mutex:
            return {"inflight": self.inflight, "queued": self.queued,
                    "max_inflight": self.max_inflight,
                    "max_queue": self.max_queue,
                    "service_ema_ms": round(self.service_ema * 1e3, 3)}

    def __repr__(self):
        snap = self.snapshot()
        return "AdmissionController(%d/%d running, %d/%d queued)" % (
            snap["inflight"], snap["max_inflight"], snap["queued"],
            snap["max_queue"])
