"""Request coalescing: identical in-flight computations run once.

A serving daemon for deterministic computations has an easy superpower:
two requests for the same ``(query, resolution, engine-spec, algorithm,
truth)`` fingerprint *must* produce the same answer, so while one is in
flight every duplicate can simply await it. The :class:`Coalescer`
keeps a futures map keyed by the request's content-address fingerprint
(the same addressing scheme as the artifact cache): the first arrival
-- the **leader** -- dispatches the computation as a task the coalescer
itself owns; every later arrival -- a **follower** -- awaits that task
behind :func:`asyncio.shield`.

Robustness semantics, each load-bearing:

* **follower cancellation never cancels the shared computation** --
  the task is owned by the coalescer, awaiters only hold a shield; a
  client disconnecting mid-wait (even the leader's own connection)
  leaves the computation running for everyone else, and its result
  still lands in the warm cache.
* **a crashed leader does not poison its followers** -- if the shared
  task raises, the *dispatching* caller propagates the failure (it is
  genuinely that request's outcome), but followers re-dispatch a fresh
  computation (bounded by ``redispatch``) instead of receiving the
  leader's exception verbatim: the leader may have crashed for reasons
  unique to its attempt (a fault-injected engine, a torn cache read),
  and the followers deserve their own try.
* **completed flights retire immediately** -- the map holds only
  in-flight work; results are *not* cached here (the artifact cache
  and the session layer own memoization), so coalescing changes how
  many times concurrent work runs, never what a later request reads.
"""

import asyncio


class _Flight:
    """One in-flight computation and its awaiter accounting."""

    __slots__ = ("task", "followers")

    def __init__(self, task):
        self.task = task
        self.followers = 0


class CoalesceStats:
    """Counters for the stats endpoint and the coalescing proofs."""

    __slots__ = ("dispatched", "coalesced", "redispatched", "failures")

    def __init__(self):
        #: Computations actually started (leaders).
        self.dispatched = 0
        #: Requests that joined an existing flight (followers).
        self.coalesced = 0
        #: Fresh dispatches forced by a crashed leader.
        self.redispatched = 0
        #: Flights that ended in an exception.
        self.failures = 0

    def snapshot(self):
        return {"dispatched": self.dispatched,
                "coalesced": self.coalesced,
                "redispatched": self.redispatched,
                "failures": self.failures}

    def __repr__(self):
        return "CoalesceStats(%r)" % (self.snapshot(),)


class Coalescer:
    """Futures map keyed by computation fingerprint (asyncio-confined).

    All bookkeeping happens on the event loop (no locks needed); the
    *computations* are whatever awaitable ``factory`` returns --
    typically ``loop.run_in_executor`` shipping the discovery run to a
    thread pool.
    """

    def __init__(self, redispatch=1):
        if redispatch < 0:
            raise ValueError("redispatch must be >= 0")
        self.redispatch = redispatch
        self._inflight = {}
        self.stats = CoalesceStats()

    def __len__(self):
        return len(self._inflight)

    async def _execute(self, key, flight_box, factory):
        try:
            return await factory()
        finally:
            # Retire the flight the moment it settles so a follower
            # that wakes to a failure re-dispatches instead of
            # re-joining the corpse. Guard against a newer flight
            # having already replaced this key.
            if self._inflight.get(key) is flight_box[0]:
                del self._inflight[key]

    def _dispatch(self, key, factory):
        flight_box = [None]
        task = asyncio.ensure_future(
            self._execute(key, flight_box, factory))
        flight = _Flight(task)
        flight_box[0] = flight
        self._inflight[key] = flight
        return flight

    async def run(self, key, factory):
        """The result for ``key``, computed at most once concurrently.

        Returns ``(result, coalesced)`` where ``coalesced`` is True iff
        this caller joined a flight someone else dispatched. ``factory``
        is a zero-argument callable returning an awaitable; it runs
        only when this caller becomes a leader (first arrival or
        follower-redispatch after a leader crash).
        """
        attempts = 0
        while True:
            flight = self._inflight.get(key)
            if flight is None:
                leader = True
                if attempts:
                    self.stats.redispatched += 1
                self.stats.dispatched += 1
                flight = self._dispatch(key, factory)
            else:
                leader = False
                flight.followers += 1
                self.stats.coalesced += 1
            try:
                result = await asyncio.shield(flight.task)
                return result, not leader
            except asyncio.CancelledError:
                # *This awaiter* was cancelled (client gone); the
                # shielded flight keeps running for everyone else.
                raise
            except Exception:
                if leader:
                    self.stats.failures += 1
                    raise
                # The leader's attempt failed. Do not propagate its
                # exception verbatim to a mere follower: re-dispatch
                # (bounded) so followers get their own attempt.
                attempts += 1
                if attempts > self.redispatch:
                    raise

    async def drain(self):
        """Await every in-flight computation (daemon shutdown)."""
        tasks = [f.task for f in self._inflight.values()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def __repr__(self):
        return "Coalescer(%d in flight, %r)" % (
            len(self._inflight), self.stats)
