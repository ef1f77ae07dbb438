"""Tests for the serving daemon: protocol, admission, coalescing and
the live daemon's degradation ladder, deadline propagation and drain."""

import asyncio
import os
import threading
import time

import pytest

from repro.serve import (
    AdmissionController,
    Coalescer,
    ProtocolError,
    Request,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    TenantBudgets,
    TokenBucket,
    decode_message,
    encode_message,
)

# ----------------------------------------------------------------------
# protocol


class TestProtocol:
    def test_round_trip(self):
        payload = {"op": "run", "id": 7, "query": "2D_Q91"}
        assert decode_message(encode_message(payload)) == payload

    def test_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1,2]\n")
        with pytest.raises(ProtocolError):
            decode_message(b"\n")

    def test_request_validation(self):
        request = Request.parse(
            {"op": "run", "query": "2D_Q91", "qa": [3, 4],
             "deadline_ms": 250, "tenant": "acme"})
        assert request.qa == (3, 4)
        assert request.deadline_ms == 250.0
        assert request.algorithm == "spillbound"

    @pytest.mark.parametrize("payload", [
        {"op": "explode"},
        {"op": "run"},                                  # missing query
        {"op": "run", "query": "2D_Q91", "bogus": 1},
        {"op": "run", "query": "2D_Q91", "tenant": ""},
        {"op": "run", "query": "2D_Q91", "resolution": 1},
        {"op": "run", "query": "2D_Q91", "qa": ["a"]},
        {"op": "run", "query": "2D_Q91", "deadline_ms": -1},
    ])
    def test_bad_requests_refused(self, payload):
        with pytest.raises(ProtocolError):
            Request.parse(payload)

    def test_control_ops_need_no_query(self):
        assert Request.parse({"op": "health"}).op == "health"
        assert Request.parse({"op": "stats"}).op == "stats"


# ----------------------------------------------------------------------
# admission


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(2.0, 1.0, clock=lambda: clock[0])
        assert bucket.try_acquire() == (True, None)
        assert bucket.try_acquire() == (True, None)
        refused, retry = bucket.try_acquire()
        assert not refused and retry == pytest.approx(1.0)
        clock[0] = 1.0
        assert bucket.try_acquire() == (True, None)

    def test_zero_rate_is_a_hard_quota(self):
        bucket = TokenBucket(1.0, 0.0, clock=lambda: 0.0)
        assert bucket.try_acquire() == (True, None)
        refused, retry = bucket.try_acquire()
        assert not refused and retry == float("inf")

    def test_tenants_are_isolated(self):
        clock = [0.0]
        budgets = TenantBudgets(1.0, 1.0, clock=lambda: clock[0])
        assert budgets.try_acquire("a") == (True, None)
        assert budgets.try_acquire("a")[0] is False
        assert budgets.try_acquire("b") == (True, None)
        assert len(budgets) == 2


class TestAdmissionController:
    def _controller(self, max_inflight=2, max_queue=2):
        budgets = TenantBudgets(100.0, 100.0, clock=lambda: 0.0)
        return AdmissionController(budgets, max_inflight=max_inflight,
                                   max_queue=max_queue)

    def test_slots_then_queue_then_shed(self):
        ctrl = self._controller()
        first = [ctrl.admit("t") for _ in range(2)]
        assert all(d.admitted and not d.queued for d in first)
        queued = [ctrl.admit("t") for _ in range(2)]
        assert all(d.admitted and d.queued for d in queued)
        shed = ctrl.admit("t")
        assert not shed.admitted
        assert shed.reason == "queue-full"
        assert 0 < shed.retry_after <= ctrl.retry_cap

    def test_tenant_budget_shed_names_reason(self):
        budgets = TenantBudgets(1.0, 1.0, clock=lambda: 0.0)
        ctrl = AdmissionController(budgets, max_inflight=4)
        assert ctrl.admit("t").admitted
        shed = ctrl.admit("t")
        assert shed.reason == "tenant-budget"
        assert shed.retry_after == pytest.approx(1.0)

    def test_release_and_promote_keep_counts_sane(self):
        ctrl = self._controller()
        ctrl.admit("t")
        ctrl.admit("t")
        assert ctrl.admit("t").queued
        ctrl.release(0.5)
        ctrl.promote()
        snap = ctrl.snapshot()
        assert snap["inflight"] == 2
        assert snap["queued"] == 0
        assert snap["service_ema_ms"] == pytest.approx(180.0)

    def test_pressure_tracks_queue_occupancy(self):
        ctrl = self._controller(max_inflight=1, max_queue=4)
        assert ctrl.pressure() == 0.0
        ctrl.admit("t")
        ctrl.admit("t")
        ctrl.admit("t")
        assert ctrl.pressure() == pytest.approx(0.5)


# ----------------------------------------------------------------------
# coalescing


def _run(coro):
    return asyncio.run(coro)


class TestCoalescer:
    def test_identical_requests_run_once(self):
        async def scenario():
            coalescer = Coalescer()
            calls = []

            def factory():
                async def work():
                    calls.append(1)
                    await asyncio.sleep(0.02)
                    return "answer"
                return work()

            results = await asyncio.gather(*[
                coalescer.run("k", factory) for _ in range(8)])
            return coalescer, calls, results

        coalescer, calls, results = _run(scenario())
        assert len(calls) == 1
        assert all(value == "answer" for value, _ in results)
        assert sum(1 for _, coalesced in results if coalesced) == 7
        assert coalescer.stats.dispatched == 1
        assert coalescer.stats.coalesced == 7
        assert len(coalescer) == 0

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            coalescer = Coalescer()

            def factory(key):
                async def work():
                    await asyncio.sleep(0.01)
                    return key
                return work

            results = await asyncio.gather(
                coalescer.run("a", factory("a")),
                coalescer.run("b", factory("b")))
            return coalescer, results

        coalescer, results = _run(scenario())
        assert [value for value, _ in results] == ["a", "b"]
        assert coalescer.stats.coalesced == 0

    def test_leader_crash_redispatches_for_followers(self):
        """A follower must not receive the leader's exception verbatim:
        it re-dispatches its own attempt (which here succeeds)."""
        async def scenario():
            coalescer = Coalescer(redispatch=1)
            attempts = []

            def factory():
                async def work():
                    attempts.append(1)
                    await asyncio.sleep(0.02)
                    if len(attempts) == 1:
                        raise RuntimeError("leader-only fault")
                    return "recovered"
                return work()

            leader = asyncio.ensure_future(
                coalescer.run("k", factory))
            await asyncio.sleep(0.005)  # follower joins mid-flight
            follower = asyncio.ensure_future(
                coalescer.run("k", factory))
            leader_exc = None
            try:
                await leader
            except RuntimeError as exc:
                leader_exc = exc
            value, coalesced = await follower
            return coalescer, attempts, leader_exc, value

        coalescer, attempts, leader_exc, value = _run(scenario())
        # The leader's own request genuinely failed ...
        assert str(leader_exc) == "leader-only fault"
        # ... but the follower got a fresh dispatch, not that error.
        assert value == "recovered"
        assert len(attempts) == 2
        assert coalescer.stats.redispatched == 1
        assert coalescer.stats.failures == 1

    def test_redispatch_budget_bounds_retries(self):
        async def scenario():
            coalescer = Coalescer(redispatch=1)

            def factory():
                async def work():
                    await asyncio.sleep(0.01)
                    raise RuntimeError("always down")
                return work()

            leader = asyncio.ensure_future(coalescer.run("k", factory))
            await asyncio.sleep(0.002)
            follower = asyncio.ensure_future(
                coalescer.run("k", factory))
            outcomes = await asyncio.gather(leader, follower,
                                            return_exceptions=True)
            return coalescer, outcomes

        coalescer, outcomes = _run(scenario())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert coalescer.stats.dispatched == 2  # leader + one retry

    def test_follower_cancellation_leaves_computation_running(self):
        async def scenario():
            coalescer = Coalescer()
            finished = []

            def factory():
                async def work():
                    await asyncio.sleep(0.05)
                    finished.append(1)
                    return "done"
                return work()

            leader = asyncio.ensure_future(coalescer.run("k", factory))
            await asyncio.sleep(0.005)
            follower = asyncio.ensure_future(
                coalescer.run("k", factory))
            await asyncio.sleep(0.005)
            follower.cancel()
            with pytest.raises(asyncio.CancelledError):
                await follower
            value, coalesced = await leader
            return value, finished

        value, finished = _run(scenario())
        assert value == "done"
        assert finished == [1]

    def test_leader_cancellation_leaves_computation_running(self):
        """Even the *dispatching* request disconnecting must not kill
        the shared computation -- the coalescer owns the task."""
        async def scenario():
            coalescer = Coalescer()
            finished = []

            def factory():
                async def work():
                    await asyncio.sleep(0.05)
                    finished.append(1)
                    return "done"
                return work()

            leader = asyncio.ensure_future(coalescer.run("k", factory))
            await asyncio.sleep(0.005)
            follower = asyncio.ensure_future(
                coalescer.run("k", factory))
            await asyncio.sleep(0.005)
            leader.cancel()
            with pytest.raises(asyncio.CancelledError):
                await leader
            value, coalesced = await follower
            return value, coalesced, finished

        value, coalesced, finished = _run(scenario())
        assert value == "done"
        assert coalesced is True
        assert finished == [1]


# ----------------------------------------------------------------------
# the live daemon


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One daemon on a unix socket, shared by the integration tests.

    Generous tenant budgets; tests that exercise shedding use their
    own dedicated tenants (budgets are per-tenant, so they cannot
    starve the other tests).
    """
    sock = str(tmp_path_factory.mktemp("serve") / "test.sock")
    config = ServeConfig(
        path=sock, max_inflight=2, max_queue=8,
        tenant_capacity=1000.0, tenant_rate=1000.0,
        default_deadline_ms=60000.0)
    server = ServerThread(config=config)
    server.start()
    try:
        yield server
    finally:
        if server._thread.is_alive():
            server.stop()


@pytest.fixture()
def client(daemon):
    with ServeClient(path=daemon.daemon.config.path) as c:
        yield c


class TestDaemonIntegration:
    def test_session_without_breaker_board_is_refused(self):
        """Engine crashes must fast-fail for every tenant, so the daemon
        refuses a session that has no BreakerBoard."""
        from repro.common.errors import ReproError
        from repro.serve import RobustServeDaemon
        from repro.session import RobustSession
        with pytest.raises(ReproError, match="BreakerBoard"):
            RobustServeDaemon(session=RobustSession())

    def test_health_and_stats(self, client):
        health = client.health()["result"]
        assert health["ok"] and health["protocol"] == 1
        stats = client.stats()
        assert "metrics" in stats and "coalescing" in stats
        assert stats["admission"]["max_inflight"] == 2

    def test_run_and_cached_rerun(self, client):
        first = client.run("3D_Q15", resolution=4, tenant="basic")
        assert first["ok"]
        assert first["served"] in ("full", "cached")
        assert first["result"]["algorithm"] == "spillbound"
        assert first["result"]["sub_optimality"] >= 1.0
        again = client.run("3D_Q15", resolution=4, tenant="basic")
        assert again["served"] == "cached"
        assert again["degraded_reasons"] == []

    def test_warm_populates_the_cache(self, client):
        warmed = client.warm("3D_Q15", resolution=6, tenant="basic")
        assert warmed["ok"] and warmed["result"]["contours"] > 0
        run = client.run("3D_Q15", resolution=6, tenant="basic")
        assert run["served"] == "cached"

    def test_bad_request_is_refused_not_fatal(self, client):
        response = client.request({"op": "run"})
        assert response["ok"] is False
        assert response["error"] == "bad-request"
        # The connection survives a bad line.
        assert client.health()["result"]["ok"]

    def test_unknown_query_is_an_internal_error(self, client):
        response = client.request(
            {"op": "run", "query": "99D_NOPE", "id": 1})
        assert response["ok"] is False
        assert response["error"] == "internal"

    def test_deadline_ladder_native_fallback(self, client):
        """A cold artifact and a budget below the native floor: the
        ladder answers with the native optimizer, naming the rung."""
        response = client.run("2D_Q91", resolution=24, tenant="dl",
                              deadline_ms=30, rng=888)
        assert response["ok"]
        assert response["served"] == "native"
        assert response["result"]["algorithm"] == "native"
        assert "native-deadline" in response["degraded_reasons"]

    def test_warm_artifact_beats_the_native_rung(self, client):
        """With the artifact warm a tight budget still gets real
        discovery: a cached run costs milliseconds, so the ladder
        serves ``cached`` instead of degrading to native."""
        client.warm("3D_Q15", resolution=4, tenant="dl")
        response = client.run("3D_Q15", resolution=4, tenant="dl",
                              deadline_ms=45)
        assert response["ok"]
        assert response["served"] == "cached"
        assert response["result"]["algorithm"] == "spillbound"

    def test_deadline_ladder_lowres_rung(self, client):
        """A cold build the deadline cannot afford (200ms < cold floor
        400ms) degrades resolution instead of shedding."""
        response = client.run("2D_Q91", resolution=24, tenant="dl",
                              deadline_ms=200, rng=777)
        assert response["ok"]
        assert response["served"] in ("lowres", "cached")
        assert any(r.startswith("lowres-deadline")
                   for r in response["degraded_reasons"])
        assert response["result"]["resolution"] == 6

    def test_zero_deadline_is_shed(self, client):
        with pytest.raises(ServeError) as exc:
            client.run("3D_Q15", resolution=4, tenant="dl",
                       deadline_ms=0)
        assert exc.value.code == "overloaded"
        assert exc.value.retry_after_ms is not None

    def test_concurrent_identical_requests_coalesce(self, daemon):
        """The tentpole proof: N identical concurrent requests perform
        exactly one discovery computation."""
        sock = daemon.daemon.config.path
        before = daemon.daemon.coalescer.stats.snapshot()
        n = 6
        responses = [None] * n
        barrier = threading.Barrier(n)

        def fire(i):
            with ServeClient(path=sock, timeout=60.0) as c:
                barrier.wait(10)
                responses[i] = c.run(
                    "2D_Q91", resolution=16, tenant="co-%d" % i,
                    rng=4242, deadline_ms=55000)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(90)
        assert all(r is not None and r["ok"] for r in responses)
        sub_opts = set(r["result"]["sub_optimality"]
                       for r in responses)
        assert len(sub_opts) == 1  # bit-identical shared answer
        after = daemon.daemon.coalescer.stats.snapshot()
        dispatched = after["dispatched"] - before["dispatched"]
        coalesced = after["coalesced"] - before["coalesced"]
        assert dispatched == 1
        assert coalesced == n - 1
        assert sum(1 for r in responses if r["coalesced"]) == n - 1

    def test_stats_expose_every_subsystem(self, client):
        stats = client.stats()
        assert stats["metrics"]["counters"]["serve.requests"] > 0
        assert "service_ema_ms" in stats["admission"]
        assert "entries" in stats["cache"]
        assert isinstance(stats["breakers"], dict)
        assert isinstance(stats["tenants"], dict)


class TestDaemonOverload:
    """A dedicated stingy daemon: tiny budgets, one slot, no queue."""

    @pytest.fixture()
    def stingy(self, tmp_path):
        sock = str(tmp_path / "stingy.sock")
        config = ServeConfig(
            path=sock, max_inflight=1, max_queue=0,
            tenant_capacity=2.0, tenant_rate=0.1,
            default_deadline_ms=60000.0)
        server = ServerThread(config=config)
        server.start()
        try:
            yield server
        finally:
            if server._thread.is_alive():
                server.stop()

    def test_tenant_budget_shed_carries_retry_hint(self, stingy):
        with ServeClient(path=stingy.daemon.config.path,
                         raise_errors=False) as c:
            responses = [c.run("3D_Q15", resolution=4, tenant="miser")
                         for _ in range(3)]
        assert responses[0]["ok"] and responses[1]["ok"]
        shed = responses[2]
        assert shed["ok"] is False
        assert shed["error"] == "overloaded"
        assert "tenant-budget" in shed["message"]
        # Refill rate 0.1/s: the hint says when one token lands (capped
        # by the controller's 5s ceiling).
        assert shed["retry_after_ms"] > 0

    def test_queue_full_shed_carries_retry_hint(self, stingy):
        """One slot, no queue: an overlapping request from a *different*
        tenant (own budget) sheds with ``queue-full``."""
        sock = stingy.daemon.config.path
        holder_started = threading.Event()
        holder_response = []

        def hold():
            with ServeClient(path=sock, timeout=60.0) as c:
                holder_started.set()
                holder_response.append(c.run(
                    "3D_Q15", resolution=4, tenant="slow",
                    engine="simulated+latency(ms=200)", rng=31))

        t = threading.Thread(target=hold)
        t.start()
        holder_started.wait(5)
        time.sleep(0.3)  # the slow run occupies the only slot
        with ServeClient(path=sock, raise_errors=False) as c:
            shed = c.run("3D_Q15", resolution=4, tenant="other",
                         rng=32)
        t.join(60)
        assert holder_response and holder_response[0]["ok"]
        if shed["ok"]:
            pytest.skip("slow run finished before the overlap landed")
        assert shed["error"] == "overloaded"
        assert "queue-full" in shed["message"]
        assert shed["retry_after_ms"] >= 0


class TestDaemonDrain:
    def test_sigterm_style_drain(self, tmp_path):
        sock = str(tmp_path / "drain.sock")
        config = ServeConfig(path=sock, max_inflight=2,
                             tenant_capacity=100.0, tenant_rate=100.0)
        server = ServerThread(config=config)
        server.start()
        with ServeClient(path=sock, raise_errors=False) as c:
            assert c.run("3D_Q15", resolution=4)["ok"]
            # Trigger the drain from outside the loop, as a signal
            # handler would, while the connection stays open.
            server._loop.call_soon_threadsafe(
                server.daemon.initiate_drain)
            time.sleep(0.1)
            refused = c.run("3D_Q15", resolution=4)
            assert refused["ok"] is False
            assert refused["error"] == "draining"
            assert refused["retry_after_ms"] >= 0
            # Control plane still answers while draining.
            assert c.health()["result"]["draining"] is True
        server._thread.join(15)
        assert not server._thread.is_alive()
        assert not os.path.exists(sock)
