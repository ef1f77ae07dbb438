"""Concurrency hammer tests for the shared serving-path structures.

The serving daemon resolves every tenant's request against one
:class:`~repro.session.cache.ArtifactCache`, one
:class:`~repro.session.registry.BreakerBoard` and (across processes)
one disk artifact directory. These tests hammer each from many
threads/processes and assert the invariants the daemon depends on:
no torn LRU bookkeeping, single breaker identity per spec, exactly one
valid archive per fingerprint on disk.
"""

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.algorithms import base
from repro.cost import kernel
from repro.ess import contours as contour_module
from repro.robustness.durable import CircuitBreaker
from repro.session import BreakerBoard, EngineSpec, RobustSession
from repro.session.cache import ArtifactCache, SpaceKey

THREADS = 8
ROUNDS = 60


def _key(i, resolution=4):
    return SpaceKey("q%d" % i, ("a", "b"), ("t1", "t2"), "toy",
                    resolution, "fast", 1e-6, 0)


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on many threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(threads)

    def wrapped(index):
        try:
            barrier.wait(5)
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=wrapped, args=(i,))
            for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(30)
    assert not errors, errors


class _FakeSpace:
    """Stand-in build product; the memory tier never introspects it."""

    def __init__(self, tag):
        self.tag = tag


class TestCacheHammer:
    def test_lru_stays_consistent_under_contention(self):
        cache = ArtifactCache(memory_slots=3)
        built = []
        mutex = threading.Lock()

        def builder_for(i):
            def build():
                with mutex:
                    built.append(i)
                time.sleep(0.001)  # widen the cold-miss race window
                return _FakeSpace(i)
            return build

        def worker(index):
            for round_no in range(ROUNDS):
                i = (index + round_no) % 6  # 6 keys > 3 slots: evictions
                space = cache.space(_key(i), None, builder_for(i))
                assert space.tag == i

        _hammer(worker)
        assert len(cache) <= 3
        # Every lookup resolved to a correctly-tagged space and the
        # stats ledger balances: lookups = hits + builds.
        assert cache.stats.lookups == THREADS * ROUNDS
        assert cache.stats.builds == len(built)

    def test_racing_cold_misses_share_one_published_entry(self):
        cache = ArtifactCache(memory_slots=8)
        release = threading.Event()

        def build():
            release.wait(5)  # hold every racer inside the build
            return _FakeSpace("x")

        results = []
        mutex = threading.Lock()

        def worker(index):
            if index == THREADS - 1:
                time.sleep(0.05)
                release.set()
                return
            space = cache.space(_key(0), None, build)
            with mutex:
                results.append(space)

        _hammer(worker)
        # Losers of the publish race adopt the winner's entry: later
        # lookups all observe one shared object.
        again = cache.space(_key(0), None,
                            lambda: pytest.fail("should be cached"))
        assert all(space is again or space.tag == "x"
                   for space in results)
        assert len(cache) == 1

    def test_probe_reports_tiers_without_touching_lru(self):
        cache = ArtifactCache(memory_slots=2)
        cache.space(_key(1), None, lambda: _FakeSpace(1))
        cache.space(_key(2), None, lambda: _FakeSpace(2))
        assert cache.probe(_key(1)) == "memory"
        assert cache.probe(_key(9)) is None
        # probe() must not refresh LRU order: key 1 is still the
        # eviction victim even though it was probed last.
        cache.space(_key(3), None, lambda: _FakeSpace(3))
        assert cache.probe(_key(1)) is None
        assert cache.probe(_key(2)) == "memory"

    def test_probe_sees_disk_tier(self, tmp_path):
        session = RobustSession(cache_dir=str(tmp_path), resolution=4)
        query = session.query("3D_Q15")
        session.space(query, resolution=4)
        key = SpaceKey.of(query, resolution=4)
        assert session.cache.probe(key) == "memory"
        session.cache.clear()
        assert session.cache.probe(key) == "disk"


class TestSharedInstanceHammer:
    """The daemon's compute threads share one instance per algorithm
    and contour set. With every bounded cache shrunk until it evicts on
    nearly every publish, four threads over disjoint truths answer
    exactly as a serial run on a fresh session."""

    QUERY, RESOLUTION = "4D_Q91", 5
    ALGORITHMS = ("spillbound", "alignedbound")

    def _answer(self, instance, qa):
        result = instance.run(qa)
        return (result.total_cost, result.extras,
                [record.as_event() for record in result.executions])

    def test_shared_instances_under_evicting_budgets(self, monkeypatch):
        session = RobustSession()
        space, contours = session.space_and_contours(
            self.QUERY, resolution=self.RESOLUTION)
        truths = list(space.grid.indices())[::3]
        serial = {(name, qa): self._answer(
                      session.algorithm(name, space=space,
                                        contours=contours), qa)
                  for name in self.ALGORITHMS for qa in truths}

        surface = space.grid.size * 8
        monkeypatch.setattr(contour_module, "MEMO_ROWS", 8)
        monkeypatch.setattr(kernel, "SUBTREE_SURFACE_BYTES", 2 * surface)
        monkeypatch.setattr(base, "MEMO_ROWS", 4)
        session = RobustSession()
        space, contours = session.space_and_contours(
            self.QUERY, resolution=self.RESOLUTION)
        shared = [session.algorithm(name, space=space, contours=contours)
                  for name in self.ALGORITHMS]
        answers = [{} for _ in range(4)]

        def worker(index):
            for qa in truths[index::4]:
                for instance in shared:
                    answers[index][(instance.name, qa)] = \
                        self._answer(instance, qa)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _hammer(worker, threads=4)
        finally:
            sys.setswitchinterval(interval)
        merged = {}
        for part in answers:
            merged.update(part)
        assert merged == serial
        # Every cache stayed within its budget while it evicted.
        assert len(contours._bands) == 8
        assert space.kernel._subtrees.held <= 2 * surface
        for instance in shared:
            assert len(instance._choices) == 4
            assert len(instance._answers) == 4


class TestBreakerHammer:
    def test_board_resolves_one_breaker_per_spec(self):
        board = BreakerBoard()
        seen = []
        mutex = threading.Lock()
        spec = EngineSpec.parse("simulated+noisy(delta=0.3)")

        def worker(index):
            for _ in range(ROUNDS):
                breaker = board.breaker_for(spec)
                with mutex:
                    seen.append(breaker)

        _hammer(worker)
        assert len(set(id(b) for b in seen)) == 1
        assert len(board) == 1

    def test_concurrent_failures_trip_the_breaker_exactly_once(self):
        breaker = CircuitBreaker(threshold=5, cooldown=10**6)

        def worker(index):
            for _ in range(ROUNDS):
                breaker.record_failure()

        _hammer(worker)
        # The race this guards against: two threads both observing
        # ``threshold - 1`` failures and double-tripping. Under the
        # mutex the transition happens exactly once.
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened == 1
        assert breaker.failures == THREADS * ROUNDS

    def test_breaker_state_machine_survives_mixed_contention(self):
        breaker = CircuitBreaker(threshold=3, cooldown=4)

        def worker(index):
            for round_no in range(ROUNDS):
                if breaker.allow():
                    # Uneven per-thread schedules so failure streaks,
                    # successes and half-open probes all interleave.
                    if (index * 7 + round_no) % 5 == index % 5:
                        breaker.record_success()
                    else:
                        breaker.record_failure()

        _hammer(worker)
        stats = breaker.stats()
        assert breaker.state in (CircuitBreaker.CLOSED,
                                 CircuitBreaker.OPEN,
                                 CircuitBreaker.HALF_OPEN)
        assert stats["opened"] >= 1
        assert stats["fast_fails"] >= 0
        # A final success must always close it cleanly.
        breaker.allow()
        breaker.record_success()
        assert breaker.failures == 0


# ----------------------------------------------------------------------
# cross-process disk tier

_WARM_SNIPPET = """
import sys, time
sys.path.insert(0, %(src)r)
from repro.session import RobustSession

# Barrier on a sentinel file so both processes build concurrently.
while not __import__("os").path.exists(%(go)r):
    time.sleep(0.005)
session = RobustSession(cache_dir=%(cache)r, resolution=5)
space = session.space("3D_Q15", resolution=5)
print("%%d,%%d" %% (session.stats.builds, session.stats.disk_hits))
"""


@pytest.mark.slow
class TestFileLockStress:
    def test_two_processes_warming_same_fingerprint(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        cache = str(tmp_path / "artifacts")
        go = str(tmp_path / "go")
        snippet = _WARM_SNIPPET % {"src": src, "cache": cache, "go": go}
        procs = [subprocess.Popen([sys.executable, "-c", snippet],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
                 for _ in range(2)]
        with open(go, "w") as handle:
            handle.write("go")
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
            outputs.append(out.decode().strip())

        # Exactly one complete archive, no torn/partial temp files and
        # no leaked lock files.
        files = sorted(os.listdir(cache))
        archives = [f for f in files if f.endswith(".npz")
                    and not f.startswith(".")]
        assert len(archives) == 1
        assert not [f for f in files if ".tmp." in f]

        # The archive is genuinely loadable (not torn): a third,
        # fresh process-equivalent session must disk-hit, not rebuild.
        verify = RobustSession(cache_dir=cache, resolution=5)
        verify.space("3D_Q15", resolution=5)
        assert verify.stats.disk_hits == 1
        assert verify.stats.builds == 0
        assert verify.stats.invalidations == 0
