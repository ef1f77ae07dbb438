"""Parallel sweep backend: bit-identical merge, seed splitting, limits.

The contract under test (DESIGN.md §9): a ``SweepDriver`` with
``workers=N`` must produce grids, ``SweepResult.extras`` (degradation
tallies and obs counters) and write-ahead journal records **equal** to
the serial driver's -- parallelism is an execution detail, never a
semantic one. Everything that cannot honour that contract across
process boundaries (prebuilt algorithm instances, row-backed engines
without a declarative database) must be refused with a clear error,
not silently degraded.
"""

import os

import numpy as np
import pytest

from repro.common.errors import DiscoveryError
from repro.engine.latency import LatencyEngine
from repro.engine.simulated import SimulatedEngine
from repro.robustness.durable import CircuitBreaker
from repro.session import (
    EngineSpec,
    RobustSession,
    SweepDriver,
    unit_fault_seed,
)

QUERY = "2D_Q91"
ALGOS = ("spillbound", "planbouquet")
FAULTY = "simulated+faulty(crash=0.2,transient=0.1)"


def _session(**kwargs):
    return RobustSession(resolution=6, **kwargs)


def _records(driver, queries=(QUERY,), algorithms=ALGOS):
    return list(driver.run(list(queries), list(algorithms)))


def _assert_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a.query_name, a.algorithm) == (b.query_name, b.algorithm)
        assert np.array_equal(a.sweep.sub_optimalities,
                              b.sweep.sub_optimalities), a.algorithm
        assert a.sweep.shape == b.sweep.shape
        assert a.sweep.extras == b.sweep.extras, a.algorithm
        assert a.sweep.sample_flats == b.sweep.sample_flats
        assert a.sweep.grid_shape == b.sweep.grid_shape


def _wal_bytes(journal_dir):
    chunks = []
    for name in sorted(os.listdir(journal_dir)):
        if name.endswith(".wal"):
            with open(os.path.join(journal_dir, name), "rb") as handle:
                chunks.append((name, handle.read()))
    return chunks


class TestEquivalence:
    def test_plain_sweep_is_bit_identical(self):
        serial = _records(SweepDriver(_session()))
        parallel = _records(SweepDriver(_session(), workers=4))
        _assert_identical(serial, parallel)

    def test_faulty_guarded_sweep_is_bit_identical(self):
        def driver(workers):
            return SweepDriver(_session(guard=True), workers=workers,
                               engine_spec=FAULTY, fault_seed=42)

        algorithms = ALGOS + ("alignedbound",)
        serial = _records(driver(None), algorithms=algorithms)
        parallel = _records(driver(4), algorithms=algorithms)
        _assert_identical(serial, parallel)
        # The fault stream really degraded runs, so the equality above
        # covered the degradation tallies, not just clean grids.
        assert any(r.sweep.extras["degraded"] > 0 for r in serial)
        # ... and every folded run total: AlignedBound's penalty and the
        # spend, retry and waste sums.
        extras = serial[-1].sweep.extras
        assert extras["max_penalty"] >= 1.0
        assert extras["spent"] > 0.0
        assert extras["retries"] > 0
        assert extras["wasted_cost"] > 0.0

    def test_sampled_sweep_is_bit_identical(self):
        def driver(workers):
            return SweepDriver(_session(), sample=20, rng=7,
                               workers=workers)

        _assert_identical(_records(driver(None)), _records(driver(4)))

    def test_chunk_size_does_not_change_results(self):
        serial = _records(SweepDriver(_session()))
        one_at_a_time = _records(SweepDriver(_session(), workers=2,
                                             chunk_size=1))
        _assert_identical(serial, one_at_a_time)

    def test_journal_bytes_are_identical(self, tmp_path):
        def run(workers, journal):
            driver = SweepDriver(_session(guard=True), workers=workers,
                                 engine_spec=FAULTY, fault_seed=9,
                                 sample=16, rng=3,
                                 journal=str(journal))
            _records(driver)
            return _wal_bytes(str(journal))

        assert run(None, tmp_path / "serial") \
            == run(4, tmp_path / "parallel")

    def test_obs_extras_are_identical_with_tracing(self, tmp_path):
        def run(workers, trace_dir):
            driver = SweepDriver(_session(), workers=workers,
                                 trace_dir=str(trace_dir))
            records = _records(driver, algorithms=("spillbound",))
            return records, driver.obs_summary()

        serial, serial_obs = run(None, tmp_path / "s")
        parallel, parallel_obs = run(3, tmp_path / "p")
        _assert_identical(serial, parallel)
        assert serial_obs == parallel_obs
        assert serial_obs, "tracing should populate obs counters"
        # Workers' per-chunk traces were folded into one per-unit file
        # named exactly like the serial sweep's.
        assert sorted(os.listdir(tmp_path / "p")) \
            == sorted(os.listdir(tmp_path / "s"))


class TestFaultSeedSplit:
    def test_split_is_stable_and_per_unit(self):
        a = unit_fault_seed(42, "2D_Q91/spillbound")
        assert a == unit_fault_seed(42, "2D_Q91/spillbound")
        assert a != unit_fault_seed(42, "2D_Q91/planbouquet")
        assert a != unit_fault_seed(43, "2D_Q91/spillbound")
        assert 0 <= a < 2 ** 31

    def test_serial_split_matches_single_unit_runs(self):
        """Each unit's grid depends only on its own split seed: a sweep
        of two algorithms equals two single-algorithm sweeps."""
        both = _records(SweepDriver(_session(guard=True),
                                    engine_spec=FAULTY, fault_seed=5))
        for record in both:
            alone = _records(
                SweepDriver(_session(guard=True), engine_spec=FAULTY,
                            fault_seed=5),
                algorithms=(record.algorithm.replace("guarded-", ""),))
            assert np.array_equal(record.sweep.sub_optimalities,
                                  alone[0].sweep.sub_optimalities)


class TestRestrictions:
    def test_prebuilt_instances_are_refused(self):
        session = _session()
        instance = session.algorithm("spillbound", query=QUERY)
        driver = SweepDriver(session, workers=2)
        with pytest.raises(DiscoveryError, match="instances"):
            _records(driver, algorithms=(instance,))


class TestResume:
    def test_parallel_resumes_serial_journal(self, tmp_path):
        journal = str(tmp_path / "j")
        first = _records(SweepDriver(_session(), journal=journal),
                         algorithms=("spillbound",))
        resumed = _records(
            SweepDriver(_session(), journal=journal, resume=True,
                        workers=4))
        assert resumed[0].replayed and not resumed[1].replayed
        assert np.array_equal(first[0].sweep.sub_optimalities,
                              resumed[0].sweep.sub_optimalities)

    def test_serial_resumes_parallel_journal(self, tmp_path):
        journal = str(tmp_path / "j")
        first = _records(SweepDriver(_session(), workers=4,
                                     journal=journal),
                         algorithms=("spillbound",))
        resumed = _records(
            SweepDriver(_session(), journal=journal, resume=True))
        assert resumed[0].replayed
        assert np.array_equal(first[0].sweep.sub_optimalities,
                              resumed[0].sweep.sub_optimalities)
        # The replayed + fresh stream matches an uninterrupted serial
        # sweep of the full algorithm list.
        uninterrupted = _records(SweepDriver(_session()))
        _assert_identical(uninterrupted, resumed)


class TestBreakers:
    # The breaker is live protection, not part of the deterministic
    # result (DESIGN.md §9): each worker trips its own copy, and which
    # runs an open breaker preempts depends on chunk scheduling. These
    # tests therefore use crash=1.0, where every location must degrade
    # in both modes whatever the breaker state -- the one regime where
    # grids and tallies are equal *by construction* rather than by a
    # lucky seed.

    def test_worker_breaker_accounting_folds_into_parent(self):
        breaker = CircuitBreaker(threshold=2)
        driver = SweepDriver(_session(guard=True), workers=3,
                             engine_spec="simulated+faulty(crash=1.0)",
                             fault_seed=1, breaker=breaker)
        records = _records(driver, algorithms=("spillbound",))
        extras = records[0].sweep.extras
        assert extras["degraded"] > 0
        # Workers tripped their own breakers; the parent's copy saw no
        # crash directly but absorbed the reporting counters.
        assert breaker.opened > 0
        assert breaker.state == CircuitBreaker.CLOSED

    def test_fully_degraded_grids_match_serial_under_breaker(self):
        def run(workers):
            driver = SweepDriver(
                _session(guard=True), workers=workers,
                engine_spec="simulated+faulty(crash=1.0)", fault_seed=1,
                breaker=CircuitBreaker(threshold=2))
            return _records(driver, algorithms=("spillbound",))

        serial, parallel = run(None), run(3)
        # A degraded cell is the native fallback's sub-optimality --
        # independent of whether it degraded via breaker-open or
        # retries-exhausted -- so with everything degraded the grids
        # agree exactly. (The per-reason split still may not.)
        assert serial[0].sweep.extras["degraded"] \
            == serial[0].sweep.sub_optimalities.size
        assert serial[0].sweep.extras["degraded"] \
            == parallel[0].sweep.extras["degraded"]
        assert np.array_equal(serial[0].sweep.sub_optimalities,
                              parallel[0].sweep.sub_optimalities)


class TestLatencyLayer:
    def test_latency_layer_parses_and_builds(self):
        spec = EngineSpec.parse("simulated+latency(ms=5)")
        assert spec.describe() == "simulated+latency(ms=5)"
        session = _session()
        space = session.space(QUERY)
        engine = spec.build(space, qa_index=(1, 1))
        assert isinstance(engine, LatencyEngine)
        assert engine.ms == 5.0
        assert isinstance(engine.engine, SimulatedEngine)

    def test_latency_preserves_results(self):
        session = _session()
        space = session.space(QUERY)
        qa = (2, 3)
        plain = SimulatedEngine(space, qa)
        delayed = LatencyEngine(SimulatedEngine(space, qa), ms=0.0)
        plan = space.optimal_plan(qa)
        a = plain.execute(plan, budget=float("inf"))
        b = delayed.execute(plan, budget=float("inf"))
        assert a.spent == b.spent and a.completed == b.completed

    def test_sound_fallback_skips_latency(self):
        session = _session()
        space = session.space(QUERY)
        engine = LatencyEngine(SimulatedEngine(space, (1, 1)), ms=50.0)
        assert isinstance(engine.sound(), SimulatedEngine)

    def test_unknown_latency_argument_is_refused(self):
        with pytest.raises(DiscoveryError, match="latency"):
            EngineSpec.parse("simulated+latency(bogus=1)").build(
                _session().space(QUERY), qa_index=(0, 0))


class TestRowBackedParallel:
    """Row-backed engine specs across process boundaries: workers
    regenerate the row store from the session's declarative
    DatabaseSpec (raw arrays are refused)."""

    @staticmethod
    def _driver(workers):
        from repro.catalog.datagen import DatabaseSpec

        session = RobustSession(
            resolution=6,
            database=DatabaseSpec(rng=11, max_rows=800))
        return SweepDriver(session, sample=4, rng=2, workers=workers,
                           engine_spec="row(backend=sqlite,delta=1)")

    def test_sqlite_spec_sweep_is_bit_identical(self):
        serial = _records(self._driver(None),
                          algorithms=("spillbound",))
        parallel = _records(self._driver(2),
                            algorithms=("spillbound",))
        _assert_identical(serial, parallel)

    def test_raw_arrays_are_refused_with_workers(self):
        session = RobustSession(resolution=6)
        session.database = {"store_sales": {}}  # raw, unpicklable intent
        driver = SweepDriver(session, workers=2, engine_spec="row()")
        with pytest.raises(DiscoveryError, match="DatabaseSpec"):
            _records(driver, algorithms=("spillbound",))
