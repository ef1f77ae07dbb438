"""Tests for the session layer: cache tiers, keys, lifecycle wiring."""

import numpy as np
import pytest

from repro.common.errors import DiscoveryError
from repro.ess.space import default_resolution
from repro.ess.synthetic import textbook_space
from repro.robustness import RetryPolicy
from repro.robustness.guard import DiscoveryGuard
from repro.session import (
    RobustSession,
    SpaceKey,
    default_session,
    set_default_session,
)


class TestSpaceKey:
    def test_equal_inputs_equal_digest(self, toy_query):
        a = SpaceKey.of(toy_query, resolution=8)
        b = SpaceKey.of(toy_query, resolution=8)
        assert a == b
        assert hash(a) == hash(b)
        assert a.digest() == b.digest()

    def test_resolution_changes_digest(self, toy_query):
        assert SpaceKey.of(toy_query, resolution=8).digest() != \
            SpaceKey.of(toy_query, resolution=9).digest()

    def test_predicate_set_changes_digest(self, toy_query, toy_query_3d):
        # Same tables and catalog, different epp declaration.
        assert SpaceKey.of(toy_query, resolution=8).digest() != \
            SpaceKey.of(toy_query_3d, resolution=8).digest()

    def test_mode_and_rng_in_key(self, toy_query):
        base = SpaceKey.of(toy_query, resolution=8)
        assert base != SpaceKey.of(toy_query, resolution=8, mode="exact")
        assert base != SpaceKey.of(toy_query, resolution=8, rng=7)

    def test_none_resolution_normalised(self, toy_query):
        implicit = SpaceKey.of(toy_query)
        explicit = SpaceKey.of(
            toy_query,
            resolution=default_resolution(toy_query.dimensions))
        assert implicit == explicit


class TestMemoryTier:
    def test_second_lookup_is_a_hit(self, toy_query):
        session = RobustSession(resolution=6)
        first = session.space(toy_query)
        second = session.space(toy_query)
        assert second is first
        assert session.stats.builds == 1
        assert session.stats.memory_hits == 1

    def test_contours_cached_per_ratio(self, toy_query):
        session = RobustSession(resolution=6)
        space, contours = session.space_and_contours(toy_query)
        space2, contours2 = session.space_and_contours(toy_query)
        assert space2 is space and contours2 is contours
        assert session.stats.contour_builds == 1
        assert session.stats.contour_hits == 1
        _, wider = session.space_and_contours(toy_query, ratio=3.0)
        assert wider is not contours
        assert session.stats.builds == 1

    def test_cache_false_bypasses_both_tiers(self, toy_query, tmp_path):
        session = RobustSession(resolution=6, cache_dir=str(tmp_path))
        a = session.space(toy_query, cache=False)
        b = session.space(toy_query, cache=False)
        assert a is not b
        assert session.stats.lookups == 0
        assert not list(tmp_path.iterdir())

    def test_lru_evicts_oldest(self, toy_query):
        session = RobustSession(memory_slots=1)
        session.space(toy_query, resolution=5)
        session.space(toy_query, resolution=6)
        session.space(toy_query, resolution=5)  # evicted -> rebuild
        assert session.stats.builds == 3
        assert session.stats.memory_hits == 0

    def test_distinct_knobs_distinct_spaces(self, toy_query):
        session = RobustSession()
        a = session.space(toy_query, resolution=5)
        b = session.space(toy_query, resolution=6)
        assert a.grid.shape != b.grid.shape
        assert session.stats.builds == 2


class TestDiskTier:
    def test_roundtrip_across_sessions(self, toy_query, tmp_path):
        writer = RobustSession(resolution=6, cache_dir=str(tmp_path))
        built = writer.space(toy_query)
        reader = RobustSession(resolution=6, cache_dir=str(tmp_path))
        loaded = reader.space(toy_query)
        assert reader.stats.disk_hits == 1
        assert reader.stats.builds == 0
        assert np.array_equal(loaded.plan_at, built.plan_at)
        assert np.allclose(loaded.opt_cost, built.opt_cost)

    def test_changed_resolution_misses(self, toy_query, tmp_path):
        RobustSession(resolution=6, cache_dir=str(tmp_path)).space(
            toy_query)
        reader = RobustSession(resolution=7, cache_dir=str(tmp_path))
        reader.space(toy_query)
        assert reader.stats.disk_hits == 0
        assert reader.stats.builds == 1
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_changed_predicate_set_misses(self, toy_query, toy_query_3d,
                                          tmp_path):
        RobustSession(resolution=6, cache_dir=str(tmp_path)).space(
            toy_query)
        reader = RobustSession(resolution=6, cache_dir=str(tmp_path))
        space = reader.space(toy_query_3d)
        assert reader.stats.disk_hits == 0
        assert reader.stats.builds == 1
        assert space.query.epps == toy_query_3d.epps

    def test_corrupt_archive_rebuilt_not_loaded(self, toy_query,
                                                tmp_path):
        writer = RobustSession(resolution=6, cache_dir=str(tmp_path))
        built = writer.space(toy_query)
        archive, = tmp_path.glob("*.npz")
        archive.write_bytes(b"not an npz archive")
        reader = RobustSession(resolution=6, cache_dir=str(tmp_path))
        space = reader.space(toy_query)
        assert reader.stats.invalidations == 1
        assert reader.stats.builds == 1
        assert space.built
        assert np.array_equal(space.plan_at, built.plan_at)

    def test_stale_format_version_rebuilt(self, toy_query, tmp_path,
                                          monkeypatch):
        writer = RobustSession(resolution=6, cache_dir=str(tmp_path))
        writer.space(toy_query)
        from repro.ess import persistence
        monkeypatch.setattr(persistence, "FORMAT_VERSION", 99)
        reader = RobustSession(resolution=6, cache_dir=str(tmp_path))
        space = reader.space(toy_query)
        assert reader.stats.invalidations == 1
        assert reader.stats.builds == 1
        assert space.built


class TestAlgorithmsAndRuns:
    def test_unknown_algorithm_rejected(self, toy_query):
        with pytest.raises(DiscoveryError, match="unknown algorithm"):
            RobustSession(resolution=6).algorithm("quantum", toy_query)

    def test_algorithm_needs_query_or_space(self):
        with pytest.raises(DiscoveryError, match="query= or space="):
            RobustSession().algorithm("spillbound")

    def test_guard_policy_wraps_algorithm(self, toy_query):
        session = RobustSession(resolution=6,
                                guard=RetryPolicy(max_retries=1))
        guarded = session.algorithm("spillbound", toy_query)
        assert isinstance(guarded, DiscoveryGuard)

    def test_guard_true_uses_default_policy(self, toy_query):
        session = RobustSession(resolution=6)
        guarded = session.algorithm("spillbound", toy_query, guard=True)
        assert isinstance(guarded, DiscoveryGuard)

    def test_run_default_truth(self, toy_query):
        result = RobustSession(resolution=6).run(toy_query)
        assert result.sub_optimality >= 1.0
        assert result.executions[-1].completed

    def test_run_with_noisy_spec(self, toy_query):
        session = RobustSession(resolution=6)
        result = session.run(toy_query, qa_index=(4, 4),
                             spec="+noisy(delta=0.2,seed=3)")
        assert result.executions[-1].completed

    def test_sweep_through_session(self, toy_query):
        sweep = RobustSession(resolution=6).sweep(
            toy_query, "spillbound", sample=8, rng=1)
        assert sweep.mso >= 1.0
        assert sweep.aso <= sweep.mso

    def test_sweep_guards_an_instance_once(self, toy_query):
        session = RobustSession(resolution=6, guard=True)
        sweep = session.sweep(toy_query, "spillbound", sample=4, rng=1)
        assert sweep.algorithm == "guarded-spillbound"

    def test_sweep_paths_run_the_session_engine(self):
        """A ``SweepDriver`` given no ``engine_spec`` runs the session's
        spec: its grids equal ``session.sweep``'s, an explicit
        ``engine_spec=``'s and a two-worker sweep's."""
        from repro.session import SweepDriver

        spec = "simulated+noisy(delta=0.3,seed=5)"
        session = RobustSession(engine_spec=spec)

        def driven(session, **kwargs):
            driver = SweepDriver(session, sample=12, rng=0, resolution=6,
                                 **kwargs)
            return next(driver.run(["2D_Q91"], ["spillbound"])).sweep

        implicit = driven(session)
        for other in (driven(session, engine_spec=spec),
                      driven(session, workers=2),
                      session.sweep("2D_Q91", "spillbound", sample=12,
                                    rng=0, resolution=6)):
            assert np.array_equal(implicit.sub_optimalities,
                                  other.sub_optimalities)
        # The noise is real: plain simulated engines answer otherwise.
        plain = driven(RobustSession())
        assert not np.array_equal(implicit.sub_optimalities,
                                  plain.sub_optimalities)

    def test_contours_for_foreign_space(self):
        session = RobustSession()
        synthetic = textbook_space(resolution=16)
        first = session.contours_for(synthetic)
        second = session.contours_for(synthetic)
        assert second is first
        assert session.stats.contour_hits == 1


class TestSharedDefaultSession:
    def test_two_experiments_share_one_build(self):
        from repro.harness import experiments as exp
        previous = set_default_session(RobustSession())
        try:
            exp.fig8_mso_guarantees(names=("2D_Q91",), resolution=6)
            exp.table2_alignment(names=("2D_Q91",), resolution=6)
            assert default_session().stats.builds == 1
            assert default_session().stats.hits >= 1
        finally:
            set_default_session(previous)

    def test_build_space_shim_routes_through_session(self):
        from repro.harness.workloads import build_space, workload
        previous = set_default_session(RobustSession())
        try:
            query = workload("2D_Q91")
            first = build_space(query, resolution=6)
            second = build_space(query, resolution=6)
            assert second is first
            assert default_session().stats.builds == 1
        finally:
            set_default_session(previous)
