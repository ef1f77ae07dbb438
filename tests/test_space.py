"""Tests for the exploration space: POSP construction and the OCS."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.common.errors import DiscoveryError, OptimizerError
from repro.ess.space import ExplorationSpace, default_resolution


class TestExactBuild:
    def test_every_location_has_optimal_plan(self, toy_space):
        for index in toy_space.grid.indices():
            plan = toy_space.optimal_plan(index)
            assert plan.cost[index] == pytest.approx(
                toy_space.optimal_cost(index))

    def test_opt_cost_matches_dp(self, toy_space):
        # Spot-check a diagonal of locations against fresh DP calls.
        n = toy_space.grid.shape[0]
        for i in range(0, n, 3):
            index = (i, i)
            result = toy_space.optimize_at(index)
            assert toy_space.optimal_cost(index) == pytest.approx(
                result.cost, rel=1e-9)

    def test_opt_cost_is_lower_envelope(self, toy_space):
        for info in toy_space.plans:
            assert np.all(info.cost >= toy_space.opt_cost * (1 - 1e-12))

    def test_pcm_of_optimal_surface(self, toy_space):
        cost = toy_space.opt_cost
        assert np.all(np.diff(cost, axis=0) > 0)
        assert np.all(np.diff(cost, axis=1) > 0)

    def test_extremes(self, toy_space):
        assert toy_space.c_min == toy_space.optimal_cost(
            toy_space.grid.origin)
        assert toy_space.c_max == toy_space.optimal_cost(
            toy_space.grid.terminus)
        assert toy_space.c_max > toy_space.c_min

    def test_posp_size_counts_distinct(self, toy_space):
        assert 1 < toy_space.posp_size() <= len(toy_space.plans)


class TestFastBuild:
    def test_fast_matches_exact(self, toy_query):
        exact = ExplorationSpace(toy_query, resolution=12, s_min=1e-5)
        exact.build(mode="exact")
        fast = ExplorationSpace(toy_query, resolution=12, s_min=1e-5)
        fast.build(mode="fast", rng=3)
        assert np.allclose(fast.opt_cost, exact.opt_cost, rtol=1e-9)

    def test_unknown_mode_rejected(self, toy_query):
        space = ExplorationSpace(toy_query, resolution=4, s_min=1e-5)
        with pytest.raises(OptimizerError):
            space.build(mode="bogus")


class TestPlanRegistry:
    def test_register_deduplicates(self, toy_space):
        count = len(toy_space.plans)
        info = toy_space.register_plan(toy_space.plans[0].tree)
        assert info.id == toy_space.plans[0].id
        assert len(toy_space.plans) == count

    def test_built_universe_is_fixed(self):
        """A probe plan stays outside ``plans``; registering it into the
        built space is refused."""
        from repro.harness.workloads import workload

        space = ExplorationSpace(workload("2D_Q91"), resolution=6)
        space.build(mode="exact")
        probes = [space.probe_plan(index, epp)
                  for index in space.grid.indices()
                  for epp in space.query.epps]
        outside = [info for info in probes
                   if info is not None and info.id >= len(space.plans)]
        assert outside
        with pytest.raises(DiscoveryError):
            space.register_plan(outside[0].tree)

    def test_probe_id_clash_raises(self, monkeypatch):
        """Probe plans sharing an id would alias in id-keyed caches."""
        import types

        from repro.ess import space as space_module
        from repro.harness.workloads import workload

        space = ExplorationSpace(workload("2D_Q91"), resolution=6)
        space.build(mode="exact")
        monkeypatch.setattr(space_module, "zlib",
                            types.SimpleNamespace(crc32=lambda data: 7))
        with pytest.raises(DiscoveryError, match="share id"):
            for index in space.grid.indices():
                for epp in space.query.epps:
                    space.probe_plan(index, epp)

    def test_concurrent_registration_deduplicates(self, monkeypatch):
        """Threads probing one shared space (the serve daemon's compute
        pool) get the same PlanInfo per probe and leave ``plans`` as
        the build registered it."""
        from repro.cost.kernel import GridKernel
        from repro.harness.workloads import workload

        space = ExplorationSpace(workload("2D_Q91"), resolution=6)
        space.build(mode="exact")
        plans = list(space.plans)
        keys = [(index, epp) for index in space.grid.indices()
                for epp in space.query.epps]
        surface = GridKernel.plan_surface

        def slow_surface(kernel, tree):
            time.sleep(0.002)  # widen the check-then-insert window
            return surface(kernel, tree)

        monkeypatch.setattr(GridKernel, "plan_surface", slow_surface)
        barrier = threading.Barrier(4)
        answers = [None] * 4

        def probe(slot):
            barrier.wait(10)
            answers[slot] = [space.probe_plan(*key) for key in keys]

        threads = [threading.Thread(target=probe, args=(slot,))
                   for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert space.plans == plans
        for other in answers[1:]:
            assert all(a is b for a, b in zip(answers[0], other))
        probes = {id(info): info for info in answers[0]
                  if info is not None and info.id >= len(plans)}
        assert len(probes) >= 2
        signatures = [info.tree.signature() for info in probes.values()]
        assert len(set(signatures)) == len(signatures)

    def test_spill_order_contains_epps_only(self, toy_space):
        for info in toy_space.plans:
            for name, _node, subtree in info.spill_order:
                assert name in toy_space.query.epps
                assert subtree <= set(toy_space.query.epps)

    def test_spill_target_respects_remaining(self, toy_space):
        info = toy_space.plans[0]
        full = info.spill_target(set(toy_space.query.epps))
        assert full is not None
        assert info.spill_target(set()) is None

    def test_assignment_at(self, toy_space):
        a = toy_space.assignment_at((3, 5))
        assert a["j1"] == pytest.approx(toy_space.grid.values[0][3])
        assert a["j2"] == pytest.approx(toy_space.grid.values[1][5])


class TestMisc:
    def test_requires_epps(self, toy_catalog):
        from repro.query.query import Query, make_join
        query = Query(
            "noepp", toy_catalog, ["fact", "dim1"],
            [make_join("j1", "fact.f_dim1", "dim1.d1_id")],
            epps=(),
        )
        with pytest.raises(OptimizerError):
            ExplorationSpace(query, resolution=4)

    def test_default_resolution_decreasing(self):
        values = [default_resolution(d) for d in range(1, 7)]
        assert values == sorted(values, reverse=True)
        assert default_resolution(9) >= 2

    def test_repr_mentions_build_state(self, toy_query):
        space = ExplorationSpace(toy_query, resolution=4, s_min=1e-5)
        assert "unbuilt" in repr(space)
        space.build(mode="fast")
        assert "built" in repr(space)
