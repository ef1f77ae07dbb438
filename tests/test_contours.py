"""Tests for iso-cost contours: the geometric heart of all guarantees."""

import numpy as np
import pytest

from repro.common.errors import DiscoveryError
from repro.ess.contours import ContourSet, _contour_costs, _frontier_mask


class TestContourCosts:
    def test_doubling_ladder(self, toy_space):
        contours = ContourSet(toy_space)
        costs = contours.costs
        assert costs[0] == pytest.approx(toy_space.c_min)
        assert costs[-1] == pytest.approx(toy_space.c_max)
        for a, b in zip(costs[:-2], costs[1:-1]):
            assert b == pytest.approx(2 * a)

    def test_last_at_most_double(self, toy_space):
        costs = ContourSet(toy_space).costs
        assert costs[-1] <= 2 * costs[-2] * (1 + 1e-9)

    def test_custom_ratio(self, toy_space):
        contours = ContourSet(toy_space, ratio=3.0)
        costs = contours.costs
        for a, b in zip(costs[:-2], costs[1:-1]):
            assert b == pytest.approx(3 * a)

    def test_rejects_bad_ratio(self, toy_space):
        with pytest.raises(DiscoveryError):
            ContourSet(toy_space, ratio=1.0)

    def test_flat_surface_single_contour(self):
        assert _contour_costs(10.0, 10.0, 2.0) == [10.0]

    def test_count_formula(self):
        costs = _contour_costs(1.0, 100.0, 2.0)
        # ceil(log2(100)) = 7 doubling steps + capped final.
        assert len(costs) == 8
        assert costs[-1] == 100.0

    def test_no_duplicate_final_rung(self):
        """Regression: when c_max sits within float noise of the last
        geometric rung, the ladder used to emit a near-duplicate final
        contour (a zero-width doubling that wastes a full budget)."""
        c_max = 64.0 * (1 + 1e-10)
        costs = _contour_costs(1.0, c_max, 2.0)
        assert costs == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, c_max]
        for a, b in zip(costs, costs[1:]):
            assert b > a * 1.5

    def test_exact_power_ladder(self):
        costs = _contour_costs(1.0, 64.0, 2.0)
        assert costs == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


class TestFrontierMask:
    def test_members_fit_budget(self, toy_space):
        contours = ContourSet(toy_space)
        for i in range(len(contours)):
            members = contours.members(i)
            costs = toy_space.opt_cost[tuple(members.coords.T)]
            assert np.all(costs <= contours.cost(i) * (1 + 1e-9))

    def test_members_are_frontier(self, toy_space):
        """Each member has a +1 neighbour exceeding the budget (or is
        the terminus)."""
        contours = ContourSet(toy_space)
        shape = toy_space.grid.shape
        for i in range(len(contours)):
            cc = contours.cost(i)
            for coord in contours.members(i).coords:
                coord = tuple(coord)
                if coord == toy_space.grid.terminus:
                    continue
                exceeds = False
                for d in range(len(shape)):
                    if coord[d] + 1 < shape[d]:
                        up = list(coord)
                        up[d] += 1
                        if toy_space.opt_cost[tuple(up)] > cc:
                            exceeds = True
                assert exceeds, coord

    def test_hypograph_dominated_by_contour(self, toy_space):
        """Every location under CC_i is dominated by some member --
        the property that makes budgeted contour execution complete."""
        contours = ContourSet(toy_space)
        for i in range(len(contours)):
            cc = contours.cost(i)
            members = contours.members(i).coords
            hypograph = np.argwhere(toy_space.opt_cost <= cc)
            for q in hypograph:
                assert np.any(np.all(members >= q, axis=1)), (i, q)

    def test_simple_synthetic_frontier(self):
        cost = np.array([
            [1.0, 2.0, 9.0],
            [2.0, 4.0, 9.5],
            [9.0, 9.5, 10.0],
        ])
        mask = _frontier_mask(cost, 4.0)
        assert mask[1, 1]           # 4 <= 4, both neighbours exceed
        assert mask[0, 1]           # right neighbour exceeds
        assert not mask[0, 0]       # interior to the hypograph
        assert not mask[2, 2]       # above the budget

    def test_terminus_included_when_whole_slice_fits(self):
        cost = np.array([[1.0, 2.0], [2.0, 3.0]])
        mask = _frontier_mask(cost, 10.0)
        assert mask[1, 1]
        assert mask.sum() == 1


class TestEffectiveContours:
    def test_fixed_dimension_pins_coordinate(self, toy_space):
        contours = ContourSet(toy_space)
        mid = len(contours) // 2
        members = contours.members(mid, fixed={0: 5})
        if not members.is_empty:
            assert np.all(members.coords[:, 0] == 5)

    def test_effective_line_has_single_crossing(self, toy_space):
        contours = ContourSet(toy_space)
        for i in range(len(contours)):
            members = contours.members(i, fixed={0: 3})
            assert len(members) <= 1  # 1-D frontier: one point or none

    def test_all_fixed_point_inclusion(self, toy_space):
        contours = ContourSet(toy_space)
        index = (2, 3)
        i = contours.contour_of(index)
        members = contours.members(i, fixed={0: 2, 1: 3})
        assert len(members) == 1
        below = contours.members(0, fixed={0: 2, 1: 3})
        # Location is only on the all-fixed contour when it fits.
        if toy_space.optimal_cost(index) > contours.cost(0):
            assert below.is_empty

    def test_cache_returns_same_object(self, toy_space):
        contours = ContourSet(toy_space)
        a = contours.members(1)
        b = contours.members(1)
        assert a is b


class TestContourOf:
    def test_origin_on_first(self, toy_space):
        contours = ContourSet(toy_space)
        assert contours.contour_of(toy_space.grid.origin) == 0

    def test_terminus_on_last(self, toy_space):
        contours = ContourSet(toy_space)
        assert contours.contour_of(
            toy_space.grid.terminus) == len(contours) - 1

    def test_monotone_along_diagonal(self, toy_space):
        contours = ContourSet(toy_space)
        n = toy_space.grid.shape[0]
        levels = [contours.contour_of((i, i)) for i in range(n)]
        assert levels == sorted(levels)


class TestPlansOn:
    def test_plans_exist_on_every_contour(self, toy_space):
        contours = ContourSet(toy_space)
        for i in range(len(contours)):
            assert len(contours.plans_on(i)) >= 1

    def test_max_density_at_least_one(self, toy_space):
        assert ContourSet(toy_space).max_density() >= 1

    def test_requires_built_space(self, toy_query):
        from repro.ess.space import ExplorationSpace
        space = ExplorationSpace(toy_query, resolution=4, s_min=1e-5)
        with pytest.raises(DiscoveryError):
            ContourSet(space)
