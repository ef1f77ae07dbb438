"""Tests for iso-cost contours: the geometric heart of all guarantees."""

import itertools

import numpy as np
import pytest

from repro.common.errors import DiscoveryError
from repro.ess.contours import ContourSet, _contour_costs, _contour_levels
from repro.harness.workloads import JOB_SUITE, PAPER_SUITE
from repro.session import RobustSession


def _frontier_mask(cost_array, cc):
    """Reference: boolean staircase-frontier mask of ``{q : cost(q) <=
    cc}``, one contour cost at a time."""
    below = cost_array <= cc
    exceed = np.zeros_like(below)
    ndim = cost_array.ndim
    for axis in range(ndim):
        current = [slice(None)] * ndim
        nxt = [slice(None)] * ndim
        current[axis] = slice(0, -1)
        nxt[axis] = slice(1, None)
        shifted = np.zeros_like(below)
        shifted[tuple(current)] = cost_array[tuple(nxt)] > cc
        exceed |= shifted
    mask = below & exceed
    # The reduced-space terminus has no dominating neighbour; by PCM it
    # fits under cc only when the whole slice does, in which case it *is*
    # the frontier.
    terminus = tuple(s - 1 for s in cost_array.shape)
    if below[terminus]:
        mask[terminus] = True
    return mask


def _reference_members(contours, i, fixed):
    """Reference: contour ``i`` of the slice pinned at ``fixed`` as
    ``(coords, plan_ids)``, from :func:`_frontier_mask`."""
    space = contours.space
    dims = space.grid.dims
    slicer = tuple(fixed.get(d, slice(None)) for d in range(dims))
    reduced = space.opt_cost[slicer]
    if reduced.ndim == 0:
        # Every dimension pinned: the point is the frontier iff it fits.
        fits = float(reduced) <= contours.cost(i)
        coords = np.array([[fixed[d] for d in range(dims)]] if fits else
                          np.empty((0, dims)), dtype=np.int64)
    else:
        reduced_coords = np.argwhere(_frontier_mask(reduced,
                                                    contours.cost(i)))
        coords = np.empty((reduced_coords.shape[0], dims), dtype=np.int64)
        free_dims = [d for d in range(dims) if d not in fixed]
        coords[:, free_dims] = reduced_coords
        for d, index in fixed.items():
            coords[:, d] = index
    return coords, space.plan_at[tuple(coords.T)].astype(np.int64)


def _mask(cost, cc):
    """The contour-``0`` mask of a one-rung ladder ``[cc]``."""
    lower, upper = _contour_levels(cost, [cc])
    return (lower <= 0) & (upper > 0)


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
        mask = _mask(cost, 4.0)
        assert mask[1, 1]           # 4 <= 4, both neighbours exceed
        assert mask[0, 1]           # right neighbour exceeds
        assert not mask[0, 0]       # interior to the hypograph
        assert not mask[2, 2]       # above the budget

    def test_terminus_included_when_whole_slice_fits(self):
        cost = np.array([[1.0, 2.0], [2.0, 3.0]])
        mask = _mask(cost, 10.0)
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


def _pins(shape, rng):
    """The unpinned space, every one-dim pin, one random pin per pair of
    dims and one all-dims pin."""
    dims = len(shape)
    yield {}
    for d in range(dims):
        for index in range(shape[d]):
            yield {d: index}
    for a, b in itertools.combinations(range(dims), 2):
        yield {a: int(rng.integers(shape[a])), b: int(rng.integers(shape[b]))}
    yield {d: int(rng.integers(shape[d])) for d in range(dims)}


class TestBandsMatchFrontierMask:
    """Each pin's band gives, on every contour, the coords and plan ids
    the per-contour frontier mask gives, in the same order."""

    @pytest.mark.parametrize("name", PAPER_SUITE + JOB_SUITE)
    def test_every_contour_of_every_pin(self, name):
        session = RobustSession(resolution=4)
        space, contours = session.space_and_contours(name)
        rng = np.random.default_rng(0)
        checked = 0
        for fixed in _pins(space.grid.shape, rng):
            for i in range(len(contours)):
                members = contours.members(i, fixed=fixed)
                coords, plan_ids = _reference_members(contours, i, fixed)
                assert members.coords.dtype == np.int64
                assert members.plan_ids.dtype == np.int64
                assert np.array_equal(members.coords, coords), (fixed, i)
                assert np.array_equal(members.plan_ids, plan_ids), (fixed, i)
                checked += 1
        dims = space.grid.dims
        assert checked == len(contours) * (
            2 + sum(space.grid.shape) + dims * (dims - 1) // 2)


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
