"""Golden-grid equivalence: the vectorized kernel vs the scalar path.

The batch kernel's whole contract is **bit-identity** (DESIGN.md §13):
with the kernel on, every artifact -- plan diagram, optimal cost
surface, contour ladder, sweep grid, spill profiles -- must be
``==``-identical to what the legacy one-location-at-a-time path
produces. These tests pin that contract across dimensionalities, build
modes and seeds, plus the hot-path bugfixes that ride along (the
corner-seed cap and the incremental surface refresh).
"""

import numpy as np
import pytest

from repro.common.rng import make_rng
from repro.cost.model import CostModel
from repro.engine.simulated import SimulatedEngine
from repro.ess.contours import ContourSet
from repro.ess.grid import SelectivityGrid
from repro.ess.space import (
    MAX_CORNER_SEEDS,
    ExplorationSpace,
    seed_indices,
)
from repro.ess.synthetic import textbook_space
from repro.harness.workloads import q15, workload
from repro.optimizer.dp import Optimizer
from repro.session.session import RobustSession
from repro.session.sweep import SweepDriver

# One query family across dims in {1, 2, 3}: TPC-DS Q15's chain with a
# growing epp subset. Resolutions keep exact builds test-sized.
DIMS_CASES = [
    (("cs_c",), 24),
    (("cs_c", "c_ca"), 6),
    (("cs_c", "c_ca", "cs_d"), 4),
]


def _build_pair(epps, resolution, mode, rng=0):
    query = q15(epps=epps)
    scalar = ExplorationSpace(query, resolution=resolution,
                              kernel=False).build(mode=mode, rng=rng)
    batched = ExplorationSpace(query, resolution=resolution,
                               kernel=True).build(mode=mode, rng=rng)
    return scalar, batched


def _assert_spaces_identical(scalar, batched):
    assert np.array_equal(scalar.plan_at, batched.plan_at)
    assert np.array_equal(scalar.opt_cost, batched.opt_cost)
    assert len(scalar.plans) == len(batched.plans)
    for a, b in zip(scalar.plans, batched.plans):
        assert a.tree.signature() == b.tree.signature()
        assert np.array_equal(a.cost, b.cost)
    assert ContourSet(scalar).costs == ContourSet(batched).costs


# ----------------------------------------------------------------------
# golden-grid equivalence suite


@pytest.mark.parametrize("epps,resolution", DIMS_CASES,
                         ids=["1D", "2D", "3D"])
@pytest.mark.parametrize("mode", ["fast", "exact"])
def test_kernel_matches_scalar_path(epps, resolution, mode):
    scalar, batched = _build_pair(epps, resolution, mode)
    _assert_spaces_identical(scalar, batched)


@pytest.mark.parametrize("seed", range(10))
def test_kernel_matches_scalar_across_seeds(seed):
    scalar, batched = _build_pair(("cs_c", "c_ca"), 5, "fast", rng=seed)
    _assert_spaces_identical(scalar, batched)


@pytest.mark.parametrize("algorithm", ["planbouquet", "spillbound",
                                       "alignedbound"])
def test_sweep_grids_identical(algorithm):
    grids = {}
    for kernel in (False, True):
        session = RobustSession(resolution=5, kernel=kernel)
        sweep = session.sweep(q15(epps=("cs_c", "c_ca")),
                              algorithm=algorithm)
        grids[kernel] = sweep.sub_optimalities
    assert np.array_equal(grids[False], grids[True])


def test_spill_profiles_identical():
    scalar, batched = _build_pair(("cs_c", "c_ca", "cs_d"), 4, "exact")
    qa = (2, 1, 3)
    checked = 0
    for info_s, info_b in zip(scalar.plans, batched.plans):
        engine_s = SimulatedEngine(scalar, qa)
        engine_b = SimulatedEngine(batched, qa)
        for epp, node_s, _sub in info_s.spill_order:
            node_b = next(n for e, n, _ in info_b.spill_order if e == epp)
            prof_s = engine_s._subtree_profile(info_s, epp, node_s)
            prof_b = engine_b._subtree_profile(info_b, epp, node_b)
            assert np.array_equal(prof_s, prof_b)
            checked += 1
    assert checked > 0


def test_synthetic_spill_profile_matches_cost_model():
    space = textbook_space(resolution=12)
    qa = (7, 3)
    info = space.plans[1]
    epp, node, _sub = info.spill_order[0]
    dim = space.query.epp_index(epp)
    truth = space.assignment_at(qa)
    truth[epp] = space.grid.values[dim]
    legacy = np.asarray(space.cost_model.subtree_cost(node, truth),
                        dtype=float)
    fast = space.spill_profile(info, epp, node, qa)
    assert np.array_equal(legacy, fast)


# ----------------------------------------------------------------------
# batch DP equivalence


def _random_assignments(query, size, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: 10.0 ** rng.uniform(-6, 0, size=size)
        for name in query.epps
    }


def test_batch_dp_matches_scalar_unconstrained():
    query = q15(epps=("cs_c", "c_ca", "cs_d"))
    optimizer = Optimizer(query, CostModel(query))
    assignments = _random_assignments(query, 16)
    batch = optimizer.optimize_batch(assignments)
    for pos in range(16):
        point = {name: float(values[pos])
                 for name, values in assignments.items()}
        scalar = optimizer.optimize(point)
        assert batch.cost_at(pos) == scalar.cost
        assert batch.signature_at(pos) == scalar.plan.signature()


def test_batch_dp_matches_scalar_constrained():
    query = q15(epps=("cs_c", "c_ca", "cs_d"))
    optimizer = Optimizer(query, CostModel(query))
    assignments = _random_assignments(query, 8, seed=3)
    for epp in query.epps:
        batch = optimizer.optimize_batch(assignments, spilling_on=epp)
        for pos in range(8):
            point = {name: float(values[pos])
                     for name, values in assignments.items()}
            scalar = optimizer.optimize_spilling_on(epp, point)
            if batch is None:
                assert scalar is None
                continue
            assert batch.cost_at(pos) == scalar.cost
            assert batch.signature_at(pos) == scalar.plan.signature()


# ----------------------------------------------------------------------
# satellite: corner-seed cap (was: 2**D corners for any D)


def test_seed_indices_caps_corner_enumeration():
    grid = SelectivityGrid(12, 2)
    seeds = seed_indices(grid, 5, make_rng(0))
    # 64 capped corners + centre + 5 random picks, not 2**12 corners.
    assert len(seeds) == MAX_CORNER_SEEDS + 1 + 5
    corners = seeds[:MAX_CORNER_SEEDS]
    assert len(set(corners)) == MAX_CORNER_SEEDS
    for corner in corners:
        assert all(i in (0, grid.shape[d] - 1)
                   for d, i in enumerate(corner))


def test_seed_indices_unchanged_at_low_dims():
    grid = SelectivityGrid(3, 4)
    seeds = seed_indices(grid, 7, make_rng(1))
    assert len(seeds) == 2 ** 3 + 1 + 7
    # The rng draw sequence is independent of the cap.
    replay = seed_indices(grid, 7, make_rng(1), corners=False)
    assert seeds[-7:] == replay


def test_high_dimension_seeding_regression():
    # The uncapped enumeration at D=16 would walk 65536 corners before
    # drawing a single random pick; the cap keeps seeding linear.
    seeds = seed_indices(SelectivityGrid(16, 2), 10, make_rng(0))
    assert len(seeds) == MAX_CORNER_SEEDS + 1 + 10


# ----------------------------------------------------------------------
# satellite: incremental surface refresh


def test_incremental_refresh_matches_full_stack():
    query = q15(epps=("cs_c", "c_ca"))
    space = ExplorationSpace(query, resolution=6).build(mode="fast")
    stack = np.stack([info.cost for info in space.plans])
    assert np.array_equal(space.plan_at,
                          np.argmin(stack, axis=0).astype(np.int32))
    assert np.array_equal(space.opt_cost, np.min(stack, axis=0))


def test_incremental_refresh_one_plan_at_a_time():
    query = q15(epps=("cs_c", "c_ca"))
    donor = ExplorationSpace(query, resolution=5).build(mode="exact")
    space = ExplorationSpace(query, resolution=5)
    for info in donor.plans:
        space.register_plan(info.tree)
        space._refresh_surface()
        count = len(space.plans)
        stack = np.stack([p.cost for p in space.plans])
        assert np.array_equal(
            space.plan_at, np.argmin(stack, axis=0).astype(np.int32))
        assert np.array_equal(space.opt_cost, np.min(stack, axis=0))
        assert space._surface_count == count


# ----------------------------------------------------------------------
# contour members over batched spaces


def test_contour_members_unchanged_by_sharing():
    scalar, batched = _build_pair(("cs_c", "c_ca"), 6, "fast")
    cs_s = ContourSet(scalar)
    cs_b = ContourSet(batched)
    assert cs_s.costs == cs_b.costs
    for i in range(len(cs_s)):
        a, b = cs_s.members(i), cs_b.members(i)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.plan_ids, b.plan_ids)


# ----------------------------------------------------------------------
# reuse within a space and a sweep (probe table, driver artifact memo)


def test_dp_memo_shared_across_algorithm_instances(monkeypatch):
    """A second AlignedBound instance over a space reuses the space's
    probe plans: no constrained DP call reruns."""
    from repro.algorithms.alignedbound import AlignedBound

    space = ExplorationSpace(workload("2D_Q91"), resolution=6)
    space.build(mode="fast")
    contours = ContourSet(space)
    first = [AlignedBound(space, contours).run(qa).total_cost
             for qa in space.grid.indices()]
    assert space._probe_plans
    calls = []
    optimize_at = ExplorationSpace.optimize_at

    def counted(self, *args, **kwargs):
        calls.append(args)
        return optimize_at(self, *args, **kwargs)

    monkeypatch.setattr(ExplorationSpace, "optimize_at", counted)
    again = [AlignedBound(space, contours).run(qa).total_cost
             for qa in space.grid.indices()]
    assert again == first
    assert calls == []


def test_sweep_driver_memoizes_artifacts_and_reports_reuse():
    session = RobustSession(resolution=5)
    driver = SweepDriver(session, sample=4)
    query = q15(epps=("cs_c", "c_ca"))
    space_a, contours_a = driver.artifacts(query)
    space_b, contours_b = driver.artifacts(query)
    assert space_a is space_b and contours_a is contours_b
    list(driver.run([query], algorithms=("spillbound",)))
    summary = driver.reuse_summary()
    assert summary["space_builds"] == 1
