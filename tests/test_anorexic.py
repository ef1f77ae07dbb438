"""Tests for anorexic plan-diagram reduction."""

import hashlib
import json

import numpy as np
import pytest

from repro.common.errors import DiscoveryError
from repro.ess.anorexic import anorexic_reduction
from repro.harness.workloads import PAPER_SUITE
from repro.session import RobustSession

#: Per paper-suite query at resolution 5 (default fast build), lambda
#: 0.2: POSP size, retained plans, and the sha256 of the reduced
#: ``plan_at`` (int64 bytes) followed by ``retained`` as JSON.
PAPER_SUITE_REDUCTIONS = {
    "3D_Q15": (5, 2, "d83c3f01f11d1cabbc7b899e813ec877"
                     "e702f7c846369a67c1e77d1bb63be128"),
    "3D_Q96": (9, 6, "5c84ca740fc88803562aa5dbe41681ba"
                     "afc8b7127352186391e71dddfb718395"),
    "4D_Q7": (36, 9, "6341ef619eb511a47cfe5e962eb2a1d4"
                     "44bc6a8bd145e8c868279ce52159b4d2"),
    "4D_Q26": (37, 8, "007d4f1790e7c4a8046f31c701e7e264"
                      "dc22f3d4aad6c84720e6e7b3433b2e13"),
    "4D_Q27": (46, 7, "6c8d18b2e4d0f636a90849a11322e238"
                      "e6ea0d4becbfcb161ebfc81dd5cd643a"),
    "4D_Q91": (31, 7, "73043744d06b899760125e1a780ca5b6"
                      "5ddfbe6360cc248fc089129f98230565"),
    "5D_Q19": (95, 9, "79ef3df3a1730ff3b6e199a668cf6020"
                      "c339d35dce0e9bbce5231521cfc5b7c1"),
    "5D_Q29": (36, 2, "4239e1fd197c22f870826a89ded6eeb9"
                      "ce723efe5529de3871e06c9f175dbf30"),
    "5D_Q84": (38, 5, "c0167a31ec3c7ee661b772b1390b3b44"
                      "90f7ee22304ec9741352f5d91a945f1b"),
    "6D_Q18": (251, 19, "3f79371040be24a216e19e6455fa5b2f"
                        "cfc3cb9a1f47831828678509e8462b35"),
    "6D_Q91": (235, 23, "8985222fb8046e69a7986ecce191d3c0"
                        "b56a483bee68259c762f852fc95ad54d"),
}


def pairwise_reduction(space, lam):
    """The reduction with the swallow test as the original pairwise
    loop over (plan, region): the reference the bincount form must
    equal."""
    plan_flat = space.plan_at.ravel()
    present = [int(p) for p in np.unique(plan_flat)]
    threshold = (1.0 + lam) * space.opt_cost.ravel()
    regions = {p: np.nonzero(plan_flat == p)[0] for p in present}
    swallowable = {
        i: {j for j in present
            if np.all(space.plans[i].cost.ravel()[regions[j]]
                      <= threshold[regions[j]] * (1 + 1e-12))}
        for i in present}
    remaining = set(present)
    owner = {}
    retained = []
    while remaining:
        best = min(remaining,
                   key=lambda i: (-len(swallowable[i] & remaining), i))
        retained.append(best)
        for j in swallowable[best] & remaining:
            owner[j] = best
        remaining -= swallowable[best]
        remaining.discard(best)
    reduced = np.empty_like(plan_flat)
    for j, i in owner.items():
        reduced[regions[j]] = i
    return reduced.reshape(space.plan_at.shape), sorted(retained)


@pytest.fixture(scope="module")
def suite_session():
    return RobustSession()


class TestReduction:
    def test_cost_within_threshold(self, toy_space):
        lam = 0.2
        reduced = anorexic_reduction(toy_space, lam)
        for index in toy_space.grid.indices():
            plan_id = int(reduced.plan_at[index])
            cost = toy_space.plans[plan_id].cost[index]
            assert cost <= (1 + lam) * toy_space.optimal_cost(index) \
                * (1 + 1e-9)

    def test_never_grows_cardinality(self, toy_space):
        reduced = anorexic_reduction(toy_space, 0.2)
        assert reduced.cardinality <= toy_space.posp_size()

    def test_monotone_in_lambda(self, toy_space):
        sizes = [
            anorexic_reduction(toy_space, lam).cardinality
            for lam in (0.0, 0.1, 0.2, 0.5, 1.0, 10.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_huge_lambda_collapses_to_one(self, toy_space):
        reduced = anorexic_reduction(toy_space, 1e9)
        assert reduced.cardinality == 1

    def test_zero_lambda_optimal_everywhere(self, toy_space):
        reduced = anorexic_reduction(toy_space, 0.0)
        for index in toy_space.grid.indices():
            plan_id = int(reduced.plan_at[index])
            cost = toy_space.plans[plan_id].cost[index]
            assert cost == pytest.approx(
                toy_space.optimal_cost(index), rel=1e-9)

    def test_retained_ids_cover_assignment(self, toy_space):
        reduced = anorexic_reduction(toy_space, 0.2)
        present = set(int(p) for p in np.unique(reduced.plan_at))
        assert present <= set(reduced.retained)

    def test_rejects_negative_lambda(self, toy_space):
        with pytest.raises(DiscoveryError):
            anorexic_reduction(toy_space, -0.1)

    def test_requires_built_space(self, toy_query):
        from repro.ess.space import ExplorationSpace
        space = ExplorationSpace(toy_query, resolution=4, s_min=1e-5)
        with pytest.raises(DiscoveryError):
            anorexic_reduction(space)

    def test_deterministic(self, toy_space):
        a = anorexic_reduction(toy_space, 0.2)
        b = anorexic_reduction(toy_space, 0.2)
        assert np.array_equal(a.plan_at, b.plan_at)
        assert a.retained == b.retained


class TestPaperSuite:
    @pytest.mark.parametrize("name", PAPER_SUITE)
    def test_reduction_pinned(self, suite_session, name):
        space = suite_session.space(name, resolution=5)
        reduced = anorexic_reduction(space, 0.2)
        digest = hashlib.sha256(
            np.ascontiguousarray(reduced.plan_at, dtype=np.int64).tobytes()
            + json.dumps(reduced.retained).encode()).hexdigest()
        assert (len(space.plans), len(reduced.retained), digest) \
            == PAPER_SUITE_REDUCTIONS[name]

    @pytest.mark.parametrize("name", PAPER_SUITE)
    def test_equals_pairwise_reference(self, suite_session, name):
        space = suite_session.space(name, resolution=5)
        for lam in (0.0, 0.2):
            reduced = anorexic_reduction(space, lam)
            plan_at, retained = pairwise_reduction(space, lam)
            assert reduced.plan_at.dtype == plan_at.dtype
            assert np.array_equal(reduced.plan_at, plan_at)
            assert reduced.retained == retained
