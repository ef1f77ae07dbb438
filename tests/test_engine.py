"""Tests for the cost-metered simulated engine."""

import numpy as np
import pytest

from repro.common.errors import DiscoveryError
from repro.engine.simulated import SimulatedEngine


@pytest.fixture()
def engine(toy_space):
    return SimulatedEngine(toy_space, (8, 8))


class TestRegularExecution:
    def test_completes_when_budget_sufficient(self, toy_space, engine):
        plan = toy_space.optimal_plan((8, 8))
        cost = toy_space.optimal_cost((8, 8))
        outcome = engine.execute(plan, cost * 1.01)
        assert outcome.completed
        assert outcome.spent == pytest.approx(cost)

    def test_fails_when_budget_insufficient(self, toy_space, engine):
        plan = toy_space.optimal_plan((8, 8))
        cost = toy_space.optimal_cost((8, 8))
        outcome = engine.execute(plan, cost * 0.5)
        assert not outcome.completed
        assert outcome.spent == pytest.approx(cost * 0.5)

    def test_exact_budget_completes(self, toy_space, engine):
        plan = toy_space.optimal_plan((8, 8))
        cost = toy_space.optimal_cost((8, 8))
        assert engine.execute(plan, cost).completed

    def test_optimal_cost_property(self, toy_space, engine):
        assert engine.optimal_cost == toy_space.optimal_cost((8, 8))

    def test_dimensionality_checked(self, toy_space):
        with pytest.raises(DiscoveryError):
            SimulatedEngine(toy_space, (1, 2, 3))


class TestSpillExecution:
    def _spill_parts(self, toy_space, index):
        plan = toy_space.optimal_plan(index)
        target = plan.spill_target(set(toy_space.query.epps))
        assert target is not None
        return plan, target

    def test_completion_learns_exactly(self, toy_space):
        qa = (5, 11)
        engine = SimulatedEngine(toy_space, qa)
        plan, (epp, node) = self._spill_parts(toy_space, qa)
        dim = toy_space.query.epp_index(epp)
        outcome = engine.execute_spill(plan, epp, node, float("inf"))
        assert outcome.completed
        assert outcome.learned_index == qa[dim]
        assert outcome.dim == dim

    def test_failure_gives_lower_bound(self, toy_space):
        qa = (14, 14)
        engine = SimulatedEngine(toy_space, qa)
        plan, (epp, node) = self._spill_parts(toy_space, qa)
        dim = toy_space.query.epp_index(epp)
        # Tiny budget: even if it fails, the bound must undercut qa.
        profile = engine._subtree_profile(plan, epp, node)
        budget = float(profile[qa[dim]]) * 0.25
        outcome = engine.execute_spill(plan, epp, node, budget)
        if not outcome.completed:
            assert outcome.learned_index < qa[dim]
            assert outcome.spent == pytest.approx(budget)

    def test_profile_monotone(self, toy_space):
        engine = SimulatedEngine(toy_space, (3, 3))
        plan, (epp, node) = self._spill_parts(toy_space, (3, 3))
        profile = engine._subtree_profile(plan, epp, node)
        assert np.all(np.diff(profile) > 0)

    def test_spill_cheaper_than_full(self, toy_space):
        """Subtree cost never exceeds the full plan cost (spilling only
        discards downstream work)."""
        qa = (10, 10)
        engine = SimulatedEngine(toy_space, qa)
        plan, (epp, node) = self._spill_parts(toy_space, qa)
        outcome = engine.execute_spill(plan, epp, node, float("inf"))
        assert outcome.spent <= engine.true_cost(plan) * (1 + 1e-9)

    def test_nothing_learned_is_minus_one(self, toy_space):
        """Regression: a failed spill whose budget undercuts even the
        smallest subtree cost reports ``learned_index == -1`` ("nothing
        learned"), never a wrapped-around last grid index."""
        qa = (12, 12)
        engine = SimulatedEngine(toy_space, qa)
        plan, (epp, node) = self._spill_parts(toy_space, qa)
        profile = engine._subtree_profile(plan, epp, node)
        outcome = engine.execute_spill(
            plan, epp, node, float(profile[0]) * 0.5)
        assert not outcome.completed
        assert outcome.learned_index == -1

    def test_learn_bound_tolerates_minus_one(self, toy_space):
        """``learn_bound(dim, -1)`` must be a no-op (lower bound stays at
        grid index 0), not an off-by-one or a negative index."""
        from repro.algorithms.base import _DiscoveryState
        state = _DiscoveryState(toy_space)
        state.learn_bound(0, -1)
        assert state.qrun == [0] * toy_space.grid.dims

    def test_lemma_3_1(self, toy_space, toy_contours):
        """Executing the contour plan with the contour budget either
        learns the selectivity exactly or certifies qa beyond the
        location (half-space pruning)."""
        for qa in [(2, 13), (9, 9), (15, 3)]:
            engine = SimulatedEngine(toy_space, qa)
            for i in range(len(toy_contours)):
                members = toy_contours.members(i)
                for pos in range(len(members)):
                    coord = tuple(int(c) for c in members.coords[pos])
                    plan = toy_space.plans[int(members.plan_ids[pos])]
                    target = plan.spill_target(set(toy_space.query.epps))
                    if target is None:
                        continue
                    epp, node = target
                    dim = toy_space.query.epp_index(epp)
                    outcome = engine.execute_spill(
                        plan, epp, node, toy_contours.cost(i))
                    if outcome.completed:
                        assert outcome.learned_index == qa[dim]
                    else:
                        # qa.j strictly beyond the learnt bound, which in
                        # turn reaches at least the member's coordinate
                        # (the subtree is pure in e_j, and its cost at
                        # the member fits under the contour budget).
                        assert qa[dim] > outcome.learned_index
                        assert outcome.learned_index >= coord[dim]
