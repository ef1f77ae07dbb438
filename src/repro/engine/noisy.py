"""Bounded cost-model error injection (paper §7, first deployment point).

The guarantees assume a perfect cost model. §7 argues that if modeling
errors are bounded within a ``delta`` factor, every MSO guarantee simply
inflates by ``(1 + delta)^2`` -- e.g. SpillBound's becomes
``(D^2 + 3D)(1 + delta)^2``. :class:`NoisyEngine` makes that claim
testable: each plan's *actual* execution cost deviates from the model's
prediction by a deterministic per-plan factor drawn from
``[1/(1+delta), 1+delta]``, while budgets are still set from the
un-perturbed model, exactly the situation a deployed system faces.

Selectivity learning stays sound: run-time monitoring counts rows, not
cost units, so completed spills still learn exactly; failed spills
invert the *perturbed* subtree profile, mirroring an engine that knows
its own meter.
"""

import numpy as np

from repro.engine.simulated import (
    BUDGET_EPS,
    RegularOutcome,
    SimulatedEngine,
    SpillOutcome,
)


def inflated_guarantee(guarantee, delta):
    """MSO guarantee under cost-model error ``delta`` (paper §7)."""
    return guarantee * (1.0 + delta) ** 2


class NoisyEngine(SimulatedEngine):
    """Simulated engine whose true costs deviate from the model.

    ``delta`` bounds the multiplicative error; ``seed`` makes the
    per-plan deviation factors reproducible.
    """

    def __init__(self, space, qa_index, delta=0.3, seed=0):
        super().__init__(space, qa_index)
        if delta < 0:
            raise ValueError("cost-model error delta must be >= 0")
        self.delta = delta
        self._seed = seed
        self._factors = {}

    def _noise(self, plan_id):
        """Deterministic per-plan deviation in [1/(1+delta), 1+delta]."""
        factor = self._factors.get(plan_id)
        if factor is None:
            rng = np.random.default_rng((self._seed, plan_id))
            exponent = rng.uniform(-1.0, 1.0)
            factor = (1.0 + self.delta) ** exponent
            self._factors[plan_id] = factor
        return factor

    def true_cost(self, plan_info):
        return super().true_cost(plan_info) * self._noise(plan_info.id)

    @property
    def optimal_cost(self):
        """Oracle cost under the perturbed model: the cheapest *actual*
        (noisy) cost any POSP plan achieves at the truth. Noise can
        reshuffle which plan that is, so the minimum is over every plan
        of the space.
        """
        return min(
            float(info.cost[self.qa_index]) * self._noise(info.id)
            for info in self.space.plans
        )

    def _allowance(self, budget):
        """Deployed budgets are inflated by ``(1 + delta)`` so that any
        execution the model predicts to fit still completes despite a
        worst-case deviation -- the §7 recipe, also used by the row
        executor environment. Together with the oracle itself deviating
        by up to ``(1 + delta)``, this yields the ``(1 + delta)^2``
        guarantee inflation."""
        return budget * (1.0 + self.delta)

    def execute(self, plan_info, budget):
        allowed = self._allowance(budget)
        cost = self.true_cost(plan_info)
        if cost <= allowed * (1 + BUDGET_EPS):
            return RegularOutcome(True, cost)
        return RegularOutcome(False, allowed)

    def execute_spill(self, plan_info, epp, node, budget):
        dim = self.space.query.epp_index(epp)
        allowed = self._allowance(budget)
        factor = self._noise(plan_info.id)
        profile = self._subtree_profile(plan_info, epp, node) * factor
        true_cost = float(profile[self.qa_index[dim]])
        if true_cost <= allowed * (1 + BUDGET_EPS):
            return SpillOutcome(True, true_cost, epp, dim,
                                self.qa_index[dim])
        fits = np.searchsorted(profile, allowed * (1 + BUDGET_EPS),
                               side="right")
        return SpillOutcome(False, allowed, epp, dim, int(fits) - 1)
