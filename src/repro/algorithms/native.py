"""The native-optimizer baseline: estimate once, execute blindly.

The optimizer believes the catalog's selectivity estimates for every epp
and runs the resulting plan to completion regardless of cost -- exactly
the behaviour whose worst case the paper measures in the millions.

Two MSO notions are provided:

* :meth:`run` / empirical sweeps use the *fixed* estimate location
  ``qe`` implied by the catalog statistics (the §6.3/§6.5 experiments);
* :meth:`worst_case_mso` maximises over all (qe, qa) pairs on the grid,
  matching Eq. (2)'s pessimistic definition used in the introduction.
"""

import numpy as np

from repro.algorithms.base import RobustAlgorithm
from repro.obs.tracer import NULL_TRACER


class NativeOptimizer(RobustAlgorithm):
    """Classical estimate-then-execute query processing."""

    name = "native"

    def __init__(self, space):
        super().__init__(space)
        self._qe_index = self._estimate_index()
        self._qe_plan = space.optimal_plan(self._qe_index)

    def _estimate_index(self):
        """Grid location closest to the catalog's selectivity estimates."""
        space = self.space
        index = []
        for d, epp in enumerate(space.query.epps):
            predicate = space.query.predicate(epp)
            estimate = space.cost_model.estimator.estimate(predicate)
            values = space.grid.values[d]
            pos = int(np.argmin(np.abs(np.log(values) - np.log(max(estimate, values[0])))))
            index.append(pos)
        return tuple(index)

    @property
    def estimate_index(self):
        """The grid location the optimizer believes in."""
        return self._qe_index

    def run(self, qa_index, engine=None, checkpoint=None,
            tracer=NULL_TRACER):
        return self._single_run(qa_index, self._qe_plan, engine, tracer)

    def worst_case_mso(self):
        """Eq. (2): max over every (qe, qa) grid pair of SubOpt(qe, qa).

        Vectorised per plan: for each plan that is optimal somewhere (a
        potential ``P_qe``), take the max ratio of its cost to the
        optimal cost over the whole grid.
        """
        space = self.space
        opt = space.opt_cost
        worst = 1.0
        for plan_id in np.unique(space.plan_at):
            ratio = space.plans[int(plan_id)].cost / opt
            worst = max(worst, float(ratio.max()))
        return worst

    def mso_guarantee(self):
        return None  # the whole point: no bound exists
