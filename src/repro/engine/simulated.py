"""Cost-metered simulated execution (the paper's modified PostgreSQL).

The paper adds four capabilities to the engine: selectivity injection,
abstract-plan execution, time-limited execution, and spill-mode execution
with run-time selectivity monitoring. :class:`SimulatedEngine` provides
the same contract on top of the cost model:

* a *regular* budgeted execution of plan ``P`` at (hidden) truth ``qa``
  completes iff ``Cost(P, qa) <= budget`` and spends
  ``min(Cost(P, qa), budget)``;
* a *spill-mode* execution truncated at epp node ``N_j`` completes iff
  the subtree cost at the truth fits the budget, in which case the exact
  selectivity ``qa.j`` is learnt; otherwise the budget is spent and the
  run-time monitor reveals the largest grid selectivity along dimension
  ``j`` whose subtree cost fits the budget -- a lower bound on ``qa.j``
  at least as strong as Lemma 3.1's ``qa.j > q.j`` guarantee.

The engine knows the true location; algorithms must only consume the
returned outcomes (they receive learnt values, never ``qa`` itself).
"""

import numpy as np

from repro.common.errors import DiscoveryError
from repro.obs.tracer import NULL_TRACER

#: Relative slack when comparing costs against budgets, absorbing float
#: round-off from vectorised evaluation.
BUDGET_EPS = 1e-9


class RegularOutcome:
    """Result of a regular (non-spill) budgeted execution."""

    __slots__ = ("completed", "spent")

    def __init__(self, completed, spent):
        self.completed = completed
        self.spent = spent


class SpillOutcome:
    """Result of a spill-mode budgeted execution.

    ``learned_index`` is the grid index along the spilled dimension that
    the execution certifies: on completion it equals the truth's index
    (exact learning); on failure it is the largest index whose subtree
    cost fits the budget (``qa`` is strictly beyond it).
    """

    __slots__ = ("completed", "spent", "epp", "dim", "learned_index")

    def __init__(self, completed, spent, epp, dim, learned_index):
        self.completed = completed
        self.spent = spent
        self.epp = epp
        self.dim = dim
        self.learned_index = learned_index


class SimulatedEngine:
    """Budgeted/spilled plan execution against a hidden true location."""

    #: Execution substrate name, mirrored from the IR backend contract
    #: so obs traces can tag every run with where it actually ran.
    backend_name = "simulated"

    #: Trace sink; a traced run hands its tracer down the engine stack
    #: (:func:`~repro.algorithms.base.begin_traced_run`) so engine
    #: layers (fault injection, deadlines) emit into the same stream.
    tracer = NULL_TRACER

    def __init__(self, space, qa_index):
        self.space = space
        self.qa_index = tuple(int(i) for i in qa_index)
        if len(self.qa_index) != space.grid.dims:
            raise DiscoveryError("qa index dimensionality mismatch")
        self._truth = space.assignment_at(self.qa_index)

    # ------------------------------------------------------------------

    @property
    def optimal_cost(self):
        """Oracle cost at the hidden truth (for metric computation only)."""
        return self.space.optimal_cost(self.qa_index)

    def true_cost(self, plan_info):
        """True execution cost of a plan at the hidden location."""
        return float(plan_info.cost[self.qa_index])

    # ------------------------------------------------------------------

    def execute(self, plan_info, budget):
        """Regular budgeted execution (used by PlanBouquet / 1D phases)."""
        cost = self.true_cost(plan_info)
        if cost <= budget * (1 + BUDGET_EPS):
            return RegularOutcome(True, cost)
        return RegularOutcome(False, budget)

    def execute_spill(self, plan_info, epp, node, budget):
        """Spill-mode execution of ``plan_info`` truncated at ``node``.

        ``epp`` must be the spill target chosen by the spill-node
        identification procedure, so that every selectivity inside the
        subtree other than ``epp``'s is exactly known.
        """
        dim = self.space.query.epp_index(epp)
        profile = self._subtree_profile(plan_info, epp, node)
        true_cost = float(profile[self.qa_index[dim]])
        if true_cost <= budget * (1 + BUDGET_EPS):
            return SpillOutcome(True, true_cost, epp, dim, self.qa_index[dim])
        # Monitoring: the largest grid selectivity along `dim` whose
        # subtree cost fits the budget. The profile is non-decreasing
        # (PCM), so searchsorted applies.
        fits = np.searchsorted(
            profile, budget * (1 + BUDGET_EPS), side="right"
        )
        learned = int(fits) - 1  # -1 means even the smallest overshoots
        return SpillOutcome(False, budget, epp, dim, learned)

    # ------------------------------------------------------------------

    def _subtree_profile(self, plan_info, epp, node):
        """Subtree cost as a vector over the spilled dimension's grid.

        All other epps take their *true* values; by the spill-node purity
        guarantee the only epps appearing in the subtree are resolved
        ones plus ``epp`` itself, so unresolved values never leak into
        quantities the algorithm consumes.
        """
        # Kernel-backed spaces serve profiles as views of a subtree
        # surface computed once per (plan, node) and shared by every
        # engine over the space; the view is bitwise what the per-truth
        # evaluation below produces.
        spill = getattr(self.space, "spill_profile", None)
        if spill is not None:
            profile = spill(plan_info, epp, node, self.qa_index)
            if profile is not None:
                return profile
        dim = self.space.query.epp_index(epp)
        assignment = dict(self._truth)
        assignment[epp] = self.space.grid.values[dim]
        return np.asarray(
            self.space.cost_model.subtree_cost(node, assignment),
            dtype=float,
        )
