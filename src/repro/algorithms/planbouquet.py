"""The PlanBouquet algorithm of Dutt & Haritsa (baseline, paper §1.1).

Contour-by-contour, every bouquet plan on the contour is executed with a
budget equal to the contour cost (inflated by ``(1 + lambda)`` when the
bouquet comes from an anorexically reduced plan diagram, which is the
paper's experimental configuration). The first completing execution
returns the query result. :meth:`PlanBouquet.choose` names a contour's
plans in id order; the shared driver of :mod:`repro.algorithms.base`
executes them.

MSO guarantee: ``4 * (1 + lambda) * rho_red`` where ``rho_red`` is the
plan cardinality of the densest contour after reduction -- the
*behavioral* bound whose platform-dependence motivates SpillBound.
"""

from repro.algorithms.base import RobustAlgorithm
from repro.common.errors import DiscoveryError
from repro.ess.anorexic import anorexic_reduction
from repro.ess.contours import ContourSet


class PlanBouquet(RobustAlgorithm):
    """Budget-limited sequential execution of contour plan sets."""

    name = "planbouquet"

    def __init__(self, space, contours=None, lam=0.2, reduce=True):
        super().__init__(space)
        self.contours = contours or ContourSet(space)
        if reduce:
            self.reduced = anorexic_reduction(space, lam)
            self.lam = lam
            plan_at = self.reduced.plan_at
        else:
            self.reduced = None
            self.lam = 0.0
            plan_at = None
        #: Per contour: ordered plan-id list (deterministic: ascending id).
        self.contour_plans = [
            self.contours.plans_on(i, plan_at)
            for i in range(len(self.contours))
        ]

    # ------------------------------------------------------------------

    @property
    def rho(self):
        """Plan cardinality of the densest contour (after reduction)."""
        return max(len(plans) for plans in self.contour_plans)

    def mso_guarantee(self):
        """``4 (1 + lambda) rho`` (Section 1.1.2 with reduction factored in)."""
        return 4.0 * (1.0 + self.lam) * self.rho

    def budget_factor(self):
        """Budgets are inflated by ``1 + lambda`` under reduction."""
        return 1.0 + self.lam

    # ------------------------------------------------------------------

    def choose(self, contour, resolved, remaining):
        """The contour's plans in id order at ``(1 + lambda) CC_i``, in
        regular mode; none past the last contour."""
        if contour == len(self.contours):
            raise DiscoveryError(
                "%s exhausted all contours without completing; "
                "the contour frontier does not dominate the hypograph"
                % type(self).__name__
            )
        budget = self.contours.cost(contour) * self.budget_factor()
        return tuple((self.space.plans[plan_id], "regular", None, None,
                      budget)
                     for plan_id in self.contour_plans[contour]), None

    def _advance_fields(self, contour, state):
        return {"plans": len(self.contour_plans[contour])}
