"""The PlanBouquet algorithm of Dutt & Haritsa (baseline, paper §1.1).

Contour-by-contour, every bouquet plan on the contour is executed with a
budget equal to the contour cost (inflated by ``(1 + lambda)`` when the
bouquet comes from an anorexically reduced plan diagram, which is the
paper's experimental configuration). The first completing execution
returns the query result.

MSO guarantee: ``4 * (1 + lambda) * rho_red`` where ``rho_red`` is the
plan cardinality of the densest contour after reduction -- the
*behavioral* bound whose platform-dependence motivates SpillBound.
"""

import math

from repro.algorithms.base import ExecutionRecord, RobustAlgorithm, RunResult, \
    begin_traced_run, end_traced_run
from repro.common.errors import DiscoveryError
from repro.ess.anorexic import anorexic_reduction
from repro.ess.contours import ContourSet
from repro.obs.tracer import NULL_TRACER


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

    def _contour_order(self, i, qa_index):
        """Plan execution order on contour ``i`` (deterministic here;
        the randomized variant overrides this)."""
        return self.contour_plans[i]

    def run(self, qa_index, engine=None, checkpoint=None,
            tracer=NULL_TRACER):
        qa_index = tuple(qa_index)
        engine = engine or self.engine_for(qa_index)
        if tracer.enabled:
            begin_traced_run(tracer, self.name, qa_index, engine)
        factor = self.budget_factor()
        records = []
        start = 0
        if checkpoint is not None and checkpoint.active:
            start = min(checkpoint.contour, len(self.contours) - 1)
        for i in range(start, len(self.contours)):
            if checkpoint is not None:
                checkpoint.capture(i)
            if tracer.enabled and i > start:
                tracer.event("contour-advance", contour=i,
                             plans=len(self.contour_plans[i]))
            budget = self.contours.cost(i) * factor
            for plan_id in self._contour_order(i, qa_index):
                outcome = engine.execute(self.space.plans[plan_id], budget)
                record = ExecutionRecord(
                    contour=i,
                    plan_id=plan_id,
                    mode="regular",
                    epp=None,
                    budget=budget,
                    spent=outcome.spent,
                    completed=outcome.completed,
                )
                records.append(record)
                if tracer.enabled:
                    tracer.event("execution", **record.as_event())
                if outcome.completed:
                    result = RunResult(
                        self.name, qa_index,
                        math.fsum(r.spent for r in records),
                        engine.optimal_cost, records)
                    if tracer.enabled:
                        end_traced_run(tracer, result)
                    return result
        raise DiscoveryError(
            "%s exhausted all contours without completing; "
            "the contour frontier does not dominate the hypograph"
            % type(self).__name__
        )
