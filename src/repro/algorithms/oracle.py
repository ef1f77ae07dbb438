"""The oracle baseline: magically knows the true selectivities.

Its sub-optimality is 1 everywhere by definition; it exists so metric
code can treat all execution strategies uniformly and so tests have an
absolute reference point.
"""

from repro.algorithms.base import ExecutionRecord, RobustAlgorithm, RunResult, \
    begin_traced_run
from repro.obs.tracer import NULL_TRACER


class Oracle(RobustAlgorithm):
    """Executes ``P_qa`` directly with an exact budget."""

    name = "oracle"

    def run(self, qa_index, engine=None, checkpoint=None,
            tracer=NULL_TRACER):
        qa_index = tuple(qa_index)
        plan = self.space.optimal_plan(qa_index)
        if tracer.enabled:
            begin_traced_run(tracer, self.name, qa_index, engine)
        if engine is not None:
            outcome = engine.execute(plan, float("inf"))
            cost = outcome.spent
        else:
            cost = self.space.optimal_cost(qa_index)
        record = ExecutionRecord(
            contour=-1,
            plan_id=plan.id,
            mode="regular",
            epp=None,
            budget=cost,
            spent=cost,
            completed=True,
        )
        optimal = cost if engine is None else engine.optimal_cost
        return self._trace_run_end(
            RunResult(self.name, qa_index, cost, optimal, [record]), tracer)

    def mso_guarantee(self):
        return 1.0
