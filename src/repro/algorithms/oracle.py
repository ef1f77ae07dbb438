"""The oracle baseline: magically knows the true selectivities.

Its sub-optimality is 1 everywhere by definition; it exists so metric
code can treat all execution strategies uniformly and so tests have an
absolute reference point.
"""

from repro.algorithms.base import RobustAlgorithm
from repro.obs.tracer import NULL_TRACER


class Oracle(RobustAlgorithm):
    """Executes ``P_qa`` directly with an exact budget."""

    name = "oracle"

    def run(self, qa_index, engine=None, checkpoint=None,
            tracer=NULL_TRACER):
        return self._single_run(qa_index,
                                self.space.optimal_plan(tuple(qa_index)),
                                engine, tracer)

    def mso_guarantee(self):
        return 1.0
