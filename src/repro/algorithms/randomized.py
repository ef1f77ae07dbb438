"""Randomized PlanBouquet (expected-case variant of the baseline).

The plan-bouquet work this paper builds on ([1], §5 there) observes that
the *order* in which a contour's plans are executed is adversarially
chosen in the worst-case analysis; randomising the order leaves the
``4(1+lam)rho`` worst-case guarantee intact (every ordering satisfies
it) while halving the expected number of failed executions on the
completing contour. This variant makes the claim measurable next to the
deterministic baseline.

The shuffle is derived deterministically from ``(seed, qa)`` so sweeps
remain reproducible. It is applied per run to the memoized id-ordered
step list, which stays shared with every other truth.
"""

import numpy as np

from repro.algorithms.planbouquet import PlanBouquet


class RandomizedPlanBouquet(PlanBouquet):
    """PlanBouquet with per-run random plan order within contours."""

    name = "planbouquet-rand"

    def __init__(self, space, contours=None, lam=0.2, reduce=True,
                 seed=0):
        super().__init__(space, contours, lam=lam, reduce=reduce)
        self.seed = seed

    def _ordered(self, steps, qa_index):
        rng = np.random.default_rng(
            (self.seed,) + tuple(int(i) for i in qa_index))
        order = list(steps)
        rng.shuffle(order)
        return order
