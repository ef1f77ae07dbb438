"""Anorexic reduction of plan diagrams (Harish, Darera & Haritsa, VLDB'07).

PlanBouquet's MSO guarantee scales with the plan cardinality of the
densest contour, so the paper (following [1]) first *reduces* the plan
diagram: a plan's optimality region may be handed to another plan that is
at most ``(1 + lambda)`` more expensive everywhere on that region. The
default replacement threshold is the paper's ``lambda = 0.2``.

The reduction below is the greedy CostGreedy heuristic: repeatedly retain
the plan that can swallow the most surviving regions until every region
is owned by a retained plan.
"""

import numpy as np

from repro.common.errors import DiscoveryError


class ReducedDiagram:
    """Result of an anorexic reduction.

    Attributes
    ----------
    plan_at:
        Grid-shaped int array of plan ids after reduction.
    retained:
        Sorted list of surviving plan ids.
    lam:
        Replacement threshold used.
    """

    __slots__ = ("plan_at", "retained", "lam")

    def __init__(self, plan_at, retained, lam):
        self.plan_at = plan_at
        self.retained = retained
        self.lam = lam

    @property
    def cardinality(self):
        return len(self.retained)


def anorexic_reduction(space, lam=0.2):
    """Reduce ``space``'s plan diagram with threshold ``lam``.

    Every grid location ends up assigned a plan whose cost there is at
    most ``(1 + lam)`` times optimal; the number of distinct plans is
    greedily minimised.
    """
    if not space.built:
        raise DiscoveryError("space must be built before reduction")
    if lam < 0:
        raise DiscoveryError("replacement threshold must be non-negative")

    plan_flat = space.plan_at.ravel()
    present, labels = np.unique(plan_flat, return_inverse=True)
    present = [int(p) for p in present]
    limit = (1.0 + lam) * space.opt_cost.ravel() * (1 + 1e-12)

    # swallowable[i] = set of regions plan i may take over (including its
    # own, where its cost is exactly optimal): the regions holding no
    # cell where plan i costs more than the limit.
    swallowable = {}
    for i in present:
        fails = np.bincount(labels[~(space.plans[i].cost.ravel() <= limit)],
                            minlength=len(present))
        swallowable[i] = {present[j] for j in np.flatnonzero(fails == 0)}

    remaining = set(present)
    owner = {}
    retained = []
    while remaining:
        # Deterministic greedy choice: most swallowed regions, lowest id
        # on ties.
        best = min(
            remaining,
            key=lambda i: (-len(swallowable[i] & remaining), i),
        )
        retained.append(best)
        for j in swallowable[best] & remaining:
            owner[j] = best
        remaining -= swallowable[best]
        remaining.discard(best)

    reduced_flat = np.empty_like(plan_flat)
    for j, i in owner.items():
        reduced_flat[plan_flat == j] = i
    return ReducedDiagram(
        reduced_flat.reshape(space.plan_at.shape), sorted(retained), lam
    )
