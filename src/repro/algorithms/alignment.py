"""Contour-alignment analysis (paper §3.3 and Table 2).

A contour is *aligned* along dimension ``j`` when the optimal plan at an
extreme location along ``j`` (maximal ``j``-coordinate on the contour)
spills on ``e_j``; an aligned contour needs a single spill execution for
quantum progress (Lemma 3.3). Where alignment fails natively it can be
*induced* by replacing the optimal plan at an extreme location with a
plan that spills on ``j``, at a penalty equal to the replacement's cost
ratio. Table 2 of the paper reports, per query, the fraction of contours
aligned natively and under growing penalty caps.
"""

import numpy as np

from repro.ess.contours import ContourSet


class ContourAlignmentReport:
    """Per-contour cheapest alignment penalties for one query space.

    ``penalties[i]`` is the minimum penalty (over dimensions) at which
    contour ``i`` can be made aligned; ``1.0`` means natively aligned,
    ``inf`` means no spilling plan exists for any dimension's extreme.
    """

    __slots__ = ("penalties",)

    def __init__(self, penalties):
        self.penalties = penalties

    def fraction_aligned(self, max_penalty=1.0):
        """Fraction of contours alignable within ``max_penalty``."""
        good = sum(1 for p in self.penalties if p <= max_penalty * (1 + 1e-9))
        return good / len(self.penalties) if self.penalties else 1.0

    def max_penalty(self):
        """Penalty needed to align *every* contour (paper's "Max eps")."""
        return max(self.penalties) if self.penalties else 1.0


def analyse_alignment(space, contours=None, use_constrained=True):
    """Compute the cheapest alignment penalty for every contour.

    For each contour and dimension ``j``: the extreme locations along
    ``j`` are inspected; if any hosts a plan spilling on ``e_j`` the
    contour is natively aligned along ``j`` (penalty 1). Otherwise the
    cheapest replacement is sought among the POSP plan universe plus one
    constrained-optimizer probe ("least cost plan spilling on e_j",
    §6.1), and the penalty is the replacement's cost over the optimal
    cost at its location. The contour's penalty is the minimum over
    dimensions.
    """
    contours = contours or ContourSet(space)
    epps = space.query.epps
    all_epps = frozenset(epps)
    penalties = []
    probes = {} if use_constrained else None

    def target_of(plan_id):
        choice = space.plans[plan_id].spill_target(all_epps)
        return choice[0] if choice else None

    for i in range(len(contours)):
        members = contours.members(i)
        if members.is_empty:
            penalties.append(1.0)
            continue
        targets = np.array([target_of(int(pid)) for pid in members.plan_ids],
                           dtype=object)
        best = float("inf")
        for d, epp in enumerate(epps):
            extreme = int(members.coords[:, d].max())
            at_extreme = members.coords[:, d] == extreme
            if np.any(at_extreme & (targets == epp)):
                best = 1.0
                break
            found = cheapest_spilling_plan(
                space, members.coords[at_extreme], epp, target_of, probes)
            if found is not None:
                cost, _plan, location = found
                best = min(best, cost / space.optimal_cost(location))
        penalties.append(best)
    return ContourAlignmentReport(penalties)


def cheapest_spilling_plan(space, coords, epp, target_of, probes=None):
    """Cheapest plan spilling on ``epp`` at some location of ``coords``.

    The candidates are those of paper §5.2.1: the plans the space's
    build registered (the POSP universe) plus one constrained-optimizer
    probe -- the cheapest plan spilling on ``epp`` -- at the location of
    ``coords`` with the cheapest optimal cost. A probe registers its
    plan into the shared space, but plans that other probes registered
    are never candidates, so the answer does not depend on which runs
    came before. ``target_of(plan_id)`` names the epp a plan spills on;
    ``probes`` memoizes probe plan ids per ``(location, epp)``, and
    ``None`` skips the probe. Returns ``(cost, plan, location)``, or
    ``None`` when no candidate spills on ``epp``.
    """
    best = None
    for plan in space.built_plans:
        if target_of(plan.id) != epp:
            continue
        costs = plan.cost[tuple(coords.T)]
        pick = int(np.argmin(costs))
        cost = float(costs[pick])
        if best is None or cost < best[0]:
            best = (cost, plan, tuple(int(c) for c in coords[pick]))
    if probes is None:
        return best
    opt_costs = space.opt_cost[tuple(coords.T)]
    location = tuple(int(c) for c in coords[int(np.argmin(opt_costs))])
    key = (location, epp)
    if key not in probes:
        result = space.optimize_at(location, spilling_on=epp)
        probes[key] = space.register_plan(result.plan).id if result else None
    plan_id = probes[key]
    if plan_id is not None and target_of(plan_id) == epp:
        plan = space.plans[plan_id]
        cost = float(plan.cost[location])
        if best is None or cost < best[0]:
            best = (cost, plan, location)
    return best
