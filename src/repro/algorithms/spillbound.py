"""The SpillBound algorithm (paper §4).

Contour-by-contour discovery with spill-mode executions. On each contour
and for each unresolved epp ``e_j``, the plan chosen is ``P^j_max``: the
optimal plan of the contour location with the *maximum j-th coordinate*
among locations whose plan spills on ``e_j`` (§3.2). Executing it with
the contour budget either fully learns ``e_j``'s selectivity or certifies
``qa.j > q^j_max.j`` -- the half-space pruning that makes at most
``|EPP|`` executions sufficient for quantum progress (Lemma 4.3).

When a single epp remains, the discovery problem degenerates to 1-D and
the classical PlanBouquet takes over from the current contour in regular
(non-spill) execution mode, exactly as prescribed in §4.1.

:meth:`SpillBound.choose` turns each (contour, learnt dims, remaining
epps) state into these steps -- plus, past the last contour, the
terminal step -- and the shared driver of :mod:`repro.algorithms.base`
executes them, learning from each spill outcome.

MSO guarantee: ``D^2 + 3D`` (Theorem 4.5), platform-independent.
"""

import numpy as np

from repro.algorithms.base import RobustAlgorithm
from repro.common.errors import DiscoveryError
from repro.ess.contours import ContourSet


def spillbound_guarantee(dims, ratio=2.0):
    """SpillBound's MSO bound for a general contour cost ratio ``r``.

    Derivation (mirroring §4.2): at most ``D`` fresh executions per
    contour plus ``D(D-1)/2`` repeats charged at the costliest contour
    ``CC_{k+1} = r * CC_k``, with ``sum_{i<=k+1} CC_i <= CC_{k+1}
    r/(r-1)`` and the oracle lower-bounded by ``CC_k``::

        MSO <= r * (D * r / (r - 1) + D * (D - 1) / 2)

    For ``r = 2`` this is exactly ``D^2 + 3D`` (Theorem 4.5); for the 2D
    case at ``r = 1.8`` it yields the paper's 9.9 (§4.2 remark).
    """
    if ratio <= 1.0:
        raise ValueError("contour cost ratio must exceed 1")
    return ratio * (dims * ratio / (ratio - 1.0) + dims * (dims - 1) / 2.0)


def optimal_contour_ratio(dims, lo=1.05, hi=4.0):
    """The contour cost ratio minimising SpillBound's guarantee.

    §4.2's remark observes that doubling is not ideal for SpillBound
    (unlike PlanBouquet): e.g. at ``D = 2`` the minimiser is near 1.8,
    improving the bound from 10 to 9.9. Solved by golden-section search
    on :func:`spillbound_guarantee` (unimodal in the ratio).
    """
    invphi = (5 ** 0.5 - 1) / 2
    a, b = lo, hi
    c = b - (b - a) * invphi
    d = a + (b - a) * invphi
    while b - a > 1e-9:
        if spillbound_guarantee(dims, c) < spillbound_guarantee(dims, d):
            b = d
        else:
            a = c
        c = b - (b - a) * invphi
        d = a + (b - a) * invphi
    return (a + b) / 2


class SpillBound(RobustAlgorithm):
    """Half-space-pruning selectivity discovery with a structural bound."""

    name = "spillbound"

    def __init__(self, space, contours=None):
        super().__init__(space)
        self.contours = contours or ContourSet(space)
        # spill-target cache: (plan_id, remaining-frozenset) -> epp | None
        self._target_cache = {}

    def mso_guarantee(self):
        """Theorem 4.5: ``D^2 + 3D`` (generalised to the contour ratio)."""
        return spillbound_guarantee(
            self.space.query.dimensions, self.contours.ratio
        )

    # ------------------------------------------------------------------

    def choose(self, contour, resolved, remaining):
        """``P^j_max`` spill steps for the remaining epps, in epp order;
        the 1-D regular step when one epp remains; past the last
        contour, the terminal step."""
        last = len(self.contours) - 1
        if contour > last:
            return self._terminal_step(last, resolved), None
        members = self.contours.members(contour, fixed=resolved)
        if members.is_empty:
            return (), None
        budget = self.contours.cost(contour)
        if len(remaining) == 1:
            # 1-D endgame (classical PlanBouquet, regular executions):
            # the 1-D frontier is a single crossing point; pick the
            # largest remaining-dim coordinate for determinism.
            dim = self.space.query.epp_index(next(iter(remaining)))
            pick = int(np.argmax(members.coords[:, dim]))
            plan = self.space.plans[int(members.plan_ids[pick])]
            return ((plan, "regular", None, None, budget),), None
        targets = self._member_targets(members, remaining)
        steps = []
        for epp in sorted(remaining, key=self.space.query.epp_index):
            choice = self._choose_spill_plan(members, targets == epp, epp,
                                             remaining)
            if choice is not None:  # else no plan here spills on epp
                plan, node = choice
                steps.append((plan, "spill", epp, node, budget))
        return tuple(steps), None

    def _terminal_step(self, last, resolved):
        """Safety net for degenerate cases (e.g. cyclic epps that no plan
        on the final contour can spill on): the optimal plan of the
        effective terminus -- the lexicographically largest member of the
        last contour -- in regular mode; by PCM it completes within the
        maximal budget."""
        members = self.contours.members(last, fixed=resolved)
        if members.is_empty:
            raise DiscoveryError("final contour has no effective members")
        pick = np.lexsort(members.coords.T[::-1])[-1]
        plan = self.space.plans[int(members.plan_ids[pick])]
        return ((plan, "regular", None, None, self.contours.cost(last)),)

    def _member_targets(self, members, remaining_key):
        """The epp each member's plan spills on (``None`` when it spills
        on none), as an object array; each distinct plan is asked once."""
        plan_ids, inverse = np.unique(members.plan_ids, return_inverse=True)
        plans = self.space.plans
        return np.array([self._spill_target(plans[pid], remaining_key)
                         for pid in plan_ids], dtype=object)[inverse]

    def _choose_spill_plan(self, members, spilling, epp, remaining_key):
        """``P^j_max`` of §3.2: the plan at the max-coordinate location
        (along ``epp``'s dimension) among the members the mask
        ``spilling`` marks as spilling on ``epp``."""
        dim = self.space.query.epp_index(epp)
        if not spilling.any():
            return None
        coords = members.coords[spilling]
        plan_ids = members.plan_ids[spilling]
        along = coords[:, dim]
        peak = along == along.max()
        # Deterministic tie-break: lexicographically largest coordinates.
        candidates = coords[peak]
        candidate_ids = plan_ids[peak]
        order = np.lexsort(candidates.T[::-1])
        pick = order[-1]
        plan = self.space.plans[int(candidate_ids[pick])]
        target = plan.spill_target(remaining_key)
        return plan, target[1]

    def _spill_target(self, plan, remaining_key):
        key = (plan.id, remaining_key)
        if key not in self._target_cache:
            target = plan.spill_target(remaining_key)
            self._target_cache[key] = target[0] if target else None
        return self._target_cache[key]
