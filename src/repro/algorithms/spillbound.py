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

MSO guarantee: ``D^2 + 3D`` (Theorem 4.5), platform-independent.
"""

import math

import numpy as np

from repro.algorithms.base import ExecutionRecord, RobustAlgorithm, RunResult, \
    begin_traced_run, end_traced_run
from repro.common.errors import DiscoveryError
from repro.ess.contours import ContourSet
from repro.obs.tracer import NULL_TRACER


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

    def run(self, qa_index, engine=None, checkpoint=None,
            tracer=NULL_TRACER):
        qa_index = tuple(qa_index)
        engine = engine or self.engine_for(qa_index)
        if tracer.enabled:
            begin_traced_run(tracer, self.name, qa_index, engine)
        state = _DiscoveryState(self.space, checkpoint, tracer=tracer)
        m = len(self.contours)
        i = 0
        if checkpoint is not None and checkpoint.active:
            i = min(checkpoint.restore(state), m - 1)
        while i < m:
            state.sync(i)
            if len(state.remaining) == 1:
                done = self._one_d_phase(engine, state, i)
                if done:
                    return state.result(self.name, qa_index, engine)
                break  # contours exhausted inside the 1-D phase
            learned = self._contour_pass(engine, state, i)
            if not learned:
                i += 1
        # Safety net for degenerate cases (e.g. cyclic epps that no plan
        # on the final contour can spill on): execute the optimal plan of
        # the effective terminus in regular mode; by PCM it completes
        # within the maximal budget.
        self._terminal_execution(engine, state, m - 1)
        return state.result(self.name, qa_index, engine)

    # ------------------------------------------------------------------
    # contour processing

    def _contour_pass(self, engine, state, i):
        """Execute up to ``|EPP|`` spill plans on contour ``i``.

        Returns True when some epp was fully learnt (Algorithm 1 then
        re-enters the same contour with the shrunken EPP set).
        """
        members = self.contours.members(i, fixed=state.resolved)
        if members.is_empty:
            return False
        remaining_key = frozenset(state.remaining)
        budget = self.contours.cost(i)
        for epp in sorted(state.remaining, key=self.space.query.epp_index):
            choice = self._choose_spill_plan(members, epp, remaining_key)
            if choice is None:
                continue  # no plan on this contour spills on epp: skip
            plan, node = choice
            repeat = (i, epp) in state.executed
            state.executed.add((i, epp))
            outcome = engine.execute_spill(plan, epp, node, budget)
            state.charge(ExecutionRecord(
                contour=i,
                plan_id=plan.id,
                mode="spill",
                epp=epp,
                budget=budget,
                spent=outcome.spent,
                completed=outcome.completed,
                learned=outcome.learned_index,
                repeat=repeat,
            ))
            if outcome.completed:
                state.learn_exact(outcome.dim, epp, outcome.learned_index)
                state.sync(i)
                return True
            state.learn_bound(outcome.dim, outcome.learned_index)
            state.sync(i)
        return False

    def _choose_spill_plan(self, members, epp, remaining_key):
        """``P^j_max`` of §3.2: the plan at the max-coordinate location
        (along ``epp``'s dimension) among members spilling on ``epp``."""
        dim = self.space.query.epp_index(epp)
        targets = np.array([
            self._spill_target(int(pid), remaining_key) == epp
            for pid in members.plan_ids
        ])
        if not targets.any():
            return None
        coords = members.coords[targets]
        plan_ids = members.plan_ids[targets]
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

    def _spill_target(self, plan_id, remaining_key):
        key = (plan_id, remaining_key)
        if key not in self._target_cache:
            target = self.space.plans[plan_id].spill_target(remaining_key)
            self._target_cache[key] = target[0] if target else None
        return self._target_cache[key]

    # ------------------------------------------------------------------
    # 1-D endgame (classical PlanBouquet, regular executions)

    def _one_d_phase(self, engine, state, start_contour):
        for k in range(start_contour, len(self.contours)):
            state.sync(k)
            members = self.contours.members(k, fixed=state.resolved)
            if members.is_empty:
                continue
            # The 1-D frontier is a single crossing point; pick the
            # largest remaining-dim coordinate for determinism.
            dim = self.space.query.epp_index(next(iter(state.remaining)))
            pick = int(np.argmax(members.coords[:, dim]))
            plan = self.space.plans[int(members.plan_ids[pick])]
            budget = self.contours.cost(k)
            outcome = engine.execute(plan, budget)
            state.charge(ExecutionRecord(
                contour=k,
                plan_id=plan.id,
                mode="regular",
                epp=None,
                budget=budget,
                spent=outcome.spent,
                completed=outcome.completed,
            ))
            if outcome.completed:
                return True
        return False

    def _terminal_execution(self, engine, state, last_contour):
        members = self.contours.members(last_contour, fixed=state.resolved)
        if members.is_empty:
            raise DiscoveryError("final contour has no effective members")
        # The effective terminus: lexicographically largest member.
        order = np.lexsort(members.coords.T[::-1])
        pick = order[-1]
        plan = self.space.plans[int(members.plan_ids[pick])]
        budget = self.contours.cost(last_contour)
        outcome = engine.execute(plan, budget)
        state.charge(ExecutionRecord(
            contour=last_contour,
            plan_id=plan.id,
            mode="regular",
            epp=None,
            budget=budget,
            spent=outcome.spent,
            completed=outcome.completed,
        ))
        if not outcome.completed:
            raise DiscoveryError(
                "terminal execution failed: cost surface violates PCM"
            )


class _DiscoveryState:
    """Mutable bookkeeping shared by SpillBound-style algorithms."""

    __slots__ = ("space", "resolved", "remaining", "qrun", "spent",
                 "records", "executed", "extras", "checkpoint", "contour",
                 "tracer")

    def __init__(self, space, checkpoint=None, tracer=NULL_TRACER):
        self.space = space
        self.resolved = {}  # dim -> exact grid index
        self.remaining = set(space.query.epps)
        self.qrun = [0] * space.grid.dims  # inclusive lower-bound indices
        self.spent = 0.0
        self.records = []
        self.executed = set()
        self.extras = {}
        self.checkpoint = checkpoint
        self.contour = 0
        self.tracer = tracer

    def charge(self, record):
        self.spent += record.spent
        self.records.append(record)
        if self.tracer.enabled:
            self.tracer.event("execution", **record.as_event())

    def sync(self, contour):
        """Snapshot certified knowledge into the checkpoint (if any)."""
        if self.tracer.enabled and contour != self.contour:
            self.tracer.event(
                "contour-advance",
                contour=contour,
                remaining=sorted(self.remaining),
                resolved=len(self.resolved),
            )
        self.contour = contour
        if self.checkpoint is not None:
            self.checkpoint.capture(
                contour,
                resolved=self.resolved,
                qrun=self.qrun,
                remaining=self.remaining,
                executed=self.executed,
            )

    def learn_exact(self, dim, epp, index):
        self.resolved[dim] = index
        self.qrun[dim] = index
        self.remaining.discard(epp)
        if self.tracer.enabled:
            self.tracer.event("spill", dim=dim, epp=epp, index=index)

    def learn_bound(self, dim, learned_index):
        # The engine certifies qa strictly beyond `learned_index`.
        self.qrun[dim] = max(self.qrun[dim], learned_index + 1)
        if self.tracer.enabled:
            self.tracer.event("half-space-prune", dim=dim,
                              certified=learned_index,
                              bound=self.qrun[dim])

    def result(self, name, qa_index, engine):
        # fsum: the exactly rounded sum of the record spends, so a trace
        # decomposition recomputing it from the same floats reconciles
        # bitwise with this total.
        total = math.fsum(r.spent for r in self.records)
        result = RunResult(
            name, qa_index, total, engine.optimal_cost, self.records,
            extras=dict(self.extras),
        )
        if self.tracer.enabled:
            end_traced_run(self.tracer, result)
        return result
