"""The AlignedBound algorithm (paper §5).

AlignedBound augments SpillBound with *predicate set alignment* (PSA):
instead of one spill execution per unresolved epp, the contour is covered
by a partition of the EPP set. A part ``T`` with leader dimension ``j``
satisfies PSA when every contour location whose plan spills on a
dimension in ``T`` has its ``j``-th coordinate bounded by ``q^j_max.j``;
a single spill execution then prunes the whole part's share of the
contour. Where PSA does not hold natively, it is *induced* by replacing
the optimal plan at an extreme location with the cheapest available plan
that spills on the leader dimension -- at a penalty equal to the cost
ratio of the replacement (Table 2 / Table 4 of the paper).

Partition selection minimises the summed penalty ``pi*`` over all set
partitions of the remaining epps (Bell(6) = 203 at the paper's maximum
dimensionality). The all-singletons partition always exists with penalty
``|EPP|``, so AlignedBound never plans a costlier contour pass than
SpillBound, and retains the ``D^2 + 3D`` guarantee while reaching
``2D + 2`` when alignment holds everywhere (Theorem 5.1).

Replacement plans come from the POSP plan universe plus a constrained
optimizer call ("cheapest plan spilling on e_j"), mirroring the engine
hook described in §6.1. The universe is the plans the build registered:
plans that other probes registered into the shared space (earlier runs',
or earlier parts' of this run) are not candidates, so an answer never
depends on what ran before
(:func:`repro.algorithms.alignment.cheapest_spilling_plan`).
"""

import numpy as np

from repro.algorithms.alignment import cheapest_spilling_plan
from repro.algorithms.base import ExecutionRecord
from repro.algorithms.spillbound import SpillBound


class _PartChoice:
    """Resolved execution choice for one partition part."""

    __slots__ = ("leader", "plan", "node", "location", "budget", "penalty",
                 "native", "empty")

    def __init__(self, leader, plan=None, node=None, location=None,
                 budget=0.0, penalty=0.0, native=False, empty=False):
        self.leader = leader
        self.plan = plan
        self.node = node
        self.location = location
        self.budget = budget
        self.penalty = penalty
        self.native = native
        self.empty = empty


class AlignedBound(SpillBound):
    """SpillBound with (induced) predicate-set alignment."""

    name = "alignedbound"

    def __init__(self, space, contours=None, max_penalty=None):
        super().__init__(space, contours)
        #: Optional cap on acceptable replacement penalties; parts whose
        #: cheapest enforcement exceeds it are treated as unalignable
        #: (used for the Table 2 sensitivity study).
        self.max_penalty = max_penalty
        self._analysis_cache = {}
        self._constrained_cache = {}

    def mso_lower_guarantee(self):
        """Theorem 5.1: ``2D + 2`` when alignment holds at every contour.

        Generalised to a contour ratio ``r``:
        ``MSO <= r/(r-1) + D*r`` (equals ``2D + 2`` at ``r = 2``).
        """
        r = self.contours.ratio
        return r / (r - 1.0) + self.space.query.dimensions * r

    # ------------------------------------------------------------------

    def _contour_pass(self, engine, state, i):
        """One AlignedBound pass over contour ``i`` (Algorithm 2)."""
        members = self.contours.members(i, fixed=state.resolved)
        if members.is_empty:
            return False
        remaining_key = frozenset(state.remaining)
        parts = self._plan_contour(i, state.resolved, remaining_key, members)
        if parts is None:
            # No feasible partition (no spillable plan anywhere): fall
            # back to SpillBound's per-epp pass.
            return super()._contour_pass(engine, state, i)
        total_penalty = sum(p.penalty for p in parts if not p.empty)
        state.extras["max_penalty"] = max(
            state.extras.get("max_penalty", 0.0), total_penalty
        )
        if state.tracer.enabled:
            state.tracer.event(
                "psa-partition",
                contour=i,
                parts=[{"leader": p.leader, "native": p.native,
                        "penalty": p.penalty}
                       for p in parts if not p.empty],
                penalty=total_penalty,
            )
        for part in sorted(parts,
                           key=lambda p: self.space.query.epp_index(p.leader)):
            if part.empty:
                continue
            repeat = (i, part.leader) in state.executed
            state.executed.add((i, part.leader))
            outcome = engine.execute_spill(
                part.plan, part.leader, part.node, part.budget
            )
            state.charge(ExecutionRecord(
                contour=i,
                plan_id=part.plan.id,
                mode="spill",
                epp=part.leader,
                budget=part.budget,
                spent=outcome.spent,
                completed=outcome.completed,
                learned=outcome.learned_index,
                repeat=repeat,
            ))
            if outcome.completed:
                state.learn_exact(outcome.dim, part.leader,
                                  outcome.learned_index)
                state.sync(i)
                return True
            state.learn_bound(outcome.dim, outcome.learned_index)
            state.sync(i)
        return False

    # ------------------------------------------------------------------
    # contour analysis (cached across runs: the same contour state
    # reappears for every qa sharing the learnt prefix)

    def _plan_contour(self, i, resolved, remaining_key, members):
        cache_key = (i, tuple(sorted(resolved.items())), remaining_key)
        if cache_key in self._analysis_cache:
            return self._analysis_cache[cache_key]
        parts = self._analyse(i, remaining_key, members)
        self._analysis_cache[cache_key] = parts
        return parts

    def _analyse(self, i, remaining_key, members):
        query = self.space.query
        remaining = sorted(remaining_key, key=query.epp_index)
        targets = np.array([
            self._spill_target(int(pid), remaining_key)
            for pid in members.plan_ids
        ], dtype=object)

        part_memo = {}

        def part_choice(part_tuple, leader):
            memo_key = (part_tuple, leader)
            if memo_key not in part_memo:
                part_memo[memo_key] = self._evaluate_part(
                    i, remaining_key, members, targets, part_tuple, leader
                )
            return part_memo[memo_key]

        best = None
        for partition in _set_partitions(remaining):
            choices = []
            total = 0.0
            feasible = True
            for part in partition:
                part_tuple = tuple(part)
                candidates = [part_choice(part_tuple, leader)
                              for leader in part]
                candidates = [c for c in candidates if c is not None]
                if not candidates:
                    feasible = False
                    break
                pick = min(candidates, key=lambda c: (c.penalty, c.leader))
                choices.append(pick)
                total += pick.penalty
            if not feasible:
                continue
            if best is None or total < best[0] - 1e-12:
                best = (total, choices)
        return best[1] if best else None

    def _evaluate_part(self, i, remaining_key, members, targets,
                       part_tuple, leader):
        """Enforcement choice for part ``part_tuple`` led by ``leader``.

        Returns a :class:`_PartChoice` (empty / native / induced) or
        ``None`` when PSA cannot be enforced within ``max_penalty``.
        """
        query = self.space.query
        dim = query.epp_index(leader)
        in_part = np.isin(targets, part_tuple)
        if not in_part.any():
            return _PartChoice(leader, penalty=0.0, empty=True)

        part_coords = members.coords[in_part]
        extreme = int(part_coords[:, dim].max())

        leader_mask = targets == leader
        leader_max = int(members.coords[leader_mask, dim].max()) \
            if leader_mask.any() else -1

        if leader_max >= extreme:
            # Native PSA: SpillBound's own P^j_max suffices.
            peak = leader_mask & (members.coords[:, dim] == leader_max)
            pick = _lex_pick(members.coords[peak])
            plan = self.space.plans[int(members.plan_ids[peak][pick])]
            location = tuple(int(c) for c in members.coords[peak][pick])
            target = plan.spill_target(remaining_key)
            return _PartChoice(
                leader, plan, target[1], location,
                budget=self.contours.cost(i), penalty=1.0, native=True,
            )

        # Induced PSA: replace the optimal plan at some location of
        # S = {q in IC_i : q.dim == extreme} with a plan spilling on the
        # leader (paper §5.2.1).
        best = cheapest_spilling_plan(
            self.space, members.coords[members.coords[:, dim] == extreme],
            leader, lambda plan_id: self._spill_target(plan_id, remaining_key),
            self._constrained_cache)
        if best is None:
            return None
        cost, plan, location = best
        penalty = cost / self.space.optimal_cost(location)
        if self.max_penalty is not None and penalty > self.max_penalty:
            return None
        target = plan.spill_target(remaining_key)
        return _PartChoice(
            leader, plan, target[1], location,
            budget=cost, penalty=penalty, native=False,
        )


def _lex_pick(coords):
    """Index of the lexicographically largest coordinate row."""
    order = np.lexsort(coords.T[::-1])
    return int(order[-1])


def _set_partitions(items):
    """Yield all set partitions of ``items`` (each part a sorted list)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for index in range(len(partition)):
            grown = [list(p) for p in partition]
            grown[index].insert(0, first)
            yield grown
        yield [[first]] + [list(p) for p in partition]
