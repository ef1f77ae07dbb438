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

:meth:`AlignedBound.choose` answers each (contour, learnt dims,
remaining epps) state with one spill step per non-empty part, and the
partition travels with the steps for the ``psa-partition`` event and the
``max_penalty`` extra; the shared driver executes them.

Replacement plans come from the POSP plan universe plus a constrained
optimizer call ("cheapest plan spilling on e_j"), mirroring the engine
hook described in §6.1 (:meth:`AlignedBound.cheapest_spilling_plan`).
The probe goes through the space's memo,
:meth:`~repro.ess.space.ExplorationSpace.probe_plan`, which never grows
the universe and names each probe plan by its signature, so no answer
or record depends on what ran before.

Table 2's contour alignment (paper §3.3) is the same PSA test with the
whole EPP set as one part: :meth:`AlignedBound.alignment` reads it off
:meth:`AlignedBound._evaluate_part` for every contour.
"""

import numpy as np

from repro.algorithms.spillbound import SpillBound


class ContourAlignmentReport:
    """Per-contour cheapest alignment penalties for one query space.

    ``penalties[i]`` is the minimum penalty (over leader dimensions) at
    which contour ``i`` can be made aligned; ``1.0`` means natively
    aligned, ``inf`` means no leader's extreme admits a spilling plan.
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


class _PartChoice:
    """Resolved execution choice for one partition part."""

    __slots__ = ("leader", "plan", "node", "budget", "penalty", "native",
                 "empty")

    def __init__(self, leader, plan=None, node=None, budget=0.0,
                 penalty=0.0, native=False, empty=False):
        self.leader = leader
        self.plan = plan
        self.node = node
        self.budget = budget
        self.penalty = penalty
        self.native = native
        self.empty = empty


class AlignedBound(SpillBound):
    """SpillBound with (induced) predicate-set alignment."""

    name = "alignedbound"

    def mso_lower_guarantee(self):
        """Theorem 5.1: ``2D + 2`` when alignment holds at every contour.

        Generalised to a contour ratio ``r``:
        ``MSO <= r/(r-1) + D*r`` (equals ``2D + 2`` at ``r = 2``).
        """
        r = self.contours.ratio
        return r / (r - 1.0) + self.space.query.dimensions * r

    def alignment(self):
        """Table 2: every contour's cheapest alignment penalty (§3.3).

        A contour is aligned along leader ``j`` when PSA holds for the
        whole EPP set as one part led by ``j`` -- the test
        :meth:`_evaluate_part` applies to each partition part. A
        contour's penalty is the minimum over the leaders whose choice
        is neither infeasible nor empty: ``1.0`` for an empty contour,
        ``inf`` when no leader qualifies.
        """
        epps = self.space.query.epps
        everything = frozenset(epps)
        penalties = []
        for i in range(len(self.contours)):
            members = self.contours.members(i)
            if members.is_empty:
                penalties.append(1.0)
                continue
            targets = self._member_targets(members, everything)
            choices = [self._evaluate_part(i, everything, members, targets,
                                           epps, leader)
                       for leader in epps]
            penalties.append(min(
                (c.penalty for c in choices if c is not None and not c.empty),
                default=float("inf")))
        return ContourAlignmentReport(penalties)

    # ------------------------------------------------------------------

    def choose(self, contour, resolved, remaining):
        """One spill step per non-empty part of the minimum-penalty
        partition (Algorithm 2), at the part's budget, with the
        partition's ``(penalty, parts)``; SpillBound's steps when no
        partition is feasible, with one epp left, or past the last
        contour."""
        if contour < len(self.contours) and len(remaining) > 1:
            members = self.contours.members(contour, fixed=resolved)
            if members.is_empty:
                return (), None
            parts = self._analyse(contour, remaining, members)
            if parts is not None:
                parts = [p for p in parts if not p.empty]
                epp_index = self.space.query.epp_index
                steps = tuple((p.plan, "spill", p.leader, p.node, p.budget)
                              for p in sorted(
                                  parts, key=lambda p: epp_index(p.leader)))
                return steps, (sum(p.penalty for p in parts),
                               tuple((p.leader, p.native, p.penalty)
                                     for p in parts))
        # No feasible partition (no spillable plan anywhere): fall back
        # to SpillBound's per-epp steps.
        return super().choose(contour, resolved, remaining)

    def _analyse(self, i, remaining_key, members):
        query = self.space.query
        remaining = sorted(remaining_key, key=query.epp_index)
        targets = self._member_targets(members, remaining_key)

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
        ``None`` when no plan spilling on ``leader`` can enforce PSA.
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
            plan, node = self._choose_spill_plan(members, leader_mask, leader,
                                                 remaining_key)
            return _PartChoice(leader, plan, node,
                               budget=self.contours.cost(i), penalty=1.0,
                               native=True)

        # Induced PSA: replace the optimal plan at some location of
        # S = {q in IC_i : q.dim == extreme} with a plan spilling on the
        # leader (paper §5.2.1).
        best = self.cheapest_spilling_plan(
            members.coords[members.coords[:, dim] == extreme], leader,
            remaining_key)
        if best is None:
            return None
        cost, plan, location = best
        target = plan.spill_target(remaining_key)
        return _PartChoice(leader, plan, target[1], budget=cost,
                           penalty=cost / self.space.optimal_cost(location),
                           native=False)

    def cheapest_spilling_plan(self, coords, epp, remaining_key):
        """Cheapest plan spilling on ``epp`` at some location of ``coords``.

        The candidates are those of paper §5.2.1: the space's POSP plans
        plus one constrained-optimizer probe -- the cheapest plan
        spilling on ``epp`` -- at the location of ``coords`` with the
        cheapest optimal cost. A plan spills on the epp it targets among
        ``remaining_key``. Returns ``(cost, plan, location)``, or
        ``None`` when no candidate spills on ``epp``.
        """
        space = self.space
        best = None
        for plan in space.plans:
            if self._spill_target(plan, remaining_key) != epp:
                continue
            costs = plan.cost[tuple(coords.T)]
            pick = int(np.argmin(costs))
            cost = float(costs[pick])
            if best is None or cost < best[0]:
                best = (cost, plan, tuple(int(c) for c in coords[pick]))
        opt_costs = space.opt_cost[tuple(coords.T)]
        location = tuple(int(c) for c in coords[int(np.argmin(opt_costs))])
        plan = space.probe_plan(location, epp)
        if plan is not None \
                and self._spill_target(plan, remaining_key) == epp:
            cost = float(plan.cost[location])
            if best is None or cost < best[0]:
                best = (cost, plan, location)
        return best


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
