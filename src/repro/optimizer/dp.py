"""Dynamic-programming plan enumeration (System-R style, paper §2.2).

The optimizer produces the cost-optimal plan for a query *given a
selectivity assignment* -- the injectable-selectivity hook the paper adds
to PostgreSQL. Calling it across every location of the ESS grid yields
the Parametric Optimal Set of Plans (POSP).

Enumeration is left-deep by default (optionally bushy), avoids cross
products whenever the join graph allows, and considers three physical
join operators per join step. Ties break deterministically on plan
signature so that plan diagrams are stable across runs.

A *constrained* mode returns the cheapest plan whose bottom-most join is
a chosen epp's join; because left-deep spill ordering follows join order,
such a plan is guaranteed to spill on that epp. This mirrors the engine
feature the paper adds for AlignedBound ("obtain a least cost plan from
optimizer which spills on a user-specified epp", §6.1).
"""

from itertools import combinations

import numpy as np

from repro.common.errors import OptimizerError
from repro.cost.model import CostModel
from repro.plans.nodes import (
    HashJoin,
    IndexNLJoin,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    finalize_plan,
)

#: Physical join operators considered at every join step.
JOIN_KINDS = (HashJoin, MergeJoin, NestedLoopJoin)

#: Join-choice code for the index nested-loop operator in batch entries
#: (the three ``JOIN_KINDS`` occupy codes 0..2).
_INDEX_CHOICE = len(JOIN_KINDS)


class OptimizedPlan:
    """An optimizer result: a finalised plan plus its estimated cost."""

    __slots__ = ("plan", "cost", "rows")

    def __init__(self, plan, cost, rows):
        self.plan = plan
        self.cost = cost
        self.rows = rows

    def __repr__(self):
        return "OptimizedPlan(cost=%.4g)\n%s" % (self.cost, self.plan.display())


class _Entry:
    """DP memo entry for one relation subset."""

    __slots__ = ("plan", "cost", "rows", "signature")

    def __init__(self, plan, cost, rows, signature):
        self.plan = plan
        self.cost = cost
        self.rows = rows
        self.signature = signature


def _batchify(value, size):
    """``value`` as a ``(size,)`` float64 array.

    Scalars (cost chains that never touched an injected selectivity)
    broadcast; the per-element values are unchanged either way, so the
    downstream arithmetic stays bit-identical to the scalar DP.
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(size, float(arr))
    return arr


class _BatchEntry:
    """Batch DP memo entry: per-location best plan for one subset.

    ``cost``/``rows`` are ``(B,)`` float64 arrays; ``vid`` maps each
    location to an index into ``variants``, the list of
    ``(plan, signature)`` pairs that are optimal somewhere in the
    batch. All variants of one subset cover the same relation set, so
    ``tables`` is entry-level.
    """

    __slots__ = ("cost", "rows", "vid", "variants", "tables")

    def __init__(self, cost, rows, vid, variants, tables):
        self.cost = cost
        self.rows = rows
        self.vid = vid
        self.variants = variants
        self.tables = tables

    @classmethod
    def single(cls, plan, cost, rows, size):
        return cls(
            _batchify(cost, size),
            _batchify(rows, size),
            np.zeros(size, dtype=np.int32),
            [(plan, plan.signature())],
            set(plan.tables),
        )


def _fold_best(best, cand):
    """Per-location merge of two batch entries under the scalar DP's
    tie-break: strictly cheaper wins; equal cost falls back to the
    lexicographically smaller plan signature."""
    lt = cand.cost < best.cost
    eq = cand.cost == best.cost
    if eq.any():
        sig_lt = np.empty(
            (len(cand.variants), len(best.variants)), dtype=bool)
        for i, (_pi, sig_i) in enumerate(cand.variants):
            for j, (_pj, sig_j) in enumerate(best.variants):
                sig_lt[i, j] = sig_i < sig_j
        take = lt | (eq & sig_lt[cand.vid, best.vid])
    else:
        take = lt
    if not take.any():
        return best
    if take.all():
        return cand
    offset = len(best.variants)
    return _BatchEntry(
        np.where(take, cand.cost, best.cost),
        np.where(take, cand.rows, best.rows),
        np.where(take, cand.vid + offset, best.vid).astype(np.int32),
        best.variants + cand.variants,
        best.tables,
    )


class BatchPlans:
    """Result of one vectorised DP pass over ``B`` assignments.

    ``cost`` is the ``(B,)`` optimal-cost vector, bit-identical to
    calling :meth:`Optimizer.optimize` per assignment. Plans finalise
    lazily and are shared across positions with the same variant (the
    registry layer deduplicates by signature, so shared objects are
    indistinguishable from per-position copies).
    """

    __slots__ = ("cost", "rows", "_vid", "_variants", "_finalized")

    def __init__(self, cost, rows, vid, variants):
        self.cost = cost
        self.rows = rows
        self._vid = vid
        self._variants = variants
        self._finalized = [None] * len(variants)

    @property
    def size(self):
        return int(self.cost.shape[0])

    def cost_at(self, pos):
        """DP cost at batch position ``pos`` (a Python float)."""
        return float(self.cost[pos])

    def signature_at(self, pos):
        return self._variants[int(self._vid[pos])][1]

    def first_positions(self):
        """Batch position of each variant's first occurrence, ascending.

        Visiting these positions meets every distinct plan in the same
        order as visiting all ``B`` positions, once per variant.
        """
        _vids, first = np.unique(self._vid, return_index=True)
        return np.sort(first).tolist()

    def plan_for(self, pos):
        """The finalised optimal plan at batch position ``pos``."""
        vid = int(self._vid[pos])
        plan = self._finalized[vid]
        if plan is None:
            plan = finalize_plan(self._variants[vid][0])
            self._finalized[vid] = plan
        return plan


class Optimizer:
    """DP optimizer bound to one query and one cost model.

    Parameters
    ----------
    query:
        The :class:`repro.query.Query` to optimise.
    cost_model:
        Optional :class:`CostModel`; built from the query if omitted.
    bushy:
        When true, enumerate bushy trees as well as left-deep ones.
    """

    def __init__(self, query, cost_model=None, bushy=False):
        self.query = query
        self.cost_model = cost_model or CostModel(query)
        self.bushy = bushy
        self._tables = tuple(query.tables)
        self._table_bit = {t: 1 << i for i, t in enumerate(self._tables)}
        self._full_mask = (1 << len(self._tables)) - 1
        # Precompute, per join predicate, the bitmasks of its two sides.
        self._join_masks = [
            (join, self._table_bit[join.left_table],
             self._table_bit[join.right_table])
            for join in query.joins
        ]

    # ------------------------------------------------------------------
    # public API

    def optimize(self, assignment=None):
        """Best plan under ``assignment`` (epp name -> selectivity)."""
        entry = self._run_dp(assignment, required_first=None)
        return self._result(entry)

    def optimize_spilling_on(self, epp_name, assignment=None):
        """Cheapest plan whose spill target is ``epp_name``.

        Returns ``None`` when the constraint is unsatisfiable (e.g. the
        epp's join closes a cycle everywhere).
        """
        join = self.query.predicate(epp_name)
        entry = self._run_dp(assignment, required_first=join)
        if entry is None:
            return None
        return self._result(entry)

    def optimize_batch(self, assignments, spilling_on=None):
        """Vectorised DP over a batch of selectivity assignments.

        ``assignments`` maps each injected predicate name to a ``(B,)``
        array of selectivities; position ``i`` across all arrays is one
        assignment. One enumeration pass evaluates every join candidate
        for all ``B`` locations at once, with per-location operator
        choice and the scalar DP's exact tie-breaks, so the returned
        :class:`BatchPlans` carries, per position, the same plan
        (by signature) and the bitwise-same cost as ``B`` separate
        :meth:`optimize` calls -- that equivalence is the grid kernel's
        bit-identity contract (DESIGN.md §13).

        ``spilling_on`` applies the constrained mode to the whole batch;
        like :meth:`optimize_spilling_on` it returns ``None`` when the
        constraint is unsatisfiable (feasibility depends only on the
        join graph, never on the assignment, so it is uniform across
        the batch).
        """
        sizes = {np.asarray(v).shape[0] for v in assignments.values()}
        if len(sizes) != 1:
            raise OptimizerError(
                "batch assignment arrays must share one length"
            )
        size = sizes.pop()
        required_first = None
        if spilling_on is not None:
            required_first = self.query.predicate(spilling_on)
        entry = self._run_batch_dp(assignments, size, required_first)
        if entry is None:
            if required_first is not None:
                return None
            raise OptimizerError(
                "no plan found for query %r" % self.query.name
            )
        return BatchPlans(entry.cost, entry.rows, entry.vid,
                          entry.variants)

    # ------------------------------------------------------------------
    # DP core

    def _result(self, entry):
        if entry is None:
            raise OptimizerError(
                "no plan found for query %r" % self.query.name
            )
        plan = finalize_plan(entry.plan)
        return OptimizedPlan(plan, entry.cost, entry.rows)

    def _run_dp(self, assignment, required_first):
        query = self.query
        model = self.cost_model
        n = len(self._tables)

        # Base case: one scan per relation.
        base = {}
        for table in self._tables:
            filters = query.filters_for(table)
            filter_names = tuple(f.name for f in filters)
            rows = float(query.catalog.table(table).row_count)
            for name in filter_names:
                rows = rows * model.selectivity(name, assignment)
            plan = SeqScan(table, filter_names)
            cost = model.scan_operator_cost(table, len(filter_names), rows)
            mask = self._table_bit[table]
            base[mask] = _Entry(plan, cost, rows, plan.signature())

        memo = dict(base)
        if n == 1:
            return memo.get(self._full_mask)

        if required_first is not None:
            # Seed the DP with the forced bottom join, then only grow
            # supersets of that pair.
            pair_mask = (
                self._table_bit[required_first.left_table]
                | self._table_bit[required_first.right_table]
            )
            memo = {}
            seed = self._best_join(
                base[self._table_bit[required_first.left_table]],
                base[self._table_bit[required_first.right_table]],
                pair_mask,
                assignment,
                force_primary=required_first.name,
            )
            if seed is None:
                return None
            memo[pair_mask] = seed
            anchor = pair_mask
        else:
            anchor = 0

        indices = range(n)
        for size in range(2, n + 1):
            for combo in combinations(indices, size):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                if anchor and (mask & anchor) != anchor:
                    continue
                if anchor and mask == anchor:
                    continue
                best = memo.get(mask)
                candidates = self._split_candidates(mask, memo, base, anchor)
                for left_entry, right_entry in candidates:
                    entry = self._best_join(
                        left_entry, right_entry, mask, assignment
                    )
                    if entry is None:
                        continue
                    if best is None or entry.cost < best.cost or (
                        entry.cost == best.cost
                        and entry.signature < best.signature
                    ):
                        best = entry
                if best is not None:
                    memo[mask] = best
        return memo.get(self._full_mask)

    def _run_batch_dp(self, assignments, size, required_first):
        """The DP recurrence of :meth:`_run_dp` over ``(size,)`` arrays.

        Mirrors the scalar control flow exactly -- same subset
        enumeration order, same candidate order, same tie-breaks -- so
        that per-position results coincide with per-assignment scalar
        runs. The arithmetic reuses the cost model's operator hooks,
        which broadcast elementwise over numpy arrays.
        """
        query = self.query
        model = self.cost_model
        n = len(self._tables)

        base = {}
        for table in self._tables:
            filters = query.filters_for(table)
            filter_names = tuple(f.name for f in filters)
            rows = float(query.catalog.table(table).row_count)
            for name in filter_names:
                rows = rows * model.selectivity(name, assignments)
            plan = SeqScan(table, filter_names)
            cost = model.scan_operator_cost(table, len(filter_names), rows)
            base[self._table_bit[table]] = _BatchEntry.single(
                plan, cost, rows, size)

        memo = dict(base)
        if n == 1:
            return memo.get(self._full_mask)

        if required_first is not None:
            pair_mask = (
                self._table_bit[required_first.left_table]
                | self._table_bit[required_first.right_table]
            )
            memo = {}
            seed = self._batch_join(
                base[self._table_bit[required_first.left_table]],
                base[self._table_bit[required_first.right_table]],
                assignments,
                size,
                force_primary=required_first.name,
            )
            if seed is None:
                return None
            memo[pair_mask] = seed
            anchor = pair_mask
        else:
            anchor = 0

        indices = range(n)
        for combo_size in range(2, n + 1):
            for combo in combinations(indices, combo_size):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                if anchor and (mask & anchor) != anchor:
                    continue
                if anchor and mask == anchor:
                    continue
                best = memo.get(mask)
                candidates = self._split_candidates(mask, memo, base, anchor)
                for left_entry, right_entry in candidates:
                    entry = self._batch_join(
                        left_entry, right_entry, assignments, size
                    )
                    if entry is None:
                        continue
                    best = entry if best is None else _fold_best(best, entry)
                if best is not None:
                    memo[mask] = best
        return memo.get(self._full_mask)

    def _batch_join(self, left, right, assignments, size,
                    force_primary=None):
        """Per-location cheapest physical join of two batch entries.

        The operator fold matches :meth:`_best_join` cell by cell: the
        three join kinds compete under strict ``<`` in ``JOIN_KINDS``
        order, then an applicable index nested-loop replaces the winner
        only where strictly cheaper. Whether the index join applies
        depends only on the inner *plan shape* (a bare indexed scan),
        which is uniform across a subset's variants: multi-table
        subsets only hold join plans, and single-table subsets hold
        exactly one scan variant.
        """
        preds = self._connecting(left.tables, right.tables)
        if not preds:
            return None
        names = [p.name for p in preds]
        if force_primary is not None:
            if force_primary not in names:
                return None
            names.remove(force_primary)
            names.insert(0, force_primary)
        model = self.cost_model
        out_rows = left.rows * right.rows
        for name in names:
            out_rows = out_rows * model.selectivity(name, assignments)
        child_cost = left.cost + right.cost
        best_total = None
        choice = np.zeros(size, dtype=np.int8)
        for code, kind in enumerate(JOIN_KINDS):
            op_cost = model.join_operator_cost(
                kind, left.rows, right.rows, out_rows
            )
            total = _batchify(child_cost + op_cost, size)
            if best_total is None:
                best_total = total
            else:
                better = total < best_total
                np.copyto(best_total, total, where=better)
                choice[better] = code

        index_spec = self._index_join_spec(right.variants[0][0], names[0])
        if index_spec is not None:
            inner_table, inner_column, inner_filters = index_spec
            base_rows = float(
                self.query.catalog.table(inner_table).row_count)
            fetched = (
                left.rows * base_rows
                * model.selectivity(names[0], assignments)
            )
            op_cost = model.index_join_operator_cost(
                left.rows, fetched, len(inner_filters), out_rows
            )
            total = _batchify(left.cost + op_cost, size)
            better = total < best_total
            np.copyto(best_total, total, where=better)
            choice[better] = _INDEX_CHOICE

        names = tuple(names)
        n_left = len(left.variants)
        n_right = len(right.variants)
        codes = (
            (choice.astype(np.int32) * n_left + left.vid) * n_right
            + right.vid
        )
        uniq, vid = np.unique(codes, return_inverse=True)
        variants = []
        for code in uniq.tolist():
            right_i = code % n_right
            rest = code // n_right
            left_i = rest % n_left
            join_choice = rest // n_left
            left_plan = left.variants[left_i][0]
            if join_choice == _INDEX_CHOICE:
                plan = IndexNLJoin(left_plan, names, inner_table,
                                   inner_column, inner_filters)
            else:
                plan = JOIN_KINDS[join_choice](
                    left_plan, right.variants[right_i][0], names)
            variants.append((plan, plan.signature()))
        return _BatchEntry(
            best_total,
            _batchify(out_rows, size),
            vid.astype(np.int32),
            variants,
            left.tables | right.tables,
        )

    def _split_candidates(self, mask, memo, base, anchor):
        """Yield (left, right) memo-entry pairs whose masks partition mask."""
        pairs = []
        if self.bushy:
            # All 2-partitions with both halves present in the memo.
            sub = (mask - 1) & mask
            while sub:
                rest = mask ^ sub
                if sub > rest:  # enumerate each unordered split once
                    left = memo.get(sub)
                    right = memo.get(rest)
                    if left is not None and right is not None:
                        if not anchor or (sub & anchor) == anchor:
                            pairs.append((left, right))
                        if not anchor or (rest & anchor) == anchor:
                            pairs.append((right, left))
                sub = (sub - 1) & mask
            return pairs
        # Left-deep: peel one base relation off at a time.
        bit = 1
        while bit <= mask:
            if mask & bit:
                rest = mask ^ bit
                if rest and not (anchor and (rest & anchor) != anchor):
                    left = memo.get(rest)
                    right = base.get(bit)
                    if left is not None and right is not None:
                        pairs.append((left, right))
                        if rest in base:  # 2-relation case: both orders
                            pairs.append((right, left))
            bit <<= 1
        return pairs

    def _best_join(self, left, right, mask, assignment, force_primary=None):
        """Cheapest physical join of two memo entries, or None.

        Cross products are rejected (no connecting predicate). Multiple
        connecting predicates (cycles) are all applied at the node.
        """
        preds = self._connecting(left.plan.tables, right.plan.tables)
        if not preds:
            return None
        names = [p.name for p in preds]
        if force_primary is not None:
            if force_primary not in names:
                return None
            names.remove(force_primary)
            names.insert(0, force_primary)
        model = self.cost_model
        out_rows = left.rows * right.rows
        for name in names:
            out_rows = out_rows * model.selectivity(name, assignment)
        child_cost = left.cost + right.cost
        best = None
        for kind in JOIN_KINDS:
            op_cost = model.join_operator_cost(
                kind, left.rows, right.rows, out_rows
            )
            total = child_cost + op_cost
            if best is None or total < best[0]:
                best = (total, kind)

        # Index nested-loop: only when the inner is a bare table scan
        # whose lookup column is indexed; the inner scan cost vanishes.
        index_spec = self._index_join_spec(right.plan, names[0])
        if index_spec is not None:
            inner_table, inner_column, inner_filters = index_spec
            base_rows = float(
                self.query.catalog.table(inner_table).row_count)
            fetched = (
                left.rows * base_rows
                * model.selectivity(names[0], assignment)
            )
            op_cost = model.index_join_operator_cost(
                left.rows, fetched, len(inner_filters), out_rows
            )
            total = left.cost + op_cost
            if total < best[0]:
                plan = IndexNLJoin(left.plan, tuple(names), inner_table,
                                   inner_column, inner_filters)
                return _Entry(plan, total, out_rows, plan.signature())

        total, kind = best
        plan = kind(left.plan, right.plan, tuple(names))
        return _Entry(plan, total, out_rows, plan.signature())

    def _index_join_spec(self, inner_plan, primary_name):
        """(table, column, filters) when an index join is applicable."""
        if not isinstance(inner_plan, SeqScan):
            return None
        predicate = self.query.predicate(primary_name)
        if inner_plan.table not in predicate.tables:
            return None
        qualified = predicate.column_for(inner_plan.table)
        column = self.query.catalog.column(qualified)
        if not column.indexed:
            return None
        return inner_plan.table, column.name, inner_plan.filter_names

    def _connecting(self, left_tables, right_tables):
        """Join predicates linking two disjoint table sets, in query order."""
        found = []
        for join, left_bit, right_bit in self._join_masks:
            a, b = join.left_table, join.right_table
            if (a in left_tables and b in right_tables) or (
                b in left_tables and a in right_tables
            ):
                found.append(join)
        return found
