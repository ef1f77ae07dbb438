"""Columnar (numpy) backend: the row executor's fast sibling.

Implements the same IR operators with the same cost algebra as
:class:`repro.executor.runtime.RowEngine`, but processes whole columns
per operator instead of tuple-at-a-time generators. A completed run
spends the same metered cost as the row engine up to the merge join's
loop-iteration charge (approximated as ``n_left + n_right``); only
budget-abort behaviour differs in granularity -- the vector engine
checks budgets at operator and probe-chunk boundaries rather than per
tuple.

Like the row engine it is an :class:`~repro.ir.contracts.IRBackend`:
plan trees are lowered to the relation-algebra IR and evaluation
dispatches on IR operators. Intermediates are columnar dicts (qualified
column name -> ndarray). Equi-join matching uses sort + binary search
(``_match_indices``); residual predicates filter matched pairs
afterwards.
"""

import math

import numpy as np

from repro.common.errors import BudgetExhaustedError, ExecutionError
from repro.cost.params import CostParams
from repro.ir.contracts import (
    CostMeter,
    ExecutionResult,
    IRBackend,
    JoinMonitor,
    snapshot_monitors,
)
from repro.ir.lower import lower
from repro.ir.nodes import (
    Filter,
    IndexJoin,
    IRNode,
    Join,
    Project,
    Scan,
    SpillTruncate,
)

#: Probe-side chunk size between budget checks inside join operators.
CHUNK = 4096


def _match_indices(left_keys, right_keys):
    """All matching index pairs of an equi-join, as (li, ri) arrays."""
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    order = np.argsort(right_keys, kind="stable")
    sorted_right = right_keys[order]
    lo = np.searchsorted(sorted_right, left_keys, side="left")
    hi = np.searchsorted(sorted_right, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    li = np.repeat(np.arange(left_keys.size), counts)
    starts = np.repeat(lo, counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    ri = order[starts + (np.arange(total) - bases)]
    return li, ri


class VectorEngine(IRBackend):
    """Columnar executor over a numpy database."""

    backend_name = "vectorized"

    def __init__(self, database, query, params=None):
        self.database = database
        self.query = query
        self.params = params or CostParams()

    # ------------------------------------------------------------------

    def run(self, plan, budget=None, spill_node_id=None, keep_rows=False):
        """Execute ``plan`` (optionally truncated at a spill node)."""
        monitors = {}
        meter = CostMeter(budget, observer=snapshot_monitors(monitors))
        root = plan if isinstance(plan, IRNode) else lower(plan, spill_node_id)
        try:
            columns = self._eval(root, meter, monitors)
            count = _batch_len(columns)
            rows = None
            if keep_rows:
                names = list(columns)
                rows = [
                    {name: columns[name][i] for name in names}
                    for i in range(count)
                ]
            return ExecutionResult(True, count, meter.spent, monitors, rows)
        except BudgetExhaustedError as exc:
            return ExecutionResult(False, 0, meter.spent, monitors, None,
                                   observed=exc.observed)

    # ------------------------------------------------------------------
    # operators

    def _eval(self, node, meter, monitors):
        if isinstance(node, Scan):
            return self._scan(node, meter)
        if isinstance(node, Join):
            if node.strategy == "hash":
                return self._hash_join(node, meter, monitors)
            if node.strategy == "merge":
                return self._merge_join(node, meter, monitors)
            return self._nl_join(node, meter, monitors)
        if isinstance(node, IndexJoin):
            return self._index_join(node, meter, monitors)
        if isinstance(node, Filter):
            return self._filter(node, meter, monitors)
        if isinstance(node, Project):
            return self._project(node, meter, monitors)
        if isinstance(node, SpillTruncate):
            # Truncation point: the child's batch surfaces to run(),
            # which counts (and, unless keep_rows, discards) it.
            return self._eval(node.child, meter, monitors)
        raise ExecutionError(
            "cannot execute node %r" % type(node).__name__)

    def _scan(self, node, meter):
        try:
            table = self.database[node.table]
        except KeyError:
            raise ExecutionError(
                "database has no table %r" % node.table) from None
        names = list(table)
        n_rows = len(table[names[0]]) if names else 0
        width = 8 * len(names)
        rows_per_page = max(1, 8192 // max(1, width))
        params = self.params
        meter.charge(max(1, -(-n_rows // rows_per_page))
                     * params.seq_page_cost)
        meter.charge(n_rows * params.cpu_tuple_cost)
        mask = np.ones(n_rows, dtype=bool)
        for name in node.filter_names:
            # Mirrors the row engine's short-circuit charging: rows
            # already rejected by earlier filters are not re-tested.
            meter.charge(int(mask.sum()) * params.cpu_operator_cost)
            predicate = self.query.predicate(name)
            mask &= _apply_filter(table[predicate.column_name],
                                  predicate.op, predicate.constant)
        out = {
            "%s.%s" % (node.table, name): values[mask]
            for name, values in table.items()
        }
        meter.charge(_batch_len(out) * params.output_cost)
        return out

    def _filter(self, node, meter, monitors):
        batch = self._eval(node.child, meter, monitors)
        params = self.params
        mask = np.ones(_batch_len(batch), dtype=bool)
        for name in node.filter_names:
            meter.charge(int(mask.sum()) * params.cpu_operator_cost)
            predicate = self.query.predicate(name)
            mask &= _apply_filter(batch[predicate.column],
                                  predicate.op, predicate.constant)
        return {name: values[mask] for name, values in batch.items()}

    def _project(self, node, meter, monitors):
        batch = self._eval(node.child, meter, monitors)
        return {name: batch[name] for name in node.columns}

    def _join_columns(self, node):
        left_tables = node.left.tables
        pairs = []
        for name in node.predicate_names:
            predicate = self.query.predicate(name)
            if predicate.left_table in left_tables:
                pairs.append((predicate.left, predicate.right))
            else:
                pairs.append((predicate.right, predicate.left))
        return pairs

    def _emit_pairs(self, left, right, li, ri, pairs, meter, monitor):
        """Residual filtering + merged output assembly + charging."""
        for l_col, r_col in pairs[1:]:
            keep = left[l_col][li] == right[r_col][ri]
            li, ri = li[keep], ri[keep]
        meter.charge(li.size * self.params.output_cost)
        monitor.out_rows += int(li.size)
        merged = {name: values[li] for name, values in left.items()}
        merged.update(
            {name: values[ri] for name, values in right.items()})
        return merged

    def _hash_join(self, node, meter, monitors):
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        params = self.params
        right = self._eval(node.right, meter, monitors)
        n_right = _batch_len(right)
        meter.charge(n_right * params.hash_build_cost)
        monitor.right_rows = n_right
        monitor.right_done = True
        left = self._eval(node.left, meter, monitors)
        n_left = _batch_len(left)
        pairs = self._join_columns(node)
        l_col, r_col = pairs[0]
        out_chunks = []
        for start in range(0, max(n_left, 1), CHUNK):
            chunk = slice(start, min(start + CHUNK, n_left))
            size = chunk.stop - chunk.start
            if size <= 0:
                break
            meter.charge(size * params.hash_probe_cost)
            monitor.left_rows += size
            li, ri = _match_indices(left[l_col][chunk], right[r_col])
            piece = self._emit_pairs(
                _slice_batch(left, chunk), right, li, ri, pairs,
                meter, monitor)
            out_chunks.append(piece)
        monitor.left_done = True
        return _concat_batches(out_chunks, left, right)

    def _merge_join(self, node, meter, monitors):
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        params = self.params
        left = self._eval(node.left, meter, monitors)
        n_left = _batch_len(left)
        meter.charge(params.sort_factor * params.cpu_operator_cost
                     * n_left * math.log2(max(n_left, 2)))
        monitor.left_rows = n_left
        monitor.left_done = True
        right = self._eval(node.right, meter, monitors)
        n_right = _batch_len(right)
        meter.charge(params.sort_factor * params.cpu_operator_cost
                     * n_right * math.log2(max(n_right, 2)))
        monitor.right_rows = n_right
        monitor.right_done = True
        pairs = self._join_columns(node)
        l_col, r_col = pairs[0]
        meter.charge((n_left + n_right) * params.cpu_operator_cost)
        li, ri = _match_indices(left[l_col], right[r_col])
        return self._emit_pairs(left, right, li, ri, pairs, meter,
                                monitor)

    def _nl_join(self, node, meter, monitors):
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        params = self.params
        right = self._eval(node.right, meter, monitors)
        n_right = _batch_len(right)
        meter.charge(n_right * params.materialize_cost)
        monitor.right_rows = n_right
        monitor.right_done = True
        left = self._eval(node.left, meter, monitors)
        n_left = _batch_len(left)
        pairs = self._join_columns(node)
        l_col, r_col = pairs[0]
        out_chunks = []
        for start in range(0, max(n_left, 1), CHUNK):
            chunk = slice(start, min(start + CHUNK, n_left))
            size = chunk.stop - chunk.start
            if size <= 0:
                break
            meter.charge(size * n_right * params.nl_compare_cost)
            monitor.left_rows += size
            li, ri = _match_indices(left[l_col][chunk], right[r_col])
            piece = self._emit_pairs(
                _slice_batch(left, chunk), right, li, ri, pairs,
                meter, monitor)
            out_chunks.append(piece)
        monitor.left_done = True
        return _concat_batches(out_chunks, left, right)

    def _index_join(self, node, meter, monitors):
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        params = self.params
        outer = self._eval(node.outer, meter, monitors)
        n_outer = _batch_len(outer)
        try:
            inner_table = self.database[node.inner_table]
        except KeyError:
            raise ExecutionError(
                "database has no table %r" % node.inner_table) from None
        inner = {
            "%s.%s" % (node.inner_table, name): values
            for name, values in inner_table.items()
        }
        n_inner = _batch_len(inner)
        monitor.right_rows = n_inner
        monitor.right_done = True
        predicate = self.query.predicate(node.primary_predicate)
        outer_col = predicate.other_side(node.inner_table)
        inner_col = "%s.%s" % (node.inner_table, node.inner_column)
        out_chunks = []
        for start in range(0, max(n_outer, 1), CHUNK):
            chunk = slice(start, min(start + CHUNK, n_outer))
            size = chunk.stop - chunk.start
            if size <= 0:
                break
            meter.charge(size * params.index_lookup_cost)
            monitor.left_rows += size
            li, ri = _match_indices(outer[outer_col][chunk],
                                    inner[inner_col])
            meter.charge(li.size * params.cpu_tuple_cost)
            monitor.out_rows += int(li.size)
            keep = np.ones(li.size, dtype=bool)
            for name in node.inner_filters:
                meter.charge(int(keep.sum()) * params.cpu_operator_cost)
                filt = self.query.predicate(name)
                keep &= _apply_filter(
                    inner["%s.%s" % (node.inner_table,
                                     filt.column_name)][ri],
                    filt.op, filt.constant)
            li, ri = li[keep], ri[keep]
            for name in node.predicate_names[1:]:
                residual = self.query.predicate(name)
                ok = (_slice_batch(outer, chunk)[residual.left][li]
                      == inner[residual.right][ri]) \
                    if residual.left in outer else \
                    (_slice_batch(outer, chunk)[residual.right][li]
                     == inner[residual.left][ri])
                li, ri = li[ok], ri[ok]
            meter.charge(li.size * params.output_cost)
            piece = {
                name: values[chunk][li]
                for name, values in outer.items()
            }
            piece.update({name: values[ri] for name, values in
                          inner.items()})
            out_chunks.append(piece)
        monitor.left_done = True
        return _concat_batches(out_chunks, outer, inner)


# ----------------------------------------------------------------------
# batch helpers


def _batch_len(columns):
    for values in columns.values():
        return len(values)
    return 0


def _slice_batch(columns, chunk):
    return {name: values[chunk] for name, values in columns.items()}


def _apply_filter(values, op, constant):
    if op == "<":
        return values < constant
    if op == "<=":
        return values <= constant
    if op == ">":
        return values > constant
    if op == ">=":
        return values >= constant
    return values == constant


def _concat_batches(chunks, left, right):
    names = list(left) + [n for n in right if n not in left]
    if not chunks:
        return {name: np.empty(0, dtype=np.int64) for name in names}
    return {
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name in names
    }

