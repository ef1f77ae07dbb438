"""A demand-driven iterator backend over synthetic rows (paper §3.1.1).

This is the "intrusive engine change" half of the reproduction: a real
tuple-at-a-time executor (Volcano-style generators) with the three
capabilities the paper adds to PostgreSQL:

* **time-limited execution** -- a :class:`~repro.ir.contracts.CostMeter`
  charges every operator action with the same constants as the cost
  model and raises :class:`BudgetExhaustedError` the instant a budget
  expires;
* **spill-mode execution** -- the plan is truncated at a chosen node,
  whose output is drained, counted and discarded;
* **selectivity monitoring** -- every join node reports its input and
  output cardinalities, observed live, so partial executions still yield
  selectivity lower bounds.

The engine is an :class:`~repro.ir.contracts.IRBackend`: plan trees are
lowered to the relation-algebra IR (:mod:`repro.ir`) and the interpreter
dispatches on IR operators, so the same trees run unchanged on the
vectorized and sqlite backends. Rows are dicts keyed by qualified column
names; tables are columnar numpy arrays (see
:mod:`repro.catalog.datagen`). The executor is meant for mini-scale
catalogs -- the MSO studies run on the cost-model simulator, exactly as
the calibration note prescribes.
"""

import math

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

#: Back-compat alias -- the result type now lives in the IR layer.
RowRunResult = ExecutionResult


class RowEngine(IRBackend):
    """Executes finalised plan trees of one query against a database.

    ``query`` supplies predicate definitions (plan nodes reference
    predicates by name only); ``database`` maps table names to columnar
    numpy arrays. Abort granularity is per tuple: the meter raises the
    instant a charge crosses the budget.
    """

    backend_name = "native"

    def __init__(self, database, query, params=None):
        self.database = database
        self.query = query
        self.params = params or CostParams()
        #: Pre-built equality indexes, keyed (table, column); see
        #: :meth:`_table_index`.
        self._indexes = {}

    # ------------------------------------------------------------------

    def run(self, plan, budget=None, spill_node_id=None, keep_rows=False):
        """Execute ``plan`` (optionally truncated at ``spill_node_id``).

        Returns an :class:`ExecutionResult`; a budget abort is reported
        as ``completed=False`` with the partial monitors preserved.
        """
        monitors = {}
        meter = CostMeter(budget, observer=snapshot_monitors(monitors))
        root = plan if isinstance(plan, IRNode) else lower(plan, spill_node_id)
        out_rows = [] if keep_rows else None
        count = 0
        try:
            for row in self._open(root, meter, monitors):
                count += 1
                if keep_rows:
                    out_rows.append(row)
            return ExecutionResult(True, count, meter.spent, monitors,
                                   out_rows)
        except BudgetExhaustedError as exc:
            return ExecutionResult(False, count, meter.spent, monitors,
                                   out_rows, observed=exc.observed)

    def _compile_filter(self, name):
        predicate = self.query.predicate(name)
        column = predicate.column
        op = predicate.op
        constant = predicate.constant
        if op == "<":
            return lambda row: row[column] < constant
        if op == "<=":
            return lambda row: row[column] <= constant
        if op == ">":
            return lambda row: row[column] > constant
        if op == ">=":
            return lambda row: row[column] >= constant
        return lambda row: row[column] == constant

    # ------------------------------------------------------------------
    # operators (generators over IR nodes)

    def _open(self, node, meter, monitors):
        if isinstance(node, Scan):
            return self._scan(node, meter)
        if isinstance(node, Join):
            if node.strategy == "hash":
                return self._hash_join(node, meter, monitors)
            if node.strategy == "merge":
                return self._merge_join(node, meter, monitors)
            return self._nl_join(node, meter, monitors)
        if isinstance(node, IndexJoin):
            return self._index_nl_join(node, meter, monitors)
        if isinstance(node, Filter):
            return self._filter(node, meter, monitors)
        if isinstance(node, Project):
            return self._project(node, meter, monitors)
        if isinstance(node, SpillTruncate):
            # Truncation point: the child's rows flow to run(), which
            # counts (and, unless keep_rows, discards) them.
            return self._open(node.child, meter, monitors)
        raise ExecutionError("cannot execute node %r" % type(node).__name__)

    def _scan(self, node, meter):
        try:
            columns = self.database[node.table]
        except KeyError:
            raise ExecutionError(
                "database has no table %r" % node.table
            ) from None
        names = list(columns)
        arrays = [columns[n] for n in names]
        n_rows = len(arrays[0]) if arrays else 0
        width = sum(8 for _ in names)
        rows_per_page = max(1, 8192 // max(1, width))
        meter.charge(
            max(1, -(-n_rows // rows_per_page)) * self.params.seq_page_cost
        )
        filters = [self._compile_filter(name) for name in node.filter_names]
        qualified = ["%s.%s" % (node.table, n) for n in names]

        def generate():
            for i in range(n_rows):
                meter.charge(self.params.cpu_tuple_cost)
                row = {q: arrays[k][i] for k, q in enumerate(qualified)}
                ok = True
                for predicate in filters:
                    meter.charge(self.params.cpu_operator_cost)
                    if not predicate(row):
                        ok = False
                        break
                if ok:
                    meter.charge(self.params.output_cost)
                    yield row
        return generate()

    def _filter(self, node, meter, monitors):
        filters = [self._compile_filter(name) for name in node.filter_names]

        def generate():
            for row in self._open(node.child, meter, monitors):
                ok = True
                for predicate in filters:
                    meter.charge(self.params.cpu_operator_cost)
                    if not predicate(row):
                        ok = False
                        break
                if ok:
                    yield row
        return generate()

    def _project(self, node, meter, monitors):
        columns = node.columns

        def generate():
            for row in self._open(node.child, meter, monitors):
                yield {c: row[c] for c in columns}
        return generate()

    def _join_keys(self, node):
        """(left_cols, right_cols) key lists for the node's predicates."""
        left_tables = node.left.tables
        keys = []
        for name in node.predicate_names:
            predicate = self.query.predicate(name)
            if predicate.left_table in left_tables:
                keys.append((predicate.left, predicate.right))
            else:
                keys.append((predicate.right, predicate.left))
        return keys

    def _hash_join(self, node, meter, monitors):
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        keys = self._join_keys(node)
        build_key = [right for _left, right in keys]

        def generate():
            table = {}
            for row in self._open(node.right, meter, monitors):
                monitor.right_rows += 1
                meter.charge(self.params.hash_build_cost)
                key = tuple(row[c] for c in build_key)
                table.setdefault(key, []).append(row)
            monitor.right_done = True
            probe_key = [left for left, _right in keys]
            for row in self._open(node.left, meter, monitors):
                monitor.left_rows += 1
                meter.charge(self.params.hash_probe_cost)
                key = tuple(row[c] for c in probe_key)
                for match in table.get(key, ()):
                    meter.charge(self.params.output_cost)
                    monitor.out_rows += 1
                    merged = dict(row)
                    merged.update(match)
                    yield merged
            monitor.left_done = True
        return generate()

    def _merge_join(self, node, meter, monitors):
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        keys = self._join_keys(node)
        left_key = [left for left, _right in keys]
        right_key = [right for _left, right in keys]

        def sorted_side(child, key_cols, count_attr):
            rows = []
            for row in self._open(child, meter, monitors):
                setattr(monitor, count_attr,
                        getattr(monitor, count_attr) + 1)
                rows.append(row)
            n = len(rows)
            meter.charge(
                self.params.sort_factor * self.params.cpu_operator_cost
                * n * math.log2(max(n, 2))
            )
            rows.sort(key=lambda r: tuple(r[c] for c in key_cols))
            return rows

        def generate():
            left_rows = sorted_side(node.left, left_key, "left_rows")
            monitor.left_done = True
            right_rows = sorted_side(node.right, right_key, "right_rows")
            monitor.right_done = True
            li = 0
            ri = 0
            while li < len(left_rows) and ri < len(right_rows):
                meter.charge(self.params.cpu_operator_cost)
                lk = tuple(left_rows[li][c] for c in left_key)
                rk = tuple(right_rows[ri][c] for c in right_key)
                if lk < rk:
                    li += 1
                elif lk > rk:
                    ri += 1
                else:
                    # Emit the cross product of the equal-key groups.
                    lj = li
                    while lj < len(left_rows) and tuple(
                        left_rows[lj][c] for c in left_key
                    ) == lk:
                        lj += 1
                    rj = ri
                    while rj < len(right_rows) and tuple(
                        right_rows[rj][c] for c in right_key
                    ) == rk:
                        rj += 1
                    for a in range(li, lj):
                        for b in range(ri, rj):
                            meter.charge(self.params.output_cost)
                            monitor.out_rows += 1
                            merged = dict(left_rows[a])
                            merged.update(right_rows[b])
                            yield merged
                    li, ri = lj, rj
        return generate()

    def _index_nl_join(self, node, meter, monitors):
        """Per-outer-tuple index lookup into a base table.

        The lookup structure mirrors a pre-built disk index: it is
        constructed once per engine (cached, unmetered -- the index
        already exists), and each probe charges ``index_lookup_cost``.
        """
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        predicate = self.query.predicate(node.primary_predicate)
        outer_qualified = predicate.other_side(node.inner_table)
        index = self._table_index(node.inner_table, node.inner_column)
        monitor.right_rows = len(
            next(iter(self.database[node.inner_table].values()), ())
        )
        monitor.right_done = True
        inner_filters = [self._compile_filter(name)
                         for name in node.inner_filters]
        residuals = [self.query.predicate(name)
                     for name in node.predicate_names[1:]]

        def matches_residuals(merged):
            for residual in residuals:
                if merged[residual.left] != merged[residual.right]:
                    return False
            return True

        def generate():
            for outer_row in self._open(node.outer, meter, monitors):
                monitor.left_rows += 1
                meter.charge(self.params.index_lookup_cost)
                for inner_row in index.get(outer_row[outer_qualified], ()):
                    meter.charge(self.params.cpu_tuple_cost)
                    # The monitor counts primary-predicate matches (the
                    # fetched rows), so the observed selectivity is the
                    # lookup predicate's own, undiluted by inner filters.
                    monitor.out_rows += 1
                    ok = True
                    for predicate_fn in inner_filters:
                        meter.charge(self.params.cpu_operator_cost)
                        if not predicate_fn(inner_row):
                            ok = False
                            break
                    if not ok:
                        continue
                    merged = dict(outer_row)
                    merged.update(inner_row)
                    if residuals and not matches_residuals(merged):
                        continue
                    meter.charge(self.params.output_cost)
                    yield merged
            monitor.left_done = True
        return generate()

    def _table_index(self, table, column):
        """Build (and cache) an equality-lookup index over table rows."""
        cache = self._indexes
        key = (table, column)
        if key not in cache:
            try:
                columns = self.database[table]
            except KeyError:
                raise ExecutionError(
                    "database has no table %r" % table
                ) from None
            names = list(columns)
            qualified = ["%s.%s" % (table, n) for n in names]
            arrays = [columns[n] for n in names]
            n_rows = len(arrays[0]) if arrays else 0
            lookup = {}
            key_array = columns[column]
            for i in range(n_rows):
                row = {q: arrays[k][i] for k, q in enumerate(qualified)}
                lookup.setdefault(key_array[i], []).append(row)
            cache[key] = lookup
        return cache[key]

    def _nl_join(self, node, meter, monitors):
        monitor = monitors.setdefault(node.origin_id, JoinMonitor())
        keys = self._join_keys(node)

        def generate():
            inner = []
            for row in self._open(node.right, meter, monitors):
                monitor.right_rows += 1
                meter.charge(self.params.materialize_cost)
                inner.append(row)
            monitor.right_done = True
            for outer_row in self._open(node.left, meter, monitors):
                monitor.left_rows += 1
                for inner_row in inner:
                    meter.charge(self.params.nl_compare_cost)
                    if all(outer_row[lk] == inner_row[rk] for lk, rk in keys):
                        meter.charge(self.params.output_cost)
                        monitor.out_rows += 1
                        merged = dict(outer_row)
                        merged.update(inner_row)
                        yield merged
            monitor.left_done = True
        return generate()

