"""Backend-agnostic execution environment for discovery algorithms.

:class:`RowBackedEngine` exposes the same contract as
:class:`repro.engine.simulated.SimulatedEngine` but performs every
budgeted execution against *actual rows* through an
:class:`~repro.ir.contracts.IRBackend` -- the tuple-at-a-time
interpreter, the columnar engine or the sqlite SQL compiler -- with
run-time selectivity monitoring supplying the learning.

This powers the paper's §6.3 wall-clock experiment: the ESS, contours
and plan choices come from the cost model, while completion, expenditure
and learnt selectivities are measured on data whose true join
selectivities are hidden from the optimizer (and typically far from its
uniform-independence estimates -- that is the skew knob of
:mod:`repro.catalog.datagen`).

Cost-model imperfection is handled the way §7 prescribes: budgets are
inflated by a slack factor ``(1 + delta)`` covering the model error, and
the MSO guarantee inflates by ``(1 + delta)^2``.
"""

from repro.catalog.datagen import DatabaseSpec, true_join_selectivity
from repro.common.errors import ExecutionError
from repro.engine.simulated import RegularOutcome, SpillOutcome
from repro.ir.contracts import abort_observation


class RowBackedEngine:
    """Budgeted/spilled executions measured on real tuples.

    The execution substrate is chosen by ``backend`` (a name from
    :data:`repro.ir.backends.BACKENDS`: ``native``, ``vectorized`` or
    ``sqlite``) or, for callers that hold a class, ``executor_cls``;
    passing both is an error. ``database`` may be columnar arrays or a
    :class:`~repro.catalog.datagen.DatabaseSpec`, resolved against the
    space's catalog (that is what lets sweeps ship engines to worker
    processes).
    """

    def __init__(self, space, database, delta=0.5, params=None,
                 executor_cls=None, backend=None, fail=0.0, fail_seed=0):
        from repro.ir.backends import resolve_backend

        self.space = space
        self.query = space.query
        if isinstance(database, DatabaseSpec):
            database = database.resolve(space.query.catalog)
        if executor_cls is not None and backend is not None:
            raise ExecutionError(
                "pass either backend= or executor_cls=, not both")
        if executor_cls is None:
            executor_cls = resolve_backend(backend or "native")
        self.row_engine = executor_cls(
            database, space.query, params or space.cost_model.params
        )
        if fail:
            # Seeded backend outages (``row(backend=sqlite,fail=0.3)``):
            # the substrate itself goes away, which is what the serving
            # daemon's failover ladder recovers from.
            from repro.ir.faults import BackendFaultPlan, FaultyBackend

            self.row_engine = FaultyBackend(
                self.row_engine,
                BackendFaultPlan(fail_rate=fail, seed=fail_seed))
        self.database = database
        #: Cost-model error allowance; every budget is scaled by (1+delta).
        self.delta = delta
        self.qa_index = self._discover_truth()
        self._optimal_cost = None

    @property
    def backend_name(self):
        """Substrate name, as recorded in specs and obs traces."""
        return getattr(self.row_engine, "backend_name", "native")

    # ------------------------------------------------------------------

    def _discover_truth(self):
        """Grid location of the data's true epp selectivities.

        True join selectivities are measured directly on the base
        columns (valid under the paper's selectivity-independence
        assumption) and snapped to the nearest grid point.
        """
        index = []
        for d, epp in enumerate(self.query.epps):
            predicate = self.query.predicate(epp)
            left = self.database[predicate.left_table][predicate.left_column]
            right = self.database[predicate.right_table][
                predicate.right_column]
            sel = true_join_selectivity(left, right)
            index.append(self.space.grid.snap_log(d, sel))
        return tuple(index)

    @property
    def optimal_cost(self):
        """Metered cost of the model-optimal plan at the data's truth."""
        if self._optimal_cost is None:
            plan = self.space.optimal_plan(self.qa_index)
            result = self.row_engine.run(plan.tree, budget=None)
            self._optimal_cost = result.spent
        return self._optimal_cost

    def true_cost(self, plan_info):
        """Metered full-execution cost of a plan (unbudgeted)."""
        return self.row_engine.run(plan_info.tree, budget=None).spent

    # ------------------------------------------------------------------

    def execute(self, plan_info, budget):
        """Regular budgeted execution on rows."""
        allowed = budget * (1.0 + self.delta)
        result = self.row_engine.run(plan_info.tree, budget=allowed)
        return RegularOutcome(result.completed, result.spent)

    def execute_spill(self, plan_info, epp, node, budget):
        """Spill-mode execution on rows with live selectivity monitoring."""
        dim = self.query.epp_index(epp)
        allowed = budget * (1.0 + self.delta)
        result = self.row_engine.run(
            plan_info.tree, budget=allowed, spill_node_id=node.node_id
        )
        monitor = result.monitors.get(node.node_id)
        if result.completed and monitor is not None:
            learned = self.space.grid.snap_log(dim, monitor.selectivity)
            return SpillOutcome(True, result.spent, epp, dim, learned)
        # Partial run: the abort-time observations carried by
        # BudgetExhaustedError (threaded through ExecutionResult.observed)
        # give an approximate selectivity lower bound that discovery
        # algorithms receive via ExecutionRecord.learned; contour jumps
        # are still driven by completion.
        learned = -1
        observation = abort_observation(result, node.node_id)
        if observation is not None and observation[2]:
            left_total = max(observation[0], 1)
            right_total = max(observation[1], 1)
            sel_lb = observation[2] / (float(left_total) * right_total)
            learned = self.space.grid.snap_down(dim, max(sel_lb, 1e-300))
        return SpillOutcome(False, result.spent, epp, dim, learned)
