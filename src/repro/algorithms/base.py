"""Common result types and the abstract algorithm interface.

Every algorithm exposes :meth:`RobustAlgorithm.run`, which simulates the
full budgeted-execution sequence for one hidden true location and returns
a :class:`RunResult` whose ``sub_optimality`` is Eq. (3) of the paper:
total expended cost divided by the oracle cost at the truth.
"""

from repro.common.errors import DiscoveryError
from repro.engine.simulated import SimulatedEngine
from repro.obs.metrics import run_metrics
from repro.obs.tracer import NULL_TRACER


class ExecutionRecord:
    """One budgeted execution in a discovery sequence.

    ``mode`` is ``"regular"`` or ``"spill"``; ``epp`` names the spilled
    predicate for spill executions; ``learned`` carries the grid index
    learnt along the spilled dimension (exact on completion, a lower
    bound otherwise).
    """

    __slots__ = (
        "contour",
        "plan_id",
        "mode",
        "epp",
        "budget",
        "spent",
        "completed",
        "learned",
        "repeat",
    )

    def __init__(self, contour, plan_id, mode, epp, budget, spent,
                 completed, learned=None, repeat=False):
        self.contour = contour
        self.plan_id = plan_id
        self.mode = mode
        self.epp = epp
        self.budget = budget
        self.spent = spent
        self.completed = completed
        self.learned = learned
        self.repeat = repeat

    def as_event(self):
        """JSON-safe payload for an ``execution`` trace event."""
        return {
            "contour": int(self.contour),
            "plan_id": int(self.plan_id),
            "mode": self.mode,
            "epp": str(self.epp) if self.epp is not None else None,
            "budget": float(self.budget),
            "spent": float(self.spent),
            "completed": bool(self.completed),
            "learned": int(self.learned) if self.learned is not None
            else None,
            "repeat": bool(self.repeat),
        }

    def __repr__(self):
        flag = "+" if self.completed else "-"
        tag = "p" if self.mode == "spill" else "P"
        return "%s%d|IC%d|%.3g%s" % (
            tag, self.plan_id + 1, self.contour + 1, self.budget, flag
        )


class RunResult:
    """Outcome of one full discovery run at a hidden truth."""

    __slots__ = (
        "algorithm",
        "qa_index",
        "total_cost",
        "optimal_cost",
        "executions",
        "extras",
    )

    def __init__(self, algorithm, qa_index, total_cost, optimal_cost,
                 executions, extras=None):
        self.algorithm = algorithm
        self.qa_index = qa_index
        self.total_cost = total_cost
        self.optimal_cost = optimal_cost
        self.executions = executions
        #: Algorithm-specific instrumentation (e.g. AlignedBound's
        #: maximum partition penalty).
        self.extras = extras or {}

    @property
    def sub_optimality(self):
        """Eq. (3): expended cost over oracle cost."""
        return self.total_cost / self.optimal_cost

    @property
    def num_executions(self):
        return len(self.executions)

    def __repr__(self):
        return "RunResult(%s, qa=%s, subopt=%.2f, execs=%d)" % (
            self.algorithm,
            self.qa_index,
            self.sub_optimality,
            self.num_executions,
        )


def engine_label(engine):
    """Execution-substrate label for obs traces.

    Walks the engine wrapper chain (``FaultyEngine.base``,
    ``DeadlineEngine.engine``) to the first layer that declares a
    ``backend_name`` -- the IR backend contract's substrate name. A
    bare ``None`` engine (cost-model table lookup) and simulated-family
    engines both report ``"simulated"``.
    """
    seen = set()
    while engine is not None and id(engine) not in seen:
        seen.add(id(engine))
        name = getattr(engine, "backend_name", None)
        if name is not None:
            return name
        engine = getattr(engine, "base", None) \
            or getattr(engine, "engine", None)
    return "simulated"


def begin_traced_run(tracer, name, qa_index, engine):
    """Open a traced run's bracket and hand ``tracer`` to its engines.

    Engines delegate to wrapped inner engines (``FaultyEngine.base``,
    ``DeadlineEngine.engine``); every layer that can emit events gets
    the run's sink. Slotted wrappers without a ``tracer`` slot are
    skipped silently.
    """
    layer, seen = engine, set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        try:
            layer.tracer = tracer
        except AttributeError:
            pass
        layer = getattr(layer, "base", None) \
            or getattr(layer, "engine", None)
    tracer.begin_run(name, qa_index, engine=engine_label(engine))


def end_traced_run(tracer, result):
    """Attach a finished run's metrics snapshot to ``extras["obs"]``
    and close its bracket with the run's totals."""
    result.extras["obs"] = run_metrics(result).snapshot()
    tracer.end_run(
        algorithm=result.algorithm,
        total_cost=float(result.total_cost),
        optimal_cost=float(result.optimal_cost),
        sub_optimality=float(result.sub_optimality),
        executions=result.num_executions,
    )


class RobustAlgorithm:
    """Base class: holds the space and provides the engine factory.

    An instance holds no per-run state: a run's engine, checkpoint and
    trace sink are arguments of :meth:`run`, so one run's events never
    land in another run's trace.
    """

    #: Short name used in reports; subclasses override.
    name = "abstract"

    def __init__(self, space):
        if not space.built:
            raise DiscoveryError("exploration space must be built first")
        self.space = space

    @staticmethod
    def _trace_run_end(result, tracer):
        """Record a finished single-execution run (native/oracle
        baselines) at run end; no-op when untraced."""
        if tracer.enabled:
            for record in result.executions:
                tracer.event("execution", **record.as_event())
            end_traced_run(tracer, result)
        return result

    def engine_for(self, qa_index):
        """Create a fresh engine hiding ``qa_index`` as the truth."""
        return SimulatedEngine(self.space, qa_index)

    def run(self, qa_index, engine=None, checkpoint=None,
            tracer=NULL_TRACER):
        """Simulate the discovery sequence for truth ``qa_index``.

        ``engine`` optionally substitutes a different execution
        environment (e.g. the row-level executor) for the default
        cost-model simulation. ``checkpoint`` optionally snapshots
        certified discovery state as the run progresses (see
        :mod:`repro.robustness.checkpoint`); an *active* checkpoint
        additionally seeds the run so it resumes from the recorded
        contour instead of re-learning from contour 1. Capturing is
        passive: with an empty checkpoint the execution sequence is
        identical to a checkpoint-free run. ``tracer`` receives this
        run's events (and is handed to its engines); the default
        :data:`~repro.obs.tracer.NULL_TRACER` costs one attribute check
        per instrumentation site and allocates no event payloads.
        """
        raise NotImplementedError

    def mso_guarantee(self):
        """The a-priori MSO bound this algorithm promises, if any."""
        return None
