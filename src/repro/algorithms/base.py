"""Common result types, the algorithm interface and the discovery driver.

Every algorithm exposes :meth:`RobustAlgorithm.run`, which simulates the
full budgeted-execution sequence for one hidden true location and returns
a :class:`RunResult` whose ``sub_optimality`` is Eq. (3) of the paper:
total expended cost divided by the oracle cost at the truth.

The contour algorithms (PlanBouquet, SpillBound, AlignedBound) climb the
same doubling contour ladder and differ only in which plans run on a
contour. Each answers one question, :meth:`RobustAlgorithm.choose`:
given the contour, the exactly learnt dimensions and the remaining epps,
which steps ``(plan, mode, epp, node, budget)`` run, in what order? One
driver, the inherited :meth:`RobustAlgorithm.run`, executes the steps:
it runs each on the run's engine, charges the record, learns, syncs the
checkpoint and emits the trace events. The answer depends on the state
alone, so the driver memoizes it per instance. The native and oracle
baselines run one unbudgeted execution each instead.
"""

import math

from repro.common.errors import DiscoveryError
from repro.common.lru import MEMO_ROWS, BoundedCache
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


def engine_layers(engine):
    """Each layer of an engine wrapper chain, outermost first.

    A proxy's own wrapped ``engine`` (``DeadlineEngine``,
    ``LatencyEngine``) is read before ``base`` (``FaultyEngine``): a
    proxy's ``__getattr__`` answers ``base`` from the layer it wraps,
    which would skip that layer.
    """
    seen = set()
    while engine is not None and id(engine) not in seen:
        seen.add(id(engine))
        yield engine
        engine = getattr(engine, "engine", None) \
            or getattr(engine, "base", None)


def engine_label(engine):
    """Execution-substrate label for obs traces.

    The first layer of :func:`engine_layers` that declares a
    ``backend_name`` -- the IR backend contract's substrate name. A
    bare ``None`` engine (cost-model table lookup) and simulated-family
    engines both report ``"simulated"``.
    """
    for layer in engine_layers(engine):
        name = getattr(layer, "backend_name", None)
        if name is not None:
            return name
    return "simulated"


def begin_traced_run(tracer, name, qa_index, engine):
    """Open a traced run's bracket and hand ``tracer`` to its engines.

    Every layer of :func:`engine_layers` that can emit events gets the
    run's sink. Slotted wrappers without a ``tracer`` slot are skipped
    silently.
    """
    for layer in engine_layers(engine):
        try:
            layer.tracer = tracer
        except AttributeError:
            pass
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
    """Base class: the space, the engine factory and the discovery driver.

    An instance holds no per-run state: a run's engine, checkpoint and
    trace sink are arguments of :meth:`run`, so one run's events never
    land in another run's trace, and one instance serves many runs at
    once. What it keeps across runs is keyed by discovery state:
    :meth:`run` memoizes each state's :meth:`choose` answer, so the
    choice is paid once per state, not once per run.
    """

    #: Short name used in reports; subclasses override.
    name = "abstract"

    def __init__(self, space):
        if not space.built:
            raise DiscoveryError("exploration space must be built first")
        self.space = space
        #: :meth:`_state_key` -> per contour (and one past the last),
        #: that state's :meth:`choose` answer or ``None`` before it is
        #: first asked; at most :data:`MEMO_ROWS` rows. Nesting shares
        #: each (resolved, remaining) key across the contours it climbs.
        self._choices = BoundedCache(MEMO_ROWS)
        #: Each distinct answer once: the many states that choose alike
        #: (most choose nothing, or one 1-D step) share one tuple.
        self._answers = BoundedCache(MEMO_ROWS)
        self._epp_bits = {epp: 1 << d
                          for d, epp in enumerate(space.query.epps)}

    def engine_for(self, qa_index):
        """Create a fresh engine hiding ``qa_index`` as the truth."""
        return SimulatedEngine(self.space, qa_index)

    # ------------------------------------------------------------------
    # the step choice

    def choose(self, contour, resolved, remaining):
        """The steps that run on ``contour`` in one discovery state.

        ``resolved`` maps each exactly learnt dimension to its grid
        index and ``remaining`` is the frozenset of unlearnt epps.
        Returns ``(steps, partition)``: ``steps`` is a tuple of ``(plan,
        mode, epp, node, budget)`` in execution order, and ``partition`` is
        ``None`` or AlignedBound's ``(penalty, parts)``. The state one
        past the last contour asks for the terminal step. The answer
        depends on the state alone, so :meth:`run` memoizes it.
        """
        raise NotImplementedError

    def _state_key(self, resolved, remaining):
        """A plain int naming the discovery state (exactly learnt dims
        and their indices, remaining epps): the memo row's key."""
        bits = self._epp_bits
        return self.contours.pin_key(resolved) << len(bits) \
            | sum(bits[epp] for epp in remaining)

    def _ordered(self, steps, qa_index):
        """The order in which this run executes a choice's steps."""
        return steps

    def _advance_fields(self, contour, state):
        """Payload of a ``contour-advance`` event."""
        return {"remaining": sorted(state.remaining),
                "resolved": len(state.resolved)}

    # ------------------------------------------------------------------
    # the driver

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

        The driver climbs the contour ladder executing each state's
        steps: a completed regular step ends the run; a completed spill
        step learns its epp exactly and re-enters the contour; a failed
        spill step certifies a lower bound and the pass goes on; a
        contour whose steps all fail moves the run up the ladder. Past
        the last contour the terminal step must complete.
        """
        qa_index = tuple(qa_index)
        engine = engine or self.engine_for(qa_index)
        if tracer.enabled:
            begin_traced_run(tracer, self.name, qa_index, engine)
        state = _DiscoveryState(self.space, checkpoint, tracer)
        last = len(self.contours) - 1
        i = 0
        if checkpoint is not None and checkpoint.active:
            i = min(checkpoint.restore(state), last)
        table = None  # this state's memo row; reset by each learning
        while True:
            if i <= last:
                if tracer.enabled and i != state.contour:
                    tracer.event("contour-advance", contour=i,
                                 **self._advance_fields(i, state))
                state.sync(i)
            if table is None:
                remaining = frozenset(state.remaining)
                key = self._state_key(state.resolved, remaining)
                table = self._choices.get(key)
                if table is None:
                    table = self._choices.setdefault(key,
                                                     [None] * (last + 2))
            choice = table[i]
            if choice is None:
                choice = self.choose(i, state.resolved, remaining)
                choice = table[i] = self._answers.setdefault(choice, choice)
            steps, partition = choice
            contour = min(i, last)
            if partition is not None:
                state.note_partition(contour, *partition)
            for plan, mode, epp, node, budget in self._ordered(
                    steps, qa_index):
                spill = mode == "spill"
                repeat = spill and (contour, epp) in state.executed
                if spill:
                    state.executed.add((contour, epp))
                    outcome = engine.execute_spill(plan, epp, node, budget)
                else:
                    outcome = engine.execute(plan, budget)
                state.charge(ExecutionRecord(
                    contour, plan.id, mode, epp, budget, outcome.spent,
                    outcome.completed,
                    outcome.learned_index if spill else None, repeat))
                if not spill:
                    if outcome.completed:
                        return state.result(self.name, qa_index, engine)
                elif outcome.completed:
                    state.learn_exact(outcome.dim, epp,
                                      outcome.learned_index)
                    state.sync(contour)
                    table = None
                    break  # re-enter the contour with one epp fewer
                else:
                    state.learn_bound(outcome.dim, outcome.learned_index)
                    state.sync(contour)
            else:
                if i > last:
                    raise DiscoveryError("terminal execution failed: "
                                         "cost surface violates PCM")
                i += 1

    def _single_run(self, qa_index, plan, engine, tracer):
        """One unbudgeted execution of ``plan`` (the native and oracle
        baselines): on ``engine`` when given, else read off the plan's
        cost surface."""
        qa_index = tuple(qa_index)
        if tracer.enabled:
            begin_traced_run(tracer, self.name, qa_index, engine)
        if engine is not None:
            cost = engine.execute(plan, float("inf")).spent
            optimal = engine.optimal_cost
        else:
            cost = float(plan.cost[qa_index])
            optimal = self.space.optimal_cost(qa_index)
        record = ExecutionRecord(-1, plan.id, "regular", None, cost, cost,
                                 True)
        result = RunResult(self.name, qa_index, cost, optimal, [record])
        if tracer.enabled:
            tracer.event("execution", **record.as_event())
            end_traced_run(tracer, result)
        return result

    def mso_guarantee(self):
        """The a-priori MSO bound this algorithm promises, if any."""
        return None


class _DiscoveryState:
    """One run's mutable bookkeeping: what it learnt, spent and ran."""

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
        self.contour = contour
        if self.checkpoint is not None:
            self.checkpoint.capture(
                contour,
                resolved=self.resolved,
                qrun=self.qrun,
                remaining=self.remaining,
                executed=self.executed,
            )

    def note_partition(self, contour, penalty, parts):
        """Record the PSA partition a contour pass executes."""
        self.extras["max_penalty"] = max(
            self.extras.get("max_penalty", 0.0), penalty)
        if self.tracer.enabled:
            self.tracer.event(
                "psa-partition", contour=contour,
                parts=[{"leader": leader, "native": native,
                        "penalty": part_penalty}
                       for leader, native, part_penalty in parts],
                penalty=penalty)

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
