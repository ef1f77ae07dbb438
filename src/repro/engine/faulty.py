"""Deterministic, seeded fault injection for discovery runs.

The MSO guarantees assume a flawless execution substrate; §7 only covers
bounded cost-model error (:class:`repro.engine.noisy.NoisyEngine`). A
production engine additionally crashes mid-execution, loses run-time
monitor observations, and drifts its budget meter. :class:`FaultyEngine`
makes those adversities reproducible so the graceful-degradation layer
(:mod:`repro.robustness`) can be *measured under adversity* rather than
only proven under ideal assumptions.

Fault kinds (all declared on a :class:`FaultPlan`, all seeded):

* **transient** -- the execution fails before spending anything and
  raises :class:`TransientEngineError`; resubmission may succeed.
* **crash** -- the engine dies mid-execution: a fraction of the
  execution's expenditure is irrecoverably lost, the monitor state with
  it (*no* learned selectivity), and :class:`EngineCrashError` aborts
  the whole discovery run.
* **corruption** -- the run-time monitor of a spill execution reports a
  stale or garbage ``learned_index``; the execution itself "succeeds",
  so only invariant validation can catch it downstream.
* **drift** -- the budget meter over-reports ``spent``, inflating it
  beyond the nominal budget; pure accounting damage.

Faults compose with cost-model noise: pass a :class:`NoisyEngine`
(or any engine honouring the same contract and hiding the same truth)
as ``base`` and the fault layer perturbs *its* outcomes.

Decisions come from the shared seeded primitive
(:class:`repro.common.faults.SeededFaultPlan`): they are drawn from
``default_rng((plan.seed, call_ordinal))`` so a given (plan, call
sequence) pair is exactly reproducible, while retried executions see
fresh draws (the ordinal advances) -- matching real transient faults,
which do not chase a resubmitted query forever. :class:`FaultyEngine`
applies :meth:`FaultPlan.fault_at` decisions; it draws nothing itself.
"""

from repro.common.errors import (
    DiscoveryError,
    EngineCrashError,
    TransientEngineError,
)
from repro.common.faults import SeededFaultPlan
from repro.engine.simulated import SimulatedEngine

#: Bounds of the uniformly drawn fraction of an execution's expenditure
#: that is lost when a crash fault fires.
CRASH_SPEND_LO = 0.05
CRASH_SPEND_HI = 0.95


class FaultPlan(SeededFaultPlan):
    """Declarative description of the engine adversity to inject.

    Rates are independent per-execution probabilities in ``[0, 1]``.
    ``drift_factor`` bounds the multiplicative meter inflation (drawn
    uniformly from ``[1, drift_factor]``). ``crash_on_calls`` /
    ``transient_on_calls`` force the respective fault at specific call
    ordinals (1-based), regardless of the rates -- used for targeted
    tests and crash-at-contour-k reproductions.
    """

    RATES = {"crash": "crash_rate", "transient": "transient_rate",
             "corrupt": "corruption_rate", "drift": "drift_rate"}
    PARAMS = {"drift_factor": (1.5, 1.0)}
    FORCED = {"crash": "crash_on_calls", "transient": "transient_on_calls"}

    def fault_at(self, ordinal, mode="execute", resolution=None):
        """The decision the engine takes at call ``ordinal``.

        Draw order: transient, then crash (plus its lost-spend
        fraction), then for spill executions the monitor corruption
        (plus the corrupted index, which needs the dimension's
        ``resolution``), then meter drift -- a transient consumes no
        further draws and a crash aborts before drift. Returns a
        JSON-safe dict with ``call``, ``fault`` (``"transient"``,
        ``"crash"``, ``"corrupt"``, ``"drift"`` or ``None``) and the
        fault's drawn parameters; a corrupted spill can also drift.
        """
        if mode not in ("execute", "spill"):
            raise ValueError("mode must be 'execute' or 'spill'")
        if mode == "spill" and self.corruption_rate > 0.0 \
                and resolution is None:
            raise ValueError(
                "spill schedules with corruption need resolution=")
        rng = self._rng(ordinal)
        if self._fires("transient", rng, ordinal):
            return {"call": ordinal, "fault": "transient"}
        if self._fires("crash", rng, ordinal):
            fraction = rng.uniform(CRASH_SPEND_LO, CRASH_SPEND_HI)
            return {"call": ordinal, "fault": "crash",
                    "spend_fraction": float(fraction)}
        decision = {"call": ordinal, "fault": None}
        if mode == "spill" and self._fires("corrupt", rng, ordinal):
            decision["fault"] = "corrupt"
            decision["learned_index"] = int(
                rng.integers(-1, int(resolution)))
        if self._fires("drift", rng, ordinal):
            factor = rng.uniform(1.0, self.drift_factor)
            if decision["fault"] is None:
                decision["fault"] = "drift"
            decision["drift_factor"] = float(factor)
        return decision


class FaultyEngine(SimulatedEngine):
    """Execution environment that injects :class:`FaultPlan` adversity.

    ``base`` optionally supplies the underlying execution semantics
    (e.g. a :class:`repro.engine.noisy.NoisyEngine` hiding the same
    truth); without it the clean cost-model simulation is used. Fault
    decisions never depend on the base engine, so the same plan injects
    the same adversity with and without cost noise.
    """

    def __init__(self, space, qa_index, plan=None, base=None):
        super().__init__(space, qa_index)
        self.plan = plan or FaultPlan()
        if base is not None and tuple(base.qa_index) != self.qa_index:
            raise DiscoveryError(
                "base engine hides a different truth than the fault layer")
        self.base = base
        #: 1-based ordinal of the next budgeted execution; drives the
        #: per-call fault RNG and the ``*_on_calls`` triggers.
        self.calls = 0

    # ------------------------------------------------------------------

    def sound(self):
        """The fault-free engine underneath (for degraded fallbacks)."""
        return self.base if self.base is not None \
            else SimulatedEngine(self.space, self.qa_index)

    @property
    def optimal_cost(self):
        if self.base is not None:
            return self.base.optimal_cost
        return super().optimal_cost

    def true_cost(self, plan_info):
        if self.base is not None:
            return self.base.true_cost(plan_info)
        return super().true_cost(plan_info)

    # ------------------------------------------------------------------

    def _decide(self, mode, epp=None):
        """Advance the call ordinal and take the plan's decision for it;
        a transient fires here, before anything is spent."""
        self.calls += 1
        resolution = None
        if mode == "spill":
            dim = self.space.query.epp_index(epp)
            resolution = len(self.space.grid.values[dim])
        decision = self.plan.fault_at(self.calls, mode=mode,
                                      resolution=resolution)
        if decision["fault"] == "transient":
            if self.tracer.enabled:
                self.tracer.event("fault", kind="transient", call=self.calls)
            raise TransientEngineError(
                "injected transient failure at call %d" % self.calls)
        return decision

    def _apply(self, decision, outcome):
        """Apply the decision's post-execution faults to ``outcome``."""
        ordinal = decision["call"]
        if decision["fault"] == "crash":
            lost = decision["spend_fraction"] * outcome.spent
            if self.tracer.enabled:
                self.tracer.event("fault", kind="crash", call=ordinal,
                                  lost=float(lost))
            raise EngineCrashError(
                "injected crash at call %d" % ordinal, spent=lost)
        if decision["fault"] == "corrupt":
            # Stale/garbage monitor readout: any index in [-1, res-1],
            # independent of what the execution actually certified.
            outcome.learned_index = decision["learned_index"]
            if self.tracer.enabled:
                self.tracer.event("fault", kind="corrupt", call=ordinal,
                                  learned_index=outcome.learned_index)
        if "drift_factor" in decision:
            outcome.spent *= decision["drift_factor"]
            if self.tracer.enabled:
                self.tracer.event("fault", kind="drift", call=ordinal,
                                  factor=decision["drift_factor"])
        return outcome

    # ------------------------------------------------------------------

    def execute(self, plan_info, budget):
        decision = self._decide("execute")
        inner = self.base if self.base is not None \
            else super(FaultyEngine, self)
        return self._apply(decision, inner.execute(plan_info, budget))

    def execute_spill(self, plan_info, epp, node, budget):
        decision = self._decide("spill", epp)
        inner = self.base if self.base is not None \
            else super(FaultyEngine, self)
        return self._apply(
            decision, inner.execute_spill(plan_info, epp, node, budget))
