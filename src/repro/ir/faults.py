"""Seeded fault injection for IR execution backends.

The engine-level :class:`~repro.engine.faulty.FaultPlan` injects
adversity at the *engine* contract (crashes with partial spend,
transients, monitor corruption); this module injects it one layer down, at the
:class:`~repro.ir.contracts.IRBackend` boundary -- the substrate itself
(sqlite, the vectorized engine) going away mid-service. That is the
failure mode the serving daemon's backend-failover ladder exists for:
an unavailable backend is not retryable *on that backend*, so
:class:`FaultyBackend` raises
:class:`~repro.common.errors.BackendUnavailableError`, which propagates
past the graceful-degradation guard to whoever can pick a different
substrate.

Decisions come from the same seeded primitive as the engine-level plan
(:class:`repro.common.faults.SeededFaultPlan`, keyed
``default_rng((plan.seed, call_ordinal))``): a (plan, call-sequence)
pair is reproducible in any process, and
:meth:`BackendFaultPlan.schedule` computes the injected schedule
without running anything.
"""

from repro.common.errors import BackendUnavailableError
from repro.common.faults import SeededFaultPlan


class BackendFaultPlan(SeededFaultPlan):
    """Declarative description of backend outages to inject.

    ``fail_rate`` is the independent per-``run()`` probability of the
    backend being unavailable; ``fail_on_calls`` forces outages at
    specific 1-based call ordinals regardless of the rate.
    """

    RATES = {"fail": "fail_rate"}
    FORCED = {"fail": "fail_on_calls"}

    def fault_at(self, ordinal):
        """Decision at call ``ordinal``: ``{"call", "fault"}`` where
        ``fault`` is ``"unavailable"`` or ``None``."""
        fails = self._fires("fail", self._rng(ordinal), ordinal)
        return {"call": ordinal, "fault": "unavailable" if fails else None}


class FaultyBackend:
    """An :class:`~repro.ir.contracts.IRBackend` that goes away on a
    seeded schedule.

    Wraps a live backend instance; every ``run()`` advances the call
    ordinal and either raises
    :class:`~repro.common.errors.BackendUnavailableError` (naming the
    wrapped substrate) or delegates untouched. Everything else --
    ``backend_name``, ``true_selectivity``, costing internals --
    forwards to the wrapped backend, so a clean plan is
    execution-identical to no wrapper at all.
    """

    def __init__(self, inner, plan=None):
        self.inner = inner
        self.plan = plan or BackendFaultPlan()
        #: 1-based ordinal of the next run; drives the per-call RNG.
        self.calls = 0

    @property
    def backend_name(self):
        return getattr(self.inner, "backend_name", "native")

    def run(self, plan, budget=None, spill_node_id=None, keep_rows=False):
        self.calls += 1
        decision = self.plan.fault_at(self.calls)
        if decision["fault"] is not None:
            raise BackendUnavailableError(
                "injected outage of the %r backend at call %d"
                % (self.backend_name, self.calls),
                backend=self.backend_name)
        return self.inner.run(plan, budget=budget,
                              spill_node_id=spill_node_id,
                              keep_rows=keep_rows)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __repr__(self):
        return "FaultyBackend(%s, %r)" % (self.backend_name, self.plan)
