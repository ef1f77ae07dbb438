"""Graceful-degradation guard around discovery algorithms.

:class:`DiscoveryGuard` drives any :class:`RobustAlgorithm` to a
*terminating* answer on a faulty substrate:

* **retry** -- transient failures and mid-execution crashes re-enter the
  run under a bounded policy, resuming from the last checkpointed
  contour so completed contours are never re-executed;
* **escalate** -- when consecutive failures make no contour progress,
  the resume contour advances one rung of the geometric budget ladder
  (exponential budget escalation), so a crash-prone region cannot pin
  the run forever;
* **validate** -- runtime invariants are checked on every completed
  attempt: learned lower bounds must monotonically tighten (an exact
  learning can never contradict a previously certified bound), the
  contour sequence must be non-decreasing along a geometrically doubling
  budget ladder, and cumulative spend is reconciled against the a-priori
  MSO ledger;
* **degrade** -- on irrecoverable state (retries exhausted, invariants
  violated beyond repair) the guard falls back to the native-optimizer
  path instead of raising, reporting ``degraded=True``.

Accounting lands in ``RunResult.extras``: ``degraded``, ``retries``,
``wasted_cost`` (spend lost to crashed / discarded attempts),
``effective_mso_inflation`` (total including waste over the answering
run's own spend; 1.0 when nothing went wrong) and ``meter_drift``.

With all faults disabled the guard is a zero-overhead pass-through: the
wrapped algorithm performs exactly the same executions it would have
performed unguarded.
"""

from repro.algorithms.base import RobustAlgorithm, engine_layers
from repro.algorithms.native import NativeOptimizer
from repro.common.errors import (
    DeadlineExceededError,
    DiscoveryError,
    EngineCrashError,
    TransientEngineError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.robustness.checkpoint import DiscoveryCheckpoint
from repro.robustness.durable import DeadlineEngine

#: Relative slack for spend-vs-budget reconciliation, absorbing the one
#: overshooting charge a metered executor may take before aborting.
DRIFT_TOLERANCE = 0.01

#: Relative slack on the contour ladder's geometric ratio.
LADDER_EPS = 1e-6


class RetryPolicy:
    """Bounded-retry configuration for :class:`DiscoveryGuard`.

    ``max_retries`` caps recovery attempts after the initial run;
    ``escalate`` enables advancing the resume contour (and therefore
    doubling the execution budget) when a retry makes no progress.
    """

    __slots__ = ("max_retries", "escalate")

    def __init__(self, max_retries=3, escalate=True):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.escalate = escalate

    def __repr__(self):
        return "RetryPolicy(max_retries=%d, escalate=%r)" % (
            self.max_retries, self.escalate
        )


class DiscoveryGuard(RobustAlgorithm):
    """Fault-tolerant driver for one discovery algorithm.

    The guard is itself a :class:`RobustAlgorithm` (same ``run``
    contract, same ``space``), so sweeps and experiments can use it as a
    drop-in replacement for the wrapped algorithm.

    ``deadline`` optionally attaches a cooperative
    :class:`~repro.robustness.durable.Deadline`: every budgeted
    execution is preceded by a check and followed by a spend charge
    (via a :class:`~repro.robustness.durable.DeadlineEngine` proxy), and
    an expired deadline degrades to the native fallback with the reason
    accounted in ``extras`` instead of raising. ``breaker`` optionally
    attaches a :class:`~repro.robustness.durable.CircuitBreaker` shared
    across runs: when open, runs fast-fail to the fallback without
    burning their retry budget. Both default to ``None`` and add zero
    work when absent.
    """

    def __init__(self, algorithm, policy=None, fallback=None,
                 deadline=None, breaker=None):
        super().__init__(algorithm.space)
        self.algorithm = algorithm
        self.policy = policy or RetryPolicy()
        self._fallback = fallback
        self.deadline = deadline
        self.breaker = breaker
        self.name = "guarded-" + algorithm.name
        self._validate_ladder()

    def mso_guarantee(self):
        """The wrapped algorithm's bound (valid when nothing degrades)."""
        return self.algorithm.mso_guarantee()

    @property
    def fallback(self):
        if self._fallback is None:
            self._fallback = NativeOptimizer(self.space)
        return self._fallback

    # ------------------------------------------------------------------

    def run(self, qa_index, engine=None, checkpoint=None,
            tracer=NULL_TRACER):
        """Drive the wrapped algorithm to an answer at ``qa_index``.

        Every attempt, and the fallback run if the guard degrades,
        reports to ``tracer``, so one stream holds the retries and the
        run that answered.
        """
        qa_index = tuple(qa_index)
        checkpoint = checkpoint or DiscoveryCheckpoint()
        if checkpoint.qa_index is None:
            checkpoint.qa_index = qa_index
        elif tuple(checkpoint.qa_index) != qa_index:
            # A snapshot from a *different* run's truth would poison
            # this one; forget it rather than resume from it.
            checkpoint.clear()
            checkpoint.qa_index = qa_index
        retries = 0
        wasted = 0.0
        escalations = 0
        last_failed_contour = None
        violations = []
        deadline = self.deadline
        breaker = self.breaker
        while True:
            if breaker is not None and not breaker.allow():
                if tracer.enabled:
                    tracer.event("breaker", state="open",
                                 failures=breaker.failures)
                return self._degrade(
                    tracer, qa_index, engine, retries, wasted,
                    ["circuit breaker open after %d consecutive engine "
                     "crashes" % breaker.failures],
                    reason="breaker-open")
            metered = None
            attempt_engine = engine
            if deadline is not None:
                metered = DeadlineEngine(
                    attempt_engine if attempt_engine is not None
                    else self.algorithm.engine_for(qa_index), deadline)
                attempt_engine = metered
            try:
                result = self.algorithm.run(
                    qa_index, engine=attempt_engine,
                    checkpoint=checkpoint, tracer=tracer)
            except DeadlineExceededError as exc:
                # An expired budget is not damage to retry through: the
                # partial attempt's spend is wasted, and the fallback
                # produces the degraded-but-terminating answer. A
                # labelled (layered) deadline names the layer that fired
                # -- "deadline-client-wall_clock" -- so nested budgets
                # stay distinguishable in degradation tables.
                wasted += metered.spent_this_run if metered else 0.0
                fired = exc.reason if not exc.layer \
                    else "%s-%s" % (exc.layer, exc.reason)
                return self._degrade(
                    tracer, qa_index, engine, retries, wasted,
                    ["deadline exceeded (%s) after %.3gs / %.4g cost "
                     "units" % (fired, exc.elapsed, exc.spent)],
                    reason="deadline-%s" % fired)
            except TransientEngineError:
                retries += 1
                self._trace_retry(tracer, "transient", retries, wasted)
                if retries > self.policy.max_retries:
                    return self._degrade(
                        tracer, qa_index, engine, retries, wasted,
                        ["transient failures exhausted the retry budget"])
                last_failed_contour, stepped = self._escalate(
                    checkpoint, last_failed_contour, tracer)
                escalations += stepped
                continue
            except EngineCrashError as exc:
                if breaker is not None:
                    was_open = breaker.is_open
                    breaker.record_failure()
                    if tracer.enabled and breaker.is_open \
                            and not was_open:
                        tracer.event("breaker", state="tripped",
                                     failures=breaker.failures)
                wasted += float(exc.spent or 0.0)
                retries += 1
                self._trace_retry(tracer, "crash", retries, wasted)
                if retries > self.policy.max_retries:
                    return self._degrade(
                        tracer, qa_index, engine, retries, wasted,
                        ["crashes exhausted the retry budget"])
                last_failed_contour, stepped = self._escalate(
                    checkpoint, last_failed_contour, tracer)
                escalations += stepped
                continue
            except DiscoveryError as exc:
                # Inconsistent discovery state -- possibly poisoned by a
                # corrupted monitor readout recorded in the checkpoint.
                retries += 1
                self._trace_retry(tracer, "discovery-error", retries,
                                  wasted)
                checkpoint.clear()
                escalations = 0
                if retries > self.policy.max_retries:
                    return self._degrade(
                        tracer, qa_index, engine, retries, wasted,
                        ["discovery aborted: %s" % exc])
                continue

            if breaker is not None:
                # The attempt terminated without crashing: the crash
                # streak is broken regardless of validation below.
                breaker.record_success()
            violations, drift = self._validate(result, engine, escalations)
            if violations:
                # The run terminated but its learning is provably
                # inconsistent: the answer cannot be trusted. Discard
                # the attempt (its spend is wasted) and start clean.
                wasted += result.total_cost
                retries += 1
                self._trace_retry(tracer, "validation", retries, wasted,
                                  violations=violations)
                checkpoint.clear()
                escalations = 0
                if retries > self.policy.max_retries:
                    return self._degrade(
                        tracer, qa_index, engine, retries, wasted,
                        violations)
                continue
            return self._finalize(tracer, result, retries, wasted, drift)

    # ------------------------------------------------------------------
    # recovery helpers

    @staticmethod
    def _trace_retry(tracer, cause, retries, wasted, violations=None):
        if not tracer.enabled:
            return
        fields = {"cause": cause, "retries": retries,
                  "wasted_cost": float(wasted)}
        if violations:
            fields["violations"] = list(violations)
        tracer.event("retry", **fields)

    def _guard_obs(self, result, retries, wasted):
        """Fold guard accounting into the run's metrics snapshot."""
        registry = MetricsRegistry.from_snapshot(
            result.extras.get("obs") or {})
        registry.counter("guard.retries").inc(retries)
        registry.counter("guard.wasted_cost").inc(float(wasted))
        if result.extras.get("degraded"):
            registry.counter("guard.degraded").inc()
        result.extras["obs"] = registry.snapshot()

    def _escalate(self, checkpoint, last_failed_contour,
                  tracer=NULL_TRACER):
        """Advance the resume contour when a retry made no progress.

        Returns ``(contour_of_this_failure, stepped)`` where ``stepped``
        is 1 when the resume contour was pushed one rung up the
        geometric ladder (doubling the next attempt's budget), else 0.
        """
        if not checkpoint.active:
            return last_failed_contour, 0
        current = checkpoint.contour
        stepped = 0
        if (self.policy.escalate and last_failed_contour is not None
                and current <= last_failed_contour):
            ladder = getattr(self.algorithm, "contours", None)
            top = len(ladder) - 1 if ladder is not None else current
            if current < top:
                checkpoint.contour = current + 1
                stepped = 1
                if tracer.enabled:
                    tracer.event("escalate", contour=current + 1)
        return checkpoint.contour, stepped

    def _degrade(self, tracer, qa_index, engine, retries, wasted,
                 violations, reason="retries-exhausted"):
        """Fall back to the native-optimizer path instead of raising.

        ``reason`` classifies *why* the unit degraded
        (``retries-exhausted``, ``deadline-wall_clock``,
        ``deadline-cost_budget``, ``breaker-open``) for the degradation
        tables, which previously could not distinguish a hung substrate
        from an exhausted retry ladder.
        """
        if tracer.enabled:
            tracer.event("degrade", reason=reason, retries=retries,
                         wasted_cost=float(wasted),
                         violations=list(violations))
        sound = engine
        if sound is not None and hasattr(sound, "sound"):
            sound = sound.sound()
        result = self.fallback.run(qa_index, engine=sound, tracer=tracer)
        result.extras.update({
            "degraded": True,
            "degraded_reason": reason,
            "fallback": self.fallback.name,
            "retries": retries,
            "wasted_cost": wasted,
            "effective_mso_inflation":
                (result.total_cost + wasted) / result.total_cost,
            "meter_drift": 0.0,
            "violations": list(violations),
        })
        if tracer.enabled:
            self._guard_obs(result, retries, wasted)
        return result

    def _finalize(self, tracer, result, retries, wasted, drift):
        result.extras.update({
            "degraded": False,
            "degraded_reason": None,
            "retries": retries,
            "wasted_cost": wasted,
            "effective_mso_inflation":
                (result.total_cost + wasted) / result.total_cost,
            "meter_drift": drift,
            "violations": [],
        })
        if tracer.enabled:
            self._guard_obs(result, retries, wasted)
        return result

    # ------------------------------------------------------------------
    # invariant validation

    def _validate_ladder(self):
        """Contour budgets must geometrically double (or follow the
        configured ratio): a corrupted ladder voids every guarantee."""
        ladder = getattr(self.algorithm, "contours", None)
        if ladder is None:
            return
        costs = ladder.costs
        ratio = ladder.ratio
        for i in range(1, len(costs)):
            step = costs[i] / costs[i - 1]
            if step <= 1.0 or step > ratio * (1 + LADDER_EPS):
                raise DiscoveryError(
                    "contour ladder is not geometric: step %d has ratio "
                    "%.6g (expected within (1, %.3g])" % (i, step, ratio))

    def _validate(self, result, engine, escalations=0):
        """Check runtime invariants on a terminated attempt.

        Returns ``(hard_violations, meter_drift)``; hard violations make
        the attempt untrustworthy, drift is soft accounting damage.
        ``escalations`` widens the MSO ledger by one ladder rung each --
        budget escalation is the guard's own doing, not damage.
        """
        violations = []
        query = self.space.query
        grid = self.space.grid
        allowance = 1.0 + self._engine_delta(engine)

        if result.executions and not result.executions[-1].completed:
            violations.append("final execution did not complete")

        last_contour = None
        bounds = {}  # dim -> highest certified failed-spill index
        exact = {}
        drift = 0.0
        for pos, rec in enumerate(result.executions):
            if rec.contour >= 0:
                if last_contour is not None and rec.contour < last_contour:
                    violations.append(
                        "contour sequence regressed at execution %d "
                        "(%d -> %d)" % (pos, last_contour, rec.contour))
                last_contour = rec.contour
            ceiling = rec.budget * allowance * (1 + DRIFT_TOLERANCE)
            if rec.spent > ceiling:
                drift += rec.spent - rec.budget * allowance
            if rec.mode != "spill" or rec.learned is None:
                continue
            dim = query.epp_index(rec.epp)
            res = len(grid.values[dim])
            if not -1 <= rec.learned < res:
                violations.append(
                    "learned index %d out of range at execution %d"
                    % (rec.learned, pos))
                continue
            if rec.completed:
                if dim in exact:
                    violations.append(
                        "dimension %d resolved twice (execution %d)"
                        % (dim, pos))
                certified = bounds.get(dim, -1)
                if rec.learned < 0:
                    violations.append(
                        "completed spill learned nothing on dimension %d "
                        "(execution %d)" % (dim, pos))
                elif rec.learned <= certified:
                    violations.append(
                        "exact learning %d contradicts certified lower "
                        "bound %d on dimension %d (execution %d)"
                        % (rec.learned, certified, dim, pos))
                exact[dim] = rec.learned
            else:
                if dim in exact:
                    violations.append(
                        "spill on already-resolved dimension %d "
                        "(execution %d)" % (dim, pos))
                bounds[dim] = max(bounds.get(dim, -1), rec.learned)

        # MSO ledger: cumulative spend reconciled against the a-priori
        # guarantee (inflated for the engine's declared cost-model
        # error). Overdraft is evidence of injected damage the per-record
        # checks missed; it is hard only together with other evidence,
        # so record it as a violation when the books cannot close.
        guarantee = self.algorithm.mso_guarantee()
        if guarantee is not None and result.optimal_cost > 0:
            ladder = getattr(self.algorithm, "contours", None)
            ratio = ladder.ratio if ladder is not None else 2.0
            ledger_cap = (guarantee * allowance ** 2
                          * ratio ** escalations * (1 + DRIFT_TOLERANCE))
            observed = (result.total_cost - drift) / result.optimal_cost
            if observed > ledger_cap:
                violations.append(
                    "cumulative spend %.4g exceeds the MSO ledger cap "
                    "%.4g x optimal" % (observed, ledger_cap))
        return violations, drift

    @staticmethod
    def _engine_delta(engine):
        """Declared cost-model error allowance of the environment."""
        for layer in engine_layers(engine):
            delta = getattr(layer, "delta", None)
            if delta is not None:
                return float(delta)
        return 0.0
