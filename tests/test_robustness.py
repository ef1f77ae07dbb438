"""Tests for the graceful-degradation guard and discovery checkpoints."""

from types import SimpleNamespace

import pytest

from repro.algorithms.alignedbound import AlignedBound
from repro.algorithms.base import _DiscoveryState
from repro.algorithms.planbouquet import PlanBouquet
from repro.algorithms.spillbound import SpillBound
from repro.common.errors import DiscoveryError
from repro.engine.faulty import FaultPlan, FaultyEngine
from repro.engine.noisy import NoisyEngine
from repro.robustness import DiscoveryCheckpoint, DiscoveryGuard, RetryPolicy

ALGORITHMS = [PlanBouquet, SpillBound, AlignedBound]

EXTRA_KEYS = {"degraded", "retries", "wasted_cost",
              "effective_mso_inflation", "meter_drift", "violations"}


class TestRetryPolicy:
    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestZeroOverhead:
    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_guard_is_a_pass_through_without_faults(
            self, toy_space, toy_contours, algorithm_cls):
        """Acceptance: with faults disabled, guarded and unguarded runs
        perform the *same executions* and report the same
        sub-optimality."""
        algorithm = algorithm_cls(toy_space, toy_contours)
        guard = DiscoveryGuard(algorithm_cls(toy_space, toy_contours))
        for qa in [(3, 7), (12, 2), (15, 15), (0, 0)]:
            plain = algorithm.run(qa)
            guarded = guard.run(qa)
            assert guarded.sub_optimality == plain.sub_optimality
            assert len(guarded.executions) == len(plain.executions)
            for a, b in zip(plain.executions, guarded.executions):
                assert (a.contour, a.plan_id, a.mode, a.epp, a.budget,
                        a.spent, a.completed, a.learned) == \
                       (b.contour, b.plan_id, b.mode, b.epp, b.budget,
                        b.spent, b.completed, b.learned)
            assert guarded.extras["degraded"] is False
            assert guarded.extras["retries"] == 0
            assert guarded.extras["wasted_cost"] == 0.0
            assert guarded.extras["effective_mso_inflation"] == 1.0

    def test_guard_reports_wrapped_guarantee_and_name(
            self, toy_space, toy_contours):
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours))
        assert guard.name == "guarded-spillbound"
        assert guard.mso_guarantee() == \
            SpillBound(toy_space, toy_contours).mso_guarantee()


class TestGuardUnderFaults:
    def test_every_run_terminates_with_answer_or_degraded(
            self, toy_space, toy_contours):
        """Acceptance: under a seeded FaultPlan with crash rate 0.2 and
        corruption 0.1, every guarded run terminates and either answers
        with clean accounting or reports degraded=True."""
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours))
        plan = FaultPlan(crash_rate=0.2, transient_rate=0.1,
                         corruption_rate=0.1, drift_rate=0.1, seed=5)
        for flat in range(0, toy_space.grid.size, 13):
            qa = toy_space.grid.unflat(flat)
            engine = FaultyEngine(toy_space, qa, plan=plan)
            result = guard.run(qa, engine=engine)
            assert result.executions[-1].completed
            assert EXTRA_KEYS <= set(result.extras)
            assert result.extras["effective_mso_inflation"] >= 1.0
            if result.extras["degraded"]:
                assert result.extras["fallback"] == "native"
            else:
                assert result.extras["violations"] == []
                assert result.sub_optimality >= 1.0

    def test_transient_exhaustion_degrades(self, toy_space, toy_contours):
        guard = DiscoveryGuard(
            SpillBound(toy_space, toy_contours),
            policy=RetryPolicy(max_retries=2))
        engine = FaultyEngine(toy_space, (8, 8),
                              plan=FaultPlan(transient_rate=1.0))
        result = guard.run((8, 8), engine=engine)
        assert result.extras["degraded"] is True
        assert result.extras["retries"] == 3
        assert result.extras["fallback"] == "native"
        # Transients fire before any spend: nothing was wasted.
        assert result.extras["wasted_cost"] == 0.0
        assert result.executions[-1].completed

    def test_crashes_accumulate_wasted_cost(self, toy_space, toy_contours):
        guard = DiscoveryGuard(
            SpillBound(toy_space, toy_contours),
            policy=RetryPolicy(max_retries=2))
        engine = FaultyEngine(toy_space, (8, 8),
                              plan=FaultPlan(crash_rate=1.0, seed=2))
        result = guard.run((8, 8), engine=engine)
        assert result.extras["degraded"] is True
        assert result.extras["wasted_cost"] > 0.0
        assert result.extras["effective_mso_inflation"] > 1.0

    def test_degraded_fallback_runs_on_sound_engine(
            self, toy_space, toy_contours):
        """The fallback must not execute on the faulty substrate: a
        crash-certain engine would never let the native run finish."""
        guard = DiscoveryGuard(
            SpillBound(toy_space, toy_contours),
            policy=RetryPolicy(max_retries=0))
        engine = FaultyEngine(
            toy_space, (8, 8),
            plan=FaultPlan(crash_rate=1.0, transient_rate=0.0, seed=4))
        result = guard.run((8, 8), engine=engine)
        assert result.extras["degraded"] is True
        assert result.executions[-1].completed
        assert result.total_cost > 0.0

    def test_guard_composes_with_cost_noise(self, toy_space, toy_contours):
        base = NoisyEngine(toy_space, (9, 9), delta=0.3, seed=13)
        engine = FaultyEngine(
            toy_space, (9, 9),
            plan=FaultPlan(crash_rate=0.2, drift_rate=0.2, seed=6),
            base=base)
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours))
        result = guard.run((9, 9), engine=engine)
        assert result.executions[-1].completed
        assert EXTRA_KEYS <= set(result.extras)


class TestEscalation:
    def test_first_failure_does_not_escalate(self, toy_space,
                                             toy_contours):
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours))
        checkpoint = DiscoveryCheckpoint()
        checkpoint.capture(2)
        last, stepped = guard._escalate(checkpoint, None)
        assert (last, stepped) == (2, 0)
        assert checkpoint.contour == 2

    def test_repeat_failure_advances_one_rung(self, toy_space,
                                              toy_contours):
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours))
        checkpoint = DiscoveryCheckpoint()
        checkpoint.capture(2)
        last, _ = guard._escalate(checkpoint, None)
        last, stepped = guard._escalate(checkpoint, last)
        assert stepped == 1
        assert checkpoint.contour == 3

    def test_escalation_can_be_disabled(self, toy_space, toy_contours):
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               policy=RetryPolicy(escalate=False))
        checkpoint = DiscoveryCheckpoint()
        checkpoint.capture(2)
        last, _ = guard._escalate(checkpoint, None)
        _, stepped = guard._escalate(checkpoint, last)
        assert stepped == 0
        assert checkpoint.contour == 2

    def test_escalation_capped_at_top_rung(self, toy_space, toy_contours):
        sb = SpillBound(toy_space, toy_contours)
        guard = DiscoveryGuard(sb)
        top = len(sb.contours) - 1
        checkpoint = DiscoveryCheckpoint()
        checkpoint.capture(top)
        last, _ = guard._escalate(checkpoint, None)
        _, stepped = guard._escalate(checkpoint, last)
        assert stepped == 0
        assert checkpoint.contour == top


class TestLadderValidation:
    def test_corrupted_ladder_rejected(self, toy_space):
        class _BadLadderAlgo:
            space = toy_space
            name = "bad"
            contours = SimpleNamespace(costs=[1.0, 2.0, 8.0], ratio=2.0)

        with pytest.raises(DiscoveryError):
            DiscoveryGuard(_BadLadderAlgo())

    def test_geometric_ladder_accepted(self, toy_space, toy_contours):
        DiscoveryGuard(SpillBound(toy_space, toy_contours))


class TestCheckpointResume:
    def _crash_ordinal(self, clean):
        """1-based ordinal of the first execution of the last contour."""
        contours = [r.contour for r in clean.executions]
        target = contours[-1]
        return contours.index(target) + 1, target

    @pytest.mark.parametrize("algorithm_cls", ALGORITHMS)
    def test_resume_never_reexecutes_completed_contours(
            self, toy_space, toy_contours, algorithm_cls):
        qa = (14, 10)
        clean = algorithm_cls(toy_space, toy_contours).run(qa)
        ordinal, target = self._crash_ordinal(clean)
        if target == 0:
            pytest.skip("run resolves within the first contour")
        guard = DiscoveryGuard(algorithm_cls(toy_space, toy_contours))
        engine = FaultyEngine(
            toy_space, qa, plan=FaultPlan(crash_on_calls=(ordinal,)))
        result = guard.run(qa, engine=engine)
        assert result.extras["degraded"] is False
        assert result.extras["retries"] == 1
        assert result.extras["wasted_cost"] > 0.0
        assert result.executions[-1].completed
        # The resumed attempt starts at the checkpointed contour: no
        # record from a contour the crashed attempt had completed.
        first = min(r.contour for r in result.executions
                    if r.contour >= 0)
        assert first >= target

    def test_resumed_bounds_survive(self, toy_space, toy_contours):
        """Selectivity knowledge certified before the crash seeds the
        retry: the resumed run must not spill on a dimension the first
        attempt had already resolved below the crash contour."""
        qa = (14, 10)
        sb = SpillBound(toy_space, toy_contours)
        clean = sb.run(qa)
        resolved_before = {}
        for pos, rec in enumerate(clean.executions):
            if rec.mode == "spill" and rec.completed:
                resolved_before[rec.epp] = pos + 1
        ordinal, target = self._crash_ordinal(clean)
        early = {epp for epp, pos in resolved_before.items()
                 if pos < ordinal}
        if not early:
            pytest.skip("no dimension resolves before the last contour")
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours))
        engine = FaultyEngine(
            toy_space, qa, plan=FaultPlan(crash_on_calls=(ordinal,)))
        result = guard.run(qa, engine=engine)
        assert result.extras["degraded"] is False
        for rec in result.executions:
            if rec.mode == "spill":
                assert rec.epp not in early


class TestCheckpointState:
    def test_capture_then_restore_roundtrip(self, toy_space):
        checkpoint = DiscoveryCheckpoint()
        assert not checkpoint.active
        checkpoint.capture(3, resolved={0: 7}, qrun=[7, 4],
                           remaining={"j2"}, executed={(2, "j1")})
        state = _DiscoveryState(toy_space)
        state.qrun[1] = 6  # already-known tighter bound survives merge
        resume = checkpoint.restore(state)
        assert resume == 3
        assert state.resolved == {0: 7}
        assert state.qrun == [7, 6]
        assert state.remaining == {"j2"}
        assert (2, "j1") in state.executed

    def test_clear_forgets_everything(self):
        checkpoint = DiscoveryCheckpoint()
        checkpoint.capture(5, resolved={1: 2}, qrun=[2, 2])
        checkpoint.clear()
        assert not checkpoint.active
        assert checkpoint.contour == 0
        assert checkpoint.resolved == {}
        assert checkpoint.qrun is None

    def test_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = DiscoveryCheckpoint()
        checkpoint.capture(4, resolved={0: 9, 1: 3}, qrun=[9, 3],
                           remaining=set(), executed={(1, "j1"), (3, "j2")})
        checkpoint.save(path)
        loaded = DiscoveryCheckpoint.load(path)
        assert loaded.active
        assert loaded.contour == 4
        assert loaded.resolved == {0: 9, 1: 3}
        assert loaded.qrun == [9, 3]
        assert loaded.remaining == set()
        assert loaded.executed == {(1, "j1"), (3, "j2")}
        assert loaded.to_dict() == checkpoint.to_dict()
