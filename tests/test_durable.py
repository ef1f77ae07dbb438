"""Tests for the durability layer: crash-safe IO, the write-ahead sweep
journal, deadline watchdogs, circuit breakers and their wiring through
guard, session and sweep driver."""

import json
import os
import re

import numpy as np
import pytest

from repro.common.atomicio import (
    FileLock,
    LockTimeoutError,
    atomic_write_json,
    decode_record,
    encode_record,
)
from repro.common.errors import DeadlineExceededError, JournalError
from repro.engine.faulty import FaultPlan, FaultyEngine
from repro.engine.simulated import SimulatedEngine
from repro.robustness import (
    CircuitBreaker,
    Deadline,
    DeadlineEngine,
    DiscoveryCheckpoint,
    DiscoveryGuard,
    RetryPolicy,
    SweepJournal,
    compose_deadlines,
)
from repro.session import BreakerBoard, RobustSession, SweepDriver


# ----------------------------------------------------------------------
# crash-safe primitives


class TestRecordFraming:
    def test_round_trip(self):
        payload = {"type": "commit", "unit": "q/alg",
                   "result": {"values": [1.5, 2.25, 1e-9]}}
        assert decode_record(encode_record(payload)) == payload

    def test_rejects_flipped_byte(self):
        line = encode_record({"type": "begin", "unit": "u"})
        corrupt = line.replace("begin", "bogus")
        with pytest.raises(ValueError):
            decode_record(corrupt)

    def test_rejects_torn_line(self):
        line = encode_record({"type": "begin", "unit": "u"})
        with pytest.raises(ValueError):
            decode_record(line[: len(line) // 2])

    def test_rejects_bad_framing(self):
        with pytest.raises(ValueError):
            decode_record("not a journal line\n")

    def test_rejects_non_object_payload(self):
        body = json.dumps([1, 2, 3])
        import zlib
        line = "%08x %s\n" % (
            zlib.crc32(body.encode()) & 0xFFFFFFFF, body)
        with pytest.raises(ValueError):
            decode_record(line)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = str(tmp_path / "state.json")
        atomic_write_json(target, {"v": 1}, fsync=False)
        atomic_write_json(target, {"v": 2}, fsync=False)
        with open(target) as handle:
            assert json.load(handle) == {"v": 2}
        # No temp litter left behind.
        assert os.listdir(str(tmp_path)) == ["state.json"]


class TestFileLock:
    def test_acquire_release(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        with lock:
            assert lock.held
            assert os.path.exists(lock.path)
        assert not lock.held
        assert not os.path.exists(lock.path)

    def test_contention_times_out(self, tmp_path):
        path = str(tmp_path / "x.lock")
        holder = FileLock(path).acquire()
        with pytest.raises(LockTimeoutError):
            FileLock(path, timeout=0.1, poll=0.01).acquire()
        holder.release()

    def test_dead_owner_lock_is_broken(self, tmp_path):
        path = str(tmp_path / "x.lock")
        # A PID far beyond pid_max: the owner cannot be alive, which is
        # exactly the state a SIGKILLed journal writer leaves behind.
        with open(path, "w") as handle:
            handle.write("999999999\n")
        lock = FileLock(path, timeout=0.5, poll=0.01)
        lock.acquire()
        assert lock.held
        lock.release()


# ----------------------------------------------------------------------
# deadline watchdog


def _fake_clock(times):
    it = iter(times)
    last = [None]

    def clock():
        try:
            last[0] = next(it)
        except StopIteration:
            pass
        return last[0]

    return clock


class TestDeadline:
    def test_wall_clock_expiry(self):
        deadline = Deadline(wall_limit=10.0,
                            clock=_fake_clock([0.0, 5.0, 10.5]))
        assert deadline.exceeded() is None       # t=5
        assert deadline.exceeded() == "wall_clock"  # t=10.5

    def test_cost_budget_expiry(self):
        deadline = Deadline(cost_limit=100.0, clock=lambda: 0.0)
        deadline.charge(60.0)
        assert deadline.exceeded() is None
        deadline.charge(60.0)
        assert deadline.exceeded() == "cost_budget"

    def test_check_raises_with_reason(self):
        deadline = Deadline(cost_limit=1.0, clock=lambda: 0.0)
        deadline.charge(2.0)
        with pytest.raises(DeadlineExceededError) as exc:
            deadline.check()
        assert exc.value.reason == "cost_budget"
        assert exc.value.spent == 2.0

    def test_unbounded_never_expires(self):
        deadline = Deadline(clock=lambda: 1e9)
        deadline.charge(1e12)
        assert deadline.exceeded() is None

    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            Deadline(wall_limit=-1.0)
        with pytest.raises(ValueError):
            Deadline(cost_limit=-1.0)


class TestCompositeDeadline:
    """Nested budgets: client deadline composed with engine/sweep
    deadlines must enforce the *minimum* remaining budget and name the
    layer that fired."""

    def test_min_remaining_wall_wins(self):
        client = Deadline(wall_limit=10.0, clock=lambda: 0.0,
                          label="client")
        server = Deadline(wall_limit=3.0, clock=lambda: 0.0,
                          label="server")
        composed = compose_deadlines(client, server)
        assert composed.remaining_wall() == pytest.approx(3.0)
        assert composed.label == "server"

    def test_firing_layer_is_named(self):
        client = Deadline(wall_limit=5.0,
                          clock=_fake_clock([0.0] + [6.0] * 100),
                          label="client")
        sweep = Deadline(wall_limit=100.0, clock=lambda: 0.0,
                         label="sweep")
        composed = compose_deadlines(client, sweep)
        assert composed.exceeded() == "wall_clock"
        with pytest.raises(DeadlineExceededError) as exc:
            composed.check()
        assert exc.value.layer == "client"
        assert exc.value.reason == "wall_clock"

    def test_cost_charge_reaches_every_layer(self):
        a = Deadline(cost_limit=100.0, clock=lambda: 0.0, label="a")
        b = Deadline(cost_limit=50.0, clock=lambda: 0.0, label="b")
        composed = compose_deadlines(a, b)
        composed.charge(60.0)
        assert a.spent == 60.0
        assert b.spent == 60.0
        assert composed.exceeded() == "cost_budget"
        with pytest.raises(DeadlineExceededError) as exc:
            composed.check()
        assert exc.value.layer == "b"
        assert composed.remaining_cost() == pytest.approx(0.0)

    def test_compose_elides_none_and_singletons(self):
        only = Deadline(wall_limit=1.0)
        assert compose_deadlines(None, None) is None
        assert compose_deadlines(only, None) is only
        nested = compose_deadlines(
            compose_deadlines(Deadline(wall_limit=1.0, label="x"),
                              Deadline(wall_limit=2.0, label="y")),
            Deadline(wall_limit=3.0, label="z"))
        assert len(nested.parts) == 3

    def test_guard_reason_names_the_layer(self, toy_space,
                                          toy_contours):
        from repro.algorithms.spillbound import SpillBound

        client = Deadline(wall_limit=10.0,
                          clock=_fake_clock([0.0] + [11.0] * 1000),
                          label="client")
        server = Deadline(wall_limit=10**6, clock=lambda: 0.0,
                          label="server")
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               deadline=compose_deadlines(client,
                                                          server))
        result = guard.run((3, 7))
        assert result.extras["degraded"] is True
        assert result.extras["degraded_reason"] == \
            "deadline-client-wall_clock"

    def test_unlabeled_guard_reason_is_backwards_compatible(
            self, toy_space, toy_contours):
        from repro.algorithms.spillbound import SpillBound

        deadline = Deadline(wall_limit=10.0,
                            clock=_fake_clock([0.0] + [11.0] * 1000))
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               deadline=deadline)
        result = guard.run((3, 7))
        assert result.extras["degraded_reason"] == "deadline-wall_clock"


class TestDeadlineEngine:
    def test_charges_actual_spend_and_delegates(self, toy_space):
        engine = SimulatedEngine(toy_space, (3, 7))
        deadline = Deadline(cost_limit=1e18, clock=lambda: 0.0)
        metered = DeadlineEngine(engine, deadline)
        plan = toy_space.plans[0]
        outcome = metered.execute(plan, budget=plan.cost[(3, 7)])
        assert outcome.spent > 0.0
        assert deadline.spent == outcome.spent
        assert metered.spent_this_run == outcome.spent
        # Unbudgeted reads delegate untouched.
        assert metered.optimal_cost == engine.optimal_cost
        assert metered.true_cost(plan) == engine.true_cost(plan)

    def test_refuses_to_start_when_expired(self, toy_space):
        engine = SimulatedEngine(toy_space, (3, 7))
        deadline = Deadline(cost_limit=1.0, clock=lambda: 0.0)
        deadline.charge(2.0)
        metered = DeadlineEngine(engine, deadline)
        with pytest.raises(DeadlineExceededError):
            metered.execute(toy_space.plans[0], budget=1.0)

    NOISY_FAULTY = ("simulated+noisy(delta=0.3,seed=1)"
                    "+faulty(crash=0.3,transient=0.3,seed=3)")

    def _fault_and_retry_events(self, deadline):
        from repro.obs.tracer import Tracer

        session = RobustSession(resolution=8, engine_spec=self.NOISY_FAULTY)
        guard = session.algorithm("spillbound", query="2D_Q91", guard=True,
                                  deadline=deadline)
        tracer = Tracer()
        guard.run((6, 6), engine=session.engine(guard.space, (6, 6)),
                  tracer=tracer)
        kinds = [record["type"] for record in tracer.records]
        return kinds.count("fault"), kinds.count("retry")

    def test_proxy_keeps_the_wrapped_fault_layer_traced(self):
        """The deadline proxy answers ``base`` from the FaultyEngine it
        wraps; the traced walk must still reach that layer."""
        plain = self._fault_and_retry_events(None)
        assert plain[1] > 0 and plain[0] == plain[1]
        deadline = Deadline(cost_limit=1e18, clock=lambda: 0.0)
        assert self._fault_and_retry_events(deadline) == plain

    def test_engine_layers_visit_every_wrapper(self, toy_space):
        from repro.algorithms.base import engine_label, engine_layers
        from repro.engine.noisy import NoisyEngine

        noisy = NoisyEngine(toy_space, (3, 7), delta=0.3)
        faulty = FaultyEngine(toy_space, (3, 7), base=noisy)
        metered = DeadlineEngine(faulty, Deadline(cost_limit=1e18))
        assert list(engine_layers(metered)) == [metered, faulty, noisy]
        assert DiscoveryGuard._engine_delta(metered) == 0.3
        assert engine_label(metered) == "simulated"


# ----------------------------------------------------------------------
# circuit breaker


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert not breaker.is_open
        breaker.record_failure()
        assert breaker.is_open
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open

    def test_cooldown_into_half_open_then_close(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure()
        assert breaker.is_open
        assert not breaker.allow()
        assert not breaker.allow()   # second refusal ends the cooldown
        assert breaker.allow()       # half-open: probe admitted
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_probe_crash_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record_failure()
        assert not breaker.allow()   # cooldown consumed
        assert breaker.allow()       # probe
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.opened == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)


# ----------------------------------------------------------------------
# the write-ahead journal


def _open_journal(tmp_path, config=None, **kwargs):
    journal = SweepJournal(str(tmp_path / "journal"), fsync=False,
                           **kwargs)
    journal.open(config=config if config is not None else {"id": 1})
    return journal


class TestSweepJournal:
    def test_fresh_journal_requires_config(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "j"), fsync=False)
        with pytest.raises(JournalError):
            journal.open()

    def test_commit_then_replay(self, tmp_path):
        grid = [1.5, 2.25, 0.75]
        with _open_journal(tmp_path) as journal:
            assert journal.replay_result("q/sb") is None
            journal.begin("q/sb")
            journal.commit("q/sb", {"sub_optimalities": grid})
            assert journal.stats.executed == 1
        with _open_journal(tmp_path) as journal:
            payload = journal.replay_result("q/sb")
            assert payload == {"sub_optimalities": grid}
            assert journal.stats.replayed == 1
            assert journal.inflight == []

    def test_inflight_units_reported(self, tmp_path):
        with _open_journal(tmp_path) as journal:
            journal.begin("q/a")
            journal.commit("q/a", {"ok": True})
            journal.begin("q/b")   # no commit: the kill point
        with _open_journal(tmp_path) as journal:
            assert journal.inflight == ["q/b"]
            assert journal.replay_result("q/a") == {"ok": True}

    def test_config_mismatch_refused(self, tmp_path):
        _open_journal(tmp_path, config={"sample": 10}).close()
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        with pytest.raises(JournalError) as exc:
            journal.open(config={"sample": 20})
        assert "different sweep config" in str(exc.value)

    def test_algorithm_list_change_is_compatible(self, tmp_path):
        # Adding or removing algorithms between runs only changes which
        # units exist, never the meaning of a committed unit, so resume
        # must accept it (regression: this used to refuse the journal).
        _open_journal(tmp_path,
                      config={"id": 1, "algorithms": ["sb", "pb"]}).close()
        with _open_journal(
                tmp_path,
                config={"id": 1, "algorithms": ["sb", "pb", "ab"]}):
            pass
        with _open_journal(tmp_path,
                           config={"id": 1, "algorithms": ["sb"]}):
            pass

    def test_non_algorithm_change_is_still_refused(self, tmp_path):
        _open_journal(tmp_path,
                      config={"id": 1, "algorithms": ["sb"]}).close()
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        with pytest.raises(JournalError) as exc:
            journal.open(config={"id": 2, "algorithms": ["sb"]})
        assert "different sweep config" in str(exc.value)

    def test_resume_expectations(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        with pytest.raises(JournalError):
            journal.open(config={"id": 1}, resume=True)
        _open_journal(tmp_path).close()
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        with pytest.raises(JournalError):
            journal.open(config={"id": 1}, resume=False)

    def test_segment_rotation(self, tmp_path):
        with _open_journal(tmp_path, segment_records=4) as journal:
            for i in range(6):
                journal.begin("u%d" % i)
                journal.commit("u%d" % i, {"i": i})
            names = sorted(n for n in os.listdir(journal.path)
                           if n.endswith(".wal"))
        assert len(names) >= 3
        with _open_journal(tmp_path, segment_records=4) as journal:
            for i in range(6):
                assert journal.replay_result("u%d" % i) == {"i": i}
            assert journal.stats.resumed_segments == len(names)

    def test_torn_tail_is_truncated(self, tmp_path):
        with _open_journal(tmp_path) as journal:
            journal.begin("q/a")
            journal.commit("q/a", {"ok": True})
            path = journal._segment_path(journal._segment_index)
        size = os.path.getsize(path)
        with open(path, "a") as handle:
            handle.write("deadbeef {\"type\": \"begi")   # the SIGKILL
        with _open_journal(tmp_path) as journal:
            assert journal.stats.truncated_records == 1
            assert journal.replay_result("q/a") == {"ok": True}
        assert os.path.getsize(path) == size

    def test_interior_corruption_refused(self, tmp_path):
        with _open_journal(tmp_path) as journal:
            journal.begin("q/a")
            journal.commit("q/a", {"ok": True})
            path = journal._segment_path(journal._segment_index)
        with open(path) as handle:
            lines = handle.readlines()
        lines[1] = lines[1].replace("a", "b", 1)
        with open(path, "w") as handle:
            handle.writelines(lines)
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        with pytest.raises(JournalError) as exc:
            journal.open(config={"id": 1})
        assert "corrupt record" in str(exc.value)

    def test_double_commit_refused_on_replay(self, tmp_path):
        with _open_journal(tmp_path) as journal:
            journal.begin("q/a")
            journal.commit("q/a", {"ok": True})
            journal._append({"type": "commit", "unit": "q/a",
                             "result": {"ok": False}})
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        with pytest.raises(JournalError) as exc:
            journal.open(config={"id": 1})
        assert "committed twice" in str(exc.value)

    def test_unknown_record_type_refused(self, tmp_path):
        with _open_journal(tmp_path) as journal:
            journal._append({"type": "mystery"})
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        with pytest.raises(JournalError):
            journal.open(config={"id": 1})

    def test_writer_lock_is_exclusive(self, tmp_path):
        journal = _open_journal(tmp_path)
        other = SweepJournal(str(tmp_path / "journal"), fsync=False,
                             lock_timeout=0.1)
        with pytest.raises(LockTimeoutError):
            other.open(config={"id": 1})
        journal.close()

    def test_records_reads_without_the_lock(self, tmp_path):
        journal = _open_journal(tmp_path)
        journal.begin("q/a")
        # A second, lock-free observer sees the append mid-write.
        observer = SweepJournal(str(tmp_path / "journal"), fsync=False)
        kinds = [r["type"] for r in observer.records()]
        assert kinds == ["segment", "meta", "begin"]
        journal.close()


# ----------------------------------------------------------------------
# checkpoint corruption (the torn-write satellite)


class TestCheckpointDurability:
    def test_save_is_atomic_and_round_trips(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = DiscoveryCheckpoint(qa_index=(3, 7))
        checkpoint.capture(1, resolved={0: 4}, qrun=[1, 2])
        checkpoint.save(path)
        loaded = DiscoveryCheckpoint.load(path)
        assert loaded.active
        assert loaded.qa_index == (3, 7)
        assert loaded.contour == 1
        assert os.listdir(str(tmp_path)) == ["ckpt.json"]

    def test_corrupt_checkpoint_warns_and_restarts(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as handle:
            handle.write('{"contour": 2, "bounds"')   # torn JSON
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            loaded = DiscoveryCheckpoint.load(path)
        assert not loaded.active

    def test_missing_checkpoint_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DiscoveryCheckpoint.load(str(tmp_path / "absent.json"))


# ----------------------------------------------------------------------
# guard wiring


class TestGuardWatchdogs:
    def test_wall_deadline_degrades_with_reason(self, toy_space,
                                                toy_contours):
        from repro.algorithms.spillbound import SpillBound

        deadline = Deadline(wall_limit=10.0,
                            clock=_fake_clock([0.0] + [11.0] * 1000))
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               deadline=deadline)
        result = guard.run((3, 7))
        assert result.extras["degraded"] is True
        assert result.extras["degraded_reason"] == "deadline-wall_clock"
        assert result.extras["fallback"] == "native"

    def test_cost_budget_allows_at_most_one_overshoot(self, toy_space,
                                                      toy_contours):
        from repro.algorithms.spillbound import SpillBound

        plain = SpillBound(toy_space, toy_contours).run((12, 2))
        budget = plain.total_cost / 2.0
        deadline = Deadline(cost_limit=budget, clock=lambda: 0.0)
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               deadline=deadline)
        result = guard.run((12, 2))
        assert result.extras["degraded_reason"] == "deadline-cost_budget"
        # Cooperative semantics: the overshoot is at most one
        # execution's spend beyond the budget.
        worst = max(r.spent for r in plain.executions)
        assert deadline.spent <= budget + worst + 1e-9
        # The aborted attempt's partial spend is accounted as waste.
        assert result.extras["wasted_cost"] > 0.0

    def test_breaker_open_fast_fails_later_runs(self, toy_space,
                                                toy_contours):
        from repro.algorithms.spillbound import SpillBound

        breaker = CircuitBreaker(threshold=3, cooldown=10**6)
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               policy=RetryPolicy(max_retries=2),
                               breaker=breaker)
        crashing = FaultyEngine(toy_space, (3, 7),
                                plan=FaultPlan(crash_rate=1.0, seed=5))
        first = guard.run((3, 7), engine=crashing)
        assert first.extras["degraded"] is True
        assert breaker.is_open
        failures_at_open = breaker.failures
        second = guard.run((3, 7), engine=crashing)
        assert second.extras["degraded_reason"] == "breaker-open"
        # Fast fail: the breaker refused before any attempt, so no new
        # crash was recorded.
        assert breaker.failures == failures_at_open

    def test_breaker_closes_on_healthy_run(self, toy_space,
                                           toy_contours):
        from repro.algorithms.spillbound import SpillBound

        breaker = CircuitBreaker(threshold=3)
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               breaker=breaker)
        result = guard.run((3, 7))
        assert result.extras["degraded"] is False
        assert result.extras["degraded_reason"] is None
        assert breaker.state == CircuitBreaker.CLOSED

    def test_transients_do_not_trip_the_breaker(self, toy_space,
                                                toy_contours):
        from repro.algorithms.spillbound import SpillBound

        breaker = CircuitBreaker(threshold=1)
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               policy=RetryPolicy(max_retries=5),
                               breaker=breaker)
        flaky = FaultyEngine(toy_space, (3, 7),
                             plan=FaultPlan(transient_on_calls=(1,)))
        result = guard.run((3, 7), engine=flaky)
        assert result.extras["degraded"] is False
        assert not breaker.is_open


class TestSessionWiring:
    def test_deadline_implies_a_guard(self, toy_space, toy_contours):
        session = RobustSession()
        deadline = Deadline(cost_limit=1e18, clock=lambda: 0.0)
        algo = session.algorithm("spillbound", space=toy_space,
                                 contours=toy_contours,
                                 deadline=deadline)
        assert isinstance(algo, DiscoveryGuard)
        assert algo.deadline is deadline

    def test_breaker_board_shares_per_spec(self):
        board = BreakerBoard(threshold=2)
        a = board.breaker_for("simulated")
        assert board.breaker_for("simulated") is a
        b = board.breaker_for("simulated+faulty(crash=0.2)")
        assert b is not a
        assert len(board) == 2
        a.record_failure()
        a.record_failure()
        assert board.open_count() == 1

    def test_session_breaker_board_attaches(self, toy_space,
                                            toy_contours):
        session = RobustSession(breaker=True)
        algo = session.algorithm("spillbound", space=toy_space,
                                 contours=toy_contours)
        assert isinstance(algo, DiscoveryGuard)
        assert algo.breaker is \
            session.breakers.breaker_for(session.engine_spec)


# ----------------------------------------------------------------------
# journaled sweep driving


class TestJournaledSweeps:
    ALGS = ("spillbound", "alignedbound")

    def _driver(self, tmp_path, **kwargs):
        session = RobustSession(resolution=8)
        return SweepDriver(session, sample=10, rng=3, resolution=8,
                           journal=str(tmp_path / "journal"), **kwargs)

    def test_resume_replays_bit_identical(self, toy_query, tmp_path):
        first = list(self._driver(tmp_path).run([toy_query], self.ALGS))
        assert all(not r.replayed for r in first)
        second = list(self._driver(tmp_path).run([toy_query], self.ALGS))
        assert all(r.replayed for r in second)
        for a, b in zip(first, second):
            assert a.algorithm == b.algorithm
            assert np.array_equal(a.sweep.sub_optimalities,
                                  b.sweep.sub_optimalities)
            assert a.sweep.shape == b.sweep.shape

    def test_replay_runs_nothing(self, toy_query, tmp_path):
        list(self._driver(tmp_path).run([toy_query], self.ALGS))
        driver = self._driver(tmp_path)
        list(driver.run([toy_query], self.ALGS))
        assert driver.journal_stats.replayed == len(self.ALGS)
        assert driver.journal_stats.executed == 0

    def test_changed_config_is_refused(self, toy_query, tmp_path):
        list(self._driver(tmp_path).run([toy_query], self.ALGS))
        driver = self._driver(tmp_path)
        driver.sample = 99
        with pytest.raises(JournalError):
            list(driver.run([toy_query], self.ALGS))

    def test_partial_journal_runs_only_the_rest(self, toy_query,
                                                tmp_path):
        driver = self._driver(tmp_path)
        stream = driver.run([toy_query], self.ALGS)
        next(stream)            # complete the first unit only
        stream.close()          # generator cleanup closes the journal
        resumed = self._driver(tmp_path)
        records = list(resumed.run([toy_query], self.ALGS))
        assert [r.replayed for r in records] == [True, False]
        assert resumed.journal_stats.replayed == 1
        assert resumed.journal_stats.executed == 1

    def test_unjournaled_driver_is_unchanged(self, toy_query):
        session = RobustSession(resolution=8)
        driver = SweepDriver(session, sample=10, rng=3, resolution=8)
        records = list(driver.run([toy_query], self.ALGS))
        assert driver.journal_stats is None
        assert [r.algorithm for r in records] == list(self.ALGS)


class TestJournalIsTheOnlyRecord:
    """A journaled sweep writes its segments and lock, nothing else:
    guard retries resume from in-memory checkpoints, and the journal
    changes no grid or extras of the sweep it records."""

    SPEC = "simulated+faulty(crash=0.01,transient=0.02)"
    ALGS = ("planbouquet", "spillbound", "alignedbound")

    def _records(self, query, journal=None, progress=None):
        session = RobustSession(resolution=8, guard=True,
                                engine_spec=self.SPEC)
        driver = SweepDriver(session, resolution=8, journal=journal,
                             engine_spec=self.SPEC, fault_seed=5,
                             progress=progress)
        return list(driver.run([query], self.ALGS))

    def test_no_checkpoint_files_mid_unit(self, toy_query, tmp_path,
                                          monkeypatch):
        saves = []
        save = DiscoveryCheckpoint.save

        def counting_save(checkpoint, path):
            saves.append(path)
            save(checkpoint, path)

        retries = []
        run = DiscoveryGuard.run

        def counting_run(guard, *args, **kwargs):
            result = run(guard, *args, **kwargs)
            retries.append(result.extras["retries"])
            return result

        monkeypatch.setattr(DiscoveryCheckpoint, "save", counting_save)
        monkeypatch.setattr(DiscoveryGuard, "run", counting_run)
        journal = tmp_path / "journal"
        listings = []

        def progress(done, total):
            listings.append(sorted(os.listdir(str(journal))))

        journaled = self._records(toy_query, journal=str(journal),
                                  progress=progress)
        assert sum(retries) > 0, "no fault fired: the test proves nothing"
        assert saves == []
        assert len(listings) == 3 * 64
        for names in listings:
            assert [n for n in names if n != "journal.lock"
                    and not re.match(r"segment-\d{6}\.wal$", n)] == []
        plain = self._records(toy_query)
        assert len(journaled) == len(plain) == len(self.ALGS)
        for a, b in zip(journaled, plain):
            assert a.algorithm == b.algorithm
            assert np.array_equal(a.sweep.sub_optimalities,
                                  b.sweep.sub_optimalities)
            assert a.sweep.extras == b.sweep.extras
