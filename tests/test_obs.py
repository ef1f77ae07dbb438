"""Tests for the observability layer: tracer, metrics, trace reports.

The load-bearing acceptance property lives in
:class:`TestFaultyRoundTrip`: a SpillBound run on a fault-injecting
engine writes a JSONL trace whose every record re-parses bit-identically
and whose per-contour spend decomposition sums *exactly* (``==``, not
approx) to the run's ``total_cost``.
"""

import inspect
import sys
import threading

import numpy as np
import pytest

from repro.algorithms.alignedbound import AlignedBound
from repro.algorithms.base import RobustAlgorithm
from repro.algorithms.planbouquet import PlanBouquet
from repro.algorithms.spillbound import SpillBound
from repro.engine.faulty import FaultPlan, FaultyEngine
from repro.obs import (
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    answering_run,
    decompose,
    read_trace,
    render_trace_report,
)
from repro.robustness import DiscoveryGuard, RetryPolicy
from repro.robustness.durable import SweepJournal
from repro.session.sweep import _sweep_from_payload, _sweep_payload


class TestNullTracer:
    def test_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        assert tracer.begin_run("x", (0, 0)) == 0
        tracer.event("execution", spent=1.0)
        tracer.end_run()
        tracer.close()
        with tracer.span("phase"):
            pass

    def test_is_the_default_on_algorithms(self):
        for run in (RobustAlgorithm.run, SpillBound.run, PlanBouquet.run,
                    DiscoveryGuard.run):
            default = inspect.signature(run).parameters["tracer"].default
            assert default is NULL_TRACER

    def test_instances_carry_no_tracer(self, toy_space, toy_contours):
        algo = SpillBound(toy_space, toy_contours)
        guard = DiscoveryGuard(algo)
        guard.run((8, 8), tracer=Tracer())
        for holder in (algo, guard, guard.fallback):
            assert not hasattr(holder, "tracer")


class TestTracer:
    def test_seq_and_type(self):
        tracer = Tracer()
        tracer.event("alpha", x=1)
        tracer.event("beta", y="s")
        assert [r["seq"] for r in tracer.records] == [1, 2]
        assert [r["type"] for r in tracer.records] == ["alpha", "beta"]

    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("inside")
            with tracer.span("inner"):
                tracer.event("deep")
        tracer.event("after")
        by_type = {r["type"]: r for r in tracer.records}
        assert by_type["inside"]["span"] == 1
        assert by_type["deep"]["span"] == 2
        assert by_type["after"]["span"] == 0
        ends = [r for r in tracer.records if r["type"] == "span-end"]
        assert [e["name"] for e in ends] == ["inner", "outer"]
        assert all(e["dur"] >= 0.0 for e in ends)

    def test_run_bracketing(self):
        tracer = Tracer()
        tracer.event("before")
        run = tracer.begin_run("spillbound", (3, 4))
        tracer.event("execution", spent=1.0)
        tracer.end_run(total_cost=1.0)
        tracer.event("after")
        assert run == 1
        by_type = {r["type"]: r for r in tracer.records}
        assert by_type["before"]["run"] == 0
        assert by_type["execution"]["run"] == 1
        assert by_type["after"]["run"] == 0
        assert by_type["run-start"]["qa_index"] == [3, 4]

    def test_scrubs_numpy_and_nonfinite(self):
        tracer = Tracer()
        record = tracer.event(
            "execution", spent=np.float64(2.5), ok=np.bool_(True),
            idx=np.int64(7), bad=float("inf"),
            nested={"v": np.float64(1.0)}, seq_like=(np.int64(1), 2))
        assert record["spent"] == 2.5 and type(record["spent"]) is float
        assert record["ok"] is True
        assert record["idx"] == 7 and type(record["idx"]) is int
        assert record["bad"] == "inf"
        assert record["nested"] == {"v": 1.0}
        assert record["seq_like"] == [1, 2]

    def test_event_counters(self):
        tracer = Tracer()
        tracer.event("execution")
        tracer.event("execution")
        tracer.event("retry")
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["events.execution"] == 2
        assert counters["events.retry"] == 1


class TestTraceFile:
    def test_round_trip_bit_identical(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path) as tracer:
            tracer.begin_run("x", (1, 2))
            tracer.event("execution", spent=0.1 + 0.2, plan_id=3)
            tracer.end_run(total_cost=0.1 + 0.2)
        assert read_trace(path) == tracer.records

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path) as tracer:
            tracer.event("alpha")
            tracer.event("beta")
        with open(path, "a") as handle:
            handle.write("deadbeef {\"torn\":")  # no newline: mid-append
        assert [r["type"] for r in read_trace(path)] == ["alpha", "beta"]

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path) as tracer:
            tracer.event("alpha")
        with open(path) as handle:
            good = handle.read()
        with open(path, "w") as handle:
            handle.write("00000000 {}\n" + good)
        with pytest.raises(ValueError):
            read_trace(path)


class TestMetricsRegistry:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        assert registry.counter("c").value == 3.5
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_histogram_aggregates(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)
        assert h.to_dict() == {"count": 3, "total": 6.0,
                               "min": 1.0, "max": 3.0}
        assert Histogram.from_dict(h.to_dict()).to_dict() == h.to_dict()
        assert Histogram().to_dict() == {"count": 0, "total": 0.0,
                                         "min": None, "max": None}

    def test_merge_is_additive(self):
        a = MetricsRegistry()
        a.counter("executions").inc(3)
        a.gauge("level").set(1)
        a.histogram("h").observe(1.0)
        b = MetricsRegistry()
        b.counter("executions").inc(4)
        b.gauge("level").set(2)
        b.histogram("h").observe(5.0)
        merged = MetricsRegistry.from_snapshot(a.snapshot())
        merged.merge(b.snapshot())
        snap = merged.snapshot()
        assert snap["counters"]["executions"] == 7
        assert snap["gauges"]["level"] == 2  # last write wins
        assert snap["histograms"]["h"] == {"count": 2, "total": 6.0,
                                           "min": 1.0, "max": 5.0}


class TestTracedRun:
    def test_events_and_obs_snapshot(self, toy_space, toy_contours):
        tracer = Tracer()
        algo = SpillBound(toy_space, toy_contours)
        result = algo.run((8, 8), tracer=tracer)
        types = {r["type"] for r in tracer.records}
        assert {"run-start", "run-end", "execution"} <= types
        execs = [r for r in tracer.records if r["type"] == "execution"]
        assert len(execs) == len(result.executions)
        obs = result.extras["obs"]
        assert obs["counters"]["executions"] == len(result.executions)

    def test_tracing_changes_no_results(self, toy_space, toy_contours):
        plain = SpillBound(toy_space, toy_contours).run((8, 8))
        traced = SpillBound(toy_space, toy_contours).run(
            (8, 8), tracer=Tracer())
        assert traced.total_cost == plain.total_cost
        assert traced.sub_optimality == plain.sub_optimality
        assert len(traced.executions) == len(plain.executions)
        assert "obs" not in plain.extras

    def test_decomposition_matches_total_exactly(
            self, toy_space, toy_contours):
        tracer = Tracer()
        algo = PlanBouquet(toy_space, toy_contours)
        result = algo.run((12, 3), tracer=tracer)
        parts = decompose(tracer.records)
        assert parts["total"] == result.total_cost
        assert parts["total_cost"] == result.total_cost
        assert sum(c["executions"] for c in parts["contours"]) == \
            len(result.executions)


def _answer(result):
    """A run's answer, without the metrics snapshot only traced runs
    attach."""
    extras = {k: v for k, v in result.extras.items() if k != "obs"}
    return (result.total_cost, result.optimal_cost,
            [r.as_event() for r in result.executions], extras)


class TestStatelessInstances:
    """One instance serves traced and untraced runs, back to back and
    from two threads: the tracer holds only the traced runs' events and
    every answer equals a fresh instance's. AlignedBound's threads probe
    one shared space, whose probe table keeps one plan per signature.
    Sharing warm instances across served requests relies on this."""

    @pytest.fixture(params=[SpillBound, PlanBouquet, AlignedBound])
    def cls(self, request):
        return request.param

    @staticmethod
    def _truths(space):
        return [space.grid.unflat(flat)
                for flat in range(0, space.grid.size, 5)]

    @staticmethod
    def _check(cls, space, contours, tracer, runs):
        traced = sorted(qa for qa, is_traced, _ in runs if is_traced)
        starts = [tuple(r["qa_index"]) for r in tracer.records
                  if r["type"] == "run-start"]
        assert len(starts) == len(traced)
        assert sorted(starts) == traced
        assert sum(r["type"] == "run-end" for r in tracer.records) \
            == len(traced)
        for qa, _is_traced, result in runs:
            assert _answer(result) == _answer(cls(space, contours).run(qa))

    def test_back_to_back(self, cls, toy_space, toy_contours):
        shared = cls(toy_space, toy_contours)
        tracer = Tracer()
        runs = []
        for qa in self._truths(toy_space):
            runs.append((qa, True, shared.run(qa, tracer=tracer)))
            runs.append((qa, False, shared.run(qa)))
        self._check(cls, toy_space, toy_contours, tracer, runs)

    def test_two_threads(self, cls, toy_space, toy_contours):
        shared = cls(toy_space, toy_contours)
        tracer = Tracer()
        truths = self._truths(toy_space)
        runs = {True: [], False: []}
        barrier = threading.Barrier(2)

        def work(is_traced):
            barrier.wait(10)
            sink = tracer if is_traced else NULL_TRACER
            for qa in truths:
                runs[is_traced].append(
                    (qa, is_traced, shared.run(qa, tracer=sink)))

        threads = [threading.Thread(target=work, args=(flag,))
                   for flag in (True, False)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads' runs
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(runs[True]) == len(runs[False]) == len(truths)
        self._check(cls, toy_space, toy_contours, tracer,
                    runs[True] + runs[False])


class TestGuardTracing:
    def test_retry_and_degrade_events(self, toy_space, toy_contours):
        tracer = Tracer()
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               policy=RetryPolicy(max_retries=1))
        engine = FaultyEngine(toy_space, (8, 8),
                              plan=FaultPlan(transient_rate=1.0))
        result = guard.run((8, 8), engine=engine, tracer=tracer)
        assert result.extras["degraded"] is True
        types = [r["type"] for r in tracer.records]
        assert types.count("retry") == 2
        assert "degrade" in types
        obs = result.extras["obs"]
        assert obs["counters"]["guard.retries"] == 2
        assert obs["counters"]["guard.degraded"] == 1

    def test_degraded_decomposition_uses_answering_run(
            self, toy_space, toy_contours):
        tracer = Tracer()
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours),
                               policy=RetryPolicy(max_retries=0))
        engine = FaultyEngine(
            toy_space, (8, 8),
            plan=FaultPlan(crash_rate=1.0, transient_rate=0.0, seed=4))
        result = guard.run((8, 8), engine=engine, tracer=tracer)
        parts = decompose(tracer.records)
        # The discovery attempt crashed; only the fallback completed.
        assert answering_run(tracer.records) > 1
        assert parts["total"] == result.total_cost


class TestCacheAndJournalEvents:
    def test_cache_events(self, tmp_path):
        from repro.session import RobustSession
        tracer = Tracer()
        session = RobustSession(tracer=tracer)
        session.space("2D_Q91")
        session.space("2D_Q91")
        types = [r["type"] for r in tracer.records]
        assert "cache-miss" in types
        assert "cache-hit" in types
        hit = next(r for r in tracer.records if r["type"] == "cache-hit")
        assert hit["tier"] == "memory"
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["cache.miss"] == 1
        assert counters["cache.hit.memory"] >= 1

    def test_journal_commit_event(self, tmp_path):
        tracer = Tracer()
        journal = SweepJournal(str(tmp_path / "journal"), fsync=False)
        journal.open(config={"id": 1})
        unit = SweepJournal.unit_key("q", "spillbound")
        journal.begin(unit)
        journal.commit(unit, {"x": 1}, tracer=tracer)
        journal.close()
        commits = [r for r in tracer.records
                   if r["type"] == "journal-commit"]
        assert len(commits) == 1
        assert commits[0]["unit"] == unit


class TestFaultyRoundTrip:
    """Acceptance: trace round-trip under fault injection (S4)."""

    def test_bit_identical_and_exact_decomposition(
            self, tmp_path, toy_space, toy_contours):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        guard = DiscoveryGuard(SpillBound(toy_space, toy_contours))
        plan = FaultPlan(crash_rate=0.2, transient_rate=0.1,
                         corruption_rate=0.1, drift_rate=0.1, seed=5)
        results = []
        for flat in range(0, toy_space.grid.size, 29):
            qa = toy_space.grid.unflat(flat)
            engine = FaultyEngine(toy_space, qa, plan=plan)
            results.append(guard.run(qa, engine=engine, tracer=tracer))
        tracer.close()

        replayed = read_trace(path)
        assert replayed == tracer.records  # bit-identical round-trip
        types = {r["type"] for r in replayed}
        assert "execution" in types and "run-end" in types
        assert "fault" in types  # adversity actually fired

        # The last answering run's spend decomposition reconciles
        # exactly (==, not approx) with the returned total.
        parts = decompose(replayed)
        assert parts["total"] == results[-1].total_cost

    def test_every_run_decomposes_exactly(self, toy_space, toy_contours):
        tracer = Tracer()
        algo = SpillBound(toy_space, toy_contours)
        totals = {}
        for qa in [(0, 0), (8, 8), (15, 15)]:
            run = tracer.runs + 1
            totals[run] = algo.run(qa, tracer=tracer).total_cost
        for run, total in totals.items():
            assert decompose(tracer.records, run=run)["total"] == total


class TestSweepDriverTracing:
    def test_trace_dir_and_aggregation(self, tmp_path):
        from repro.session import RobustSession, SweepDriver
        session = RobustSession()
        driver = SweepDriver(session, sample=3,
                             trace_dir=str(tmp_path / "traces"))
        records = list(driver.run(["2D_Q91"], ["spillbound"]))
        assert (tmp_path / "traces" / "2D_Q91-spillbound.jsonl").exists()
        trace = read_trace(
            str(tmp_path / "traces" / "2D_Q91-spillbound.jsonl"))
        assert sum(r["type"] == "run-end" for r in trace) == 3
        obs = driver.obs_summary()
        assert obs["counters"]["executions"] == \
            records[0].sweep.extras["obs"]["counters"]["executions"]
        # The trace sink was a run argument: the instance holds none.
        assert not hasattr(records[0].instance, "tracer")

    def test_payload_round_trips_sample_geometry(self):
        sweep = _sweep_from_payload(_sweep_payload(
            type("S", (), {
                "algorithm": "sb",
                "shape": (2,),
                "sub_optimalities": np.array([1.5, 2.5]),
                "extras": {"degraded": 0, "degraded_reasons": {}},
                "sample_flats": [7, 3],
                "grid_shape": (4, 4),
            })()))
        assert sweep.sample_flats == [7, 3]
        assert sweep.grid_shape == (4, 4)
        assert sweep.worst_location() == (0, 3)  # unravel(3, (4, 4))

    def test_payload_tolerates_legacy_journals(self):
        sweep = _sweep_from_payload({
            "algorithm": "sb", "shape": [2],
            "sub_optimalities": [1.0, 2.0], "extras": {}})
        assert sweep.sample_flats is None
        assert sweep.grid_shape is None


class TestTraceReport:
    def test_render_contains_sections(self, toy_space, toy_contours):
        tracer = Tracer()
        SpillBound(toy_space, toy_contours).run((8, 8), tracer=tracer)
        text = render_trace_report(tracer.records)
        assert "Execution timeline" in text
        assert "Budget waterfall" in text
        assert "MSO decomposition" in text
        assert "Event summary" in text

    def test_render_handles_empty_trace(self):
        text = render_trace_report([])
        assert "no completed discovery run" in text


class TestEngineTagging:
    """run-start events carry the execution substrate's name."""

    def test_simulated_runs_are_tagged(self, toy_space, toy_contours):
        from repro.engine.simulated import SimulatedEngine

        tracer = Tracer()
        algo = SpillBound(toy_space, toy_contours)
        algo.run((8, 8), engine=SimulatedEngine(toy_space, (8, 8)),
                 tracer=tracer)
        starts = [r for r in tracer.records if r["type"] == "run-start"]
        assert starts and all(r["engine"] == "simulated" for r in starts)

    def test_engine_label_walks_wrapper_chains(self, toy_space):
        from repro.algorithms.base import engine_label
        from repro.engine.faulty import FaultPlan, FaultyEngine
        from repro.engine.latency import LatencyEngine
        from repro.engine.simulated import SimulatedEngine

        assert engine_label(None) == "simulated"
        base = SimulatedEngine(toy_space, (1, 1))
        assert engine_label(base) == "simulated"
        assert engine_label(LatencyEngine(base, ms=0.0)) == "simulated"
        assert engine_label(FaultyEngine(
            toy_space, (1, 1), plan=FaultPlan(seed=1))) == "simulated"

        class _Backend:
            backend_name = "sqlite"

        class _Wrapper:
            base = _Backend()

        assert engine_label(_Wrapper()) == "sqlite"
