"""Tests for AlignedBound: partitions, PSA enforcement, guarantees."""

import math

import numpy as np
import pytest

from repro.algorithms.alignedbound import AlignedBound, _set_partitions
from repro.algorithms.spillbound import SpillBound
from repro.metrics.mso import exhaustive_sweep


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5),
                                        (4, 15), (5, 52), (6, 203)])
    def test_counts_are_bell_numbers(self, n, bell):
        items = list(range(n))
        assert sum(1 for _ in _set_partitions(items)) == bell

    def test_parts_partition_the_set(self):
        items = ["a", "b", "c", "d"]
        for partition in _set_partitions(items):
            flat = [x for part in partition for x in part]
            assert sorted(flat) == sorted(items)
            assert len(flat) == len(set(flat))

    def test_parts_are_canonically_ordered(self):
        seen = set()
        for partition in _set_partitions([1, 2, 3, 4]):
            for part in partition:
                assert part == sorted(part)
                seen.add(tuple(part))
        # Each distinct subset appears with a single canonical ordering.
        assert all(t == tuple(sorted(t)) for t in seen)


class TestGuarantees:
    def test_upper_matches_spillbound(self, toy_space, toy_contours):
        ab = AlignedBound(toy_space, toy_contours)
        sb = SpillBound(toy_space, toy_contours)
        assert ab.mso_guarantee() == pytest.approx(sb.mso_guarantee())

    def test_lower_is_2d_plus_2(self, toy_space, toy_contours):
        ab = AlignedBound(toy_space, toy_contours)
        assert ab.mso_lower_guarantee() == pytest.approx(6.0)  # D = 2

    def test_lower_generalises_with_ratio(self, toy_space):
        from repro.ess.contours import ContourSet
        ab = AlignedBound(toy_space, ContourSet(toy_space, ratio=3.0))
        assert ab.mso_lower_guarantee() == pytest.approx(3 / 2 + 2 * 3)


class TestExecution:
    def test_all_locations_terminate(self, toy_space, toy_contours):
        ab = AlignedBound(toy_space, toy_contours)
        for index in toy_space.grid.indices():
            result = ab.run(index)
            assert result.executions[-1].completed

    def test_within_quadratic_bound(self, toy_space, toy_contours):
        ab = AlignedBound(toy_space, toy_contours)
        sweep = exhaustive_sweep(ab)
        assert sweep.mso <= ab.mso_guarantee() + 1e-6

    def test_3d_within_bound(self, toy_space_3d, toy_contours_3d):
        ab = AlignedBound(toy_space_3d, toy_contours_3d)
        sweep = exhaustive_sweep(ab)
        assert sweep.mso <= ab.mso_guarantee() + 1e-6

    def test_q91_within_bound(self, q91_2d_space, q91_2d_contours):
        ab = AlignedBound(q91_2d_space, q91_2d_contours)
        sweep = exhaustive_sweep(ab)
        assert sweep.mso <= ab.mso_guarantee() + 1e-6

    def test_never_plans_costlier_than_singletons(self, toy_space_3d,
                                                  toy_contours_3d):
        """The all-singletons partition (penalty = #dims with spilling
        plans) is always available, so the chosen partition's penalty is
        at most D."""
        ab = AlignedBound(toy_space_3d, toy_contours_3d)
        d = toy_space_3d.query.dimensions
        for index in [(0, 0, 0), (3, 5, 7), (7, 7, 7), (1, 6, 2)]:
            result = ab.run(index)
            penalty = result.extras.get("max_penalty", 0.0)
            assert penalty <= d + 1e-9

    def test_max_penalty_recorded(self, toy_space_3d, toy_contours_3d):
        ab = AlignedBound(toy_space_3d, toy_contours_3d)
        result = ab.run((4, 4, 4))
        assert result.extras.get("max_penalty", 0.0) >= 0.0
        assert math.isfinite(result.extras.get("max_penalty", 0.0))

    def test_step_memo_reused(self, toy_space, toy_contours, monkeypatch):
        def answers(ab):
            return {(facts, contour): choice
                    for facts, row in ab._choices.items()
                    for contour, choice in enumerate(row)
                    if choice is not None}

        ab = AlignedBound(toy_space, toy_contours)
        calls = []
        analyse = ab._analyse
        monkeypatch.setattr(ab, "_analyse",
                            lambda *args: calls.append(args) or analyse(*args))
        ab.run((5, 5))
        assert calls
        memo = answers(ab)
        del calls[:]
        ab.run((5, 5))
        # A repeated run meets only memoized states: no analysis, and
        # every earlier answer is kept as it was.
        assert calls == []
        assert answers(ab) == memo
        ab.run((5, 6))
        # Shared prefix contours come from the memo; it grows by at
        # most the new states, never resets.
        grown = answers(ab)
        assert all(grown[key] is choice for key, choice in memo.items())

    def test_no_worse_than_spillbound_aso(self, toy_space_3d,
                                          toy_contours_3d):
        ab_sweep = exhaustive_sweep(
            AlignedBound(toy_space_3d, toy_contours_3d))
        sb_sweep = exhaustive_sweep(
            SpillBound(toy_space_3d, toy_contours_3d))
        # AB targets worst-case pruning efficiency; on average it should
        # be at least in SpillBound's neighbourhood.
        assert ab_sweep.aso <= sb_sweep.aso * 1.5


class TestSessionHistory:
    """Constrained probes never grow the shared, cached space and name
    each probe plan by its signature, so no answer, record, trace or
    archive depends on which runs came first."""

    QUERY, RESOLUTION = "4D_Q91", 5
    NOISY = "simulated+noisy(delta=0.3,seed=5)"

    def _run(self, session, qa):
        result = session.run(self.QUERY, qa, algorithm="alignedbound",
                             resolution=self.RESOLUTION)
        return (result.total_cost, result.extras,
                [record.as_event() for record in result.executions])

    def test_earlier_run_does_not_change_an_answer(self):
        from repro.session import RobustSession

        fresh = self._run(RobustSession(), (4, 3, 0, 0))
        warm = RobustSession()
        space, _ = warm.space_and_contours(self.QUERY,
                                           resolution=self.RESOLUTION)
        plans = list(space.plans)
        self._run(warm, (4, 0, 2, 0))
        # The earlier run probed, but the universe did not grow ...
        assert space.plans == plans
        assert space._probes
        # ... and the later run is the fresh session's, record for record.
        assert self._run(warm, (4, 3, 0, 0)) == fresh

    def test_noisy_answer_independent_of_session_history(self):
        """Noise is seeded by plan id, so a probe plan's id must not
        depend on what the session probed before."""
        from repro.session import RobustSession

        fresh = self._run(RobustSession(engine_spec=self.NOISY),
                          (4, 1, 0, 4))
        warm = RobustSession(engine_spec=self.NOISY)
        self._run(warm, (3, 0, 0, 0))
        assert self._run(warm, (4, 1, 0, 4)) == fresh
        built = len(warm.space(self.QUERY, resolution=self.RESOLUTION).plans)
        assert any(event["plan_id"] >= built for event in fresh[2])

    def test_probe_plan_id_independent_of_probe_order(self):
        from repro.session import RobustSession

        def probe_ids(keys):
            space = RobustSession().space(self.QUERY,
                                          resolution=self.RESOLUTION)
            plans = {key: space.probe_plan(*key) for key in keys}
            return {key: plan.id for key, plan in plans.items()
                    if plan is not None and plan.id >= len(space.plans)}

        space = RobustSession().space(self.QUERY,
                                      resolution=self.RESOLUTION)
        keys = [(location, epp)
                for location in [(4, 4, 0, 0), (0, 4, 4, 0), (4, 0, 0, 4),
                                 (2, 2, 2, 2), (4, 4, 4, 4)]
                for epp in space.query.epps]
        forward = probe_ids(keys)
        assert len(set(forward.values())) >= 2
        assert probe_ids(keys[::-1]) == forward

    def test_noisy_parallel_sweep_equals_serial(self):
        from repro.harness.workloads import workload
        from repro.session import RobustSession, SweepDriver

        def sweep(workers):
            driver = SweepDriver(RobustSession(),
                                 resolution=self.RESOLUTION,
                                 engine_spec=self.NOISY, workers=workers)
            (record,) = driver.run([workload(self.QUERY)], ["alignedbound"])
            extras = dict(record.sweep.extras)
            extras.pop("obs", None)
            return record.sweep.sub_optimalities.tolist(), extras

        assert sweep(2) == sweep(None)

    def test_saved_space_after_a_sweep_loads_the_same_answers(
            self, tmp_path):
        from repro.ess.contours import ContourSet
        from repro.ess.persistence import load_space, save_space
        from repro.harness.workloads import workload
        from repro.metrics.mso import exhaustive_sweep
        from repro.session import RobustSession

        session = RobustSession()
        space, contours = session.space_and_contours(
            self.QUERY, resolution=self.RESOLUTION)
        built = len(space.plans)
        swept = exhaustive_sweep(AlignedBound(space, contours))
        path = str(tmp_path / "space.npz")
        save_space(space, path)
        loaded = load_space(workload(self.QUERY), path)
        assert len(loaded.plans) == len(space.plans) == built
        again = exhaustive_sweep(AlignedBound(loaded, ContourSet(loaded)))
        assert again.sub_optimalities.size == 625
        assert np.array_equal(again.sub_optimalities,
                              swept.sub_optimalities)
