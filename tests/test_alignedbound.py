"""Tests for AlignedBound: partitions, PSA enforcement, guarantees."""

import math

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
    """Constrained probes register plans into the shared, cached space;
    an answer must not depend on which runs registered them first."""

    QUERY, RESOLUTION = "4D_Q91", 5

    def _run(self, session, qa):
        result = session.run(self.QUERY, qa, algorithm="alignedbound",
                             resolution=self.RESOLUTION)
        return (result.total_cost, result.num_executions,
                [(r.contour, r.mode, r.epp, r.budget, r.spent)
                 for r in result.executions])

    def test_earlier_run_does_not_change_an_answer(self):
        from repro.session import RobustSession

        fresh = self._run(RobustSession(), (4, 3, 0, 0))
        warm = RobustSession()
        space, _ = warm.space_and_contours(self.QUERY,
                                           resolution=self.RESOLUTION)
        built = len(space.plans)
        self._run(warm, (4, 0, 2, 0))
        # The earlier run's probes did grow the shared space ...
        assert len(space.plans) > built
        # ... but the later answer is the fresh session's, bit for bit.
        assert self._run(warm, (4, 3, 0, 0)) == fresh
        assert len(space.built_plans) == built
