"""Tests for AlignedBound's contour-alignment report (Table 2 machinery)."""

import pytest

from repro.algorithms.alignedbound import AlignedBound, ContourAlignmentReport


class TestReport:
    def test_fraction_monotone_in_cap(self):
        report = ContourAlignmentReport([1.0, 1.3, 2.5, float("inf")])
        fractions = [report.fraction_aligned(c) for c in
                     (1.0, 1.2, 1.5, 2.0, 3.0)]
        assert fractions == sorted(fractions)

    def test_fraction_values(self):
        report = ContourAlignmentReport([1.0, 1.3, 2.5])
        assert report.fraction_aligned(1.0) == pytest.approx(1 / 3)
        assert report.fraction_aligned(1.5) == pytest.approx(2 / 3)
        assert report.fraction_aligned(3.0) == pytest.approx(1.0)

    def test_max_penalty(self):
        assert ContourAlignmentReport([1.0, 2.5]).max_penalty() == 2.5

    def test_empty_defaults(self):
        report = ContourAlignmentReport([])
        assert report.fraction_aligned() == 1.0
        assert report.max_penalty() == 1.0


class TestAnalysis:
    def test_penalties_at_least_one(self, toy_space, toy_contours):
        report = AlignedBound(toy_space, toy_contours).alignment()
        assert len(report.penalties) == len(toy_contours)
        assert all(p >= 1.0 - 1e-12 for p in report.penalties)

    def test_native_alignment_detected(self, toy_space, toy_contours):
        """At least the degenerate single-plan contours are aligned."""
        report = AlignedBound(toy_space, toy_contours).alignment()
        assert report.fraction_aligned(1.0) > 0.0

    def test_3d_analysis_runs(self, toy_space_3d, toy_contours_3d):
        report = AlignedBound(toy_space_3d, toy_contours_3d).alignment()
        assert 0.0 <= report.fraction_aligned(2.0) <= 1.0
