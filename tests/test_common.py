"""Tests for shared infrastructure: reporting, RNG, error hierarchy,
bounded caches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    BudgetExhaustedError,
    CatalogError,
    DiscoveryError,
    ExecutionError,
    OptimizerError,
    PlanError,
    QueryError,
    ReproError,
)
from repro.common.lru import BoundedCache
from repro.common.reporting import Report, format_table
from repro.common.rng import derive_rng, make_rng


class TestErrors:
    @pytest.mark.parametrize("exc", [
        CatalogError, QueryError, OptimizerError, PlanError,
        ExecutionError, BudgetExhaustedError, DiscoveryError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_budget_error_carries_context(self):
        err = BudgetExhaustedError("boom", observed={1: 5}, spent=3.0)
        assert err.observed == {1: 5}
        assert err.spent == 3.0


class TestRng:
    def test_seed_determinism(self):
        a = make_rng(7).integers(0, 1000, 5)
        b = make_rng(7).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_derive_namespacing(self):
        parent1 = make_rng(3)
        parent2 = make_rng(3)
        child_a = derive_rng(parent1, "a")
        child_b = derive_rng(parent2, "b")
        assert not np.array_equal(
            child_a.integers(0, 10**9, 4), child_b.integers(0, 10**9, 4))


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "v"], [["a", 1.5], ["long", 22.25]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in text
        assert "22.25" in text

    def test_title_underlined(self):
        text = format_table(["h"], [["x"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="

    def test_bool_formatting(self):
        assert "True" in format_table(["b"], [[True]])

    @given(st.lists(
        st.lists(
            st.one_of(st.integers(-10**6, 10**6),
                      st.floats(-1e6, 1e6),
                      st.text(
                          alphabet=st.characters(
                              blacklist_categories=("Cs", "Cc")),
                          max_size=12,
                      )),
            min_size=2, max_size=2,
        ),
        min_size=1, max_size=6,
    ))
    @settings(max_examples=40, deadline=None)
    def test_never_crashes_and_row_count_preserved(self, rows):
        text = format_table(["a", "b"], rows)
        assert len(text.split("\n")) == 2 + len(rows)


class TestReport:
    def test_render_includes_tables(self):
        report = Report("demo")
        report.add_table("first", ["x"], [[1]])
        report.add_table("second", ["y"], [[2]])
        text = report.render()
        assert "# demo" in text
        assert "first" in text and "second" in text

    def test_str_matches_render(self):
        report = Report("demo")
        report.add_table("t", ["x"], [[1]])
        assert str(report) == report.render()


class TestBoundedCache:
    def test_counts_entries_and_evicts_least_recent(self):
        cache = BoundedCache(2)
        assert cache.setdefault("a", 1) == 1
        cache.setdefault("b", 2)
        assert cache.get("a") == 1  # "b" is now the least recent
        cache.setdefault("c", 3)
        assert cache.get("b") is None
        assert [key for key, _ in cache.items()] == ["a", "c"]
        assert cache.held == len(cache) == 2

    def test_first_publish_wins(self):
        cache = BoundedCache(4)
        first = cache.setdefault("k", [1])
        assert cache.setdefault("k", [1]) is first

    def test_weighted_budget_keeps_the_newest(self):
        cache = BoundedCache(100, weigh=len)
        cache.setdefault("a", "x" * 60)
        cache.setdefault("b", "x" * 30)
        cache.setdefault("c", "x" * 20)
        assert [key for key, _ in cache.items()] == ["b", "c"]
        assert cache.held == 50
        cache.setdefault("d", "x" * 500)
        assert [key for key, _ in cache.items()] == ["d"]
        assert cache.held == 500
