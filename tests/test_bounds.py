"""Theorem-level property tests on randomised instances.

These are the repository's strongest correctness checks: random
catalogs and queries are generated, the ESS is built exactly, and the
paper's guarantees (Theorems 4.2, 4.5, 5.1 and the PlanBouquet bound)
are asserted over *exhaustive* empirical MSO sweeps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.alignedbound import AlignedBound
from repro.algorithms.planbouquet import PlanBouquet
from repro.algorithms.spillbound import SpillBound, spillbound_guarantee
from repro.catalog.schema import Catalog, Column, Table
from repro.ess.contours import ContourSet
from repro.ess.space import ExplorationSpace
from repro.metrics.mso import exhaustive_sweep
from repro.query.query import Query, make_join


def random_instance(draw):
    """Draw a random 2- or 3-epp chain/star query over random stats."""
    n_dims = draw(st.integers(2, 3))
    fact_rows = draw(st.integers(10_000, 10_000_000))
    dims = []
    joins = []
    fact_cols = [Column("pk", fact_rows)]
    shape = draw(st.sampled_from(["star", "chain"]))
    prev_table = "fact"
    for k in range(n_dims):
        rows = draw(st.integers(100, 200_000))
        ndv = draw(st.integers(50, max(51, rows)))
        link_ndv = draw(st.integers(50, 100_000))
        table = "dim%d" % k
        cols = [Column("id", ndv)]
        if shape == "chain" and k + 1 < n_dims:
            cols.append(Column("link", link_ndv))
        dims.append(Table(table, rows, cols))
        if shape == "star":
            fact_cols.append(Column("fk%d" % k, link_ndv))
            joins.append(make_join(
                "j%d" % k, "fact.fk%d" % k, "%s.id" % table))
        else:
            if k == 0:
                fact_cols.append(Column("fk0", link_ndv))
                joins.append(make_join("j0", "fact.fk0", "dim0.id"))
            else:
                joins.append(make_join(
                    "j%d" % k, "%s.link" % prev_table, "%s.id" % table))
            prev_table = table
    catalog = Catalog("rand", [Table("fact", fact_rows, fact_cols)] + dims)
    return Query(
        "rand_%dd" % n_dims, catalog,
        ["fact"] + [t.name for t in dims],
        joins,
        epps=tuple(j.name for j in joins),
    )


@st.composite
def instances(draw):
    return random_instance(draw)


@given(instances())
@settings(max_examples=12, deadline=None)
def test_theorem_4_5_randomised(query):
    """SpillBound's empirical MSO never exceeds D^2 + 3D."""
    resolution = 10 if query.dimensions == 2 else 6
    space = ExplorationSpace(query, resolution=resolution, s_min=1e-5)
    space.build(mode="exact")
    contours = ContourSet(space)
    sb = SpillBound(space, contours)
    sweep = exhaustive_sweep(sb)
    d = query.dimensions
    assert sweep.mso <= d * d + 3 * d + 1e-6


@given(instances())
@settings(max_examples=8, deadline=None)
def test_planbouquet_bound_randomised(query):
    """PlanBouquet's empirical MSO never exceeds 4(1+lam)rho."""
    resolution = 10 if query.dimensions == 2 else 6
    space = ExplorationSpace(query, resolution=resolution, s_min=1e-5)
    space.build(mode="exact")
    contours = ContourSet(space)
    pb = PlanBouquet(space, contours, lam=0.2)
    sweep = exhaustive_sweep(pb)
    assert sweep.mso <= pb.mso_guarantee() + 1e-6


@given(instances())
@settings(max_examples=8, deadline=None)
def test_alignedbound_bound_randomised(query):
    """AlignedBound stays within the quadratic bound; when every contour
    is natively aligned it reaches the 2D+2 regime (Theorem 5.1)."""
    resolution = 10 if query.dimensions == 2 else 6
    space = ExplorationSpace(query, resolution=resolution, s_min=1e-5)
    space.build(mode="exact")
    contours = ContourSet(space)
    ab = AlignedBound(space, contours)
    sweep = exhaustive_sweep(ab)
    d = query.dimensions
    assert sweep.mso <= d * d + 3 * d + 1e-6
    if ab.alignment().fraction_aligned(1.0) == 1.0:
        assert sweep.mso <= ab.mso_lower_guarantee() + 1e-6


class TestTheorem42:
    def test_2d_bound_is_10(self, toy_space, toy_contours):
        sb = SpillBound(toy_space, toy_contours)
        assert sb.mso_guarantee() == pytest.approx(10.0)
        assert exhaustive_sweep(sb).mso <= 10.0 + 1e-6


class TestLowerBoundTheorem46:
    """Theorem 4.6: no half-space-pruning algorithm beats MSO = D.

    The formal adversary is out of scope (its proof is omitted in the
    paper too); we check the observable consequences instead: the
    guarantee grows quadratically while the lower bound grows linearly,
    and empirical MSO on real spaces indeed sits between 1 and the
    guarantee.
    """

    def test_guarantee_quadratic_gap(self):
        for d in range(2, 7):
            assert spillbound_guarantee(d) >= d  # bound respects Omega(D)
            assert spillbound_guarantee(d) <= d * d + 3 * d + 1e-9

    def test_empirical_exceeds_one(self, toy_space, toy_contours):
        sweep = exhaustive_sweep(SpillBound(toy_space, toy_contours))
        assert sweep.mso > 1.0
