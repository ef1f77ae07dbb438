"""Tests for the declarative engine registry and spec grammar.

The registry is a naming layer, not a new semantics: every spec must
build engines whose fault-free runs are execution-identical to the
hand-built composition it replaces.
"""

import pytest

from repro.algorithms.spillbound import SpillBound
from repro.catalog.datagen import generate_database
from repro.catalog.schema import Catalog, Column, Table
from repro.common.errors import DiscoveryError
from repro.engine.faulty import FaultPlan, FaultyEngine
from repro.engine.noisy import NoisyEngine
from repro.engine.simulated import SimulatedEngine
from repro.ess.contours import ContourSet
from repro.ess.space import ExplorationSpace
from repro.executor.rowengine import RowBackedEngine
from repro.query.query import Query, make_filter, make_join
from repro.session import BASE_ENGINES, ENGINE_LAYERS, EngineSpec


class TestParsing:
    def test_bare_base(self):
        spec = EngineSpec.parse("simulated")
        assert spec.base == "simulated"
        assert spec.base_args == {}
        assert spec.layers == ()

    def test_layers_and_arguments(self):
        spec = EngineSpec.parse(
            "simulated+noisy(delta=0.3,seed=13)+faulty(crash=0.2)")
        assert spec.layers == (
            ("noisy", {"delta": 0.3, "seed": 13.0}),
            ("faulty", {"crash": 0.2}),
        )

    def test_leading_plus_implies_simulated(self):
        assert EngineSpec.parse("+faulty(crash=0.2)") == \
            EngineSpec.parse("simulated+faulty(crash=0.2)")

    def test_describe_roundtrips(self):
        for text in ("simulated",
                     "row(delta=1)",
                     "simulated+noisy(delta=0.3,seed=13)",
                     "vectorized(delta=0.5)",
                     "simulated+noisy(delta=0.1)+faulty(crash=0.2,seed=5)"):
            spec = EngineSpec.parse(text)
            again = EngineSpec.parse(spec.describe())
            assert again == spec
            assert again.describe() == spec.describe()

    def test_spec_instance_passes_through(self):
        spec = EngineSpec.parse("simulated")
        assert EngineSpec.parse(spec) is spec

    def test_registry_has_builtin_vocabulary(self):
        assert {"simulated", "row", "vectorized"} <= set(BASE_ENGINES)
        assert {"noisy", "faulty"} <= set(ENGINE_LAYERS)

    @pytest.mark.parametrize("bad", [
        "", "   ", "warp_drive", "simulated+telepathy()",
        "simulated+noisy(delta)", "simulated+noisy(delta=lots)",
        "simulated+noisy(delta=0.3", "simulated++noisy()",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(DiscoveryError):
            EngineSpec.parse(bad)

    def test_unknown_layer_arguments_rejected(self, toy_space):
        qa = (3, 3)
        with pytest.raises(DiscoveryError, match="noisy"):
            EngineSpec.parse("simulated+noisy(volume=11)").build(
                toy_space, qa_index=qa)
        with pytest.raises(DiscoveryError, match="faulty"):
            EngineSpec.parse("simulated+faulty(explode=1)").build(
                toy_space, qa_index=qa)

    def test_noisy_cannot_wrap_non_simulated(self, toy_space):
        with pytest.raises(DiscoveryError, match="noisy"):
            EngineSpec.parse("simulated+faulty()+noisy()").build(
                toy_space, qa_index=(3, 3))


def run_trace(space, contours, engine):
    result = SpillBound(space, contours).run(engine.qa_index,
                                             engine=engine)
    return [(r.contour, r.plan_id, r.mode, r.budget, r.spent,
             r.completed) for r in result.executions]


@pytest.fixture(scope="module")
def registry_row_setup():
    catalog = Catalog("regcat", [
        Table("fact", 3000, [
            Column("f_id", 3000),
            Column("f_d1", 80),
            Column("f_d2", 60),
            Column("f_val", 40, lo=0, hi=40),
        ]),
        Table("d1", 120, [Column("k1", 80)]),
        Table("d2", 90, [Column("k2", 60)]),
    ])
    query = Query(
        "registry_q", catalog,
        ["fact", "d1", "d2"],
        [
            make_join("j1", "fact.f_d1", "d1.k1"),
            make_join("j2", "fact.f_d2", "d2.k2"),
        ],
        [make_filter("f", "fact.f_val", "<", 20)],
        epps=("j1", "j2"),
    )
    database = generate_database(
        catalog, rng=9, skew={"fact.f_d1": 1.5, "d1.k1": 1.0})
    space = ExplorationSpace(query, resolution=12, s_min=1e-5)
    space.build(mode="exact")
    return database, space, ContourSet(space)


class TestExecutionIdentical:
    """Every registry combination == its hand-built composition."""

    QA = (10, 12)

    def test_simulated(self, toy_space, toy_contours):
        built = EngineSpec.parse("simulated").build(
            toy_space, qa_index=self.QA)
        hand = SimulatedEngine(toy_space, self.QA)
        assert run_trace(toy_space, toy_contours, built) == \
            run_trace(toy_space, toy_contours, hand)

    def test_noisy(self, toy_space, toy_contours):
        built = EngineSpec.parse(
            "simulated+noisy(delta=0.3,seed=13)").build(
            toy_space, qa_index=self.QA)
        hand = NoisyEngine(toy_space, self.QA, delta=0.3, seed=13)
        assert run_trace(toy_space, toy_contours, built) == \
            run_trace(toy_space, toy_contours, hand)

    def test_faulty_clean_plan(self, toy_space, toy_contours):
        built = EngineSpec.parse("simulated+faulty(seed=5)").build(
            toy_space, qa_index=self.QA)
        hand = FaultyEngine(toy_space, self.QA, plan=FaultPlan(seed=5))
        trace = run_trace(toy_space, toy_contours, built)
        assert trace == run_trace(toy_space, toy_contours, hand)
        # A fault-free plan is also execution-identical to no wrapper.
        assert trace == run_trace(
            toy_space, toy_contours, SimulatedEngine(toy_space, self.QA))

    def test_noisy_plus_faulty(self, toy_space, toy_contours):
        built = EngineSpec.parse(
            "simulated+noisy(delta=0.2,seed=7)+faulty(seed=3)").build(
            toy_space, qa_index=self.QA)
        hand = FaultyEngine(
            toy_space, self.QA, plan=FaultPlan(seed=3),
            base=NoisyEngine(toy_space, self.QA, delta=0.2, seed=7))
        assert run_trace(toy_space, toy_contours, built) == \
            run_trace(toy_space, toy_contours, hand)

    def test_faulty_plan_override(self, toy_space, toy_contours):
        """Build-time knob overrides reach the last faulty layer and
        build the plan those knobs name."""
        plan = FaultPlan(drift_rate=0.4, drift_factor=1.5, seed=11)
        built = EngineSpec.parse("simulated+faulty(drift=0.1)").build(
            toy_space, qa_index=self.QA, drift=0.4, drift_factor=1.5,
            seed=11)
        hand = FaultyEngine(toy_space, self.QA, plan=plan)
        assert built.plan.to_dict() == plan.to_dict()
        assert run_trace(toy_space, toy_contours, built) == \
            run_trace(toy_space, toy_contours, hand)

    def test_row_backed(self, registry_row_setup):
        database, space, contours = registry_row_setup
        built = EngineSpec.parse("row(delta=1)").build(
            space, database=database)
        hand = RowBackedEngine(space, database, delta=1.0)
        assert built.qa_index == hand.qa_index
        assert run_trace(space, contours, built) == \
            run_trace(space, contours, hand)

    def test_vectorized(self, registry_row_setup):
        from repro.executor.vectorized import VectorEngine
        database, space, contours = registry_row_setup
        built = EngineSpec.parse("vectorized(delta=1)").build(
            space, database=database)
        hand = RowBackedEngine(space, database,
                               executor_cls=VectorEngine, delta=1.0)
        assert built.qa_index == hand.qa_index
        assert run_trace(space, contours, built) == \
            run_trace(space, contours, hand)

    def test_row_needs_database(self, registry_row_setup):
        _database, space, _contours = registry_row_setup
        with pytest.raises(DiscoveryError, match="database"):
            EngineSpec.parse("row()").build(space)


class TestBackendSpecs:
    """``row(backend=...)`` vocabulary: parse, round-trip, build."""

    def test_backend_argument_round_trips(self):
        for text in ("row(backend=sqlite)",
                     "row(backend=sqlite,delta=1)",
                     "row(backend=native,delta=0.5)",
                     "row(backend=vectorized)"):
            spec = EngineSpec.parse(text)
            again = EngineSpec.parse(spec.describe())
            assert again == spec
            assert "backend=" in spec.describe()

    def test_backend_argument_stays_a_string(self):
        spec = EngineSpec.parse("row(backend=sqlite,delta=1)")
        assert spec.base_args == {"backend": "sqlite", "delta": 1.0}

    def test_non_whitelisted_string_values_still_rejected(self):
        with pytest.raises(DiscoveryError):
            EngineSpec.parse("row(delta=lots)")

    @pytest.mark.parametrize("backend", ["native", "vectorized", "sqlite"])
    def test_builds_the_named_backend(self, registry_row_setup, backend):
        database, space, _contours = registry_row_setup
        built = EngineSpec.parse("row(backend=%s,delta=1)" % backend).build(
            space, database=database)
        assert isinstance(built, RowBackedEngine)
        assert built.backend_name == backend

    def test_sqlite_spec_is_execution_identical_to_handbuilt(
            self, registry_row_setup):
        database, space, contours = registry_row_setup
        built = EngineSpec.parse("row(backend=sqlite,delta=1)").build(
            space, database=database)
        hand = RowBackedEngine(space, database, backend="sqlite",
                               delta=1.0)
        assert built.qa_index == hand.qa_index
        assert run_trace(space, contours, built) == \
            run_trace(space, contours, hand)

    def test_unknown_backend_rejected(self, registry_row_setup):
        database, space, _contours = registry_row_setup
        with pytest.raises(DiscoveryError, match="backend"):
            EngineSpec.parse("row(backend=duckdb)").build(
                space, database=database)

    def test_vectorized_base_refuses_backend_argument(
            self, registry_row_setup):
        database, space, _contours = registry_row_setup
        with pytest.raises(DiscoveryError, match="vectorized"):
            EngineSpec.parse("vectorized(backend=sqlite)").build(
                space, database=database)

    def test_database_spec_resolves_at_build_time(self, registry_row_setup):
        from repro.catalog.datagen import DatabaseSpec
        _database, space, contours = registry_row_setup
        spec = DatabaseSpec(rng=9, skew={"fact.f_d1": 1.5, "d1.k1": 1.0})
        built = EngineSpec.parse("row(backend=sqlite,delta=1)").build(
            space, database=spec)
        hand = RowBackedEngine(space, spec, backend="sqlite", delta=1.0)
        assert built.qa_index == hand.qa_index
        assert run_trace(space, contours, built) == \
            run_trace(space, contours, hand)
