"""Pinned fault schedules and the shared seeded fault primitive.

Every seeded fault layer (engine, IR backend, serving wire) promises
that a plan's schedule is a pure function of the plan. The other fault
tests compare a plan with itself or with a copy rebuilt in another
process, so a change to the draw order would pass them all. These
digests were generated once from the historical per-layer plans and pin
the exact decisions, parameters and serialized forms: any change to the
shared primitive or to a layer's ``fault_at`` that moves a single draw
fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.common.errors import EngineCrashError, TransientEngineError
from repro.common.faults import SeededFaultPlan
from repro.engine.faulty import (
    CRASH_SPEND_HI,
    CRASH_SPEND_LO,
    FaultPlan,
    FaultyEngine,
)
from repro.ir.faults import BackendFaultPlan
from repro.serve.faults import ServeFaultPlan
from repro.session import EngineSpec


def digest(payload):
    """sha256 of the payload's canonical JSON (sorted keys, compact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _engine_plan(seed):
    return FaultPlan(crash_rate=0.2, transient_rate=0.15,
                     corruption_rate=0.1, drift_rate=0.3,
                     drift_factor=1.4, seed=seed,
                     crash_on_calls=(5, 17, 120),
                     transient_on_calls=(2, 40))


def _serve_plan(slow_ms):
    return ServeFaultPlan(drop_rate=0.1, truncate_rate=0.1,
                          garbage_rate=0.1, slow_rate=0.2,
                          slow_ms=slow_ms, seed=3,
                          drop_on_frames=(4, 90), truncate_on_frames=(8,),
                          garbage_on_frames=(12, 13),
                          slow_on_frames=(16,))


SCHEDULES = {
    "engine-execute-seed7":
        lambda: _engine_plan(7).schedule(200, mode="execute"),
    "engine-spill-seed7":
        lambda: _engine_plan(7).schedule(200, mode="spill", resolution=20),
    "engine-spill-seed23":
        lambda: _engine_plan(23).schedule(200, mode="spill", resolution=9),
    "backend-forced":
        lambda: BackendFaultPlan(fail_rate=0.3, seed=5,
                                 fail_on_calls=(3, 9, 150)).schedule(200),
    "serve-slow0":
        lambda: _serve_plan(0.0).schedule(200),
    "serve-slow40":
        lambda: _serve_plan(40.0).schedule(200),
}

SCHEDULE_DIGESTS = {
    "backend-forced":
        "fae47632ec51219f145d3040b633356d70aab428e7fe9a3714cb7a1d092c4ed2",
    "engine-execute-seed7":
        "b3cbd776c8700a6e3a389245ed77e41a0dc91f0d49cfd3418436080cf77a71ba",
    "engine-spill-seed23":
        "a455273a6695110b88aa18f8370a09ddd2883b73fef76abf3aa43b47a7667c65",
    "engine-spill-seed7":
        "9dfb8f4a0eeea3ed96a2c9d90a14f282354ee8933f5b8fe0de7534f59d2d7545",
    "serve-slow0":
        "fa72307735f595fcf7c72f4d0674811c5fd090e292a751afb3be64b90f1bf10c",
    "serve-slow40":
        "0947acb5256bcfdf3510d194d960c1b266a4097a79a6b12141e48c24a2732868",
}

PARSED = {
    "engine-kv":
        lambda: FaultPlan.parse(
            "crash=0.2,transient=0.3,corrupt=0.1,drift=0.05,"
            "drift_factor=2.0", seed=4),
    "engine-bare": lambda: FaultPlan.parse("0.25", seed=1),
    "engine-clean": lambda: FaultPlan.parse(""),
    "backend-kv": lambda: BackendFaultPlan.parse("fail=0.4", seed=2),
    "backend-bare": lambda: BackendFaultPlan.parse("0.3"),
    "serve-kv":
        lambda: ServeFaultPlan.parse(
            "drop=0.1,truncate=0.2,garbage=0.05,slow=0.3,slow_ms=80",
            seed=9),
    "serve-bare": lambda: ServeFaultPlan.parse("0.25", seed=6),
}

PARSED_DIGESTS = {
    "backend-bare":
        "efcc7a54ab08b7f6403d02580c12237562d8336cbcaa3690b26451cc56e45d84",
    "backend-kv":
        "09e4980b9f84bfd5bb75ceae3598712e5989a5c3e4bb89baf6932773c6e9f4bf",
    "engine-bare":
        "e2513f58c884218e7b4b1917df637f5da6762dd74bceddf9c4ab247416e36a3e",
    "engine-clean":
        "1e11cc43d535a0192ba0b57b82e73b44d7c1ffec20cf536f64522b8e6ebfa0b3",
    "engine-kv":
        "1fd376d1ececc53181a5df54cb27e2e0f0c53d8c82af60460979d32c4168df34",
    "serve-bare":
        "d37b16dca255c1cd7afd948b59ce921318771f2be987438c50c10c0287bca609",
    "serve-kv":
        "c30bc24a165353e48f1a581ae8ccda8bcdc4588bd35ade0953665751d911caaf",
}

ENGINE_TRANSCRIPT_DIGEST = (
    "ec15bff6ddec2c0c2cee5f3d5ca7518b4d10dfbb35b24402349c872beaa4a2ba")

REGISTRY_PLAN_DIGEST = (
    "43bfc41d131bc58ef6d09180664695dc0288299a9f9a6149a55dec7f08c77b5f")


@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_schedule_digest_is_pinned(case):
    assert digest(SCHEDULES[case]()) == SCHEDULE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(PARSED))
def test_parsed_plan_digest_is_pinned(case):
    assert digest(PARSED[case]().to_dict()) == PARSED_DIGESTS[case]


def _engine_transcript(space, engine, calls):
    """What ``engine`` actually injects over ``calls`` alternating
    regular and spill executions, as JSON-safe records."""
    plan_info = space.optimal_plan((9, 5))
    epp, node = plan_info.spill_target(set(space.query.epps))
    budget = plan_info.cost[(9, 5)] * 1.5
    records = []
    for call in range(calls):
        try:
            if call % 2:
                outcome = engine.execute_spill(plan_info, epp, node, budget)
                records.append(["spill", bool(outcome.completed),
                                float(outcome.spent),
                                int(outcome.learned_index)])
            else:
                outcome = engine.execute(plan_info, budget)
                records.append(["execute", bool(outcome.completed),
                                float(outcome.spent)])
        except TransientEngineError:
            records.append(["transient"])
        except EngineCrashError as exc:
            records.append(["crash", float(exc.spent)])
    return records


def test_faulty_engine_transcript_is_pinned(toy_space):
    engine = FaultyEngine(toy_space, (6, 11), plan=_engine_plan(11))
    assert digest(_engine_transcript(toy_space, engine, 120)) == \
        ENGINE_TRANSCRIPT_DIGEST


def test_registry_faulty_layer_plan_is_pinned(toy_space):
    engine = EngineSpec.parse(
        "simulated+faulty(crash=0.01,transient=0.02,corrupt=0.02,"
        "drift=0.05,drift_factor=1.25,seed=3)").build(
            toy_space, qa_index=(6, 11))
    assert digest(engine.plan.to_dict()) == REGISTRY_PLAN_DIGEST



class TestSharedPrimitive:
    """What the one base gives every layer alike."""

    PLANS = (FaultPlan, BackendFaultPlan, ServeFaultPlan)

    @pytest.mark.parametrize("cls", PLANS)
    def test_every_layer_is_the_shared_primitive(self, cls):
        assert issubclass(cls, SeededFaultPlan)
        assert cls.parse("").is_clean
        assert cls.parse("").describe() == "clean"

    def test_describe_has_one_format(self):
        assert FaultPlan(crash_rate=0.2, corruption_rate=0.1,
                         crash_on_calls=(3,)).describe() == \
            "crash=0.2,corrupt=0.1,forced=1"
        assert BackendFaultPlan(fail_rate=0.3,
                                fail_on_calls=(1, 2)).describe() == \
            "fail=0.3,forced=2"
        assert ServeFaultPlan(drop_rate=0.1, slow_on_frames=(1,),
                              garbage_on_frames=(4,)).describe() == \
            "drop=0.1,forced=2"
        assert repr(BackendFaultPlan(fail_rate=0.5, seed=3)) == \
            "BackendFaultPlan(fail=0.5, seed=3)"

    @pytest.mark.parametrize("cls", PLANS)
    def test_unknown_knob_and_keyword_rejected(self, cls):
        with pytest.raises(ValueError, match=cls.__name__):
            cls.parse("explode=1")
        with pytest.raises(ValueError):
            cls.from_knobs({"explode": 1.0})
        with pytest.raises(TypeError):
            cls(explode_rate=0.5)

    def test_forced_ordinal_consumes_no_draw(self):
        # The unforced transient takes the stream's first uniform; the
        # forced crash takes none, so its lost-spend fraction is the
        # second.
        rng = np.random.default_rng((9, 1))
        rng.uniform()
        fraction = rng.uniform(CRASH_SPEND_LO, CRASH_SPEND_HI)
        assert FaultPlan(crash_on_calls=(1,), seed=9).fault_at(1) == \
            {"call": 1, "fault": "crash", "spend_fraction": fraction}
