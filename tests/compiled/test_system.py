"""compile_spec: fingerprints, the LRU, and the picklable meta card."""

from __future__ import annotations

import dataclasses
import gc
import pickle
import weakref

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.compiled.system import (
    SCHEMA,
    clear_spec_cache,
    compile_spec,
    spec_fingerprint,
)
from repro.runner.spec import ExperimentSpec

SPEC = ExperimentSpec(
    detector="omega",
    algorithm=omega_consensus_algorithm,
    locations=(0, 1, 2),
    proposals={0: 0, 1: 1, 2: 1},
    crashes={0: 40},
    f=1,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_spec_cache()
    yield
    clear_spec_cache()


class TestFingerprint:
    def test_run_varying_knobs_excluded(self):
        base = spec_fingerprint(SPEC)
        for override in (
            {"seed": 99},
            {"crashes": {1: 5}},
            {"f": 2},
            {"max_steps": 17},
            {"min_live_outputs": 3},
            {"compiled": True},
            {"instrument": True},
        ):
            assert spec_fingerprint(
                dataclasses.replace(SPEC, **override)
            ) == base, override

    def test_system_shaping_knobs_included(self):
        base = spec_fingerprint(SPEC)
        for override in (
            {"detector": "evp"},
            {"locations": (0, 1)},
            {"proposals": {0: 1, 1: 1, 2: 1}},
        ):
            changed = dataclasses.replace(SPEC, **override)
            if "locations" in override:
                changed = dataclasses.replace(
                    changed, proposals={0: 0, 1: 1}
                )
            assert spec_fingerprint(changed) != base, override

    def test_unbound_fault_plan_keys_per_seed(self):
        from repro.faults.plan import ChannelFaults, FaultPlan

        plan = FaultPlan(default=ChannelFaults(drop_p=0.25))
        spec = dataclasses.replace(SPEC, fault_plan=plan)
        a = spec_fingerprint(dataclasses.replace(spec, seed=1))
        b = spec_fingerprint(dataclasses.replace(spec, seed=2))
        assert a != b


class TestSpecCache:
    def test_equal_fingerprints_share_tables(self):
        first = compile_spec(SPEC)
        again = compile_spec(dataclasses.replace(SPEC, seed=123, crashes={}))
        assert again is first

    def test_distinct_fingerprints_do_not(self):
        first = compile_spec(SPEC)
        other = compile_spec(dataclasses.replace(SPEC, detector="evp"))
        assert other is not first

    def test_runs_reuse_compiled_tables(self):
        cs = compile_spec(SPEC)
        r1 = cs.run(seed=1)
        r2 = cs.run(seed=2)
        assert r1.solved and r2.solved
        # The second run re-walked interned territory: tables grew once.
        assert cs.table_sizes()["configs"] > 0

    def test_evicted_system_is_freed(self):
        # The compiled core refers back to its automaton, so a per-process
        # map from automaton to core would keep every compiled system
        # alive; once out of the LRU, the pair must be collectable.
        cs = compile_spec(SPEC)
        cs.run(seed=1)
        composition = weakref.ref(cs.system.composition)
        core = weakref.ref(cs.core)
        del cs
        clear_spec_cache()
        gc.collect()
        assert composition() is None
        assert core() is None


class TestMeta:
    def test_pickle_round_trip(self):
        meta = compile_spec(SPEC).meta
        clone = pickle.loads(pickle.dumps(meta))
        assert clone == meta
        assert clone.schema == SCHEMA
        assert clone.fingerprint == spec_fingerprint(SPEC)

    def test_to_dict_is_json_able(self):
        import json

        doc = compile_spec(SPEC).meta.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["problem"] == "consensus"
        assert doc["locations"] == [0, 1, 2]
        assert doc["n_components"] >= 3

    def test_detector_trace_meta(self):
        spec = ExperimentSpec(
            problem="detector-trace",
            detector="evp",
            locations=(0, 1),
            f=1,
        )
        cs = compile_spec(spec)
        assert cs.meta.problem == "detector-trace"
        assert cs.meta.n_components == 1
        assert cs.automaton is not None and cs.system is None


class TestApiCompile:
    def test_spec_dispatch(self):
        from repro.api import compile as api_compile

        cs = api_compile(SPEC)
        assert cs is compile_spec(SPEC)

    def test_automaton_dispatch(self):
        from repro.api import compile as api_compile
        from repro.compiled.tables import CompiledAutomaton
        from repro.detectors.registry import resolve_detector

        automaton = resolve_detector("omega", (0, 1)).automaton()
        core = api_compile(automaton)
        assert isinstance(core, CompiledAutomaton)
        # Memoised: compiling the same instance reuses the core.
        assert api_compile(automaton) is core

    def test_junk_rejected(self):
        from repro.api import compile as api_compile

        with pytest.raises(TypeError, match="ExperimentSpec or an Automaton"):
            api_compile(42)
