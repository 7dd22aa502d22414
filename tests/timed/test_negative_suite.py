"""Mutation testing for timed conformance: each negative trips exactly
the AFD-validity oracle, at exactly the right index.

Mirrors ``tests/faults/test_oracles_catch_violations.py`` for the timed
layer: every registered implementation gets (a) a *run-level* negative —
a real execution whose timing assumption or fault plan breaks the
target AFD, judged by the full oracle bundle — and (b) a *trace-level*
mutation — a conformant trace with one event corrupted by hand.  In
both shapes the AFD-validity oracle must fire with the exact
first-violation index and every other oracle must stay silent, so a
green suite means the timed negatives are load-bearing, not incidental.
"""

from __future__ import annotations

import pytest

from repro.faults import ChannelFaults, FaultPlan
from repro.faults.oracles import (
    AfdValidityOracle,
    ConsensusAgreementOracle,
    ConsensusValidityOracle,
    CrashValidityOracle,
    FifoOracle,
    NoDuplicationOracle,
    NoLossOracle,
    run_oracles,
)
from repro.ioa.actions import Action
from repro.ioa.scheduler import Scheduler
from repro.system.fault_pattern import FaultPattern, is_crash
from repro.timed.registry import build_automaton, implementation_names

LOCS = (0, 1, 2)
CRASHES = {2: 160}
SEED = 5
MAX_STEPS = 600


def oracle_bundle(automaton):
    """Every applicable oracle, the AFD one aimed at the target class.

    ``ConsensusTerminationOracle`` is omitted by design: timed traces
    contain no decide events, so "every live location decides" is
    vacuously violated — the property simply does not apply here.
    """
    return (
        NoLossOracle(),
        NoDuplicationOracle(),
        FifoOracle(),
        CrashValidityOracle(allowed=set(CRASHES)),
        AfdValidityOracle(automaton.afd()),
        ConsensusAgreementOracle(),
        ConsensusValidityOracle(),
    )


def run_timed(impl, params, plan=None):
    automaton = build_automaton(
        impl, LOCS, params=params, seed=SEED, plan=plan
    )
    execution = Scheduler().run(
        automaton,
        max_steps=MAX_STEPS,
        injections=FaultPattern(CRASHES).injections(),
    )
    return automaton, list(execution.trace(automaton))


def clean_run(impl):
    """A conformant base run (bounded jitter, ample timeout)."""
    return run_timed(impl, {"timeout": 6, "delay": {"jitter": 2}})


def assert_only_afd(automaton, trace, expected_index):
    """The AFD oracle fires at the exact index; every other is silent."""
    report = run_oracles(trace, oracle_bundle(automaton))
    verdict = report.verdict("afd-validity")
    assert not verdict.ok, f"afd-validity did not fire: {report.to_dict()}"
    assert verdict.violation_index == expected_index, (
        f"afd-validity fired at {verdict.violation_index}, expected "
        f"{expected_index}: {verdict.reason}"
    )
    noisy = [
        v for v in report.verdicts if v.oracle != "afd-validity" and not v.ok
    ]
    assert not noisy, f"other oracles fired: {[v.to_dict() for v in noisy]}"


class TestCleanControls:
    @pytest.mark.parametrize("impl", implementation_names())
    def test_conformant_run_passes_every_oracle(self, impl):
        automaton, trace = clean_run(impl)
        report = run_oracles(trace, oracle_bundle(automaton))
        assert report.ok, report.to_dict()


class TestRunLevelNegatives:
    def test_pingpong_sub_bound_timeout_exact_safety_index(self):
        # timeout 2 < safe bound 5: the first slow round trip convicts
        # a live peer.  The violating output is localized exactly — P's
        # safety check reports the first premature suspicion.
        automaton, trace = run_timed(
            "ping-pong", {"timeout": 2, "delay": {"jitter": 2}}
        )
        assert_only_afd(automaton, trace, 18)
        violating = trace[18]
        assert violating.name == automaton.output_name
        assert violating.payload == ((2,),)  # suspects 2 before its crash

    def test_heartbeat_total_loss_fails_liveness_at_trace_end(self):
        # drop 1.0: no heartbeat ever lands, live peers stay suspected
        # forever.  ◇P's eventual accuracy is a liveness property — no
        # single event witnesses it, so the index is len(trace).
        automaton, trace = run_timed(
            "heartbeat",
            {"delay": {"jitter": 2}},
            plan=FaultPlan.uniform(drop_p=1.0, seed=3),
        )
        assert_only_afd(automaton, trace, len(trace))

    def test_leader_lease_outbound_cut_no_common_leader(self):
        # Cut 0's outbound channels only: 0 still hears 1 and 2, keeps
        # electing itself; 1 and 2 stop hearing 0 and elect 1.  The live
        # set never agrees, so Omega's stabilization witness never
        # arrives — a liveness failure at len(trace).
        cut = ChannelFaults(drop_p=1.0)
        automaton, trace = run_timed(
            "leader-lease",
            {"delay": {"jitter": 2}},
            plan=FaultPlan(seed=3, per_channel={(0, 1): cut, (0, 2): cut}),
        )
        assert_only_afd(automaton, trace, len(trace))


class TestTraceLevelMutations:
    def test_heartbeat_zombie_output_after_crash(self):
        automaton, trace = clean_run("heartbeat")
        crash_index = next(
            k for k, a in enumerate(trace) if is_crash(a)
        )
        assert crash_index == 120  # the {2: 160} injection, externalized
        mutated = list(trace)
        mutated.insert(
            crash_index + 5, Action(automaton.output_name, 2, ((),))
        )
        assert_only_afd(automaton, mutated, crash_index + 5)

    def test_leader_lease_foreign_leader_payload(self):
        automaton, trace = clean_run("leader-lease")
        k = next(
            i
            for i, a in enumerate(trace)
            if a.name == automaton.output_name and i > 10
        )
        mutated = list(trace)
        mutated[k] = Action(automaton.output_name, mutated[k].location, (99,))
        assert_only_afd(automaton, mutated, k)

    def test_pingpong_unsorted_suspects_payload(self):
        automaton, trace = clean_run("ping-pong")
        k = next(
            i
            for i, a in enumerate(trace)
            if a.name == automaton.output_name and i > 10
        )
        mutated = list(trace)
        mutated[k] = Action(
            automaton.output_name, mutated[k].location, ((2, 0),)
        )
        assert_only_afd(automaton, mutated, k)
