"""Tests for the strong (S) and eventually strong (◇S) AFDs."""

from hypothesis import given, settings, strategies as st

from repro.core.afd import (
    CheckResult,
    check_afd_closure_properties,
    eventually_forever,
)
from repro.core.validity import faulty_locations, live_locations
from repro.detectors.strong import (
    EventuallyStrong,
    Strong,
    eventually_strong_output,
    strong_output,
)
from repro.system.fault_pattern import FaultPattern, crash_action
from tests.conftest import run_detector

LOCS = (0, 1, 2)


class TestStrong:
    def test_weak_accuracy_whole_trace(self):
        s = Strong(LOCS)
        # Location 0 is suspected once: weak accuracy demands SOME live
        # location never suspected — here 1 and 2 qualify.
        t = [strong_output(1, (0,))] + [
            strong_output(i, ()) for _ in range(4) for i in LOCS
        ]
        assert s.check_limit(t)

    def test_everyone_suspected_rejected(self):
        s = Strong(LOCS)
        t = [strong_output(0, (1, 2)), strong_output(1, (0,))]
        t += [strong_output(i, ()) for _ in range(4) for i in LOCS]
        result = s.check_limit(t)
        assert not result
        assert "weak accuracy" in " ".join(result.reasons)

    def test_completeness_required(self):
        s = Strong(LOCS)
        t = [crash_action(2)] + [
            strong_output(0, ()),
            strong_output(1, ()),
        ] * 5
        assert not s.check_limit(t)

    def test_generated_traces_accepted(self):
        s = Strong(LOCS)
        for crashes in [{}, {1: 4}, {1: 3, 2: 9}]:
            t = run_detector(s.automaton(), FaultPattern(crashes, LOCS), 140)
            result = s.check_limit(t)
            assert result, (crashes, result.reasons)

    def test_closure_properties(self):
        s = Strong(LOCS)
        t = run_detector(s.automaton(), FaultPattern({0: 5}, LOCS), 140)
        assert check_afd_closure_properties(s, t, seed=1)


class TestEventuallyStrong:
    def test_transient_universal_suspicion_allowed(self):
        evs = EventuallyStrong(LOCS)
        # Everyone suspected early; stabilizes with 0 unsuspected.
        t = [
            eventually_strong_output(1, (0, 2)),
            eventually_strong_output(0, (1,)),
        ]
        t += [eventually_strong_output(i, ()) for _ in range(4) for i in LOCS]
        assert evs.check_limit(t)

    def test_permanent_universal_suspicion_rejected(self):
        evs = EventuallyStrong(LOCS)
        t = []
        for k in range(6):
            t += [
                eventually_strong_output(0, (1,)),
                eventually_strong_output(1, (2,)),
                eventually_strong_output(2, (0,)),
            ]
        assert not evs.check_limit(t)

    def test_generated_traces_accepted(self):
        evs = EventuallyStrong(LOCS)
        for crashes in [{}, {2: 2}]:
            t = run_detector(
                evs.automaton(), FaultPattern(crashes, LOCS), 140
            )
            result = evs.check_limit(t)
            assert result, (crashes, result.reasons)

    def test_closure_properties(self):
        evs = EventuallyStrong(LOCS)
        t = run_detector(evs.automaton(), FaultPattern({1: 3}, LOCS), 140)
        assert check_afd_closure_properties(evs, t, seed=14)


def per_candidate_check_eventual(t, live):
    """◇S ``check_eventual`` as one ``eventually_forever`` scan per
    live candidate — the reference the one-scan version must match."""
    faulty = faulty_locations(t)
    completeness = eventually_forever(
        t,
        live,
        lambda a: faulty <= set(a.payload[0]),
        description="◇S strong completeness",
    )
    if not live:
        return completeness
    failures = []
    for candidate in sorted(live):
        verdict = eventually_forever(
            t,
            live,
            lambda a, l=candidate: l not in a.payload[0],
            description=f"◇S eventual weak accuracy on {candidate}",
        )
        if verdict:
            return completeness.merge(verdict)
        failures.extend(verdict.reasons)
    return completeness.merge(
        CheckResult.failure(
            "◇S eventual weak accuracy: no live location is eventually "
            "never suspected",
            *failures,
        )
    )


#: Mostly-quiet suspect sets, so some candidates do stabilize.
_suspects = st.one_of(
    st.just(()),
    st.just(()),
    st.lists(st.sampled_from(LOCS), max_size=2).map(
        lambda xs: tuple(sorted(set(xs)))
    ),
)
_evs_events = st.one_of(
    st.builds(eventually_strong_output, st.sampled_from(LOCS), _suspects),
    st.builds(eventually_strong_output, st.sampled_from(LOCS), _suspects),
    st.builds(eventually_strong_output, st.sampled_from(LOCS), _suspects),
    st.builds(eventually_strong_output, st.sampled_from(LOCS), _suspects),
    st.sampled_from(LOCS).map(crash_action),
)


@settings(max_examples=300, deadline=None)
@given(
    t=st.lists(_evs_events, max_size=40),
    live=st.one_of(
        st.none(),
        st.frozensets(st.sampled_from(LOCS)),
    ),
)
def test_evs_one_scan_matches_per_candidate_scan(t, live):
    # live=None takes the trace's own live set; otherwise any subset,
    # the empty one included.
    if live is None:
        live = live_locations(t, LOCS)
    got = EventuallyStrong(LOCS).check_eventual(t, live)
    want = per_candidate_check_eventual(t, live)
    assert (got.ok, got.reasons) == (want.ok, want.reasons)
