"""``check_safety(t).index`` is the exact first unsafe event.

The reference is the definition: the minimal prefix length L with
``not check_safety(t[:L])``, minus 1.  It is computed twice — by a
linear scan and by the prefix binary search the AFD-validity oracle
used before the index was carried — and the one-scan index must equal
both on random traces mixing well-formed, malformed, foreign and
post-crash events.  The oracle's verdicts are pinned against the old
bisecting oracle too.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.afd import AFD, CheckResult
from repro.detectors.registry import make_detector
from repro.detectors.quorum import Sigma, sigma_output
from repro.faults.oracles import AfdValidityOracle, OracleVerdict
from repro.ioa.actions import Action
from repro.system.fault_pattern import crash_action

LOCS = (0, 1, 2, 3)

#: The detectors with an ``extra_safety`` (P, Q, Sigma, Psi^k), two
#: without (Omega, EvP), and a renaming of each safety-carrying kind.
DETECTORS = ("P", "Q", "Sigma", "Psi^2", "Omega", "EvP")
RENAMED = ("P", "Sigma")


def linear_reference(afd: AFD, t: Sequence[Action]) -> Optional[int]:
    for length in range(len(t) + 1):
        if not afd.check_safety(t[:length]):
            return length - 1
    return None


def bisect_reference(afd: AFD, t: Sequence[Action]) -> Optional[int]:
    if afd.check_safety(t):
        return None
    lo, hi = 0, len(t) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if afd.check_safety(t[: mid + 1]):
            lo = mid + 1
        else:
            hi = mid
    return lo


def bisecting_oracle(
    afd: AFD, actions: Sequence[Action], min_live_outputs: int = 1
) -> OracleVerdict:
    """The AFD-validity oracle as it was: check_limit, then bisection."""
    projected: List[Tuple[int, Action]] = [
        (k, a) for k, a in enumerate(actions) if afd.is_event(a)
    ]
    events = [a for _k, a in projected]
    result = afd.check_limit(events, min_live_outputs)
    if result.ok:
        return OracleVerdict("afd-validity", True)
    reason = "; ".join(result.reasons) or "T_D membership failed"
    index = bisect_reference(afd, events) if events else None
    if index is not None:
        return OracleVerdict(
            "afd-validity", False, projected[index][0], reason
        )
    return OracleVerdict("afd-validity", False, len(actions), reason)


subsets = st.lists(st.sampled_from(LOCS), max_size=4).map(
    lambda xs: tuple(sorted(set(xs)))
)


def payloads() -> st.SearchStrategy:
    """Payloads of every detector's shape, plus junk."""
    return st.one_of(
        subsets.map(lambda s: (s,)),
        st.sampled_from(LOCS).map(lambda i: (i,)),
        st.tuples(subsets, subsets),
        st.tuples(subsets, st.sampled_from(((0, 1), (1, 2), (2, 3)))),
        st.just(("junk",)),
        st.just(((3, 1),)),  # unsorted: malformed everywhere
    )


def events(output_name: str) -> st.SearchStrategy[Action]:
    outputs = st.builds(
        Action, st.just(output_name), st.sampled_from(LOCS), payloads()
    )
    return st.one_of(
        outputs,
        outputs,
        outputs,
        st.sampled_from(LOCS).map(crash_action),
        st.builds(
            Action,
            st.just("fd-foreign"),
            st.sampled_from(LOCS),
            payloads(),
        ),
    )


def detector(name: str, renamed: bool) -> AFD:
    afd = make_detector(name, LOCS)
    return afd.renamed() if renamed else afd


CASES = [(n, False) for n in DETECTORS] + [(n, True) for n in RENAMED]


@pytest.mark.parametrize("name, renamed", CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_is_the_minimal_unsafe_prefix(name, renamed, data):
    afd = detector(name, renamed)
    t = data.draw(st.lists(events(afd.output_name), max_size=14))
    result = afd.check_safety(t)
    expected = linear_reference(afd, t)
    assert result.ok == (expected is None)
    assert result.index == expected == bisect_reference(afd, t)


@pytest.mark.parametrize("name, renamed", CASES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_oracle_verdict_matches_bisecting_oracle(name, renamed, data):
    afd = detector(name, renamed)
    t = data.draw(st.lists(events(afd.output_name), max_size=14))
    assert (
        AfdValidityOracle(afd).check(t).to_dict()
        == bisecting_oracle(afd, t).to_dict()
    )


def test_quorum_trap_index_is_the_first_disjoint_arrival():
    # Pair (0, 3) is the first disjoint pair in (earlier, later) order
    # and the one the reason names, but pair (1, 2) is already disjoint
    # when event 2 arrives: the trace is unsafe from index 2 on.
    afd = Sigma(LOCS)
    t = [
        sigma_output(0, (0, 1)),
        sigma_output(1, (0, 2)),
        sigma_output(2, (1, 3)),
        sigma_output(3, (2, 3)),
    ]
    result = afd.check_safety(t)
    assert result.reasons == [
        "quorums at indices 0 and 3 do not intersect: [0, 1] vs [2, 3]"
    ]
    assert result.index == 2 == linear_reference(afd, t)
    assert AfdValidityOracle(afd).check(t).violation_index == 2


def pairwise_intersection(t: Sequence[Action]) -> Tuple[bool, List[str]]:
    """Sigma's quorum check as an all-pairs loop (the reference)."""
    quorums = [(k, frozenset(a.payload[0])) for k, a in enumerate(t)]
    for x, (kx, qx) in enumerate(quorums):
        for ky, qy in quorums[x + 1 :]:
            if not (qx & qy):
                return False, [
                    f"quorums at indices {kx} and {ky} do not "
                    f"intersect: {sorted(qx)} vs {sorted(qy)}"
                ]
    return True, []


@settings(max_examples=300, deadline=None)
@given(
    t=st.lists(
        st.builds(sigma_output, st.sampled_from(LOCS), subsets), max_size=10
    )
)
def test_quorum_check_matches_all_pairs_even_on_empty_quorums(t):
    # extra_safety called directly sees quorums check_safety would
    # reject as malformed, the empty one included: skipping a repeated
    # quorum must not skip a repeated empty one.
    result = Sigma(LOCS).extra_safety(t)
    assert (result.ok, result.reasons) == pairwise_intersection(t)
    unsafe = [
        length - 1
        for length in range(len(t) + 1)
        if not pairwise_intersection(t[:length])[0]
    ]
    assert result.index == (unsafe[0] if unsafe else None)


def test_later_check_can_localize_earlier_than_the_reported_one():
    # Malformed output at index 2 is reported first (vocabulary is
    # checked before extra safety), but the premature suspicion at
    # index 1 makes the trace unsafe earlier.
    afd = make_detector("P", LOCS)
    t = [
        crash_action(3),
        Action(afd.output_name, 0, ((1,),)),
        Action(afd.output_name, 0, ("junk",)),
    ]
    result = afd.check_safety(t)
    assert result.reasons == [
        f"output {t[2]} at index 2 is malformed for P"
    ]
    assert result.index == 1 == linear_reference(afd, t)


def test_check_without_index_is_bisected():
    class Budget(AFD):
        """At most two outputs; reports failures without an index."""

        def well_formed_output(self, action):
            return True

        def extra_safety(self, t):
            n = sum(1 for a in t if a.name == self.output_name)
            return CheckResult(n <= 2, [] if n <= 2 else ["too many"])

        def check_eventual(self, t, live):
            raise NotImplementedError

        def automaton(self):
            raise NotImplementedError

    afd = Budget(LOCS, "Budget", "fd-budget")
    t = [crash_action(0)] + [Action("fd-budget", 1, ())] * 4
    assert afd.check_safety(t).index == 3 == linear_reference(afd, t)
