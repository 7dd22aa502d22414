"""The quorum failure detector Sigma as an AFD.

Sigma (Delporte-Gallet et al. [8]) outputs *quorums* — subsets of Pi —
subject to:

1. *(intersection, safety)* every two quorums output anywhere, at any two
   points of the trace, intersect;
2. *(completeness, eventual)* there is a suffix in which every quorum
   output at a live location contains only live locations.

The paper lists "Sigma and other quorum failure detectors" among the
detectors expressible as AFDs (Section 1 / Section 3.3).

The generator outputs ``Pi \\ crashset``.  Crashsets grow monotonically,
so any two generated quorums are nested complements, and the smaller one is
nonempty because the emitting location is not in its own crashset — hence
the intersection property holds in every fair trace.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Set

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.core.afd import AFD, CheckResult, eventually_forever
from repro.detectors.base import CrashsetDetectorAutomaton, sorted_tuple
from repro.detectors.perfect import _suspect_set_well_formed
from repro.system.fault_pattern import is_crash

SIGMA_OUTPUT = "fd-sigma"


def check_quorums_intersect(t: Sequence[Action], label: str) -> CheckResult:
    """Every two quorums (``payload[0]`` of t's outputs) intersect.

    ``index`` is the first output whose quorum misses an earlier one.
    The reason names the first disjoint pair in (earlier, later) order,
    which can end after ``index``: with quorums (0,1), (0,2), (1,3),
    (2,3) the reason names indices 0 and 3, but the trace is already
    unsafe at index 2.  A quorum equal to an earlier one is skipped —
    it was already checked against everything it must meet — unless it
    is empty.
    """
    quorums = [
        (k, frozenset(a.payload[0]))
        for k, a in enumerate(t)
        if not is_crash(a)
    ]
    seen: Set[FrozenSet[int]] = set()
    index = None
    for k, q in quorums:
        if q and q in seen:
            continue
        if any(not (q & p) for p in seen):
            index = k
            break
        seen.add(q)
    if index is None:
        return CheckResult.success()
    kx, qx, ky, qy = next(
        (kx, qx, ky, qy)
        for x, (kx, qx) in enumerate(quorums)
        for ky, qy in quorums[x + 1 :]
        if not (qx & qy)
    )
    return CheckResult.failure(
        f"{label} at indices {kx} and {ky} do not "
        f"intersect: {sorted(qx)} vs {sorted(qy)}",
        index=index,
    )


def sigma_output(location: int, quorum) -> Action:
    """The action ``FD-Sigma(Q)_location``."""
    return Action(SIGMA_OUTPUT, location, (sorted_tuple(quorum),))


class SigmaAutomaton(CrashsetDetectorAutomaton):
    """Outputs the complement of the crashset as the quorum."""

    def __init__(self, locations: Sequence[int]):
        def value(location: int, crashset: FrozenSet[int]):
            return (sorted_tuple(i for i in locations if i not in crashset),)

        super().__init__(locations, SIGMA_OUTPUT, value, name="FD-Sigma")


class Sigma(AFD):
    """The Sigma (quorum) AFD specification."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(locations, "Sigma", SIGMA_OUTPUT)

    def well_formed_output(self, action: Action) -> bool:
        if not _suspect_set_well_formed(action, self.locations):
            return False
        return len(action.payload[0]) > 0  # quorums are nonempty

    def extra_safety(self, t: Sequence[Action]) -> CheckResult:
        return check_quorums_intersect(t, "quorums")

    def check_eventual(
        self, t: Sequence[Action], live: FrozenSet[int]
    ) -> CheckResult:
        return eventually_forever(
            t,
            live,
            lambda a: (
                a.location not in live or set(a.payload[0]) <= live
            ),
            description="Sigma completeness (eventually quorums ⊆ live)",
        )

    def automaton(self) -> Automaton:
        return SigmaAutomaton(self.locations)
