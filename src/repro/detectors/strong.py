"""The strong (S) and eventually strong (◇S) failure detectors as AFDs.

Two of the eight detectors of Chandra and Toueg [5] (the paper notes all
eight are expressible as AFDs, Section 3.3).  Outputs carry suspect sets.

S (strong):
1. *(strong completeness, eventual)* eventually every output suspects
   every faulty location;
2. *(weak accuracy, whole-trace)* some live location is never suspected by
   any output in the entire trace.

◇S (eventually strong):
1. strong completeness, as above;
2. *(eventual weak accuracy)* some live location is eventually never
   suspected.

Note weak accuracy is a whole-trace (not prefix-decidable) property: a
finite prefix cannot reveal which live location will stay unsuspected, so
it is checked in the limit checker rather than as ``extra_safety``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, List, Sequence

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.core.afd import (
    AFD,
    MIN_TAIL_OUTPUTS,
    CheckResult,
    eventually_forever,
    tail_shortfall,
)
from repro.core.validity import faulty_locations
from repro.detectors.base import CrashsetDetectorAutomaton, sorted_tuple
from repro.detectors.perfect import _suspect_set_well_formed
from repro.system.fault_pattern import is_crash

STRONG_OUTPUT = "fd-s"
EVENTUALLY_STRONG_OUTPUT = "fd-evs"


def strong_output(location: int, suspects) -> Action:
    """The action ``FD-S(S)_location``."""
    return Action(STRONG_OUTPUT, location, (sorted_tuple(suspects),))


def eventually_strong_output(location: int, suspects) -> Action:
    """The action ``FD-◇S(S)_location``."""
    return Action(
        EVENTUALLY_STRONG_OUTPUT, location, (sorted_tuple(suspects),)
    )


class StrongAutomaton(CrashsetDetectorAutomaton):
    """Outputs the crashset: trivially never suspects live locations."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(
            locations,
            STRONG_OUTPUT,
            lambda location, crashset: (sorted_tuple(crashset),),
            name="FD-S",
        )


class EventuallyStrongAutomaton(CrashsetDetectorAutomaton):
    """The same generator under the ◇S output vocabulary."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(
            locations,
            EVENTUALLY_STRONG_OUTPUT,
            lambda location, crashset: (sorted_tuple(crashset),),
            name="FD-EvS",
        )


class Strong(AFD):
    """The strong failure detector S."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(locations, "S", STRONG_OUTPUT)

    def well_formed_output(self, action: Action) -> bool:
        return _suspect_set_well_formed(action, self.locations)

    def check_eventual(
        self, t: Sequence[Action], live: FrozenSet[int]
    ) -> CheckResult:
        faulty = faulty_locations(t)
        completeness = eventually_forever(
            t,
            live,
            lambda a: faulty <= set(a.payload[0]),
            description="S strong completeness",
        )
        if not live:
            return completeness
        never_suspected = [
            l
            for l in sorted(live)
            if not any(
                not is_crash(a) and l in a.payload[0] for a in t
            )
        ]
        if never_suspected:
            accuracy = CheckResult.success()
        else:
            accuracy = CheckResult.failure(
                "S weak accuracy: every live location is suspected at "
                "least once"
            )
        return completeness.merge(accuracy)

    def automaton(self) -> Automaton:
        return StrongAutomaton(self.locations)


class EventuallyStrong(AFD):
    """The eventually strong failure detector ◇S."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(locations, "EvS", EVENTUALLY_STRONG_OUTPUT)

    def well_formed_output(self, action: Action) -> bool:
        return _suspect_set_well_formed(action, self.locations)

    def check_eventual(
        self, t: Sequence[Action], live: FrozenSet[int]
    ) -> CheckResult:
        faulty = faulty_locations(t)
        completeness = eventually_forever(
            t,
            live,
            lambda a: faulty <= set(a.payload[0]),
            description="◇S strong completeness",
        )
        if not live:
            return completeness
        # eventually_forever per candidate ("candidate is not suspected"),
        # from one scan: each location's last suspicion and each live
        # location's output positions give every candidate's tail counts.
        last_suspected: Dict[int, int] = {}
        outputs: Dict[int, List[int]] = {i: [] for i in live}
        for k, a in enumerate(t):
            if is_crash(a):
                continue
            for l in a.payload[0]:
                last_suspected[l] = k
            at = outputs.get(a.location)
            if at is not None:
                at.append(k)
        failures = []
        for candidate in sorted(live):
            last = last_suspected.get(candidate, -1)
            for i in live:
                count = len(outputs[i]) - bisect_right(outputs[i], last)
                if count < MIN_TAIL_OUTPUTS:
                    failures.append(
                        tail_shortfall(
                            f"◇S eventual weak accuracy on {candidate}",
                            i,
                            count,
                            last,
                        )
                    )
                    break
            else:
                return completeness.merge(CheckResult.success())
        return completeness.merge(
            CheckResult.failure(
                "◇S eventual weak accuracy: no live location is eventually "
                "never suspected",
                *failures,
            )
        )

    def automaton(self) -> Automaton:
        return EventuallyStrongAutomaton(self.locations)
