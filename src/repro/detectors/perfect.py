"""The perfect failure detector P as an AFD (Section 3.3, Algorithm 2).

Specification: T_P is the set of valid sequences t over
``I-hat ∪ O_P`` (outputs carry suspect sets S ⊆ Pi) such that

1. *(strong accuracy, safety)* for every prefix t_pre of t, every location
   i live in t_pre, and every event FD-P(S)_j in t_pre: i ∉ S — nobody is
   suspected before their crash event;
2. *(strong completeness, eventual)* there is a suffix of t in which every
   event FD-P(S)_j has ``faulty(t) ⊆ S``.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Set

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.core.afd import AFD, CheckResult, eventually_forever
from repro.core.validity import faulty_locations
from repro.detectors.base import CrashsetDetectorAutomaton, sorted_tuple
from repro.system.fault_pattern import is_crash

PERFECT_OUTPUT = "fd-p"


def perfect_output(location: int, suspects) -> Action:
    """The action ``FD-P(S)_location`` with S encoded as a sorted tuple."""
    return Action(PERFECT_OUTPUT, location, (sorted_tuple(suspects),))


class PerfectAutomaton(CrashsetDetectorAutomaton):
    """Algorithm 2: outputs the current crashset at every live location."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(
            locations,
            PERFECT_OUTPUT,
            lambda location, crashset: (sorted_tuple(crashset),),
            name="FD-P",
        )


def _suspect_set_well_formed(action: Action, locations) -> bool:
    if len(action.payload) != 1:
        return False
    suspects = action.payload[0]
    if not isinstance(suspects, tuple):
        return False
    if list(suspects) != sorted(set(suspects)):
        return False
    return all(s in locations for s in suspects)


def check_no_premature_suspicion(t: Sequence[Action]) -> CheckResult:
    """Property (1): every suspect set is within the already-crashed set."""
    crashed: Set[int] = set()
    for k, a in enumerate(t):
        if is_crash(a):
            crashed.add(a.location)
            continue
        suspects = set(a.payload[0])
        premature = suspects - crashed
        if premature:
            return CheckResult.failure(
                f"event {a} at index {k} suspects live location(s) "
                f"{sorted(premature)} before their crash events",
                index=k,
            )
    return CheckResult.success()


class Perfect(AFD):
    """The perfect-failure-detector AFD specification."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(locations, "P", PERFECT_OUTPUT)

    def well_formed_output(self, action: Action) -> bool:
        return _suspect_set_well_formed(action, self.locations)

    def extra_safety(self, t: Sequence[Action]) -> CheckResult:
        return check_no_premature_suspicion(t)

    def check_eventual(
        self, t: Sequence[Action], live: FrozenSet[int]
    ) -> CheckResult:
        faulty = faulty_locations(t)
        return eventually_forever(
            t,
            live,
            lambda a: faulty <= set(a.payload[0]),
            description="P strong completeness",
        )

    def automaton(self) -> Automaton:
        return PerfectAutomaton(self.locations)
