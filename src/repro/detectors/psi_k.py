"""The Psi^k failure detector as an AFD.

Psi^k (Mostefaoui, Rajsbaum, Raynal, Travers [22]) is a set-agreement-
oriented detector combining a quorum component with an Omega^k component.
Each output carries a pair ``(Q, L)``:

1. *(quorum intersection, safety)* every two Q components output anywhere
   intersect;
2. *(quorum completeness, eventual)* eventually Q components at live
   locations contain only live locations;
3. *(k-leadership, eventual)* if live(t) is nonempty, there is a k-sized
   set L* intersecting live(t) such that eventually every output at a live
   location carries L = L*.

The generator pairs the Sigma generator's quorum (``Pi \\ crashset``) with
the Omega^k generator's leader set.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.core.afd import AFD, CheckResult, eventually_forever
from repro.detectors.base import CrashsetDetectorAutomaton, sorted_tuple
from repro.detectors.omega_k import _padded_leader_set
from repro.detectors.quorum import check_quorums_intersect
from repro.system.fault_pattern import is_crash

PSI_K_OUTPUT = "fd-psi-k"


def psi_k_output(location: int, quorum, leaders) -> Action:
    """The action ``FD-Psi^k(Q, L)_location``."""
    return Action(
        PSI_K_OUTPUT, location, (sorted_tuple(quorum), sorted_tuple(leaders))
    )


class PsiKAutomaton(CrashsetDetectorAutomaton):
    """Pairs the Sigma quorum with the Omega^k leader set."""

    def __init__(self, locations: Sequence[int], k: int):
        locations = tuple(locations)
        if not 1 <= k <= len(locations):
            raise ValueError(f"k must be in [1, {len(locations)}], got {k}")
        self.k = k

        def value(location: int, crashset: FrozenSet[int]):
            quorum = sorted_tuple(
                i for i in locations if i not in crashset
            )
            leaders = _padded_leader_set(locations, crashset, k)
            return (quorum, leaders)

        super().__init__(locations, PSI_K_OUTPUT, value, name=f"FD-Psi^{k}")


class PsiK(AFD):
    """The Psi^k AFD specification."""

    def __init__(self, locations: Sequence[int], k: int):
        locations = tuple(locations)
        if not 1 <= k <= len(locations):
            raise ValueError(f"k must be in [1, {len(locations)}], got {k}")
        super().__init__(locations, f"Psi^{k}", PSI_K_OUTPUT)
        self.k = k

    def well_formed_output(self, action: Action) -> bool:
        if len(action.payload) != 2:
            return False
        quorum, leaders = action.payload
        for part in (quorum, leaders):
            if not isinstance(part, tuple):
                return False
            if list(part) != sorted(set(part)):
                return False
            if not all(x in self.locations for x in part):
                return False
        return len(quorum) > 0 and len(leaders) == self.k

    def extra_safety(self, t: Sequence[Action]) -> CheckResult:
        return check_quorums_intersect(t, "Psi^k quorums")

    def check_eventual(
        self, t: Sequence[Action], live: FrozenSet[int]
    ) -> CheckResult:
        quorum_completeness = eventually_forever(
            t,
            live,
            lambda a: (
                a.location not in live or set(a.payload[0]) <= live
            ),
            description="Psi^k quorum completeness",
        )
        if not live:
            return quorum_completeness
        candidates = {a.payload[1] for a in t if not is_crash(a)}
        leadership = None
        failures = []
        for candidate in sorted(candidates):
            if not set(candidate) & live:
                continue
            verdict = eventually_forever(
                t,
                live,
                lambda a, L=candidate: (
                    a.location not in live or a.payload[1] == L
                ),
                description=f"Psi^k leadership stabilization on {candidate}",
            )
            if verdict:
                leadership = verdict
                break
            failures.extend(verdict.reasons)
        if leadership is None:
            leadership = CheckResult.failure(
                "no k-leader-set with a live member stabilizes", *failures
            )
        return quorum_completeness.merge(leadership)

    def automaton(self) -> Automaton:
        return PsiKAutomaton(self.locations, self.k)
