"""Rotating-coordinator binary consensus using the perfect detector P.

Tolerates any number f < n of crashes.  The protocol runs n rounds; round
r's coordinator is ``locations[r-1]``:

* entering round r, the coordinator broadcasts its current estimate
  ("est", r, v) to all other locations, then advances;
* a non-coordinator in round r waits until it either receives the round-r
  estimate (and adopts it) or its latest P output suspects the
  coordinator (and it keeps its estimate); then it advances;
* after round n every process decides its estimate and halts.

Correctness under T_P: *strong accuracy* means a live coordinator is never
suspected, so in the first round r* with a live coordinator every live
process adopts that coordinator's estimate — after r* all estimates agree,
and later rounds preserve the common value.  *Strong completeness* makes
every wait on a crashed coordinator terminate.  Hence agreement, validity,
termination (Section 9.1's specification) hold whenever the FD events lie
in T_P — exactly the implication "A solves consensus using P".

The algorithm is *quiescent*: once decided, a process has no enabled
actions, a property the bounded-problem analysis (Lemma 23) and the tagged
tree of Section 8 both rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, FiniteActionSet, PredicateActionSet
from repro.detectors.perfect import PERFECT_OUTPUT
from repro.system.environment import PROPOSE, decide_action
from repro.system.process import DistributedAlgorithm, ProcessAutomaton

EST = "est"  # message tag


@dataclass(frozen=True)
class RoundState:
    """Core state of one rotating-coordinator process."""

    value: Optional[int] = None
    round: int = 1
    suspects: Tuple[int, ...] = ()
    estimates: FrozenSet[Tuple[int, int]] = frozenset()  # (round, value)
    outbox: Tuple[Action, ...] = ()
    decided: bool = False


class PerfectConsensusProcess(ProcessAutomaton):
    """One location's automaton; see the module docstring for the protocol."""

    def __init__(
        self,
        location: int,
        locations: Sequence[int],
        fd_output_name: str = PERFECT_OUTPUT,
        values: Sequence[int] = (0, 1),
    ):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        self.fd_output_name = fd_output_name
        self.num_rounds = len(self.all_locations)
        self.values = tuple(values)
        super().__init__(location, name=f"consP[{location}]")

    # -- Protocol geometry -------------------------------------------------

    def coordinator(self, round_number: int) -> int:
        return self.all_locations[round_number - 1]

    def owns_message(self, message) -> bool:
        # Own only the protocol's EST messages so other message-passing
        # layers can share the location (e.g. the NBAC vote round).
        return (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == EST
        )

    # -- Signature -----------------------------------------------------------

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.location == self.location
            and a.name in (PROPOSE, self.fd_output_name),
            f"propose/fd at {self.location}",
            routes=(
                (PROPOSE, self.location),
                (self.fd_output_name, self.location),
            ),
        )

    def core_outputs(self) -> ActionSet:
        return FiniteActionSet(
            tuple(decide_action(self.location, v) for v in self.values)
        )

    # -- Helpers ----------------------------------------------------------------

    def _broadcast(self, round_number: int, value: int) -> Tuple[Action, ...]:
        return tuple(
            self.send((EST, round_number, value), j)
            for j in self.all_locations
            if j != self.location
        )

    def _advance(self, core: RoundState) -> RoundState:
        """Adopt the round estimate if present, move to the next round, and
        queue the broadcast if this process coordinates the new round."""
        est = next(
            (v for (r, v) in core.estimates if r == core.round), None
        )
        value = core.value
        if est is not None and self.coordinator(core.round) != self.location:
            value = est
        new_round = core.round + 1
        outbox = core.outbox
        if (
            new_round <= self.num_rounds
            and self.coordinator(new_round) == self.location
        ):
            outbox = outbox + self._broadcast(new_round, value)
        return RoundState(
            value, new_round, core.suspects, core.estimates, outbox,
            core.decided,
        )

    def _can_advance(self, core: RoundState) -> bool:
        if core.value is None or core.round > self.num_rounds:
            return False
        if core.outbox:
            return False  # drain sends first (single-task priority)
        coordinator = self.coordinator(core.round)
        if coordinator == self.location:
            return True
        if any(r == core.round for (r, _v) in core.estimates):
            return True
        return coordinator in core.suspects

    # -- Transitions ---------------------------------------------------------------

    def core_initial(self) -> State:
        return RoundState()

    def core_apply(self, core: RoundState, action: Action) -> RoundState:
        # States are rebuilt positionally rather than via
        # ``dataclasses.replace`` — this is the hottest apply in the
        # tree/valence kernels and ``replace``'s per-call field scan
        # dominated it.
        if action.name == PROPOSE:
            if core.value is not None:
                return core
            value = action.payload[0]
            outbox = core.outbox
            if self.coordinator(1) == self.location and core.round == 1:
                outbox = outbox + self._broadcast(1, value)
            return RoundState(
                value, core.round, core.suspects, core.estimates, outbox,
                core.decided,
            )
        if action.name == self.fd_output_name:
            return RoundState(
                core.value, core.round, tuple(action.payload[0]),
                core.estimates, core.outbox, core.decided,
            )
        if self.is_receive(action):
            message, sender = self.received_message(action)
            if (
                isinstance(message, tuple)
                and len(message) == 3
                and message[0] == EST
            ):
                _tag, round_number, value = message
                if sender == self.coordinator(round_number):
                    return RoundState(
                        core.value, core.round, core.suspects,
                        core.estimates | {(round_number, value)},
                        core.outbox, core.decided,
                    )
            return core
        if action.name == "send":
            if core.outbox and action == core.outbox[0]:
                return RoundState(
                    core.value, core.round, core.suspects, core.estimates,
                    core.outbox[1:], core.decided,
                )
            return core
        if action.name == "advance" and action.location == self.location:
            return self._advance(core)
        if action.name == "decide":
            return RoundState(
                core.value, core.round, core.suspects, core.estimates,
                core.outbox, True,
            )
        return core

    def core_enabled(self, core: RoundState) -> Iterable[Action]:
        if core.outbox:
            yield core.outbox[0]
        elif self._can_advance(core):
            yield Action("advance", self.location, (core.round,))
        elif (
            core.value is not None
            and core.round > self.num_rounds
            and not core.decided
        ):
            yield decide_action(self.location, core.value)

    def core_internals(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.name == "advance" and a.location == self.location,
            f"advance_{self.location}",
            routes=(("advance", self.location),),
        )

    # -- Introspection -------------------------------------------------------------

    @staticmethod
    def decision(state: State) -> Optional[int]:
        """The decided value visible in a (failed, core) process state, or
        None if this process has not decided."""
        _failed, core = state
        return core.value if core.decided else None


def perfect_consensus_algorithm(
    locations: Sequence[int],
    fd_output_name: str = PERFECT_OUTPUT,
    values: Sequence[int] = (0, 1),
) -> DistributedAlgorithm:
    """The rotating-coordinator algorithm over ``locations``."""
    processes: Dict[int, ProcessAutomaton] = {
        i: PerfectConsensusProcess(i, locations, fd_output_name, values)
        for i in locations
    }
    return DistributedAlgorithm(processes)
