"""Paxos-style binary consensus using the leader oracle Omega.

This is the Section 9 setting: a distributed algorithm A that solves
f-crash-tolerant binary consensus using an AFD (here Omega, the weakest
detector for consensus [4]) in the well-formed environment E_C, for
f < n/2.

Protocol (single-decree Paxos with Omega choosing the proposer):

* a process that hears ``FD-Omega(i)_i`` (it is the leader), has a
  proposal, is not already running an attempt, and has not decided,
  starts a ballot ``b = (k, i)`` and broadcasts phase-1a;
* acceptors promise the highest ballot seen (phase-1b carries their
  latest accepted (ballot, value)), or reply nack with their promise;
* on a majority of promises the leader picks the value of the highest
  accepted ballot (or its own proposal) and broadcasts phase-2a;
* acceptors accept phase-2a iff it is not below their promise;
* on a majority of accepts the leader broadcasts the decision;
* a nack aborts the attempt and, if the process still believes it is the
  leader, immediately restarts with a higher ballot.

Safety (agreement, validity) is pure Paxos and holds on *every* trace;
liveness needs a majority of live locations plus T_Omega's eventual
unique live leader: the stable leader's attempts stop being nacked, so
some attempt reaches both majorities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, FiniteActionSet, PredicateActionSet
from repro.detectors.omega import OMEGA_OUTPUT
from repro.system.environment import PROPOSE, decide_action
from repro.system.process import DistributedAlgorithm, ProcessAutomaton

P1A = "p1a"
P1B = "p1b"
P2A = "p2a"
P2B = "p2b"
NACK = "nack"
DECIDE_MSG = "decide-msg"

Ballot = Tuple[int, int]  # (counter, location), ordered lexicographically


@dataclass(frozen=True)
class PaxosState:
    """Core state of one Omega-consensus process."""

    value: Optional[int] = None
    leader: Optional[int] = None
    ballot_counter: int = 0
    attempt: Optional[Ballot] = None
    phase: int = 0  # 0 idle, 1 collecting promises, 2 collecting accepts
    attempt_value: Optional[int] = None
    promises: FrozenSet[Tuple[int, Optional[Tuple[Ballot, int]]]] = frozenset()
    accepts: FrozenSet[int] = frozenset()
    promised: Optional[Ballot] = None
    accepted: Optional[Tuple[Ballot, int]] = None
    decided_value: Optional[int] = None
    decided_out: bool = False
    decide_broadcast: bool = False
    outbox: Tuple[Action, ...] = ()


class OmegaConsensusProcess(ProcessAutomaton):
    """One location's automaton; see the module docstring."""

    def __init__(
        self,
        location: int,
        locations: Sequence[int],
        fd_output_name: str = OMEGA_OUTPUT,
    ):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        self.fd_output_name = fd_output_name
        super().__init__(location, name=f"consOmega[{location}]")

    @property
    def majority(self) -> int:
        return len(self.all_locations) // 2 + 1

    def owns_message(self, message) -> bool:
        # Own only Paxos messages so other message-passing layers can
        # share the location.
        return (
            isinstance(message, tuple)
            and bool(message)
            and message[0] in (P1A, P1B, P2A, P2B, NACK, DECIDE_MSG)
        )

    # -- Signature ------------------------------------------------------------

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
            tuple(decide_action(self.location, v) for v in (0, 1))
        )

    # -- Helpers ------------------------------------------------------------------

    def _broadcast(self, message) -> Tuple[Action, ...]:
        return tuple(
            self.send(message, j)
            for j in self.all_locations
            if j != self.location
        )

    def _start_attempt(self, core: PaxosState) -> PaxosState:
        """Begin a new ballot strictly above everything seen so far."""
        floor = core.ballot_counter
        if core.promised is not None:
            floor = max(floor, core.promised[0])
        counter = floor + 1
        ballot: Ballot = (counter, self.location)
        # Self-promise (the leader is also an acceptor).
        promises = frozenset({(self.location, core.accepted)})
        return replace(
            core,
            ballot_counter=counter,
            attempt=ballot,
            phase=1,
            attempt_value=None,
            promises=promises,
            accepts=frozenset(),
            promised=ballot,
            outbox=core.outbox + self._broadcast((P1A, ballot)),
        )

    def _maybe_start(self, core: PaxosState) -> PaxosState:
        if core.leader != self.location:
            return core
        if core.decided_value is not None:
            # Liveness repair: the previous leader may have crashed midway
            # through its decision broadcast.  A decided process that
            # becomes leader re-broadcasts the decision once, so every
            # live waiter learns it.
            if not core.decide_broadcast:
                return replace(
                    core,
                    decide_broadcast=True,
                    outbox=core.outbox
                    + self._broadcast((DECIDE_MSG, core.decided_value)),
                )
            return core
        if core.value is not None and core.attempt is None:
            return self._start_attempt(core)
        return core

    def _check_promises(self, core: PaxosState) -> PaxosState:
        if core.phase != 1 or len(core.promises) < self.majority:
            return core
        best: Optional[Tuple[Ballot, int]] = None
        for _j, acc in core.promises:
            if acc is not None and (best is None or acc[0] > best[0]):
                best = acc
        chosen = best[1] if best is not None else core.value
        assert chosen is not None
        # The leader is also an acceptor: accept its own phase-2a.
        return replace(
            core,
            phase=2,
            attempt_value=chosen,
            accepted=(core.attempt, chosen),
            accepts=frozenset({self.location}),
            outbox=core.outbox + self._broadcast((P2A, core.attempt, chosen)),
        )

    def _check_accepts(self, core: PaxosState) -> PaxosState:
        if core.phase != 2 or len(core.accepts) < self.majority:
            return core
        value = core.attempt_value
        return replace(
            core,
            decided_value=value,
            decide_broadcast=True,
            attempt=None,
            phase=0,
            outbox=core.outbox + self._broadcast((DECIDE_MSG, value)),
        )

    # -- Transitions ------------------------------------------------------------------

    def core_initial(self) -> State:
        return PaxosState()

    def core_apply(self, core: PaxosState, action: Action) -> PaxosState:
        if action.name == PROPOSE:
            if core.value is None:
                core = replace(core, value=action.payload[0])
                core = self._maybe_start(core)
            return core
        if action.name == self.fd_output_name:
            core = replace(core, leader=action.payload[0])
            return self._maybe_start(core)
        if self.is_receive(action):
            message, sender = self.received_message(action)
            return self._on_message(core, message, sender)
        if action.name == "send":
            if core.outbox and action == core.outbox[0]:
                return replace(core, outbox=core.outbox[1:])
            return core
        if action.name == "decide":
            return replace(core, decided_out=True)
        return core

    def _on_message(self, core: PaxosState, message, sender: int) -> PaxosState:
        if not isinstance(message, tuple) or not message:
            return core
        tag = message[0]
        if tag == P1A:
            (_t, ballot) = message
            if core.promised is None or ballot > core.promised:
                return replace(
                    core,
                    promised=ballot,
                    outbox=core.outbox
                    + (self.send((P1B, ballot, core.accepted), sender),),
                )
            return replace(
                core,
                outbox=core.outbox
                + (self.send((NACK, ballot, core.promised), sender),),
            )
        if tag == P1B:
            (_t, ballot, accepted) = message
            if core.attempt == ballot and core.phase == 1:
                core = replace(
                    core, promises=core.promises | {(sender, accepted)}
                )
                return self._check_promises(core)
            return core
        if tag == P2A:
            (_t, ballot, value) = message
            if core.promised is None or ballot >= core.promised:
                return replace(
                    core,
                    promised=ballot,
                    accepted=(ballot, value),
                    outbox=core.outbox + (self.send((P2B, ballot), sender),),
                )
            return replace(
                core,
                outbox=core.outbox
                + (self.send((NACK, ballot, core.promised), sender),),
            )
        if tag == P2B:
            (_t, ballot) = message
            if core.attempt == ballot and core.phase == 2:
                core = replace(core, accepts=core.accepts | {sender})
                return self._check_accepts(core)
            return core
        if tag == NACK:
            (_t, ballot, their_promise) = message
            if core.attempt == ballot:
                core = replace(
                    core,
                    attempt=None,
                    phase=0,
                    ballot_counter=max(
                        core.ballot_counter, their_promise[0]
                    ),
                )
                return self._maybe_start(core)
            return core
        if tag == DECIDE_MSG:
            (_t, value) = message
            if core.decided_value is None:
                return replace(core, decided_value=value)
            return core
        return core

    def core_enabled(self, core: PaxosState) -> Iterable[Action]:
        if core.outbox:
            yield core.outbox[0]
        elif core.decided_value is not None and not core.decided_out:
            yield decide_action(self.location, core.decided_value)

    # -- Introspection -------------------------------------------------------------

    @staticmethod
    def decision(state: State) -> Optional[int]:
        """The decided value in a (failed, core) process state, or None."""
        _failed, core = state
        return core.decided_value if core.decided_out else None


def omega_consensus_algorithm(
    locations: Sequence[int],
    fd_output_name: str = OMEGA_OUTPUT,
) -> DistributedAlgorithm:
    """The Paxos-style Omega-consensus algorithm over ``locations``."""
    processes: Dict[int, ProcessAutomaton] = {
        i: OmegaConsensusProcess(i, locations, fd_output_name)
        for i in locations
    }
    return DistributedAlgorithm(processes)
