"""Shared machinery for failure-detector generator automata.

The paper's Algorithm 1 (FD-Omega) and Algorithm 2 (FD-P) share one shape:
the automaton tracks the set of crashed locations (``crashset``), and at
each live location a dedicated task outputs a value computed from
``crashset``.  :class:`CrashsetDetectorAutomaton` captures that shape; each
zoo detector supplies the output-value function.

:class:`RenamedDetectorAutomaton` wraps any detector automaton and renames
its output actions through an :class:`~repro.core.renaming.Renaming`,
yielding the generator for a renamed AFD D' (Section 5.3).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Hashable, Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import (
    FiniteActionSet,
    PredicateActionSet,
    Signature,
)
from repro.core.renaming import Renaming
from repro.system.fault_pattern import CRASH, crash_action


class CrashsetDetectorAutomaton(Automaton):
    """A failure-detector automaton in the style of Algorithms 1 and 2.

    State: the frozenset of locations whose crash events have occurred.
    For each location i there is a task ``out[i]`` whose single enabled
    action (when i is not in the crashset) outputs
    ``value_fn(i, crashset)`` at i.

    Parameters
    ----------
    locations:
        The location set Pi.
    output_name:
        The action name of outputs (e.g. ``"fd-omega"``).
    value_fn:
        ``value_fn(location, crashset) -> payload tuple`` for the output at
        that location given the current crashset.  Must be deterministic,
        making the automaton task deterministic (Section 2.5).
    """

    def __init__(
        self,
        locations: Sequence[int],
        output_name: str,
        value_fn: Callable[[int, FrozenSet[int]], Tuple[Hashable, ...]],
        name: str = "",
    ):
        super().__init__(name or f"FD-{output_name}")
        self.locations: Tuple[int, ...] = tuple(locations)
        self.output_name = output_name
        self._value_fn = value_fn
        self._signature = Signature(
            inputs=FiniteActionSet(
                tuple(crash_action(i) for i in self.locations)
            ),
            outputs=PredicateActionSet(
                lambda a: (
                    a.name == output_name and a.location in self.locations
                ),
                f"{output_name}(*)_i",
                routes=((output_name, i) for i in self.locations),
            ),
        )

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return frozenset()

    def output_at(self, location: int, crashset: FrozenSet[int]) -> Action:
        """The output action currently enabled at ``location``."""
        return Action(
            self.output_name, location, self._value_fn(location, crashset)
        )

    def apply(self, state: State, action: Action) -> State:
        if action.name == CRASH:
            return state | {action.location}
        return state  # outputs have no effect on the crashset

    def enabled_locally(self, state: State) -> Iterable[Action]:
        for i in self.locations:
            if i not in state:
                yield self.output_at(i, state)

    def enabled(self, state: State, action: Action) -> bool:
        if self._signature.is_input(action):
            return True
        if action.name != self.output_name:
            return False
        i = action.location
        if i not in self.locations or i in state:
            return False
        return action == self.output_at(i, state)

    def tasks(self) -> Sequence[str]:
        return tuple(f"out[{i}]" for i in self.locations)

    def task_of(self, action: Action) -> Optional[str]:
        if action.name == self.output_name:
            return f"out[{action.location}]"
        return None

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        for i in self.locations:
            if task == f"out[{i}]":
                if i in state:
                    return ()
                return (self.output_at(i, state),)
        return ()


class RenamedDetectorAutomaton(Automaton):
    """A detector automaton with outputs renamed through r_IO.

    The wrapped automaton's fair traces lie in T_D; this automaton's fair
    traces lie in T_D' for the renamed AFD D'.
    """

    def __init__(self, base: Automaton, renaming: Renaming):
        super().__init__(f"renamed({base.name})")
        self.base = base
        self.renaming = renaming
        base_sig = base.signature
        self._signature = Signature(
            inputs=base_sig.inputs,
            outputs=PredicateActionSet(
                lambda a: (
                    renaming.covers_renamed(a)
                    and renaming.invert(a) in base_sig.outputs
                ),
                f"renamed outputs of {base.name}",
            ),
            internals=base_sig.internals,
        )

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return self.base.initial_state()

    def _demangle(self, action: Action) -> Action:
        if self.renaming.covers_renamed(action):
            inverted = self.renaming.invert(action)
            if inverted in self.base.signature.outputs:
                return inverted
        return action

    def apply(self, state: State, action: Action) -> State:
        return self.base.apply(state, self._demangle(action))

    def enabled(self, state: State, action: Action) -> bool:
        if self._signature.is_input(action):
            return True
        demangled = self._demangle(action)
        if demangled is action:
            return False
        return self.base.enabled(state, demangled)

    def enabled_locally(self, state: State) -> Iterable[Action]:
        for action in self.base.enabled_locally(state):
            yield self.renaming.apply(action)

    def tasks(self) -> Sequence[str]:
        return self.base.tasks()

    def task_of(self, action: Action) -> Optional[str]:
        return self.base.task_of(self._demangle(action))

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        return tuple(
            self.renaming.apply(a)
            for a in self.base.enabled_in_task(state, task)
        )


def sorted_tuple(items: Iterable[int]) -> Tuple[int, ...]:
    """Canonical encoding of a set of locations as a payload element."""
    return tuple(sorted(items))
