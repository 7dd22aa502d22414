"""Signatures: classification of actions as input, output or internal.

The action universe of a distributed system is infinite (there is a ``send``
action for every message in the alphabet M), so action sets are represented
by membership predicates rather than enumerations.  Finite sets additionally
support iteration, which several checkers exploit.

Every action set may also declare its *routes*: a set of ``(name,
location)`` pairs covering all of its members.  A composition uses them
to ask only the components that can possibly own or take part in an
action (:mod:`repro.ioa.composition`).  A set whose routes are unknown
returns ``None`` and is treated as a wildcard, so declaring routes is an
optimization and never a condition for correctness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.ioa.actions import Action

#: A ``(name, location)`` pair: the part of an action that routes it.
Route = Tuple[str, Optional[int]]


def union_routes(sets: Iterable["ActionSet"]) -> Optional[FrozenSet[Route]]:
    """The union of the routes of ``sets``; ``None`` if any is unknown."""
    routes: set = set()
    for part in sets:
        part_routes = part.routes()
        if part_routes is None:
            return None
        routes |= part_routes
    return frozenset(routes)


class ActionSet(ABC):
    """An (extensionally possibly infinite) set of actions."""

    @abstractmethod
    def __contains__(self, action: Action) -> bool:
        """Membership test."""

    def is_finite(self) -> bool:
        """Whether this set supports enumeration via :meth:`enumerate`."""
        return False

    def enumerate(self) -> Iterator[Action]:
        """Iterate over members; only available when :meth:`is_finite`."""
        raise TypeError(f"{type(self).__name__} is not enumerable")

    def routes(self) -> Optional[FrozenSet[Route]]:
        """The ``(name, location)`` pairs of every member, or ``None``
        when unknown (a wildcard: any action may be a member)."""
        return None

    def union(self, other: "ActionSet") -> "ActionSet":
        """The union of this set with another."""
        return UnionActionSet((self, other))

    def __or__(self, other: "ActionSet") -> "ActionSet":
        return self.union(other)


class EmptyActionSet(ActionSet):
    """The empty set of actions."""

    def __contains__(self, action: Action) -> bool:
        return False

    def is_finite(self) -> bool:
        return True

    def enumerate(self) -> Iterator[Action]:
        return iter(())

    def routes(self) -> FrozenSet[Route]:
        return frozenset()

    def __repr__(self) -> str:
        return "EmptyActionSet()"


class FiniteActionSet(ActionSet):
    """An explicitly enumerated, finite set of actions."""

    def __init__(self, actions: Iterable[Action]):
        self._actions: FrozenSet[Action] = frozenset(actions)

    def __contains__(self, action: Action) -> bool:
        return action in self._actions

    def is_finite(self) -> bool:
        return True

    def enumerate(self) -> Iterator[Action]:
        return iter(sorted(self._actions))

    def routes(self) -> FrozenSet[Route]:
        return frozenset((a.name, a.location) for a in self._actions)

    def __len__(self) -> int:
        return len(self._actions)

    def __repr__(self) -> str:
        return f"FiniteActionSet({sorted(self._actions)!r})"


class PredicateActionSet(ActionSet):
    """An action set defined by a membership predicate.

    Used for infinite families such as ``{send(m, j)_i | m in M}``.

    Parameters
    ----------
    predicate:
        Membership test.
    description:
        Human-readable description for error messages and ``repr``.
    routes:
        Optional ``(name, location)`` pairs covering every member.  When
        given, membership tests the route before the predicate, so the
        declaration holds by construction: an off-route action is never
        a member, whatever the predicate says.
    """

    def __init__(
        self,
        predicate: Callable[[Action], bool],
        description: str = "",
        routes: Optional[Iterable[Route]] = None,
    ):
        self._predicate = predicate
        self._description = description
        self._routes: Optional[FrozenSet[Route]] = (
            None if routes is None else frozenset(routes)
        )

    def __contains__(self, action: Action) -> bool:
        routes = self._routes
        if routes is not None and (action.name, action.location) not in routes:
            return False
        return self._predicate(action)

    def routes(self) -> Optional[FrozenSet[Route]]:
        return self._routes

    def __repr__(self) -> str:
        return f"PredicateActionSet({self._description!r})"


class UnionActionSet(ActionSet):
    """The union of several action sets."""

    def __init__(self, parts: Iterable[ActionSet]):
        self._parts = tuple(parts)

    def __contains__(self, action: Action) -> bool:
        return any(action in part for part in self._parts)

    def is_finite(self) -> bool:
        return all(part.is_finite() for part in self._parts)

    def enumerate(self) -> Iterator[Action]:
        seen = set()
        for part in self._parts:
            for action in part.enumerate():
                if action not in seen:
                    seen.add(action)
                    yield action

    def routes(self) -> Optional[FrozenSet[Route]]:
        return union_routes(self._parts)

    @property
    def parts(self) -> tuple:
        return self._parts

    def __repr__(self) -> str:
        return f"UnionActionSet({list(self._parts)!r})"


class Signature:
    """The signature of an I/O automaton (Section 2.1).

    Partitions the automaton's actions into input, output and internal sets.
    Input and output actions are *external*; output and internal actions are
    *locally controlled*.
    """

    def __init__(
        self,
        inputs: Optional[ActionSet] = None,
        outputs: Optional[ActionSet] = None,
        internals: Optional[ActionSet] = None,
    ):
        self.inputs: ActionSet = inputs if inputs is not None else EmptyActionSet()
        self.outputs: ActionSet = outputs if outputs is not None else EmptyActionSet()
        self.internals: ActionSet = (
            internals if internals is not None else EmptyActionSet()
        )

    def is_input(self, action: Action) -> bool:
        return action in self.inputs

    def is_output(self, action: Action) -> bool:
        return action in self.outputs

    def is_internal(self, action: Action) -> bool:
        return action in self.internals

    def is_external(self, action: Action) -> bool:
        return self.is_input(action) or self.is_output(action)

    def is_locally_controlled(self, action: Action) -> bool:
        return self.is_output(action) or self.is_internal(action)

    def __contains__(self, action: Action) -> bool:
        return (
            self.is_input(action)
            or self.is_output(action)
            or self.is_internal(action)
        )

    def routes(self) -> Optional[FrozenSet[Route]]:
        """The routes of every action in the signature, or ``None`` when
        some part is unknown."""
        return union_routes((self.inputs, self.outputs, self.internals))

    def classify(self, action: Action) -> Optional[str]:
        """Return ``"input"``, ``"output"``, ``"internal"``, or ``None``."""
        if self.is_input(action):
            return "input"
        if self.is_output(action):
            return "output"
        if self.is_internal(action):
            return "internal"
        return None

    def __repr__(self) -> str:
        return (
            f"Signature(inputs={self.inputs!r}, outputs={self.outputs!r}, "
            f"internals={self.internals!r})"
        )
