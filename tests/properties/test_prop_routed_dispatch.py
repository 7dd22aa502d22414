"""Property-based validation of the composition's routed dispatch.

A composition indexes every ``(name, location)`` route to the components
whose signatures declare it, plus the *wildcards* whose routes are
unknown, and a dispatch miss scans only those candidates
(:mod:`repro.ioa.composition`).  On randomized compositions mixing
finite signatures, route-declared predicate signatures, undeclared
(wildcard) predicate signatures and a nested composition
(:class:`~repro.system.environment.ScriptedConsensusEnvironment`), the
routed answers must equal the exhaustive all-components scan: the same
owner, the same participants, and the same ambiguity
:class:`~repro.ioa.composition.CompositionError` text, raised on every
use.  The constructor's static compatibility check must raise the same
errors as an exhaustive check.
"""

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.composition import Composition, CompositionError
from repro.ioa.signature import (
    EmptyActionSet,
    FiniteActionSet,
    PredicateActionSet,
    Signature,
)
from repro.system.environment import ScriptedConsensusEnvironment

NAMES = ("a", "b", "send", "propose", "decide", "crash")
LOCATIONS = (0, 1, None)
ROUTES = tuple((n, loc) for n in NAMES for loc in LOCATIONS)
UNIVERSE = tuple(
    Action(n, loc, (p,)) for n in NAMES for loc in LOCATIONS for p in (0, 1)
) + tuple(Action(n, loc) for n in ("crash", "zzz") for loc in LOCATIONS)
#: Finite sets enumerate sorted, so their members avoid ``None`` locations
#: (which do not order against integers).
LOCATED = tuple(a for a in UNIVERSE if a.location is not None)


def exhaustive_dispatch(composition, action):
    """The pre-routing dispatch: every component is asked.  Returns the
    ``(owner, participants)`` entry or the ambiguity message."""
    components = composition.components
    owners = [
        k
        for k, c in enumerate(components)
        if c.signature.is_locally_controlled(action)
    ]
    if len(owners) > 1:
        return (
            f"action {action} is locally controlled by several "
            f"components: {[components[k].name for k in owners]}"
        )
    return (
        owners[0] if owners else None,
        tuple(k for k, c in enumerate(components) if action in c.signature),
    )


def exhaustive_compatibility(components):
    """The pre-routing static check; the error message or ``None``."""
    for c in components:
        outs = c.signature.outputs
        if not outs.is_finite():
            continue
        for action in outs.enumerate():
            owners = [d.name for d in components if action in d.signature.outputs]
            if len(owners) > 1:
                return (
                    f"action {action} is an output of several "
                    f"components: {owners}"
                )
    for c in components:
        ints = c.signature.internals
        if not ints.is_finite():
            continue
        for action in ints.enumerate():
            for d in components:
                if d is not c and action in d.signature:
                    return (
                        f"internal action {action} of {c.name} is also "
                        f"an action of {d.name}"
                    )
    return None


def routed_dispatch(composition, action):
    try:
        return composition._dispatch(action)
    except CompositionError as exc:
        return str(exc)


@st.composite
def action_sets(draw, kind):
    """One action set of the given kind over the small universe."""
    if kind == "finite":
        members = draw(st.lists(st.sampled_from(LOCATED), max_size=4))
        return FiniteActionSet(members) if members else EmptyActionSet()
    parity = draw(st.sampled_from((0, 1, None)))

    def predicate(a, parity=parity):
        return parity is None or (a.payload[:1] == (parity,))

    routes = draw(st.lists(st.sampled_from(ROUTES), min_size=1, max_size=4))
    if kind == "declared":
        return PredicateActionSet(predicate, "declared", routes=routes)
    # A wildcard: the same membership, but the routes are left unknown.
    return PredicateActionSet(
        lambda a, routes=frozenset(routes): (
            (a.name, a.location) in routes and predicate(a)
        ),
        "wildcard",
    )


@st.composite
def random_compositions(draw):
    n_components = draw(st.integers(min_value=2, max_value=6))
    components = []
    for i in range(n_components):
        kind = draw(st.sampled_from(("finite", "declared", "wildcard")))
        internals = EmptyActionSet()
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            internals = draw(action_sets(kind))
        components.append(
            FunctionalAutomaton(
                name=f"{kind}{i}",
                signature=Signature(
                    inputs=draw(action_sets(kind)),
                    outputs=draw(action_sets(kind)),
                    internals=internals,
                ),
                initial=0,
                transition=lambda s, a: s,
                enabled_fn=lambda s: (),
            )
        )
    if draw(st.booleans()):
        position = draw(st.integers(min_value=0, max_value=len(components)))
        components.insert(position, ScriptedConsensusEnvironment({0: 1, 1: 0}))
    return components


@settings(max_examples=200, deadline=None)
@given(
    components=random_compositions(),
    probes=st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=12),
    use_cache=st.booleans(),
)
def test_routed_dispatch_equals_exhaustive_scan(components, probes, use_cache):
    expected_error = exhaustive_compatibility(components)
    if expected_error is not None:
        with pytest.raises(CompositionError) as info:
            Composition(components, name="sys", use_enabled_cache=use_cache)
        assert str(info.value) == expected_error
        event("incompatible at construction")
        return
    composition = Composition(components, name="sys", use_enabled_cache=use_cache)
    for action in probes:
        expected = exhaustive_dispatch(composition, action)
        # Twice: the second sighting is a memo hit when the entry is
        # cached, and an ambiguous action must raise on every use.
        for _ in range(2):
            assert routed_dispatch(composition, action) == expected
        if isinstance(expected, str):
            event("ambiguous dispatch")
            with pytest.raises(CompositionError, match="locally controlled"):
                composition.owner_of(action)
            continue
        owner, participants = expected
        event("owned" if owner is not None else "input or foreign")
        assert composition.participants(action) == list(participants)
        assert composition.owner_of(action) is (
            None if owner is None else components[owner]
        )


@settings(max_examples=100, deadline=None)
@given(routes=st.lists(st.sampled_from(ROUTES), min_size=1, max_size=5))
def test_declared_routes_bound_membership(routes):
    """A route-declared predicate set is never wider than its routes, even
    when its predicate accepts everything."""
    declared = PredicateActionSet(lambda a: True, "everything", routes=routes)
    assert declared.routes() == frozenset(routes)
    for action in UNIVERSE:
        assert (action in declared) == ((action.name, action.location) in routes)


def test_off_route_action_rejected_although_predicate_accepts():
    accept_all = PredicateActionSet(lambda a: True, "all", routes=[("a", 0)])
    assert Action("a", 0, (1,)) in accept_all
    assert Action("a", 1, (1,)) not in accept_all
    assert Action("b", 0, (1,)) not in accept_all


class CountingAutomaton(FunctionalAutomaton):
    """An automaton claiming every action on its routes, counting how
    often its signature is consulted."""

    def __init__(self, name, routes, asked):
        super().__init__(
            name=name,
            signature=Signature(
                outputs=PredicateActionSet(lambda a: True, name, routes=routes)
            ),
            initial=0,
            transition=lambda s, a: s,
            enabled_fn=lambda s: (),
        )
        self._asked = asked

    @property
    def signature(self):
        self._asked.append(self.name)
        return self._signature


def test_dispatch_miss_asks_only_candidates_and_wildcards():
    asked = []
    here = CountingAutomaton("here", [("a", 0)], asked)
    elsewhere = CountingAutomaton("elsewhere", [("a", 1)], asked)
    wildcard = CountingAutomaton("wild", None, asked)
    composition = Composition([elsewhere, wildcard, here])
    asked.clear()
    with pytest.raises(CompositionError) as info:
        composition.owner_of(Action("a", 0))
    assert "['wild', 'here']" in str(info.value)
    assert set(asked) == {"wild", "here"}
    # An action no component declares reaches only the wildcard.
    asked.clear()
    assert composition.owner_of(Action("zzz", 0)) is wildcard
    assert set(asked) == {"wild"}
