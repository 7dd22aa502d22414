"""Tests for repro.ioa.signature."""

import pytest

from repro.ioa.actions import Action
from repro.ioa.signature import (
    EmptyActionSet,
    FiniteActionSet,
    PredicateActionSet,
    Signature,
    UnionActionSet,
)

A = Action("a", 0)
B = Action("b", 1)
C = Action("c", 2)


class TestActionSets:
    def test_empty(self):
        s = EmptyActionSet()
        assert A not in s
        assert s.is_finite()
        assert list(s.enumerate()) == []

    def test_finite_membership(self):
        s = FiniteActionSet([A, B])
        assert A in s
        assert B in s
        assert C not in s

    def test_finite_enumerate_sorted(self):
        s = FiniteActionSet([B, A])
        assert list(s.enumerate()) == [A, B]

    def test_finite_len(self):
        assert len(FiniteActionSet([A, B, A])) == 2

    def test_predicate(self):
        s = PredicateActionSet(lambda a: a.name == "a", "name==a")
        assert A in s
        assert B not in s
        assert not s.is_finite()
        with pytest.raises(TypeError):
            list(s.enumerate())

    def test_union_membership(self):
        s = UnionActionSet([FiniteActionSet([A]), FiniteActionSet([B])])
        assert A in s and B in s and C not in s

    def test_union_finiteness(self):
        finite = UnionActionSet([FiniteActionSet([A]), FiniteActionSet([B])])
        assert finite.is_finite()
        assert set(finite.enumerate()) == {A, B}
        mixed = UnionActionSet(
            [FiniteActionSet([A]), PredicateActionSet(lambda a: False, "")]
        )
        assert not mixed.is_finite()

    def test_union_enumerate_dedupes(self):
        s = UnionActionSet([FiniteActionSet([A, B]), FiniteActionSet([A])])
        assert sorted(s.enumerate()) == [A, B]

    def test_or_operator(self):
        s = FiniteActionSet([A]) | FiniteActionSet([B])
        assert A in s and B in s

    def test_routes_derived_and_unioned(self):
        assert EmptyActionSet().routes() == frozenset()
        assert FiniteActionSet([A, Action("a", 0, (1,))]).routes() == {("a", 0)}
        declared = PredicateActionSet(lambda a: True, "", routes=[("c", 2)])
        union = UnionActionSet([FiniteActionSet([A]), declared])
        assert union.routes() == {("a", 0), ("c", 2)}
        assert Signature(inputs=FiniteActionSet([B]), outputs=union).routes() == {
            ("a", 0),
            ("b", 1),
            ("c", 2),
        }

    def test_unknown_routes_make_the_union_unknown(self):
        wildcard = PredicateActionSet(lambda a: a.name == "a", "name==a")
        assert wildcard.routes() is None
        assert UnionActionSet([FiniteActionSet([B]), wildcard]).routes() is None
        assert Signature(internals=wildcard).routes() is None


class TestSignature:
    def make(self):
        return Signature(
            inputs=FiniteActionSet([A]),
            outputs=FiniteActionSet([B]),
            internals=FiniteActionSet([C]),
        )

    def test_classification(self):
        sig = self.make()
        assert sig.is_input(A) and not sig.is_input(B)
        assert sig.is_output(B)
        assert sig.is_internal(C)

    def test_external(self):
        sig = self.make()
        assert sig.is_external(A)
        assert sig.is_external(B)
        assert not sig.is_external(C)

    def test_locally_controlled(self):
        sig = self.make()
        assert sig.is_locally_controlled(B)
        assert sig.is_locally_controlled(C)
        assert not sig.is_locally_controlled(A)

    def test_contains(self):
        sig = self.make()
        assert A in sig and B in sig and C in sig
        assert Action("zzz", 0) not in sig

    def test_classify(self):
        sig = self.make()
        assert sig.classify(A) == "input"
        assert sig.classify(B) == "output"
        assert sig.classify(C) == "internal"
        assert sig.classify(Action("zzz", 0)) is None

    def test_default_empty(self):
        sig = Signature()
        assert A not in sig
