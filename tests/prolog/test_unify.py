"""Tests for unification and the trail."""

import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.prolog.terms import Atom, Num, Struct, Var, make_list
from repro.prolog.unify import (
    occurs_in,
    rename_term,
    resolve,
    undo_to,
    unify,
    walk,
)


def fresh():
    return {}, []


class TestBasicUnification:
    def test_atom_with_itself(self):
        bindings, trail = fresh()
        assert unify(Atom("a"), Atom("a"), bindings, trail)
        assert not trail

    def test_distinct_atoms_fail(self):
        bindings, trail = fresh()
        assert not unify(Atom("a"), Atom("b"), bindings, trail)

    def test_var_binds_to_term(self):
        bindings, trail = fresh()
        assert unify(Var("X"), Atom("a"), bindings, trail)
        assert walk(Var("X"), bindings) == Atom("a")
        assert trail == [Var("X")]

    def test_var_var_aliasing(self):
        bindings, trail = fresh()
        assert unify(Var("X"), Var("Y"), bindings, trail)
        assert unify(Var("Y"), Num(3), bindings, trail)
        assert walk(Var("X"), bindings) == Num(3)

    def test_struct_decomposition(self):
        bindings, trail = fresh()
        left = Struct("f", (Var("X"), Num(2)))
        right = Struct("f", (Num(1), Var("Y")))
        assert unify(left, right, bindings, trail)
        assert walk(Var("X"), bindings) == Num(1)
        assert walk(Var("Y"), bindings) == Num(2)

    def test_functor_mismatch(self):
        bindings, trail = fresh()
        assert not unify(
            Struct("f", (Num(1),)), Struct("g", (Num(1),)), bindings, trail
        )

    def test_arity_mismatch(self):
        bindings, trail = fresh()
        assert not unify(
            Struct("f", (Num(1),)), Struct("f", (Num(1), Num(2))), bindings, trail
        )

    def test_lists_unify_elementwise(self):
        bindings, trail = fresh()
        assert unify(
            make_list([Var("X"), Num(2)]),
            make_list([Num(1), Var("Y")]),
            bindings,
            trail,
        )
        assert walk(Var("X"), bindings) == Num(1)


class TestTrail:
    def test_undo_restores_state(self):
        bindings, trail = fresh()
        mark = len(trail)
        unify(Var("X"), Atom("a"), bindings, trail)
        undo_to(mark, bindings, trail)
        assert bindings == {}
        assert trail == []

    def test_partial_undo(self):
        bindings, trail = fresh()
        unify(Var("X"), Atom("a"), bindings, trail)
        mark = len(trail)
        unify(Var("Y"), Atom("b"), bindings, trail)
        undo_to(mark, bindings, trail)
        assert Var("X") in bindings
        assert Var("Y") not in bindings

    def test_failed_unify_then_undo(self):
        bindings, trail = fresh()
        mark = len(trail)
        ok = unify(
            Struct("f", (Var("X"), Atom("a"))),
            Struct("f", (Num(1), Atom("b"))),
            bindings,
            trail,
        )
        assert not ok
        undo_to(mark, bindings, trail)
        assert bindings == {}


class TestOccursCheck:
    def test_occurs_detected(self):
        bindings, trail = fresh()
        assert occurs_in(Var("X"), Struct("f", (Var("X"),)), bindings)

    def test_occurs_through_bindings(self):
        bindings, trail = fresh()
        unify(Var("Y"), Struct("f", (Var("X"),)), bindings, trail)
        assert occurs_in(Var("X"), Var("Y"), bindings)

    def test_unify_with_occurs_check_fails_cyclic(self):
        bindings, trail = fresh()
        assert not unify(
            Var("X"), Struct("f", (Var("X"),)), bindings, trail, occurs_check=True
        )

    def test_unify_without_check_allows_cyclic(self):
        bindings, trail = fresh()
        assert unify(Var("X"), Struct("f", (Var("X"),)), bindings, trail)


class TestResolveAndRename:
    def test_resolve_substitutes_deeply(self):
        bindings, trail = fresh()
        unify(Var("X"), Num(1), bindings, trail)
        term = Struct("f", (Struct("g", (Var("X"),)), Var("Y")))
        resolved = resolve(term, bindings)
        assert resolved == Struct("f", (Struct("g", (Num(1),)), Var("Y")))

    def test_rename_consistent_within_term(self):
        term = Struct("f", (Var("X"), Var("X"), Var("Y")))
        renamed = rename_term(term, salt=7)
        assert renamed.args[0] == renamed.args[1]
        assert renamed.args[0] != renamed.args[2]
        assert renamed.args[0].salt == 7

    def test_rename_twice_never_collides(self):
        term = Struct("f", (Var("X", 1), Var("X", 2)))
        renamed = rename_term(term, salt=9)
        assert renamed.args[0] != renamed.args[1]


terms = st.recursive(
    st.one_of(
        st.sampled_from([Atom("a"), Atom("b"), Num(0), Num(1)]),
        st.sampled_from([Var("X"), Var("Y"), Var("Z")]),
    ),
    lambda children: st.builds(
        lambda a, b: Struct("f", (a, b)), children, children
    ),
    max_leaves=8,
)


@given(term=terms)
def test_unify_is_reflexive(term):
    bindings, trail = {}, []
    assert unify(term, term, bindings, trail)


@given(left=terms, right=terms)
def test_unify_symmetric_success(left, right):
    b1, t1 = {}, []
    b2, t2 = {}, []
    assert unify(left, right, b1, t1) == unify(right, left, b2, t2)


CYCLIC_PAIR = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.prolog.terms import Atom, Num, Struct, Var
from repro.prolog.unify import unify

def f(*args):
    return Struct("f", args)

X, Z, zero, one = Var("X"), Var("Z"), Num(0), Num(1)
left = f(Z, f(X, f(f(zero, X), f(f(X, one), Z))))
right = f(f(Atom("a"), f(f(zero, one), Z)), Z)
print(unify(left, right, {}, []), unify(right, left, {}, []))
"""


def test_unify_terminates_on_a_variable_bound_into_its_own_term():
    """Without the occurs check ``Z`` ends up bound into a term that
    contains it; the unifier used to unfold that term until memory was
    gone.  Run in a child capped at 1 GiB and 10 s, so a regression
    fails this test instead of taking the machine down."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", CYCLIC_PAIR],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


@given(left=terms, right=terms)
def test_unifier_makes_terms_equal(left, right):
    bindings, trail = {}, []
    if unify(left, right, bindings, trail, occurs_check=True):
        assert resolve(left, bindings) == resolve(right, bindings)
