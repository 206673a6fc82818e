"""Unification with trail-based undo.

'Many normal operations are subsumed by the unification algorithm by which
Prolog attempts to satisfy predicates.'  Bindings live in a mutable dict;
every binding is recorded on a trail so backtracking can undo to a mark in
O(bindings since mark).  The paper's observation that unification produces
'an overwhelming preponderance of read references' corresponds here to
``walk`` chains (reads) vastly outnumbering trail pushes (writes).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.prolog.terms import Struct, Term, Var

Bindings = Dict[Var, Term]
Trail = List[Var]


def walk(term: Term, bindings: Bindings) -> Term:
    """Dereference ``term`` through the binding chain (shallow)."""
    while isinstance(term, Var):
        bound = bindings.get(term)
        if bound is None:
            return term
        term = bound
    return term


def bind(var: Var, value: Term, bindings: Bindings, trail: Trail) -> None:
    """Record ``var = value`` and push the var on the trail."""
    bindings[var] = value
    trail.append(var)


def undo_to(mark: int, bindings: Bindings, trail: Trail) -> None:
    """Pop trail entries down to ``mark``, unbinding as we go."""
    while len(trail) > mark:
        del bindings[trail.pop()]


def occurs_in(var: Var, term: Term, bindings: Bindings) -> bool:
    """Occurs check: does ``var`` appear in (the walk of) ``term``?"""
    stack = [term]
    while stack:
        current = walk(stack.pop(), bindings)
        if current == var:
            return True
        if isinstance(current, Struct):
            stack.extend(current.args)
    return False


def unify(
    a: Term,
    b: Term,
    bindings: Bindings,
    trail: Trail,
    occurs_check: bool = False,
) -> bool:
    """Attempt to unify ``a`` with ``b`` in place.

    On failure the caller is responsible for ``undo_to`` -- partial
    bindings may remain, which is why callers always take a trail mark
    first.
    Without the occurs check a variable may be bound into its own term;
    a pair of structs already pushed is assumed equal and not unfolded
    again (rational-tree unification), which is what terminates.
    """
    stack = [(a, b)]
    seen = set()
    while stack:
        left, right = stack.pop()
        left = walk(left, bindings)
        right = walk(right, bindings)
        if left == right:
            continue
        if isinstance(left, Var):
            if occurs_check and occurs_in(left, right, bindings):
                return False
            bind(left, right, bindings, trail)
            continue
        if isinstance(right, Var):
            if occurs_check and occurs_in(right, left, bindings):
                return False
            bind(right, left, bindings, trail)
            continue
        if isinstance(left, Struct) and isinstance(right, Struct):
            if left.functor != right.functor or left.arity != right.arity:
                return False
            pair = (id(left), id(right))
            if pair in seen:
                continue
            seen.add(pair)
            stack.extend(zip(left.args, right.args))
            continue
        return False
    return True


def resolve(term: Term, bindings: Bindings) -> Term:
    """Deep-substitute every bound variable in ``term``."""
    term = walk(term, bindings)
    if isinstance(term, Struct):
        return Struct(
            term.functor, tuple(resolve(arg, bindings) for arg in term.args)
        )
    return term


def rename_term(term: Term, salt: int, cache: Optional[Dict[Var, Var]] = None) -> Term:
    """A copy of ``term`` with every variable freshened by ``salt``."""
    if cache is None:
        cache = {}
    if isinstance(term, Var):
        fresh = cache.get(term)
        if fresh is None:
            # Fold any existing salt into the name so renaming an
            # already-renamed term cannot collide two distinct variables.
            base = f"{term.name}~{term.salt}" if term.salt else term.name
            fresh = Var(base, salt)
            cache[term] = fresh
        return fresh
    if isinstance(term, Struct):
        return Struct(
            term.functor,
            tuple(rename_term(arg, salt, cache) for arg in term.args),
        )
    return term
