"""AC-normal form: combs and sorted leaves.

A right comb for C is C(t1, C(t2, ... C(tn-1, tn))) with no ti headed by C;
a left comb nests the other way.  The orientation mapping names the AC
constructors and gives each its comb direction.  Both directions share one
code path: a comb is an exposed leaf plus the rest, and the orientation
only picks which argument holds which (see comb_sign).  AC-normal means every
AC spine is a comb of its orientation whose leaves are in non-decreasing
structural order, recursively.
"""

from __future__ import annotations

import functools
import operator
from typing import Mapping

from .errors import ShapeError
from .terms import App, Signature, Term, compare, fold

Orientation = Mapping[str, str]  # AC constructor name -> "left" | "right"


def comb_sign(orientation: str) -> int:
    """The comb view of an orientation: +1 for right combs C(leaf, rest), -1
    for left combs C(rest, leaf).  As a slice step on C's arguments it reads
    them as (exposed leaf, rest) and puts such a pair back in spine order."""
    if orientation not in ("right", "left"):
        raise ShapeError(f"bad orientation {orientation!r}")
    return 1 if orientation == "right" else -1


def spine(C: str, t: Term) -> list[Term]:
    """The leaves of t's C-spine in any bracketing, left to right; [t] when
    t is not C-headed."""
    out: list[Term] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, App) and u.ctor == C:
            stack += reversed(u.args)
        else:
            out.append(u)
    return out


def _recomb(t: Term, orientation: Orientation, read, sig=None) -> Term:
    # One fold that rebuilds every AC spine u as a comb of its orientation
    # from the leaves read(C, u) lists, each leaf folded first, and sorts
    # them when sig is given.  Other nodes are kept when their arguments
    # come back unchanged.
    key = None if sig is None else functools.cmp_to_key(lambda a, b: compare(sig, a, b))

    def children(u: App):
        return u.args if u.ctor not in orientation else read(u.ctor, u)

    def node(u: App, values: tuple) -> Term:
        o = orientation.get(u.ctor)
        if o is None:
            if all(map(operator.is_, values, u.args)):
                return u
            return App(u.ctor, values)
        parts = list(values) if key is None else sorted(values, key=key)
        return build_comb(u.ctor, parts, o)

    return fold(t, lambda u: u, node, children)


def comb(t: Term, orientation: Orientation) -> Term:
    """Reassociate every AC spine into a comb of its declared direction."""
    return _recomb(t, orientation, spine)


def leaves(C: str, t: Term, orientation: str = "right") -> list[Term]:
    """Leaf list of a C-comb, spine order; errors if t is not such a comb."""
    s = comb_sign(orientation)
    out: list[Term] = []
    while isinstance(t, App) and t.ctor == C:
        head, t = t.args[::s]
        if isinstance(head, App) and head.ctor == C:
            raise ShapeError(f"not a {orientation} {C} comb")
        out.append(head)
    out.append(t)
    return out[::s]


def build_comb(C: str, parts: list[Term], orientation: str = "right") -> Term:
    """Inverse of leaves: fold a non-empty leaf list back into a comb."""
    if not parts:
        raise ShapeError("empty leaf list")
    s = comb_sign(orientation)
    ordered = parts[::-s]  # innermost leaf first
    out = ordered[0]
    for leaf in ordered[1:]:
        out = App(C, (leaf, out)[::s])
    return out


def sort_combs(sig: Signature, t: Term, orientation: Orientation) -> Term:
    """Sort every comb's leaves (after normalizing inside the leaves)."""
    return _recomb(t, orientation, lambda C, u: leaves(C, u, orientation[C]), sig)


def is_ac_normal(sig: Signature, t: Term, orientation: Orientation) -> bool:
    """True iff every AC spine is a comb with non-decreasing leaves, recursively."""
    stack = [t]  # subterms still to check, the next one last
    while stack:
        u = stack.pop()
        if isinstance(u, App) and u.ctor in orientation:
            try:
                parts = leaves(u.ctor, u, orientation[u.ctor])
            except ShapeError:
                return False
            if any(compare(sig, a, b) > 0 for a, b in zip(parts, parts[1:])):
                return False
            stack += reversed(parts)
        elif isinstance(u, App):
            stack += reversed(u.args)
    return True
