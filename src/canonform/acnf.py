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
from typing import Mapping

from .errors import ShapeError
from .terms import App, Signature, Term, compare

Orientation = Mapping[str, str]  # AC constructor name -> "left" | "right"


def comb_sign(orientation: str) -> int:
    """The comb view of an orientation: +1 for right combs C(leaf, rest), -1
    for left combs C(rest, leaf).  As a slice step on C's arguments it reads
    them as (exposed leaf, rest) and puts such a pair back in spine order."""
    if orientation not in ("right", "left"):
        raise ShapeError(f"bad orientation {orientation!r}")
    return 1 if orientation == "right" else -1


def _rotate(C: str, t: App, s: int) -> Term:
    # exhaustively moves C-headed arguments off the exposed side of the
    # spine: C(C(x,y),z) -> C(x,C(y,z)) for right combs, mirrored for left
    e, r = t.args[::s]
    while isinstance(e, App) and e.ctor == C:
        x, y = e.args[::s]
        r = _rotate(C, App(C, (y, r)[::s]), s)
        e = x
    return App(C, (e, r)[::s])


def comb(t: Term, orientation: Orientation) -> Term:
    """Reassociate every AC spine into a comb of its declared direction."""
    if not isinstance(t, App) or not t.args:
        return t
    t2 = App(t.ctor, tuple(comb(a, orientation) for a in t.args))
    o = orientation.get(t.ctor)
    if o is None:
        return t2
    return _rotate(t.ctor, t2, comb_sign(o))


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
    if isinstance(t, App) and t.ctor in orientation:
        o = orientation[t.ctor]
        parts = [sort_combs(sig, l, orientation) for l in leaves(t.ctor, t, o)]
        parts.sort(key=functools.cmp_to_key(lambda a, b: compare(sig, a, b)))
        return build_comb(t.ctor, parts, o)
    if isinstance(t, App) and t.args:
        return App(t.ctor, tuple(sort_combs(sig, a, orientation) for a in t.args))
    return t


def is_ac_normal(sig: Signature, t: Term, orientation: Orientation) -> bool:
    """True iff every AC spine is a comb with non-decreasing leaves, recursively."""
    if isinstance(t, App) and t.ctor in orientation:
        try:
            parts = leaves(t.ctor, t, orientation[t.ctor])
        except ShapeError:
            return False
        for a, b in zip(parts, parts[1:]):
            if compare(sig, a, b) > 0:
                return False
        return all(is_ac_normal(sig, l, orientation) for l in parts)
    if isinstance(t, App):
        return all(is_ac_normal(sig, a, orientation) for a in t.args)
    return True
