"""Maximal sharing: interning terms so equal subterms are one object.

A table keys a node by its constructor and the identities of its canonical
arguments, and a leaf by its fields (a constant's key includes the Python
type of its value, so True never meets 1).  Each key maps to the one
canonical object, and the set of those objects' identities says whether an
object is canonical here (holds).  The table keeps every canonical object
alive, so no identity in a key is ever reused, and a lookup never hashes a
term or compares two: interning a node whose arguments are canonical costs
O(arity) however large the term.  An object becomes canonical only if it is
well sorted: a node by Signature.check, the rule construct and normalize
apply too, a leaf by its type, judged before its fields are keyed.  The
builder interns only what construct returns and the input and value of
normalize, so a table holds no comb built on the way.

The table speaks only Terms: canonical(t) is the shared object equal to t,
and within one table two canonical objects are structurally equal exactly
when they are the same object, so `is` decides equality.  Comparisons
outside a table stay structural.
"""

from __future__ import annotations

import operator
from typing import Optional

from .errors import SignatureError, SortError
from .terms import App, Prim, Signature, Term, Var

_REBUILD = object()  # marks a node on from_term's stack whose arguments are done


class HashConsTable:
    def __init__(self, sig: Signature):
        self.sig = sig
        self._nodes: dict[tuple, Term] = {}  # key -> canonical object
        self._held: set[int] = set()  # ids of the canonical objects

    def __len__(self) -> int:
        return len(self._nodes)

    def holds(self, t: object) -> bool:
        """Whether t is the very object this table made canonical."""
        return id(t) in self._held

    def _admit(self, u: Term) -> None:
        """Called on each object about to become canonical, and on each leaf
        before it is keyed: rejects it unless it is a well-sorted node over
        canonical arguments or a valid constant."""
        sig = self.sig
        if type(u) is App:
            sig.check(u.ctor, u.args)
        elif type(u) is Var:
            raise SortError("cannot intern terms containing variables")
        elif type(u) is not Prim:
            raise SortError(f"not a term: {u!r}")
        elif u.ptype not in sig.primitives:
            raise SignatureError(f"unknown primitive type {u.ptype!r}")
        elif not isinstance(u.value, sig.primitives[u.ptype]) or isinstance(u.value, bool):
            raise SortError(f"bad {u.ptype} constant {u.value!r}")

    def _add(self, key: tuple, u: Term) -> Term:
        self._nodes[key] = u
        self._held.add(id(u))
        return u

    def node(self, ctor: str, args: tuple, orig: Optional[App] = None) -> App:
        """The canonical App of ctor over args: one lookup when the table holds
        every argument (a key only ever names held objects, so a hit implies
        it), a walk otherwise.  orig, an equal App, becomes it if it is new,
        so a caller's object is kept where it can be."""
        key = (ctor, *map(id, args))
        u = self._nodes.get(key)
        if u is None:
            if not self._held.issuperset(map(id, args)):
                return self.from_term(App(ctor, args))
            if orig is None or not all(map(operator.is_, args, orig.args)):
                orig = App(ctor, args)
            self._admit(orig)
            u = self._add(key, orig)
        return u

    def _leaf(self, t: Term) -> Term:
        """The canonical constant (or variable) equal to t; t becomes it if
        new.  t is judged first: a bad value may not even be hashable."""
        self._admit(t)
        key = (Var, t.name, t.sort) if type(t) is Var else (Prim, t.ptype, type(t.value), t.value)
        u = self._nodes.get(key)
        return self._add(key, t) if u is None else u

    def from_term(self, t: Term) -> Term:
        """The canonical object equal to t, by one post-order walk over the
        nodes of t that are not canonical yet, each distinct object once."""
        held = self._held
        done: list[Term] = []  # canonical subterms, left to right
        stack: list = [t]  # terms still to walk; a node to rebuild sits under the marker
        walked: dict[int, Term] = {}  # id of a node of t rebuilt here -> its canonical object
        rebuild = _REBUILD
        while stack:
            u = stack.pop()
            if u is rebuild:
                u = stack.pop()
                k = len(done) - len(u.args)
                args = tuple(done[k:])
                del done[k:]
                walked[id(u)] = v = self.node(u.ctor, args, u)
                done.append(v)
            elif id(u) in held:  # canonical already; the table keeps it alive
                done.append(u)
            elif id(u) in walked:  # an equal object was canonical first; t keeps u alive
                done.append(walked[id(u)])
            elif type(u) is App:
                stack += (u, rebuild)
                stack += reversed(u.args)
            else:
                done.append(self._leaf(u))
        return done[0]

    def canonical(self, t: Term) -> Term:
        """The one shared Term object structurally equal to t: from_term under
        the name the builder uses; both names are public."""
        return self.from_term(t)

    def sharing_stats(self) -> tuple[int, int]:
        """(node count, edge count) for everything interned so far."""
        return len(self._nodes), sum(len(t.args) for t in self._nodes.values() if isinstance(t, App))
