"""Maximal sharing: interning terms so equal subterms are one node.

A table keys a node by its constructor and the identities of its canonical
arguments, and a leaf by its fields (a constant's key includes the Python
type of its value, so True never meets 1).  Each key maps to the one
canonical object, and a second dict maps that object's identity to its
NodeId, the index of the list of canonical objects.  The table keeps every
canonical object alive, so no identity in a key is ever reused, and a lookup
never hashes a term or compares two: interning a node whose arguments are
canonical costs O(arity) however large the term.  An object becomes
canonical only if it is well sorted: a node by Signature.check, the rule
construct and normalize apply too, a constant by its type.  The same keys
memoize construction: a call over canonical arguments is one lookup.
Only construct interns values (normalize adds its input's constants), so a
table holds the canonical subterms of inputs and construction results.

Ids are table-scoped and carry no meaning across tables or runs; comparisons
elsewhere stay structural.  Within one table, id equality coincides with
structural equality, and the canonical Term object for an id is shared, so
`is` checks short-circuit structural comparison for free.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence, Union

from .errors import CanonError, SignatureError, SortError
from .terms import App, Prim, Signature, Term, Var

NodeId = int


class HashConsTable:
    def __init__(self, sig: Signature):
        self.sig = sig
        self._nodes: dict[tuple, Term] = {}  # key -> canonical object
        self._ids: dict[int, NodeId] = {}  # id of a canonical object -> its NodeId
        self._terms: list[Term] = []
        self._memos: dict[int, tuple] = {}  # id of an owner -> (owner, its memo)

    def __len__(self) -> int:
        return len(self._terms)

    def _admit(self, u: Term) -> None:
        """Called on each object about to become canonical: rejects it unless
        it is a well-sorted node over canonical arguments or a valid constant."""
        sig = self.sig
        if type(u) is App:
            sig.check(u.ctor, u.args)
        elif type(u) is Var:
            raise SortError("cannot intern terms containing variables")
        elif u.ptype not in sig.primitives:
            raise SignatureError(f"unknown primitive type {u.ptype!r}")
        elif not isinstance(u.value, sig.primitives[u.ptype]) or isinstance(u.value, bool):
            raise SortError(f"bad {u.ptype} constant {u.value!r}")

    def _add(self, key: tuple, u: Term) -> Term:
        self._admit(u)
        self._nodes[key] = u
        self._ids[id(u)] = len(self._terms)
        self._terms.append(u)
        return u

    def _node(self, ctor: str, args: tuple, orig: Optional[App] = None) -> App:
        """The canonical App of ctor over canonical args.  orig, an equal App,
        becomes it if it is new, so a caller's object is kept where it can be."""
        key = (ctor, *map(id, args))
        u = self._nodes.get(key)
        if u is None:
            if orig is None or not all(map(operator.is_, args, orig.args)):
                orig = App(ctor, args)
            u = self._add(key, orig)
        return u

    def _leaf(self, t: Term) -> Term:
        """The canonical constant (or variable) equal to t; t becomes it if new."""
        key = (Var, t.name, t.sort) if type(t) is Var else (Prim, t.ptype, type(t.value), t.value)
        u = self._nodes.get(key)
        return self._add(key, t) if u is None else u

    def intern(self, ctor: str, children: Sequence[NodeId]) -> NodeId:
        """Node for ctor applied to already-interned children."""
        return self._ids[id(self._node(ctor, tuple(self.to_term(c) for c in children)))]

    def intern_prim(self, ptype: str, value: Union[int, str]) -> NodeId:
        t = Prim(ptype, value)
        HashConsTable._admit(self, t)  # a bad value is rejected before it is hashed into a key
        return self._ids[id(self._leaf(t))]

    def to_term(self, node: NodeId) -> Term:
        if not isinstance(node, int) or not 0 <= node < len(self._terms):
            raise CanonError(f"unknown node id {node!r}")
        return self._terms[node]

    def from_term(self, t: Term) -> NodeId:
        """One post-order walk over the nodes of t that are not canonical yet."""
        ids = self._ids
        hit = ids.get(id(t))
        if hit is not None:
            return hit
        done: list[Term] = []  # canonical subterms, left to right
        stack: list = [t]  # terms still to walk, and (node, arity) to rebuild
        while stack:
            u = stack.pop()
            if type(u) is tuple:
                u, n = u
                k = len(done) - n
                args = tuple(done[k:])
                del done[k:]
                done.append(self._node(u.ctor, args, u))
            elif id(u) in ids:  # canonical already; the table keeps it alive
                done.append(u)
            elif type(u) is App:
                stack.append((u, len(u.args)))
                stack += reversed(u.args)
            else:
                done.append(self._leaf(u))
        return ids[id(done[0])]

    def memo(self, owner: object) -> dict:
        """owner's memo, kept as long as the table: builder.construct files a
        family's results here under node keys over canonical arguments only,
        and the slot holds owner, so no id in a key or slot is ever reused."""
        slot = self._memos.get(id(owner)) or self._memos.setdefault(id(owner), (owner, {}))
        return slot[1]

    def canonical(self, t: Term) -> Term:
        """The one shared Term object structurally equal to t."""
        return self._terms[self.from_term(t)]

    def sharing_stats(self) -> tuple[int, int]:
        """(node count, edge count) for everything interned so far."""
        return len(self._terms), sum(len(t.args) for t in self._terms if isinstance(t, App))
