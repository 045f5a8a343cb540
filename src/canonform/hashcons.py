"""Maximal sharing: interning terms so equal subterms are one node.

A table is one dict from Term to NodeId plus the list of canonical Terms
indexed by id.  An App caches its structural hash and a stored App's
children are the canonical objects, so looking up a node whose children are
already interned costs O(arity): the hash is built from the children's
cached hashes, and equality stops at the children by identity.

Ids are table-scoped and carry no meaning across tables or runs; comparisons
elsewhere stay structural.  Within one table, id equality coincides with
structural equality, and the canonical Term object for an id is shared, so
`is` checks short-circuit structural comparison for free.
"""

from __future__ import annotations

from typing import Sequence, Union

from .errors import CanonError, SignatureError, SortError
from .terms import App, Prim, Signature, Term, Var, cache_hashes

NodeId = int


class HashConsTable:
    def __init__(self, sig: Signature):
        self.sig = sig
        self._ids: dict[Term, NodeId] = {}
        self._terms: list[Term] = []

    def __len__(self) -> int:
        return len(self._terms)

    def _add(self, term: Term) -> NodeId:
        node = self._ids.setdefault(term, len(self._terms))
        if node == len(self._terms):
            self._terms.append(term)
        return node

    def _check(self, ctor: str, args: tuple[Term, ...]) -> None:
        """Arity and argument sorts of ctor applied to interned terms."""
        sorts = self.sig.arg_sorts.get(ctor)
        if sorts is None:
            self.sig.declaration(ctor)  # raises SignatureError: unknown constructor
        if len(args) != len(sorts):
            raise SignatureError(f"{ctor!r} expects {len(sorts)} children, got {len(args)}")
        rdt = self.sig.rdt_sort
        for a, s in zip(args, sorts):
            if (a.ptype if type(a) is Prim else rdt) != s:
                raise SortError(f"ill-sorted child for {ctor!r}: {a}")

    def intern(self, ctor: str, children: Sequence[NodeId]) -> NodeId:
        """Node for ctor applied to already-interned children."""
        args = tuple(self.to_term(c) for c in children)
        self._check(ctor, args)
        return self._add(App(ctor, args))

    def intern_prim(self, ptype: str, value: Union[int, str]) -> NodeId:
        if ptype not in self.sig.primitives:
            raise SignatureError(f"unknown primitive type {ptype!r}")
        if not isinstance(value, self.sig.primitives[ptype]) or isinstance(value, bool):
            raise SortError(f"bad {ptype} constant {value!r}")
        return self._add(Prim(ptype, value))

    def to_term(self, node: NodeId) -> Term:
        if not isinstance(node, int) or not 0 <= node < len(self._terms):
            raise CanonError(f"unknown node id {node!r}")
        return self._terms[node]

    def _intern_leaf(self, t: Term) -> NodeId:
        """A Prim or Var that is not in the table yet."""
        if isinstance(t, Var):
            raise SortError("cannot intern terms containing variables")
        return self.intern_prim(t.ptype, t.value)

    def from_term(self, t: Term) -> NodeId:
        cache_hashes(t)  # a merge hands over a rebuilt comb prefix: a chain of new nodes
        ids, terms = self._ids, self._terms
        hit = ids.get(t)
        if hit is not None:
            return hit  # Prim equality tells True from 1, so a hit is a valid constant
        if not isinstance(t, App):
            return self._intern_leaf(t)
        # post-order over the new nodes: (node, canonical children so far)
        stack = [(t, [])]
        while stack:
            u, args = stack[-1]
            if len(args) < len(u.args):
                a = u.args[len(args)]
                hit = ids.get(a)
                if hit is None:
                    if isinstance(a, App):
                        stack.append((a, []))
                        continue
                    hit = self._intern_leaf(a)
                args.append(terms[hit])
                continue
            stack.pop()
            args = tuple(args)
            self._check(u.ctor, args)
            if any(a is not b for a, b in zip(args, u.args)):
                u = App(u.ctor, args)  # keep the caller's object when it is canonical
            hit = self._add(u)
            if stack:
                stack[-1][1].append(terms[hit])
        return hit

    def canonical(self, t: Term) -> Term:
        """The one shared Term object structurally equal to t."""
        return self._terms[self.from_term(t)]

    def sharing_stats(self) -> tuple[int, int]:
        """(node count, edge count) for everything interned so far."""
        return len(self._terms), sum(len(t.args) for t in self._terms if isinstance(t, App))
