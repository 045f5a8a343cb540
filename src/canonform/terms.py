"""Sorted first-order terms: signatures, structural order, positions, enumeration.

Terms are immutable values; everything in this module is pure.  A signature
declares the constructors of exactly one data sort plus the two primitive
domains (machine integers and strings), and fixes the declaration order that
the total term order is built on.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import PositionError, SignatureError, SortError

PRIMITIVES = {"int": int, "string": str}

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class Var:
    """Pattern variable.  Only rules and clause patterns contain these."""

    name: str
    sort: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class Prim:
    """Primitive constant of one of the built-in domains.

    Equality also compares the value's Python type: True == 1 with equal
    hashes, so without it a lookup for a bool constant (never a valid term)
    would find its int twin in any term set or hash-consing table.
    """

    ptype: str
    value: Union[int, str]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Prim):
            return NotImplemented
        return (
            self.ptype == other.ptype
            and self.value == other.value
            and type(self.value) is type(other.value)
        )

    def __hash__(self) -> int:
        return hash((self.ptype, self.value))

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True, eq=False)
class App:
    """Constructor application; nullary constructors have an empty args tuple.

    The structural hash is computed on first use and cached on the instance.
    The arguments' hashes are cached too, so hashing a node costs O(arity)
    however large the term; that keeps dict and set lookups (hash-consing,
    the oracles' term sets) from rewalking whole subterms.  Equality walks
    both terms in one loop: identical subterms are equal at once, and two
    nodes whose hashes are both cached and differ are unequal at once.
    """

    ctor: str
    args: tuple["Term", ...] = ()

    _hash = None  # class default, deliberately not a dataclass field

    def __eq__(self, other) -> bool:
        if type(other) is not App:
            return NotImplemented
        t, u = self, other
        pending = []  # pairs of App arguments still to compare
        while True:
            h, k = t._hash, u._hash
            if h is not None and k is not None and h != k:
                return False
            targs, uargs = t.args, u.args
            if t.ctor != u.ctor or len(targs) != len(uargs):
                return False
            if not all(map(operator.is_, targs, uargs)):
                for a, b in zip(targs, uargs):
                    if a is b:
                        continue
                    if type(a) is App and type(b) is App:
                        pending.append((a, b))
                    elif a != b:  # a constant or a variable on one side: its own equality
                        return False
            if not pending:
                return True
            t, u = pending.pop()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ctor, self.args))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # string hashes vary between interpreters: never carry the cache along
        return App, (self.ctor, self.args)

    def __str__(self) -> str:
        return format_term(self)


Term = Union[Var, Prim, App]
Position = tuple[int, ...]


def cache_hashes(t: Term) -> None:
    """Cache the hash of t and of every App below it whose hash is not cached
    yet, deepest first, so hashing a long chain of new nodes (a rebuilt comb)
    afterwards costs no recursion."""
    stack = [t] if type(t) is App and t._hash is None else []
    while stack:
        u = stack[-1]
        new = [a for a in u.args if type(a) is App and a._hash is None]
        if new:
            stack.extend(new)
        else:
            stack.pop()  # every child's hash is cached now
            object.__setattr__(u, "_hash", hash((u.ctor, u.args)))


@dataclass(frozen=True)
class ConstructorDecl:
    name: str
    arg_sorts: tuple[str, ...]
    result_sort: str

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


class Signature:
    """Constructor declarations for one data sort.

    ``constructors`` is a sequence of ``(name, arg_sorts)`` pairs; every
    constructor produces the distinguished sort.  Argument sorts may be the
    data sort itself or a primitive type name.  ``arg_sorts`` maps each
    constructor's name to its argument sorts.
    """

    def __init__(self, rdt_sort: str, constructors: Sequence[tuple[str, Sequence[str]]]):
        if not rdt_sort:
            raise SignatureError("empty sort name")
        self.rdt_sort = rdt_sort
        self.primitives = dict(PRIMITIVES)
        if rdt_sort in self.primitives:
            raise SignatureError(f"sort name {rdt_sort!r} collides with a primitive type")
        decls = []
        for name, arg_sorts in constructors:
            decls.append(ConstructorDecl(name, tuple(arg_sorts), rdt_sort))
        self.constructors: tuple[ConstructorDecl, ...] = tuple(decls)
        self._decl: dict[str, ConstructorDecl] = {}
        self._index: dict[str, int] = {}
        self.arg_sorts: dict[str, tuple[str, ...]] = {}
        for i, d in enumerate(self.constructors):
            if d.name in self._decl:
                raise SignatureError(f"duplicate constructor {d.name!r}")
            for s in d.arg_sorts:
                if s != rdt_sort and s not in self.primitives:
                    raise SignatureError(f"unknown sort {s!r} in constructor {d.name!r}")
            self._decl[d.name] = d
            self._index[d.name] = i
            self.arg_sorts[d.name] = d.arg_sorts

    def __contains__(self, name: str) -> bool:
        return name in self._decl

    def declaration(self, name: str) -> ConstructorDecl:
        try:
            return self._decl[name]
        except KeyError:
            raise SignatureError(f"unknown constructor {name!r}") from None

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SignatureError(f"unknown constructor {name!r}") from None

    def __repr__(self) -> str:
        names = ", ".join(d.name for d in self.constructors)
        return f"Signature({self.rdt_sort!r}: {names})"


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


def compare(sig: Signature, t: Term, u: Term) -> int:
    """Total structural order on ground terms; EQ only on structural equality.

    Primitive constants sort before applications; primitives by type name then
    value, applications by declaration index then arguments left to right.

    One loop walks both terms in preorder.  It descends into the first
    argument pair at once and keeps the later pairs on a stack, so a unary
    chain such as S(S(...(L))) takes no stack entries and no depth of either
    term reaches Python's recursion limit.  Each pair is judged in a fixed
    order: identical objects are equal, a variable raises SortError, a
    constant sorts before an application, constants go by type name then
    value, and applications by declaration index (an unknown constructor
    raises SignatureError) and then by their arguments.
    """
    index = sig._index
    pending = []  # argument pairs still to compare, the next one last
    while True:
        while t is not u:
            if type(t) is not App or type(u) is not App:
                if isinstance(t, Var) or isinstance(u, Var):
                    raise SortError("cannot order terms containing variables")
                tprim = isinstance(t, Prim)
                if tprim != isinstance(u, Prim):
                    return LT if tprim else GT
                if tprim:
                    if t.ptype != u.ptype:
                        return _cmp(t.ptype, u.ptype)
                    c = _cmp(t.value, u.value)
                    if c != EQ:
                        return c
                    break
            try:
                i, j = index[t.ctor], index[u.ctor]
            except KeyError:
                i, j = sig.index(t.ctor), sig.index(u.ctor)  # raises SignatureError
            if i != j:
                return LT if i < j else GT
            targs, uargs = t.args, u.args
            n = len(targs)
            if n != len(uargs):
                n = min(n, len(uargs))  # ill-sorted: compare the common prefix
            if n == 1:
                t, u = targs[0], uargs[0]
            elif n:
                for k in range(n - 1, 0, -1):
                    pending.append((targs[k], uargs[k]))
                t, u = targs[0], uargs[0]
            else:
                break
        if not pending:
            return EQ
        t, u = pending.pop()


def preorder(t: Term) -> Iterator[Term]:
    """The subterms of t in preorder, the root first and then each argument
    left to right.  One explicit stack, so no depth of t reaches Python's
    recursion limit."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack += reversed(u.args)


def fold(t: Term, leaf: Callable, node: Callable, args: Optional[Callable] = None):
    """Left-to-right postorder fold of t: leaf(u) on each variable and
    constant, node(u, values) on each App u, values being those of its
    children in order.  The children are u.args, or args(u) if args is
    given.  One loop with explicit stacks, so no depth of t reaches Python's
    recursion limit."""
    done: list = []  # values of the finished children, leftmost first
    stack: list = [t]  # terms still to fold, and (node, child count) to finish
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            u, n = u
            k = len(done) - n
            values = tuple(done[k:])
            del done[k:]
            done.append(node(u, values))
        elif isinstance(u, App):
            children = u.args if args is None else args(u)
            stack.append((u, len(children)))
            stack += reversed(children)
        else:
            done.append(leaf(u))
    return done[0]


def root_sort(sig: Signature, t: Term, pattern: bool = False) -> Optional[str]:
    """Sort of t judged at its root alone, an App's arguments unchecked; None
    if the root is ill-sorted (variables allowed in patterns)."""
    if isinstance(t, Var):
        if not pattern:
            return None
        ok = t.sort == sig.rdt_sort or t.sort in sig.primitives
        return t.sort if ok else None
    if isinstance(t, Prim):
        if t.ptype in sig.primitives and isinstance(t.value, sig.primitives[t.ptype]):
            # bool is an int subtype but not a term constant
            if not isinstance(t.value, bool):
                return t.ptype
        return None
    if t.ctor not in sig or len(t.args) != sig.declaration(t.ctor).arity:
        return None
    return sig.rdt_sort


def sort_of(sig: Signature, t: Term, pattern: bool = False) -> Optional[str]:
    """Sort of t, or None if t is not well-sorted (variables allowed in patterns)."""
    result = root_sort(sig, t, pattern)
    if result is None:
        return None
    for u in preorder(t):  # the walk reaches a node after its root is checked
        if isinstance(u, App):
            for a, s in zip(u.args, sig.declaration(u.ctor).arg_sorts):
                if root_sort(sig, a, pattern) != s:
                    return None
    return result


def well_sorted(sig: Signature, t: Term, pattern: bool = False) -> bool:
    return sort_of(sig, t, pattern) is not None


def is_ground(t: Term) -> bool:
    return not any(isinstance(u, Var) for u in preorder(t))


def size(t: Term) -> int:
    """Node count; primitive constants and variables count one."""
    return sum(1 for _ in preorder(t))


def positions(t: Term) -> Iterator[Position]:
    """All positions of t in preorder, the root being the empty tuple."""
    stack = [((), t)]  # (position, subterm), the next one last
    while stack:
        p, u = stack.pop()
        yield p
        if isinstance(u, App):
            i = len(u.args)
            while i:  # the first argument goes on last, to come off first
                stack.append((p + (i,), u.args[i - 1]))
                i -= 1


def map_vars(t: Term, f: Callable[[Var], Term]) -> Term:
    """t with every variable v replaced by f(v).  f is called on the
    variables in preorder (left to right); nodes with no variable below them
    are kept, not rebuilt."""

    def node(u: App, args: tuple) -> Term:
        return u if all(map(operator.is_, args, u.args)) else App(u.ctor, args)

    return fold(t, lambda u: f(u) if isinstance(u, Var) else u, node)


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise PositionError("position out of range")
        t = t.args[i - 1]
    return t


def _splice(t: Term, pos: Position, u: Term) -> Term:
    # t with u at pos: walk down to collect the ancestors, then rebuild them
    ancestors = []
    for i in pos:
        ancestors.append((t, i))
        t = t.args[i - 1]
    for node, i in reversed(ancestors):
        args = node.args
        u = App(node.ctor, (*args[: i - 1], u, *args[i:]))
    return u


def replace_at(sig: Signature, t: Term, pos: Position, u: Term) -> Term:
    """Replace the subterm at pos by u; the replacement must preserve the sort."""
    old = subterm_at(t, pos)
    s_old = sort_of(sig, old, pattern=True)
    s_new = sort_of(sig, u, pattern=True)
    if s_old is None or s_new is None or s_old != s_new:
        raise SortError("ill-sorted replacement")
    return _splice(t, pos, u)


def _compositions(total: int, n: int) -> Iterator[tuple[int, ...]]:
    # all ways to write total as n parts >= 1, lexicographically
    if n == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - n + 2):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def require_enumerable(sig: Signature, sort: str, max_size: int) -> None:
    """Raise SignatureError unless the terms of the sort up to max_size nodes
    form a finite set that enumerate_ground can list."""
    if max_size < 1:
        raise SignatureError("max_size must be at least 1")
    if sort in sig.primitives:
        raise SignatureError(f"cannot enumerate primitive domain {sort!r}")
    if sort != sig.rdt_sort:
        raise SignatureError(f"unknown sort {sort!r}")
    for d in sig.constructors:
        for s in d.arg_sorts:
            if s in sig.primitives:
                raise SignatureError(
                    f"constructor {d.name!r} takes a {s!r} argument; "
                    "primitive domains are unbounded"
                )


def tuples_of_size(
    sig: Signature, n: int, by_size: dict[int, list]
) -> Iterator[tuple[str, tuple]]:
    """Every (constructor, arguments) pair of total size n whose i-th argument
    is drawn from by_size[p_i]: declaration order, then argument-size
    compositions lexicographically, then argument order.  by_size must hold
    every size below n; each entry counts as p_i nodes, whatever it is."""
    for d in sig.constructors:
        if d.arity == 0:
            if n == 1:
                yield d.name, ()
            continue
        if n < d.arity + 1:
            continue
        for parts in _compositions(n - 1, d.arity):
            for args in itertools.product(*(by_size[p] for p in parts)):
                yield d.name, args


def enumerate_ground(sig: Signature, sort: str, max_size: int) -> list[Term]:
    """Every ground term of the sort with at most max_size nodes, each exactly
    once, smallest sizes first, deterministic within a size (the order of
    tuples_of_size).

    Signatures with primitive-typed constructor arguments are rejected: those
    domains are unbounded, so the requested set would be infinite.
    """
    require_enumerable(sig, sort, max_size)
    by_size: dict[int, list[Term]] = {}
    for n in range(1, max_size + 1):
        by_size[n] = [App(c, args) for c, args in tuples_of_size(sig, n, by_size)]
    out: list[Term] = []
    for n in range(1, max_size + 1):
        out.extend(by_size[n])
    return out


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def format_term(t: Term) -> str:
    """Concrete syntax: Name, Name(t1, ..., tn), integer and "string" literals."""
    out: list[str] = []
    stack: list = [t]  # terms still to print and the punctuation between them
    while stack:
        u = stack.pop()
        if type(u) is str:
            out.append(u)
        elif isinstance(u, Var):
            out.append(u.name)
        elif isinstance(u, Prim):
            out.append(str(u.value) if u.ptype == "int" else f'"{_escape(u.value)}"')
        elif not u.args:
            out.append(u.ctor)
        else:
            out.append(u.ctor + "(")
            stack.append(")")
            for a in u.args[:0:-1]:
                stack += (a, ", ")
            stack.append(u.args[0])
    return "".join(out)
