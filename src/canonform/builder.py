"""Compiling declarative definitions into canonical-form construction functions.

Every constructor gets a construction function f_C that, given argument
values already in canonical form, returns the canonical representative of
C(args).  Free constructors just rebuild.  Rule-defined constructors try
their compiled clauses in order and fall back to rebuilding.  AC
constructors run the generic scheme:

    f_C(E, x)       = x                      when a neutral element exists
    f_C(x, E)       = x
    f_C(x, y)       = merge(x, y)            when x and y are both C-combs
    f_C(C(x,y), z)  = f_C(z, C(x,y))         commutativity (right orientation)
    f_C(x, y)       = insert_inv(f_I(x), y)  when an inverse exists
    f_C(x, y)       = insert(x, y)           otherwise

merge walks the two sorted spines in one pass and builds the result comb
once, reusing the tail of whichever comb outlasts the other; equal leaves
collapse, cancel to the absorber, or (in a group) x cancels I(x), as the
variant says.  So a balanced sum of n leaves costs O(n log n) leaf steps,
not the O(n^2) of re-inserting one leaf at a time.  A comb meeting a lone
leaf trades places with it, so the leaf goes in by a single insert; the
reassociation law f_C(C(x,y), z) = f_C(x, f_C(y, z)) holds of the result
all the same, it is just not the route taken.  insert places a non-C leaf
at its ordered position in a comb, collapsing equal neighbours under
idempotence or cancelling them to the absorber under nilpotence.  delete
removes one occurrence of a leaf, exploiting sortedness for early failure;
insert_inv tries delete first and only then inserts the re-inverted leaf.
The inverse function f_I pushes inversion to the leaves, reversing the
comb.  merge, insert, leaf removal and f_I walk a spine in a loop, so they
cap no comb's length at Python's recursion limit.

The scheme above is written for right combs, whose exposed leaf is the first
argument.  Both orientations run the same code through one view,
Type2Entry.sign: it names the argument that holds the exposed leaf, splits
C's arguments into (exposed leaf, rest) and joins such a pair back in spine
order, and turns compare around so that a left comb keeps its largest leaf
exposed.  acnf.comb_sign derives it from the orientation, for this module
and the AC-normal form checks alike.

The AC functions, from _construct_ac to inverse_cf, are the only copy of
the scheme, and _construct_entry, _match and _eval_rhs are the only copy of
the dispatch on entry kinds and of the clause matcher: emit_code prints
both blocks verbatim into generated modules (the AC block only when the
family has an AC constructor), and there they run on tuples.

Leaf removal (shared by delete and the nilpotent collapse) distinguishes
"the removed leaf was the whole value" from "a smaller comb remains": a
removal deep inside a comb must not wrap the unit or absorber into the
spine as if it were an ordinary leaf, because the result would contain a
redex (Plus(One, Zero)) or an out-of-place absorber (Xor(Bot, Bot)).
Instead the collapse result re-enters the construction function, which
re-places the absorber correctly.

Normalizing a whole term is the bottom-up fold of the construction
functions.  It runs over explicit stacks and calls them in the order a
recursive fold would, so no nesting depth of the input reaches Python's
recursion limit.  A free node whose arguments are already normal is its own
value, so without a hash-consing table the fold keeps it as it is.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from .acnf import comb_sign
from .errors import SignatureError, SortError, TheoryError
from .hashcons import HashConsTable
from .terms import (
    App,
    Prim,
    Signature,
    Term,
    Var,
    compare,
    map_vars,
    root_sort,
    sort_of,
)
from .theory import (
    Classification,
    IDEM_VARIANTS,
    NIL_VARIANTS,
    RewriteRule,
    TheorySpec,
    Type2Theory,
    classify,
    validate_rule,
)


@dataclass(frozen=True)
class CompiledClause:
    """One linear clause: argument patterns, equality guard, call-expanded rhs."""

    patterns: tuple[Term, ...]
    guard: tuple[tuple[str, str], ...]  # pairs of pattern variables that must be equal
    rhs: Term


@dataclass(frozen=True)
class FreeEntry:
    pass


@dataclass(frozen=True)
class Type1Entry:
    clauses: tuple[CompiledClause, ...]


@dataclass(frozen=True)
class Type2Entry:
    """An AC constructor's theory; the derived attributes are computed on
    first access and then read as plain instance attributes, since insert
    consults them on every step."""

    theory: Type2Theory

    @cached_property
    def orientation(self) -> str:
        return self.theory.orientation

    @cached_property
    def sign(self) -> int:
        """The comb view (acnf.comb_sign); as a factor on compare it makes
        c <= 0 mean "x goes on the exposed side of y" in both orientations."""
        return comb_sign(self.orientation)

    @cached_property
    def inverse(self) -> Optional[str]:
        return self.theory.inverse

    @cached_property
    def unit(self) -> Optional[Term]:
        return App(self.theory.unit) if self.theory.unit is not None else None

    @cached_property
    def absorber(self) -> Optional[Term]:
        return App(self.theory.absorber) if self.theory.absorber is not None else None

    @cached_property
    def idem(self) -> bool:
        return self.theory.variant in IDEM_VARIANTS

    @cached_property
    def nil(self) -> bool:
        return self.theory.variant in NIL_VARIANTS


@dataclass(frozen=True)
class InverseEntry:
    carrier: str  # the AC constructor whose theory owns this inverse


Entry = Union[FreeEntry, Type1Entry, Type2Entry, InverseEntry]


@dataclass
class CompiledFamily:
    sig: Signature
    entries: dict[str, Entry]
    classification: Classification

    def orientations(self) -> dict[str, str]:
        return self.classification.orientations()


def linearize(
    pattern: Term, first: Optional[dict[str, str]] = None
) -> tuple[Term, tuple[tuple[str, str], ...]]:
    """Rename variables apart (v1, v2, ... in preorder); repeated source
    variables become equality guards against their first occurrence.

    A dict passed as first receives each source variable's first fresh name.
    """
    first = {} if first is None else first
    guard: list[tuple[str, str]] = []
    names = (f"v{i}" for i in itertools.count(1))

    def fresh(v: Var) -> Var:
        name = next(names)
        if v.name in first:
            guard.append((first[v.name], name))
        else:
            first[v.name] = name
        return Var(name, v.sort)

    return map_vars(pattern, fresh), tuple(guard)


def compile_rules(
    rules: Sequence[RewriteRule], sig: Signature
) -> dict[str, tuple[CompiledClause, ...]]:
    """Group rules by head constructor, in source order, linearized.

    The implicit default clause (rebuild the constructor) is appended at
    match time, not stored.
    """
    out: dict[str, list[CompiledClause]] = {}
    for rule in rules:
        validate_rule(sig, rule)
        first: dict[str, str] = {}
        lin, guard = linearize(rule.lhs, first)
        rhs = map_vars(rule.rhs, lambda v: Var(first[v.name], v.sort))
        clause = CompiledClause(lin.args, guard, rhs)
        out.setdefault(rule.lhs.ctor, []).append(clause)
    return {c: tuple(cls) for c, cls in out.items()}


def compile_family(sig: Signature, spec: TheorySpec) -> CompiledFamily:
    """Classify the declared theory and build one construction-function entry per constructor."""
    cl = classify(spec, sig)
    clauses = compile_rules(spec.rules, sig)
    entries: dict[str, Entry] = {}
    for d in sig.constructors:
        name = d.name
        if name in cl.carrier:
            entries[name] = Type2Entry(cl.carrier[name])
        elif name in cl.inverse_of:
            entries[name] = InverseEntry(cl.inverse_of[name].ctor)
        elif name in clauses:
            entries[name] = Type1Entry(clauses[name])
        else:
            entries[name] = FreeEntry()
    return CompiledFamily(sig, entries, cl)


def _value_sort(sig: Signature, t: Term) -> str:
    if isinstance(t, Prim):
        return sort_of(sig, t)
    if isinstance(t, App):
        return sig.declaration(t.ctor).result_sort
    raise SortError("construction functions take ground values")


def _is_c(t: Term, ctor: str) -> bool:
    return isinstance(t, App) and t.ctor == ctor


def _ctor(t: Term) -> Optional[str]:
    """t's constructor; None for a constant or a variable."""
    return t.ctor if type(t) is App else None


def _split(t: App, s: int) -> tuple[Term, ...]:
    """t's arguments in comb-view order (see Type2Entry.sign)."""
    return t.args[::s]


_make = App  # the shared blocks build values through this name


def construct(
    ctor: str,
    args: Sequence[Term],
    fam: CompiledFamily,
    table: Optional[HashConsTable] = None,
) -> Term:
    """Construction function f_ctor: canonical arguments in, canonical value out."""
    sig = fam.sig
    decl = sig.declaration(ctor)
    args = tuple(args)
    if len(args) != decl.arity:
        raise SignatureError(
            f"{ctor!r} expects {decl.arity} arguments, got {len(args)}"
        )
    for a, s in zip(args, decl.arg_sorts):
        if _value_sort(sig, a) != s:
            raise SortError(f"ill-sorted argument for {ctor!r}: {a}")
    result = _construct_entry(ctor, fam.entries[ctor], args, fam, table)
    if table is not None:
        result = table.canonical(result)
    return result


# emit_code prints the text between each pair of markers below into generated
# modules, which bind the names it uses to tuple-world versions.  So the
# blocks have no annotations and no imports (the word must not appear inside
# them), touch terms only through _is_c, _ctor, _split, _make, compare and
# type(t) is Var, read entries only through their attributes and their
# kind, type(entry), and mark pending work on a stack with a list, since
# tuples are terms there.
# --- begin shared engine block ---
def _construct_entry(ctor, entry, args, fam, table):
    """f_ctor on arguments of the right number and sorts, by entry kind."""
    kind = type(entry)
    if kind is Type2Entry:
        return _construct_ac(ctor, entry, args, fam, table)
    if kind is InverseEntry:
        return inverse_cf(ctor, args[0], fam, table)
    if kind is Type1Entry:
        sig = fam.sig
        for clause in entry.clauses:
            binding = {}
            if all(_match(p, v, binding) for p, v in zip(clause.patterns, args)) and all(
                compare(sig, binding[a], binding[b]) == 0 for a, b in clause.guard
            ):
                return _eval_rhs(clause.rhs, binding, fam, table)
    return _make(ctor, args)  # a free constructor, or the implicit default clause


def _match(pattern, value, binding):
    pairs = [(pattern, value)]  # pattern and value pairs still to match
    while pairs:
        p, v = pairs.pop()
        if type(p) is Var:
            binding[p.name] = v  # linear patterns never rebind
        elif _ctor(p) is not None and _ctor(p) == _ctor(v):
            pairs += zip(_split(p, 1), _split(v, 1))
        elif p != v:  # a constant, or two constructors that differ
            return False
    return True


def _eval_rhs(rhs, binding, fam, table):
    """A clause's right-hand side: each constructor in it is a construction
    call, made in the order of a recursive left-to-right fold."""
    done = []  # values of the finished subterms, leftmost first
    todo = [rhs]  # subterms still to evaluate, and [ctor, arity] calls to make
    while todo:
        u = todo.pop()
        if type(u) is list:
            c, n = u
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(construct(c, args, fam, table))
        elif type(u) is Var:
            done.append(binding[u.name])
        elif _ctor(u) is None:
            done.append(table.canonical(u) if table is not None else u)
        else:
            args = _split(u, 1)
            todo.append([_ctor(u), len(args)])
            todo += args[::-1]
    return done[0]
# --- end shared engine block ---


# --- begin shared AC block ---
def _construct_ac(ctor, entry, args, fam, table):
    a, b = args
    unit = entry.unit
    if unit is not None:
        if a == unit:
            return b
        if b == unit:
            return a
    s = entry.sign
    x, rest = args[::s]
    if _is_c(x, ctor):
        if _is_c(rest, ctor):
            return _merge(ctor, entry, x, rest, fam, table)
        # f_C(C(x, y), z) = f_C(z, C(x, y)): a comb meets a leaf by one insertion
        x, rest = rest, x
    if entry.inverse is not None:
        return insert_inv(
            ctor, inverse_cf(entry.inverse, x, fam, table), rest, fam, table
        )
    return insert(ctor, x, rest, fam, table)


def _merge(ctor, entry, u, v, fam, table):
    """f_C of two combs u and v: one pass down both sorted spines.

    The leaves taken before either spine runs out are rebuilt in order;
    what is left of the other comb is a sorted comb already and becomes the
    innermost part of the result as it is, so a small comb meeting a large
    one costs about what inserting its leaves would.  Equal leaves collapse
    to one under idempotence and cancel under nilpotence, and the absorber
    of the cancelled pairs re-enters through the construction function.  In
    a group, x cancels I(x) wherever the two sit, so the rest of the other
    comb is read as well and _cancel_inverses drops the pairs.
    """
    sig = fam.sig
    s = entry.sign
    collapse = entry.idem or entry.nil
    cancelled = False
    taken = []
    x, u = _split(u, s)  # exposed leaves and the rest, None after the last leaf
    y, v = _split(v, s)
    while True:
        c = s * compare(sig, x, y)
        if c > 0:
            x, u, y, v = y, v, x, u  # x is the leaf that goes first
        if c == 0 and collapse:
            if entry.idem:
                taken.append(x)
            else:
                cancelled = True
            if u is None or v is None:
                tail = v if u is None else u
                break
            y, v = _split(v, s) if _is_c(v, ctor) else (v, None)
        else:
            taken.append(x)
            if u is None:
                taken.append(y)
                tail = v
                break
        x, u = _split(u, s) if _is_c(u, ctor) else (u, None)
    if entry.inverse is not None:
        while _is_c(tail, ctor):
            leaf, tail = _split(tail, s)
            taken.append(leaf)
        if tail is not None:
            taken.append(tail)
        taken = _cancel_inverses(fam, entry, taken)
        if not taken:
            return entry.unit
        tail = None
    if tail is None:
        if not taken:
            return entry.absorber
        tail = taken.pop()
    while taken:
        tail = _make(ctor, (taken.pop(), tail)[::s])
    if cancelled:
        return construct(ctor, (entry.absorber, tail)[::s], fam, table)
    return tail


def _cancel_inverses(fam, entry, leaves):
    """Drop every pair x, I(x) from a group's sorted leaf list.

    The I-headed leaves form one run, ordered by their arguments, and the
    other leaves are ordered too, so one linear match of the run against
    the others finds the pairs.
    """
    sig = fam.sig
    s = entry.sign
    n = len(leaves)
    i = 0
    while i < n and not _is_c(leaves[i], entry.inverse):
        i += 1
    j = i
    while j < n and _is_c(leaves[j], entry.inverse):
        j += 1
    keep = [True] * n
    k = i
    for p in range(n):
        if i <= p < j:
            continue
        c = -1
        while k < j:
            c = s * compare(sig, _split(leaves[k], 1)[0], leaves[p])
            if c >= 0:
                break
            k += 1
        if c == 0:  # leaves[p] and leaves[k], its inverse, cancel
            keep[p] = keep[k] = False
            k += 1
    return [t for t, kept in zip(leaves, keep) if kept]


def insert(ctor, x, u, fam, table=None):
    """Place leaf x into value u, keeping leaves sorted; x is not C-headed.

    Nilpotence is handled up front: if x already occurs among u's leaves,
    the pair cancels to the absorber, and the absorber is re-inserted into
    the remaining comb through the construction function (the absorber is
    an ordinary leaf with its own ordered position, and may itself cancel
    against an absorber already present).  After that check the plain
    ordered insertion can never collide, so rebuilding the spine directly
    is safe.  The walk down the spine is a loop; the leaves that stay on
    the exposed side of x are then rebuilt around the part that takes x.
    """
    entry = fam.entries[ctor]
    sig = fam.sig
    s = entry.sign
    if entry.nil:
        outcome, rest = _remove_leaf(ctor, x, u, fam)
        if outcome == "empty":
            return entry.absorber
        if outcome == "rest":
            return construct(ctor, (entry.absorber, rest)[::s], fam, table)
    passed = []
    while True:
        y, r = _split(u, s) if _is_c(u, ctor) else (u, None)  # exposed leaf, rest
        c = s * compare(sig, x, y)
        if c <= 0:
            if c < 0 or not entry.idem:
                u = _make(ctor, (x, u)[::s])
            break
        if r is None:
            u = _make(ctor, (y, x)[::s])
            break
        passed.append(y)
        u = r
    while passed:
        u = _make(ctor, (passed.pop(), u)[::s])
    return u


def _remove_leaf(ctor, x, u, fam):
    """Remove one occurrence of leaf x from value u.

    Returns ("absent", None) when x does not occur, ("empty", None) when u
    was exactly the leaf x, and ("rest", v) when a smaller value remains.
    Sortedness gives the early exit: once the exposed leaf passes x, x
    cannot occur further in.  Removing one leaf of a sorted comb keeps the
    rest sorted, so v is canonical whenever u was.
    """
    sig = fam.sig
    if not _is_c(u, ctor):
        return ("empty", None) if compare(sig, x, u) == 0 else ("absent", None)
    s = fam.entries[ctor].sign
    passed = []
    while True:
        y, u = _split(u, s)
        c = s * compare(sig, x, y)
        if c < 0:
            return "absent", None
        if c == 0:
            break
        passed.append(y)
        if not _is_c(u, ctor):  # the innermost leaf
            if compare(sig, x, u) != 0:
                return "absent", None
            u = passed.pop()
            break
    while passed:
        u = _make(ctor, (passed.pop(), u)[::s])
    return "rest", u


def delete(ctor, x, u, fam):
    """Remove one occurrence of leaf x from value u; None when x does not occur.

    Cancelling the last remaining leaf yields the neutral element (the
    empty sum); removing a leaf from deeper inside a comb yields the
    smaller comb itself, never a spine with the unit wrapped in.
    """
    outcome, rest = _remove_leaf(ctor, x, u, fam)
    if outcome == "empty":
        return fam.entries[ctor].unit
    return rest  # None when x is absent


def insert_inv(ctor, x_inv, y, fam, table=None):
    """Group insertion: x arrives already inverted; cancel it against y if
    possible, otherwise insert the original leaf back (f_I is an involution
    on values, so inverting again restores it)."""
    found = delete(ctor, x_inv, y, fam)
    if found is not None:
        return found
    inv = fam.entries[ctor].inverse
    return insert(ctor, inverse_cf(inv, x_inv, fam, table), y, fam, table)


def inverse_cf(inv_ctor, v, fam, table=None):
    """Construction function f_I: push inversion down to the leaves."""
    entry = fam.entries[inv_ctor]
    if not isinstance(entry, InverseEntry):
        raise TheoryError(f"{inv_ctor!r} is not the inverse of an AC constructor")
    carrier = entry.carrier
    if v == fam.entries[carrier].unit:
        return v
    if _is_c(v, inv_ctor):
        return _split(v, 1)[0]
    if not _is_c(v, carrier):
        result = _make(inv_ctor, (v,))
        return table.canonical(result) if table is not None else result
    # f_I(C(x, y)) = f_C(f_I(y), f_I(x)), folded with a stack of pending
    # nodes: y is inverted before x, and each f_C runs once both are done
    done = []
    todo = [v]
    while todo:
        u = todo.pop()
        if u is None:  # both inverted arguments of a C node are on done
            x_inv = done.pop()
            done.append(construct(carrier, (done.pop(), x_inv), fam, table))
        elif _is_c(u, carrier):
            x, y = _split(u, 1)
            todo += (None, x, y)
        else:
            done.append(inverse_cf(inv_ctor, u, fam, table))
    return done[0]
# --- end shared AC block ---


def normalize(
    t: Term, fam: CompiledFamily, table: Optional[HashConsTable] = None
) -> Term:
    """Bottom-up fold of the construction functions over a ground term.

    Without a table, a node whose constructor is free and whose arguments
    all come back as the very objects they were is already its own value
    (f_C(args) = C(args)), so the fold keeps that node and makes no
    construct call for it: a free-only term is returned as it is.  With a
    table every node goes through construct, which interns it.
    """
    sig = fam.sig
    rdt, arg_sorts = sig.rdt_sort, sig.arg_sorts
    # One walk checks the term and lists its nodes in preorder, arguments
    # pushed left to right, so that the reversed list is the left-to-right
    # postorder in which a recursive fold would construct.  Each App is
    # checked once, as a node: its constructor and arity, and its children's
    # sorts, an App child being of the data sort (its own check comes when
    # the walk reaches it).  A variable anywhere outranks an ill-sorted node.
    well_sorted = type(t) is App or root_sort(sig, t) is not None
    order = []
    stack = [t]
    while stack:
        u = stack.pop()
        order.append(u)
        if type(u) is App:
            args = u.args
            stack += args
            if well_sorted:
                sorts = arg_sorts.get(u.ctor)
                if sorts is None or len(sorts) != len(args):
                    well_sorted = False
                else:
                    for a, s in zip(args, sorts):
                        if (s != rdt) if type(a) is App else (root_sort(sig, a) != s):
                            well_sorted = False
        elif isinstance(u, Var):
            raise SortError("normalize takes ground terms")
    if not well_sorted:
        raise SortError(f"ill-sorted term: {t}")

    entries = fam.entries
    done: list[Term] = []  # values of the finished subterms, leftmost first
    for u in reversed(order):
        if isinstance(u, App):
            k = len(done) - len(u.args)
            args = tuple(done[k:])
            del done[k:]
            if (
                table is None
                and type(entries[u.ctor]) is FreeEntry
                and all(map(operator.is_, args, u.args))
            ):
                done.append(u)  # f_C(args) = C(args), and u is C(args) already
            else:
                done.append(construct(u.ctor, args, fam, table))
        else:
            done.append(table.canonical(u) if table is not None else u)
    return done[0]
