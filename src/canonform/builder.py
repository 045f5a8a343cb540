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
comb.  insert and delete find a leaf's place by one walk, _seek, and
insert, delete and merge put the leaves they passed back by one rebuild,
_rebuild.  These, merge's walk and f_I are loops, so they cap no comb's
length at Python's recursion limit.  _seek, merge and the group match keep
the leaf (or pair of leaves) they compared last and that result: compare
is a pure total order, so a run of one shared leaf object costs one
comparison, not one per leaf.

The scheme above is written for right combs, whose exposed leaf is the first
argument.  Both orientations run the same code through one view,
Type2Entry.sign: it names the argument that holds the exposed leaf, splits
C's arguments into (exposed leaf, rest) and joins such a pair back in spine
order, and turns compare around so that a left comb keeps its largest leaf
exposed.  acnf.comb_sign derives it from the orientation, for this module
and the AC-normal form checks alike.

The AC functions, from _construct_ac to _rebuild, are the only copy of
the scheme, and _construct_entry, _match and _eval_rhs are the only copy of
the dispatch on entry kinds and of the clause matcher: emit_code prints
both blocks verbatim into generated modules (the AC block only when the
family has an AC constructor), and there they run on tuples.

Removing a leaf never wraps the unit or the absorber into the spine as if
it were an ordinary leaf, because the result would contain a redex
(Plus(One, Zero)) or an out-of-place absorber (Xor(Bot, Bot)).  delete
returns the smaller comb itself, or the unit when the leaf was the whole
value.  A nilpotent insert finds the equal leaf on its one walk to x's
place, drops it, rebuilds the leaves it passed over the rest, and lets the
absorber re-enter through the construction function, which places it.

construct and normalize reject ill-sorted input by Signature.check, the
one well-sortedness rule of the package.  A hash-consing table is met only
at the boundary: construct makes its result canonical, and normalize its
input and its result.  The engine takes no table, so no intermediate comb
and no node built only to compare against reaches one.

Normalizing a whole term is the bottom-up fold of the construction
functions.  It runs over explicit stacks and calls them in the order a
recursive fold would, so no nesting depth of the input reaches Python's
recursion limit.  It folds each distinct subterm object once: a subterm the
input shares (a parsed term shares its equal subterms) is built once, where
it first occurs.  A free node whose arguments are already normal is its own
value, so the fold keeps it as it is.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .acnf import comb_sign
from .errors import SignatureError, SortError, TheoryError
from .hashcons import HashConsTable
from .terms import (
    App,
    Signature,
    Term,
    Var,
    compare,
    map_vars,
    root_sort,
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
    """An AC constructor's theory and the fields the AC functions read on
    every step, filled once by compile_family.  sign is the comb view
    (acnf.comb_sign): as a factor on compare it makes c <= 0 mean "x goes
    on the exposed side of y" in both orientations."""

    theory: Type2Theory
    sign: int
    inverse: Optional[str]
    unit: Optional[Term]
    absorber: Optional[Term]
    idem: bool
    nil: bool


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
            th = cl.carrier[name]
            unit, absorber = (App(c) if c is not None else None for c in (th.unit, th.absorber))
            idem, nil = th.variant in IDEM_VARIANTS, th.variant in NIL_VARIANTS
            entries[name] = Type2Entry(th, comb_sign(th.orientation), th.inverse, unit, absorber, idem, nil)
        elif name in cl.inverse_of:
            entries[name] = InverseEntry(cl.inverse_of[name].ctor)
        elif name in clauses:
            entries[name] = Type1Entry(clauses[name])
        else:
            entries[name] = FreeEntry()
    return CompiledFamily(sig, entries, cl)


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
    """Construction function f_ctor: canonical arguments in, canonical value out.
    With a table, the value is the table's object: the engine builds it plain,
    and only then does the table intern it."""
    args = tuple(args)
    fam.sig.check(ctor, args)
    value = _construct_entry(ctor, fam.entries[ctor], args, fam)
    return value if table is None else table.canonical(value)


# emit_code prints the text between each pair of markers below into generated
# modules, which bind the names it uses to tuple-world versions.  So the
# blocks have no annotations and no imports (the word must not appear inside
# them), touch terms only through _ctor, _split, _make, compare and
# type(t) is Var, read entries only through their attributes and their
# kind, type(entry), and mark pending work on a stack with a list, since
# tuples are terms there.  They take no hash-consing table: what they build
# is plain, and only a public entry point given one (construct, normalize)
# makes its own result canonical.
# --- begin shared engine block ---
def _construct_entry(ctor, entry, args, fam):
    """f_ctor on arguments of the right number and sorts, by entry kind."""
    kind = type(entry)
    if kind is Type2Entry:
        return _construct_ac(ctor, entry, args, fam)
    if kind is InverseEntry:
        return inverse_cf(ctor, args[0], fam)
    if kind is Type1Entry:
        sig = fam.sig
        for clause in entry.clauses:
            binding = {}
            if all(_match(p, v, binding) for p, v in zip(clause.patterns, args)) and all(
                compare(sig, binding[a], binding[b]) == 0 for a, b in clause.guard
            ):
                return _eval_rhs(clause.rhs, binding, fam)
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


def _eval_rhs(rhs, binding, fam):
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
            done.append(construct(c, args, fam))
        elif type(u) is Var:
            done.append(binding[u.name])
        elif _ctor(u) is None:
            done.append(u)
        else:
            args = _split(u, 1)
            todo.append([_ctor(u), len(args)])
            todo += args[::-1]
    return done[0]
# --- end shared engine block ---


# --- begin shared AC block ---
def _construct_ac(ctor, entry, args, fam):
    a, b = args
    unit = entry.unit
    if unit is not None:
        if a == unit:
            return b
        if b == unit:
            return a
    s = entry.sign
    x, rest = args[::s]
    if _ctor(x) == ctor:
        if _ctor(rest) == ctor:
            return _merge(ctor, entry, x, rest, fam)
        # f_C(C(x, y), z) = f_C(z, C(x, y)): a comb meets a leaf by one insertion
        x, rest = rest, x
    if entry.inverse is not None:
        return insert_inv(ctor, inverse_cf(entry.inverse, x, fam), rest, fam)
    return insert(ctor, x, rest, fam)


def _merge(ctor, entry, u, v, fam):
    """f_C of two combs u and v: one pass down both sorted spines.

    The leaves taken before either spine runs out are rebuilt in order;
    what is left of the other comb is a sorted comb already and becomes the
    innermost part of the result as it is, so a small comb meeting a large
    one costs about what inserting its leaves would.  Equal leaves collapse
    to one under idempotence and cancel under nilpotence, and the absorber
    of the cancelled pairs re-enters through the construction function.  In
    a group, x cancels I(x) wherever the two sit, so the rest of the other
    comb is read as well and _cancel_inverses drops the pairs.

    compare is a pure total order, so the walk keeps the pair of leaves it
    compared last and that result: while the next pair is the same two
    objects, or the same two swapped (the result negated), it makes no
    compare call.  Equal leaves are one object in shared input, so a run of
    them against one leaf of the other comb costs one comparison.
    """
    sig = fam.sig
    s = entry.sign
    collapse = entry.idem or entry.nil
    cancelled = False
    taken = []
    x, u = _split(u, s)  # exposed leaves and the rest, None after the last leaf
    y, v = _split(v, s)
    lx = ly = None  # the pair compared last, and lc its result
    while True:
        if x is lx and y is ly:
            c = lc
        elif x is ly and y is lx:
            c = -lc
        else:
            c = lc = s * compare(sig, x, y)
            lx, ly = x, y
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
            y, v = _split(v, s) if _ctor(v) == ctor else (v, None)
        else:
            taken.append(x)
            if u is None:
                taken.append(y)
                tail = v
                break
        x, u = _split(u, s) if _ctor(u) == ctor else (u, None)
    if entry.inverse is not None:
        while _ctor(tail) == ctor:
            leaf, tail = _split(tail, s)
            taken.append(leaf)
        if tail is not None:
            taken.append(tail)
        taken = _cancel_inverses(fam, entry, taken)
        tail = None
    tail = _rebuild(ctor, s, taken, tail)
    if tail is None:  # every leaf cancelled
        return entry.absorber if entry.inverse is None else entry.unit
    return construct(ctor, (entry.absorber, tail)[::s], fam) if cancelled else tail


def _cancel_inverses(fam, entry, leaves):
    """Drop every pair x, I(x) from a group's sorted leaf list.

    The I-headed leaves form one run, ordered by their arguments, and the
    other leaves are ordered too, so one linear match of the run against
    the others finds the pairs.  Like _merge, the match keeps the pair it
    compared last, an inverse's argument and a leaf, and reuses the result
    while both are the same objects, so a run of one shared leaf (or of
    inverses of one shared argument) costs one comparison.
    """
    sig = fam.sig
    s = entry.sign
    n = len(leaves)
    i = 0
    while i < n and _ctor(leaves[i]) != entry.inverse:
        i += 1
    j = i
    while j < n and _ctor(leaves[j]) == entry.inverse:
        j += 1
    keep = [True] * n
    k = i
    la = lb = None  # the pair compared last, and lc its result
    for p in range(n):
        if i <= p < j:
            continue
        b = leaves[p]
        c = -1
        while k < j:
            a = _split(leaves[k], 1)[0]
            if a is not la or b is not lb:
                lc = s * compare(sig, a, b)
                la, lb = a, b
            c = lc
            if c >= 0:
                break
            k += 1
        if c == 0:  # leaves[p] and leaves[k], its inverse, cancel
            keep[p] = keep[k] = False
            k += 1
    return [t for t, kept in zip(leaves, keep) if kept]


def insert(ctor, x, u, fam, table=None):
    """Place leaf x into value u, keeping leaves sorted; x is not C-headed.

    _seek walks down the spine to the first leaf not smaller than x, and
    the leaves it passed are rebuilt around the part that takes x.  An
    equal leaf there collapses with x under idempotence.  Under nilpotence
    the two cancel: x is not placed, the equal leaf is dropped, and the
    absorber re-enters the remaining comb through the construction function
    (it is an ordinary leaf with its own ordered position, and may itself
    cancel against an absorber already present).
    """
    entry = fam.entries[ctor]
    s = entry.sign
    passed, u, y, r, c = _seek(ctor, s, x, u, fam)
    if c == 0 and entry.nil:  # x and y cancel to the absorber
        r = _rebuild(ctor, s, passed, r)  # None when y was the only leaf
        return entry.absorber if r is None else construct(ctor, (entry.absorber, r)[::s], fam, table)
    if c > 0:  # x goes below the innermost leaf y
        u = _make(ctor, (y, x)[::s])
    elif c < 0 or not entry.idem:
        u = _make(ctor, (x, u)[::s])
    return _rebuild(ctor, s, passed, u)


def delete(ctor, x, u, fam):
    """Remove one occurrence of leaf x from value u; None when x does not occur.

    Sortedness gives the early exit: _seek stops at the first leaf not
    smaller than x, and x cannot occur further in.  Removing one leaf of a
    sorted comb keeps the rest sorted, so the result is canonical whenever
    u was.  Cancelling the last remaining leaf yields the neutral element
    (the empty sum), and raises TheoryError when C has none, since there is
    no value to return; removing a leaf from deeper inside a comb yields the
    smaller comb itself, never a spine with the unit wrapped in.
    """
    entry = fam.entries[ctor]
    s = entry.sign
    passed, _, _, r, c = _seek(ctor, s, x, u, fam)
    if c != 0:
        return None
    u = _rebuild(ctor, s, passed, r)
    if u is None and entry.unit is None:  # x was the only leaf
        raise TheoryError(
            f"{ctor!r} has no neutral element: deleting the only leaf leaves no value"
        )
    return entry.unit if u is None else u


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
    """Construction function f_I: push inversion down to the leaves.  A
    leaf's inverse is a plain node, in a table only if a value keeps it."""
    entry = fam.entries[inv_ctor]
    if not isinstance(entry, InverseEntry):
        raise TheoryError(f"{inv_ctor!r} is not the inverse of an AC constructor")
    carrier = entry.carrier
    if v == fam.entries[carrier].unit:
        return v
    if _ctor(v) == inv_ctor:
        return _split(v, 1)[0]
    if _ctor(v) != carrier:
        return _make(inv_ctor, (v,))
    # f_I(C(x, y)) = f_C(f_I(y), f_I(x)), folded with a stack of pending
    # nodes: y is inverted before x, and each f_C runs once both are done
    done = []
    todo = [v]
    while todo:
        u = todo.pop()
        if u is None:  # both inverted arguments of a C node are on done
            x_inv = done.pop()
            done.append(construct(carrier, (done.pop(), x_inv), fam, table))
        elif _ctor(u) == carrier:
            x, y = _split(u, 1)
            todo += (None, x, y)
        else:
            done.append(inverse_cf(inv_ctor, u, fam, table))
    return done[0]


def _seek(ctor, s, x, u, fam):
    """Walk down comb u past the leaves that go before leaf x (sign s).

    Returns the leaves passed, outermost first; the rest of u; the rest's
    exposed leaf y; what lies below y (None when y is the innermost leaf);
    and c = s * compare(x, y), so c <= 0 unless y is the innermost leaf.
    compare is a pure total order, so the walk keeps the leaf it compared
    last and that result, and while the exposed leaf is that same object
    (a run of one shared leaf) it reuses the result: the run costs one
    comparison.
    """
    sig = fam.sig
    passed = []
    last = None  # the leaf compared last; c is its result
    while True:
        y, r = _split(u, s) if _ctor(u) == ctor else (u, None)
        if y is not last:
            c = s * compare(sig, x, y)
            last = y
        if c <= 0 or r is None:
            return passed, u, y, r, c
        passed.append(y)
        u = r


def _rebuild(ctor, s, passed, rest):
    """Put the passed leaves back over rest, the last one innermost, and
    empty passed.  With rest None, the last passed leaf is the innermost
    leaf; None when no leaf is left."""
    if rest is None:
        if not passed:
            return None
        rest = passed.pop()
    while passed:
        rest = _make(ctor, (passed.pop(), rest)[::s])
    return rest
# --- end shared AC block ---


_FINISHED = object()  # marks a node on normalize's stack whose arguments are walked


def normalize(
    t: Term, fam: CompiledFamily, table: Optional[HashConsTable] = None
) -> Term:
    """Bottom-up fold of the construction functions over a ground term.

    Each distinct App object of t is checked and folded once, so a subterm
    that t shares (as parsed terms share equal subterms) costs one
    construction, however often it occurs; on a tree the construct calls
    are those of a recursive left-to-right fold.  A node whose constructor
    is free and whose arguments all come back as the very objects they were
    is already its own value (f_C(args) = C(args)), so the fold keeps that
    node and makes no construct call for it: a free-only term is returned
    as it is.  A table interns t and then the value after the fold.
    """
    sig = fam.sig
    check = sig.check
    # One left-to-right walk checks each distinct App once, as a node
    # (Signature.check), an App child being of the data sort (its own check
    # comes when the walk reaches it), and lists the occurrences in
    # postorder.  An App met again is listed by its id and not walked into.
    # A variable anywhere outranks an ill-sorted node.
    well_sorted = root_sort(sig, t) is not None
    order = []
    seen = set()  # ids of the Apps walked; t keeps them alive, so ids are stable
    again = set()  # ids of the Apps that occur more than once
    stack = [t]
    finished = _FINISHED
    while stack:
        u = stack.pop()
        if u is finished:
            order.append(stack.pop())
            continue
        # down the first arguments, leaving each node and its later arguments
        # on the stack, to a leaf, a nullary App or an App met again
        while type(u) is App:
            i = id(u)
            if i in seen:
                again.add(i)
                u = i
                break
            seen.add(i)
            if well_sorted:
                try:
                    check(u.ctor, u.args)
                except (SignatureError, SortError):
                    well_sorted = False
            if not u.args:
                break
            stack += (u, finished)
            stack += u.args[:0:-1]
            u = u.args[0]
        if isinstance(u, Var):
            raise SortError("normalize takes ground terms")
        order.append(u)
    if not well_sorted:
        raise SortError(f"ill-sorted term: {t}")

    entries = fam.entries
    done: list[Term] = []  # values of the finished subterms, leftmost first
    values: dict[int, Term] = {}  # id of an App in again -> its value
    for u in order:
        if type(u) is App:
            k = len(done) - len(u.args)
            args = tuple(done[k:])
            del done[k:]
            if type(entries[u.ctor]) is FreeEntry and all(map(operator.is_, args, u.args)):
                v = u  # f_C(args) = C(args), and u is C(args) already
            else:
                v = construct(u.ctor, args, fam)
            if again and id(u) in again:
                values[id(u)] = v
            done.append(v)
        else:  # a leaf, or the id of an App met again: its value
            done.append(values[u] if type(u) is int else u)
    if table is not None:
        table.canonical(t)  # the input first, so its objects are kept where new
    return done[0] if table is None else table.canonical(done[0])
