"""Independent truth sources for validating construction functions.

Two oracles:

* exact algebraic interpretations for the catalog theories: one loop reads
  each AC spine into a signed multiset of leaf keys, and the variant's law
  reduces it (nonzero counts for groups, counts for plain AC, the distinct
  leaves for idempotence, parity plus one absorber for nilpotence).  A
  leaf is read by its key, so layered theories compose: one keyed as the
  unit drops out, one keyed as a sum of the same theory adds its items.
  One explicit stack holds the spines and the constructors outside them,
  so neither a sum's length nor a term's depth costs recursion.  Equal
  keys of one call are one object, so deep keys compare by identity, and
  a key's hash is taken once, when it is made, so no hash walks a key;
* a bounded closure of the equations, a sound semi-decision procedure that
  answers YES or UNKNOWN, never NO.  Its search hash-conses every state in
  a HashConsTable local to the call, so equal terms are one object: states
  are compared and looked up by identity, the union-find runs on
  identities, and each size is stored, not measured.  Each interned term's
  one-step neighbours are built once, from its arguments' lists, and a rule
  is tried only where it can fire: at a term its least growth keeps within
  the size cap, of its head constructor and ground arguments.

The redex search matches rule left-hand sides modulo AC by one depth-first
search over an explicit stack of states, so neither a pattern's depth nor
the length of a spine costs recursion either.

validate_family checks a compiled family on every term up to a size bound
and reports correctness counterexamples (result not equal to the input),
completeness counterexamples (equal inputs, different results), AC-normal
form violations, and leftover redexes of the theory presentations.  A
catalog family is checked once per (constructor, argument values) tuple;
the terms themselves are enumerated (validate_terms) only for rule-defined
families and to report the failing terms of a catalog family.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .acnf import Orientation, _recomb, build_comb, is_ac_normal, spine
from .builder import CompiledFamily, construct
from .errors import OracleError
from .hashcons import HashConsTable
from .terms import (
    App,
    Prim,
    Signature,
    Term,
    Var,
    compare,
    enumerate_ground,
    fold,
    format_term,
    preorder,
    require_enumerable,
    tuples_of_size,
)
from .theory import (
    IDEM_VARIANTS,
    NIL_VARIANTS,
    Classification,
    RewriteRule,
    TheorySpec,
    Type2Theory,
    Variant,
    _pattern_vars,
    builtin_presentation,
    equations_of,
)

# ---------------------------------------------------------------------------
# exact interpretations


def semantic_key(cl: Classification, sig: Signature, t: Term):
    """Hashable canonical interpretation: two ground terms get the same key
    iff they are equal modulo the declared attributes.

    Only available when every non-free constructor belongs to the type-2
    catalog; rule-defined constructors have no algebraic interpretation here.
    """
    return _keys(cl, t)[0]


class _Key(tuple):
    """The key of a node with arguments or of a sum: equal to the plain tuple
    of its items and hashed like it, but its hash is taken once, when it is
    made, from its items' hashes (a key item's is cached already).  So
    hashing a key nested as deep as its term never walks it; CPython's
    tuple hash would recurse in C with no guard.  A constant's and a
    primitive's key is a plain tuple: its hash is shallow, and taken in C."""

    def __init__(self, items):
        self._hash = tuple.__hash__(self)

    def __hash__(self):
        return self._hash


def _keys(cl: Classification, *terms: Term) -> list:
    """The keys of terms, by one loop over an explicit stack on which a spine's
    children are its leaves.  Equal keys are one object, so two deep keys
    compare by identity, not by a deep walk: an App met again reuses its key,
    and a new key is filed by itself: its hash is cached (a _Key) or shallow,
    and its items are filed keys, which compare by identity.  The absorber
    item a nilpotent sum gains may be a copy, but it is a constant."""
    keys: list = []  # keys of the finished subterms, leftmost first
    known: dict[int, tuple] = {}  # id of a keyed App -> its key
    filed: dict[tuple, tuple] = {}  # a key -> the one key object equal to it
    todo: list = list(terms[::-1])  # terms still to key, and (App, theory, n, signs) steps
    while todo:
        u = todo.pop()
        if type(u) is tuple:  # the keys of the step's n children end keys
            u, th, n, signs = u
            kids = keys[len(keys) - n:]
            del keys[len(keys) - n:]
            key = _Key(("f", u.ctor, tuple(kids))) if th is None else _theory_key(th, kids, signs)
            known[id(u)] = key = filed.setdefault(key, key)
            keys.append(key)
        elif isinstance(u, Var):
            raise OracleError("interpretation of non-ground term")
        elif isinstance(u, Prim):
            keys.append(filed.setdefault(key := ("p", u.ptype, u.value), key))
        elif u.ctor in cl.type1:
            raise OracleError(f"no algebraic interpretation for rule-defined constructor {u.ctor!r}")
        elif not u.args:  # a constant, the unit and the absorber among them
            keys.append(filed.setdefault(key := ("f", u.ctor, ()), key))
        elif id(u) in known:
            keys.append(known[id(u)])
        else:  # a free node, or th's spine: its leaves, each with a sign
            th = cl.owner.get(u.ctor)
            leaves, signs, walk = (u.args, None, []) if th is None else ([], [], [(u, 1)])
            while walk:  # an inverse flips its argument's sign
                s, sign = walk.pop()
                c = s.ctor if type(s) is App else None
                if c == th.ctor:
                    walk += ((s.args[1], sign), (s.args[0], sign))
                elif c is not None and c == th.inverse:
                    walk.append((s.args[0], -sign))
                else:  # a leaf; the unit and the absorber are leaves too
                    leaves.append(s)
                    signs.append(sign)
            todo.append((u, th, len(leaves), signs))
            todo += reversed(leaves)
    return keys


def _theory_key(th: Type2Theory, keys: list, signs: list[int]):
    # The spine's signed multiset of leaf keys, reduced by the variant's law.
    # Leaves are read by their keys: one keyed as a sum of th adds its
    # items, and one keyed as the unit drops out.
    tag, unit = th.variant.value, ("f", th.unit, ())
    bag: Counter = Counter()
    for k, sign in zip(keys, signs):
        for item, n in k[2] if k[0] == tag and k[1] == th.ctor else ((k, 1),):
            bag[item] += sign * n
    bag.pop(unit, None)
    if th.variant is Variant.GROUP:
        bag = {k: n for k, n in bag.items() if n}
    elif th.variant in IDEM_VARIANTS:
        bag = dict.fromkeys(bag, 1)
    elif th.variant in NIL_VARIANTS:
        # equal leaves pair off into the absorber, and absorbers collapse to
        # one; an absorber that is the unit vanishes
        a_key = ("f", th.absorber, ())
        paired = bag.pop(a_key, 0) > 0 or any(n > 1 for n in bag.values())
        bag = {k: 1 for k, n in bag.items() if n % 2}
        if paired and th.absorber != th.unit:
            bag[a_key] = 1
    if not bag:
        return unit
    if len(bag) == 1:
        (k, n), = bag.items()
        if n == 1:
            return k  # a single leaf stands for itself
    return _Key((tag, th.ctor, frozenset(bag.items())))


def algebraic_equal(cl: Classification, sig: Signature, t: Term, u: Term) -> bool:
    """Exact equality modulo the catalog theories (recursively layered).  One
    pass keys both terms, so a subterm they share is keyed once."""
    kt, ku = _keys(cl, t, u)
    return kt == ku


# ---------------------------------------------------------------------------
# bounded closure


@dataclass(frozen=True)
class ClosureBudget:
    max_steps: int = 10_000          # states explored across the search
    max_term_size: Optional[int] = None  # None: input size + 4

    def __post_init__(self):
        if self.max_steps < 1:
            raise OracleError("max_steps must be at least 1")
        if self.max_term_size is not None and self.max_term_size < 1:
            raise OracleError("max_term_size must be at least 1")


def _directed(eqs: Sequence[tuple[Term, Term]]) -> list[tuple[Term, Term]]:
    # keep only directions that do not invent variables
    out = []
    for l, r in eqs:
        lv, rv = _pattern_vars(l), _pattern_vars(r)
        if rv <= lv:
            out.append((l, r))
        if lv <= rv and (r, l) not in out:
            out.append((r, l))
    return out


class _States(HashConsTable):
    """The hash-consing table of one closure search: one object per term.

    Equal terms are one object, so the search compares them with `is`.  On
    top of the table it stores each term's size and, per size cap, each
    term's one-step neighbours (steps, filled by _neighbors), accepts
    variables (rule sides are interned) and checks no sorts: states are
    well sorted by construction.
    """

    def __init__(self):
        super().__init__(None)
        self.size: dict[int, int] = {}  # id of an interned term -> node count
        self.steps: dict[int, dict[int, list]] = {}  # cap -> id of a term -> its neighbours

    def _admit(self, u: Term) -> None:
        size = self.size
        size[id(u)] = 1 + sum(size[id(a)] for a in u.args) if type(u) is App else 1

    def rule(self, l: Term, r: Term) -> tuple:
        # interned sides, r's non-variable node count and r's variable
        # occurrences: an instance's size is known before it is built.  Then
        # where the rule can fire: l's head constructor (None for a variable)
        # with l's ground arguments by position, and the least growth of a
        # step.  A step adds size(r) - size(l), plus s - 1 per extra right
        # occurrence of a variable whose value has s nodes; a variable that
        # occurs fewer times on the right drops a value of any size.
        l, r = self.canonical(l), self.canonical(r)
        occurrences = [u.name for u in preorder(r) if isinstance(u, Var)]
        head, ground = None, ()
        if type(l) is App:
            head = l.ctor
            ground = tuple((i, a) for i, a in enumerate(l.args) if not _pattern_vars(a))
        left = Counter(u.name for u in preorder(l) if isinstance(u, Var))
        shrinks = any(occurrences.count(v) < n for v, n in left.items())
        growth = -math.inf if shrinks else self.size[id(r)] - self.size[id(l)]
        return l, r, self.size[id(r)] - len(occurrences), occurrences, head, ground, growth

    def instance(self, r: Term, binding: dict[str, Term]) -> Term:
        node = self.node  # a constant of r is interned: it stands for itself
        return fold(r, lambda u: binding[u.name] if type(u) is Var else u, lambda u, a: node(u.ctor, a) if a else u)


def _match_state(p: Term, t: Term, binding: dict[str, Term]) -> bool:
    # a syntactic match on interned terms: leaves and repeated variables by `is`
    stack = [(p, t)]
    while stack:
        p, t = stack.pop()
        if type(p) is Var:
            if binding.setdefault(p.name, t) is not t:
                return False
        elif type(p) is App and p.args:
            if type(t) is not App or t.ctor != p.ctor or len(t.args) != len(p.args):
                return False
            stack += zip(p.args, t.args)
        elif p is not t:
            return False
    return True


def _neighbors(t: Term, directed, cap: int, states: _States) -> list[Term]:
    """The terms one directed step from t with at most cap nodes, by
    position in preorder, then by rule.  t and the neighbours are interned
    in states, and directed comes from states.rule, the same list at every
    call on one states.

    Each interned term's list N is built once per cap and kept in
    states.steps, children first over an explicit stack, so a subterm shared
    by many states is rewritten once.  N(u) holds u's own root steps, then
    for each argument in order the entries of its N that still fit once
    lifted into u.  A step only grows as it is lifted, so dropping it at an
    inner level is the check a search from the top makes on the whole term.
    A rule is tried at u only where it can fire: not at all when even its
    least growth would take u past cap, and only if the head and the ground
    arguments agree, which on interned terms is one comparison each."""
    steps = states.steps.setdefault(cap, {})
    size, node = states.size, states.node
    stack = [t]
    while stack:
        u = stack[-1]
        if id(u) in steps:
            stack.pop()
            continue
        ctor, args = (u.ctor, u.args) if type(u) is App else (None, ())
        missing = [a for a in args if id(a) not in steps]
        if missing:  # u stays below its arguments and is built after them
            stack += missing
            continue
        stack.pop()
        fits = cap - size[id(u)]
        out = []
        for l, r, nodes, occurrences, head, ground, growth in directed:
            if growth > fits:
                continue
            if head is None:
                binding = {l.name: u}
            elif head != ctor or ground and any(args[i] is not a for i, a in ground):
                continue
            elif not _match_state(l, u, binding := {}):
                continue
            nb_size = nodes
            for v in occurrences:
                nb_size += size[id(binding[v])]
            if nb_size <= cap:
                out.append(binding[r.name] if type(r) is Var else states.instance(r, binding))
        for i, a in enumerate(args):
            room = fits + size[id(a)]  # the nodes a lifted step may have
            for nb in steps[id(a)]:
                if size[id(nb)] <= room:
                    out.append(node(ctor, (*args[:i], nb, *args[i + 1:])))
        steps[id(u)] = out
    return steps[id(t)]


class _UnionFind:
    def __init__(self, parent: dict):
        self.parent = parent

    def find(self, x):
        return self.parent.setdefault(x, x)  # parent maps every term to its root


def closure_classes(
    eqs: Sequence[tuple[Term, Term]],
    seeds: Sequence[Term],
    budget: Optional[ClosureBudget] = None,
) -> tuple[_UnionFind, bool]:
    """One batched closure over many seeds: a union-find where provably equal
    terms share a class, plus a flag that is True when the budget truncated
    the search (so absence from a class proves nothing).

    The search works on interned states (_States, a HashConsTable that also
    stores sizes): equal terms are one object, so the seen set and the
    union-find run on identities and hash no term, and a neighbour's size is
    known from stored sizes before it is built.  _neighbors builds each
    interned term's neighbours once, from its arguments' lists, so a subterm
    that many states share is rewritten once, and it drops at each term the
    rules that would grow it past the cap and those whose head or ground
    arguments differ.  A new seed whose arguments are states
    becomes a state itself, so the caller's terms stay the union-find's
    keys; the term-keyed union-find is built once at the end, every term
    met (over-budget neighbours too) in the order first met, mapped to its
    class's root.  The states, their order and the classes are those of a
    search on plain terms.  uf.find accepts any term equal to a state.
    """
    bud = budget or ClosureBudget()
    states = _States()
    directed = [states.rule(l, r) for l, r in _directed(eqs)]
    # seed order, not set order: a truncated search must not depend on hashing
    met = {id(s): s for s in map(states.canonical, seeds)}  # id -> term, in the order first met
    queue = deque(met.values())
    size = states.size
    cap = bud.max_term_size or max((size[id(s)] for s in queue), default=1) + 4
    parent = {i: i for i in met}  # the union-find, on identities

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    states_left = bud.max_steps - len(met)
    truncated = False
    while queue:
        s = queue.popleft()
        root = find(id(s))  # s's root, kept as the unions below move it
        for nb in _neighbors(s, directed, cap, states):
            i = id(nb)
            if i in met:
                other = find(i)
                if other != root:
                    parent[root] = root = other
            else:  # a new term: its own class, which s's class joins
                met[i] = nb
                parent[i] = parent[root] = root = i
                if states_left <= 0:
                    truncated = True
                    continue
                states_left -= 1
                queue.append(nb)
    return _UnionFind({t: met[find(i)] for i, t in met.items()}), truncated


def closure_equal(
    eqs: Sequence[tuple[Term, Term]],
    t: Term,
    u: Term,
    budget: Optional[ClosureBudget] = None,
) -> bool:
    """True iff the bounded closure seeded with t and u puts them in one class.

    False means unknown, never unequal.  Monotone in the budget: a YES stays
    YES for any larger budget.
    """
    uf, _truncated = closure_classes(eqs, [t, u], budget)
    return uf.find(t) == uf.find(u)


# ---------------------------------------------------------------------------
# redex search modulo AC


def _ac_match(
    sig: Signature, orientation: Orientation, p: Term, t: Term, binding: dict[str, Term]
) -> Iterator[dict[str, Term]]:
    """All matches of pattern p against term t modulo the AC constructors:
    every binding that extends binding.

    One depth-first search over an explicit stack of states, so neither a
    pattern's depth nor a spine's length costs recursion.  A state is a
    binding and the problems still to solve, chained as (problem, rest)
    pairs.  A problem is a (pattern, term) pair or a spine problem
    (C, pattern leaves, term-leaf Counter, leaf still to take): the pattern
    leaves of a C-spine against the multiset of the term's leaves, less the
    leaf that the pattern leaf before them matched.  The pattern leaves that
    need no choice go first: a constant or constructor pattern takes one
    term leaf, a bound variable the leaves of its value.  Then an unbound
    variable that occurs m times is bound once, to leaves that remain m
    times over, and the last one takes what remains, so C(x, C(x, y)) lists
    no sub-multiset of distinct leaves.
    """
    stack: list = [(binding, ((p, t), None))]  # states, and iterators of states
    while stack:
        state = stack.pop()
        if type(state) is not tuple:  # an unbound variable's choices, listed lazily
            for nxt in state:
                stack += (state, nxt)
                break
            continue
        binding, todo = state
        if todo is None:
            yield binding
            continue
        problem, todo = todo
        if len(problem) == 2:
            p, t = problem
            if type(p) is Var:
                bound = binding.get(p.name)
                if bound is None:
                    binding = {**binding, p.name: t}
                elif bound != t:
                    continue
            elif type(p) is Prim or type(t) is not App or t.ctor != p.ctor or len(t.args) != len(p.args):
                if type(p) is not Prim or p != t:  # only a constant matches here, itself
                    continue
            elif p.ctor in orientation:
                todo = ((p.ctor, spine(p.ctor, p), Counter(spine(p.ctor, t)), None), todo)
            else:
                for pair in zip(reversed(p.args), reversed(t.args)):
                    todo = (pair, todo)
            stack.append((binding, todo))
            continue
        C, pleaves, remaining, take = problem
        if take is not None:
            remaining = remaining - Counter((take,))
        for i, p in enumerate(pleaves):
            if type(p) is not Var or p.name in binding:
                break
        else:  # unbound variables only, or none
            if pleaves:
                stack.append(_choices(sig, orientation[C], C, pleaves, remaining, binding, todo))
            elif not remaining:
                stack.append((binding, todo))
            continue
        rest = pleaves[:i] + pleaves[i + 1 :]
        if type(p) is Var:
            need = Counter(spine(C, binding[p.name]))
            if all(remaining[k] >= n for k, n in need.items()):
                stack.append((binding, ((C, rest, remaining - need, None), todo)))
        else:  # a constant or constructor pattern takes one term leaf
            stack += [(binding, ((p, leaf), ((C, rest, remaining, leaf), todo))) for leaf in reversed(remaining)]


def _choices(sig, o, C, pleaves, remaining, binding, todo) -> Iterator[tuple]:
    # The states of a spine problem whose pattern leaves are all unbound
    # variables: the first one's m occurrences are bound to an m-fold
    # sub-multiset of the remaining leaves, in the term order; the last
    # variable takes all of them, and fails where a leaf is left over.
    name = pleaves[0].name
    rest = [q for q in pleaves if q.name != name]
    m = len(pleaves) - len(rest)
    key = functools.cmp_to_key(lambda a, b: compare(sig, a, b))
    items = [(leaf, remaining[leaf] // m) for leaf in sorted(remaining, key=key) if remaining[leaf] >= m]
    for counts in itertools.product(*(range(n + 1) for _, n in items)) if rest else [[n for _, n in items]]:
        if any(counts):
            chosen = [leaf for (leaf, _), c in zip(items, counts) for _ in range(c)]
            taken = Counter({leaf: m * c for (leaf, _), c in zip(items, counts)})
            yield {**binding, name: build_comb(C, chosen, o)}, ((C, rest, remaining - taken, None), todo)


def find_redex(
    sig: Signature,
    t: Term,
    rules: Sequence[RewriteRule],
    orientation: Orientation,
) -> Optional[tuple[Term, RewriteRule]]:
    """First subterm of t matching a rule left-hand side modulo AC, if any.

    The term is re-combed and sorted first; with extension rules in the rule
    set, redex existence is invariant across AC-equal terms, so checking the
    canonical comb's syntactic subterms suffices.  A left-hand side headed
    by a constructor matches only subterms headed by it, so each subterm
    tries only the rules of its own head, in their given order.
    """
    if not rules:
        return None
    by_head: dict[Optional[str], list[RewriteRule]] = {}
    for rule in rules:
        by_head.setdefault(getattr(rule.lhs, "ctor", None), []).append(rule)
    grouped = None not in by_head  # a variable or constant left-hand side matches anywhere
    tc = _recomb(t, orientation, spine, sig)
    for sub in preorder(tc):
        for rule in by_head.get(getattr(sub, "ctor", None), ()) if grouped else rules:
            for _ in _ac_match(sig, orientation, rule.lhs, sub, {}):
                return sub, rule
    return None


# ---------------------------------------------------------------------------
# family validation


@dataclass
class ValidationReport:
    max_size: int
    correctness: list[tuple[Term, Term]] = field(default_factory=list)
    completeness: list[tuple[Term, Term]] = field(default_factory=list)
    acnf_violations: list[tuple[Term, Term]] = field(default_factory=list)
    redexes: list[tuple[Term, Term, str]] = field(default_factory=list)
    unknowns: list[tuple[str, Term, Term]] = field(default_factory=list)
    # set by a clean value pass that checked every tuple over a value set
    # construct never leaves: the family is then valid at every size
    closed: bool = False

    @property
    def has_failures(self) -> bool:
        return bool(
            self.correctness or self.completeness or self.acnf_violations or self.redexes
        )

    @property
    def ok(self) -> bool:
        return not self.has_failures and not self.unknowns

    def machine_lines(self) -> list[str]:
        out = []
        for t, v in self.correctness:
            out.append(f"correctness\t{format_term(t)}\t{format_term(v)}")
        for t, u in self.completeness:
            out.append(f"completeness\t{format_term(t)}\t{format_term(u)}")
        for t, v in self.acnf_violations:
            out.append(f"acnf\t{format_term(t)}\t{format_term(v)}")
        for t, v, rule in self.redexes:
            out.append(f"redex\t{format_term(t)}\t{format_term(v)}\t{rule}")
        for note, t, v in self.unknowns:
            out.append(f"unknown\t{format_term(t)}\t{format_term(v)}\t{note}")
        return out

    def summary(self) -> str:
        if self.ok:
            return f"valid at scale {self.max_size}"
        bits = []
        for name, xs in (
            ("correctness", self.correctness),
            ("completeness", self.completeness),
            ("acnf", self.acnf_violations),
            ("redex", self.redexes),
            ("unknown", self.unknowns),
        ):
            if xs:
                bits.append(f"{len(xs)} {name}")
        return f"scale {self.max_size}: " + ", ".join(bits)


def validate_family(
    fam: CompiledFamily,
    spec: TheorySpec,
    sig: Signature,
    max_size: int,
    budget: Optional[ClosureBudget] = None,
) -> ValidationReport:
    """Check the family on every term up to max_size nodes.

    A catalog family (no rule-defined constructors) is checked once per
    (constructor, argument values) tuple by _value_pass.  A clean pass
    proves every term clean, so the terms are enumerated (validate_terms)
    only when the pass flags something, to report each failing term.
    Rule-defined families always take validate_terms.
    """
    if not fam.classification.type1:
        closed = _value_pass(fam, spec, sig, max_size)
        if closed is not None:
            return ValidationReport(max_size=max_size, closed=closed)
    return validate_terms(fam, spec, sig, max_size, budget)


def _presentation(fam: CompiledFamily, spec: TheorySpec, sig: Signature) -> list:
    # the rules that must leave no redex in a normal form
    cl = fam.classification
    rules = [r for th in cl.theories for r in builtin_presentation(th, sig)]
    rules.extend(spec.rules)
    return rules


def _value_pass(
    fam: CompiledFamily, spec: TheorySpec, sig: Signature, max_size: int
) -> Optional[bool]:
    """Check a catalog family once per (constructor, argument values) tuple.

    Values are grouped by the size at which a term first reaches them, and
    the tuples of size n draw their arguments from those groups
    (tuples_of_size), so the tuple of every term up to max_size is built
    exactly once.  Each tuple's result must have the key of the tuple itself
    (correctness), each key one result (completeness), and each new value
    must be AC-normal and redex-free.  semantic_key is exact, hence a
    congruence, so by induction on the term a clean pass means every term
    passes validate_terms.

    Returns None when a check fails.  Otherwise returns whether every tuple
    over the final value set was checked: construct then never leaves the
    set, and the family is valid at every size.
    """
    require_enumerable(sig, sig.rdt_sort, max_size)
    cl = fam.classification
    orientation = cl.orientations()
    rules = _presentation(fam, spec, sig)
    key = functools.partial(semantic_key, cl, sig)
    value_of: dict = {}  # class key -> the one value its tuples build
    by_size: dict[int, list[Term]] = {}  # values first reached at each size
    for n in range(1, max_size + 1):
        new: list[Term] = []
        for ctor, args in tuples_of_size(sig, n, by_size):
            try:
                v = construct(ctor, args, fam)
            except Exception:
                return None  # validate_terms raises it where it always has
            k = key(App(ctor, args))
            known = value_of.get(k)
            if known is not None:
                if known != v:
                    return None
                continue
            # a new class: a correct v is a new value, since its key is new
            if key(v) != k or not is_ac_normal(sig, v, orientation):
                return None
            if find_redex(sig, v, rules, orientation) is not None:
                return None
            value_of[k] = v
            new.append(v)
        by_size[n] = new
    last = max((n for n, vs in by_size.items() if vs), default=0)
    max_arity = max((d.arity for d in sig.constructors), default=0)
    return 1 + max_arity * last <= max_size


def validate_terms(
    fam: CompiledFamily,
    spec: TheorySpec,
    sig: Signature,
    max_size: int,
    budget: Optional[ClosureBudget] = None,
) -> ValidationReport:
    """Exhaustively check the family on every term up to max_size nodes,
    reporting every failing term in enumeration order.

    Terms come after their arguments, so each normal form is one construct
    call.  One class function judges correctness and completeness: the
    algebraic key, or the closure class for rule-defined families.
    """
    cl = fam.classification
    orientation = cl.orientations()
    report = ValidationReport(max_size=max_size)

    terms = enumerate_ground(sig, sig.rdt_sort, max_size)
    nf: dict[Term, Term] = {}
    for t in terms:
        nf[t] = construct(t.ctor, tuple(nf[a] for a in t.args), fam)

    rules = _presentation(fam, spec, sig)

    truncated = False
    if cl.type1:
        seeds = list(dict.fromkeys([*terms, *nf.values()]))
        uf, truncated = closure_classes(equations_of(spec, sig), seeds, budget)
        class_of = uf.find
    else:
        class_of = functools.partial(semantic_key, cl, sig)

    # many terms share a normal form: check each value once
    checked: dict[Term, tuple] = {}
    groups: dict = {}
    for t in terms:
        v = nf[t]
        if v not in checked:
            checked[v] = (
                is_ac_normal(sig, v, orientation),
                find_redex(sig, v, rules, orientation),
                class_of(v),
            )
        acnf_ok, hit, v_class = checked[v]
        if not acnf_ok:
            report.acnf_violations.append((t, v))
        if hit is not None:
            report.redexes.append((t, v, str(hit[1])))
        k = class_of(t)
        if k != v_class:
            if cl.type1:
                report.unknowns.append(("correctness not proved within budget", t, v))
            else:
                report.correctness.append((t, v))
        groups.setdefault(k, []).append(t)
    for members in groups.values():
        rep = members[0]
        for u in members[1:]:
            if nf[u] != nf[rep]:
                report.completeness.append((rep, u))
    if truncated:
        report.unknowns.append(("closure budget exhausted", terms[0], terms[0]))
    return report
