"""Independent truth sources for validating construction functions.

Two oracles:

* exact algebraic interpretations for the catalog theories (integer vectors
  for groups, sets for idempotence, parity with absorber tracking for
  nilpotence, multisets for plain AC), combined recursively across disjoint
  theories;
* a bounded closure of the equations, a sound semi-decision procedure that
  answers YES or UNKNOWN, never NO.  Its search hash-conses every state in
  a table local to the call, so equal terms are one object: states are
  compared and looked up by identity, and each size is stored, not measured.

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
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .acnf import Orientation, _recomb, build_comb, is_ac_normal, spine
from .builder import CompiledFamily, construct
from .errors import OracleError
from .terms import (
    App,
    Prim,
    Signature,
    Term,
    Var,
    cache_hashes,
    compare,
    enumerate_ground,
    format_term,
    map_vars,
    preorder,
    require_enumerable,
    tuples_of_size,
)
from .theory import (
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
    if isinstance(t, Var):
        raise OracleError("interpretation of non-ground term")
    if isinstance(t, Prim):
        return ("p", t.ptype, t.value)
    if t.ctor in cl.type1:
        raise OracleError(
            f"no algebraic interpretation for rule-defined constructor {t.ctor!r}"
        )
    th = cl.owner.get(t.ctor)
    if th is None:
        return ("f", t.ctor, tuple(semantic_key(cl, sig, a) for a in t.args))
    return _theory_key(cl, sig, th, t)


def _atom_key(cl: Classification, sig: Signature, th: Type2Theory, t: Term):
    # leaves of th's spine; the theory's own nullary symbols stay opaque
    if isinstance(t, App) and t.ctor in (th.unit, th.absorber) and t.ctor is not None:
        return ("f", t.ctor, ())
    return semantic_key(cl, sig, t)


def _theory_key(cl: Classification, sig: Signature, th: Type2Theory, t: Term):
    unit_key = ("f", th.unit, ()) if th.unit is not None else None

    def set_key(tag: str, keys):
        # a leaf set: empty is the unit, a single leaf stands for itself
        if not keys:
            return unit_key
        if len(keys) == 1:
            return next(iter(keys))
        return (tag, th.ctor, frozenset(keys))

    if th.variant is Variant.GROUP:
        vec: Counter = Counter()

        def grp(s: Term, sign: int) -> None:
            if isinstance(s, App) and s.ctor == th.unit:
                return
            if isinstance(s, App) and s.ctor == th.inverse:
                grp(s.args[0], -sign)
            elif isinstance(s, App) and s.ctor == th.ctor:
                grp(s.args[0], sign)
                grp(s.args[1], sign)
            else:
                vec[semantic_key(cl, sig, s)] += sign

        grp(t, 1)
        vec = Counter({k: n for k, n in vec.items() if n != 0})
        if not vec:
            return unit_key
        if len(vec) == 1:
            (k, n), = vec.items()
            if n == 1:
                return k
        return ("g", th.ctor, frozenset(vec.items()))

    # the remaining variants all flatten the spine into a leaf collection
    bag: Counter = Counter()

    def flat(s: Term) -> None:
        if th.unit is not None and isinstance(s, App) and s.ctor == th.unit:
            return
        if isinstance(s, App) and s.ctor == th.ctor:
            flat(s.args[0])
            flat(s.args[1])
        else:
            bag[_atom_key(cl, sig, th, s)] += 1

    flat(t)

    if th.variant is Variant.AC:
        if sum(bag.values()) == 1:
            return next(iter(bag))
        return ("m", th.ctor, frozenset(bag.items()))

    if th.variant in (Variant.ACI, Variant.ACI_NEU):
        return set_key("s", bag.keys())

    # nilpotent: every equal pair of leaves turns into one absorber, and any
    # positive number of absorbers collapses to one
    a_key = ("f", th.absorber, ())
    if th.absorber == th.unit:
        # the absorber is the unit: pairs vanish entirely, pure parity
        return set_key("n", {k for k, n in bag.items() if n % 2 == 1})
    absorbers = bag.pop(a_key, 0)
    has_a = absorbers >= 1 or any(n >= 2 for n in bag.values())
    keys = {k for k, n in bag.items() if n % 2 == 1}
    if has_a:
        keys.add(a_key)
    return set_key("n", keys)  # empty only with a distinct unit present


def algebraic_equal(cl: Classification, sig: Signature, t: Term, u: Term) -> bool:
    """Exact equality modulo the catalog theories (recursively layered)."""
    return semantic_key(cl, sig, t) == semantic_key(cl, sig, u)


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


def _match_syntactic(p: Term, t: Term, binding: dict[str, Term]) -> bool:
    if isinstance(p, Var):
        bound = binding.get(p.name)
        if bound is None:
            binding[p.name] = t
            return True
        return bound == t
    if isinstance(p, Prim):
        return p == t
    return (
        isinstance(t, App)
        and t.ctor == p.ctor
        and len(t.args) == len(p.args)
        and all(_match_syntactic(a, b, binding) for a, b in zip(p.args, t.args))
    )


def _instantiate(p: Term, binding: dict[str, Term]) -> Term:
    return map_vars(p, lambda v: binding[v.name])


class _States:
    """The hash-consing table of one closure search: one object per term.

    A node is keyed by its constructor and the ids of its interned
    arguments, a leaf by its fields, so equal terms are one object and the
    search compares them with `is`.  The table stores each term's size.
    """

    def __init__(self):
        self.nodes: dict[tuple, Term] = {}
        self.size: dict[int, int] = {}  # id of an interned term -> node count

    def node(self, ctor: str, args: tuple, orig: Optional[App] = None) -> App:
        # orig, an equal App, becomes the node if it is new: the caller's
        # seeds stay the union-find's keys, found later without a comparison
        key = (ctor, *map(id, args))
        u = self.nodes.get(key)
        if u is None:
            if orig is None or any(a is not b for a, b in zip(args, orig.args)):
                orig = App(ctor, args)
            u = self.nodes[key] = orig
            self.size[id(u)] = 1 + sum(self.size[id(a)] for a in args)
        return u

    def intern(self, t: Term) -> Term:
        done: list[Term] = []  # interned subterms, left to right
        stack: list = [t]  # terms still to walk, and (node, arity) to rebuild
        while stack:
            u = stack.pop()
            if type(u) is tuple:
                node, n = u
                args = tuple(done[len(done) - n:])
                del done[len(done) - n:]
                done.append(self.node(node.ctor, args, node))
            elif id(u) in self.size:  # interned already; the table keeps it alive
                done.append(u)
            elif isinstance(u, App):
                stack.append((u, len(u.args)))
                stack += reversed(u.args)
            else:
                f = (u.name, u.sort) if isinstance(u, Var) else (u.ptype, type(u.value), u.value)
                u = self.nodes.setdefault((type(u), *f), u)
                self.size[id(u)] = 1
                done.append(u)
        return done[0]

    def rule(self, l: Term, r: Term) -> tuple:
        # interned sides, r's non-variable node count and r's variable
        # occurrences: an instance's size is known before it is built
        l, r = self.intern(l), self.intern(r)
        occurrences = [u.name for u in preorder(r) if isinstance(u, Var)]
        return l, r, self.size[id(r)] - len(occurrences), occurrences

    def instance(self, r: Term, binding: dict[str, Term]) -> Term:
        done: list[Term] = []
        stack: list = [r]
        while stack:
            u = stack.pop()
            if type(u) is tuple:
                ctor, n = u
                args = tuple(done[-n:])
                del done[-n:]
                done.append(self.node(ctor, args))
            elif isinstance(u, Var):
                done.append(binding[u.name])
            elif isinstance(u, App) and u.args:
                stack.append((u.ctor, len(u.args)))
                stack += reversed(u.args)
            else:
                done.append(u)  # an interned leaf of r
        return done[0]


def _match_state(p: Term, t: Term, binding: dict[str, Term]) -> bool:
    # _match_syntactic on interned terms: leaves and repeated variables by `is`
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


def _neighbors(
    t: Term, directed, cap: int, states: Optional[_States] = None
) -> Iterator[Term]:
    """The terms one directed step from t with at most cap nodes, by
    position in preorder, then by rule.  With states, t and the neighbours
    are interned there and directed comes from states.rule; without, the
    call interns t and directed in a table of its own."""
    if states is None:
        states = _States()
        t = states.intern(t)
        directed = [states.rule(l, r) for l, r in directed]
    size, node = states.size, states.node
    # a subterm with its ancestors: (parent, argument index, parent's chain)
    stack: list = [(t, None)]
    while stack:
        sub, up = stack.pop()
        rest = size[id(t)] - size[id(sub)]
        for l, r, nodes, occurrences in directed:
            if type(l) is Var:
                binding = {l.name: sub}
            else:
                binding = {}
                if not _match_state(l, sub, binding):
                    continue
            nb_size = rest + nodes
            for v in occurrences:
                nb_size += size[id(binding[v])]
            if nb_size > cap:
                continue
            nb = binding[r.name] if type(r) is Var else states.instance(r, binding)
            chain = up
            while chain is not None:
                parent, i, chain = chain
                args = parent.args
                nb = node(parent.ctor, (*args[:i], nb, *args[i + 1:]))
            yield nb
        if type(sub) is App:
            for i in range(len(sub.args) - 1, -1, -1):
                stack.append((sub.args[i], (sub, i, up)))


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] is not root:
            root = parent[root]
        while x is not root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self.parent[ra] = rb


def closure_classes(
    eqs: Sequence[tuple[Term, Term]],
    seeds: Sequence[Term],
    budget: Optional[ClosureBudget] = None,
) -> tuple[_UnionFind, bool]:
    """One batched closure over many seeds: a union-find where provably equal
    terms share a class, plus a flag that is True when the budget truncated
    the search (so absence from a class proves nothing).

    The search works on interned states (_States): equal terms are one
    object, so the seen set and the union-find compare by identity, and a
    neighbour's size is known from stored sizes before it is built.  The
    states, their order and the classes are those of a search on plain
    terms.  uf.find accepts any term equal to a state.
    """
    bud = budget or ClosureBudget()
    states = _States()
    directed = [states.rule(l, r) for l, r in _directed(eqs)]
    # seed order, not set order: a truncated search must not depend on hashing
    queue = deque({id(s): s for s in map(states.intern, seeds)}.values())
    size = states.size
    cap = bud.max_term_size or max((size[id(s)] for s in queue), default=1) + 4
    uf = _UnionFind()
    for s in queue:
        uf.find(s)
    seen = {id(s) for s in queue}
    states_left = bud.max_steps - len(seen)
    truncated = False
    while queue:
        s = queue.popleft()
        for nb in _neighbors(s, directed, cap, states):
            uf.union(s, nb)
            if id(nb) not in seen:
                if states_left <= 0:
                    truncated = True
                    continue
                states_left -= 1
                seen.add(id(nb))
                queue.append(nb)
    return uf, truncated


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


def _submultisets(items: list[tuple[Term, int]]) -> Iterator[Counter]:
    # all non-empty sub-multisets, deterministic order
    ranges = [range(n + 1) for _, n in items]
    for counts in itertools.product(*ranges):
        if not any(counts):
            continue
        yield Counter({t: c for (t, _), c in zip(items, counts) if c})


def _ac_match(
    sig: Signature,
    orientation: Orientation,
    p: Term,
    t: Term,
    binding: dict[str, Term],
) -> Iterator[dict[str, Term]]:
    """All matches of pattern p against term t modulo the AC constructors."""
    if isinstance(p, Var):
        bound = binding.get(p.name)
        if bound is not None:
            if bound == t:
                yield binding
            return
        b2 = dict(binding)
        b2[p.name] = t
        yield b2
        return
    if isinstance(p, Prim):
        if p == t:
            yield binding
        return
    if p.ctor in orientation:
        if not (isinstance(t, App) and t.ctor == p.ctor):
            return
        C = p.ctor
        pleaves = spine(C, p)
        tleaves = Counter(spine(C, t))
        yield from _ac_match_leaves(sig, orientation, C, pleaves, tleaves, binding)
        return
    if not (isinstance(t, App) and t.ctor == p.ctor and len(t.args) == len(p.args)):
        return
    yield from _match_seq(sig, orientation, list(p.args), list(t.args), binding)


def _match_seq(sig, orientation, ps, ts, binding) -> Iterator[dict[str, Term]]:
    if not ps:
        yield binding
        return
    for b in _ac_match(sig, orientation, ps[0], ts[0], binding):
        yield from _match_seq(sig, orientation, ps[1:], ts[1:], b)


def _ac_match_leaves(
    sig, orientation, C: str, pleaves: list[Term], remaining: Counter, binding
) -> Iterator[dict[str, Term]]:
    if not pleaves:
        if not remaining:
            yield binding
        return
    p, rest = pleaves[0], pleaves[1:]
    if isinstance(p, Var):
        bound = binding.get(p.name)
        if bound is not None:
            need = Counter(spine(C, bound))
            if all(remaining[k] >= n for k, n in need.items()):
                yield from _ac_match_leaves(
                    sig, orientation, C, rest, remaining - need, binding
                )
            return
        key = functools.cmp_to_key(lambda a, b: compare(sig, a, b))
        items = sorted(remaining.items(), key=lambda kv: key(kv[0]))
        for chosen in _submultisets(items):
            # chosen lists its leaves in items' order, so they come out sorted
            b2 = dict(binding)
            b2[p.name] = build_comb(
                C, list(chosen.elements()), orientation.get(C, "right")
            )
            yield from _ac_match_leaves(
                sig, orientation, C, rest, remaining - chosen, b2
            )
        return
    # non-variable pattern leaf consumes exactly one term leaf
    tried: set[Term] = set()
    for leaf in list(remaining):
        if leaf in tried:
            continue
        tried.add(leaf)
        for b in _ac_match(sig, orientation, p, leaf, binding):
            yield from _ac_match_leaves(
                sig, orientation, C, rest, remaining - Counter([leaf]), b
            )


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
    cache_hashes(tc)  # the matcher's Counters hash its leaves
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

    @property
    def unknown_only(self) -> bool:
        return not self.has_failures and bool(self.unknowns)

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
