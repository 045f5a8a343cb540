"""Equality oracles and family validation.

Two independent truth sources are under test here, so they are checked
against each other: closure proofs must never contradict the algebraic
interpretation, and their partitions must coincide where the closure has
budget to answer.
"""

from __future__ import annotations

import functools
import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter, deque

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import canonform

from canonform import (
    App,
    ClosureBudget,
    OracleError,
    Prim,
    Var,
    builtin_presentation,
    classify,
    algebraic_equal,
    closure_classes,
    closure_equal,
    compare,
    compile_family,
    enumerate_ground,
    equations_of,
    find_redex,
    normalize,
    parse_definition,
    parse_ground_term,
    semantic_key,
    Variant,
    validate_family,
)
import canonform.acnf as acnf
from canonform import cli
import canonform.builder as builder
import canonform.oracle as oracle
from canonform.terms import _splice, cache_hashes, positions, preorder, size, subterm_at

from conftest import BAG, FIXTURES, bag_universe, instantiate, load, match_syntactic, terms

ZERO, ONE = App("Zero"), App("One")


def opp(t):
    return App("Opp", (t,))


def plus(a, b):
    return App("Plus", (a, b))


def ival(t) -> int:
    if t.ctor == "Zero":
        return 0
    if t.ctor == "One":
        return 1
    if t.ctor == "Opp":
        return -ival(t.args[0])
    return ival(t.args[0]) + ival(t.args[1])


# --- algebraic interpretation -------------------------------------------------


def test_algebraic_examples():
    sig, spec, _ = load("exp")
    cl = classify(spec, sig)
    assert algebraic_equal(cl, sig, plus(ONE, opp(ONE)), ZERO)
    assert not algebraic_equal(cl, sig, plus(ONE, ONE), ONE)

    sig, spec, _ = load("aci")
    cl = classify(spec, sig)
    X, Y = App("X"), App("Y")
    Or = lambda a, b: App("Or", (a, b))
    assert algebraic_equal(cl, sig, Or(X, Or(Y, X)), Or(Y, X))
    assert not algebraic_equal(cl, sig, Or(X, Y), Or(Y, Y))


def test_algebraic_matches_integer_oracle_on_exp():
    sig, spec, _ = load("exp")
    cl = classify(spec, sig)
    universe = terms("exp", 6)
    keys = {t: semantic_key(cl, sig, t) for t in universe}
    for t, u in itertools.islice(itertools.combinations(universe, 2), 200000):
        assert (keys[t] == keys[u]) == (ival(t) == ival(u))


def test_algebraic_nilpotent_distinguishes_absorber_from_nothing():
    sig, spec, _ = load("acnil")
    cl = classify(spec, sig)
    BOT, X, Y = App("Bot"), App("X"), App("Y")
    Xor = lambda a, b: App("Xor", (a, b))
    assert algebraic_equal(cl, sig, Xor(X, X), BOT)
    assert algebraic_equal(cl, sig, Xor(X, Xor(X, Y)), Xor(BOT, Y))
    # Bot next to a leaf is not the same as the leaf alone
    assert not algebraic_equal(cl, sig, Xor(BOT, Y), Y)
    assert algebraic_equal(cl, sig, Xor(BOT, BOT), BOT)


def test_semantic_key_rejects_rule_defined_constructors():
    sig, spec, _ = load("neu_rules")
    cl = classify(spec, sig)
    with pytest.raises(OracleError):
        semantic_key(cl, sig, App("C", (App("E"), App("G"))))


def test_semantic_key_reads_int_and_string_constants_and_rejects_variables():
    """Under an AC U, keys of BAG's terms are equal exactly when their
    normal forms are; a term with a variable has no key."""
    sig, spec = parse_definition(BAG + "\nwith U: associative, commutative")
    fam = compile_family(sig, spec)
    cl = fam.classification
    assert semantic_key(cl, sig, Prim("int", 7)) == ("p", "int", 7)
    assert semantic_key(cl, sig, Prim("string", "ab")) == ("p", "string", "ab")
    pairs = {(semantic_key(cl, sig, t), normalize(t, fam)) for t in bag_universe() if isinstance(t, App)}
    assert len({k for k, _ in pairs}) == len(pairs) == len({v for _, v in pairs}) < len(bag_universe())
    with pytest.raises(OracleError, match="non-ground"):
        semantic_key(cl, sig, App("U", (App("I", (Prim("int", 0),)), Var("x", "bag"))))


# --- bounded closure -----------------------------------------------------------


def test_closure_examples():
    sig, spec, _ = load("exp")
    eqs = equations_of(spec, sig)
    assert closure_equal(eqs, ONE, ONE)  # syntactic equality, zero steps
    assert closure_equal(eqs, plus(ZERO, ONE), ONE)
    assert closure_equal(eqs, plus(ONE, opp(ONE)), ZERO)
    assert not closure_equal(eqs, plus(ONE, ONE), ONE)


def test_closure_is_monotone_in_budget():
    sig, spec, _ = load("exp")
    eqs = equations_of(spec, sig)
    pairs = [
        (plus(ZERO, plus(ZERO, ONE)), ONE),
        (plus(opp(ONE), ONE), ZERO),
        (opp(ZERO), opp(ZERO)),
    ]
    for t, u in pairs:
        for b in (200, 2000, 20000):
            if closure_equal(eqs, t, u, ClosureBudget(max_steps=b)):
                assert closure_equal(eqs, t, u, ClosureBudget(max_steps=b * 2))


def test_closure_yes_implies_algebraic_equal():
    """Soundness: anything the closure merges really is equal under the
    exact interpretation.  (The converse fails for group theories — proofs
    that need to conjure a cancelling pair out of Zero are out of reach by
    design — so only this direction is asserted.)"""
    sig, spec, _ = load("exp")
    cl = classify(spec, sig)
    eqs = equations_of(spec, sig)
    universe = terms("exp", 5)
    uf, _truncated = closure_classes(eqs, universe, ClosureBudget(max_steps=40000))
    for t, u in itertools.combinations(universe, 2):
        if uf.find(t) == uf.find(u):
            assert algebraic_equal(cl, sig, t, u), (t, u)


def test_closure_partition_matches_algebraic_on_small_terms():
    """Where the closure has budget, its classes coincide with the exact
    interpretation (ACI theory: no inverse, so proofs never need to invent
    subterms and the closure can decide every pair at this scale)."""
    sig, spec, _ = load("aci")
    cl = classify(spec, sig)
    eqs = equations_of(spec, sig)
    universe = terms("aci", 7)
    uf, truncated = closure_classes(eqs, universe, ClosureBudget(max_steps=60000))
    assert not truncated
    for t, u in itertools.combinations(universe, 2):
        assert (uf.find(t) == uf.find(u)) == algebraic_equal(cl, sig, t, u), (t, u)


def test_truncated_closure_does_not_depend_on_hashing(fixtures_dir):
    """String hashes change between interpreters; a search cut short by its
    budget must still explore the same states, so the classes agree."""
    code = (
        "import pathlib, sys\n"
        "from canonform import (ClosureBudget, closure_classes, enumerate_ground,\n"
        "    equations_of, parse_definition)\n"
        "sig, spec = parse_definition(pathlib.Path(sys.argv[1]).read_text())\n"
        "u = enumerate_ground(sig, sig.rdt_sort, 5)\n"
        "uf, cut = closure_classes(equations_of(spec, sig), u, ClosureBudget(max_steps=400))\n"
        "assert cut\n"
        "classes = {}\n"
        "for t in u:\n"
        "    classes.setdefault(uf.find(t), []).append(str(t))\n"
        "print(sorted(sorted(c) for c in classes.values()))\n"
    )
    src = str(pathlib.Path(canonform.__file__).parents[1])
    outs = {
        subprocess.run(
            [sys.executable, "-c", code, str(fixtures_dir / "exp.rdt")],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(outs) == 1


def test_closure_budget_validation():
    with pytest.raises(OracleError):
        ClosureBudget(max_steps=0)
    with pytest.raises(OracleError):
        ClosureBudget(max_steps=10, max_term_size=0)


# The closure as it was before its states were interned: structural equality,
# a re-walk per position and a measured size per neighbour.  The interned
# search must reach the same states, in the same order, and the same classes.


def reference_neighbors(t, directed, cap):
    t_size = size(t)
    for pos in positions(t):
        sub = subterm_at(t, pos)
        rest = None
        for l, r in directed:
            binding = {}
            if match_syntactic(l, sub, binding):
                inst = instantiate(r, binding)
                if rest is None:
                    rest = t_size - size(sub)
                if rest + size(inst) <= cap:
                    yield _splice(t, pos, inst)


class ReferenceUnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.parent[x] = self.find(p)
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def reference_closure_classes(eqs, seeds, budget):
    cap = budget.max_term_size or max((size(s) for s in seeds), default=1) + 4
    directed = oracle._directed(eqs)
    uf = ReferenceUnionFind()
    queue = deque(dict.fromkeys(seeds))
    seen = set(queue)
    for s in queue:
        uf.find(s)
    states = len(seen)
    truncated = False
    while queue:
        s = queue.popleft()
        for nb in reference_neighbors(s, directed, cap):
            uf.union(s, nb)
            if nb not in seen:
                if states >= budget.max_steps:
                    truncated = True
                    continue
                states += 1
                seen.add(nb)
                queue.append(nb)
    return uf, truncated


def partition(uf):
    classes = {}
    for t in uf.parent:
        classes.setdefault(uf.find(t), set()).add(t)
    return {frozenset(c) for c in classes.values()}


def validation_seeds(name, max_size):
    # what validate_terms seeds the closure with: the terms, then their values
    _, _, fam = load(name)
    ts = terms(name, max_size)
    return list(dict.fromkeys([*ts, *(normalize(t, fam) for t in ts)]))


INT_RULE = "type t = A | I(int) | P(t, t)\nrule P(I(0), x) -> x\n"


def int_rule_seeds():
    # equal constants as distinct objects: interned, they are one state
    def i(v):
        return App("I", (Prim("int", v),))

    A = App("A")
    return [
        App("P", (i(0), A)),
        App("P", (i(0), App("P", (i(0), A)))),
        App("P", (A, i(0))),
        App("P", (i(1), i(0))),
        i(0),
        A,
    ]


CLOSURE_CASES = [
    *(("neu_rules", n, b) for n in (6, 7, 8) for b in (3, 500, 40_000)),
    *(("neu_rules", n, 50) for n in (3, 4, 5)),
    ("exp", 5, 400),
    ("exp", 5, 40_000),
    ("aci", 7, 60_000),
    ("vec", 5, 3_000),
]


@pytest.mark.parametrize("name,max_size,steps", CLOSURE_CASES)
def test_interned_closure_matches_the_reference(name, max_size, steps):
    sig, spec, _ = load(name)
    eqs = equations_of(spec, sig)
    seeds = validation_seeds(name, max_size)
    budget = ClosureBudget(max_steps=steps)
    uf, truncated = closure_classes(eqs, seeds, budget)
    ref, ref_truncated = reference_closure_classes(eqs, seeds, budget)
    assert truncated == ref_truncated
    assert list(uf.parent) == list(ref.parent)  # the same states, in order
    assert partition(uf) == partition(ref)
    for t in seeds:  # any term equal to a state finds its class
        assert uf.find(App(t.ctor, t.args)) is uf.find(t)


@pytest.mark.parametrize("steps", [2, 10, 1_000])
def test_interned_closure_matches_the_reference_with_int_constants(steps):
    sig, spec = parse_definition(INT_RULE)
    eqs = equations_of(spec, sig)
    budget = ClosureBudget(max_steps=steps)
    uf, truncated = closure_classes(eqs, int_rule_seeds(), budget)
    ref, ref_truncated = reference_closure_classes(eqs, int_rule_seeds(), budget)
    assert truncated == ref_truncated
    assert list(uf.parent) == list(ref.parent)  # the same states, in order
    assert partition(uf) == partition(ref)
    # one state per term, however many equal objects the seeds hold
    assert len(uf.parent) == len(set(uf.parent))
    A = App("A")
    assert uf.find(int_rule_seeds()[0]) is uf.find(A)


# Rule shapes the search's filters reason about: a rule that drops a
# variable (a step may shrink a state by any amount), a non-linear left side
# (its forward step has no least growth either) and a constant argument
# beside a nested pattern.  Seeded with the terms of one size and their
# values, each search reaches smaller terms as new states.
SHAPE_RULES = {
    "drop": "type t = E | S(t) | G(t, t)\nrule G(x, y) -> x\n",
    "nonlinear": "type t = E | S(t) | F(t, t)\nrule F(x, x) -> x\n",
    "nested": "type t = E | S(t) | H(t, t)\nrule H(S(x), E) -> x\n",
}


# 60 steps truncate each search and 1,000 none; a size cap of 4 lies below
# the seeds, so only steps that shrink a state stay within it
@pytest.mark.parametrize("steps,cap,cut", [(60, None, True), (1_000, None, False), (1_000, 4, False)])
@pytest.mark.parametrize("shape", sorted(SHAPE_RULES))
def test_interned_closure_matches_the_reference_on_rule_shapes(shape, steps, cap, cut):
    sig, spec = parse_definition(SHAPE_RULES[shape])
    fam = compile_family(sig, spec)
    ts = [t for t in enumerate_ground(sig, sig.rdt_sort, 7) if size(t) == 7]
    seeds = list(dict.fromkeys([*ts, *(normalize(t, fam) for t in ts)]))
    eqs = equations_of(spec, sig)
    budget = ClosureBudget(max_steps=steps, max_term_size=cap)
    uf, truncated = closure_classes(eqs, seeds, budget)
    ref, ref_truncated = reference_closure_classes(eqs, seeds, budget)
    assert truncated == ref_truncated == cut
    assert list(uf.parent) == list(ref.parent)  # the same states, in order
    assert partition(uf) == partition(ref)


def test_closure_compares_states_by_identity(monkeypatch):
    """Equal states are one object, so the search never compares two terms
    node by node.  Before interning, this closure made 53,159 App.__eq__
    calls over 461 states."""
    sig, spec, _ = load("neu_rules")
    seeds = validation_seeds("neu_rules", 6)
    calls = 0
    app_eq = App.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return app_eq(self, other)

    monkeypatch.setattr(App, "__eq__", counting_eq)
    uf, truncated = closure_classes(
        equations_of(spec, sig), seeds, ClosureBudget(max_steps=40_000)
    )
    monkeypatch.undo()
    assert not truncated and len(uf.parent) == 461
    assert calls <= len(seeds), calls


def test_closure_hashes_no_term_and_matches_only_where_a_rule_can_fire(monkeypatch):
    """The union-find runs on identities, and a rule is matched only at a
    subterm of its head and ground arguments, in a state its least growth
    keeps within the cap.  A term-keyed union-find that tried every rule
    everywhere made 28,656 App.__hash__ and 7,790 _match_state calls here."""
    sig, spec, _ = load("neu_rules")
    seeds = validation_seeds("neu_rules", 6)
    calls = Counter()
    app_hash, match_state = App.__hash__, oracle._match_state

    def counting_hash(self):
        calls["hash"] += 1
        return app_hash(self)

    def counting_match(*args):
        calls["match"] += 1
        return match_state(*args)

    monkeypatch.setattr(App, "__hash__", counting_hash)
    monkeypatch.setattr(oracle, "_match_state", counting_match)
    uf, truncated = closure_classes(
        equations_of(spec, sig), seeds, ClosureBudget(max_steps=40_000)
    )
    monkeypatch.undo()
    assert not truncated and len(uf.parent) == 461
    assert calls["hash"] <= 4 * len(uf.parent), calls
    assert calls["match"] <= 4 * len(uf.parent), calls


@pytest.mark.parametrize("max_size,keys", [(6, 461), (8, 2_930)])
def test_closure_matches_each_term_and_rule_once(monkeypatch, max_size, keys):
    """Each interned term's neighbours are built once, from its arguments'
    lists, so a rule is matched at most once per (term, rule) pair however
    many states share the term.  Rewriting every subterm inside each state
    made 1,238 and 9,120 _match_state calls here."""
    sig, spec, _ = load("neu_rules")
    seeds = validation_seeds("neu_rules", max_size)
    calls = 0
    match_state = oracle._match_state

    def counting_match(*args):
        nonlocal calls
        calls += 1
        return match_state(*args)

    monkeypatch.setattr(oracle, "_match_state", counting_match)
    uf, truncated = closure_classes(
        equations_of(spec, sig), seeds, ClosureBudget(max_steps=40_000)
    )
    monkeypatch.undo()
    assert not truncated and len(uf.parent) == keys
    assert calls <= len(uf.parent), calls


# Random rule sets over one signature, against the reference search: sides
# that drop a variable, repeat one, are a bare variable or hold a constant
# beside a nested pattern, under budgets that truncate and caps below and
# above the seeds.  A random rule set need not terminate, so the seeds are
# the enumerated terms themselves, not their normal forms.
RANDOM_RULES_SIG = "type t = E | S(t) | G(t, t)\n"
E, X, Y = App("E"), Var("x", "t"), Var("y", "t")


def S(a):
    return App("S", (a,))


def G(a, b):
    return App("G", (a, b))


rule_sides = st.recursive(
    st.sampled_from([E, X, Y]),
    lambda kids: st.one_of(kids.map(S), st.builds(G, kids, kids)),
    max_leaves=4,
)


@given(
    eqs=st.lists(st.tuples(rule_sides, rule_sides), min_size=1, max_size=3),
    steps=st.integers(1, 500),
    cap=st.one_of(st.none(), st.integers(3, 9)),
)
@example(eqs=[(G(X, Y), X)], steps=500, cap=None)
@example(eqs=[(G(X, X), X)], steps=500, cap=4)
@example(eqs=[(G(S(X), E), X)], steps=40, cap=None)
@example(eqs=[(X, S(X)), (G(X, E), E)], steps=500, cap=7)
def test_interned_closure_matches_the_reference_on_random_rules(eqs, steps, cap):
    sig, _ = parse_definition(RANDOM_RULES_SIG)
    seeds = list(enumerate_ground(sig, sig.rdt_sort, 5))
    budget = ClosureBudget(max_steps=steps, max_term_size=cap)
    uf, truncated = closure_classes(eqs, seeds, budget)
    ref, ref_truncated = reference_closure_classes(eqs, seeds, budget)
    assert truncated == ref_truncated
    assert list(uf.parent) == list(ref.parent)  # the same states, in order
    assert partition(uf) == partition(ref)


# --- redex search ----------------------------------------------------------------


def test_find_redex_examples():
    sig, spec, fam = load("exp")
    th = classify(spec, sig).carrier["Plus"]
    rules = builtin_presentation(th, sig)
    orient = {"Plus": "right"}
    assert find_redex(sig, plus(ZERO, ONE), rules, orient) is not None
    assert find_redex(sig, ONE, rules, orient) is None
    assert find_redex(sig, plus(ONE, opp(ONE)), rules, orient) is not None
    # the match works modulo AC: the cancelling pair sits apart in the comb
    spread = plus(opp(App("X")), plus(ONE, App("X")))
    sig2, spec2, _ = load("vec")
    th2 = classify(spec2, sig2).carrier["Plus"]
    rules2 = builtin_presentation(th2, sig2)
    buried = plus(opp(App("A")), plus(App("B"), App("A")))
    hit = find_redex(sig2, buried, rules2, {"Plus": "right"})
    assert hit is not None
    assert normalize(buried, load("vec")[2]) == App("B")


def test_values_of_valid_family_are_redex_free():
    sig, spec, fam = load("exp")
    th = classify(spec, sig).carrier["Plus"]
    rules = builtin_presentation(th, sig)
    for t in terms("exp", 6):
        assert find_redex(sig, normalize(t, fam), rules, {"Plus": "right"}) is None


def test_find_redex_without_rules_reads_no_term():
    """With no rules there is nothing to find, so the term is not re-combed:
    a pattern variable, which the term order rejects, goes unread."""
    sig, _, _ = load("exp")
    t = plus(App("One"), plus(Var("x", "exp"), ZERO))
    assert find_redex(sig, t, [], {"Plus": "right"}) is None


def test_find_redex_matches_a_repeated_variable_outside_an_ac_spine():
    sig, spec = parse_definition("type t = A | B | F(t, t)\nrule F(x, x) -> x")
    rules = list(spec.rules)
    same = App("F", (App("A"), App("A")))
    assert find_redex(sig, same, rules, {}) == (same, rules[0])
    assert find_redex(sig, App("F", (App("A"), App("B"))), rules, {}) is None


def test_find_redex_matches_an_int_constant_pattern():
    sig, spec = parse_definition("type t = A | I(int) | F(t)\nrule F(I(0)) -> A")
    rules = list(spec.rules)
    zero = App("F", (App("I", (Prim("int", 0),)),))
    assert find_redex(sig, zero, rules, {}) == (zero, rules[0])
    assert find_redex(sig, App("F", (App("I", (Prim("int", 1),)),)), rules, {}) is None


DEEP_REDEXES = {
    "syn_group": App("P", (App("L"), App("N", (App("L"),)))),
    "syn_nil": App("P", (App("L"), App("L"))),
    "syn_idem": App("P", (App("L"), App("L"))),
}


@pytest.mark.parametrize("name", sorted(DEEP_REDEXES))
def test_find_redex_walks_deep_terms_without_recursion(name):
    """The presentation's rules on P(L, S^100000(L)), a normal form, and on
    the same term with a redex at the bottom of the chain, under the default
    recursion limit."""
    defs = pathlib.Path(__file__).parent.parent / "perfbench" / "defs"
    sig, spec = parse_definition((defs / f"{name}.rdt").read_text())
    fam = compile_family(sig, spec)
    rules = oracle._presentation(fam, spec, sig)
    orientation = fam.orientations()

    def deep(bottom):
        for _ in range(100_000):
            bottom = App("S", (bottom,))
        return App("P", (App("L"), bottom))

    assert find_redex(sig, deep(App("L")), rules, orientation) is None
    hit = find_redex(sig, deep(DEEP_REDEXES[name]), rules, orientation)
    assert hit is not None and hit[0] == DEEP_REDEXES[name]


def _redex_or_fail(sig, t, rules, orientation):
    try:
        return find_redex(sig, t, rules, orientation)
    except RecursionError:
        pass
    # failing outside the handler keeps pytest from searching the deep
    # traceback for recursion, which takes minutes
    pytest.fail("find_redex raised RecursionError", pytrace=False)


def test_find_redex_matches_deep_patterns_without_recursion():
    """Under the default recursion limit: a left-hand side nested 1,500
    deep, and one whose AC spine has 1,201 pattern leaves, each on the term
    it describes."""
    sig, spec = parse_definition(
        "type t = E | S(t) | C(t, t)\nrule C(" + "S(" * 1500 + "x" + ")" * 1500 + ", E) -> x"
    )
    t = parse_ground_term("C(" + "S(" * 1500 + "E" + ")" * 1500 + ", E)", sig)
    assert _redex_or_fail(sig, t, list(spec.rules), {}) == (t, spec.rules[0])
    sum_ = "P(A, " * 1200 + "A" + ")" * 1200
    sig, spec = parse_definition(
        f"type t = A | E | F(t) | P(t, t)\nwith P: associative, commutative\nrule F({sum_}) -> E"
    )
    t = parse_ground_term(f"F({sum_})", sig)
    assert _redex_or_fail(sig, t, list(spec.rules), {"P": "right"}) == (t, spec.rules[0])
    short = parse_ground_term("F(" + "P(A, " * 1199 + "A" + ")" * 1199 + ")", sig)
    assert _redex_or_fail(sig, short, list(spec.rules), {"P": "right"}) is None


# --- validate_family --------------------------------------------------------------


def test_validate_clean_families():
    for name, size in [("exp", 8), ("aci", 7), ("acnil", 7), ("left_group", 7)]:
        sig, spec, fam = load(name)
        report = validate_family(fam, spec, sig, max_size=size)
        assert report.ok, f"{name}: {report.summary()}"
        assert report.summary() == f"valid at scale {size}"
        assert report.machine_lines() == []


def test_validate_free_family_is_trivially_valid():
    sig, spec, fam = load("free")
    report = validate_family(fam, spec, sig, max_size=6)
    assert report.ok


def test_validate_detects_broken_insert(monkeypatch):
    """Insertion that ignores the leaf order must produce completeness
    counterexamples like Plus(a,b) vs Plus(b,a)."""
    sig, spec, _ = load("vec")

    def no_sort(ctor, x, u, fam, table=None):
        return App(ctor, (x, u))

    monkeypatch.setattr(builder, "insert", no_sort)
    fam = compile_family(sig, spec)
    report = validate_family(fam, spec, sig, max_size=5)
    assert report.has_failures
    assert report.completeness, report.summary()
    for line in report.machine_lines():
        kind = line.split("\t")[0]
        assert kind in {"correctness", "completeness", "acnf", "redex", "unknown"}


def unsorted_insert(ctor, x, u, fam, table=None):
    return App(ctor, (x, u))


def never_cancel(ctor, x_inv, y, fam, table=None):
    inv = fam.entries[ctor].theory.inverse
    x = builder.inverse_cf(inv, x_inv, fam, table)
    return builder.insert(ctor, x, y, fam, table)


@pytest.mark.parametrize(
    "name, attr, sabotage, summary",
    [
        ("vec", "insert", unsorted_insert, "scale 5: 24 completeness, 24 acnf"),
        ("vec", "insert_inv", never_cancel, "scale 5: 8 completeness, 8 redex"),
        ("left_group", "insert", unsorted_insert, "scale 5: 24 completeness, 32 acnf"),
        ("left_group", "insert_inv", never_cancel, "scale 5: 8 completeness, 8 redex"),
        (
            "acnil", "insert", unsorted_insert,
            "scale 5: 58 completeness, 37 acnf, 45 redex",
        ),
    ],
)
def test_validate_reports_the_normal_forms_of_a_sabotaged_build(
    monkeypatch, name, attr, sabotage, summary
):
    """validate_family builds each normal form from its arguments' normal
    forms; every value it reports must still be what normalize returns."""
    sig, spec, _ = load(name)
    monkeypatch.setattr(builder, attr, sabotage)
    fam = compile_family(sig, spec)
    report = validate_family(fam, spec, sig, max_size=5)
    assert report.summary() == summary
    pairs = report.correctness + report.acnf_violations
    pairs += [(t, v) for t, v, _ in report.redexes]
    pairs += [(t, v) for _, t, v in report.unknowns]
    assert pairs
    for t, v in pairs:
        assert v == normalize(t, fam), t


def test_validate_prints_a_correctness_counterexample(monkeypatch, capsys):
    """An insert that drops its leaf: Plus(A, A) comes out as A, which the
    algebraic key tells apart from the input."""
    monkeypatch.setattr(builder, "insert", lambda ctor, x, u, fam, table=None: u)
    assert cli.main(["validate", str(FIXTURES / "vec.rdt"), "--size", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "correctness\tPlus(A, A)\tA"
    assert out[-1] == "scale 4: 12 correctness, 4 completeness"


def test_validate_reports_unproved_correctness_of_a_rule_family(monkeypatch, capsys):
    """Clauses whose right-hand side always builds E: the closure proves no
    equation false, so C(G, E) -> E is an unknown, not a counterexample."""
    monkeypatch.setattr(builder, "_eval_rhs", lambda rhs, binding, fam: App("E"))
    assert cli.main(["validate", str(FIXTURES / "neu_rules.rdt"), "--size", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "completeness\tG\tC(E, G)",
        "completeness\tG\tC(G, E)",
        "unknown\tC(E, G)\tE\tcorrectness not proved within budget",
        "unknown\tC(G, E)\tE\tcorrectness not proved within budget",
        "scale 4: 2 completeness, 2 unknown",
    ]


def test_validate_type1_with_tiny_budget_reports_unknowns():
    sig, spec, fam = load("neu_rules")
    report = validate_family(
        fam, spec, sig, max_size=5, budget=ClosureBudget(max_steps=3)
    )
    assert not report.has_failures and report.unknowns
    assert not report.ok
    assert "unknown" in report.summary()


def test_validate_type1_with_ample_budget_is_clean():
    sig, spec, fam = load("neu_rules")
    report = validate_family(
        fam, spec, sig, max_size=6, budget=ClosureBudget(max_steps=40000)
    )
    assert report.ok


def test_report_prints_each_kind_in_its_own_shape():
    """A report built by hand, with items of every kind: each line is its
    kind's label and two terms, then a redex's rule or an unknown's note;
    the lines and the summary take the kinds in one order."""
    a, b, pab = App("A"), App("B"), App("P", (App("A"), App("B")))
    report = oracle.ValidationReport(
        max_size=3,
        unknowns=[("closure budget exhausted", a, pab)],
        redexes=[(pab, a, "P(x, B) -> x")],
        acnf_violations=[(pab, b)],
        completeness=[(b, pab)],
        correctness=[(pab, a), (a, b)],
    )
    assert report.machine_lines() == [
        "correctness\tP(A, B)\tA",
        "correctness\tA\tB",
        "completeness\tB\tP(A, B)",
        "acnf\tP(A, B)\tB",
        "redex\tP(A, B)\tA\tP(x, B) -> x",
        "unknown\tA\tP(A, B)\tclosure budget exhausted",
    ]
    assert report.summary() == (
        "scale 3: 2 correctness, 1 completeness, 1 acnf, 1 redex, 1 unknown"
    )
    assert report.has_failures and not report.ok
    unknowns = oracle.ValidationReport(max_size=3, unknowns=report.unknowns)
    assert not unknowns.has_failures and not unknowns.ok
    assert unknowns.summary() == "scale 3: 1 unknown"
    for kind in ("correctness", "completeness", "acnf_violations", "redexes"):
        one = oracle.ValidationReport(max_size=3, **{kind: getattr(report, kind)})
        assert one.has_failures and not one.ok, kind
    empty = oracle.ValidationReport(max_size=3)
    assert empty.ok and not empty.has_failures
    assert empty.machine_lines() == [] and empty.summary() == "valid at scale 3"


def test_union_find_answers_an_unmet_term_without_filing_it():
    """find answers a term the closure never met with the term itself, and
    the asking leaves the class map as it was."""
    sig, spec, _ = load("neu_rules")
    uf, truncated = closure_classes(equations_of(spec, sig), [App("G")])
    assert not truncated
    entries = dict(uf.parent)
    unmet = App("C", (App("G"), App("G")))
    assert unmet not in entries
    assert uf.find(unmet) is unmet
    assert uf.parent == entries
    assert uf.find(App("C", (App("G"), App("E")))) == uf.find(App("G"))


def _ungrouped_find_redex(sig, t, rules, orientation):
    """find_redex as a plain double loop: every rule at every subterm."""
    tc = acnf._recomb(t, orientation, acnf.spine, sig)
    cache_hashes(tc)
    for sub in preorder(tc):
        for rule in rules:
            for _ in oracle._ac_match(sig, orientation, rule.lhs, sub, {}):
                return sub, rule
    return None


def _same_hit(a, b):
    return a is b or (a is not None and b is not None and a[0] == b[0] and a[1] is b[1])


@pytest.mark.parametrize("name", ["vec", "left_group", "exp", "aci", "acnil", "free", "neu_rules"])
def test_find_redex_grouped_by_head_agrees_with_the_plain_loop(name):
    """Trying at each subterm only the rules of its head constructor finds
    the same (subterm, rule) as trying every rule, on every term up to size
    6 and on its value."""
    sig, spec, fam = load(name)
    rules = oracle._presentation(fam, spec, sig)
    orientation = fam.orientations()
    hits = 0
    for t in terms(name, 6):
        for u in (t, normalize(t, fam)):
            hit = find_redex(sig, u, rules, orientation)
            assert _same_hit(hit, _ungrouped_find_redex(sig, u, rules, orientation)), u
            hits += hit is not None
    assert hits > 0 or not rules


def test_find_redex_grouped_by_head_agrees_on_a_deep_term():
    defs = pathlib.Path(__file__).parent.parent / "perfbench" / "defs"
    sig, spec = parse_definition((defs / "syn_group.rdt").read_text())
    fam = compile_family(sig, spec)
    rules = oracle._presentation(fam, spec, sig)
    orientation = fam.orientations()
    for bottom in (App("L"), DEEP_REDEXES["syn_group"]):
        t = bottom
        for _ in range(100_000):
            t = App("S", (t,))
        t = App("P", (App("L"), t))
        hit = find_redex(sig, t, rules, orientation)
        assert _same_hit(hit, _ungrouped_find_redex(sig, t, rules, orientation))
    assert hit is not None


# --- the AC leaf matcher -----------------------------------------------------------
# The matcher as it was before the pattern leaves that need no choice went
# first: each variable in spine order got every sub-multiset of what
# remained.  find_redex returns a subterm and a rule, not a binding, so the
# new matcher must find the same first hit.


def reference_submultisets(items):
    ranges = [range(n + 1) for _, n in items]
    for counts in itertools.product(*ranges):
        if not any(counts):
            continue
        yield Counter({t: c for (t, _), c in zip(items, counts) if c})


def reference_ac_match(sig, orientation, p, t, binding):
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
        pleaves = acnf.spine(C, p)
        tleaves = Counter(acnf.spine(C, t))
        yield from reference_ac_match_leaves(sig, orientation, C, pleaves, tleaves, binding)
        return
    if not (isinstance(t, App) and t.ctor == p.ctor and len(t.args) == len(p.args)):
        return
    yield from reference_match_seq(sig, orientation, list(p.args), list(t.args), binding)


def reference_match_seq(sig, orientation, ps, ts, binding):
    if not ps:
        yield binding
        return
    for b in reference_ac_match(sig, orientation, ps[0], ts[0], binding):
        yield from reference_match_seq(sig, orientation, ps[1:], ts[1:], b)


def reference_ac_match_leaves(sig, orientation, C, pleaves, remaining, binding):
    if not pleaves:
        if not remaining:
            yield binding
        return
    p, rest = pleaves[0], pleaves[1:]
    if isinstance(p, Var):
        bound = binding.get(p.name)
        if bound is not None:
            need = Counter(acnf.spine(C, bound))
            if all(remaining[k] >= n for k, n in need.items()):
                yield from reference_ac_match_leaves(
                    sig, orientation, C, rest, remaining - need, binding
                )
            return
        key = functools.cmp_to_key(lambda a, b: compare(sig, a, b))
        items = sorted(remaining.items(), key=lambda kv: key(kv[0]))
        for chosen in reference_submultisets(items):
            b2 = dict(binding)
            b2[p.name] = acnf.build_comb(C, list(chosen.elements()), orientation.get(C, "right"))
            yield from reference_ac_match_leaves(
                sig, orientation, C, rest, remaining - chosen, b2
            )
        return
    tried = set()
    for leaf in list(remaining):
        if leaf in tried:
            continue
        tried.add(leaf)
        for b in reference_ac_match(sig, orientation, p, leaf, binding):
            yield from reference_ac_match_leaves(
                sig, orientation, C, rest, remaining - Counter([leaf]), b
            )


def reference_find_redex(sig, t, rules, orientation):
    tc = acnf._recomb(t, orientation, acnf.spine, sig)
    for sub in preorder(tc):
        for rule in rules:
            for _ in reference_ac_match(sig, orientation, rule.lhs, sub, {}):
                return sub, rule
    return None


@pytest.mark.parametrize("name", ["vec", "left_group", "exp", "aci", "acnil", "free", "neu_rules"])
def test_leaf_matcher_finds_the_hit_of_the_reference(name):
    """The same (subterm, rule) as the matcher that listed every
    sub-multiset for each variable in turn, on every term up to size 6 and
    on its value."""
    sig, spec, fam = load(name)
    rules = oracle._presentation(fam, spec, sig)
    orientation = fam.orientations()
    hits = 0
    for t in terms(name, 6):
        for u in (t, normalize(t, fam)):
            hit = find_redex(sig, u, rules, orientation)
            assert _same_hit(hit, reference_find_redex(sig, u, rules, orientation)), u
            hits += hit is not None
    assert hits > 0 or not rules


@pytest.mark.parametrize("name", ["syn_idem", "syn_nil"])
def test_leaf_matcher_is_polynomial_in_the_distinct_leaves_of_a_comb(monkeypatch, name):
    """A normal comb of 14 distinct leaves S^k(L) has no redex; the
    reference matcher built a comb for each of its 2^14 - 1 sub-multisets
    under C(x, C(x, y)), this one builds none for a variable that occurs
    twice, and at most one per leaf for the last variable."""
    sig, spec = parse_definition((SYN_DEFS / f"{name}.rdt").read_text())
    fam = compile_family(sig, spec)
    rules = oracle._presentation(fam, spec, sig)
    real_build_comb = oracle.build_comb
    calls = []

    def counting_build_comb(*args):
        calls.append(args)
        return real_build_comb(*args)

    monkeypatch.setattr(oracle, "build_comb", counting_build_comb)
    chain = App("L")
    for _ in range(13):
        chain = App("S", (chain,))
    leaves = list(preorder(chain))
    value = normalize(functools.reduce(lambda t, leaf: App("P", (leaf, t)), leaves), fam)
    assert find_redex(sig, value, rules, fam.orientations()) is None
    assert len(calls) <= 14**2


# --- the interpretation as one signed leaf multiset ------------------------------
# semantic_key as it was before one loop read every theory: a recursive walk
# per variant and one key encoding each.  Its keys have another shape, so the
# new keys must induce the same partition: equal exactly when these are.
# Both read a spine's leaves by their keys: a leaf keyed as the unit drops
# out, and one keyed as a sum of the same theory adds its items.


def reference_semantic_key(cl, sig, t):
    if isinstance(t, Var):
        raise OracleError("interpretation of non-ground term")
    if isinstance(t, Prim):
        return ("p", t.ptype, t.value)
    if t.ctor in cl.type1:
        raise OracleError(f"no algebraic interpretation for rule-defined constructor {t.ctor!r}")
    th = cl.owner.get(t.ctor)
    if th is None:
        return ("f", t.ctor, tuple(reference_semantic_key(cl, sig, a) for a in t.args))
    return reference_theory_key(cl, sig, th, t)


def reference_atom_key(cl, sig, th, t):
    if isinstance(t, App) and t.ctor in (th.unit, th.absorber) and t.ctor is not None:
        return ("f", t.ctor, ())
    return reference_semantic_key(cl, sig, t)


def reference_theory_key(cl, sig, th, t):
    unit_key = ("f", th.unit, ()) if th.unit is not None else None

    def set_key(tag, keys):
        if not keys:
            return unit_key
        if len(keys) == 1:
            return next(iter(keys))
        return (tag, th.ctor, frozenset(keys))

    if th.variant is Variant.GROUP:
        vec = Counter()

        def grp(s, sign):
            if isinstance(s, App) and s.ctor == th.inverse:
                grp(s.args[0], -sign)
            elif isinstance(s, App) and s.ctor == th.ctor:
                grp(s.args[0], sign)
                grp(s.args[1], sign)
            else:
                k = reference_atom_key(cl, sig, th, s)
                if k[:2] == ("g", th.ctor):  # a leaf that is a sum of th
                    for item, n in k[2]:
                        vec[item] += sign * n
                elif k != unit_key:
                    vec[k] += sign

        grp(t, 1)
        vec = Counter({k: n for k, n in vec.items() if n != 0})
        if not vec:
            return unit_key
        if len(vec) == 1:
            (k, n), = vec.items()
            if n == 1:
                return k
        return ("g", th.ctor, frozenset(vec.items()))

    bag = Counter()

    def flat(s):
        if isinstance(s, App) and s.ctor == th.ctor:
            flat(s.args[0])
            flat(s.args[1])
            return
        k = reference_atom_key(cl, sig, th, s)
        if k[:2] == ("m", th.ctor):  # a leaf that is a sum of th
            bag.update(dict(k[2]))
        elif k[0] in ("s", "n") and k[1] == th.ctor:
            bag.update(k[2])
        elif k != unit_key:
            bag[k] += 1

    flat(t)
    if th.variant is Variant.AC:
        if sum(bag.values()) == 1:
            return next(iter(bag))
        return ("m", th.ctor, frozenset(bag.items()))
    if th.variant in (Variant.ACI, Variant.ACI_NEU):
        return set_key("s", bag.keys())
    a_key = ("f", th.absorber, ())
    if th.absorber == th.unit:
        return set_key("n", {k for k, n in bag.items() if n % 2 == 1})
    absorbers = bag.pop(a_key, 0)
    has_a = absorbers >= 1 or any(n >= 2 for n in bag.values())
    keys = {k for k, n in bag.items() if n % 2 == 1}
    if has_a:
        keys.add(a_key)
    return set_key("n", keys)


SYN_DEFS = pathlib.Path(__file__).parent.parent / "perfbench" / "defs"

# Theories no accepted fixture declares, with Z the unit, O the absorber and
# N the inverse where a row has them.
PARTITION_TYPES = {
    "aci_neu": "type t = Z | A | B | S(t) | P(t, t)\n"
    "with P: associative, commutative, neutral(Z), idempotent",
    "acnil_neu": "type t = Z | O | A | B | S(t) | P(t, t)\n"
    "with P: associative, commutative, neutral(Z), nilpotent(O)",
    "acnil_unit": "type t = Z | A | B | S(t) | P(t, t)\n"
    "with P: associative, commutative, neutral(Z), nilpotent(Z)",
    "group_and_nil": "type t = Z | O | A | N(t) | P(t, t) | X(t, t)\n"
    "with P: associative, commutative, neutral(Z), inverse(N)\n"
    "with X: associative left, commutative, nilpotent(O)",
}


def partition_family(name):
    if name in PARTITION_TYPES:
        text = PARTITION_TYPES[name]
    elif (SYN_DEFS / f"{name}.rdt").exists():
        text = (SYN_DEFS / f"{name}.rdt").read_text()
    else:
        return load(name)[:2]
    return parse_definition(text)


def _key_or_error(key, cl, sig, t):
    try:
        return key(cl, sig, t)
    except OracleError as e:
        return ("error", str(e))


@pytest.mark.parametrize(
    "name",
    [
        "aci", "acnil", "exp", "free", "left_group", "neu_rules", "vec",
        "syn_ac", "syn_group", "syn_idem", "syn_left_group", "syn_nil",
        *PARTITION_TYPES,
    ],
)
def test_signed_multiset_keys_induce_the_recursive_partition(name):
    sig, spec = partition_family(name)
    cl = classify(spec, sig)
    pairs = set()
    for t in enumerate_ground(sig, sig.rdt_sort, 7):
        ref = _key_or_error(reference_semantic_key, cl, sig, t)
        new = _key_or_error(semantic_key, cl, sig, t)
        if "error" in (ref[0], new[0]):
            assert ref == new, t  # the same OracleError
        pairs.add((ref, new))
    # equal new keys exactly when the reference keys are equal: a bijection
    assert len({ref for ref, _ in pairs}) == len(pairs) == len({new for _, new in pairs})


@pytest.mark.parametrize("name", ["group_and_nil", "layered"])
def test_keys_are_in_bijection_with_the_normal_forms_of_layered_types(name):
    """Independent of both key functions: on types that layer two catalog
    theories, two terms up to size 7 get equal keys exactly when they
    normalize to one value."""
    sig, spec = partition_family(name)
    fam = compile_family(sig, spec)
    cl = fam.classification
    pairs = {(semantic_key(cl, sig, t), normalize(t, fam)) for t in enumerate_ground(sig, sig.rdt_sort, 7)}
    assert len({k for k, _ in pairs}) == len(pairs) == len({v for _, v in pairs})


def test_layered_sums_are_algebraically_equal_to_their_normal_forms():
    """A Q-sum whose value is B, the unit of X, drops out of an X-sum, and a
    Q-sum whose value is an X-sum adds its leaves to the X-sum around it."""
    sig, spec = parse_definition(
        "type t = E | A | B | F(t, t) | Q(t, t) | X(t, t)\n"
        "with Q: associative, commutative, idempotent, neutral(E)\n"
        "with X: associative, commutative, nilpotent(A), neutral(B)"
    )
    fam = compile_family(sig, spec)
    for text in ("X(Q(B, B), F(A, A))", "X(Q(X(A, F(A, A)), X(A, F(A, A))), F(B, B))"):
        t = parse_ground_term(text, sig)
        assert algebraic_equal(fam.classification, sig, t, normalize(t, fam)), text


def test_equal_keys_of_separately_built_terms_are_one_object():
    """Under syn_ac, separately parsed sums of a 1,500-deep leaf, and
    1,500-deep chains over sums, are algebraically equal: their keys are
    one object, so no comparison walks them.  Constants too get one key."""
    sig, spec = parse_definition((SYN_DEFS / "syn_ac.rdt").read_text())
    cl = classify(spec, sig)
    deep = "S(" * 1500 + "{}" + ")" * 1500
    leaf = deep.format("L")
    for a, b in [(f"P({leaf}, L)", f"P(L, {leaf})"), (deep.format("P(L, S(L))"), deep.format("P(S(L), L)"))]:
        t, u = parse_ground_term(a, sig), parse_ground_term(b, sig)
        equal = None
        try:
            equal = algebraic_equal(cl, sig, t, u)
        except RecursionError:
            pass
        if equal is None:  # outside the handler, as in _redex_or_fail
            pytest.fail("algebraic_equal raised RecursionError", pytrace=False)
        assert equal
        kt, ku = oracle._keys(cl, t, u)
        assert kt is ku
    k1, k2 = oracle._keys(cl, App("L"), App("L"))
    assert k1 is k2


def _balanced(leaves):
    while len(leaves) > 1:
        pairs = [App("P", tuple(leaves[i:i + 2])) for i in range(0, len(leaves) - 1, 2)]
        leaves = pairs + leaves[len(leaves) - len(leaves) % 2:]
    return leaves[0]


# Every catalog row over one signature: Z is the unit, O the absorber and N
# the inverse where the row has them, and plain constructors elsewhere.
CATALOG_TYPE = "type t = Z | O | A | S(t) | N(t) | P(t, t)"
DEEP_COMB_ATTRS = {
    Variant.AC: "commutative",
    Variant.GROUP: "commutative, neutral(Z), inverse(N)",
    Variant.ACI: "commutative, idempotent",
    Variant.ACI_NEU: "commutative, neutral(Z), idempotent",
    Variant.ACNIL: "commutative, nilpotent(O)",
    Variant.ACNIL_NEU: "commutative, neutral(Z), nilpotent(O)",
}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_semantic_key_reads_5000_leaf_combs_without_recursion(variant):
    """Both orientations of a random 5,000-leaf comb get the key of their
    normal form, taken from a balanced sum of the same leaves (its
    normalization merges, where the combs' would insert leaf by leaf)."""
    sig, spec = parse_definition(f"{CATALOG_TYPE}\nwith P: associative, {DEEP_COMB_ATTRS[variant]}")
    fam = compile_family(sig, spec)
    cl = fam.classification
    assert cl.carrier["P"].variant is variant
    A = App("A")
    SA = App("S", (A,))
    pool = [A, SA, App("S", (SA,)), App("Z"), App("O"), App("N", (A,)), App("N", (App("P", (A, SA)),))]
    rng = random.Random(5000)
    leaves = [rng.choice(pool) for _ in range(5000)]
    assert sys.getrecursionlimit() == 1000

    def key(t):
        try:
            return semantic_key(cl, sig, t)
        except RecursionError:
            pass
        # failing outside the handler keeps the deep traceback out of the
        # report, which pytest would take minutes to search for recursion
        pytest.fail("semantic_key raised RecursionError", pytrace=False)

    nf_key = key(normalize(_balanced(leaves), fam))
    for orientation in ("right", "left"):
        assert key(acnf.build_comb("P", leaves, orientation)) == nf_key, orientation


def test_semantic_key_walks_deep_free_terms_without_recursion():
    """Under syn_ac, S^100000(L) gets its nested key, read back here with a
    loop.  P(S^1500(L), S^1500(L)), parsed so that the leaf is one shared
    object, is algebraically equal to its normal form: the leaf gets one key
    object, so neither the sum's multiset nor the comparison walks it."""
    sig, spec = parse_definition((SYN_DEFS / "syn_ac.rdt").read_text())
    fam = compile_family(sig, spec)
    cl = fam.classification
    t = App("L")
    for _ in range(100_000):
        t = App("S", (t,))

    def shallow(f, *args):
        try:
            return f(cl, sig, *args)
        except RecursionError:
            pass
        # failing outside the handler keeps pytest from searching the deep
        # traceback for recursion, which takes minutes
        pytest.fail(f"{f.__name__} raised RecursionError", pytrace=False)

    key, depth = shallow(semantic_key, t), 0
    while key[1] == "S":
        key, depth = key[2][0], depth + 1
    assert (depth, key) == (100_000, ("f", "L", ()))
    leaf = "S(" * 1500 + "L" + ")" * 1500
    t = parse_ground_term(f"P({leaf}, {leaf})", sig)
    assert shallow(algebraic_equal, t, normalize(t, fam))
    assert not shallow(algebraic_equal, t, parse_ground_term(f"P({leaf}, L)", sig))


def test_semantic_key_of_a_sum_of_a_100000_deep_leaf_returns():
    """Under syn_ac, P(S^100000(L), L) gets its key, and it is algebraically
    equal to P(L, S^100000(L)).  The sum's multiset hashes the leaf's key,
    nested 100,000 deep: were that hash to walk the key, CPython's tuple
    hash would recurse in C with no guard and end the process with a
    segmentation fault, so the check runs in a subprocess."""
    code = (
        "import pathlib, sys\n"
        "from canonform import App, algebraic_equal, classify, parse_definition, semantic_key\n"
        "sig, spec = parse_definition(pathlib.Path(sys.argv[1]).read_text())\n"
        "cl = classify(spec, sig)\n"
        "leaf = L = App('L')\n"
        "for _ in range(100000):\n"
        "    leaf = App('S', (leaf,))\n"
        "key = semantic_key(cl, sig, App('P', (leaf, L)))\n"
        "assert key[:2] == ('ac', 'P'), key[:2]\n"
        "assert algebraic_equal(cl, sig, App('P', (leaf, L)), App('P', (L, leaf)))\n"
    )
    src = str(pathlib.Path(canonform.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SYN_DEFS / "syn_ac.rdt")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])


def recursive_semantic_key(cl, t):
    """semantic_key as a recursive reading, as it was before one loop read
    the whole term: the reference for the keys themselves."""
    if isinstance(t, Prim):
        return ("p", t.ptype, t.value)
    th = cl.owner.get(t.ctor)
    if th is None:
        return ("f", t.ctor, tuple(recursive_semantic_key(cl, a) for a in t.args))
    bag = Counter()
    stack = [(t, 1)]
    while stack:
        s, sign = stack.pop()
        if not isinstance(s, App) or s.ctor not in th.symbols():
            bag[recursive_semantic_key(cl, s)] += sign
        elif s.ctor == th.ctor:
            stack += ((s.args[1], sign), (s.args[0], sign))
        elif s.ctor == th.inverse:
            stack.append((s.args[0], -sign))
        elif s.ctor != th.unit:  # the absorber
            bag[("f", s.ctor, ())] += sign
    return oracle._theory_key(th, list(bag), list(bag.values()))


@pytest.mark.parametrize(
    "name",
    [
        "aci", "acnil", "exp", "free", "left_group", "vec",
        "syn_ac", "syn_group", "syn_idem", "syn_left_group", "syn_nil",
        *PARTITION_TYPES,
    ],
)
def test_semantic_key_equals_the_recursive_reading(name):
    sig, spec = partition_family(name)
    cl = classify(spec, sig)
    for t in enumerate_ground(sig, sig.rdt_sort, 6):
        assert semantic_key(cl, sig, t) == recursive_semantic_key(cl, t), t
