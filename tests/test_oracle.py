"""Equality oracles and family validation.

Two independent truth sources are under test here, so they are checked
against each other: closure proofs must never contradict the algebraic
interpretation, and their partitions must coincide where the closure has
budget to answer.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import subprocess
import sys
from collections import deque

import pytest

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
    compile_family,
    equations_of,
    find_redex,
    normalize,
    parse_definition,
    semantic_key,
    validate_family,
)
import canonform.builder as builder
import canonform.oracle as oracle
from canonform.terms import _splice, positions, size, subterm_at

from conftest import load, terms

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
            if oracle._match_syntactic(l, sub, binding):
                inst = oracle._instantiate(r, binding)
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


def test_validate_type1_with_tiny_budget_reports_unknowns():
    sig, spec, fam = load("neu_rules")
    report = validate_family(
        fam, spec, sig, max_size=5, budget=ClosureBudget(max_steps=3)
    )
    assert report.unknown_only
    assert not report.ok
    assert "unknown" in report.summary()


def test_validate_type1_with_ample_budget_is_clean():
    sig, spec, fam = load("neu_rules")
    report = validate_family(
        fam, spec, sig, max_size=6, budget=ClosureBudget(max_steps=40000)
    )
    assert report.ok
