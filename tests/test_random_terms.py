"""Random terms beyond the exhaustive bound.

The exhaustive checks stop at size 9 or so; here hypothesis draws
well-sorted ground terms of 20-2,000 nodes, with sums bracketed at random,
and checks that normalize keeps the algebraic key and is idempotent, that
the generated module's normalize gives the same value on tuples, and that
each value is AC-normal and leaves no redex of the theory's presentation,
that normalizing in a hash-consing table gives the same value, shared, and
that the term parsed back from its text, which shares equal subterms,
normalizes to the same value and fills a table alike.  Sums drawn from a
pool of 1-3 shared leaf objects put long runs of one leaf into the combs,
where the AC walks reuse one comparison across the run.
The example count comes from the hypothesis profile (tests/conftest.py):
small by default, larger with HYPOTHESIS_PROFILE=ci.
"""

from __future__ import annotations

import functools
import pathlib
import random

from hypothesis import given
from hypothesis import strategies as st

from canonform import (
    App,
    HashConsTable,
    compile_family,
    find_redex,
    format_term,
    is_ac_normal,
    normalize,
    parse_definition,
    parse_ground_term,
    semantic_key,
)
from canonform import builder, oracle
from canonform.emit import emit_code
from canonform.terms import fold, size

from conftest import load

SYN_DEFS = pathlib.Path(__file__).parent.parent / "perfbench" / "defs"
FAMILIES = ["vec", "left_group", "exp", "aci", "acnil", "syn_ac", "syn_group", "syn_idem", "syn_nil"]
# semantic_key recurses through free constructors by design: keep their
# nesting well inside the recursion limit
MAX_FREE_DEPTH = 50


@functools.lru_cache(maxsize=None)
def family(name):
    path = SYN_DEFS / f"{name}.rdt"
    if not path.exists():
        return load(name)[0], load(name)[2]
    sig, spec = parse_definition(path.read_text())
    return sig, compile_family(sig, spec)


@functools.lru_cache(maxsize=None)
def emitted(name):
    """The family's generated normalize, and the rules of which its values
    must hold no redex."""
    sig, fam = family(name)
    path = SYN_DEFS / f"{name}.rdt"
    spec = parse_definition(path.read_text())[1] if path.exists() else load(name)[1]
    ns: dict = {}
    exec(emit_code(fam), ns)
    return ns["normalize"], oracle._presentation(fam, spec, sig)


def to_tuple(t):
    """The generated module's form of a ground term."""
    return fold(t, lambda u: u.value, lambda u, args: (u.ctor, *args))


def random_term(sig, free, rng, n):
    """A ground term of the data sort with n or n - 1 nodes.  A binary node
    splits its budget at random, so sums come in every bracketing; no path
    holds more than MAX_FREE_DEPTH free constructors."""
    by_arity: dict[int, list[str]] = {}
    for d in sig.constructors:
        assert all(s == sig.rdt_sort for s in d.arg_sorts), d
        by_arity.setdefault(d.arity, []).append(d.name)
    nullary, binary = by_arity[0], by_arity.get(2, [])

    def build(n, depth):
        # a free unary node needs room for itself and for a free leaf below it
        unary = [c for c in by_arity.get(1, []) if c not in free or depth + 1 < MAX_FREE_DEPTH]
        if not unary and n % 2 == 0:
            n -= 1  # binary nodes and leaves alone build odd sizes only
        if n == 1:
            return App(rng.choice(nullary))
        if n == 2 or (unary and rng.random() < 0.2):
            c = rng.choice(unary)
            return App(c, (build(n - 1, depth + (c in free)),))
        c = rng.choice(binary)
        if unary:
            a = rng.randint(1, n - 2)
        else:  # both parts odd
            a = 2 * rng.randint(0, (n - 3) // 2) + 1
        d = depth + (c in free)
        return App(c, (build(a, d), build(n - 1 - a, d)))

    return build(n, 0)


def free_depth(t, free):
    """The most free constructors on one path of t."""
    most, stack = 0, [(t, 0)]
    while stack:
        u, depth = stack.pop()
        depth += u.ctor in free
        most = max(most, depth)
        stack.extend((a, depth) for a in u.args)
    return most


@given(st.sampled_from(FAMILIES), st.integers(20, 2000), st.randoms(use_true_random=False))
def test_normalize_keeps_the_key_of_random_terms(name, n, rng):
    sig, fam = family(name)
    cl = fam.classification
    free = set(cl.free)
    t = random_term(sig, free, rng, n)
    assert n - 1 <= size(t) <= n and free_depth(t, free) <= MAX_FREE_DEPTH
    v = normalize(t, fam)
    assert semantic_key(cl, sig, t) == semantic_key(cl, sig, v)
    assert normalize(v, fam) == v


@given(st.sampled_from(FAMILIES), st.integers(20, 2000), st.randoms(use_true_random=False))
def test_values_of_random_terms_agree_with_the_generated_module_and_hold_no_redex(name, n, rng):
    sig, fam = family(name)
    gen_normalize, rules = emitted(name)
    orientation = fam.orientations()
    t = random_term(sig, set(fam.classification.free), rng, n)
    v = normalize(t, fam)
    assert gen_normalize(to_tuple(t)) == to_tuple(v)
    assert is_ac_normal(sig, v, orientation)
    assert find_redex(sig, v, rules, orientation) is None


@given(st.sampled_from(FAMILIES), st.integers(20, 2000), st.randoms(use_true_random=False))
def test_normalizing_random_terms_in_a_table_gives_the_plain_value_once(name, n, rng):
    sig, fam = family(name)
    t = random_term(sig, set(fam.classification.free), rng, n)
    table = HashConsTable(sig)
    v = normalize(t, fam, table)
    assert v == normalize(t, fam)
    assert normalize(t, fam, table) is v


@given(st.sampled_from(FAMILIES), st.integers(20, 2000), st.randoms(use_true_random=False))
def test_a_parsed_random_term_shares_its_subterms_and_normalizes_to_the_same_value(name, n, rng):
    sig, fam = family(name)
    t = random_term(sig, set(fam.classification.free), rng, n)
    dag = parse_ground_term(format_term(t), sig)
    v = normalize(t, fam)
    assert normalize(dag, fam) == v
    tables = HashConsTable(sig), HashConsTable(sig)
    assert normalize(dag, fam, tables[0]) == v == normalize(t, fam, tables[1])
    assert tables[0].sharing_stats() == tables[1].sharing_stats()


def pooled_sum(sig, fam, rng, n):
    """A sum of n leaves drawn from a pool of 1-3 leaf objects, each a small
    random term, bracketed at random.  Equal leaves are one object, so their
    values are one object too and the combs hold long runs of one leaf."""
    free = set(fam.classification.free)
    ctor = next(iter(fam.classification.carrier))
    pool = [random_term(sig, free, rng, rng.randint(1, 7)) for _ in range(rng.randint(1, 3))]

    def build(k):
        if k == 1:
            return rng.choice(pool)
        a = rng.randint(1, k - 1)
        return App(ctor, (build(a), build(k - a)))

    return build(n)


# find_redex re-reads each suffix of a comb, so its time grows faster than
# the square of the comb's length (a 200-leaf vec sum of a few runs takes
# about 0.8 s, a 400-leaf one 4 s): these sums stop at 200 leaves
@given(st.sampled_from(FAMILIES), st.integers(2, 200), st.randoms(use_true_random=False))
def test_sums_of_a_few_shared_leaves_agree_everywhere_and_are_canonical(name, n, rng):
    """Long runs of one shared leaf: the walks reuse a comparison across a
    run, and the value must still be the generated module's, AC-normal,
    free of redexes and the same with a table."""
    sig, fam = family(name)
    gen_normalize, rules = emitted(name)
    t = pooled_sum(sig, fam, rng, n)
    v = normalize(t, fam)
    assert gen_normalize(to_tuple(t)) == to_tuple(v)
    assert is_ac_normal(sig, v, fam.orientations())
    assert find_redex(sig, v, rules, fam.orientations()) is None
    assert normalize(t, fam, HashConsTable(sig)) == v


def test_the_value_checks_catch_the_sabotaged_inserts_of_criterion_7(monkeypatch):
    """The checks above on 30 vec terms of 20-200 nodes, under the two
    sabotaged builds of criterion 7.  An insert that does not sort leaves
    values that are not AC-normal; a group insert that never cancels leaves
    a redex x + Opp(x).  Both builds keep every leaf, so the key check
    cannot see either; of the checks on a value alone, only the redex
    check sees the second."""
    sig, fam = family("vec")
    _, rules = emitted("vec")
    orientation = fam.orientations()
    free = set(fam.classification.free)
    ts = []
    for k in range(30):
        rng = random.Random(k)
        ts.append(random_term(sig, free, rng, rng.randint(20, 200)))
    real_insert = builder.insert

    def unsorted_insert(ctor, x, u, fam, table=None):
        return App(ctor, (x, u))

    def never_cancel(ctor, x_inv, y, fam, table=None):
        inv = fam.entries[ctor].theory.inverse
        return real_insert(ctor, builder.inverse_cf(inv, x_inv, fam, table), y, fam, table)

    values = [normalize(t, fam) for t in ts]
    assert all(is_ac_normal(sig, v, orientation) for v in values)
    assert all(find_redex(sig, v, rules, orientation) is None for v in values)
    monkeypatch.setattr(builder, "insert", unsorted_insert)
    assert any(not is_ac_normal(sig, normalize(t, fam), orientation) for t in ts)
    monkeypatch.undo()
    monkeypatch.setattr(builder, "insert_inv", never_cancel)
    assert any(find_redex(sig, normalize(t, fam), rules, orientation) is not None for t in ts)
