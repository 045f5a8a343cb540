"""Terms: ordering, positions, enumeration, and the printed syntax.

The reference model at the top is independent of the package: term counts
come from a plain size recurrence over constructor arities, and the
expected counts for the exp signature are frozen below after being computed
from that recurrence by hand-checkable dynamic programming.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import (
    EQ,
    GT,
    LT,
    App,
    Prim,
    Signature,
    SignatureError,
    PositionError,
    SortError,
    Var,
    compare,
    enumerate_ground,
    format_term,
    is_ground,
    parse_definition,
    parse_ground_term,
    positions,
    replace_at,
    size,
    sort_of,
    subterm_at,
    well_sorted,
)

from canonform.terms import cache_hashes, fold, map_vars, preorder

from conftest import BAG, FIXTURES, bag_universe, load, terms


# --- reference model -------------------------------------------------------


def counts_by_size(arities: list[int], max_size: int) -> list[int]:
    """Number of terms of each size 1..max_size over one sort, given only
    the constructors' arities: a constructor of arity k contributes, for
    each way of splitting n-1 nodes among its k arguments, the product of
    the argument counts."""
    import math

    c = [0] * (max_size + 1)
    for n in range(1, max_size + 1):
        total = 0
        for k in arities:
            if k == 0:
                total += 1 if n == 1 else 0
                continue
            for split in itertools.product(range(1, n), repeat=k):
                if sum(split) == n - 1:
                    total += math.prod(c[s] for s in split)
        c[n] = total
    return c[1:]


# Frozen: computed by counts_by_size([0, 0, 1, 2], 9) — the exp signature
# has two constants, one unary and one binary constructor.
EXP_COUNTS = [2, 2, 6, 14, 42, 122, 382, 1206, 3922]


def reference_compare(sig, t, u):
    """terms.compare as a plain recursion, the order the loop must keep."""
    if t is u:
        return EQ
    if isinstance(t, Var) or isinstance(u, Var):
        raise SortError("cannot order terms containing variables")
    tprim, uprim = isinstance(t, Prim), isinstance(u, Prim)
    if tprim != uprim:
        return LT if tprim else GT
    if tprim:
        if t.ptype != u.ptype:
            return (t.ptype > u.ptype) - (t.ptype < u.ptype)
        return (t.value > u.value) - (t.value < u.value)
    i, j = sig.index(t.ctor), sig.index(u.ctor)
    if i != j:
        return (i > j) - (i < j)
    for a, b in zip(t.args, u.args):
        c = reference_compare(sig, a, b)
        if c != EQ:
            return c
    return EQ


def reference_size(t):
    return 1 + sum(reference_size(a) for a in t.args) if isinstance(t, App) else 1


def reference_positions(t):
    yield ()
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            for p in reference_positions(a):
                yield (i,) + p


def rebuilt(t):
    """An equal copy of t that shares no node with it."""
    if isinstance(t, App):
        return App(t.ctor, tuple(map(rebuilt, t.args)))
    return Prim(t.ptype, t.value)


def s_chain(n, bottom=App("L")):
    t = bottom
    for _ in range(n):
        t = App("S", (t,))
    return t


SYN = Signature("t", [("L", []), ("S", ["t"]), ("P", ["t", "t"])])


ZERO, ONE = App("Zero"), App("One")


def opp(t):
    return App("Opp", (t,))


def plus(a, b):
    return App("Plus", (a, b))


@pytest.fixture(scope="module")
def exp_sig():
    return load("exp")[0]


# --- signature -------------------------------------------------------------


def test_signature_rejects_duplicates_and_unknown_sorts():
    with pytest.raises(SignatureError):
        Signature("t", [("A", []), ("A", [])])
    with pytest.raises(SignatureError):
        Signature("t", [("A", ["nosuch"])])


def test_signature_rejects_an_empty_or_primitive_sort_name():
    with pytest.raises(SignatureError, match="empty sort name"):
        Signature("", [])
    with pytest.raises(SignatureError, match="collides with a primitive type"):
        Signature("int", [])


def test_signature_repr_names_the_sort_and_its_constructors():
    sig = Signature("t", [("E", []), ("K", ["int"]), ("F", ["t"]), ("P", ["t", "t"])])
    assert repr(sig) == "Signature('t': E, K, F, P)"


def test_signature_lookup(exp_sig):
    assert "Plus" in exp_sig
    assert "Times" not in exp_sig
    assert exp_sig.declaration("Opp").arity == 1
    assert exp_sig.index("Zero") == 0 and exp_sig.index("Plus") == 3


# --- well-sortedness -------------------------------------------------------


def test_well_sorted_examples(exp_sig):
    assert well_sorted(exp_sig, plus(ZERO, ONE))
    assert not well_sorted(exp_sig, App("Opp", (ZERO, ONE)))  # wrong arity
    pat = plus(Var("x", "exp"), ZERO)
    assert well_sorted(exp_sig, pat, pattern=True)
    assert not well_sorted(exp_sig, pat)  # variables are not ground terms


def test_sort_of_primitives(exp_sig):
    tree = Signature("tree", [("Leaf", ["int"]), ("Node", ["tree", "tree"])])
    assert sort_of(tree, App("Leaf", (Prim("int", 3),))) == "tree"
    assert sort_of(tree, Prim("int", 3)) == "int"
    # booleans are not integers even though Python subclasses say otherwise
    assert sort_of(tree, Prim("int", True)) is None


# --- compare ---------------------------------------------------------------


def test_compare_examples(exp_sig):
    assert compare(exp_sig, ZERO, ZERO) == EQ
    assert compare(exp_sig, ZERO, ONE) == LT  # Zero declared first
    assert compare(exp_sig, ONE, opp(ONE)) == LT  # constructor index 1 < 2
    assert compare(exp_sig, opp(ONE), ONE) == GT


def test_compare_primitives_before_applications():
    tree = Signature("tree", [("Leaf", ["int"]), ("Node", ["tree", "tree"])])
    leaf = App("Leaf", (Prim("int", 0),))
    assert compare(tree, Prim("int", 5), leaf) == LT
    assert compare(tree, Prim("int", -2), Prim("int", 7)) == LT
    assert compare(tree, Prim("string", "a"), Prim("string", "b")) == LT
    # type name orders across primitive kinds: "int" < "string"
    assert compare(tree, Prim("int", 99), Prim("string", "")) == LT


def test_compare_rejects_variables(exp_sig):
    with pytest.raises(SortError):
        compare(exp_sig, Var("x", "exp"), ZERO)


def test_compare_is_a_total_order(exp_sig):
    universe = terms("exp", 5)
    # totality + antisymmetry
    for t, u in itertools.combinations(universe, 2):
        c, d = compare(exp_sig, t, u), compare(exp_sig, u, t)
        assert c in (LT, GT) and d == -c
    for t in universe:
        assert compare(exp_sig, t, t) == EQ
    # transitivity: sorting twice from different starting orders agrees
    import functools

    key = functools.cmp_to_key(lambda a, b: compare(exp_sig, a, b))
    once = sorted(universe, key=key)
    again = sorted(reversed(once), key=key)
    assert once == again
    for a, b, c in itertools.islice(itertools.combinations(once, 3), 50000):
        assert compare(exp_sig, a, c) == LT  # sorted order is transitive


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compare_eq_iff_structural(exp_sig, data):
    universe = terms("exp", 5)
    t = data.draw(st.sampled_from(universe))
    u = data.draw(st.sampled_from(universe))
    assert (compare(exp_sig, t, u) == EQ) == (t == u)


@pytest.mark.parametrize("name", ["exp", "vec", "aci", "bag"])
def test_compare_agrees_with_the_recursive_reference(name):
    """Every pair of terms of size <= 5 (and the int/string pairs of bag),
    each against the other term and against an equal copy of it."""
    if name == "bag":
        sig, universe = parse_definition(BAG)[0], bag_universe()
    else:
        sig, universe = load(name)[0], terms(name, 5)
    others = list(universe) + [rebuilt(u) for u in universe]
    for t in universe:
        for u in others:
            assert compare(sig, t, u) == reference_compare(sig, t, u), (t, u)


def test_compare_raises_where_the_recursive_reference_does(exp_sig):
    x = Var("x", "exp")
    nope = App("Nope")
    for t, u in [
        (x, ZERO),
        (ZERO, x),
        (plus(ONE, x), plus(ONE, ONE)),  # a variable behind an equal first argument
        (opp(x), opp(Var("y", "exp"))),
    ]:
        for a, b in ((t, u), (u, t)):
            with pytest.raises(SortError, match="variables"):
                compare(exp_sig, a, b)
            with pytest.raises(SortError, match="variables"):
                reference_compare(exp_sig, a, b)
    for t, u in [
        (nope, ZERO),
        (ZERO, nope),
        (nope, App("Nope")),  # the same unknown name on both sides
        (opp(nope), opp(App("Nope"))),
        (plus(ONE, nope), plus(ONE, ONE)),
    ]:
        with pytest.raises(SignatureError, match="unknown constructor 'Nope'"):
            compare(exp_sig, t, u)
        with pytest.raises(SignatureError, match="unknown constructor 'Nope'"):
            reference_compare(exp_sig, t, u)
    # checks run in order, so an earlier verdict wins over a later fault; an
    # ill-sorted pair of arities compares its common prefix
    for t, u in [
        (plus(ZERO, x), plus(ONE, ONE)),
        (plus(ZERO, nope), plus(ONE, ONE)),
        (nope, nope),
        (App("Plus", (ONE,)), plus(ONE, x)),
        (App("Plus", (ONE,)), plus(ZERO, ONE)),
    ]:
        for a, b in ((t, u), (u, t)):
            assert compare(exp_sig, a, b) == reference_compare(exp_sig, a, b)


def test_compare_walks_deep_chains_without_recursion():
    """Two 100,000-deep S chains, equal or differing at the bottom, under the
    default recursion limit; the chains also sit under P, where the second
    argument pair waits on the loop's stack."""
    n = 100_000
    a, b = s_chain(n), s_chain(n)
    c = s_chain(n, App("P", (App("L"), App("L"))))
    assert compare(SYN, a, b) == EQ
    assert compare(SYN, a, c) == LT and compare(SYN, c, a) == GT
    assert compare(SYN, App("P", (a, a)), App("P", (b, c))) == LT
    assert compare(SYN, App("P", (a, c)), App("P", (b, b))) == GT


# --- positions -------------------------------------------------------------


def test_position_examples(exp_sig):
    t = plus(ZERO, ONE)
    assert subterm_at(t, (1,)) == ZERO
    assert replace_at(exp_sig, t, (2,), ZERO) == plus(ZERO, ZERO)
    with pytest.raises(PositionError, match="position out of range"):
        replace_at(exp_sig, ZERO, (1,), ONE)


def test_replace_at_a_deep_position_without_recursion():
    """A 5,000-deep position, under the default recursion limit."""
    n = 5_000
    t = replace_at(SYN, s_chain(n), (1,) * n, App("P", (App("L"), App("L"))))
    assert compare(SYN, t, s_chain(n, App("P", (App("L"), App("L"))))) == EQ


def test_replace_at_rejects_ill_sorted():
    tree = Signature("tree", [("Leaf", ["int"]), ("Node", ["tree", "tree"])])
    leaf = App("Leaf", (Prim("int", 3),))
    with pytest.raises(SortError, match="ill-sorted replacement"):
        replace_at(tree, leaf, (1,), leaf)  # a tree where an int belongs


def test_position_round_trip(exp_sig):
    for t in terms("exp", 5):
        ps = list(positions(t))
        assert ps[0] == ()  # root first, preorder
        assert len(ps) == size(t)
        for p in ps:
            assert replace_at(exp_sig, t, p, subterm_at(t, p)) == t


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.rdt")), ids=lambda p: p.stem)
def test_size_and_positions_agree_with_the_recursive_walks(path):
    sig, _ = parse_definition(path.read_text())
    for t in enumerate_ground(sig, sig.rdt_sort, 6):
        assert size(t) == reference_size(t)
        assert list(positions(t)) == list(reference_positions(t))  # preorder, root first


def test_size_and_positions_walk_deep_terms_without_recursion():
    """Under the default recursion limit.  A full pass of positions over an
    n-deep chain yields n(n+1)/2 indices in all, so only its first few
    thousand positions are read; each one is already deeper than the limit
    a recursive generator allows."""
    n = 100_000
    deep = s_chain(n)
    assert size(deep) == n + 1
    first = list(itertools.islice(positions(deep), 3000))
    assert first == [(1,) * k for k in range(3000)]


# --- the walk kit: preorder and fold ------------------------------------------


def reference_preorder(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from reference_preorder(a)


def reference_fold(t, leaf, node, args=None):
    if not isinstance(t, App):
        return leaf(t)
    children = t.args if args is None else args(t)
    return node(t, tuple(reference_fold(a, leaf, node, args) for a in children))


def logged_fold(fold_fn, t, args=None):
    """fold_fn over t with callbacks that log every call in order."""
    log = []

    def leaf(u):
        log.append(("leaf", u))
        return format_term(u)

    def node(u, values):
        log.append(("node", u, values))
        return f"{u.ctor}[{' '.join(values)}]"

    return fold_fn(t, leaf, node, args), log


def backwards(u):
    return u.args[::-1]


WALKED = [
    App("F", (Var("x", "t"), Prim("int", 3), App("G", (App("E"), Prim("string", "s"))))),
    Var("x", "t"),
    Prim("int", -1),
    App("E"),
]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.rdt")), ids=lambda p: p.stem)
def test_preorder_and_fold_agree_with_the_recursive_walks(path):
    sig, _ = parse_definition(path.read_text())
    for t in [*enumerate_ground(sig, sig.rdt_sort, 6), *WALKED]:
        assert list(preorder(t)) == list(reference_preorder(t))
        assert logged_fold(fold, t) == logged_fold(reference_fold, t)
        assert logged_fold(fold, t, backwards) == logged_fold(reference_fold, t, backwards)


def test_preorder_fold_and_map_vars_walk_deep_terms_without_recursion():
    """Under the default recursion limit, a 100,000-deep chain as the second
    argument; its variable at the bottom is the last node in preorder."""
    n = 100_000
    t = App("P", (App("L"), s_chain(n, Var("x", "t"))))
    nodes = list(preorder(t))
    assert len(nodes) == n + 3 and nodes[0] is t and nodes[1] == App("L")
    assert nodes[-1] == Var("x", "t")
    depth = fold(t, lambda u: 1, lambda u, depths: 1 + max(depths, default=0))
    assert depth == n + 2
    u = map_vars(t, lambda v: App("L"))
    assert compare(SYN, u, App("P", (App("L"), s_chain(n)))) == EQ
    assert size(t) == n + 3 and not is_ground(t) and is_ground(u)


# --- enumeration -----------------------------------------------------------


def test_enumerate_smallest_sizes(exp_sig):
    assert enumerate_ground(exp_sig, "exp", 1) == [ZERO, ONE]
    assert enumerate_ground(exp_sig, "exp", 2) == [ZERO, ONE, opp(ZERO), opp(ONE)]


def test_enumerate_counts_match_recurrence(exp_sig):
    assert counts_by_size([0, 0, 1, 2], 9) == EXP_COUNTS
    got = enumerate_ground(exp_sig, "exp", 9)
    by_size: dict[int, int] = {}
    for t in got:
        by_size[size(t)] = by_size.get(size(t), 0) + 1
    assert [by_size.get(n, 0) for n in range(1, 10)] == EXP_COUNTS
    assert len(set(got)) == len(got)  # each term exactly once


def test_enumerate_is_deterministic_and_monotone(exp_sig):
    small = enumerate_ground(exp_sig, "exp", 4)
    assert small == enumerate_ground(exp_sig, "exp", 4)
    bigger = enumerate_ground(exp_sig, "exp", 5)
    assert bigger[: len(small)] == small  # smaller sizes come first, same order
    for t in enumerate_ground(exp_sig, "exp", 5):
        assert well_sorted(exp_sig, t) and is_ground(t) and size(t) <= 5


def test_enumerate_errors(exp_sig):
    with pytest.raises(SignatureError):
        enumerate_ground(exp_sig, "foo", 3)
    with pytest.raises(SignatureError):
        enumerate_ground(exp_sig, "exp", 0)
    tree = Signature("tree", [("Leaf", ["int"]), ("Node", ["tree", "tree"])])
    with pytest.raises(SignatureError):
        enumerate_ground(tree, "tree", 3)  # int leaves: unbounded domain
    with pytest.raises(SignatureError):
        enumerate_ground(tree, "int", 1)  # primitive sorts are not enumerable


# --- printing and parsing back ---------------------------------------------


def test_format_examples(exp_sig):
    assert format_term(plus(ZERO, opp(ONE))) == "Plus(Zero, Opp(One))"
    assert format_term(Prim("int", -4)) == "-4"
    assert format_term(Prim("string", 'a"b\\c')) == '"a\\"b\\\\c"'


def test_parse_format_round_trip(exp_sig):
    for t in terms("exp", 5):
        assert parse_ground_term(format_term(t), exp_sig) == t
    tree = Signature("tree", [("Leaf", ["int"]), ("Node", ["tree", "tree"])])
    samples = [
        App("Leaf", (Prim("int", -7),)),
        App("Node", (App("Leaf", (Prim("int", 0),)), App("Leaf", (Prim("int", 12),)))),
    ]
    for t in samples:
        assert parse_ground_term(format_term(t), tree) == t


def test_parse_string_escapes():
    s = Signature("s", [("Tag", ["string"])])
    t = App("Tag", (Prim("string", 'he said "hi"\\'),))
    assert parse_ground_term(format_term(t), s) == t


# --- dataclass contract and the cached hash --------------------------------


def test_app_keeps_its_dataclass_contract():
    assert [f.name for f in dataclasses.fields(App)] == ["ctor", "args"]
    assert App.__match_args__ == ("ctor", "args")
    t = plus(ZERO, opp(ONE))
    hash(t)  # filling the cache must not show in repr or equality
    assert repr(t) == (
        "App(ctor='Plus', args=(App(ctor='Zero', args=()), "
        "App(ctor='Opp', args=(App(ctor='One', args=()),))))"
    )
    assert t == plus(App("Zero"), opp(App("One")))
    match t:
        case App("Plus", (left, right)):
            assert (left, right) == (ZERO, opp(ONE))
        case _:
            pytest.fail("App no longer matches by position")


def test_equal_terms_built_separately_hash_equal():
    for t in terms("exp", 6):
        twin = parse_ground_term(format_term(t), load("exp")[0])
        assert twin is not t
        assert twin == t and hash(twin) == hash(t)


def test_app_hash_is_cached_and_not_pickled():
    t = plus(opp(ONE), ZERO)
    h = hash(t)
    assert hash(t) == h and t._hash == h
    assert t.args[0]._hash is not None  # children were hashed on the way
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        # a cached string hash would be wrong in another interpreter
        assert "_hash" not in vars(copied)
        assert copied == t and hash(copied) == h


def _chain(bottom, n=100_000):
    for _ in range(n):
        bottom = App("S", (bottom,))
    return bottom


def test_equality_walks_deep_terms_without_recursion():
    """== on two separately built S^100000(L), under the default recursion
    limit: equal, and unequal where the bottom or the depth differs, whether
    or not the hashes are cached."""
    a, b = _chain(App("L")), _chain(App("L"))
    assert a is not b and a == b and not a != b
    other, shorter = _chain(App("Z")), _chain(App("L"), 99_999)
    assert a != other and a != shorter and shorter != a
    assert a != _chain(Prim("int", 1)) and _chain(Prim("int", 1)) == _chain(Prim("int", 1))
    for t in (a, b, other):
        cache_hashes(t)
    assert a == b and a != other


def test_equality_agrees_with_the_printed_form():
    universe = list(terms("exp", 5)) + bag_universe()
    twins = [pickle.loads(pickle.dumps(t)) for t in universe]
    for t in universe:
        for u in twins:
            assert (t == u) == (format_term(t) == format_term(u)), (t, u)
    assert App("L") != Prim("string", "L") and Prim("string", "L") != App("L")
    assert App("U", (Prim("int", 1),)) != App("U", (Prim("int", True),))


def test_hash_walks_deep_terms_without_recursion():
    """hash() and set membership of a fresh S^100000(L), and of two fresh
    equal 5,000-leaf right combs, under the default recursion limit."""

    def comb(n):
        t = App("L")
        for i in range(n):
            t = App("P", (_chain(App("L"), i % 7), t))
        return t

    recursed = False
    try:
        a, b = _chain(App("L")), _chain(App("L"))
        members = {a}
        assert hash(b) == hash(a) and b in members and _chain(App("Z")) not in members
        c, d = comb(5000), comb(5000)
        assert hash(c) == hash(d) and d in {c} and c in {a, d}
    except RecursionError:
        # reported below: pytest's search of a deep traceback compares terms
        recursed = True
    assert not recursed, "hashing a deep term recursed"
