"""Maximal sharing: interning, id/structure agreement, sharing statistics.

The reference predicate for "how many nodes should exist" is the number
of distinct subterms, computed here by brute-force set construction.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest

from canonform import (
    App,
    CanonError,
    HashConsTable,
    Prim,
    SignatureError,
    SortError,
    Var,
    cli,
    compile_family,
    construct,
    format_term,
    normalize,
    parse_definition,
    parse_ground_term,
)

from conftest import FIXTURES, load, terms

ZERO, ONE = App("Zero"), App("One")


def opp(t):
    return App("Opp", (t,))


def plus(a, b):
    return App("Plus", (a, b))


def distinct_subterms(ts) -> set:
    seen = set()
    stack = list(ts)
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if isinstance(t, App):
            stack.extend(t.args)
    return seen


def test_intern_is_idempotent_and_shared():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    one = table.intern("One", ())
    assert table.intern("One", ()) == one
    s = table.intern("Plus", (one, one))
    assert table.intern("Plus", (one, one)) == s
    assert s != one
    # Plus(One, One) holds exactly two nodes and two edges
    assert table.sharing_stats() == (2, 2)
    assert table.to_term(s) == plus(ONE, ONE)
    # both children resolve to the very same object
    term = table.to_term(s)
    assert term.args[0] is term.args[1]


def test_empty_table():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    assert len(table) == 0
    assert table.sharing_stats() == (0, 0)


def test_from_term_round_trip():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    for t in [ZERO, opp(ONE), plus(opp(ONE), plus(ZERO, ONE))]:
        assert table.to_term(table.from_term(t)) == t
        assert table.canonical(t) == t
        assert table.canonical(t) is table.canonical(t)


def test_node_count_equals_distinct_subterm_count():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    universe = terms("exp", 6)
    for t in universe:
        table.from_term(t)
    nodes, _edges = table.sharing_stats()
    assert nodes == len(distinct_subterms(universe))


def test_id_equality_coincides_with_structural_equality():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    universe = terms("exp", 7)
    ids = [table.from_term(t) for t in universe]
    # enumeration yields pairwise distinct terms, so ids must be distinct
    assert len(set(ids)) == len(universe)
    for t, i in zip(universe, ids):
        assert table.from_term(t) == i


def test_error_paths():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    with pytest.raises(CanonError):
        table.to_term(0)  # nothing interned yet
    with pytest.raises(CanonError):
        table.to_term("zero")
    with pytest.raises(SignatureError):
        table.intern("Mystery", ())
    one = table.intern("One", ())
    with pytest.raises(SignatureError):
        table.intern("Plus", (one,))  # Plus is binary
    with pytest.raises(SignatureError):
        table.intern_prim("float", 1.0)
    with pytest.raises(SortError):
        table.from_term(Var("x", "exp"))


def test_prim_interning():
    text = "type cell = Nil | Cons(int, cell)"
    sig, spec = parse_definition(text)
    table = HashConsTable(sig)
    five = table.intern_prim("int", 5)
    assert table.intern_prim("int", 5) == five
    assert table.to_term(five) == Prim("int", 5)
    with pytest.raises(SortError):
        table.intern_prim("int", True)  # bools are not int constants


def test_ill_sorted_children_are_rejected():
    # construct rejects these values, so the table must not hold them either
    sig, _ = parse_definition("type cell = Nil | Cons(int, cell)")
    table = HashConsTable(sig)
    nil, one = table.intern("Nil", ()), table.intern_prim("int", 1)
    with pytest.raises(SortError):
        table.intern("Cons", (nil, nil))
    with pytest.raises(SortError):
        table.intern("Cons", (one, one))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (App("Nil"), App("Nil"))))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (Prim("int", 1), Prim("int", 2))))
    stored = [table.to_term(i) for i in range(len(table))]
    assert not any(isinstance(t, App) and t.ctor == "Cons" for t in stored)
    good = table.intern("Cons", (one, nil))
    assert table.canonical(App("Cons", (Prim("int", 1), App("Nil")))) is table.to_term(good)


def test_bool_constant_is_rejected_after_its_int_twin_is_interned():
    # True == 1 with equal hashes: the check must not depend on what the table holds
    sig, _ = parse_definition("type cell = Nil | Cons(int, cell)")
    table = HashConsTable(sig)
    table.intern_prim("int", 1)
    with pytest.raises(SortError):
        table.from_term(Prim("int", True))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (Prim("int", True), App("Nil"))))
    # nor on a whole App already interned with the int in the same place
    table.canonical(App("Cons", (Prim("int", 1), App("Nil"))))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (Prim("int", True), App("Nil"))))


def test_construct_with_table_interns_results():
    sig, spec, fam = load("exp")
    table = HashConsTable(sig)
    a = construct("Plus", (ONE, opp(ONE)), fam, table)
    assert a == ZERO
    assert a is table.canonical(ZERO)
    b = construct("Plus", (ONE, ZERO), fam, table)
    c = construct("Plus", (ZERO, ONE), fam, table)
    assert b is c  # same value, same node


def test_nonlinear_guard_agrees_under_sharing():
    """Guards compare subterms; interning must not change what a guard sees."""
    text = (
        "type t = A | B | M(t, t)\n"
        "rule M(x, x) -> x\n"
    )
    sig, spec = parse_definition(text)
    fam = compile_family(sig, spec)
    table = HashConsTable(sig)
    A, B = App("A"), App("B")
    for args in [(A, A), (A, B), (B, B)]:
        assert construct("M", args, fam, table) == construct("M", args, fam)


def test_normalize_with_sharing_matches_plain_normalize():
    sig, spec, fam = load("exp")
    table = HashConsTable(sig)
    for t in terms("exp", 6):
        assert normalize(t, fam, table) == normalize(t, fam)


# --- interning by the terms' own cached hash --------------------------------


def test_from_term_keeps_the_callers_object_when_children_are_canonical():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    one = table.canonical(App("One"))
    t = plus(one, opp(one))
    assert table.canonical(t.args[1]) is t.args[1]  # intern the child first
    assert table.canonical(t) is t
    # a child that is equal but not the canonical object forces a rebuild
    u = plus(opp(App("One")), one)
    v = table.canonical(u)
    assert v == u and v is not u
    assert v.args[0] is t.args[1] and v.args[1] is one
    assert table.canonical(plus(opp(App("One")), App("One"))) is v


def test_edges_equal_the_arities_of_distinct_subterms():
    text = "type cell = Nil | Cons(int, cell) | Tag(string, cell) | Pair(cell, cell)"
    sig, _ = parse_definition(text)
    nil = App("Nil")

    def cons(n, c):
        return App("Cons", (Prim("int", n), c))

    def tag(s, c):
        return App("Tag", (Prim("string", s), c))

    samples = [
        nil,
        cons(1, cons(2, nil)),
        tag("a", cons(1, nil)),
        App("Pair", (cons(1, nil), tag("a", cons(1, nil)))),
        App("Pair", (tag("b", nil), tag("b", nil))),
    ]
    cases = [(sig, samples), (load("exp")[0], list(terms("exp", 6)))]
    for sig, universe in cases:
        table = HashConsTable(sig)
        for t in universe:
            table.from_term(t)
        seen = distinct_subterms(universe)
        arities = sum(len(s.args) for s in seen if isinstance(s, App))
        assert table.sharing_stats() == (len(seen), arities)


@pytest.mark.parametrize(
    "name, ac, pool",
    [
        ("exp", "Plus", ["Zero", "One", "Opp(One)"]),
        ("vec", "Plus", ["Zero", "A", "B", "Opp(A)", "Opp(B)"]),
        ("left_group", "Plus", ["Zero", "A", "B", "Opp(A)", "Opp(B)"]),
        ("aci", "Or", ["X", "Y"]),
        ("acnil", "Xor", ["Bot", "X", "Y"]),
    ],
)
def test_norm_sharing_counts_cover_the_value_and_the_input_leaves(capsys, name, ac, pool):
    """`norm --sharing` interns what the construction functions return, not
    necessarily every partial sum; its counts must still cover each distinct
    subterm of the normal form and of every input leaf, with their arities."""
    sig, _, fam = load(name)
    rng = random.Random(11)
    for n in (2, 7, 16, 40):
        parts = [rng.choice(pool) for _ in range(n)]
        sums = parts
        while len(sums) > 1:  # balanced, so combs meet combs
            sums = [f"{ac}({a}, {b})" for a, b in zip(sums[::2], sums[1::2])] + sums[len(sums) - len(sums) % 2 :]
        assert cli.main(["norm", str(FIXTURES / f"{name}.rdt"), "--sharing", "-e", sums[0]]) == 0
        out, err = capsys.readouterr()
        nodes, edges = map(int, re.fullmatch(r"sharing: nodes=(\d+) edges=(\d+)\n", err).groups())
        value = normalize(parse_ground_term(sums[0], sig), fam)
        assert out == format_term(value) + "\n"
        seen = distinct_subterms([value] + [normalize(parse_ground_term(p, sig), fam) for p in parts])
        assert nodes >= len(seen), sums[0]
        assert edges >= sum(len(t.args) for t in seen if isinstance(t, App)), sums[0]


def test_sharing_hashes_each_node_a_bounded_number_of_times(monkeypatch):
    """A lookup must hash O(arity) nodes, not the whole term under it.

    With a recursively recomputed hash this ratio grows with the sum's size;
    on the 200-leaf sum below it is then in the hundreds.
    """
    sig, spec = parse_definition(
        "type n = L | S(n) | P(n, n)\nwith P: associative, commutative\n"
    )
    fam = compile_family(sig, spec)
    rng = random.Random(7)

    def leaf():
        t = App("L")
        for _ in range(rng.randrange(20)):
            t = App("S", (t,))
        return t

    def balanced(n):
        if n == 1:
            return leaf()
        return App("P", (balanced(n // 2), balanced(n - n // 2)))

    term = balanced(200)
    counts = {"hash": 0, "from_term": 0}
    app_hash, from_term = App.__hash__, HashConsTable.from_term

    def counting_hash(self):
        counts["hash"] += 1
        return app_hash(self)

    def counting_from_term(self, t):
        counts["from_term"] += 1
        return from_term(self, t)

    monkeypatch.setattr(App, "__hash__", counting_hash)
    monkeypatch.setattr(HashConsTable, "from_term", counting_from_term)
    shared = normalize(term, fam, HashConsTable(sig))
    monkeypatch.undo()
    assert shared == normalize(term, fam)
    assert counts["from_term"] > 0
    assert counts["hash"] <= 8 * counts["from_term"], counts


def test_sharing_normalizes_a_large_balanced_sum_without_recursion():
    """With a table, a merge hands from_term a whole rebuilt comb prefix: it is
    interned (and hashed) without recursion.  Results are read with loops,
    since == and format_term on a 5,000-leaf comb recurse."""
    sig, spec = parse_definition("type t = L | S(t) | P(t, t)\nwith P: associative, commutative")
    fam = compile_family(sig, spec)
    rng = random.Random(8)

    def s_power(k):
        t = App("L")
        for _ in range(k):
            t = App("S", (t,))
        return t

    def spine(t):
        out = []
        while isinstance(t, App) and t.ctor == "P":
            out.append(t.args[0])
            t = t.args[1]
        return out + [t]

    t = [s_power(rng.randrange(20)) for _ in range(5000)]
    while len(t) > 1:
        t = [App("P", tuple(t[i : i + 2])) if i + 1 < len(t) else t[i] for i in range(0, len(t), 2)]
    table = HashConsTable(sig)
    shared = normalize(t[0], fam, table)
    assert spine(shared) == spine(normalize(t[0], fam))  # leaves compare shallowly
    seen = distinct_subterms([shared])
    counts = (len(seen), sum(len(s.args) for s in seen if isinstance(s, App)))
    fresh = HashConsTable(sig)
    fresh.from_term(shared)
    assert fresh.sharing_stats() == counts
    nodes, edges = table.sharing_stats()  # partial sums are interned too
    assert nodes >= counts[0] and edges >= counts[1]


def test_sharing_normalizes_a_sum_of_a_large_sum_with_itself():
    """P(X, X), X a balanced 300-leaf sum: looking up a rebuilt comb that
    equals an interned one compares the two without recursion."""
    sig, spec = parse_definition("type t = L | S(t) | P(t, t)\nwith P: associative, commutative")
    fam = compile_family(sig, spec)
    rng = random.Random(300)

    def s_power(k):
        t = App("L")
        for _ in range(k):
            t = App("S", (t,))
        return t

    def balanced(leaves):
        while len(leaves) > 1:
            leaves = [
                App("P", tuple(leaves[i : i + 2])) if i + 1 < len(leaves) else leaves[i]
                for i in range(0, len(leaves), 2)
            ]
        return leaves[0]

    x = balanced([s_power(rng.randrange(20)) for _ in range(300)])
    shared = normalize(App("P", (x, x)), fam, HashConsTable(sig))
    assert shared == normalize(App("P", (x, x)), fam)
