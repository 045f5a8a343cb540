"""Maximal sharing: interning, identity/structure agreement, sharing statistics.

The reference predicate for "how many nodes should exist" is the number
of distinct subterms, computed here by brute-force set construction.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import re

import pytest

from canonform import (
    App,
    HashConsTable,
    Prim,
    SignatureError,
    SortError,
    TheorySpec,
    Var,
    cli,
    compile_family,
    construct,
    format_term,
    normalize,
    parse_definition,
    parse_ground_term,
)

from canonform import builder
from canonform.terms import size

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
    one = table.canonical(App("One"))
    assert table.canonical(App("One")) is one
    s = table.canonical(plus(one, one))
    assert table.canonical(plus(one, one)) is s
    assert table.canonical(plus(ONE, ONE)) is s
    assert table.node("Plus", (one, one)) is s
    assert table.node("Plus", (ONE, App("One"))) is s  # arguments it does not hold are interned first
    assert s is not one
    # Plus(One, One) holds exactly two nodes and two edges
    assert table.sharing_stats() == (2, 2)
    assert s == plus(ONE, ONE)
    # both children are the very same object
    assert s.args[0] is s.args[1] is one
    assert table.holds(s) and table.holds(one)
    assert not table.holds(ONE) and not table.holds(plus(one, one))


def test_empty_table():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    assert len(table) == 0
    assert table.sharing_stats() == (0, 0)


def test_from_term_round_trip():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    for t in [ZERO, opp(ONE), plus(opp(ONE), plus(ZERO, ONE))]:
        assert table.from_term(t) == t
        assert table.canonical(t) is table.from_term(t)
        assert table.canonical(t) is table.canonical(t)


def test_error_paths():
    sig, _, _ = load("exp")
    table = HashConsTable(sig)
    with pytest.raises(SignatureError):
        table.canonical(App("Mystery"))
    one = table.canonical(App("One"))
    with pytest.raises(SignatureError):
        table.canonical(App("Plus", (one,)))  # Plus is binary
    with pytest.raises(SignatureError):
        table.canonical(Prim("float", 1.0))
    with pytest.raises(SortError):
        table.from_term(Var("x", "exp"))
    for bad in (Prim("int", [1]), 5, (one, 2), None):  # unhashable, or no term at all
        with pytest.raises(SortError):
            table.canonical(bad)
        with pytest.raises(SortError):
            table.canonical(plus(one, bad))
    assert table.sharing_stats() == (1, 0)  # One alone: nothing bad got in


def test_prim_interning():
    text = "type cell = Nil | Cons(int, cell)"
    sig, spec = parse_definition(text)
    table = HashConsTable(sig)
    five = table.canonical(Prim("int", 5))
    assert table.canonical(Prim("int", 5)) is five
    assert five == Prim("int", 5)
    assert table.canonical(Prim("string", "5")) is not five
    with pytest.raises(SortError):
        table.canonical(Prim("int", True))  # bools are not int constants
    with pytest.raises(SortError):
        table.canonical(Prim("int", [5]))  # judged before it is hashed into a key


def test_ill_sorted_children_are_rejected():
    # construct rejects these values, so the table must not hold them either
    sig, _ = parse_definition("type cell = Nil | Cons(int, cell)")
    table = HashConsTable(sig)
    nil, one = table.canonical(App("Nil")), table.canonical(Prim("int", 1))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (nil, nil)))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (one, one)))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (App("Nil"), App("Nil"))))
    with pytest.raises(SortError):
        table.canonical(App("Cons", (Prim("int", 1), Prim("int", 2))))
    with pytest.raises(SortError):  # a bad constant below a node construct accepts
        table.canonical(App("Cons", (Prim("int", 1), App("Cons", (Prim("int", [1]), nil)))))
    assert table.sharing_stats()[1] == 0  # no Cons node: it is the only one with arguments
    good = table.canonical(App("Cons", (one, nil)))
    assert table.canonical(App("Cons", (Prim("int", 1), App("Nil")))) is good
    assert good.args[0] is one and good.args[1] is nil


def test_bool_constant_is_rejected_after_its_int_twin_is_interned():
    # True == 1 with equal hashes: the check must not depend on what the table holds
    sig, _ = parse_definition("type cell = Nil | Cons(int, cell)")
    table = HashConsTable(sig)
    table.canonical(Prim("int", 1))
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


def test_interning_walks_each_object_of_a_shared_term_once(monkeypatch):
    """F^12(L) over one shared argument per level, interned after an equal
    copy: its nodes are rebuilt, not kept, and each of its 13 objects is
    still walked once, not each of the 8,191 nodes of its tree.  normalize
    with that table walks its input and its value (here the same term)."""
    sig, spec = parse_definition("type t = L | F(t, t) | P(t, t)\nwith P: associative, commutative")
    fam = compile_family(sig, spec)

    def shared():
        x = App("L")
        for _ in range(12):
            x = App("F", (x, x))
        return x

    table = HashConsTable(sig)
    first = table.canonical(shared())
    calls = []
    node = HashConsTable.node
    monkeypatch.setattr(HashConsTable, "node", lambda self, *a: calls.append(a[0]) or node(self, *a))
    assert table.canonical(shared()) is first
    assert normalize(shared(), fam, table) is first
    assert len(calls) == 3 * 13 and len(table) == 13


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
    """`norm --sharing` interns the input and the value; its counts must
    cover each distinct subterm of the normal form and of every input leaf,
    with their arities."""
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


def test_norm_sharing_counts_exactly_the_input_and_the_value(capsys):
    """`norm --sharing` on a 2,000-leaf left chain of two leaves under
    syn_ac: the table holds the distinct subterms of the parsed input and of
    the value, with their arities, and no comb built on the way."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "defs" / "syn_ac.rdt"
    sig, spec = parse_definition(path.read_text())
    rng = random.Random(11)
    leaves = [rng.choice(["S(L)", "S(S(S(L)))"]) for _ in range(2000)]
    text = "P(" * 1999 + leaves[0] + "".join(f", {leaf})" for leaf in leaves[1:])
    assert cli.main(["norm", str(path), "--sharing", "-e", text]) == 0
    out, err = capsys.readouterr()
    nodes, edges = map(int, re.fullmatch(r"sharing: nodes=(\d+) edges=(\d+)\n", err).groups())
    term = parse_ground_term(text, sig)
    value = normalize(term, compile_family(sig, spec))
    assert out == format_term(value) + "\n"
    seen = distinct_subterms([term, value])
    assert (nodes, edges) == (len(seen), sum(len(t.args) for t in seen if isinstance(t, App)))
    assert nodes == 2 * 1999 + 3  # L, S(L), S(S(L)), S^3(L); the innermost sum is shared


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
    """With a table, normalize hands from_term the whole 5,000-leaf value:
    it is interned (and hashed) without recursion.  Results are read with
    loops, since == and format_term on a 5,000-leaf comb recurse."""
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
    nodes, edges = table.sharing_stats()  # the input's subterms are interned too
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


def test_interning_an_equal_copy_neither_hashes_nor_compares_terms(monkeypatch):
    """Lookups key a node by its constructor and the identities of its
    canonical arguments: interning a 2,003-node term and then an equal copy
    built from fresh objects calls neither App.__eq__ nor App.__hash__."""
    sig, _ = parse_definition("type cell = Nil | Cons(int, cell) | Tag(string, cell) | Pair(cell, cell)")

    def build():
        ts = [
            App("Cons", (Prim("int", i % 50), App("Tag", (Prim("string", "ab"[i % 2]), App("Nil")))))
            for i in range(334)
        ]
        while len(ts) > 1:
            ts = [App("Pair", tuple(ts[i : i + 2])) if i + 1 < len(ts) else ts[i] for i in range(0, len(ts), 2)]
        return ts[0]

    t, twin = build(), build()
    assert size(t) == 2003 and twin is not t
    counts = {"eq": 0, "hash": 0}
    app_eq, app_hash = App.__eq__, App.__hash__

    def counting_eq(self, other):
        counts["eq"] += 1
        return app_eq(self, other)

    def counting_hash(self):
        counts["hash"] += 1
        return app_hash(self)

    monkeypatch.setattr(App, "__eq__", counting_eq)
    monkeypatch.setattr(App, "__hash__", counting_hash)
    table = HashConsTable(sig)
    node = table.from_term(t)
    assert table.from_term(twin) is node
    assert counts == {"eq": 0, "hash": 0}
    monkeypatch.undo()
    assert node == t
    seen = distinct_subterms([t])
    assert table.sharing_stats() == (len(seen), sum(len(s.args) for s in seen if isinstance(s, App)))


# --- construction with a table ------------------------------------------------

AC_SUM = "type t = L | S(t) | P(t, t)\nwith P: associative, commutative\n"


def s_power(k):
    t = App("L")
    for _ in range(k):
        t = App("S", (t,))
    return t


def balanced_sum(leaves):
    while len(leaves) > 1:
        leaves = [App("P", tuple(leaves[i : i + 2])) if i + 1 < len(leaves) else leaves[i] for i in range(0, len(leaves), 2)]
    return leaves[0]


def test_one_table_serves_two_families_of_one_signature():
    """An AC and a free P over one signature share a table, and each family
    gets its own normal form in either order."""
    sig, ac_spec = parse_definition(AC_SUM)
    ac, free = compile_family(sig, ac_spec), compile_family(sig, TheorySpec())
    term = App("P", (App("P", (s_power(3), App("L"))), s_power(1)))
    pairs = [(ac, normalize(term, ac)), (free, term)]
    assert pairs[0][1] != term
    for order in (pairs, pairs[::-1]):
        table = HashConsTable(sig)
        for _ in range(2):
            for fam, expected in order:
                value = normalize(term, fam, table)
                assert value == expected and value is table.canonical(expected)


def test_construct_on_arguments_outside_the_table_is_right_and_stores_no_stale_id():
    """Arguments the table does not hold may be collected and their ids
    reused, so nothing may be filed under them: construct on such
    arguments still gives the plain value as the table's object."""
    sig, spec = parse_definition(AC_SUM)
    fam = compile_family(sig, spec)
    table = HashConsTable(sig)
    rng = random.Random(9)
    normalize(balanced_sum([s_power(rng.randrange(6)) for _ in range(20)]), fam, table)
    for _ in range(300):
        args = (s_power(rng.randrange(6)), balanced_sum([s_power(rng.randrange(6)) for _ in range(3)]))
        args = (args[0], normalize(args[1], fam))  # a normal comb built outside the table
        value = builder.construct("P", args, fam, table)
        assert value == construct("P", args, fam) and value is table.canonical(value)
        del args, value  # their ids may be reused by the next terms


def test_a_group_sum_interns_no_inverse_it_built_only_to_cancel():
    """To cancel a leaf x against a group sum the builder inverts x and
    looks for N(x).  That node belongs to no value, so the table holds only
    the canonical subterms of the input and of the construction results:
    here the 5 nodes and 6 edges of P(L, P(S(L), S(S(L)))) itself."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "defs" / "syn_group.rdt"
    sig, spec = parse_definition(path.read_text())
    fam = compile_family(sig, spec)
    term = parse_ground_term("P(L, P(S(L), S(S(L))))", sig)
    table = HashConsTable(sig)
    value = normalize(term, fam, table)
    assert value == term
    assert table.sharing_stats() == (5, 6)
    assert all(map(table.holds, distinct_subterms([value])))  # the 5 nodes: no N(x) among them
