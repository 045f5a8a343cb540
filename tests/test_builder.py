"""Construction functions: clause compilation, the AC schemes, normalize.

Reference model: exp terms denote integers (Zero=0, One=1, Plus adds,
Opp negates).  A correct normalizer must preserve the denotation, and
integer-equal terms must reach one identical normal form.  Expected terms
in the examples were worked out from the group axioms by hand and frozen.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import (
    App,
    CompiledClause,
    HashConsTable,
    Prim,
    RewriteRule,
    SignatureError,
    SortError,
    TheoryError,
    Var,
    Variant,
    build_comb,
    compare,
    compile_family,
    compile_rules,
    construct,
    delete,
    enumerate_ground,
    format_term,
    insert,
    insert_inv,
    inverse_cf,
    is_ac_normal,
    is_ground,
    leaves,
    linearize,
    normalize,
    parse_definition,
    sort_of,
)
from canonform import builder
from canonform.emit import emit_code

from conftest import BAG, bag_universe, load, terms

ZERO, ONE = App("Zero"), App("One")


def opp(t):
    return App("Opp", (t,))


def plus(a, b):
    return App("Plus", (a, b))


def ival(t) -> int:
    """Independent denotation of exp terms in the integers."""
    return {"Zero": lambda: 0, "One": lambda: 1}.get(
        t.ctor, lambda: -ival(t.args[0]) if t.ctor == "Opp" else ival(t.args[0]) + ival(t.args[1])
    )()


@pytest.fixture(scope="module")
def exp():
    sig, _, fam = load("exp")
    return sig, fam


# --- linearization and rule compilation --------------------------------------


def V(n):
    return Var(n, "mon")


def test_linearize_examples():
    c_xx = App("C", (V("x"), V("x")))
    lin, guard = linearize(c_xx)
    assert lin == App("C", (V("v1"), V("v2"))) and guard == (("v1", "v2"),)

    c_xy = App("C", (V("x"), V("y")))
    lin, guard = linearize(c_xy)
    assert lin == App("C", (V("v1"), V("v2"))) and guard == ()

    nested = App("C", (V("x"), App("C", (V("x"), V("y")))))
    lin, guard = linearize(nested)
    assert lin == App("C", (V("v1"), App("C", (V("v2"), V("v3")))))
    assert guard == (("v1", "v2"),)


def test_compile_rules_examples():
    sig, spec, _ = load("neu_rules")
    compiled = compile_rules(spec.rules, sig)
    assert set(compiled) == {"C"}
    first, second = compiled["C"]
    assert first.patterns == (Var("v1", "mon"), App("E"))
    assert first.guard == () and first.rhs == Var("v1", "mon")
    assert second.patterns == (App("E"), Var("v1", "mon"))

    assert compile_rules((), sig) == {}

    dup = RewriteRule(App("C", (V("x"), V("x"))), V("x"))
    [clause] = compile_rules((dup,), sig)["C"]
    assert clause.guard == (("v1", "v2"),)
    assert clause.rhs == Var("v1", "mon")

    with pytest.raises(TheoryError):
        compile_rules((RewriteRule(V("x"), V("x")),), sig)


# --- the group scheme, pointwise ----------------------------------------------


def test_construct_group_examples(exp):
    _, fam = exp
    assert construct("Plus", (ZERO, ONE), fam) == ONE
    assert construct("Plus", (ONE, ZERO), fam) == ONE
    assert construct("Plus", (ONE, opp(ONE)), fam) == ZERO
    assert construct("Opp", (ZERO,), fam) == ZERO


def test_inverse_cf_examples(exp):
    _, fam = exp
    assert inverse_cf("Opp", ZERO, fam) == ZERO
    assert inverse_cf("Opp", opp(ONE), fam) == ONE
    two = plus(ONE, ONE)
    assert inverse_cf("Opp", two, fam) == plus(opp(ONE), opp(ONE))
    with pytest.raises(TheoryError):
        inverse_cf("Plus", ONE, fam)


def test_insert_examples(exp):
    _, fam = exp
    # One < Opp(One) in the declared order, so One goes in front
    assert insert("Plus", ONE, opp(ONE), fam) == plus(ONE, opp(ONE))
    assert insert("Plus", opp(ONE), ONE, fam) == plus(ONE, opp(ONE))
    assert insert("Plus", ONE, plus(ONE, opp(ONE)), fam) == plus(
        ONE, plus(ONE, opp(ONE))
    )


def test_insert_idem_collapses():
    sig, _, fam = load("aci")
    X, Y = App("X"), App("Y")
    o = App("Or", (X, Y))
    assert insert("Or", X, o, fam) == o  # head leaf equal: collapse
    assert insert("Or", Y, Y, fam) == Y  # single-leaf collapse
    assert construct("Or", (X, App("Or", (X, Y))), fam) == o


def test_insert_nil_cancels_to_absorber():
    sig, _, fam = load("acnil")
    BOT, X, Y = App("Bot"), App("X"), App("Y")
    assert insert("Xor", X, X, fam) == BOT
    assert construct("Xor", (X, App("Xor", (X, Y))), fam) == App("Xor", (BOT, Y))
    # cancellation deep in the comb must re-place the absorber, not wrap it
    assert construct("Xor", (X, App("Xor", (BOT, X))), fam) == BOT
    assert normalize(App("Xor", (Y, App("Xor", (X, Y)))), fam) == App(
        "Xor", (BOT, X)
    )


def test_type2_entry_attributes_are_computed_once():
    cases = {
        "exp": ("Plus", ZERO, None, "Opp", False, False),
        "aci": ("Or", None, None, None, True, False),
        "acnil": ("Xor", None, App("Bot"), None, False, True),
    }
    for name, (ctor, unit, absorber, inverse, idem, nil) in cases.items():
        entry = load(name)[2].entries[ctor]
        assert (entry.unit, entry.absorber, entry.inverse) == (unit, absorber, inverse)
        assert (entry.idem, entry.nil, entry.orientation) == (idem, nil, "right")
        assert entry.sign == 1
        assert entry.unit is entry.unit and entry.absorber is entry.absorber
    left = load("left_group")[2].entries["Plus"]
    assert (left.orientation, left.sign, left.inverse) == ("left", -1, "Opp")


# One signature for every catalog row: Z is the unit and O the absorber where
# the row has them, N the inverse of the group; elsewhere they are plain
# constructors that sit among the leaves.
CATALOG_TYPE = "type t = Z | O | A | N(t) | P(t, t)"
CATALOG_ATTRS = {
    Variant.AC: "commutative",
    Variant.GROUP: "commutative, neutral(Z), inverse(N)",
    Variant.ACI: "commutative, idempotent",
    Variant.ACI_NEU: "commutative, neutral(Z), idempotent",
    Variant.ACNIL: "commutative, nilpotent(O)",
    Variant.ACNIL_NEU: "commutative, neutral(Z), nilpotent(O)",
}


def _spine_view(t, orientation):
    """t with every P-comb read as its leaf list in spine order, recursively."""
    if isinstance(t, App) and t.ctor == "P":
        return [_spine_view(l, orientation) for l in leaves("P", t, orientation)]
    if isinstance(t, App):
        return (t.ctor, *(_spine_view(a, orientation) for a in t.args))
    return t


def _to_tuple(t):
    return (t.ctor, *map(_to_tuple, t.args))


def _is_p(t):
    return isinstance(t, App) and t.ctor == "P"


def _catalog_family(variant, assoc):
    """The catalog row's family over CATALOG_TYPE, and its generated module."""
    sig, spec = parse_definition(f"{CATALOG_TYPE}\nwith P: {assoc}, {CATALOG_ATTRS[variant]}")
    fam = compile_family(sig, spec)
    ns: dict = {}
    exec(emit_code(fam), ns)
    return sig, fam, ns


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_left_combs_hold_the_right_combs_leaves(variant):
    """Every catalog row under `associative left`: the normal form has the
    leaves of the right-comb normal form, is AC-normal for left combs, and
    the generated module computes it too."""
    fams = {}
    for orientation, assoc in (("right", "associative"), ("left", "associative left")):
        sig, fam, ns = _catalog_family(variant, assoc)
        assert fam.classification.carrier["P"].variant is variant
        fams[orientation] = fam, ns
    for t in enumerate_ground(sig, "t", 6):
        nf = {}
        for orientation, (fam, ns) in fams.items():
            nf[orientation] = normalize(t, fam)
            assert ns["normalize"](_to_tuple(t)) == _to_tuple(nf[orientation]), t
        assert _spine_view(nf["left"], "left") == _spine_view(nf["right"], "right"), t
        assert is_ac_normal(sig, nf["left"], {"P": "left"}), t


def _fold_leaf(fam, v, leaf):
    """Add one leaf to value v the leaf-at-a-time way: builder.insert, or
    builder.insert_inv of its inverse in a group."""
    entry = fam.entries["P"]
    if v == entry.unit:
        return leaf
    if entry.inverse is not None:
        return insert_inv("P", inverse_cf(entry.inverse, leaf, fam), v, fam)
    return insert("P", leaf, v, fam)


@pytest.mark.parametrize("assoc", ["associative", "associative left"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_comb_merge_equals_the_leaf_at_a_time_fold(variant, assoc):
    """construct on two combs merges their spines in one pass; it must give
    the value that folding the second comb's leaves into the first one at a
    time gives, in the library and in the generated module alike."""
    sig, fam, ns = _catalog_family(variant, assoc)
    entry = fam.entries["P"]
    orientation = entry.orientation
    A, O, N = App("A"), App("O"), lambda t: App("N", (t,))
    # few distinct leaves, so equal leaves, x next to N(x) and the absorber O
    # are common; every pool entry is a canonical non-P leaf
    pool = []
    for t in (A, O, N(A), N(O), N(N(A)), N(App("P", (A, O)))):
        nf = normalize(t, fam)
        if nf != entry.unit and not _is_p(nf) and nf not in pool:
            pool.append(nf)
    leaf_lists = st.lists(st.sampled_from(pool), min_size=2, max_size=60)

    def value(parts):
        v = parts[0]
        for leaf in parts[1:]:
            v = _fold_leaf(fam, v, leaf)
        return v

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(leaf_lists, leaf_lists)
    def check(xs, ys):
        x, y = value(xs), value(ys)
        expected = x
        if y != entry.unit:
            for leaf in leaves("P", y, orientation) if _is_p(y) else [y]:
                expected = _fold_leaf(fam, expected, leaf)
        assert construct("P", (x, y), fam) == expected
        assert is_ac_normal(sig, expected, {"P": orientation})
        assert ns["construct"]("P", (_to_tuple(x), _to_tuple(y)), ns["FAMILY"]) == _to_tuple(expected)

    check()


def _tuple_leaves(t):
    """Leaf list of a generated module's right P comb."""
    out = []
    while isinstance(t, tuple) and t[0] == "P":
        leaf, t = t[1:]
        out.append(leaf)
    out.append(t)
    return out


def test_large_sums_and_combs_need_no_deep_recursion():
    """A 5,000-leaf balanced sum normalizes, and a 5,000-leaf comb takes an
    insert at its far end and gives up its deepest leaf, under the default
    recursion limit.  Results are read with leaves: == on terms recurses."""
    sig, spec = parse_definition("type t = L | S(t) | P(t, t)\nwith P: associative, commutative")
    fam = compile_family(sig, spec)
    ns: dict = {}
    exec(emit_code(fam), ns)
    rng = random.Random(6)

    def s_power(k):
        t = App("L")
        for _ in range(k):
            t = App("S", (t,))
        return t

    parts = [s_power(rng.randrange(8)) for _ in range(5000)]
    ordered = sorted(parts, key=lambda t: str(t).count("S"))
    t = parts
    while len(t) > 1:
        t = [App("P", tuple(t[i : i + 2])) if i + 1 < len(t) else t[i] for i in range(0, len(t), 2)]
    t = t[0]
    assert leaves("P", normalize(t, fam)) == ordered
    nf = ns["normalize"](_to_tuple(t))
    assert _tuple_leaves(nf) == [_to_tuple(l) for l in ordered]

    big = build_comb("P", ordered)
    last = s_power(8)
    assert leaves("P", insert("P", last, big, fam)) == ordered + [last]
    assert leaves("P", delete("P", ordered[-1], big, fam)) == ordered[:-1]


# --- comb + leaf, long chains and deep terms ------------------------------------

SYN_DEFS = pathlib.Path(__file__).parent.parent / "perfbench" / "defs"


def _syn_family(name):
    sig, spec = parse_definition((SYN_DEFS / f"{name}.rdt").read_text())
    return sig, compile_family(sig, spec)


def _s_power(k):
    t = App("L")
    for _ in range(k):
        t = App("S", (t,))
    return t


def _sum(shape, parts, rng=None):
    """Fold leaves into one P-sum: a left or right chain, balanced, or a random tree."""
    parts = list(parts)
    if shape == "left":
        return functools.reduce(lambda t, leaf: App("P", (t, leaf)), parts)
    if shape == "right":
        return functools.reduce(lambda t, leaf: App("P", (leaf, t)), reversed(parts))
    while len(parts) > 1:
        if shape == "balanced":
            parts = [App("P", tuple(parts[i : i + 2])) if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
        else:
            i = rng.randrange(len(parts) - 1)
            parts[i : i + 2] = [App("P", (parts[i], parts[i + 1]))]
    return parts[0]


def test_a_comb_meets_a_leaf_by_one_insert(monkeypatch):
    """Each step of a left chain brings one leaf to the comb built so far;
    by commutativity that is one builder.insert, not one per leaf of the comb."""
    sig, fam = _syn_family("syn_ac")
    real_insert = builder.insert
    calls = []

    def counting_insert(*args):
        calls.append(args)
        return real_insert(*args)

    monkeypatch.setattr(builder, "insert", counting_insert)
    rng = random.Random(12)
    parts = [_s_power(rng.randrange(20)) for _ in range(200)]
    nf = normalize(_sum("left", parts), fam)
    assert len(calls) <= 200
    assert leaves("P", nf) == sorted(parts, key=functools.cmp_to_key(lambda a, b: compare(sig, a, b)))


@pytest.mark.parametrize(
    "name", ["syn_ac", "syn_group", "syn_left_group", "syn_idem", "syn_nil"]
)
def test_every_shape_of_a_sum_normalizes_to_one_value(name):
    """Balanced, right, left and random sums of the same leaves reach one
    AC-normal value, in the library and in the generated module alike."""
    sig, fam = _syn_family(name)
    orientation = fam.orientations()
    ns: dict = {}
    exec(emit_code(fam), ns)
    rng = random.Random(name)
    for n in (2, 7, 40, 90):
        pool = [_s_power(k) for k in rng.sample(range(20), 4)]
        if "N" in sig:
            pool += [App("N", (t,)) for t in pool] + [App("Z")]
        if "B" in sig:
            pool.append(App("B"))
        parts = [rng.choice(pool) for _ in range(n)]
        values = {
            shape: normalize(_sum(shape, parts, rng), fam)
            for shape in ("balanced", "right", "left", "random")
        }
        nf = values["balanced"]
        assert is_ac_normal(sig, nf, orientation), (n, parts)
        for shape, v in values.items():
            assert v == nf, (shape, n, parts)
        shuffled = rng.sample(parts, n)
        assert ns["normalize"](_to_tuple(_sum("random", shuffled, rng))) == _to_tuple(nf)


def test_deep_terms_and_long_chains_need_no_deep_recursion():
    """Under the default recursion limit: a 100,000-deep term is checked,
    normalized and printed, and so are 5,000-leaf left and right chains.  In
    the chains' leaf order each step inserts at the comb's exposed end, so
    the test times the walks; a shuffled chain pays a quadratic insertion
    cost instead.  Results are read with leaves or as text: == on terms recurses."""
    sig, fam = _syn_family("syn_ac")
    n = 100_000
    deep = _s_power(n)
    assert is_ground(deep) and sort_of(sig, deep) == "t"
    assert format_term(normalize(deep, fam)) == "S(" * n + "L" + ")" * n

    parts = [_s_power(k * 20 // 5000) for k in range(5000)]
    text = "".join(f"P({format_term(leaf)}, " for leaf in parts[:-1])
    text += format_term(parts[-1]) + ")" * (len(parts) - 1)
    for chain in (_sum("left", parts[::-1]), _sum("right", parts)):
        assert is_ground(chain) and sort_of(sig, chain) == "t"
        nf = normalize(chain, fam)
        assert leaves("P", nf) == parts
        assert format_term(nf) == text


def test_inverting_long_group_combs_needs_no_deep_recursion():
    """f_I folds a comb with a loop: N of a 5,000-leaf comb is 5,000 inverted
    leaves, and N of a 5,000-leaf sum normalizes under the default recursion
    limit and cancels the sum."""
    sig, fam = _syn_family("syn_group")
    parts = [_s_power(k * 20 // 5000) for k in range(5000)]
    inverted = construct("N", (build_comb("P", parts),), fam)
    assert leaves("P", inverted) == [App("N", (leaf,)) for leaf in parts]

    rng = random.Random(5)
    pool = [_s_power(3), _s_power(16)]
    pool += [App("N", (t,)) for t in pool] + [App("Z")]
    chain = _sum("right", [rng.choice(pool) for _ in range(5000)])
    nf = normalize(chain, fam)
    inv = normalize(App("N", (chain,)), fam)
    assert is_ac_normal(sig, inv, {"P": "right"})
    assert construct("P", (inv, nf), fam) == App("Z")


def test_normalize_keeps_free_nodes_that_are_already_normal(monkeypatch):
    """Without a table a free node whose arguments come back unchanged is its
    own value: normalize returns the input objects and makes no construct
    call for them.  With a table the result is still the table's object."""
    sig, fam = _syn_family("syn_ac")
    real_construct = builder.construct
    calls = []

    def counting_construct(ctor, *args):
        calls.append(ctor)
        return real_construct(ctor, *args)

    monkeypatch.setattr(builder, "construct", counting_construct)
    t = _s_power(50)
    assert normalize(t, fam) is t
    assert calls == []

    a, b = _s_power(7), _s_power(3)
    nf = normalize(App("P", (a, b)), fam)
    assert nf == App("P", (b, a))
    assert nf.args[0] is b and nf.args[1] is a
    assert calls == ["P"]

    table = HashConsTable(sig)
    shared = normalize(t, fam, table)
    assert shared == t and shared is table.canonical(_s_power(50))
    assert normalize(_s_power(50), fam, table) is shared


def test_normalize_reports_a_variable_before_an_ill_sorted_node():
    sig, spec = parse_definition("type cell = Nil | Cons(int, cell)")
    cell = compile_family(sig, spec)
    ill = App("Cons", (App("Nil"), App("Nil")))
    with pytest.raises(SortError, match="ill-sorted term: Cons"):
        normalize(ill, cell)
    with pytest.raises(SortError, match="ground terms"):
        normalize(App("Cons", (Prim("int", 1), App("Cons", (ill, Var("x", "cell"))))), cell)
    with pytest.raises(SortError, match="ground terms"):
        normalize(App("Cons", (Var("n", "int"), App("Nope"))), cell)



def test_normalize_sort_check_agrees_with_sort_of():
    """Checking each node once against its constructor's argument sorts
    rejects exactly the ground terms sort_of rejects: unknown constructors,
    wrong arities, constants of the wrong type and bool constants, at the
    root or below an App child."""
    sig, spec = parse_definition(BAG)
    bag = compile_family(sig, spec)
    odd = [Prim("int", True), Prim("real", "1.5"), App("Q"), App("I"), App("U", (App("I"),))]
    pool = bag_universe()[::3] + odd
    universe = pool + [
        App(c, args)
        for c in ("I", "S", "U", "Q")
        for n in (1, 2)
        for args in itertools.product(pool[-8:], repeat=n)
    ]
    rejected = 0
    for t in universe:
        for u in (t, App("U", (t, t)), App("U", (App("S", (Prim("string", "a"),)), t))):
            if sort_of(sig, u) is None:
                rejected += 1
                with pytest.raises(SortError, match="ill-sorted term"):
                    normalize(u, bag)
            else:
                assert normalize(u, bag) is not None
    assert 0 < rejected < 3 * len(universe)

def test_delete_examples(exp):
    _, fam = exp
    t = plus(ONE, opp(ONE))
    assert delete("Plus", ONE, t, fam) == opp(ONE)  # head leaf
    assert delete("Plus", opp(ONE), t, fam) == ONE  # innermost leaf
    assert delete("Plus", ONE, ONE, fam) == ZERO  # whole value
    assert delete("Plus", opp(ONE), ONE, fam) is None
    assert delete("Plus", ZERO, plus(ONE, ONE), fam) is None  # early exit


def test_insert_inv_examples(exp):
    _, fam = exp
    # adding One where Opp(One) occurs cancels it away
    assert insert_inv("Plus", opp(ONE), plus(ONE, opp(ONE)), fam) == ONE
    # no occurrence: falls back to sorted insertion of the re-inverted leaf
    assert insert_inv("Plus", opp(ONE), ONE, fam) == plus(ONE, ONE)
    assert construct("Plus", (opp(ONE), ONE), fam) == ZERO


# --- normalize ---------------------------------------------------------------


def test_normalize_examples(exp):
    _, fam = exp
    assert normalize(plus(plus(ONE, ZERO), opp(ONE)), fam) == ZERO
    assert normalize(ZERO, fam) == ZERO
    assert normalize(opp(plus(ONE, ONE)), fam) == plus(opp(ONE), opp(ONE))


def test_normalize_group_regressions():
    """Cancellations that remove a comb's innermost leaf must not leave the
    unit wrapped inside the spine."""
    sig, _, fam = load("vec")
    A, B = App("A"), App("B")
    t = plus(opp(B), plus(A, B))
    assert normalize(t, fam) == A
    sigL, _, famL = load("left_group")
    u = plus(A, plus(B, opp(A)))
    assert normalize(u, famL) == B


def test_normalize_preserves_denotation_and_shape(exp):
    sig, fam = exp
    seen: dict[int, object] = {}
    for t in terms("exp", 7):
        nf = normalize(t, fam)
        assert ival(nf) == ival(t)
        assert is_ac_normal(sig, nf, {"Plus": "right"})
        # one normal form per denotation at this scale
        if ival(t) in seen:
            assert nf == seen[ival(t)]
        seen[ival(t)] = nf


def test_normalize_is_idempotent(exp):
    _, fam = exp
    for t in terms("exp", 6):
        nf = normalize(t, fam)
        assert normalize(nf, fam) == nf


def test_bottom_up_construction_equals_normalize(exp):
    _, fam = exp

    def build(t):
        if isinstance(t, App):
            return construct(t.ctor, tuple(build(a) for a in t.args), fam)
        return t

    for t in terms("exp", 6):
        assert build(t) == normalize(t, fam)


# --- type-1 clauses ----------------------------------------------------------


def test_type1_normalization():
    sig, spec, fam = load("neu_rules")
    E, G = App("E"), App("G")
    C = lambda a, b: App("C", (a, b))
    assert normalize(C(G, E), fam) == G
    assert normalize(C(E, G), fam) == G
    assert normalize(C(E, E), fam) == E
    assert normalize(C(G, G), fam) == C(G, G)  # default clause rebuilds
    assert normalize(C(C(G, E), E), fam) == G


def test_type1_clause_order_is_irrelevant_here():
    sig, spec, _ = load("neu_rules")
    fam_ab = compile_family(sig, spec)
    swapped = type(spec)(attrs=spec.attrs, rules=tuple(reversed(spec.rules)))
    fam_ba = compile_family(sig, swapped)
    for t in terms("neu_rules", 7):
        assert normalize(t, fam_ab) == normalize(t, fam_ba)


def test_type1_nonlinear_guard():
    sig, _, _ = load("neu_rules")
    collapse = RewriteRule(App("C", (V("x"), V("x"))), V("x"))
    spec = load("neu_rules")[1]
    fam = compile_family(sig, type(spec)(attrs={}, rules=(collapse,)))
    G = App("G")
    assert construct("C", (G, G), fam) == G
    assert construct("C", (G, App("E")), fam) == App("C", (G, App("E")))


# --- error paths -------------------------------------------------------------


def test_construct_checks_arity_and_sorts(exp):
    _, fam = exp
    with pytest.raises(SignatureError):
        construct("Plus", (ONE,), fam)
    with pytest.raises(SortError):
        normalize(Var("x", "exp"), fam)
    sig, spec = parse_definition("type cell = Nil | Cons(int, cell)")
    cell = compile_family(sig, spec)
    for bad in (Prim("int", "abc"), Prim("int", True), Prim("int", 2.5)):
        with pytest.raises(SortError):
            construct("Cons", (bad, App("Nil")), cell)
