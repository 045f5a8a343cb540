"""Clause reports and standalone generated modules.

Report lines are frozen verbatim.  The generated module runs the builder's
own dispatch, clause matcher and AC functions on tuples: the tests check
that it carries them verbatim with every name they use bound, and that it
agrees with the in-process normalizer over enumerated terms, which
exercises the tuple-world prelude.
"""

from __future__ import annotations

import builtins
import dis
import inspect
import itertools

import pytest

from canonform import (
    App,
    Prim,
    Var,
    builder,
    compare,
    compile_family,
    normalize,
    parse_definition,
)
from canonform.emit import emit_code, emit_report

from conftest import BAG, bag_universe, load, terms


def report_lines(name: str) -> list[str]:
    _, _, fam = load(name)
    return emit_report(fam).splitlines()


# --- reports --------------------------------------------------------------------


def test_report_for_abelian_group():
    assert report_lines("exp") == [
        "f_Zero: () -> Zero",
        "f_One: () -> One",
        "f_Opp: (Zero) -> Zero",
        "f_Opp: (Opp(x)) -> x",
        "f_Opp: (Plus(x, y)) -> f_Plus(f_Opp(y), f_Opp(x))",
        "f_Opp: (x) -> Opp(x)",
        "f_Plus: (Zero, y) -> y",
        "f_Plus: (x, Zero) -> x",
        "f_Plus: (Plus(x, y), z) -> f_Plus(x, f_Plus(y, z))",
        "f_Plus: (x, y) -> insert_inv_Plus(f_Opp(x), y)",
    ]


def test_report_for_left_oriented_group():
    lines = report_lines("left_group")
    # reassociation and insertion mirror to the other side
    assert "f_Plus: (x, Plus(y, z)) -> f_Plus(f_Plus(x, y), z)" in lines
    assert "f_Plus: (x, y) -> insert_inv_Plus(f_Opp(y), x)" in lines
    assert "f_Plus: (Plus(x, y), z) -> f_Plus(x, f_Plus(y, z))" not in lines


def test_report_for_ac_only_theories():
    assert report_lines("aci") == [
        "f_X: () -> X",
        "f_Y: () -> Y",
        "f_Or: (Or(x, y), z) -> f_Or(x, f_Or(y, z))",
        "f_Or: (x, y) -> insert_Or(x, y)",
    ]
    assert report_lines("acnil")[-2:] == [
        "f_Xor: (Xor(x, y), z) -> f_Xor(x, f_Xor(y, z))",
        "f_Xor: (x, y) -> insert_Xor(x, y)",
    ]
    sig, spec = parse_definition(
        "type formula = X | Y | Or(formula, formula)\n"
        "with Or: associative left, commutative, idempotent"
    )
    assert emit_report(compile_family(sig, spec)).splitlines() == [
        "f_X: () -> X",
        "f_Y: () -> Y",
        "f_Or: (x, Or(y, z)) -> f_Or(f_Or(x, y), z)",
        "f_Or: (x, y) -> insert_Or(y, x)",
    ]


def test_report_for_free_type_is_defaults_only():
    assert report_lines("free") == [
        "f_Leaf: () -> Leaf",
        "f_Node: (x1, x2) -> Node(x1, x2)",
    ]


def test_report_for_rule_defined_type():
    assert report_lines("neu_rules") == [
        "f_E: () -> E",
        "f_G: () -> G",
        "f_C: (v1, E) -> v1",
        "f_C: (E, v1) -> v1",
        "f_C: (x1, x2) -> C(x1, x2)",
    ]


def test_report_prints_a_deep_rule_without_recursion():
    """A 600-deep right-hand side, under the default recursion limit."""
    sig, spec = parse_definition(
        "type t = E | S(t) | C(t, t)\nrule C(x, E) -> " + "S(" * 600 + "x" + ")" * 600
    )
    assert emit_report(compile_family(sig, spec)).splitlines() == [
        "f_E: () -> E",
        "f_S: (x1) -> S(x1)",
        "f_C: (v1, E) -> " + "f_S(" * 600 + "v1" + ")" * 600,
        "f_C: (x1, x2) -> C(x1, x2)",
    ]


def test_report_renders_nonlinear_guards():
    sig, spec = parse_definition("type t = A | B | M(t, t)\nrule M(x, x) -> x")
    fam = compile_family(sig, spec)
    assert emit_report(fam).splitlines() == [
        "f_A: () -> A",
        "f_B: () -> B",
        "f_M: (v1, v2) when v1 = v2 -> v1",
        "f_M: (x1, x2) -> M(x1, x2)",
    ]


# --- generated modules --------------------------------------------------------------


def exec_module(fam) -> dict:
    ns: dict = {}
    exec(emit_code(fam), ns)
    return ns


def to_tuple(t):
    if hasattr(t, "ctor"):
        return (t.ctor, *map(to_tuple, t.args))
    return t.value


def test_generated_module_is_plain_python():
    _, _, fam = load("exp")
    code = emit_code(fam)
    assert "import" not in code  # self-contained: no runtime dependencies
    ns = exec_module(fam)
    for name in ["f_Zero", "f_One", "f_Opp", "f_Plus", "CTOR_INDEX", "CTOR_ARITY"]:
        assert name in ns
    assert ns["CTOR_INDEX"] == {"Zero": 0, "One": 1, "Opp": 2, "Plus": 3}


def test_generated_module_example_calls():
    _, _, fam = load("exp")
    ns = exec_module(fam)
    one, zero = ("One",), ("Zero",)
    assert ns["f_Plus"](one, zero) == one
    assert ns["f_Plus"](ns["f_Opp"](one), one) == zero
    assert ns["f_Opp"](ns["f_Opp"](one)) == one


@pytest.mark.parametrize("name", ["exp", "aci", "acnil", "neu_rules", "free", "left_group"])
def test_generated_module_matches_builder(name):
    sig, spec, fam = load(name)
    ns = exec_module(fam)

    def via_module(t):
        if hasattr(t, "ctor"):
            return ns[f"f_{t.ctor}"](*map(via_module, t.args))
        return t.value

    max_size = 6 if name in ("exp", "left_group") else 7
    for t in terms(name, max_size):
        assert via_module(t) == to_tuple(normalize(t, fam)), t


# --- one source for the AC scheme ----------------------------------------------------

SHARED = [
    builder._construct_ac,
    builder._merge,
    builder._cancel_inverses,
    builder.insert,
    builder.delete,
    builder.insert_inv,
    builder.inverse_cf,
    builder._seek,
    builder._rebuild,
]


def global_names(code) -> set[str]:
    """Names a code object and the code objects nested in it load as globals."""
    names = {
        ins.argval
        for ins in dis.get_instructions(code)
        if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME")
    }
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= global_names(const)
    return names


@pytest.mark.parametrize("name", ["exp", "left_group", "acnil", "neu_rules", "free"])
def test_generated_module_carries_the_builders_ac_functions_verbatim(name):
    _, _, fam = load(name)
    code = emit_code(fam)
    assert "import" not in code
    if not fam.classification.theories:  # no AC constructor, no AC functions
        assert not any(f"def {fn.__name__}(" in code for fn in SHARED)
        return
    # one contiguous block, in the builder's order, as its source reads
    assert "\n\n".join(inspect.getsource(fn) for fn in SHARED) in code


def test_every_global_the_shared_functions_use_is_bound_in_the_generated_module():
    _, _, fam = load("exp")
    ns = exec_module(fam)
    used = set().union(*(global_names(fn.__code__) for fn in SHARED))
    assert {"_ctor", "_split", "_make", "compare", "construct"} <= used
    unbound = sorted(n for n in used if n not in ns and not hasattr(builtins, n))
    assert unbound == []
    # each shared function is the builder's own code, compiled again
    for fn in SHARED:
        assert ns[fn.__name__].__code__.co_code == fn.__code__.co_code


def test_generated_compare_orders_constants_like_the_library():
    sig, spec = parse_definition("type bag = I(int) | S(string) | U(bag, bag)")
    ns = exec_module(compile_family(sig, spec))
    values = [-2, 0, 7, "", "B", "a", ("I", 0), ("S", "a"), ("U", ("I", 0), ("I", -2))]

    def term(v):
        if isinstance(v, tuple):
            return App(v[0], tuple(term(a) for a in v[1:]))
        return Prim("int" if isinstance(v, int) else "string", v)

    for u, v in itertools.product(values, repeat=2):
        assert ns["compare"](ns["CTOR_INDEX"], u, v) == compare(sig, term(u), term(v)), (u, v)


@pytest.mark.parametrize("name", ["exp", "vec", "aci", "bag"])
def test_generated_compare_agrees_with_the_library_on_every_pair(name):
    """The pairs the library compare is checked on against its recursive
    reference: every pair of terms of size <= 5, and int/string constants
    alone and under constructors."""
    if name == "bag":
        sig, spec = parse_definition(BAG)
        fam = compile_family(sig, spec)
        universe = bag_universe()
    else:
        sig, _, fam = load(name)
        universe = terms(name, 5)
    ns = exec_module(fam)
    gen_compare, index = ns["compare"], ns["CTOR_INDEX"]
    tuples = [to_tuple(t) for t in universe]
    for t, tt in zip(universe, tuples):
        for u, ut in zip(universe, tuples):
            assert gen_compare(index, tt, ut) == compare(sig, t, u), (t, u)


def test_generated_compare_walks_deep_chains_without_recursion():
    """Two 100,000-deep S chains, equal or differing at the bottom, under the
    default recursion limit, alone and as the arguments of P."""
    sig, spec = parse_definition("type t = L | S(t) | P(t, t)\nwith P: associative, commutative")
    ns = exec_module(compile_family(sig, spec))
    gen_compare, index = ns["compare"], ns["CTOR_INDEX"]

    def chain(n, bottom=("L",)):
        t = bottom
        for _ in range(n):
            t = ("S", t)
        return t

    n = 100_000
    a, b, c = chain(n), chain(n), chain(n, ("P", ("L",), ("L",)))
    assert gen_compare(index, a, b) == 0
    assert gen_compare(index, a, c) == -1 and gen_compare(index, c, a) == 1
    assert gen_compare(index, ("P", a, a), ("P", b, c)) == -1
    assert gen_compare(index, ("P", a, c), ("P", b, b)) == 1


def test_generated_normalize_folds_deep_terms_without_recursion():
    """P(S^100000(L), S^100000(L)) under the default recursion limit; the
    value is read with the module's own compare.  Non-tuples pass through,
    a nullary free tuple stays itself, and a wrong arity is a ValueError."""
    sig, spec = parse_definition("type t = L | S(t) | P(t, t)\nwith P: associative, commutative")
    ns = exec_module(compile_family(sig, spec))
    gen_normalize, gen_compare, index = ns["normalize"], ns["compare"], ns["CTOR_INDEX"]
    leaf = ("L",)
    for _ in range(100_000):
        leaf = ("S", leaf)
    value = gen_normalize(("P", leaf, leaf))
    assert value[0] == "P" and len(value) == 3
    assert gen_compare(index, value[1], leaf) == 0 and gen_compare(index, value[2], leaf) == 0
    assert gen_normalize(7) == 7 and gen_normalize("s") == "s"
    constant = ("L",)
    assert gen_normalize(constant) is constant
    for bad, message in [(("P", ("L",)), "P expects 2"), (("S", ("L",), ("L",)), "S expects 1"),
                         (("S", ("L", ("L",))), "L expects 0")]:
        with pytest.raises(ValueError, match=message):
            gen_normalize(bad)


def test_generated_modules_for_deep_rules_compile_and_agree_with_the_library():
    """A 600-deep right-hand side and a 1,500-deep left-hand side nest deeper
    than Python's parser accepts in one expression; every 100th level is a
    module-level name, so both modules load.  Values are read with loops."""

    def s_power(n, bottom):
        for _ in range(n):
            bottom = ("S", bottom)
        return bottom

    def depth(t):
        n = 0
        while t[0] == "S":
            t, n = t[1], n + 1
        return n, t

    sig, spec = parse_definition(
        "type t = E | S(t) | C(t, t)\nrule C(x, E) -> " + "S(" * 600 + "x" + ")" * 600
    )
    fam = compile_family(sig, spec)
    code = emit_code(fam)
    ns: dict = {}
    exec(code, ns)
    hoisted = [line.split(" = ")[0] for line in code.splitlines() if line.startswith("_T")]
    assert hoisted == [f"_T{i}" for i in range(6)]
    value = normalize(App("C", (App("E"), App("E"))), fam)
    n = 0
    while value.ctor == "S":
        value, n = value.args[0], n + 1
    assert (n, value) == (600, App("E"))
    assert depth(ns["normalize"](("C", ("E",), ("E",)))) == (600, ("E",))
    assert depth(ns["f_C"](s_power(7, ("E",)), ("E",))) == (607, ("E",))

    sig, spec = parse_definition(
        "type t = E | S(t) | C(t, t)\nrule C(" + "S(" * 1500 + "x" + ")" * 1500 + ", E) -> x"
    )
    ns = exec_module(compile_family(sig, spec))
    assert ns["f_C"](s_power(1500, ("E",)), ("E",)) == ("E",)
    assert ns["f_C"](s_power(1500, ("G",)), ("E",)) == ("G",)
    short = ns["f_C"](s_power(1499, ("E",)), ("E",))
    assert short[0] == "C" and depth(short[1]) == (1499, ("E",)) and short[2] == ("E",)


# --- one source for the dispatch and the clause matcher -----------------------------

ENGINE = [builder._construct_entry, builder._match, builder._eval_rhs]

ACCEPTED = ["aci", "acnil", "exp", "free", "left_group", "neu_rules", "vec"]


@pytest.mark.parametrize("name", ACCEPTED)
def test_generated_module_carries_the_builders_engine_verbatim(name):
    _, _, fam = load(name)
    code = emit_code(fam)
    # one contiguous block, in the builder's order, as its source reads
    assert "\n\n".join(inspect.getsource(fn) for fn in ENGINE) in code
    assert code.count("def _construct_entry(") == 1


@pytest.mark.parametrize("name", ["neu_rules", "exp"])
def test_every_global_the_engine_uses_is_bound_in_the_generated_module(name):
    _, _, fam = load(name)
    ns = exec_module(fam)
    used = set().union(*(global_names(fn.__code__) for fn in ENGINE))
    assert {"_ctor", "_split", "_make", "Var", "compare", "construct"} <= used
    unbound = {n for n in used if n not in ns and not hasattr(builtins, n)}
    if fam.classification.theories:
        assert unbound == set()
    else:
        # a module without the AC block leaves the names of the AC branches
        # unbound; no entry of the family reaches those branches
        assert unbound == {"_construct_ac", "inverse_cf"}
        kinds = {type(e) for e in fam.entries.values()}
        assert not kinds & {builder.Type2Entry, builder.InverseEntry}
    # each engine function is the builder's own code, compiled again
    for fn in ENGINE:
        assert ns[fn.__name__].__code__.co_code == fn.__code__.co_code


def test_eval_rhs_calls_construct_in_recursive_order(monkeypatch):
    """The loop makes the construct calls of a recursive left-to-right
    evaluation, in the same order, in the builder and in a generated module."""
    sig, spec = parse_definition(
        "type t = A | B | S(t) | F(t, t) | P(t, t) | G(t, t)\n"
        "with P: associative, commutative\n"
        "rule G(x, y) -> F(P(S(x), y), F(S(S(y)), P(x, A)))"
    )
    fam = compile_family(sig, spec)
    ns = exec_module(fam)
    x, y = App("B"), App("P", (App("A"), App("S", (App("B"),))))
    worlds = [  # (namespace, family, right-hand side, binding, is a variable, split)
        (vars(builder), fam, fam.entries["G"].clauses[0].rhs, {"v1": x, "v2": y},
         lambda t: isinstance(t, Var), lambda t: (t.ctor, t.args)),
        (ns, ns["FAMILY"], ns["ENTRIES"]["G"].clauses[0].rhs,
         {"v1": to_tuple(x), "v2": to_tuple(y)},
         lambda t: isinstance(t, ns["Var"]), lambda t: (t[0], t[1:])),
    ]
    for world, family, rhs, binding, is_var, split in worlds:
        calls = []
        construct = world["construct"]

        def spy(ctor, args, fam, table=None):
            calls.append((ctor, args))
            return construct(ctor, args, fam, table)

        def reference(t):
            if is_var(t):
                return binding[t.name]
            ctor, args = split(t)
            return spy(ctor, tuple(map(reference, args)), family)

        monkeypatch.setitem(world, "construct", spy)
        expected = reference(rhs)
        expected_calls, calls[:] = list(calls), []
        assert world["_eval_rhs"](rhs, binding, family) == expected
        assert calls == expected_calls and len(calls) >= 8


RULE_FAMILIES = [
    # a constant pattern, a guard under an AC node, an AC call in a right-hand side
    (
        "type t = A | B | I(int) | P(t, t) | D(t) | F(t)\n"
        "with P: associative, commutative\n"
        "rule D(x) -> P(x, x)\n"
        "rule F(I(0)) -> A\n"
        "rule F(P(x, x)) -> D(x)",
        [App("A"), App("B"), App("I", (Prim("int", 0),)), App("I", (Prim("int", 1),))],
        {
            ("F", ("I", 0)): ("A",),
            ("F", ("I", 1)): ("F", ("I", 1)),
            ("D", ("B",)): ("P", ("B",), ("B",)),
            ("F", ("P", ("B",), ("B",))): ("P", ("B",), ("B",)),
            ("F", ("P", ("B",), ("A",))): ("F", ("P", ("A",), ("B",))),
        },
    ),
    # a guard on the root's own arguments
    (
        "type t = A | B | M(t, t)\nrule M(x, x) -> x",
        [App("A"), App("B")],
        {
            ("M", ("M", ("A",), ("B",)), ("M", ("A",), ("B",))): ("M", ("A",), ("B",)),
            ("M", ("A",), ("B",)): ("M", ("A",), ("B",)),
        },
    ),
    # primitive constants in right-hand sides
    (
        'type t = E | K(int) | W(string) | F(t)\nrule F(E) -> K(7)\nrule F(K(x)) -> W("a\\"b")',
        [App("E")]
        + [App("K", (Prim("int", i),)) for i in range(6)]
        + [App("W", (Prim("string", s),)) for s in ("", "a", 'a"b', "\\", "#")],
        {
            ("F", ("E",)): ("K", 7),
            ("F", ("K", 1)): ("W", 'a"b'),
            ("F", ("F", ("E",))): ("W", 'a"b'),
            ("F", ("W", "a")): ("F", ("W", "a")),
        },
    ),
]


def two_levels(sig, atoms):
    """The atoms and every term of nesting depth <= 2 over them through the
    non-primitive-argument constructors."""
    ctors = [d for d in sig.constructors if d.arity and all(s == sig.rdt_sort for s in d.arg_sorts)]
    out = list(atoms)
    for _ in range(2):
        level = list(out)
        out = level + [
            App(d.name, args) for d in ctors for args in itertools.product(level, repeat=d.arity)
        ]
    return out


@pytest.mark.parametrize("source, atoms, spot_checks", RULE_FAMILIES, ids=["ac_rules", "nonlinear", "constants"])
def test_generated_module_matches_builder_on_rule_features(source, atoms, spot_checks):
    sig, spec = parse_definition(source)
    fam = compile_family(sig, spec)
    ns = exec_module(fam)

    def via_module(t):
        if hasattr(t, "ctor"):
            return ns[f"f_{t.ctor}"](*map(via_module, t.args))
        return t.value

    universe = two_levels(sig, atoms)
    assert len(universe) > 40
    for t, expected in spot_checks.items():
        assert ns["normalize"](t) == expected, t
    for t in universe:
        expected = to_tuple(normalize(t, fam))
        assert ns["normalize"](to_tuple(t)) == expected, t
        assert via_module(t) == expected, t


def test_generated_normalize_checks_arity():
    sig, spec = parse_definition(RULE_FAMILIES[0][0])
    ns = exec_module(compile_family(sig, spec))
    with pytest.raises(ValueError):
        ns["normalize"](("P", ("A",)))
    with pytest.raises(ValueError):
        ns["construct"]("P", (("A",),), ns["FAMILY"])
