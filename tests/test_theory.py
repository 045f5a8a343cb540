"""Attribute classification, axiom expansion, builtin presentations.

Soundness of every builtin presentation rule is checked against the
attribute axioms by the bounded-closure oracle on ground instances: each
rule's two sides must be provably equal from the axioms alone.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import subprocess
import sys

import pytest

import canonform

from canonform import (
    App,
    Assoc,
    ClosureBudget,
    Com,
    Idem,
    Inv,
    Neu,
    Nil,
    RewriteRule,
    Signature,
    TheoryError,
    TheorySpec,
    Type2Theory,
    Var,
    Variant,
    algebraic_equal,
    builtin_presentation,
    classify,
    closure_equal,
    equations_of,
)

from conftest import load


def v(n):
    return Var(n, "g")


GROUP_SIG = Signature(
    "g", [("Zero", []), ("One", []), ("Opp", ["g"]), ("Plus", ["g", "g"])]
)
GROUP_ATTRS = {"Plus": (Assoc(), Com(), Neu("Zero"), Inv("Opp"))}


# --- classify: accepted combinations ----------------------------------------


def test_classify_abelian_group():
    cl = classify(TheorySpec(attrs=GROUP_ATTRS, rules=()), GROUP_SIG)
    th = cl.carrier["Plus"]
    assert th.variant is Variant.GROUP
    assert (th.unit, th.inverse, th.orientation) == ("Zero", "Opp", "right")
    assert cl.inverse_of["Opp"] is th
    assert cl.free == ("One",)  # Zero and Opp are owned by the Plus theory


def test_classify_whole_catalog():
    cases = [
        ((Assoc(), Com()), Variant.AC, []),
        ((Assoc(), Com(), Idem()), Variant.ACI, []),
        ((Assoc(), Com(), Neu("E"), Idem()), Variant.ACI_NEU, [("E", [])]),
        ((Assoc(), Com(), Nil("E")), Variant.ACNIL, [("E", [])]),
        ((Assoc(), Com(), Neu("E"), Nil("E")), Variant.ACNIL_NEU, [("E", [])]),
    ]
    for attrs, variant, extra in cases:
        sig = Signature("s", extra + [("X", []), ("C", ["s", "s"])])
        cl = classify(TheorySpec(attrs={"C": attrs}, rules=()), sig)
        assert cl.carrier["C"].variant is variant


def test_classify_is_independent_of_attribute_order():
    for perm in itertools.permutations(GROUP_ATTRS["Plus"]):
        cl = classify(TheorySpec(attrs={"Plus": perm}, rules=()), GROUP_SIG)
        assert cl.carrier["Plus"].variant is Variant.GROUP


def test_left_orientation_is_recorded():
    attrs = {"Plus": (Assoc("left"), Com(), Neu("Zero"), Inv("Opp"))}
    cl = classify(TheorySpec(attrs=attrs, rules=()), GROUP_SIG)
    assert cl.carrier["Plus"].orientation == "left"
    assert cl.orientations()["Plus"] == "left"


def test_type1_and_free_partition():
    sig, spec, _ = load("neu_rules")
    cl = classify(spec, sig)
    assert cl.type1 == ("C",)
    assert set(cl.free) == {"E", "G"}
    assert not cl.theories


# --- classify: rejections ----------------------------------------------------


def reject(attrs, match, sig=None, rules=()):
    sig = sig or GROUP_SIG
    with pytest.raises(TheoryError, match=match):
        classify(TheorySpec(attrs=attrs, rules=rules), sig)


def test_classify_rejects_outside_catalog():
    reject({"Plus": (Com(),)}, "commutativity requires associativity")
    reject({"Plus": (Assoc(),)}, "associativity requires commutativity")
    reject({"Plus": (Assoc(), Com(), Neu("Zero"))}, "unsupported attribute combination")
    reject(
        {"Plus": (Assoc(), Com(), Idem(), Nil("Zero"))},
        "unsupported attribute combination",
    )
    reject(
        {"Plus": (Assoc(), Com(), Com())},
        "duplicate com attribute",
    )
    reject({"Plus": (Assoc(), Com(), Inv("Opp"))}, "inverse requires a declared neutral")


def test_classify_rejects_bad_companions():
    reject({"Plus": (Assoc(), Com(), Neu("Opp"), Inv("Opp"))}, "must be a nullary")
    reject({"Plus": (Assoc(), Com(), Neu("Zero"), Inv("One"))}, "must be unary")
    reject({"Opp": (Assoc(), Com())}, "only to binary constructors")
    reject({"Times": (Assoc(), Com())}, "undeclared constructor")


def test_companion_shape_messages_are_exact():
    cases = [
        (
            {"Opp": (Assoc(), Com())},
            "equational attributes apply only to binary constructors over 'g'; "
            "'Opp' has arguments ['g']",
        ),
        (
            {"Plus": (Assoc(), Com(), Neu("Opp"), Inv("Opp"))},
            "neutral element 'Opp' of 'Plus' must be a nullary constructor",
        ),
        (
            {"Plus": (Assoc(), Com(), Neu("Zero"), Inv("One"))},
            "inverse 'One' of 'Plus' must be unary over 'g'",
        ),
        (
            {"Plus": (Assoc(), Com(), Nil("Opp"))},
            "absorber 'Opp' of 'Plus' must be a nullary constructor",
        ),
    ]
    for attrs, message in cases:
        with pytest.raises(TheoryError) as err:
            classify(TheorySpec(attrs=attrs, rules=()), GROUP_SIG)
        assert str(err.value) == message


def test_classify_reports_the_first_repeated_attribute_in_source_order():
    cases = [
        ((Assoc(), Com(), Com(), Idem(), Idem()), "com"),
        ((Assoc(), Idem(), Com(), Idem(), Com()), "idem"),
        ((Idem(), Assoc(), Com(), Com(), Idem()), "com"),
        ((Assoc(), Com(), Neu("Zero"), Inv("Opp"), Neu("Zero"), Assoc()), "neu"),
    ]
    for attrs, kind in cases:
        with pytest.raises(TheoryError) as err:
            classify(TheorySpec(attrs={"Plus": attrs}, rules=()), GROUP_SIG)
        assert str(err.value) == f"duplicate {kind} attribute on 'Plus'"


def test_theory_symbols_are_ordered_and_deduplicated():
    th = Type2Theory(Variant.ACNIL_NEU, "C", unit="E", absorber="E")
    assert th.symbols() == ("C", "E")  # a unit that is the absorber is one symbol
    th = Type2Theory(Variant.GROUP, "Plus", unit="Zero", inverse="Opp")
    assert th.symbols() == ("Plus", "Zero", "Opp")


def test_shared_symbol_diagnostic_is_the_same_under_every_hash_seed(tmp_path):
    """Two theories share E and I; the first shared symbol in the order
    constructor, unit, inverse, absorber is E, whatever the string hashes."""
    path = tmp_path / "shared.rdt"
    path.write_text(
        "type t = E | A | I(t) | P(t, t) | Q(t, t)\n"
        "with P: associative, commutative, neutral(E), inverse(I)\n"
        "with Q: associative, commutative, neutral(E), inverse(I)\n"
    )
    src = str(pathlib.Path(canonform.__file__).resolve().parents[1])
    runs = {
        (proc.returncode, proc.stdout, proc.stderr)
        for proc in (
            subprocess.run(
                [sys.executable, "-m", "canonform", "check", str(path)],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=60,
            )
            for seed in map(str, range(1, 9))
        )
    }
    assert runs == {(
        1,
        "",
        "error[theory]: symbol 'E' is shared by the theories of 'P' and 'Q'; "
        "theories must be disjoint\n",
    )}


def test_classify_rejects_shared_symbols():
    sig = Signature(
        "s", [("E", []), ("C", ["s", "s"]), ("D", ["s", "s"])]
    )
    attrs = {
        "C": (Assoc(), Com(), Neu("E"), Idem()),
        "D": (Assoc(), Com(), Neu("E"), Idem()),
    }
    reject(attrs, "shared by the theories", sig=sig)


def test_classify_rejects_rules_on_theory_symbols():
    rule = RewriteRule(App("Plus", (v("x"), v("x"))), v("x"))
    reject(GROUP_ATTRS, "belongs to the equational theory", rules=(rule,))
    bad = RewriteRule(v("x"), v("x"))
    reject({}, "headed by a constructor", rules=(bad,))
    free_var = RewriteRule(App("Opp", (v("x"),)), v("y"))
    reject({}, None, rules=(free_var,))


# --- equations_of ------------------------------------------------------------


def test_equations_of_group():
    spec = TheorySpec(attrs=GROUP_ATTRS, rules=())
    eqs = equations_of(spec, GROUP_SIG)
    x, y, z = v("x"), v("y"), v("z")
    P = lambda a, b: App("Plus", (a, b))
    assert (P(P(x, y), z), P(x, P(y, z))) in eqs
    assert (P(x, y), P(y, x)) in eqs
    assert (P(x, App("Zero")), x) in eqs
    assert (P(x, App("Opp", (x,))), App("Zero")) in eqs


def test_equations_of_user_rules_and_empty():
    sig, spec, _ = load("neu_rules")
    eqs = equations_of(spec, sig)
    assert len(eqs) == 2 and all(isinstance(l, App) for l, _ in eqs)
    assert equations_of(TheorySpec(attrs={}, rules=()), GROUP_SIG) == []


# --- builtin presentations ---------------------------------------------------


def test_group_presentation_is_the_six_rules():
    cl = classify(TheorySpec(attrs=GROUP_ATTRS, rules=()), GROUP_SIG)
    rules = builtin_presentation(cl.carrier["Plus"], GROUP_SIG)
    assert [str(r) for r in rules] == [
        "Plus(Zero, x) -> x",
        "Plus(Opp(x), x) -> Zero",
        "Plus(Plus(Opp(x), x), y) -> y",
        "Opp(Zero) -> Zero",
        "Opp(Opp(x)) -> x",
        "Opp(Plus(x, y)) -> Plus(Opp(y), Opp(x))",
    ]


def test_other_presentations():
    sig, spec, _ = load("aci")
    th = classify(spec, sig).carrier["Or"]
    assert [str(r) for r in builtin_presentation(th, sig)] == [
        "Or(x, x) -> x",
        "Or(x, Or(x, y)) -> Or(x, y)",
    ]
    sig, spec, _ = load("acnil")
    th = classify(spec, sig).carrier["Xor"]
    assert [str(r) for r in builtin_presentation(th, sig)] == [
        "Xor(x, x) -> Bot",
        "Xor(x, Xor(x, y)) -> Xor(Bot, y)",
    ]
    sig = Signature("s", [("X", []), ("Mul", ["s", "s"])])
    spec = TheorySpec(attrs={"Mul": (Assoc(), Com())}, rules=())
    assert builtin_presentation(classify(spec, sig).carrier["Mul"], sig) == ()


CATALOG_SIG = Signature("s", [("E", []), ("A", []), ("I", ["s"]), ("C", ["s", "s"])])
PAIR_RULES = ["C(x, x) -> x", "C(x, C(x, y)) -> C(x, y)"]
ABSORBER_RULES = ["C(x, x) -> A", "C(x, C(x, y)) -> C(A, y)"]
UNIT_RULES = ["C(x, E) -> x", "C(E, x) -> x"]


@pytest.mark.parametrize("orientation", ["right", "left"])
@pytest.mark.parametrize(
    "attrs, expected",
    [
        ((Com(),), []),
        (
            (Com(), Neu("E"), Inv("I")),
            [
                "C(E, x) -> x",
                "C(I(x), x) -> E",
                "C(C(I(x), x), y) -> y",
                "I(E) -> E",
                "I(I(x)) -> x",
                "I(C(x, y)) -> C(I(y), I(x))",
            ],
        ),
        ((Com(), Idem()), PAIR_RULES),
        ((Com(), Neu("E"), Idem()), PAIR_RULES + UNIT_RULES),
        ((Com(), Nil("A")), ABSORBER_RULES),
        ((Com(), Neu("E"), Nil("A")), ABSORBER_RULES + UNIT_RULES),
        (
            (Com(), Neu("E"), Nil("E")),
            ["C(x, x) -> E", "C(x, C(x, y)) -> C(E, y)"] + UNIT_RULES,
        ),
    ],
    ids=["ac", "group", "aci", "aci-neutral", "acnil", "acnil-neutral", "acnil-unit-absorber"],
)
def test_every_catalog_presentation(attrs, expected, orientation):
    spec = TheorySpec(attrs={"C": (Assoc(orientation), *attrs)}, rules=())
    th = classify(spec, CATALOG_SIG).carrier["C"]
    assert th.orientation == orientation
    assert [str(r) for r in builtin_presentation(th, CATALOG_SIG)] == expected


def test_a_variant_outside_the_catalog_has_no_presentation():
    th = Type2Theory("ac-neutral", "C", unit="E")  # not a Variant
    with pytest.raises(TheoryError, match="no builtin presentation"):
        builtin_presentation(th, CATALOG_SIG)


def ground_instances(rule, sig, leaves):
    """Substitute every combination of the given ground leaves for the
    rule's variables."""
    names = sorted(
        {t.name for side in (rule.lhs, rule.rhs) for t in _vars_of(side)}
    )
    for combo in itertools.product(leaves, repeat=len(names)):
        sub = dict(zip(names, combo))
        yield _subst(rule.lhs, sub), _subst(rule.rhs, sub)


def _vars_of(t):
    if isinstance(t, Var):
        yield t
    elif isinstance(t, App):
        for a in t.args:
            yield from _vars_of(a)


def _subst(t, sub):
    if isinstance(t, Var):
        return sub[t.name]
    if isinstance(t, App):
        return App(t.ctor, tuple(_subst(a, sub) for a in t.args))
    return t


@pytest.mark.parametrize("fixture", ["exp", "aci", "acnil"])
def test_presentation_rules_follow_from_the_axioms(fixture):
    """Every presentation rule must be sound for the attribute axioms.

    The bounded closure proves the rules whose derivations never introduce
    new subterms.  The group's inverse rules need a step that conjures
    x + Opp(x) out of Zero, which the closure (soundly) never does, so those
    are cross-checked against the exact algebraic interpretation instead —
    two independently built truth sources agreeing on the same rules.
    """
    sig, spec, _ = load(fixture)
    cl = classify(spec, sig)
    eqs = equations_of(spec, sig)
    th = cl.theories[0]
    leaves = [App(d.name) for d in sig.constructors if d.arity == 0]
    budget = ClosureBudget(max_steps=30000)
    for rule in builtin_presentation(th, sig):
        introduces_inverse = th.inverse is not None and (
            _mentions(rule.lhs, th.inverse) or _mentions(rule.rhs, th.inverse)
        )
        for lhs, rhs in ground_instances(rule, sig, leaves):
            if introduces_inverse:
                assert algebraic_equal(cl, sig, lhs, rhs), f"{rule} at {lhs}"
            else:
                assert closure_equal(eqs, lhs, rhs, budget), f"{rule} at {lhs}"


def _mentions(t, ctor):
    if isinstance(t, App):
        return t.ctor == ctor or any(_mentions(a, ctor) for a in t.args)
    return False
