"""The value pass of validate_family: one check per (constructor, argument
values) tuple instead of one per term.

A clean pass must mean what the full enumeration (validate_terms) would have
said, a sabotaged build must be flagged by the pass alone, and the closed
verdict must hold exactly for the finite quotients.
"""

from __future__ import annotations

import functools
import pathlib

import pytest

from canonform import (
    App,
    CanonError,
    SignatureError,
    Var,
    cli,
    compare,
    compile_family,
    enumerate_ground,
    equations_of,
    parse_definition,
    size,
    validate_family,
    validate_terms,
)
import canonform.acnf as acnf
import canonform.builder as builder
import canonform.oracle as oracle
import canonform.terms as terms_mod
from canonform.terms import _splice, positions, subterm_at

from conftest import FIXTURES, instantiate, load, match_syntactic, terms

DEFS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "defs"


def catalog_definitions() -> list[pathlib.Path]:
    """Every definition file that compiles to a family without rules."""
    out = []
    for path in sorted(FIXTURES.glob("*.rdt")) + sorted(DEFS.glob("*.rdt")):
        try:
            sig, spec = parse_definition(path.read_text())
            fam = compile_family(sig, spec)
        except CanonError:
            continue
        if not fam.classification.type1:
            out.append(path)
    return out


def report_fields(report):
    return (
        report.max_size,
        report.correctness,
        report.completeness,
        report.acnf_violations,
        report.redexes,
        report.unknowns,
    )


@pytest.mark.parametrize("path", catalog_definitions(), ids=lambda p: p.parent.name + "/" + p.stem)
def test_value_pass_agrees_with_the_full_enumeration(path):
    sig, spec = parse_definition(path.read_text())
    fam = compile_family(sig, spec)
    for max_size in range(1, 8):
        fast = validate_family(fam, spec, sig, max_size)
        full = validate_terms(fam, spec, sig, max_size)
        assert report_fields(fast) == report_fields(full), (path.name, max_size)
        assert fast.summary() == full.summary() == f"valid at scale {max_size}"


def unsorted_insert(ctor, x, u, fam, table=None):
    return App(ctor, (x, u))


def never_cancel(ctor, x_inv, y, fam, table=None):
    inv = fam.entries[ctor].theory.inverse
    x = builder.inverse_cf(inv, x_inv, fam, table)
    return builder.insert(ctor, x, y, fam, table)


@pytest.mark.parametrize(
    "name, attr, sabotage",
    [
        ("vec", "insert", unsorted_insert),
        ("vec", "insert_inv", never_cancel),
        ("left_group", "insert", unsorted_insert),
        ("left_group", "insert_inv", never_cancel),
        ("acnil", "insert", unsorted_insert),
    ],
)
@pytest.mark.parametrize("max_size", [5, 7])
def test_value_pass_alone_flags_each_sabotage(monkeypatch, name, attr, sabotage, max_size):
    sig, spec, _ = load(name)
    monkeypatch.setattr(builder, attr, sabotage)
    fam = compile_family(sig, spec)
    assert oracle._value_pass(fam, spec, sig, max_size) is None
    report = validate_family(fam, spec, sig, max_size)
    assert report.has_failures and not report.closed
    assert report_fields(report) == report_fields(validate_terms(fam, spec, sig, max_size))


def test_value_pass_flags_a_value_whose_only_fault_is_a_redex(monkeypatch):
    """A build that adds the unit to every sum it makes keeps each value's
    key and keeps its combs sorted, so only the redex search can reject it."""
    sig, spec, _ = load("vec")
    real = builder._construct_ac
    order = functools.cmp_to_key(lambda a, b: compare(sig, a, b))

    def add_unit(ctor, entry, args, fam):
        v = real(ctor, entry, args, fam)
        leaves = acnf.spine(ctor, v)
        if len(leaves) < 2 or entry.unit in leaves:
            return v
        return acnf.build_comb(ctor, sorted([*leaves, entry.unit], key=order), fam.orientations()[ctor])

    monkeypatch.setattr(builder, "_construct_ac", add_unit)
    fam = compile_family(sig, spec)
    assert oracle._value_pass(fam, spec, sig, 3) is None
    report = validate_terms(fam, spec, sig, 3)
    assert report.redexes and not (report.correctness or report.completeness or report.acnf_violations)
    assert report_fields(validate_family(fam, spec, sig, 3)) == report_fields(report)


def test_value_pass_leaves_an_exception_of_construct_to_the_full_enumeration(monkeypatch):
    sig, spec, _ = load("vec")

    def broken(*args):
        raise ZeroDivisionError("sabotaged insert")

    monkeypatch.setattr(builder, "insert", broken)
    fam = compile_family(sig, spec)
    assert oracle._value_pass(fam, spec, sig, 5) is None
    with pytest.raises(ZeroDivisionError, match="sabotaged insert"):
        validate_family(fam, spec, sig, 5)


def test_clean_validate_at_size_20_enumerates_no_term(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_ground called")

    monkeypatch.setattr(oracle, "enumerate_ground", refuse)
    monkeypatch.setattr(terms_mod, "enumerate_ground", refuse)
    code = cli.main(["validate", str(FIXTURES / "vec.rdt"), "--size", "20"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "valid at scale 20\n", "")


@pytest.mark.parametrize(
    "name, max_size, closed",
    [
        ("aci", 9, True),
        ("acnil", 9, False),
        ("acnil", 11, True),
        ("acnil", 14, True),
        ("free", 9, False),
    ]
    + [("vec", n, False) for n in (1, 5, 9, 13)],
)
def test_closed_quotient_verdict(name, max_size, closed):
    sig, spec, fam = load(name)
    report = validate_family(fam, spec, sig, max_size)
    assert report.ok
    assert report.closed is closed
    # the verdict is not printed
    assert report.summary() == f"valid at scale {max_size}"
    assert report.machine_lines() == []


def test_rule_defined_families_are_never_closed():
    sig, spec, fam = load("neu_rules")
    report = validate_family(fam, spec, sig, 5)
    assert report.ok and not report.closed


def test_closed_family_has_every_larger_term_in_its_value_set():
    sig, spec, fam = load("acnil")
    values = {builder.normalize(t, fam) for t in terms("acnil", 5)}
    assert len(values) == 7
    for t in terms("acnil", 8):
        assert builder.normalize(t, fam) in values


PRIM = "type cell = Nil | Cons(int, cell)\n"


@pytest.mark.parametrize(
    "text, max_size, message",
    [
        ((FIXTURES / "vec.rdt").read_text(), 0, "max_size must be at least 1"),
        ((FIXTURES / "vec.rdt").read_text(), -1, "max_size must be at least 1"),
        (
            PRIM,
            3,
            "constructor 'Cons' takes a 'int' argument; primitive domains are unbounded",
        ),
    ],
)
def test_unenumerable_requests_keep_their_diagnostics(tmp_path, capsys, text, max_size, message):
    sig, spec = parse_definition(text)
    fam = compile_family(sig, spec)
    with pytest.raises(SignatureError) as enumerated:
        enumerate_ground(sig, sig.rdt_sort, max_size)
    with pytest.raises(SignatureError) as validated:
        validate_family(fam, spec, sig, max_size)
    assert str(validated.value) == str(enumerated.value) == message

    path = tmp_path / "def.rdt"
    path.write_text(text)
    code = cli.main(["validate", str(path), "--size", str(max_size)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


DEEP_RULES = [
    "rule C(x, E) -> " + "S(" * 600 + "x" + ")" * 600,
    "rule C(" + "S(" * 1500 + "x" + ")" * 1500 + ", E) -> x",
]


@pytest.mark.parametrize("rule", DEEP_RULES, ids=["rhs_600_deep", "lhs_1500_deep"])
def test_check_accepts_deep_rules(tmp_path, capsys, rule):
    path = tmp_path / "deep.rdt"
    path.write_text(f"type t = E | S(t) | C(t, t)\n\n{rule}\n")
    code = cli.main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out == "C: 1 rewrite rule\nE: free\nS: free\n"
    assert captured.err == ""


# an expression to normalize under each deep rule, and its normal form
DEEP_NORMS = [
    ("C(E, E)", "S(" * 600 + "E" + ")" * 600),
    ("C(" + "S(" * 1500 + "E" + ")" * 1500 + ", E)", "E"),
]


@pytest.mark.parametrize(
    "rule, norm", zip(DEEP_RULES, DEEP_NORMS), ids=["rhs_600_deep", "lhs_1500_deep"]
)
def test_emit_and_norm_take_deep_rules(tmp_path, capsys, rule, norm):
    """Printing a deep rule, matching its left-hand side and building its
    right-hand side need no deep recursion."""
    path = tmp_path / "deep.rdt"
    path.write_text(f"type t = E | S(t) | C(t, t)\n\n{rule}\n")
    for fmt in ("report", "code"):
        code = cli.main(["emit", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), fmt
    expr, expected = norm
    code = cli.main(["norm", str(path), "-e", expr])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected + "\n", "")


def test_linearize_names_a_deep_pattern_in_preorder():
    depth = 20_000
    t = Var("x", "t")
    for _ in range(depth):
        t = App("C", (Var("y", "t"), t))
    lin, guard = builder.linearize(t)
    assert guard == tuple(("v1", f"v{i}") for i in range(2, depth + 1))
    u, names = lin, []
    while isinstance(u, App):
        names.append(u.args[0].name)
        u = u.args[1]
    names.append(u.name)
    assert names == [f"v{i}" for i in range(1, depth + 2)]


def reference_neighbors(t, directed, cap):
    # the closure step measured naively: splice, then measure the result
    for pos in positions(t):
        sub = subterm_at(t, pos)
        for l, r in directed:
            binding = {}
            if match_syntactic(l, sub, binding):
                nt = _splice(t, pos, instantiate(r, binding))
                if size(nt) <= cap:
                    yield nt


def test_closure_neighbours_keep_their_states_and_order():
    sig, spec, _ = load("neu_rules")
    directed = oracle._directed(equations_of(spec, sig))
    for t in terms("neu_rules", 6):
        states = oracle._States()
        interned = [states.rule(l, r) for l, r in directed]
        for cap in (size(t), size(t) + 2, size(t) + 4):
            got = list(oracle._neighbors(states.canonical(t), interned, cap, states))
            assert got == list(reference_neighbors(t, directed, cap))
