"""Acceptance suite: eight end-to-end criteria, one test per criterion.

Each criterion re-derives its expected values from an oracle written in
this file (integer interpretation, set semantics, parity semantics,
bounded closure, brute-force subterm counting) rather than trusting the
library under test.  Every test finishes by printing a single
``criterion N: PASS`` line; run with ``pytest -s`` to see them.

Pinned bounds:
  1. abelian group, size <= 9, wall clock < 60 s
  2. completeness on equal-value pairs, size <= 7
  3. ACI and AC-nilpotent two-generator suites, size <= 8
  4. rule-defined unit laws vs bounded closure, size <= 8, 40000 steps
  5. idempotence and argument-order independence on the criteria 1-4 sets
  6. maximal sharing, size <= 7
  7. sabotaged insertion detected by `validate` at size <= 5
  8. CLI exit codes 0/1/2/3 and printing-fixpoint output
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict

from canonform import (
    App,
    ClosureBudget,
    HashConsTable,
    builtin_presentation,
    classify,
    cli,
    closure_classes,
    compile_family,
    construct,
    enumerate_ground,
    equations_of,
    find_redex,
    format_term,
    is_ac_normal,
    normalize,
    parse_definition,
)
import canonform.builder as builder

from conftest import FIXTURES, load, terms


# --- test-local oracles ---------------------------------------------------------


def ival(t) -> int:
    """Integer meaning of an exp/vec term (generators count as +1 each slot)."""
    if t.ctor == "Zero":
        return 0
    if t.ctor == "One":
        return 1
    if t.ctor == "Opp":
        return -ival(t.args[0])
    return ival(t.args[0]) + ival(t.args[1])


def leaves_under(t, ctor) -> list:
    if t.ctor == ctor:
        return leaves_under(t.args[0], ctor) + leaves_under(t.args[1], ctor)
    return [t]


def set_key(t) -> frozenset:
    """ACI meaning: the set of generators joined together."""
    return frozenset(leaves_under(t, "Or"))


def parity_key(t) -> tuple:
    """AC-nilpotent meaning: generators with odd multiplicity, plus a flag
    recording whether anything collapsed (a cancelled pair or an explicit
    absorber keeps one absorber in the value)."""
    m = Counter(leaves_under(t, "Xor"))
    bots = m.pop(App("Bot"), 0)
    odd = frozenset(g for g, n in m.items() if n % 2)
    collapsed = bots > 0 or sum(m.values()) > len(odd)
    return (odd, collapsed)


# --- criteria ---------------------------------------------------------------------


def test_criterion_1_abelian_group_normal_forms():
    sig, spec, fam = load("exp")
    th = classify(spec, sig).carrier["Plus"]
    rules = builtin_presentation(th, sig)
    orient = {"Plus": "right"}
    start = time.monotonic()
    universe = terms("exp", 9)
    assert len(universe) == 5698
    for t in universe:
        v = normalize(t, fam)
        assert ival(v) == ival(t), format_term(t)
        assert is_ac_normal(sig, v, orient), format_term(v)
        assert find_redex(sig, v, rules, orient) is None, format_term(v)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 1: PASS — {len(universe)} terms of size <= 9: integer meaning "
        f"preserved, all values AC-normal and redex-free ({elapsed:.2f}s)"
    )


def test_criterion_2_completeness_on_equal_values():
    _, _, fam = load("exp")
    by_value = defaultdict(set)
    universe = terms("exp", 7)
    for t in universe:
        by_value[ival(t)].add(normalize(t, fam))
    pairs = sum(
        len(g) * (len(g) - 1) // 2
        for g in (
            [t for t in universe if ival(t) == n] for n in by_value
        )
    )
    for n, forms in by_value.items():
        assert len(forms) == 1, (n, sorted(map(format_term, forms)))
    print(
        f"criterion 2: PASS — {pairs} equal-value pairs among {len(universe)} "
        f"terms of size <= 7 all share one normal form"
    )


def test_criterion_3_aci_and_nilpotent_suites():
    checked = {}
    for name, key in [("aci", set_key), ("acnil", parity_key)]:
        sig, spec, fam = load(name)
        carrier = next(iter(classify(spec, sig).carrier))
        th = classify(spec, sig).carrier[carrier]
        rules = builtin_presentation(th, sig)
        orient = {carrier: "right"}
        universe = terms(name, 8)
        by_key = defaultdict(set)
        for t in universe:
            v = normalize(t, fam)
            assert key(v) == key(t), format_term(t)
            assert is_ac_normal(sig, v, orient), format_term(v)
            assert find_redex(sig, v, rules, orient) is None, format_term(v)
            by_key[key(t)].add(v)
        for k, forms in by_key.items():
            assert len(forms) == 1, (k, sorted(map(format_term, forms)))
        checked[name] = len(universe)
    print(
        f"criterion 3: PASS — set semantics ({checked['aci']} terms) and parity "
        f"semantics ({checked['acnil']} terms) both correct and complete at size <= 8"
    )


def test_criterion_4_rule_defined_units_vs_closure():
    sig, spec, fam = load("neu_rules")
    eqs = equations_of(spec, sig)
    universe = terms("neu_rules", 8)
    uf, truncated = closure_classes(eqs, universe, ClosureBudget(max_steps=40000))
    assert not truncated
    nf = {t: normalize(t, fam) for t in universe}
    for t in universe:
        # every term is provably equal to its normal form
        assert uf.find(t) == uf.find(nf[t]), format_term(t)
    for t, u in itertools.combinations(universe, 2):
        assert (uf.find(t) == uf.find(u)) == (nf[t] == nf[u]), (t, u)

    # clause order among the non-default clauses is irrelevant
    swapped_text = (
        "type mon = E | G | C(mon, mon)\n"
        "rule C(E, x) -> x\n"
        "rule C(x, E) -> x\n"
    )
    sig2, spec2 = parse_definition(swapped_text)
    fam2 = compile_family(sig2, spec2)
    for t in universe:
        assert normalize(t, fam2) == nf[t], format_term(t)
    print(
        f"criterion 4: PASS — {len(universe)} terms of size <= 8 agree with the "
        f"closure partition, invariant under clause permutation"
    )


def test_criterion_5_idempotence_and_argument_order():
    def fold_right_to_left(t, fam):
        out = [None] * len(t.args)
        for i in reversed(range(len(t.args))):
            out[i] = fold_right_to_left(t.args[i], fam)
        return construct(t.ctor, tuple(out), fam)

    total = 0
    for name, size in [("exp", 9), ("exp", 7), ("aci", 8), ("acnil", 8), ("neu_rules", 8)]:
        _, _, fam = load(name)
        for t in terms(name, size):
            v = normalize(t, fam)
            assert normalize(v, fam) == v, format_term(t)
            assert fold_right_to_left(t, fam) == v, format_term(t)
            total += 1
    print(
        f"criterion 5: PASS — normalize is idempotent and argument evaluation "
        f"order is irrelevant on all {total} terms from criteria 1-4"
    )


def test_criterion_6_maximal_sharing():
    sig, _, fam = load("exp")
    universe = terms("exp", 7)

    table = HashConsTable(sig)
    reps = [table.from_term(t) for t in universe]
    # (a) identity coincides with structural equality
    assert len({id(r) for r in reps}) == len(universe)
    for t, r in zip(universe, reps):
        assert table.from_term(t) is r

    # (b) node count equals the brute-force distinct-subterm count
    distinct = set()
    stack = list(universe)
    while stack:
        t = stack.pop()
        if t not in distinct:
            distinct.add(t)
            stack.extend(t.args)
    nodes, _ = table.sharing_stats()
    assert nodes == len(distinct)

    # (c) shared-mode normal forms read back identical to plain mode
    shared = HashConsTable(sig)
    for t in universe:
        a = normalize(t, fam, shared)
        b = normalize(t, fam)
        assert a == b
        assert format_term(a) == format_term(b)
    print(
        f"criterion 6: PASS — {len(universe)} interned terms of size <= 7: identities "
        f"mirror structure, {nodes} nodes = distinct subterms, shared and plain "
        f"normal forms identical"
    )


def test_criterion_7_mutation_detection(monkeypatch, capsys):
    vec = str(FIXTURES / "vec.rdt")

    def unsorted_insert(ctor, x, u, fam, table=None):
        return App(ctor, (x, u))

    monkeypatch.setattr(builder, "insert", unsorted_insert)
    code = cli.main(["validate", vec, "--size", "5"])
    out = capsys.readouterr().out
    assert code == 1
    lines_a = [l for l in out.splitlines() if "\t" in l]
    assert lines_a
    monkeypatch.undo()

    real_insert = builder.insert

    def never_cancel(ctor, x_inv, y, fam, table=None):
        inv = fam.entries[ctor].theory.inverse
        return real_insert(ctor, builder.inverse_cf(inv, x_inv, fam, table), y, fam, table)

    monkeypatch.setattr(builder, "insert_inv", never_cancel)
    code = cli.main(["validate", vec, "--size", "5"])
    out = capsys.readouterr().out
    assert code == 1
    lines_b = [l for l in out.splitlines() if "\t" in l]
    assert lines_b
    monkeypatch.undo()

    assert cli.main(["validate", vec, "--size", "5"]) == 0
    capsys.readouterr()
    print(
        f"criterion 7: PASS — unsorted insertion ({len(lines_a)} counterexamples) "
        f"and cancellation-free group insertion ({len(lines_b)}) both caught at "
        f"size <= 5; pristine build validates clean"
    )


def test_criterion_8_cli_contract(capsys):
    cases = [
        (["validate", str(FIXTURES / "exp.rdt"), "--size", "5"], 0),
        (["check", str(FIXTURES / "bad_com_only.rdt")], 1),
        (["check", str(FIXTURES / "missing_file.rdt")], 2),
        (["validate", str(FIXTURES / "neu_rules.rdt"), "--size", "5", "--budget", "3"], 3),
    ]
    for argv, expected in cases:
        assert cli.main(argv) == expected, argv
        capsys.readouterr()

    # norm output is a printing fixpoint: feeding it back reproduces it
    exp = str(FIXTURES / "exp.rdt")
    for source in ["Plus(One, Plus(Opp(One), One))", "Opp(Plus(One, One))", "Zero"]:
        assert cli.main(["norm", exp, "-e", source]) == 0
        printed = capsys.readouterr().out
        assert cli.main(["norm", exp, "-e", printed.strip()]) == 0
        assert capsys.readouterr().out == printed
    print(
        "criterion 8: PASS — exit codes 0/1/2/3 as documented; norm output "
        "is a printing fixpoint"
    )
