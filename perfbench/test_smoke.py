"""Smoke test of the benchmark's generators and reference checks, on tiny inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math

import pytest

from canonform import compile_family, format_term, normalize, parse_definition, parse_ground_term
from perfbench import gen, model, workloads


def _library(name: str, text: str) -> str:
    sig, spec = parse_definition(model.def_path(name).read_text())
    return format_term(normalize(parse_ground_term(text, sig), compile_family(sig, spec)))


def test_sums_are_seeded_and_stratified():
    a = gen.sums(7, 2, 4, 16)
    assert a == gen.sums(7, 2, 4, 16)
    assert a != gen.sums(8, 2, 4, 16)
    assert len(a) == len(gen.VARIANTS) * len(gen.SHAPES) * 2
    for s in a:
        assert len(model.spine("P", s.term)) == s.leaves
        assert 4 <= s.leaves <= 16


@pytest.mark.parametrize("seed", [1, 2])
def test_reference_matches_library_on_small_sums(seed):
    for s in gen.sums(seed, 2, 3, 12):
        text = model.fmt(s.term)
        assert _library(s.definition, text) == model.fmt(model.canonical(s.definition, s.term))


def test_reference_matches_library_on_fixture_terms():
    for name, _, _ in workloads.VALIDATE_FIXTURES:
        for t in model.enumerate_terms(name, 5):
            assert _library(name, model.fmt(t)) == model.fmt(model.canonical(name, t)), name


def test_reference_rejects_a_wrong_answer():
    t = ("P", ("S", ("L",)), ("L",))
    assert model.fmt(model.canonical("syn_ac", t)) == "P(L, S(L))"
    assert model.canonical("syn_nil", ("P", ("L",), ("L",))) == ("B",)
    assert model.canonical("syn_group", ("P", ("L",), ("N", ("L",)))) == ("Z",)
    assert model.canonical("syn_left_group", ("P", ("L",), ("P", ("S", ("L",)), ("L",)))) == (
        "P", ("P", ("L",), ("L",)), ("S", ("L",)),
    )


def _leaves(t: tuple) -> int:
    stack, n = [t], 0
    while stack:
        x = stack.pop()
        n += len(x) == 1
        stack.extend(x[1:])
    return n


def test_counts_by_arity_match_enumeration():
    for name, _, _ in workloads.VALIDATE_FIXTURES:
        enumerated = model.enumerate_terms(name, 6)
        assert len(set(enumerated)) == len(enumerated)
        assert model.count_terms(name, 6) == (len(enumerated), sum(map(_leaves, enumerated)))


def test_norm_operations_pass_their_checks():
    ops = workloads.build_ops("norm_shared", 3)[:6]
    generated = workloads.load_generated(workloads.definitions(ops))
    for op in ops:
        _, result, raised = workloads.call(op)
        assert workloads.judge(op, raised, result), op.failure
        assert workloads.run_generated(op, generated[op.definition]["normalize"])[1]
    assert not any(op.wrong for op in ops)


def test_wrong_outputs_and_crashes_are_failures():
    wrong, crashed = workloads.build_ops("norm_plain", 3)[:2]
    assert not workloads.judge(wrong, None, (0, "Wrong\n", ""))
    assert wrong.wrong
    assert not workloads.judge(crashed, RecursionError(), None)
    assert crashed.failure.startswith("crash:") and not crashed.wrong


def test_measure_runs_whole_passes():
    ops = workloads.build_ops("norm_plain", 3)[:4]
    generated = workloads.load_generated(workloads.definitions(ops))
    cli_s, emit_s, passes, measured = workloads.measure(ops, generated, 0.0)
    assert passes == 1 and cli_s.count == emit_s.count == len(ops)
    assert measured > 0 and cli_s.seconds > 0 and emit_s.seconds > 0
    assert 0 < workloads.percentile(cli_s, 50) <= workloads.percentile(cli_s, 100)


def test_sharing_line_checks():
    t = ("P", ("S", ("L",)), ("P", ("L",), ("S", ("L",))))
    ref = model.canonical("syn_ac", t)  # P(L, P(S(L), S(L))): L, S(L), two P nodes
    assert model.sharing_mismatch("syn_ac", t, ref, 4, 5) is None
    assert model.sharing_mismatch("syn_ac", t, ref, 3, 5) is not None
    assert model.sharing_mismatch("syn_ac", t, ref, 4, 9) is not None


def test_failed_validate_still_prints_a_result(monkeypatch, capsys):
    from perfbench import run

    monkeypatch.setattr(workloads, "VALIDATE_FIXTURES", tuple((n, 4, x) for n, _, x in workloads.VALIDATE_FIXTURES))
    check = workloads._check_validate
    monkeypatch.setattr(workloads, "_check_validate", lambda op, *r: "forced" if op.key == "free" else check(op, *r))
    assert run.main(["--workload", "validate_fixtures", "--seed", "1", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["failed"] == 1 and not result["correct"]
    tail = result["metrics"]["norm_tail_ms"]["value"]
    assert tail > result["metrics"]["norm_p50_ms"]["value"] and math.isfinite(tail)
