"""Command-line driver: subcommands, exit codes, diagnostic channel.

All invocations run in-process through ``cli.main`` so exit codes and
stdout/stderr splitting can be asserted exactly.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

import canonform
from canonform import cli

from conftest import FIXTURES


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ------------------------------------------------------------------------


def test_check_accepts_group_definition(capsys):
    code, out, err = run(capsys, "check", FIXTURES / "exp.rdt")
    assert code == 0
    assert "Plus: abelian-group" in out
    assert "unit=Zero" in out and "inverse=Opp" in out
    assert "right combs" in out
    assert err == ""


def test_check_prints_units_and_absorbers(capsys):
    code, out, err = run(capsys, "check", FIXTURES / "layered.rdt")
    assert (code, out, err) == (
        0,
        "Q: aci-neutral (unit=E, right combs)\n"
        "X: ac-nilpotent-neutral (unit=B, absorber=A, right combs)\n",
        "",
    )


def test_check_reports_rule_and_free_constructors(capsys):
    code, out, err = run(capsys, "check", FIXTURES / "neu_rules.rdt")
    assert code == 0
    assert "C: 2 rewrite rules" in out
    assert "E: free" in out and "G: free" in out


def test_check_rejects_commutativity_alone(capsys):
    code, out, err = run(capsys, "check", FIXTURES / "bad_com_only.rdt")
    assert code == 1
    assert out == ""
    assert "error[theory]:" in err
    assert "commutativity requires associativity" in err


def test_check_reports_parse_position(capsys, tmp_path):
    bad = tmp_path / "bad.rdt"
    bad.write_text("type t = A | a")
    code, out, err = run(capsys, "check", bad)
    assert code == 1
    assert err.startswith("1:14: error[constructor-case]:")


def test_check_reports_an_unknown_companion_at_its_position(capsys, tmp_path):
    bad = tmp_path / "bad.rdt"
    bad.write_text("type t = E | P(t, t)\nwith P: associative, commutative, nilpotent(Foo)\n")
    assert run(capsys, "check", bad) == (
        1, "", "2:45: error[unknown-constructor]: unknown constructor 'Foo'\n"
    )


def test_check_reports_a_companion_of_the_wrong_shape_at_its_position(capsys, tmp_path):
    bad = tmp_path / "bad.rdt"
    bad.write_text(
        "type t = E | P(t, t) | S(t)\n"
        "with P: associative, commutative, idempotent, neutral(P)\n"
    )
    assert run(capsys, "check", bad) == (
        1, "", "2:55: error[theory]: neutral element 'P' of 'P' must be a nullary constructor\n"
    )


# --- norm -------------------------------------------------------------------------


def test_norm_examples(capsys):
    exp = FIXTURES / "exp.rdt"
    assert run(capsys, "norm", exp, "-e", "Plus(One, Zero)")[:2][0] == 0
    code, out, _ = run(capsys, "norm", exp, "-e", "Plus(One, Zero)")
    assert (code, out) == (0, "One\n")
    _, out, _ = run(capsys, "norm", exp, "-e", "Plus(One, Opp(One))")
    assert out == "Zero\n"
    _, out, _ = run(capsys, "norm", exp, "-e", "Opp(Plus(One, Opp(Zero)))")
    assert out == "Opp(One)\n"


def test_norm_output_is_a_fixpoint(capsys):
    exp = FIXTURES / "exp.rdt"
    _, out, _ = run(capsys, "norm", exp, "-e", "Plus(Plus(One, One), Opp(One))")
    again = run(capsys, "norm", exp, "-e", out.strip())
    assert again[1] == out


def test_norm_sharing_statistics_go_to_stderr(capsys):
    exp = FIXTURES / "exp.rdt"
    code, out, err = run(
        capsys, "norm", exp, "--sharing", "-e", "Plus(One, Plus(One, One))"
    )
    assert code == 0
    assert out == "Plus(One, Plus(One, One))\n"
    assert re.fullmatch(r"sharing: nodes=(\d+) edges=(\d+)\n", err)
    nodes = int(err.split("nodes=")[1].split()[0])
    # the three distinct subterms of the input, which is its own value
    assert nodes == 3


def test_norm_rejects_bad_expressions(capsys):
    exp = FIXTURES / "exp.rdt"
    code, out, err = run(capsys, "norm", exp, "-e", "Plus(One)")
    assert code == 1
    assert out == ""
    assert "error[arity]" in err
    code, _, err = run(capsys, "norm", exp, "-e", "Plus(x, One)")
    assert code == 1
    assert "error[variable-in-ground-term]" in err


def test_norm_of_a_sum_of_deep_leaves(capsys):
    """Two 1,500-deep leaves meet in compare when the sum is built; that
    walk, like parsing and printing, needs no deep recursion."""
    syn_ac = pathlib.Path(__file__).parent.parent / "perfbench" / "defs" / "syn_ac.rdt"
    leaf = "S(" * 1500 + "L" + ")" * 1500
    code, out, err = run(capsys, "norm", syn_ac, "-e", f"P({leaf}, {leaf})")
    assert (code, out, err) == (0, f"P({leaf}, {leaf})\n", "")


# --- validate ----------------------------------------------------------------------


def test_validate_clean_family(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "exp.rdt", "--size", "5")
    assert code == 0
    assert out == "valid at scale 5\n"


def test_validate_type1_budget_exhaustion_is_distinct_from_failure(capsys):
    code, out, err = run(
        capsys, "validate", FIXTURES / "neu_rules.rdt", "--size", "5", "--budget", "3"
    )
    assert code == 3
    assert "unknown" in out


def test_validate_type1_with_enough_budget(capsys):
    code, out, err = run(
        capsys,
        "validate",
        FIXTURES / "neu_rules.rdt",
        "--size",
        "6",
        "--budget",
        "40000",
    )
    assert code == 0
    assert out == "valid at scale 6\n"


def test_validate_rejected_definition(capsys):
    code, out, err = run(capsys, "validate", FIXTURES / "bad_com_only.rdt")
    assert code == 1
    assert "error[theory]:" in err


# --- emit --------------------------------------------------------------------------


def test_emit_report_default(capsys):
    code, out, err = run(capsys, "emit", FIXTURES / "exp.rdt")
    assert code == 0
    assert "f_Plus: (Zero, y) -> y" in out
    assert "insert_inv_Plus" in out


def test_emit_code_is_executable(capsys):
    code, out, err = run(capsys, "emit", FIXTURES / "exp.rdt", "--format", "code")
    assert code == 0
    ns: dict = {}
    exec(out, ns)
    assert ns["f_Plus"](("One",), ("Opp", ("One",))) == ("Zero",)


# --- every command ------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture, expected_code, expected_err",
    [
        ("no_such.rdt", 2, "error[io]: cannot read"),
        ("latin1.rdt", 2, "error[io]: cannot read"),
        ("bad_com_only.rdt", 1, "error[theory]:"),
    ],
)
@pytest.mark.parametrize(
    "command", [["check"], ["norm", "-e", "A"], ["validate"], ["emit"]], ids=lambda c: c[0]
)
def test_unreadable_or_rejected_definition(
    capsys, tmp_path, command, fixture, expected_code, expected_err
):
    path = FIXTURES / fixture
    if fixture == "latin1.rdt":  # a valid definition, except for one Latin-1 byte
        path = tmp_path / fixture
        path.write_bytes(b"type t = A | B\n# caf\xe9\n")
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert (code, out) == (expected_code, "")
    assert expected_err in err


# --- argument parsing ----------------------------------------------------------------


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["tidy", "x.rdt"])
    assert info.value.code == 2


def test_norm_requires_an_expression(capsys):
    with pytest.raises(SystemExit):
        cli.main(["norm", str(FIXTURES / "exp.rdt")])


def _outcome(capsys, argv):
    # exit code (main's return or argparse's SystemExit), stdout, stderr
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_successive_calls_as_a_fresh_one_would(capsys):
    """main builds its parser once per process: a norm, a usage error and a
    check in a row print exactly what each prints from a fresh parser."""
    exp = str(FIXTURES / "exp.rdt")
    calls = [
        ["norm", exp, "-e", "Plus(One, Opp(One))"],
        ["norm", exp, "-e", "One", "--bogus"],
        ["check", exp],
    ]
    cli._build_parser.cache_clear()
    in_a_row = [_outcome(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert in_a_row == fresh
    assert in_a_row[0] == (0, "Zero\n", "")
    code, out, err = in_a_row[1]
    assert (code, out) == (2, "")
    assert err.startswith("usage: canonform") and "unrecognized arguments: --bogus" in err
    assert in_a_row[2][0] == 0 and "Plus: abelian-group" in in_a_row[2][1]


# --- running as a module -------------------------------------------------------------


@pytest.mark.parametrize("module", ["canonform", "canonform.cli"])
@pytest.mark.parametrize(
    "fixture, expected_code, expected_text",
    [("exp.rdt", 0, "Plus: abelian-group"), ("bad_com_only.rdt", 1, "error[theory]:")],
)
def test_python_dash_m_runs_the_cli(capsys, module, fixture, expected_code, expected_text):
    """`python -m` prints and exits exactly as the in-process `cli.main` does."""
    src = pathlib.Path(canonform.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "check", str(FIXTURES / fixture)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    code, out, err = run(capsys, "check", FIXTURES / fixture)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == expected_code
    assert expected_text in out + err
