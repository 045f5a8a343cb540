"""Definition-file parsing: happy paths, diagnostics, ground-term parsing.

Every diagnostic is pinned down to its rendered form
``line:col: error[code]: message`` so CLI output stays stable.
"""

from __future__ import annotations

import pathlib

import pytest

from canonform import (
    App,
    Assoc,
    Com,
    Inv,
    Neu,
    ParseError,
    Prim,
    RewriteRule,
    Var,
    enumerate_ground,
    format_term,
    parse_definition,
    parse_ground_term,
)

from conftest import FIXTURES


def parse_file(name: str):
    return parse_definition((FIXTURES / name).read_text())


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_definition(text)
    return info.value


# --- accepted definitions -----------------------------------------------------


def test_parse_group_fixture():
    sig, spec = parse_file("exp.rdt")
    assert sig.rdt_sort == "exp"
    assert [d.name for d in sig.constructors] == ["Zero", "One", "Opp", "Plus"]
    assert sig.declaration("Plus").arg_sorts == ("exp", "exp")
    assert sig.declaration("Opp").arg_sorts == ("exp",)
    attrs = dict(spec.attrs)["Plus"]
    assert Assoc("right") in attrs
    assert Com() in attrs
    assert Neu("Zero") in attrs
    assert Inv("Opp") in attrs
    assert spec.rules == ()


def test_parse_left_orientation():
    _, spec = parse_file("left_group.rdt")
    assert Assoc("left") in dict(spec.attrs)["Plus"]


def test_parse_rules():
    sig, spec = parse_file("neu_rules.rdt")
    x = Var("x", "mon")
    assert spec.rules == (
        RewriteRule(App("C", (x, App("E"))), x),
        RewriteRule(App("C", (App("E"), x)), x),
    )


def test_parse_primitive_argument_sorts():
    sig, _ = parse_definition("type cell = Nil | Cons(int, cell)")
    assert sig.declaration("Cons").arg_sorts == ("int", "cell")


def test_comments_and_whitespace_are_ignored():
    sig, _ = parse_definition(
        "# leading comment\n\ntype t = A # trailing\n    | B\n"
    )
    assert [d.name for d in sig.constructors] == ["A", "B"]


# --- diagnostics ----------------------------------------------------------------


def test_diagnostic_rendering_shape():
    e = err("type t = a")
    assert e.render() == f"{e.line}:{e.col}: error[{e.code}]: {e.args[0]}"
    assert e.render().startswith("1:10: error[constructor-case]:")


@pytest.mark.parametrize(
    "text, code, fragment",
    [
        ("", "syntax", "expected 'type'"),
        ("type t = ", "syntax", ""),
        ("type t = a | B", "constructor-case", "a"),
        ("type t = A | A", "duplicate-constructor", "A"),
        ("type t = A | F(u)", "unknown-sort", "u"),
        ("type t = A | M(t, t)\nwith N: commutative", "unknown-constructor", "N"),
        (
            "type t = A | M(t, t)\nwith M: commutative\nwith M: associative",
            "duplicate-attr-block",
            "M",
        ),
        ("type t = A | M(t, t)\nwith M: frobby", "unknown-attribute", "frobby"),
        ("type t = A | M(t, t)\nrule x -> A", "rule-lhs", "constructor"),
        ("type t = A | M(t, t)\nrule M(x, A) -> y", "rule-vars", "y"),
        ("type t = A | M(t, t)\nrule M(x, B) -> x", "unknown-constructor", "B"),
        ("type t = A | M(t, t)\nrule M(A) -> A", "arity", "M"),
        ("type cell = Nil | Cons(int, cell)\nrule Cons(x, 3) -> Nil", "sort", ""),
        ("type t = A | M(t, t)\nwith M:", "syntax", "expected an attribute"),
    ],
)
def test_diagnostic_codes(text, code, fragment):
    e = err(text)
    assert e.code == code, e.render()
    assert fragment in e.args[0]
    assert e.line >= 1 and e.col >= 1


def test_empty_file_points_at_line_one():
    e = err("")
    assert (e.line, e.col) == (1, 1)


def test_variable_sort_conflict_is_reported():
    e = err("type cell = Nil | Cons(int, cell)\nrule Cons(x, x) -> Nil")
    assert e.code == "sort"
    assert "used at sorts 'int' and 'cell'" in e.args[0]


# --- ground-term parsing ---------------------------------------------------------


def test_parse_ground_term_examples():
    sig, _ = parse_file("exp.rdt")
    assert parse_ground_term("Zero", sig) == App("Zero")
    assert parse_ground_term("Plus(One, Opp(One))", sig) == App(
        "Plus", (App("One"), App("Opp", (App("One"),)))
    )


def test_parse_ground_term_with_primitives():
    sig, _ = parse_definition("type cell = Nil | Cons(int, cell)")
    assert parse_ground_term("Cons(7, Nil)", sig) == App(
        "Cons", (Prim("int", 7), App("Nil"))
    )


def test_parse_ground_term_errors():
    sig, _ = parse_file("exp.rdt")
    with pytest.raises(ParseError) as info:
        parse_ground_term("Plus(x, One)", sig)
    assert info.value.code == "variable-in-ground-term"
    with pytest.raises(ParseError) as info:
        parse_ground_term("Plus(One)", sig)
    assert info.value.code == "arity"
    with pytest.raises(ParseError) as info:
        parse_ground_term("Succ(One)", sig)
    assert info.value.code == "unknown-constructor"
    with pytest.raises(ParseError):
        parse_ground_term("Plus(One,", sig)
    with pytest.raises(ParseError):
        parse_ground_term("", sig)


# --- pinned diagnostics ------------------------------------------------------------
#
# The exact rendered diagnostics, one per input.  A sort error is reported at
# the term's (or rule's) first token and only after the whole term parsed, so
# syntax errors win over it; among sort errors the first node in preorder
# wins, which makes a parent's arity error beat any error inside its children.

CELL = (
    "type cell = Nil | Cons(int, cell) | Tag(string, cell) | Pair(cell, cell)"
)


@pytest.mark.parametrize(
    "which, text, rendered",
    [
        ("exp", "Plus(One, x)",
         "1:11: error[variable-in-ground-term]: variable 'x' not allowed in a ground term"),
        ("exp", "Opp(_x)",
         "1:5: error[variable-in-ground-term]: variable '_x' not allowed in a ground term"),
        ("exp", "Plus(One, Opp(Plus(Succ, x)))",
         "1:26: error[variable-in-ground-term]: variable 'x' not allowed in a ground term"),
        ("exp", "Plus(One)", "1:1: error[arity]: 'Plus' expects 2 arguments, got 1"),
        ("exp", "Plus(One, One, Zero)", "1:1: error[arity]: 'Plus' expects 2 arguments, got 3"),
        ("exp", "Zero(One)", "1:1: error[arity]: 'Zero' expects 0 arguments, got 1"),
        ("exp", "Plus", "1:1: error[arity]: 'Plus' expects 2 arguments, got 0"),
        ("exp", "Opp(Plus)", "1:1: error[arity]: 'Plus' expects 2 arguments, got 0"),
        ("exp", "Plus(Opp, One)", "1:1: error[arity]: 'Opp' expects 1 arguments, got 0"),
        ("exp", "Succ(One)", "1:1: error[unknown-constructor]: unknown constructor 'Succ'"),
        ("exp", "Opp(3)", "1:1: error[sort]: 3 is not of sort 'exp'"),
        ("exp", "Plus(One,", "1:10: error[syntax]: expected a term"),
        ("exp", "", "1:1: error[syntax]: expected a term"),
        ("exp", "   ", "1:4: error[syntax]: expected a term"),
        ("exp", "One()", "1:5: error[syntax]: expected a term"),
        ("exp", "Plus(One, -> )", "1:11: error[syntax]: expected a term"),
        ("exp", "Plus(One, One) Zero", "1:16: error[syntax]: trailing input after term"),
        ("exp", "Plus(One, ;)", "1:11: error[syntax]: unexpected character ';'"),
        ("exp", "Plus(One Zero)", "1:10: error[syntax]: expected ')'"),
        ("exp", "Plus(rule, One)", "1:6: error[syntax]: 'rule' is a keyword, not a term"),
        # a syntax error after a sort error
        ("exp", "Plus(Succ, One", "1:15: error[syntax]: expected ')'"),
        ("exp", "Plus(Succ, One) One", "1:17: error[syntax]: trailing input after term"),
        ("exp", "Opp(Succ", "1:9: error[syntax]: expected ')'"),
        # a parent's arity error against an unknown child, and the reverse
        ("exp", "Plus(Succ)", "1:1: error[arity]: 'Plus' expects 2 arguments, got 1"),
        ("exp", "Opp(Succ, One)", "1:1: error[arity]: 'Opp' expects 1 arguments, got 2"),
        ("exp", "Opp(Plus(One), Succ)", "1:1: error[arity]: 'Opp' expects 1 arguments, got 2"),
        ("exp", "Plus(Opp(One, One), Succ)",
         "1:1: error[arity]: 'Opp' expects 1 arguments, got 2"),
        ("exp", "Plus(Succ, Opp(One, One))",
         "1:1: error[unknown-constructor]: unknown constructor 'Succ'"),
        # a primitive where a constructor belongs, and the reverse
        ("cell", "Cons(1, 2)", "1:1: error[sort]: 2 is not of sort 'cell'"),
        ("cell", "Tag(7, Nil)", "1:1: error[sort]: 7 is not of sort 'string'"),
        ("cell", "Cons(Nil, Nil)", "1:1: error[sort]: 'Nil' builds sort 'cell', expected 'int'"),
        ("cell", "Cons(Nil(Nil), Nil)",
         "1:1: error[sort]: 'Nil' builds sort 'cell', expected 'int'"),
        ("cell", "Pair(Cons(Nil, Nil), Pair(Nil))",
         "1:1: error[sort]: 'Nil' builds sort 'cell', expected 'int'"),
        ("cell", "Pair(Pair(Nil), Cons(Nil, Nil))",
         "1:1: error[arity]: 'Pair' expects 2 arguments, got 1"),
        ("cell", 'Pair(Cons(-4, Nil), Tag("", Pair(Nil)))',
         "1:1: error[arity]: 'Pair' expects 2 arguments, got 1"),
        ("cell", "Pair(Cons(1, Nil), Cons(2, Nil), Nil)",
         "1:1: error[arity]: 'Pair' expects 2 arguments, got 3"),
        # string escapes
        ("cell", 'Cons("seven", Nil)', "1:1: error[sort]: \"seven\" is not of sort 'int'"),
        ("cell", 'Cons("a\\"b\\\\c", Nil)',
         "1:1: error[sort]: \"a\\\"b\\\\c\" is not of sort 'int'"),
        ("cell", 'Tag("a\\nb", Nil)', "1:5: error[syntax]: bad string escape"),
        ("cell", 'Tag("unterminated, Nil)', "1:5: error[syntax]: unexpected character '\"'"),
        # multi-line input, newlines inside strings and comments
        ("cell", 'Tag("two\nlines", Nil) @', "2:14: error[syntax]: unexpected character '@'"),
        ("cell", 'Tag("two\nlines", 5)', "1:1: error[sort]: 5 is not of sort 'cell'"),
        ("cell", "# head comment\nPair(Nil, # inner\n  Cons(x, Nil))",
         "3:8: error[variable-in-ground-term]: variable 'x' not allowed in a ground term"),
        ("cell", "# head comment\n\n  Pair(Nil,\n    Cons(Nil, Nil))",
         "3:3: error[sort]: 'Nil' builds sort 'cell', expected 'int'"),
        ("cell", "Pair(Nil,\n  Cons(1, Nil) # tail\n  ) Nil",
         "3:5: error[syntax]: trailing input after term"),
        # an unexpected character anywhere beats an earlier syntax or sort error
        ("exp", "Plus(One Zero) $", "1:16: error[syntax]: unexpected character '$'"),
        ("exp", "Plus(Succ, One) -", "1:17: error[syntax]: unexpected character '-'"),
        ("exp", "Opp(One) \u00e9", "1:10: error[syntax]: unexpected character '\u00e9'"),
        # a lone quote at the end, a comment with no newline after it
        ("exp", 'Plus(One, One) "', "1:16: error[syntax]: unexpected character '\"'"),
        ("exp", '"', "1:1: error[syntax]: unexpected character '\"'"),
        ("exp", "Plus(One, # no newline", "1:23: error[syntax]: expected a term"),
        ("exp", "Plus(Succ, One) # tail",
         "1:1: error[unknown-constructor]: unknown constructor 'Succ'"),
        # CRLF line ends and non-ASCII whitespace
        ("exp", "Plus(One,\r\n  One) Zero", "2:8: error[syntax]: trailing input after term"),
        ("exp", "Plus(One,\r\n  x)",
         "2:3: error[variable-in-ground-term]: variable 'x' not allowed in a ground term"),
        ("exp", "Plus(One,\u00a0One) Zero", "1:16: error[syntax]: trailing input after term"),
        ("exp", "Plus(One,\u00a0x)",
         "1:11: error[variable-in-ground-term]: variable 'x' not allowed in a ground term"),
    ],
)
def test_ground_term_diagnostics_are_pinned(which, text, rendered):
    sig = parse_file("exp.rdt")[0] if which == "exp" else parse_definition(CELL)[0]
    with pytest.raises(ParseError) as info:
        parse_ground_term(text, sig)
    assert info.value.render() == rendered


@pytest.mark.parametrize(
    "which, text, rendered",
    [
        # rule-lhs against sort errors in the lhs, and against rhs errors
        ("M", "rule x -> A",
         "2:6: error[rule-lhs]: rule left-hand side must be headed by a constructor"),
        ("M", "rule x -> B",
         "2:6: error[rule-lhs]: rule left-hand side must be headed by a constructor"),
        ("M", "rule 3 -> A",
         "2:6: error[rule-lhs]: rule left-hand side must be headed by a constructor"),
        ("M", 'rule "s" -> M(A)',
         "2:6: error[rule-lhs]: rule left-hand side must be headed by a constructor"),
        ("M", "rule x -> M(A", "2:14: error[syntax]: expected ')'"),
        # lhs errors against rhs errors
        ("M", "rule M(B, x) -> C", "2:6: error[unknown-constructor]: unknown constructor 'B'"),
        ("M", "rule M(A) -> M(B)", "2:6: error[arity]: 'M' expects 2 arguments, got 1"),
        ("M", "rule M(M(B, A)) -> A", "2:6: error[arity]: 'M' expects 2 arguments, got 1"),
        ("M", "rule M(x, A) -> M(A)", "2:6: error[arity]: 'M' expects 2 arguments, got 1"),
        ("M", "rule M(x, A) -> M(y, B)",
         "2:6: error[unknown-constructor]: unknown constructor 'B'"),
        ("M", "rule M(x, A) -> M(x, 1)", "2:6: error[sort]: 1 is not of sort 't'"),
        ("M", "rule M(x, A) -> A(x)", "2:6: error[arity]: 'A' expects 0 arguments, got 1"),
        ("M", "rule M(x,\n  B) -> y", "2:6: error[unknown-constructor]: unknown constructor 'B'"),
        # syntax errors win over sort errors
        ("M", "rule M(B, A) A", "2:14: error[syntax]: expected '->'"),
        ("M", "rule M(B, A) -> M(A", "2:20: error[syntax]: expected ')'"),
        ("M", "rule M(x, A) -> M(x, A) ?", "2:25: error[syntax]: unexpected character '?'"),
        ("M", 'rule M(x, "a\\tb") -> x', "2:11: error[syntax]: bad string escape"),
        ("M", "rule M(x, A) -> M(x, A)\nwith M: commutative",
         "3:1: error[syntax]: expected 'with', 'rule', or end of file"),
        # a variable used at two sorts, within the lhs and across lhs and rhs
        ("CELL", "rule Pair(x, Cons(x, Nil)) -> Nil",
         "2:6: error[sort]: variable 'x' used at sorts 'cell' and 'int'"),
        ("CELL", "rule Cons(x, Nil) -> x",
         "2:6: error[sort]: variable 'x' used at sorts 'int' and 'cell'"),
        ("CELL", "rule Cons(x, Nil) -> Tag(x, Nil)",
         "2:6: error[sort]: variable 'x' used at sorts 'int' and 'string'"),
        ("CELL", "rule Tag(s, y) -> Cons(s, y)",
         "2:6: error[sort]: variable 's' used at sorts 'string' and 'int'"),
        ("CELL", "rule Pair(y, y) -> y\nrule Cons(n, Pair(n, Nil)) -> Nil",
         "3:6: error[sort]: variable 'n' used at sorts 'int' and 'cell'"),
        ("CELL", "rule Pair(Q, Cons(x, x)) -> Nil",
         "2:6: error[unknown-constructor]: unknown constructor 'Q'"),
        ("CELL", "rule Pair(Cons(1), Tag(x, x)) -> Nil",
         "2:6: error[arity]: 'Cons' expects 2 arguments, got 1"),
        ("CELL", "rule Pair(x, Nil) -> Pair(Cons, Cons(x, Nil))",
         "2:6: error[arity]: 'Cons' expects 2 arguments, got 0"),
        ("CELL", "rule Cons(Nil, y) -> Pair(y)",
         "2:6: error[sort]: 'Nil' builds sort 'cell', expected 'int'"),
        ("CELL", 'rule Cons(1, y) -> Pair(y, Cons("q", y))',
         "2:6: error[sort]: \"q\" is not of sort 'int'"),
        # rule-vars comes after every sort error
        ("M", "rule M(x, A) -> M(y, z)",
         "2:6: error[rule-vars]: rule right-hand side uses unbound variables ['y', 'z']"),
        ("M", "rule M(x, A) -> M(y)", "2:6: error[arity]: 'M' expects 2 arguments, got 1"),
        ("CELL", "rule Cons(x, Nil) -> Cons(y, 3)", "2:6: error[sort]: 3 is not of sort 'cell'"),
        ("M", "rule M(x, x) -> A\nrule M(A, y) -> M(y, B)",
         "3:6: error[unknown-constructor]: unknown constructor 'B'"),
        ("M", "rule M(x, A) -> x\n# second\nrule\n  M(A, x) -> w",
         "5:3: error[rule-vars]: rule right-hand side uses unbound variables ['w']"),
        # an unexpected character anywhere beats an earlier syntax or sort error
        ("M", "rule M(A A) -> A $", "2:18: error[syntax]: unexpected character '$'"),
        ("M", "rule M(B, A) -> A -", "2:19: error[syntax]: unexpected character '-'"),
        # a lone quote at the end, a comment with no newline after it
        ("M", 'rule M(x, A) -> x "', "2:19: error[syntax]: unexpected character '\"'"),
        ("M", "rule M(x, A) -> # no newline", "2:29: error[syntax]: expected a term"),
        ("M", "rule M(B, A) -> A # tail",
         "2:6: error[unknown-constructor]: unknown constructor 'B'"),
        # CRLF line ends and non-ASCII whitespace
        ("M", "rule M(x,\r\n  A) -> y",
         "2:6: error[rule-vars]: rule right-hand side uses unbound variables ['y']"),
        ("M", "rule M(x, A)\r\n -> x ->",
         "3:7: error[syntax]: expected 'with', 'rule', or end of file"),
        ("M", "rule M(x,\u00a0A) -> y",
         "2:6: error[rule-vars]: rule right-hand side uses unbound variables ['y']"),
        ("M", "rule M(x, A) -> x\u00a0rule", "2:23: error[syntax]: expected a term"),
    ],
)
def test_rule_diagnostics_are_pinned(which, text, rendered):
    head = CELL if which == "CELL" else "type t = A | M(t, t)"
    e = err(head + "\n" + text)
    assert e.render() == rendered


# --- round trips and nesting depth --------------------------------------------------

DEFINITIONS = sorted(FIXTURES.glob("*.rdt")) + sorted(
    (pathlib.Path(__file__).parent.parent / "perfbench" / "defs").glob("*.rdt")
)


@pytest.mark.parametrize("path", DEFINITIONS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_format_then_parse_is_the_identity(path):
    sig, _ = parse_definition(path.read_text())
    universe = enumerate_ground(sig, sig.rdt_sort, 6)
    assert len(universe) > 1
    for t in universe:
        assert parse_ground_term(format_term(t), sig) == t


def test_format_then_parse_is_the_identity_with_primitives():
    """One term per constructor: the primitive domains cannot be enumerated."""
    sig, _ = parse_definition(CELL)
    nil = App("Nil")
    for t in [
        nil,
        App("Cons", (Prim("int", -12), nil)),
        App("Tag", (Prim("string", 'say "hi" \\ bye\nnext'), nil)),
        App("Pair", (App("Cons", (Prim("int", 0), nil)), App("Tag", (Prim("string", ""), nil)))),
    ]:
        assert parse_ground_term(format_term(t), sig) == t


def spine(t):
    """The constructors down a chain of unary nodes and the term at its end,
    read with a loop: == and format_term recurse, so they cannot check it."""
    ctors = []
    while isinstance(t, App) and len(t.args) == 1:
        ctors.append(t.ctor)
        t = t.args[0]
    return ctors, t


def test_deep_ground_terms_parse_without_recursion():
    sig, _ = parse_file("exp.rdt")
    n = 100_000
    ctors, bottom = spine(parse_ground_term("Opp(" * n + "One" + ")" * n, sig))
    assert ctors == ["Opp"] * n and bottom == App("One")
    # diagnostics at depth: a sort error at the term's start, a syntax error where it is
    with pytest.raises(ParseError) as info:
        parse_ground_term("Opp(" * n + "Succ" + ")" * n, sig)
    assert info.value.render() == "1:1: error[unknown-constructor]: unknown constructor 'Succ'"
    with pytest.raises(ParseError) as info:
        parse_ground_term("Opp(" * n + "One" + ")" * (n - 1), sig)
    assert info.value.render() == f"1:{5 * n + 3}: error[syntax]: expected ')'"


def test_deep_rule_sides_parse_without_recursion():
    n = 10_000
    _, spec = parse_definition(
        "type t = A | N(t) | M(t, t)\nrule " + "N(" * n + "x" + ")" * n + " -> x"
    )
    (rule,) = spec.rules
    ctors, bottom = spine(rule.lhs)
    assert ctors == ["N"] * n and bottom == Var("x", "t")
    assert rule.rhs == Var("x", "t")
