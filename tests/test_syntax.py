"""Definition-file parsing: happy paths, diagnostics, ground-term parsing.

Every diagnostic is pinned down to its rendered form
``line:col: error[code]: message`` so CLI output stays stable.
"""

from __future__ import annotations

import pathlib
import re
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from canonform import syntax
from canonform.syntax import _ESCAPE, _IDENT_START, _KEYWORDS, _LEXEME, _SKIP

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


@pytest.mark.parametrize(
    "attrs, rendered",
    [
        ("associative, commutative, idempotent, neutral(Foo)",
         "2:55: error[unknown-constructor]: unknown constructor 'Foo'"),
        ("associative, commutative, neutral(E), inverse(Foo)",
         "2:55: error[unknown-constructor]: unknown constructor 'Foo'"),
        ("associative, commutative, idempotent, nilpotent(Foo)",
         "2:57: error[unknown-constructor]: unknown constructor 'Foo'"),
        ("associative, neutral(\n  # the unit\n  Foo)",
         "4:3: error[unknown-constructor]: unknown constructor 'Foo'"),
    ],
)
def test_an_unknown_companion_is_reported_at_its_name(attrs, rendered):
    """The constructor a neutral, inverse or nilpotent attribute names is
    checked against the signature where it is written, as a block's head is."""
    e = err(f"type t = E | P(t, t)\nwith P: {attrs}")
    assert e.render() == rendered


@pytest.mark.parametrize(
    "block, rendered",
    [
        ("P: associative, commutative, idempotent, neutral(P)",
         "2:55: error[theory]: neutral element 'P' of 'P' must be a nullary constructor"),
        ("P: associative, commutative, neutral(E), inverse(P)",
         "2:55: error[theory]: inverse 'P' of 'P' must be unary over 't'"),
        ("P: associative, commutative, nilpotent(S)",
         "2:45: error[theory]: absorber 'S' of 'P' must be a nullary constructor"),
        ("S: associative, commutative",
         "2:6: error[theory]: equational attributes apply only to binary "
         "constructors over 't'; 'S' has arguments ['t']"),
    ],
)
def test_a_constructor_of_the_wrong_shape_is_reported_at_its_name(block, rendered):
    """A with block's head and the companions it names are checked for
    their arity where they are written, with classify's message."""
    e = err(f"type t = E | P(t, t) | S(t)\nwith {block}")
    assert e.render() == rendered


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("type with = A", "1:6: error[syntax]: 'with' is a keyword, not a sort name"),
        ("type t = A(1)", "1:12: error[syntax]: expected a sort name"),
    ],
)
def test_a_bad_sort_name_is_reported_at_its_token(text, rendered):
    assert err(text).render() == rendered


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


def test_a_parsed_term_shares_its_equal_subterms():
    sig, _ = parse_definition("type t = L | S(t) | P(t, t)")
    t = parse_ground_term("P(S(L), S(L))", sig)
    assert t.args[0] is t.args[1]
    n = 100_000  # the parser keeps no depth on the call stack, so no limit is raised
    x = "S(" * n + "L" + ")" * n
    t = parse_ground_term(f"P({x}, {x})", sig)
    assert t.args[0] is t.args[1]
    ctors, bottom = spine(t.args[0])
    assert ctors == ["S"] * n and bottom == App("L")
    cell, _ = parse_definition("type cell = Nil | Cons(int, cell)")
    t = parse_ground_term("Cons(7, Cons(7, Nil))", cell)
    assert t.args[0] is t.args[1].args[0]


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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit before 3.10.7"
)
@pytest.mark.parametrize(
    "text, rendered",
    [
        ("Cons(<n>, Nil)", "1:6: error[syntax]: integer literal of 5000 digits is too long"),
        ("rule Tag(\"a\", Cons(-<n>, x)) -> x",
         "2:20: error[syntax]: integer literal of 5000 digits is too long"),
        ("rule Tag(\"a\", x) -> Cons(<n>, x)",
         "2:26: error[syntax]: integer literal of 5000 digits is too long"),
    ],
)
def test_an_int_literal_past_the_int_string_limit_is_a_diagnostic(text, rendered):
    text = text.replace("<n>", "7" * 5000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError) as info:
            if text.startswith("rule"):
                parse_definition(CELL + "\n" + text)
            else:
                parse_ground_term(text, parse_definition(CELL)[0])
    finally:
        sys.set_int_max_str_digits(limit)
    assert info.value.render() == rendered


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


# --- the run scanner against the token loop it replaced -----------------------------
#
# The reference is the parser's earlier token loop, kept verbatim: one findall
# cuts the text into tokens, and _term walks the list one token at a time.
# Only the regexes and constants it shares with syntax.py are imported.

_TOKEN = re.compile(f"{_SKIP} | ({_LEXEME} | .)", re.VERBOSE)
_IS_LEXEME = re.compile(f"{_SKIP} | {_LEXEME}", re.VERBOSE).fullmatch


def _tokenize(text: str) -> list[str]:
    """The tokens of text, unexpected characters included, then "" for the end."""
    toks = list(filter(None, _TOKEN.findall(text)))
    toks.append("")
    return toks


def _fail(text: str, index: int, message: str, code: str = "syntax") -> ParseError:
    """The diagnostic for the index-th token of text (the end counting as the
    last), unless text holds an unexpected character: then the diagnostic for
    the first one.  The only place offsets and lines are computed."""
    off, n = len(text), 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if _IS_LEXEME(tok) is None:
            off, message, code = m.start(), f"unexpected character {tok!r}", "syntax"
            break
        if m.group(1):
            if n == index:
                off = m.start()
            n += 1
    line = text.count("\n", 0, off) + 1
    return ParseError(message, line, off - text.rfind("\n", 0, off), code)


def _unquote(s: str, text: str, index: int) -> str:
    def unescape(m: re.Match) -> str:
        if m.group(1) not in '"\\':
            raise _fail(text, index, "bad string escape")
        return m.group(1)

    return _ESCAPE.sub(unescape, s[1:-1])


def _term(p, sig, env):
    """Parse the term at p.pos with an explicit stack; return it and its first
    sort error in preorder as (message, code), or None.

    env is None for a ground term; in a rule it holds each variable's sort and
    is shared by both sides.  Every node is checked when it is built.  A sort
    error is recorded, not raised, so a later syntax error still wins; a
    parent's arity, known only at its ')', replaces an error found inside it.
    Under an unknown constructor or past the declared arity the expected sort
    is None: whatever is recorded there is replaced or preceded by that
    ancestor's own error.  Equal constants, nullary constructors and nodes
    over the same argument objects come back as one object.
    """
    toks, i, text = p.toks, p.pos, p.text
    rdt = sig.rdt_sort
    arg_sorts = sig.arg_sorts
    stack = []  # open applications: (ctor, arg sorts or None, args, preorder index)
    shared = {}  # name, (sort, value) or (ctor, *argument ids) -> the one object built
    err = None  # (preorder index, message, code)
    node = 0
    exp = rdt
    while True:
        word = toks[i]
        i += 1
        c = word[:1]
        if c in _IDENT_START:
            if word in _KEYWORDS:
                raise _fail(text, i - 1, f"{word!r} is a keyword, not a term")
            if c.islower() or c == "_":
                if env is None:
                    raise _fail(
                        text, i - 1, f"variable {word!r} not allowed in a ground term",
                        "variable-in-ground-term",
                    )
                prior = env.setdefault(word, exp)
                if prior != exp and err is None:
                    err = (node, f"variable {word!r} used at sorts {prior!r} and {exp!r}", "sort")
                t = Var(word, exp)
            else:
                sorts = arg_sorts.get(word)
                opens = toks[i] == "("
                if err is None:
                    if sorts is None:
                        err = (node, f"unknown constructor {word!r}", "unknown-constructor")
                    elif exp != rdt:
                        err = (node, f"{word!r} builds sort {rdt!r}, expected {exp!r}", "sort")
                    elif sorts and not opens:
                        err = (node, f"{word!r} expects {len(sorts)} arguments, got 0", "arity")
                if opens:
                    stack.append((word, sorts, [], node))
                    node += 1
                    i += 1
                    exp = sorts[0] if sorts else None
                    continue
                t = shared.get(word) or shared.setdefault(word, App(word))
        elif c == '"' and len(word) > 1:
            key = ("string", _unquote(word, text, i - 1))
            t = shared.get(key) or shared.setdefault(key, Prim(*key))
            if exp != "string" and err is None:
                err = (node, f"{t} is not of sort {exp!r}", "sort")
        elif c.isdecimal() or (c == "-" and word[1:2].isdecimal()):
            try:
                value = int(word)
            except ValueError:  # past the interpreter's int-string limit
                message = f"integer literal of {len(word) - (c == '-')} digits is too long"
                raise _fail(text, i - 1, message) from None
            key = ("int", value)
            t = shared.get(key) or shared.setdefault(key, Prim(*key))
            if exp != "int" and err is None:
                err = (node, f"{t} is not of sort {exp!r}", "sort")
        else:
            raise _fail(text, i - 1, "expected a term")
        node += 1
        while stack:  # hand t to its parent, closing every application that ends here
            ctor, sorts, args, idx = stack[-1]
            args.append(t)
            word = toks[i]
            if word == ",":
                i += 1
                exp = sorts[len(args)] if sorts and len(args) < len(sorts) else None
                break
            if word != ")":
                raise _fail(text, i, "expected ')'")
            i += 1
            stack.pop()
            if sorts is not None and len(args) != len(sorts) and (err is None or err[0] > idx):
                err = (idx, f"{ctor!r} expects {len(sorts)} arguments, got {len(args)}", "arity")
            key = (ctor, *map(id, args))  # args are held by the node filed under key
            t = shared.get(key)
            if t is None:
                t = shared[key] = App(ctor, tuple(args))
        else:
            p.pos = i
            return t, err and err[1:]


class _Tokens:
    """The parser state the token loop reads: the text, its tokens, a position."""

    def __init__(self, text: str):
        self.text, self.toks, self.pos = text, _tokenize(text), 0


def reference_ground_term(text, sig):
    """parse_ground_term as it was, over the token loop."""
    p = _Tokens(text)
    t, err = _term(p, sig, None)
    if p.toks[p.pos]:
        raise _fail(text, p.pos, "trailing input after term")
    if err:
        raise _fail(text, 0, *err)
    return t


def reference_definition(text):
    """parse_definition with its rule sides read by the token loop.  The
    definition parser's tokens are the token loop's, so the loop walks them."""
    with mock.patch.object(syntax._Parser, "term", _term):
        return parse_definition(text)


def outcome(parse, *args):
    """What a parser makes of its input: the result, or the rendered diagnostic."""
    try:
        return parse(*args), None
    except ParseError as e:
        return None, (e.render(), e.code)


def assert_same_dag(a, b):
    """a and b are the same term with the same sharing: walking both at once,
    each object of a meets one object of b and each object of b one of a."""
    to_b, to_a = {}, {}
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if id(x) in to_b or id(y) in to_a:
            assert to_b.get(id(x)) == id(y) and to_a.get(id(y)) == id(x)
            continue
        to_b[id(x)], to_a[id(y)] = id(y), id(x)
        assert type(x) is type(y)
        if isinstance(x, App):
            assert x.ctor == y.ctor and len(x.args) == len(y.args)
            pending.extend(zip(x.args, y.args))
        else:
            assert x == y


def assert_parsed_alike(new, ref):
    (got, got_err), (want, want_err) = new, ref
    assert got_err == want_err
    if got_err is None:
        assert_same_dag(got, want)


T = "type t = L | S(t) | N(t) | P(t, t)"
# gaps between tokens: none most of the time, whitespace of every kind, comments
GAPS = [
    "", "", "", "", " ", " ", "\n", "  \n  ", "\t",
    "\r\n", "\u00a0", " # note\n", "#(,)\n", "# S(L\n",
]
STRAYS = ["$", "é", "-", '"', "@", ";", "(", ")", ","]


def chain(rng, atoms, depths=(0, 1, 2, 5, 12, 40, 1200)):
    """The tokens of a unary chain over one atom; 1,200 deep is past the
    1,000 openings one match of the scanner takes."""
    k = rng.choice(depths)
    ctors = [rng.choice(["S", "S", "N"]) for _ in range(k)]
    return [tok for c in ctors for tok in (c, "(")] + [rng.choice(atoms)] + [")"] * k


def tree(rng, n, leaf, node):
    """The tokens of a binary tree of n leaves, each drawn by leaf()."""
    if n == 1:
        return leaf()
    a = rng.randint(1, n - 1)
    return [node, "("] + tree(rng, a, leaf, node) + [","] + tree(rng, n - a, leaf, node) + [")"]


def ground_tokens(rng, which):
    """The tokens of a sum over T or CELL of a pool of 1-4 leaves, so leaves
    repeat.  Now and then a leaf is ill-sorted, unknown, a variable or a
    keyword."""
    odd = ["7", "-3", '"s"', "Q", "x", "_y", "rule", "P", "L"]
    if which == "t":
        atoms = ["L"] * 12 + odd
        pool = [chain(rng, atoms) for _ in range(rng.randint(1, 4))]
        node = "P"
    else:
        pool = [
            ["Nil"],
            ["Cons", "(", str(rng.randint(-9, 99)), ",", "Nil", ")"],
            ["Tag", "(", '"a\\"b"', ",", "Cons", "(", "0", ",", "Nil", ")", ")"],
            ["Cons", "(", "1", ",", "Cons", "(", "2", ",", "Tag", "(", '""', ",", "Nil", ")", ")",
             ")"],
        ] + [[rng.choice(odd)]]
        pool = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        node = "Pair"
    return tree(rng, rng.randint(1, 12), lambda: rng.choice(pool), node)


U = "type u = Z | S(u) | I(int) | W(string) | P(u, u) | K(int, u)"


def u_tokens(rng):
    """The tokens of a sum over U of a pool of chains that end in a constant,
    an integer or a string.  Now and then K(x, ...) puts a pool leaf where an
    integer belongs, so an equal chain met again is met at another sort."""
    bottoms = [["Z"], ["I", "(", "7", ")"], ["I", "(", "-0", ")"], ["W", "(", '"w"', ")"]]
    pool = []
    for _ in range(rng.randint(1, 4)):
        k = rng.choice([0, 1, 3, 12])
        pool.append(["S", "("] * k + rng.choice(bottoms) + [")"] * k)

    def build(n):
        if n == 1:
            return rng.choice(pool)
        if rng.random() < 0.3:
            first = rng.choice([["5"], rng.choice(pool)])
            return ["K", "("] + first + [","] + build(n - 1) + [")"]
        a = rng.randint(1, n - 1)
        return ["P", "("] + build(a) + [","] + build(n - a) + [")"]

    return build(rng.randint(1, 12))


def rule_tokens(rng):
    """The tokens of one rule over T whose leaves come from a pool of chains,
    up to 40 deep, over variables and constants."""
    atoms = ["x", "y", "L", "L", "_z"]
    pool = [chain(rng, atoms, (0, 1, 2, 5, 12, 40)) for _ in range(rng.randint(1, 3))]
    lhs = tree(rng, rng.randint(1, 4), lambda: rng.choice(pool), "P")
    rhs = tree(rng, rng.randint(1, 3), lambda: rng.choice(pool), "P")
    return ["rule"] + lhs + ["->"] + rhs


def mutate(rng, toks):
    """Some of the time, drop, duplicate or swap one token, or insert a stray
    character."""
    toks = list(toks)
    i = rng.randrange(len(toks))
    kind = rng.choice(["none", "none", "drop", "duplicate", "swap", "stray"])
    if kind == "drop":
        del toks[i]
    elif kind == "duplicate":
        toks.insert(i, toks[i])
    elif kind == "swap":
        j = rng.randrange(len(toks))
        toks[i], toks[j] = toks[j], toks[i]
    elif kind == "stray":
        toks.insert(i, rng.choice(STRAYS))
    return toks


def render(rng, toks):
    """The tokens joined by random whitespace, newlines and comments; some of
    the time cut at a random point."""
    text = rng.choice(GAPS) + "".join(tok + rng.choice(GAPS) for tok in toks)
    if rng.random() < 0.1:
        text += "# a comment with no newline"
    if rng.random() < 0.15:
        text = text[: rng.randrange(len(text) + 1)]
    return text


@given(st.sampled_from(["t", "cell", "u"]), st.randoms(use_true_random=False))
def test_ground_terms_parse_as_with_the_token_loop(which, rng):
    sig = parse_definition({"t": T, "cell": CELL, "u": U}[which])[0]
    toks = u_tokens(rng) if which == "u" else ground_tokens(rng, which)
    text = render(rng, mutate(rng, toks))
    assert_parsed_alike(
        outcome(parse_ground_term, text, sig), outcome(reference_ground_term, text, sig)
    )


def assert_definitions_alike(new, ref):
    (got, got_err), (want, want_err) = new, ref
    assert got_err == want_err
    if got_err is None:
        (sig, spec), (ref_sig, ref_spec) = got, want
        assert sig.constructors == ref_sig.constructors and spec.attrs == ref_spec.attrs
        assert len(spec.rules) == len(ref_spec.rules)
        for rule, ref_rule in zip(spec.rules, ref_spec.rules):
            assert_same_dag(rule.lhs, ref_rule.lhs)
            assert_same_dag(rule.rhs, ref_rule.rhs)


@given(st.randoms(use_true_random=False))
def test_rule_sides_parse_as_with_the_token_loop(rng):
    lines = [render(rng, mutate(rng, rule_tokens(rng))) for _ in range(rng.randint(1, 3))]
    text = "\n".join([T] + lines)
    assert_definitions_alike(outcome(parse_definition, text), outcome(reference_definition, text))


@pytest.mark.parametrize("path", DEFINITIONS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_definition_files_parse_as_with_the_token_loop(path):
    text = path.read_text()
    assert_definitions_alike(outcome(parse_definition, text), outcome(reference_definition, text))


@pytest.mark.parametrize(
    "rule",
    [
        "rule P(S(x), S(x)) -> S(x)",  # a chain over a variable is built each time
        "rule P(S(L), S(x)) -> P(S(L), x)",
        "rule P(S(S(L)), y) -> S(S(L))",
        "rule P(x, L) -> x rule P(L, S(x)) -> S(x)",
    ],
)
def test_edge_rules_parse_as_with_the_token_loop(rule):
    text = T + "\n" + rule
    assert_definitions_alike(outcome(parse_definition, text), outcome(reference_definition, text))


RULE_FILES = [p for p in DEFINITIONS if "\nrule " in p.read_text()]


@given(st.sampled_from(RULE_FILES), st.randoms(use_true_random=False))
def test_mutated_rule_lines_parse_as_with_the_token_loop(path, rng):
    lines = path.read_text().split("\n")
    i = rng.choice([k for k, line in enumerate(lines) if line.startswith("rule")])
    lines[i] = render(rng, mutate(rng, _tokenize(lines[i])[:-1]))
    text = "\n".join(lines)
    assert_definitions_alike(outcome(parse_definition, text), outcome(reference_definition, text))


@pytest.mark.parametrize(
    "which, text",
    [
        ("t", "L , L"),  # a comma after a whole term
        ("t", "S(L) )"),  # a closing after a whole term
        ("t", "P(S(L), S(L)) # c\n ) L"),
        ("t", "P(S(L), S(L) )\n , L"),
        ("t", "S(S(L)) S(S(L))"),
        ("t", "P(S(L), S(L), S(L))"),
        ("t", "P(S(Q), S(Q))"),
        # equal chains met again: the key holds every name and the atom
        ("t", "P(S(S(L)), S(L))"),
        ("t", "P(S(L), S(7))"),
        ("t", "P(S(L), N(L))"),
        ("t", "P(S( S(L)), S(S (L)))"),
        ("u", "P(S(I(7)), S(I(7)))"),
        ("u", "P(S(I(7)), S(I(-0)))"),
        # and its root's sort is checked again
        ("u", "P(S(Z), K(S(Z), Z))"),
        ("u", 'P(W("w"), K(W("w"), Z))'),
        ("u", "P(S(I(7)), K(S(I(7)), Z))"),
        ("t", "S(" + "#" * 50 + "\n,"),  # a comment of many comment signs
        ("t", "S(" * 1_000 + "S (L" + ")" * 1_001),  # past the openings one match takes
        ("t", "S(" * 1_000 + "S (,"),
        ("t", "P(" + "S(" * 1_200 + "L" + ")" * 1_200 + ", " + "S(" * 1_200 + "L" + ")" * 1_201),
        ("t", "P(" * 1_500 + "L" + ", L)" * 1_500),
        ("t", "P(" * 1_500 + "L" + ", L)" * 1_499 + "L)"),
        ("t", "S(" * 3_000 + '"' + "a" * 1_000),  # an unterminated string
        ("t", "S(" * 3_000 + "-" * 1_000),
    ],
)
def test_edge_texts_parse_as_with_the_token_loop(which, text):
    sig = parse_definition(T if which == "t" else U)[0]
    assert_parsed_alike(
        outcome(parse_ground_term, text, sig), outcome(reference_ground_term, text, sig)
    )


@pytest.mark.parametrize(
    "text",
    [
        "S(" * 100_000 + "L",  # an unclosed chain
        "S(" * 100_000 + ",L" + ")" * 100_000,  # a stray comma at the bottom
        "P(" + "S(" * 100_000 + "L" + ")" * 100_000 + " " + "S(" * 100_000 + "L" + ")" * 100_001,
    ],
    ids=["unclosed", "stray-comma", "missing-comma"],
)
def test_malformed_deep_input_gets_the_token_loops_diagnostic(text):
    """Linear time on malformed input: a run regex that backtracked
    quadratically would take minutes on these."""
    sig = parse_definition(T)[0]
    got, want = outcome(parse_ground_term, text, sig), outcome(reference_ground_term, text, sig)
    assert got == want and got[1] is not None
