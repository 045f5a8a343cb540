"""Concrete syntax: definition files and terms.

    file    := typedecl attrblock* rule*
    typedecl:= "type" IDENT "=" ctor ("|" ctor)*
    ctor    := IDENT [ "(" sort ("," sort)* ")" ]
    attrblock := "with" IDENT ":" attr ("," attr)*
    attr    := "associative" ["left" | "right"] | "commutative"
             | "neutral" "(" IDENT ")" | "inverse" "(" IDENT ")"
             | "idempotent" | "nilpotent" "(" IDENT ")"
    rule    := "rule" term "->" term
    term    := IDENT | IDENT "(" term ("," term)* ")" | INT | STRING

Constructor names start with an uppercase letter, variables (in rules) with a
lowercase one.  `#` starts a comment that runs to the end of the line.
Whitespace is otherwise insignificant.

Tokens are (kind, text, offset) tuples; a line and column are counted from
the offset only when a diagnostic is raised.  One term parser serves ground
terms and both sides of a rule.  It keeps an explicit stack, so nesting depth
is bounded by memory, not by the recursion limit, and it checks constructor
names, arities and sorts as it builds each node.  A sort error does not stop
it: the first one in preorder is raised, at the term's (or rule's) first
token, once the term has parsed, so syntax errors win.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import ParseError
from .terms import App, Prim, Signature, Term, Var
from .theory import (
    Assoc,
    Attr,
    Com,
    Idem,
    Inv,
    Neu,
    Nil,
    RewriteRule,
    TheorySpec,
)

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[(),|:=])
""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.)")

_KEYWORDS = {
    "type",
    "with",
    "rule",
    "associative",
    "commutative",
    "neutral",
    "inverse",
    "idempotent",
    "nilpotent",
    "left",
    "right",
}


def _error(text: str, off: int, message: str, code: str = "syntax") -> ParseError:
    """A diagnostic at a character offset; the only place lines are counted."""
    line = text.count("\n", 0, off) + 1
    return ParseError(message, line, off - text.rfind("\n", 0, off), code)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens; kind is arrow, int, ident, string, punct or eof."""
    out = []
    i, n = 0, len(text)
    match = _TOKEN.match
    while i < n:
        m = match(text, i)
        if m is None:
            raise _error(text, i, f"unexpected character {text[i]!r}")
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), i))
        i = m.end()
    out.append(("eof", "", n))
    return out


def _unquote(s: str, text: str, off: int) -> str:
    def unescape(m: re.Match) -> str:
        if m.group(1) not in '"\\':
            raise _error(text, off, "bad string escape")
        return m.group(1)

    return _ESCAPE.sub(unescape, s[1:-1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> tuple[str, str, int]:
        return self.toks[self.pos]

    def bump(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.toks[self.pos - 1]

    def fail(self, message: str, code: str = "syntax", tok=None):
        raise _error(self.text, (tok or self.cur)[2], message, code)

    def at(self, word: str) -> bool:
        """The current token is this keyword or punctuation (no other kind spells it)."""
        return self.cur[1] == word

    def expect(self, word: str) -> tuple[str, str, int]:
        if not self.at(word):
            self.fail(f"expected {word!r}")
        return self.bump()

    def expect_name(self, what: str) -> tuple[str, str, int]:
        if self.cur[0] != "ident":
            self.fail(f"expected {what}")
        if self.cur[1] in _KEYWORDS:
            self.fail(f"{self.cur[1]!r} is a keyword, not a {what}")
        return self.bump()


def _term(p: _Parser, sig: Signature, env: Optional[dict[str, str]]):
    """Parse the term at p.pos with an explicit stack; return it and its first
    sort error in preorder as (message, code), or None.

    env is None for a ground term; in a rule it holds each variable's sort and
    is shared by both sides.  Every node is checked when it is built.  A sort
    error is recorded, not raised, so a later syntax error still wins; a
    parent's arity, known only at its ')', replaces an error found inside it.
    Under an unknown constructor or past the declared arity the expected sort
    is None: whatever is recorded there is replaced or preceded by that
    ancestor's own error.
    """
    toks, i, text = p.toks, p.pos, p.text
    rdt = sig.rdt_sort
    arg_sorts = {d.name: d.arg_sorts for d in sig.constructors}
    stack = []  # open applications: (ctor, arg sorts or None, args, preorder index)
    err = None  # (preorder index, message, code)
    node = 0
    exp = rdt
    while True:
        kind, word, off = toks[i]
        i += 1
        if kind == "ident":
            if word in _KEYWORDS:
                raise _error(text, off, f"{word!r} is a keyword, not a term")
            if word[0].islower() or word[0] == "_":
                if env is None:
                    raise _error(
                        text, off, f"variable {word!r} not allowed in a ground term",
                        "variable-in-ground-term",
                    )
                prior = env.setdefault(word, exp)
                if prior != exp and err is None:
                    err = (node, f"variable {word!r} used at sorts {prior!r} and {exp!r}", "sort")
                t = Var(word, exp)
            else:
                sorts = arg_sorts.get(word)
                opens = toks[i][1] == "("
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
                t = App(word)
        elif kind == "int" or kind == "string":
            if kind == "int":
                t = Prim("int", int(word))
            else:
                t = Prim("string", _unquote(word, text, off))
            if kind != exp and err is None:
                err = (node, f"{t} is not of sort {exp!r}", "sort")
        else:
            raise _error(text, off, "expected a term")
        node += 1
        while stack:  # hand t to its parent, closing every application that ends here
            ctor, sorts, args, idx = stack[-1]
            args.append(t)
            _, word, off = toks[i]
            if word == ",":
                i += 1
                exp = sorts[len(args)] if sorts and len(args) < len(sorts) else None
                break
            if word != ")":
                raise _error(text, off, "expected ')'")
            i += 1
            stack.pop()
            if sorts is not None and len(args) != len(sorts) and (err is None or err[0] > idx):
                err = (idx, f"{ctor!r} expects {len(sorts)} arguments, got {len(args)}", "arity")
            t = App(ctor, tuple(args))
        else:
            p.pos = i
            return t, err and err[1:]


def parse_ground_term(text: str, sig: Signature) -> Term:
    """Parse one ground term of the data sort (as on the norm command line)."""
    p = _Parser(text)
    t, err = _term(p, sig, None)
    if p.cur[0] != "eof":
        p.fail("trailing input after term")
    if err:
        p.fail(*err, tok=p.toks[0])
    return t


def _parse_attr(p: _Parser) -> Attr:
    t = p.cur
    if t[0] != "ident":
        p.fail("expected an attribute")
    word = t[1]
    p.bump()
    if word == "associative":
        orientation = "right"
        if p.at("left") or p.at("right"):
            orientation = p.bump()[1]
        return Assoc(orientation)
    if word == "commutative":
        return Com()
    if word == "idempotent":
        return Idem()
    if word in ("neutral", "inverse", "nilpotent"):
        p.expect("(")
        name = p.expect_name("constructor name")[1]
        p.expect(")")
        if word == "neutral":
            return Neu(name)
        if word == "inverse":
            return Inv(name)
        return Nil(name)
    p.fail(f"unknown attribute {word!r}", code="unknown-attribute", tok=t)


def parse_definition(text: str) -> tuple[Signature, TheorySpec]:
    """Parse a definition file into its signature and theory spec.

    Raises ParseError with line/column and a stable code; acceptance by
    theory.classify is the caller's next step.
    """
    p = _Parser(text)
    p.expect("type")
    sort = p.expect_name("sort name")[1]
    p.expect("=")

    ctors: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    while True:
        tok = p.expect_name("constructor name")
        name = tok[1]
        if not name[0].isupper():
            p.fail(f"constructor names start uppercase: {name!r}", code="constructor-case", tok=tok)
        if name in seen:
            p.fail(f"duplicate constructor {name!r}", code="duplicate-constructor", tok=tok)
        seen.add(name)
        arg_sorts: list[str] = []
        if p.at("("):
            p.bump()
            while True:
                s = p.bump()
                if s[0] != "ident":
                    p.fail("expected a sort name", tok=s)
                if s[1] not in (sort, "int", "string"):
                    p.fail(f"unknown sort {s[1]!r}", code="unknown-sort", tok=s)
                arg_sorts.append(s[1])
                if p.at(","):
                    p.bump()
                    continue
                break
            p.expect(")")
        ctors.append((name, arg_sorts))
        if p.at("|"):
            p.bump()
            continue
        break

    sig = Signature(sort, ctors)

    attrs: dict[str, tuple[Attr, ...]] = {}
    while p.at("with"):
        p.bump()
        tok = p.expect_name("constructor name")
        name = tok[1]
        if name not in sig:
            p.fail(f"unknown constructor {name!r}", code="unknown-constructor", tok=tok)
        if name in attrs:
            p.fail(f"duplicate attribute block for {name!r}", code="duplicate-attr-block", tok=tok)
        p.expect(":")
        block = [_parse_attr(p)]
        while p.at(","):
            p.bump()
            block.append(_parse_attr(p))
        attrs[name] = tuple(block)

    rules: list[RewriteRule] = []
    while p.at("rule"):
        p.bump()
        start = p.cur
        env: dict[str, str] = {}
        lhs, lhs_err = _term(p, sig, env)
        lhs_vars = set(env)
        p.expect("->")
        rhs, rhs_err = _term(p, sig, env)
        if not isinstance(lhs, App):
            p.fail("rule left-hand side must be headed by a constructor", "rule-lhs", start)
        if lhs_err or rhs_err:
            p.fail(*(lhs_err or rhs_err), tok=start)
        extra = set(env) - lhs_vars
        if extra:
            p.fail(
                f"rule right-hand side uses unbound variables {sorted(extra)}",
                "rule-vars",
                start,
            )
        rules.append(RewriteRule(lhs, rhs))

    if p.cur[0] != "eof":
        p.fail("expected 'with', 'rule', or end of file")

    return sig, TheorySpec(attrs=attrs, rules=tuple(rules))
