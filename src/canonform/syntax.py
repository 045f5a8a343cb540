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

Tokens are plain strings: one `findall` cuts the text into tokens and
single unexpected characters, with an empty string for each run of
whitespace or a comment, and the empty strings are dropped; a token's kind
is read from its first character, and an empty string ends the list.
Offsets are never stored.  Every diagnostic names the index of the token it
is about, and one cold function (_fail) rescans the text to turn that index
into a line and column; an unexpected character anywhere in the text is
reported first, whatever the parser tripped over.  One term parser serves
ground terms and both sides of a rule.  It keeps an explicit stack, so
nesting depth is bounded by memory, not by the recursion limit, and it
checks constructor names, arities and sorts as it builds each node.  Equal
subterms of one term are one object: a node is looked up by its
constructor and the identities of its arguments (HashConsTable's key, with
no table and no check), so a repeated subterm builds nothing.  A sort error
does not stop it: the first one in preorder is raised, at the term's (or
rule's) first token, once the term has parsed, so syntax errors win.
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

# Whitespace and comments, matched outside the token group: findall returns
# "" for them.  They are matches of their own, not a prefix of every token:
# consumed that way, a comment would be backtracked into (there are no
# atomic groups before Python 3.11).
_SKIP = r"\s+ | \#[^\n]*"
# The tokens of the language, most frequent first.  Only the arrow and a
# negative integer start alike, and they differ at their second character.
_LEXEME = r"""
    [(),|:=]
  | [A-Za-z_][A-Za-z0-9_]*
  | ->
  | -?\d+
  | "(?:[^"\\]|\\.)*"
"""
# Any other character is a token of its own, found by the parser as a token
# that fits nowhere and reported by _fail.
_TOKEN = re.compile(f"{_SKIP} | ({_LEXEME} | .)", re.VERBOSE)
_IS_LEXEME = re.compile(f"{_SKIP} | {_LEXEME}", re.VERBOSE).fullmatch
_ESCAPE = re.compile(r"\\(.)")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

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


def _is_name(tok: str) -> bool:
    return tok[:1] in _IDENT_START


def _unquote(s: str, text: str, index: int) -> str:
    def unescape(m: re.Match) -> str:
        if m.group(1) not in '"\\':
            raise _fail(text, index, "bad string escape")
        return m.group(1)

    return _ESCAPE.sub(unescape, s[1:-1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> str:
        return self.toks[self.pos]

    def bump(self) -> str:
        self.pos += 1
        return self.toks[self.pos - 1]

    def fail(self, message: str, code: str = "syntax", at: Optional[int] = None):
        """Raise the diagnostic for token index at, the current token by default."""
        raise _fail(self.text, self.pos if at is None else at, message, code)

    def at(self, word: str) -> bool:
        """The current token is this keyword or punctuation (no other kind spells it)."""
        return self.cur == word

    def expect(self, word: str) -> str:
        if not self.at(word):
            self.fail(f"expected {word!r}")
        return self.bump()

    def expect_name(self, what: str) -> str:
        if not _is_name(self.cur):
            self.fail(f"expected {what}")
        if self.cur in _KEYWORDS:
            self.fail(f"{self.cur!r} is a keyword, not a {what}")
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


def parse_ground_term(text: str, sig: Signature) -> Term:
    """Parse one ground term of the data sort (as on the norm command line)."""
    p = _Parser(text)
    t, err = _term(p, sig, None)
    if p.cur:
        p.fail("trailing input after term")
    if err:
        p.fail(*err, at=0)
    return t


def _parse_attr(p: _Parser) -> Attr:
    start = p.pos
    word = p.bump()
    if not _is_name(word):
        p.fail("expected an attribute", at=start)
    if word == "associative":
        orientation = "right"
        if p.at("left") or p.at("right"):
            orientation = p.bump()
        return Assoc(orientation)
    if word == "commutative":
        return Com()
    if word == "idempotent":
        return Idem()
    if word in ("neutral", "inverse", "nilpotent"):
        p.expect("(")
        name = p.expect_name("constructor name")
        p.expect(")")
        if word == "neutral":
            return Neu(name)
        if word == "inverse":
            return Inv(name)
        return Nil(name)
    p.fail(f"unknown attribute {word!r}", "unknown-attribute", start)


def parse_definition(text: str) -> tuple[Signature, TheorySpec]:
    """Parse a definition file into its signature and theory spec.

    Raises ParseError with line/column and a stable code; acceptance by
    theory.classify is the caller's next step.
    """
    p = _Parser(text)
    p.expect("type")
    sort = p.expect_name("sort name")
    p.expect("=")

    ctors: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    while True:
        at = p.pos
        name = p.expect_name("constructor name")
        if not name[0].isupper():
            p.fail(f"constructor names start uppercase: {name!r}", "constructor-case", at)
        if name in seen:
            p.fail(f"duplicate constructor {name!r}", "duplicate-constructor", at)
        seen.add(name)
        arg_sorts: list[str] = []
        if p.at("("):
            p.bump()
            while True:
                s = p.bump()
                if not _is_name(s):
                    p.fail("expected a sort name", at=p.pos - 1)
                if s not in (sort, "int", "string"):
                    p.fail(f"unknown sort {s!r}", "unknown-sort", p.pos - 1)
                arg_sorts.append(s)
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
        at = p.pos
        name = p.expect_name("constructor name")
        if name not in sig:
            p.fail(f"unknown constructor {name!r}", "unknown-constructor", at)
        if name in attrs:
            p.fail(f"duplicate attribute block for {name!r}", "duplicate-attr-block", at)
        p.expect(":")
        block = [_parse_attr(p)]
        while p.at(","):
            p.bump()
            block.append(_parse_attr(p))
        attrs[name] = tuple(block)

    rules: list[RewriteRule] = []
    while p.at("rule"):
        p.bump()
        start = p.pos
        env: dict[str, str] = {}
        lhs, lhs_err = _term(p, sig, env)
        lhs_vars = set(env)
        p.expect("->")
        rhs, rhs_err = _term(p, sig, env)
        if not isinstance(lhs, App):
            p.fail("rule left-hand side must be headed by a constructor", "rule-lhs", start)
        if lhs_err or rhs_err:
            p.fail(*(lhs_err or rhs_err), at=start)
        extra = set(env) - lhs_vars
        if extra:
            p.fail(
                f"rule right-hand side uses unbound variables {sorted(extra)}",
                "rule-vars",
                start,
            )
        rules.append(RewriteRule(lhs, rhs))

    if p.cur:
        p.fail("expected 'with', 'rule', or end of file")

    return sig, TheorySpec(attrs=attrs, rules=tuple(rules))
