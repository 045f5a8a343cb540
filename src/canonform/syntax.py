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

A term is read one comma-free run at a time: one match of a compiled regex
(_RUN) returns the constructors a run opens, its atom (a constant, a
variable, an integer or a string) and the applications it closes, so the
Python loop does only the per-node work.  One term parser (_term) serves
ground terms and both sides of a rule.  It keeps an explicit stack, so
nesting depth is bounded by memory, not by the recursion limit, and it
checks constructor names, arities and sorts as it builds each node.  Equal
subterms of one term are one object: a node is looked up by its
constructor and the identities of its arguments (HashConsTable's key, with
no table and no check), so a repeated subterm builds nothing.  A unary
chain that a run closes around a constant, an integer or a string, such as
a leaf S(S(S(L))), is also filed by its constructor names and its atom, so
an equal chain met again in the same term costs one lookup.  A sort error
does not stop the parser: the first one in preorder is raised, at the
term's (or rule's) first token, once the term has parsed, so syntax errors
win.

The rest of a definition is read token by token: one scan cuts the text
into tokens and single unexpected characters, with their offsets.  Every
diagnostic names the offset it is about, and one cold function (_fail)
turns it into a line and column.  An unexpected character anywhere in the
text is reported first, whatever the parser tripped over: _fail finds it
where a regex of whitespace, comments and tokens stops matching.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Optional

from .errors import ParseError, TheoryError
from .terms import PRIMITIVES, App, Prim, Signature, Term, Var
from .theory import (
    ATTRIBUTES,
    Assoc,
    Attr,
    RewriteRule,
    TheorySpec,
    _require_args,
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
# The text up to its first unexpected character, 1,000 tokens a match: the
# engine keeps state for each repeat until the match ends.
_CLEAN = re.compile(f"(?: {_SKIP} | {_LEXEME} ){{0,1000}}", re.VERBOSE).match
# The gap between two tokens of a term.  A comment runs to the end of its
# line, so a gap splits into whitespace and comments one way only: a run
# that fails after a gap backtracks through it in linear time.  Whitespace
# and closing parentheses are single-character repeats, which the regex
# engine walks with no backtracking state per character.
_GAP = r"\s*(?:\#[^\n]*(?![^\n])\s*)*"
_SKIP_GAP = re.compile(_GAP).match
# One comma-free run of a term: the constructors it opens, its atom, the
# applications it closes and the comma after them, each with the gap after
# it.  A run starts at a token.  The engine keeps state for each opening
# until the match ends, so one match takes at most 1,000; past them, or when
# no atom follows the last one, the match ends with a constructor name
# before its "(", which _term reads as one more opening.
_RUN = re.compile(
    rf"""
    ((?:[A-Z][A-Za-z0-9_]*{_GAP}\({_GAP}){{0,1000}})  # 1: the openings
    (?:([A-Za-z_][A-Za-z0-9_]*)                      # 2: a name,
      |(-?\d+)                                       # 3: an integer
      |("(?:[^"\\]|\\.)*"))                          # 4: or a string
    ([)\s]*(?:\#[^\n]*(?![^\n])[)\s]*)*)             # 5: the closings
    (,{_GAP})?                                       # 6: a comma
    """,
    re.VERBOSE,
).match
_COMMENTS = re.compile(r"\#[^\n]*").sub
_ESCAPE = re.compile(r"\\(.)")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

_KEYWORDS = {
    "type",
    "with",
    "rule",
    "left",
    "right",
    *ATTRIBUTES,
}


def _fail(text: str, off: int, message: str, code: str = "syntax") -> ParseError:
    """The diagnostic at character offset off of text, unless text holds an
    unexpected character: then the diagnostic for the first one.  The only
    place lines and columns are computed."""
    stray, end = -1, 0
    while end > stray:
        stray, end = end, _CLEAN(text, end).end()
    if stray < len(text):
        off, message, code = stray, f"unexpected character {text[stray]!r}", "syntax"
    line = text.count("\n", 0, off) + 1
    return ParseError(message, line, off - text.rfind("\n", 0, off), code)


def _is_name(tok: str) -> bool:
    return tok[:1] in _IDENT_START


def _unquote(s: str, text: str, off: int) -> str:
    def unescape(m: re.Match) -> str:
        if m.group(1) not in '"\\':
            raise _fail(text, off, "bad string escape")
        return m.group(1)

    return _ESCAPE.sub(unescape, s[1:-1])


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # the tokens (unexpected characters too) and offsets, then "" at len(text)
        found = [m for m in _TOKEN.finditer(text) if m.group(1)]
        self.toks = [m.group(1) for m in found] + [""]
        self.offs = [m.start() for m in found] + [len(text)]
        self.pos = 0

    @property
    def cur(self) -> str:
        return self.toks[self.pos]

    def bump(self) -> str:
        self.pos += 1
        return self.toks[self.pos - 1]

    def fail(self, message: str, code: str = "syntax", at: Optional[int] = None):
        """Raise the diagnostic for token index at, the current token by default."""
        raise _fail(self.text, self.offs[self.pos if at is None else at], message, code)

    def accept(self, word: str) -> bool:
        """Step past the current token if it is this keyword or punctuation
        (no other kind spells it)."""
        if self.cur != word:
            return False
        self.pos += 1
        return True

    def expect(self, word: str) -> None:
        if not self.accept(word):
            self.fail(f"expected {word!r}")

    def expect_name(self, what: str) -> str:
        if not _is_name(self.cur):
            self.fail(f"expected {what}")
        if self.cur in _KEYWORDS:
            self.fail(f"{self.cur!r} is a keyword, not a {what}")
        return self.bump()

    def expect_ctor(self, sig: Signature, arity: int, role: str = "", of: str = "") -> str:
        """Step past the name of a declared constructor of arity arguments of
        the data sort (theory._require_args, whose message it reports)."""
        at = self.pos
        name = self.expect_name("constructor name")
        if name not in sig:
            self.fail(f"unknown constructor {name!r}", "unknown-constructor", at)
        try:
            _require_args(sig, name, arity, role, of)
        except TheoryError as err:
            self.fail(str(err), "theory", at)
        return name

    def term(self, sig: Signature, env: dict[str, str]):
        """Parse the rule side at the current token, as _term, and step past it."""
        t, err, end = _term(self.text, self.offs[self.pos], sig, env)
        self.pos = bisect_left(self.offs, end)
        return t, err


def _term(text: str, pos: int, sig: Signature, env: Optional[dict[str, str]]):
    """Parse the term at offset pos, a token's start, one comma-free run at a
    time; return it, its first sort error in preorder as (message, code) or
    None, and the offset of the token after it.

    env is None for a ground term; in a rule it holds each variable's sort and
    is shared by both sides.  Every node is checked when it is built.  A sort
    error is recorded, not raised, so a later syntax error still wins; a
    parent's arity, known only at its ')', replaces an error found inside it.
    Under an unknown constructor or past the declared arity the expected sort
    is None: whatever is recorded there is replaced or preceded by that
    ancestor's own error.  Equal constants, nullary constructors and nodes
    over the same argument objects come back as one object.

    When a run's closings end its own innermost openings, those openings
    form a unary chain around its atom.  A chain over a constant, an integer
    or a string that built with no error is filed by its atom and its
    constructor names, so an equal chain met again is one lookup: only its
    root's expected sort is checked, and the preorder counter steps over its
    nodes.  A variable is a new object at each occurrence, so a chain over
    one is built each time.  When a match ends before a constructor's "("
    (past the openings one match takes, or when no atom follows), the name
    opens one more application and the next run starts after the "(".
    """
    rdt = sig.rdt_sort
    arg_sorts = sig.arg_sorts
    stack = []  # open applications: (ctor, arg sorts or None, args, preorder index)
    shared = {}  # name, (sort, value) or (ctor, *argument ids) -> the one object built
    chains = {}  # (atom, *ctors) of a chain built with no error -> its root
    err = None  # (preorder index, message, code)
    node = 0
    exp = rdt
    while True:
        m = _RUN(text, pos)
        if m is None:
            raise _fail(text, pos, "expected a term")
        opens, name, num, string, closes, comma = m.groups()
        if "#" in opens:
            opens = _COMMENTS("", opens)
        if "#" in closes:
            closes = _COMMENTS("", closes)
        ctors = "".join(opens.split()).split("(")
        ctors.pop()  # the names, then "" after the last "("
        shut = closes.count(")")
        opening = (
            not shut and comma is None and name and "A" <= name[0] <= "Z"
            and text.startswith("(", m.end())
        )
        if opening:  # the match ended before this name's "(": it opens too
            ctors.append(name)
        k = len(ctors)
        j = k if k < shut else shut  # the length of the chain the run closes
        key = chain = None
        if j and (name is None or "A" <= name[0] <= "Z"):  # not over a variable
            key = (name or num or string, *ctors[k - j:])
            chain = chains.get(key)
        for ctor in ctors if chain is None else ctors[: k - j]:
            sorts = arg_sorts.get(ctor)
            if err is None:
                if sorts is None:
                    err = (node, f"unknown constructor {ctor!r}", "unknown-constructor")
                elif exp != rdt:
                    err = (node, f"{ctor!r} builds sort {rdt!r}, expected {exp!r}", "sort")
            stack.append((ctor, sorts, [], node))
            node += 1
            exp = sorts[0] if sorts else None
        if opening:
            pos = _SKIP_GAP(text, m.end() + 1).end()
            continue
        left = shut  # the closings still to make
        # the closings left once the chain is built, when it is to be filed
        filed = shut - j if key is not None and chain is None else -1
        if chain is not None:
            if exp != rdt and err is None:
                err = (node, f"{ctors[k - j]!r} builds sort {rdt!r}, expected {exp!r}", "sort")
            t = chain
            node += j + 1
            left -= j
        elif name is not None:
            if name in _KEYWORDS:
                raise _fail(text, m.start(2), f"{name!r} is a keyword, not a term")
            c = name[0]
            if c.islower() or c == "_":
                if env is None:
                    raise _fail(
                        text, m.start(2), f"variable {name!r} not allowed in a ground term",
                        "variable-in-ground-term",
                    )
                prior = env.setdefault(name, exp)
                if prior != exp and err is None:
                    err = (node, f"variable {name!r} used at sorts {prior!r} and {exp!r}", "sort")
                t = Var(name, exp)
            else:
                sorts = arg_sorts.get(name)
                if err is None:
                    if sorts is None:
                        err = (node, f"unknown constructor {name!r}", "unknown-constructor")
                    elif exp != rdt:
                        err = (node, f"{name!r} builds sort {rdt!r}, expected {exp!r}", "sort")
                    elif sorts:
                        err = (node, f"{name!r} expects {len(sorts)} arguments, got 0", "arity")
                t = shared.get(name) or shared.setdefault(name, App(name))
            node += 1
        else:
            if num is not None:
                try:
                    value = int(num)
                except ValueError:  # past the interpreter's int-string limit
                    message = f"integer literal of {len(num) - (num[0] == '-')} digits is too long"
                    raise _fail(text, m.start(3), message) from None
                prim = ("int", value)
            else:
                prim = ("string", _unquote(string, text, m.start(4)))
            t = shared.get(prim) or shared.setdefault(prim, Prim(*prim))
            if exp != prim[0] and err is None:
                err = (node, f"{t} is not of sort {exp!r}", "sort")
            node += 1
        while left:  # close the applications that end in this run
            if not stack:  # a ")" too many: the term ended before it
                pos = m.start(5)
                for _ in range(shut - left):  # step past a gap and its ")"
                    pos = _SKIP_GAP(text, pos).end() + 1
                return t, err and err[1:], _SKIP_GAP(text, pos).end()
            ctor, sorts, args, idx = stack.pop()
            args.append(t)
            if sorts is not None and len(args) != len(sorts) and (err is None or err[0] > idx):
                err = (idx, f"{ctor!r} expects {len(sorts)} arguments, got {len(args)}", "arity")
            at = (ctor, *map(id, args))  # args are held by the node filed under at
            t = shared.get(at)
            if t is None:
                t = shared[at] = App(ctor, tuple(args))
            left -= 1
            if left == filed and err is None:
                chains[key] = t
        if comma is None or not stack:
            if stack:
                raise _fail(text, m.end(), "expected ')'")
            return t, err and err[1:], m.end() if comma is None else m.start(6)
        ctor, sorts, args, idx = stack[-1]
        args.append(t)
        exp = sorts[len(args)] if sorts and len(args) < len(sorts) else None
        pos = m.end()


def parse_ground_term(text: str, sig: Signature) -> Term:
    """Parse one ground term of the data sort (as on the norm command line)."""
    start = _SKIP_GAP(text).end()
    t, err, end = _term(text, start, sig, None)
    if end < len(text):
        raise _fail(text, end, "trailing input after term")
    if err:
        raise _fail(text, start, *err)
    return t


def _parse_attr(p: _Parser, sig: Signature, head: str) -> Attr:
    start = p.pos
    word = p.bump()
    if not _is_name(word):
        p.fail("expected an attribute", at=start)
    if word not in ATTRIBUTES:
        p.fail(f"unknown attribute {word!r}", "unknown-attribute", start)
    kind, companion = ATTRIBUTES[word]
    if kind is Assoc and p.cur in ("left", "right"):
        return Assoc(p.bump())
    if companion is None:
        return kind()
    _, arity, role = companion
    p.expect("(")
    name = p.expect_ctor(sig, arity, role, head)
    p.expect(")")
    return kind(name)


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
        if p.accept("("):
            while True:
                s = p.bump()
                if not _is_name(s):
                    p.fail("expected a sort name", at=p.pos - 1)
                if s != sort and s not in PRIMITIVES:
                    p.fail(f"unknown sort {s!r}", "unknown-sort", p.pos - 1)
                arg_sorts.append(s)
                if not p.accept(","):
                    break
            p.expect(")")
        ctors.append((name, arg_sorts))
        if not p.accept("|"):
            break

    sig = Signature(sort, ctors)

    attrs: dict[str, tuple[Attr, ...]] = {}
    while p.accept("with"):
        at = p.pos
        name = p.expect_ctor(sig, 2)
        if name in attrs:
            p.fail(f"duplicate attribute block for {name!r}", "duplicate-attr-block", at)
        p.expect(":")
        block = [_parse_attr(p, sig, name)]
        while p.accept(","):
            block.append(_parse_attr(p, sig, name))
        attrs[name] = tuple(block)

    rules: list[RewriteRule] = []
    while p.accept("rule"):
        start = p.pos
        env: dict[str, str] = {}
        lhs, lhs_err = p.term(sig, env)
        lhs_vars = set(env)
        p.expect("->")
        rhs, rhs_err = p.term(sig, env)
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
