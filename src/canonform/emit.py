"""Emit a compiled family as a clause report or as standalone Python source.

Report lines follow one fixed shape so they can be diffed and grepped:

    f_C: <pattern> [when <guard>] -> <rhs>

The code emitter writes a dependency-free module that embeds the compiled
family as data and runs the builder's own construction engine on
tuple-shaped terms: a short tuple-world prelude, then the dispatch on entry
kinds, the clause matcher and (for a family with an AC constructor) the AC
functions, printed verbatim from builder.py.  Only normalize and compare
are written per world.  It is a convenience, not a stability contract.
"""

from __future__ import annotations

from functools import cache

from . import builder
from .builder import CompiledFamily, FreeEntry, InverseEntry, Type1Entry
from .terms import App, Signature, Term, Var, fold, format_term


def _v(name: str, sig: Signature) -> Term:
    return Var(name, sig.rdt_sort)


def _line(fname: str, patterns: tuple[Term, ...], guard, rhs: str) -> str:
    pats = ", ".join(format_term(p) for p in patterns)
    cond = ""
    if guard:
        cond = " when " + " & ".join(f"{a} = {b}" for a, b in guard)
    return f"f_{fname}: ({pats}){cond} -> {rhs}"


def _call(fname: str, *args: str) -> str:
    return f"f_{fname}({', '.join(args)})"


def emit_report(fam: CompiledFamily) -> str:
    sig = fam.sig
    x, y, z = _v("x", sig), _v("y", sig), _v("z", sig)
    out: list[str] = []
    for decl in sig.constructors:
        name = decl.name
        entry = fam.entries[name]
        if isinstance(entry, FreeEntry):
            xs = tuple(_v(f"x{i}", sig) for i in range(1, decl.arity + 1))
            out.append(_line(name, xs, (), format_term(App(name, xs))))
        elif isinstance(entry, Type1Entry):
            for clause in entry.clauses:
                out.append(
                    _line(name, clause.patterns, clause.guard, _rhs_str(clause.rhs))
                )
            xs = tuple(_v(f"x{i}", sig) for i in range(1, decl.arity + 1))
            out.append(_line(name, xs, (), format_term(App(name, xs))))
        elif isinstance(entry, InverseEntry):
            th = fam.entries[entry.carrier].theory
            e, C = th.unit, entry.carrier
            out.append(_line(name, (App(e),), (), e))
            out.append(_line(name, (App(name, (x,)),), (), format_term(x)))
            out.append(
                _line(
                    name,
                    (App(C, (x, y)),),
                    (),
                    _call(C, _call(name, "y"), _call(name, "x")),
                )
            )
            out.append(_line(name, (x,), (), format_term(App(name, (x,)))))
        else:
            th = entry.theory
            if th.unit is not None:
                e = App(th.unit)
                out.append(_line(name, (e, y), (), "y"))
                out.append(_line(name, (x, e), (), "x"))
            # The builder's comb view: (a, b)[::s] puts an (exposed side,
            # rest) pair in argument order.  A left comb's lines mirror the
            # right comb's, variable names included.  The reassociation
            # clause is a law f_C satisfies, so it is listed although the
            # builder takes a comb meeting a leaf straight to insert.
            s = entry.sign
            leaf, inner, rest = ("x", "y", "z")[::s]
            nested = App(name, (_v(leaf, sig), _v(inner, sig))[::s])
            out.append(
                _line(name, (nested, _v(rest, sig))[::s], (),
                      _call(name, *(leaf, _call(name, *(inner, rest)[::s]))[::s]))
            )
            exposed, other = ("x", "y")[::s]
            if th.inverse is not None:
                inserted = f"insert_inv_{name}({_call(th.inverse, exposed)}, {other})"
            else:
                inserted = f"insert_{name}({exposed}, {other})"
            out.append(_line(name, (x, y), (), inserted))
    return "\n".join(out) + "\n"


def _rhs_str(rhs: Term) -> str:
    """Clause right-hand sides mean construction-function calls."""
    return fold(rhs, format_term, lambda u, args: _call(u.ctor, *args))


# ---------------------------------------------------------------------------
# standalone code


def _term_code(t: Term, hoisted: list[str]) -> str:
    """t as the expression of its tuple-world value; a variable is a Var record.

    Every 100th level of tuple nesting becomes a module-level name: its
    assignment (`_T0 = ...`) is appended to hoisted, innermost first, so no
    expression nests deeper than Python's parser accepts."""

    def node(u, values):
        code = _tuple_code([repr(u.ctor), *(c for c, _ in values)])
        depth = 1 + max((d for _, d in values), default=0)
        if depth < 100:
            return code, depth
        hoisted.append(f"_T{len(hoisted)} = {code}")
        return f"_T{len(hoisted) - 1}", 0

    return fold(t, lambda u: (f"Var({u.name!r})" if isinstance(u, Var) else repr(u.value), 0), node)[0]


def _tuple_code(items: list[str]) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


# The generated module: a tuple-world prelude, then the builder's own engine
# and AC functions.  Terms are tuples, so the names through which those
# functions touch terms get tuple versions here, compare takes CTOR_INDEX as
# its signature and walks both terms in one loop like terms.compare (one
# object is equal to itself, and only differing names are looked up), and
# entries, clauses and pattern variables are attribute records like the
# builder's.  The f_X functions and normalize call _construct_entry
# directly, so a node costs no call more than the engine's own; construct,
# the name the engine re-enters through, checks the arity first.
_PRELUDE = '''
class Record:
    def __init__(self, **fields):
        self.__dict__.update(fields)


class FreeEntry(Record):
    pass


class Type1Entry(Record):
    pass


class Type2Entry(Record):
    pass


class InverseEntry(Record):
    pass


class Var:
    def __init__(self, name):
        self.name = name


class TheoryError(Exception):
    pass


def _ctor(t):
    return t[0] if type(t) is tuple else None


def _split(t, s):
    return t[1::s] if s > 0 else t[:0:-1]


def _make(C, args):
    return (C,) + args


def compare(sig, t, u):
    pending = []  # argument pairs still to compare, the next one last
    while True:
        if t is u:  # one object: equal, with nothing below to walk
            pass
        elif type(t) is not tuple or type(u) is not tuple:
            # constants sort first, integers before strings
            a, b = (type(t) is tuple, type(t) is str, t), (type(u) is tuple, type(u) is str, u)
            if a != b:
                return (a > b) - (a < b)
        else:
            if t[0] != u[0]:  # only differing names need their indices
                a, b = sig[t[0]], sig[u[0]]
                return (a > b) - (a < b)
            n = len(t)
            if n != len(u):
                n = min(n, len(u))
            if n == 2:  # one argument: descend without a stack entry
                t, u = t[1], u[1]
                continue
            if n > 2:
                for k in range(n - 1, 1, -1):
                    pending.append((t[k], u[k]))
                t, u = t[1], u[1]
                continue
        if not pending:
            return 0
        t, u = pending.pop()


def construct(ctor, args, fam, table=None):
    if len(args) != CTOR_ARITY[ctor]:
        raise ValueError(f"{ctor} expects {CTOR_ARITY[ctor]} arguments")
    return _construct_entry(ctor, fam.entries[ctor], args, fam)


def normalize(t):
    done = []  # values of the finished subterms, leftmost first
    nodes = []  # the nodes whose arguments are being folded, innermost last
    todo = [t]  # subterms still to fold; nodes itself marks where a node ends
    while todo:
        u = todo.pop()
        if u is nodes:
            u = nodes.pop()
            k = len(done) + 1 - len(u)
            args = tuple(done[k:])
            del done[k:]
        elif type(u) is not tuple:
            done.append(u)
            continue
        elif len(u) > 1:
            nodes.append(u)
            todo.append(nodes)
            todo += u[:0:-1]
            continue
        else:
            args = ()
        ctor = u[0]
        if len(args) != CTOR_ARITY[ctor]:
            raise ValueError(f"{ctor} expects {CTOR_ARITY[ctor]} arguments")
        entry = ENTRIES[ctor]
        if type(entry) is FreeEntry:
            done.append((ctor,) + args if args else u)  # f_C = C
        else:
            done.append(_construct_entry(ctor, entry, args, FAMILY))
    return done[0]
'''


@cache
def _shared_block(name: str) -> str:
    """The builder's functions between the markers of its shared `name` block."""
    with open(builder.__file__, encoding="utf-8") as fh:
        source = fh.read()
    begin, end = (f"# --- {m} shared {name} block ---\n" for m in ("begin", "end"))
    return source[source.index(begin) + len(begin) : source.index(end)]


def _entry_code(entry, hoisted: list[str]) -> str:
    if isinstance(entry, FreeEntry):
        return "FreeEntry()"
    if isinstance(entry, Type1Entry):
        clauses = _tuple_code([
            f"Record(patterns={_tuple_code([_term_code(p, hoisted) for p in c.patterns])}, "
            f"guard={c.guard!r}, rhs={_term_code(c.rhs, hoisted)})"
            for c in entry.clauses
        ])
        return f"Type1Entry(clauses={clauses})"
    if isinstance(entry, InverseEntry):
        return f"InverseEntry(carrier={entry.carrier!r})"
    unit, absorber = ("None" if t is None else _term_code(t, hoisted) for t in (entry.unit, entry.absorber))
    return (
        f"Type2Entry(sign={entry.sign}, unit={unit}, absorber={absorber}, "
        f"idem={entry.idem}, nil={entry.nil}, inverse={entry.inverse!r})"
    )


def emit_code(fam: CompiledFamily) -> str:
    sig = fam.sig
    index = {d.name: i for i, d in enumerate(sig.constructors)}
    arity = {d.name: d.arity for d in sig.constructors}
    lines = [
        f'"""Construction functions for the {sig.rdt_sort!r} data type.',
        "",
        "Generated module: terms are tuples (constructor name first, then",
        'arguments); integers and strings stand for themselves.  Do not edit."""',
        "",
        f"CTOR_INDEX = {index!r}",
        "",
        f"CTOR_ARITY = {arity!r}",
        "",
        "",
        _PRELUDE.strip(),
        "",
        "",
    ]
    hoisted: list[str] = []
    entries = [f"    {d.name!r}: {_entry_code(fam.entries[d.name], hoisted)}," for d in sig.constructors]
    if hoisted:
        lines += [*hoisted, ""]
    lines += ["ENTRIES = {", *entries, "}", "", "FAMILY = Record(sig=CTOR_INDEX, entries=ENTRIES)", "", ""]
    for d in sig.constructors:
        params = [f"x{i}" for i in range(1, d.arity + 1)]
        args = _tuple_code(params)
        lines.append(f"def f_{d.name}({', '.join(params)}):")
        lines.append(f'    return _construct_entry("{d.name}", ENTRIES["{d.name}"], {args}, FAMILY)')
        lines += ["", ""]
    lines.append(_shared_block("engine"))
    if fam.classification.theories:
        lines += ["", _shared_block("AC")]
    return "\n".join(lines).rstrip("\n") + "\n"
