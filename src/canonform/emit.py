"""Emit a compiled family as a clause report or as standalone Python source.

Report lines follow one fixed shape so they can be diffed and grepped:

    f_C: <pattern> [when <guard>] -> <rhs>

The code emitter writes a dependency-free module embedding the compiled
family as data plus a small generic engine over tuple-shaped terms; it is a
convenience (and an independent cross-check target), not a stability
contract.  Like the builder, the engine has one comb path for both
orientations: each AC entry carries the builder's comb view precomputed,
as the compare sign and the tuple indices of the exposed leaf and the rest.
"""

from __future__ import annotations

from .builder import (
    CompiledFamily,
    FreeEntry,
    InverseEntry,
    Type1Entry,
    Type2Entry,
)
from .terms import App, Prim, Signature, Term, Var, format_term


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
            # right comb's, variable names included.
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
    if isinstance(rhs, App) and rhs.args:
        return _call(rhs.ctor, *(_rhs_str(a) for a in rhs.args))
    if isinstance(rhs, App):
        return _call(rhs.ctor)
    return format_term(rhs)


# ---------------------------------------------------------------------------
# standalone code


def _tuple_term(t: Term):
    if isinstance(t, Var):
        return ("?", t.name)
    if isinstance(t, Prim):
        return t.value
    return (t.ctor,) + tuple(_tuple_term(a) for a in t.args)


_ENGINE = '''
def _is(t, c):
    return isinstance(t, tuple) and t[0] == c


def compare(t, u):
    tp, up = isinstance(t, tuple), isinstance(u, tuple)
    if tp != up:
        return 1 if tp else -1  # primitive constants sort first
    if not tp:
        ta = "int" if isinstance(t, int) else "string"
        ua = "int" if isinstance(u, int) else "string"
        if ta != ua:
            return -1 if ta < ua else 1
        return (t > u) - (t < u)
    a, b = CTOR_INDEX[t[0]], CTOR_INDEX[u[0]]
    if a != b:
        return (a > b) - (a < b)
    for x, y in zip(t[1:], u[1:]):
        c = compare(x, y)
        if c:
            return c
    return 0


def _match(p, v, b):
    if isinstance(p, tuple) and p[0] == "?":
        b[p[1]] = v
        return True
    if isinstance(p, tuple):
        return (
            isinstance(v, tuple)
            and v[0] == p[0]
            and len(v) == len(p)
            and all(_match(x, y, b) for x, y in zip(p[1:], v[1:]))
        )
    return p == v


def _rhs(r, b):
    if isinstance(r, tuple) and r[0] == "?":
        return b[r[1]]
    if isinstance(r, tuple):
        return construct(r[0], *[_rhs(a, b) for a in r[1:]])
    return r


def _join(C, p, leaf, rest):
    # the comb view: put an (exposed leaf, rest) pair back in spine order
    return (C, leaf, rest) if p["leaf"] == 1 else (C, rest, leaf)


def _insert(C, p, x, u):
    if p["nil"]:
        out, rest = _remove(C, p, x, u)
        if out == "empty":
            return p["absorber"]
        if out == "rest":
            return construct(C, p["absorber"], rest)
    if _is(u, C):
        y = u[p["leaf"]]
        c = p["sign"] * compare(x, y)
        if c == 0 and p["idem"]:
            return u
        if c <= 0:
            return _join(C, p, x, u)
        return _join(C, p, y, _insert(C, p, x, u[p["rest"]]))
    c = p["sign"] * compare(x, u)
    if c > 0:
        return _join(C, p, u, x)
    if c == 0 and p["idem"]:
        return u
    return _join(C, p, x, u)


def _remove(C, p, x, u):
    # one-leaf removal: ("absent", None) | ("empty", None) | ("rest", value)
    if not _is(u, C):
        return ("empty", None) if compare(x, u) == 0 else ("absent", None)
    y = u[p["leaf"]]
    c = p["sign"] * compare(x, y)
    if c < 0:
        return "absent", None
    if c == 0:
        return "rest", u[p["rest"]]
    out, rest = _remove(C, p, x, u[p["rest"]])
    if out == "absent":
        return "absent", None
    if out == "empty":
        return "rest", y
    return "rest", _join(C, p, y, rest)


def _delete(C, p, x, u):
    out, rest = _remove(C, p, x, u)
    if out == "absent":
        return None
    if out == "empty":
        return p["unit"]
    return rest


def _insert_inv(C, p, x_inv, y):
    found = _delete(C, p, x_inv, y)
    if found is not None:
        return found
    return _insert(C, p, _invert(p["inverse"], x_inv), y)


def _invert(I, v):
    carrier = ENTRIES[I][1]
    p = ENTRIES[carrier][1]
    if v == p["unit"]:
        return v
    if _is(v, I):
        return v[1]
    if _is(v, carrier):
        return construct(carrier, _invert(I, v[2]), _invert(I, v[1]))
    return (I, v)


def construct(name, *args):
    if len(args) != CTOR_ARITY[name]:
        raise ValueError(f"{name} expects {CTOR_ARITY[name]} arguments")
    e = ENTRIES[name]
    if e[0] == "free":
        return (name,) + args
    if e[0] == "clauses":
        for pats, guard, rhs in e[1]:
            b = {}
            if all(_match(pt, v, b) for pt, v in zip(pats, args)) and all(
                compare(b[i], b[j]) == 0 for i, j in guard
            ):
                return _rhs(rhs, b)
        return (name,) + args
    if e[0] == "inv":
        return _invert(name, args[0])
    p = e[1]
    a, b = args
    unit = p["unit"]
    if unit is not None:
        if a == unit:
            return b
        if b == unit:
            return a
    x, rest = args[p["leaf"] - 1], args[p["rest"] - 1]
    if _is(x, name):
        inner = construct(*_join(name, p, x[p["rest"]], rest))
        return construct(*_join(name, p, x[p["leaf"]], inner))
    if p["inverse"]:
        return _insert_inv(name, p, _invert(p["inverse"], x), rest)
    return _insert(name, p, x, rest)


def normalize(t):
    if isinstance(t, tuple):
        return construct(t[0], *[normalize(a) for a in t[1:]])
    return t
'''


def emit_code(fam: CompiledFamily) -> str:
    sig = fam.sig
    index = {d.name: i for i, d in enumerate(sig.constructors)}
    arity = {d.name: d.arity for d in sig.constructors}
    entries: dict[str, object] = {}
    for d in sig.constructors:
        entry = fam.entries[d.name]
        if isinstance(entry, FreeEntry):
            entries[d.name] = ("free",)
        elif isinstance(entry, Type1Entry):
            clauses = tuple(
                (
                    tuple(_tuple_term(p) for p in c.patterns),
                    c.guard,
                    _tuple_term(c.rhs),
                )
                for c in entry.clauses
            )
            entries[d.name] = ("clauses", clauses)
        elif isinstance(entry, InverseEntry):
            entries[d.name] = ("inv", entry.carrier)
        else:
            th = entry.theory
            entries[d.name] = (
                "ac",
                {
                    "sign": entry.sign,
                    "leaf": 1 + entry.leaf,
                    "rest": 2 - entry.leaf,
                    "unit": (th.unit,) if th.unit is not None else None,
                    "inverse": th.inverse,
                    "absorber": (th.absorber,) if th.absorber is not None else None,
                    "idem": entry.idem,
                    "nil": entry.nil,
                },
            )
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
        f"ENTRIES = {entries!r}",
        "",
        _ENGINE.strip(),
        "",
        "",
    ]
    for d in sig.constructors:
        params = ", ".join(f"x{i}" for i in range(1, d.arity + 1))
        args = (", " + params) if params else ""
        lines.append(f"def f_{d.name}({params}):")
        lines.append(f'    return construct("{d.name}"{args})')
        lines.append("")
    return "\n".join(lines)
