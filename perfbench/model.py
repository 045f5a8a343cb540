"""The benchmark's own model of the pinned definitions: terms, counts and references.

Nothing here imports canonform.  Terms are tuples `(ctor, *args)`, the same
shape the module from `emit --format code` works on.  Every walk is
iterative, so the reference side never hits the recursion limit that the
program under test hits on deep inputs.

The reference canonical forms follow the oracles of the acceptance suite:
a sum is read as its leaf multiset (plain AC), signed counts (group), leaf
set (idempotent) or odd leaves plus an absorber flag (nilpotent), and the
canonical value is the sorted comb of the declared orientation.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DEFS_DIR = Path(__file__).resolve().parent / "defs"


@dataclass(frozen=True)
class Theory:
    """What the benchmark knows about one definition, written down by hand.

    `kind` is one of "ac", "group", "idem", "nil" (one AC constructor `op`),
    "unit_rules" (rules making `unit` a two-sided unit of `op`) or "free".
    """

    kind: str
    op: Optional[str] = None
    orientation: str = "right"
    unit: Optional[str] = None
    inverse: Optional[str] = None
    absorber: Optional[str] = None


# One entry per pinned file in defs/; the theory is restated here rather than
# read back from canonform, so a parser or classifier bug cannot hide.
THEORIES: dict[str, Theory] = {
    "syn_ac": Theory("ac", "P"),
    "syn_group": Theory("group", "P", unit="Z", inverse="N"),
    "syn_left_group": Theory("group", "P", "left", unit="Z", inverse="N"),
    "syn_idem": Theory("idem", "P"),
    "syn_nil": Theory("nil", "P", absorber="B"),
    "vec": Theory("group", "Plus", unit="Zero", inverse="Opp"),
    "left_group": Theory("group", "Plus", "left", unit="Zero", inverse="Opp"),
    "exp": Theory("group", "Plus", unit="Zero", inverse="Opp"),
    "aci": Theory("idem", "Or"),
    "acnil": Theory("nil", "Xor", absorber="Bot"),
    "free": Theory("free"),
    "neu_rules": Theory("unit_rules", "C", unit="E"),
}


def def_path(name: str) -> Path:
    return DEFS_DIR / f"{name}.rdt"


_TYPE_LINE = re.compile(r"^\s*type\s+\w+\s*=\s*(.+)$", re.MULTILINE)
_CTOR = re.compile(r"([A-Z]\w*)\s*(?:\(([^)]*)\))?")


@functools.lru_cache(maxsize=None)
def constructors(name: str) -> tuple[tuple[str, int], ...]:
    """(constructor, arity) in declaration order, read from the pinned file."""
    text = def_path(name).read_text()
    m = _TYPE_LINE.search(text)
    if m is None:
        raise ValueError(f"no type line in {name}.rdt")
    out = []
    for part in m.group(1).split("|"):
        c = _CTOR.fullmatch(part.strip())
        if c is None:
            raise ValueError(f"bad constructor {part!r} in {name}.rdt")
        out.append((c.group(1), len(c.group(2).split(",")) if c.group(2) else 0))
    return tuple(out)


# ---------------------------------------------------------------------------
# terms as tuples


def fmt(t: tuple) -> str:
    """Concrete syntax of a tuple term, as `norm -e` reads and prints it."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        out.append(x[0])
        if len(x) == 1:
            continue
        out.append("(")
        stack.append(")")
        for i in range(len(x) - 1, 0, -1):
            stack.append(x[i])
            if i > 1:
                stack.append(", ")
    return "".join(out)


def spine(op: str, t: tuple) -> list[tuple]:
    """Leaves of the op-spine of t, left to right."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if x[0] == op:
            stack.append(x[2])
            stack.append(x[1])
        else:
            out.append(x)
    return out


def comb(op: str, parts: list[tuple], orientation: str) -> tuple:
    if orientation == "right":
        out = parts[-1]
        for leaf in reversed(parts[:-1]):
            out = (op, leaf, out)
        return out
    out = parts[0]
    for leaf in parts[1:]:
        out = (op, out, leaf)
    return out


def order_key(index: dict[str, int]):
    """Sort key matching canonform's structural order: declaration index, then
    arguments left to right.  Leaves are shallow, so recursion here is bounded."""

    def key(t: tuple):
        return (index[t[0]],) + tuple(key(a) for a in t[1:])

    return key


def canonical(name: str, t: tuple) -> tuple:
    """The benchmark's own canonical form of ground term t under definition `name`."""
    th = THEORIES[name]
    index = {c: i for i, (c, _) in enumerate(constructors(name))}
    key = order_key(index)
    if th.kind == "free":
        return t
    if th.kind == "unit_rules":
        return _strip_unit(th.op, th.unit, t)
    return _canon_sum(th, key, t)


def _strip_unit(op: str, unit: str, t: tuple) -> tuple:
    # bottom-up: C(x, E) -> x and C(E, x) -> x; everything else rebuilds
    done: dict[int, tuple] = {}
    stack = [(t, False)]
    while stack:
        x, ready = stack.pop()
        if len(x) == 1:
            done[id(x)] = x
            continue
        if not ready:
            stack.append((x, True))
            stack.extend((a, False) for a in x[1:])
            continue
        args = tuple(done[id(a)] for a in x[1:])
        if x[0] == op and args[1] == (unit,):
            done[id(x)] = args[0]
        elif x[0] == op and args[0] == (unit,):
            done[id(x)] = args[1]
        else:
            done[id(x)] = (x[0],) + args
    return done[id(t)]


def _canon_sum(th: Theory, key, t: tuple) -> tuple:
    # The terms here carry no sum below an atom, so atoms need no recursion.
    if th.kind == "group":
        counts: Counter = Counter()
        stack = [(t, 1)]
        while stack:
            x, sign = stack.pop()
            if x[0] == th.op:
                stack.append((x[1], sign))
                stack.append((x[2], sign))
            elif x[0] == th.inverse:
                stack.append((x[1], -sign))
            elif x[0] != th.unit:
                counts[x] += sign
        parts = []
        for atom, n in counts.items():
            parts.extend([atom] * n if n > 0 else [(th.inverse, atom)] * -n)
        if not parts:
            return (th.unit,)
    else:
        bag = Counter(spine(th.op, t))
        if th.kind == "ac":
            parts = list(bag.elements())
        elif th.kind == "idem":
            parts = list(bag)
        else:  # nilpotent, no unit: pairs collapse, absorbers collapse to one
            absorbers = bag.pop((th.absorber,), 0)
            parts = [a for a, n in bag.items() if n % 2]
            if absorbers or any(n >= 2 for n in bag.values()):
                parts.append((th.absorber,))
    parts.sort(key=key)
    return comb(th.op, parts, th.orientation)


def distinct_subterms(roots: list[tuple]) -> tuple[int, int]:
    """(distinct subterms, sum of their arities) over all roots.

    Each node gets an integer id from (ctor, child ids), so equal subterms
    meet in one dict entry without hashing deep tuples.
    """
    ids: dict[tuple, int] = {}
    memo: dict[int, int] = {}  # id() is stable: the caller keeps every root alive
    for root in roots:
        stack = [(root, False)]
        while stack:
            x, ready = stack.pop()
            if id(x) in memo:
                continue
            if not ready and len(x) > 1:
                stack.append((x, True))
                stack.extend((a, False) for a in x[1:] if id(a) not in memo)
                continue
            k = (x[0],) + tuple(memo[id(a)] for a in x[1:])
            memo[id(x)] = ids.setdefault(k, len(ids))
    edges = sum(len(k) - 1 for k in ids)
    return len(ids), edges


def sharing_mismatch(name: str, term: tuple, ref: tuple, nodes: int, edges: int) -> Optional[str]:
    """Why a `sharing: nodes=N edges=M` report for normalizing `term` cannot
    be right, or None.

    Checked from the signature and the reference canonical form `ref`,
    without knowing how the builder interns: the table holds at least every
    distinct subterm of the value and of each input leaf (each leaf is a
    constructed value), and every node has an arity of the signature, so
    nodes - (nullary constructors) <= edges <= (largest arity) * nodes.
    """
    need_nodes, need_edges = distinct_subterms([ref, *spine(THEORIES[name].op, term)])
    if nodes < need_nodes or edges < need_edges:
        return "sharing line counts fewer nodes or edges than the distinct subterms of value and leaves"
    arities = [a for _, a in constructors(name)]
    if not nodes - arities.count(0) <= edges <= max(arities) * nodes:
        return "sharing line's edge count does not fit its node count"
    return None


# ---------------------------------------------------------------------------
# enumeration, counted by arity


def count_terms(name: str, max_size: int) -> tuple[int, int]:
    """(terms, leaves) over every ground term with at most max_size nodes.

    Counted from constructor arities alone; leaves are nullary occurrences.
    """
    ctors = constructors(name)
    terms = [0] * (max_size + 1)
    leaves = [0] * (max_size + 1)
    for n in range(1, max_size + 1):
        for _, arity in ctors:
            if arity == 0:
                if n == 1:
                    terms[n] += 1
                    leaves[n] += 1
            elif arity == 1:
                terms[n] += terms[n - 1]
                leaves[n] += leaves[n - 1]
            elif arity == 2:
                for i in range(1, n - 1):
                    j = n - 1 - i
                    terms[n] += terms[i] * terms[j]
                    leaves[n] += leaves[i] * terms[j] + terms[i] * leaves[j]
            else:
                raise ValueError("arities above 2 are not modelled")
    return sum(terms), sum(leaves)


def enumerate_terms(name: str, max_size: int) -> list[tuple]:
    """Every ground term up to max_size nodes, as tuples (order is the benchmark's own)."""
    ctors = constructors(name)
    by_size: list[list[tuple]] = [[] for _ in range(max_size + 1)]
    for n in range(1, max_size + 1):
        bucket = by_size[n]
        for c, arity in ctors:
            if arity == 0 and n == 1:
                bucket.append((c,))
            elif arity == 1:
                bucket.extend((c, a) for a in by_size[n - 1])
            elif arity == 2:
                for i in range(1, n - 1):
                    bucket.extend((c, a, b) for a in by_size[i] for b in by_size[n - 1 - i])
    return [t for bucket in by_size for t in bucket]
