"""Equational attributes, user rewrite rules, and theory classification.

A constructor either is free, carries one of six supported attribute
combinations (the type-2 catalog below), or is defined by user rewrite rules
that form a complete system on their own (type 1).  Classification checks the
catalog, resolves the companion symbols (neutral element, inverse, absorber),
and enforces that distinct theories share no symbol.  A rejection names the
first offence in a fixed order (attributes in source order, symbols as
Type2Theory.symbols lists them), so a definition always gets one diagnostic;
in a file, the parser has already reported a with block's head or companion
of the wrong shape, at its name.  The attribute language is two tables:
ATTRIBUTES (each word's class and, for a companion, the field, arity and
role of the constructor it names) and _REQUIRES (which attribute needs which).

Each catalog law is written once: builtin_presentation builds a variant's
complete rule set from its laws (a pair law for idempotence and nilpotence,
the unit law for a neutral element) rather than spelling out each variant.

Catalog:
    assoc+com                     flat sorted combs
    assoc+com+neutral+inverse     abelian group
    assoc+com+idempotent          sets
    assoc+com+neutral+idempotent  sets with a unit
    assoc+com+nilpotent           self-cancelling pairs
    assoc+com+neutral+nilpotent   self-cancelling pairs with a unit
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from .errors import TheoryError
from .terms import App, Signature, Term, Var, preorder, sort_of


@dataclass(frozen=True)
class Assoc:
    orientation: str = "right"  # comb direction for the AC spine

    def __post_init__(self):
        if self.orientation not in ("left", "right"):
            raise TheoryError(f"bad orientation {self.orientation!r}")


@dataclass(frozen=True)
class Com:
    pass


@dataclass(frozen=True)
class Neu:
    unit: str


@dataclass(frozen=True)
class Inv:
    inverse: str


@dataclass(frozen=True)
class Idem:
    pass


@dataclass(frozen=True)
class Nil:
    absorber: str


Attr = Union[Assoc, Com, Neu, Inv, Idem, Nil]

# The attribute language, one row per word: its class and, for an attribute
# that names a companion constructor, the field holding that name (on the
# attribute and on Type2Theory), the constructor's arity and its role in
# messages.
ATTRIBUTES: dict[str, tuple[type, Optional[tuple[str, int, str]]]] = {
    "associative": (Assoc, None),
    "commutative": (Com, None),
    "neutral": (Neu, ("unit", 0, "neutral element")),
    "inverse": (Inv, ("inverse", 1, "inverse")),
    "idempotent": (Idem, None),
    "nilpotent": (Nil, ("absorber", 0, "absorber")),
}
# The companion attributes by class, in the order check prints them.
COMPANIONS = {kind: companion for kind, companion in ATTRIBUTES.values() if companion}
# (attribute, the attribute it needs, the message), checked in this order.
_REQUIRES = (
    (Com, Assoc, "commutativity requires associativity in the supported catalog"),
    (Assoc, Com, "associativity requires commutativity in the supported catalog"),
    (Inv, Neu, "inverse requires a declared neutral element"),
)


@dataclass(frozen=True)
class RewriteRule:
    """User rule lhs -> rhs; both sides are patterns over one signature."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class TheorySpec:
    """Raw declarative input: attribute sets per constructor plus user rules."""

    attrs: Mapping[str, tuple[Attr, ...]] = field(default_factory=dict)
    rules: tuple[RewriteRule, ...] = ()


class Variant(Enum):
    AC = "ac"
    GROUP = "abelian-group"
    ACI = "aci"
    ACI_NEU = "aci-neutral"
    ACNIL = "ac-nilpotent"
    ACNIL_NEU = "ac-nilpotent-neutral"


_CATALOG: dict[frozenset, Variant] = {
    frozenset({Assoc, Com}): Variant.AC,
    frozenset({Assoc, Com, Neu, Inv}): Variant.GROUP,
    frozenset({Assoc, Com, Idem}): Variant.ACI,
    frozenset({Assoc, Com, Neu, Idem}): Variant.ACI_NEU,
    frozenset({Assoc, Com, Nil}): Variant.ACNIL,
    frozenset({Assoc, Com, Neu, Nil}): Variant.ACNIL_NEU,
}

IDEM_VARIANTS = {Variant.ACI, Variant.ACI_NEU}
NIL_VARIANTS = {Variant.ACNIL, Variant.ACNIL_NEU}


@dataclass(frozen=True)
class Type2Theory:
    """One classified AC constructor with its resolved companion symbols."""

    variant: Variant
    ctor: str
    orientation: str = "right"
    unit: Optional[str] = None
    inverse: Optional[str] = None
    absorber: Optional[str] = None

    def symbols(self) -> tuple[str, ...]:
        """ctor, unit, inverse and absorber (table order): the declared ones, once each."""
        named = (self.ctor, *(getattr(self, slot) for slot, _, _ in COMPANIONS.values()))
        return tuple(dict.fromkeys(s for s in named if s is not None))


@dataclass
class Classification:
    theories: tuple[Type2Theory, ...]
    carrier: dict[str, Type2Theory]     # AC constructor -> its theory
    inverse_of: dict[str, Type2Theory]  # inverse constructor -> owning theory
    owner: dict[str, Type2Theory]       # every theory symbol -> owning theory
    type1: tuple[str, ...]              # constructors defined by user rules
    free: tuple[str, ...]

    def orientations(self) -> dict[str, str]:
        return {c: th.orientation for c, th in self.carrier.items()}


def _require_args(sig: Signature, ctor: str, arity: int, role: str = "", of: str = "") -> None:
    """Reject ctor unless it takes arity arguments of the data sort: a
    binary theory constructor, or a companion (role) of the theory of of."""
    decl = sig.declaration(ctor)
    pi = sig.rdt_sort
    if decl.arg_sorts != (pi,) * arity:
        raise TheoryError({
            2: f"equational attributes apply only to binary constructors over "
            f"{pi!r}; {ctor!r} has arguments {list(decl.arg_sorts)}",
            1: f"{role} {ctor!r} of {of!r} must be unary over {pi!r}",
            0: f"{role} {ctor!r} of {of!r} must be a nullary constructor",
        }[arity])


def _pattern_vars(t: Term) -> set[str]:
    return {u.name for u in preorder(t) if isinstance(u, Var)}


def validate_rule(sig: Signature, rule: RewriteRule) -> None:
    """Structural checks on one user rule (theory membership is checked later)."""
    if not isinstance(rule.lhs, App):
        raise TheoryError(f"rule left-hand side must be headed by a constructor: {rule}")
    sorts = []
    for side, name in ((rule.lhs, "left"), (rule.rhs, "right")):
        sorts.append(sort_of(sig, side, pattern=True))
        if sorts[-1] is None:
            raise TheoryError(f"ill-sorted {name}-hand side in rule: {rule}")
    if sorts[0] != sorts[1]:
        raise TheoryError(f"rule sides have different sorts: {rule}")
    extra = _pattern_vars(rule.rhs) - _pattern_vars(rule.lhs)
    if extra:
        raise TheoryError(
            f"rule right-hand side uses unbound variables {sorted(extra)}: {rule}"
        )


def classify(spec: TheorySpec, sig: Signature) -> Classification:
    """Assign every constructor to free / type-1 / type-2 or reject the definition."""
    unknown = sorted(c for c in spec.attrs if c not in sig)
    if unknown:
        raise TheoryError(f"attributes on undeclared constructor {unknown[0]!r}")
    theories: list[Type2Theory] = []
    for ctor in (d.name for d in sig.constructors):
        attrs = tuple(spec.attrs.get(ctor, ()))
        if not attrs:
            continue
        _require_args(sig, ctor, 2)
        kinds = [type(a) for a in attrs]
        for i, k in enumerate(kinds):  # the first repeat in source order
            if k in kinds[:i]:
                raise TheoryError(f"duplicate {k.__name__.lower()} attribute on {ctor!r}")
        kindset = frozenset(kinds)
        for kind, needed, message in _REQUIRES:
            if kind in kindset and needed not in kindset:
                raise TheoryError(f"{ctor!r}: {message}")
        variant = _CATALOG.get(kindset)
        if variant is None:
            names = "+".join(sorted(k.__name__.lower() for k in kindset))
            raise TheoryError(f"{ctor!r}: unsupported attribute combination {names}")
        orientation = "right"
        named: dict[str, str] = {}  # Type2Theory field -> companion constructor
        for a in attrs:
            if isinstance(a, Assoc):
                orientation = a.orientation
            elif type(a) in COMPANIONS:
                slot, arity, role = COMPANIONS[type(a)]
                named[slot] = getattr(a, slot)
                _require_args(sig, named[slot], arity, role, ctor)
        theories.append(Type2Theory(variant, ctor, orientation, **named))

    owner: dict[str, Type2Theory] = {}
    for th in theories:
        for s in th.symbols():
            if s in owner:
                raise TheoryError(
                    f"symbol {s!r} is shared by the theories of "
                    f"{owner[s].ctor!r} and {th.ctor!r}; theories must be disjoint"
                )
            owner[s] = th

    carrier = {th.ctor: th for th in theories}
    inverse_of = {th.inverse: th for th in theories if th.inverse is not None}

    type1: list[str] = []
    for rule in spec.rules:
        validate_rule(sig, rule)
        head = rule.lhs.ctor  # validate_rule proved lhs an App
        if head in owner:
            raise TheoryError(
                f"rule left-hand side head {head!r} belongs to the equational "
                f"theory of {owner[head].ctor!r}; theories must be disjoint"
            )
        if head not in type1:
            type1.append(head)

    free = tuple(
        d.name
        for d in sig.constructors
        if d.name not in owner and d.name not in type1
    )
    return Classification(
        theories=tuple(theories),
        carrier=carrier,
        inverse_of=inverse_of,
        owner=owner,
        type1=tuple(type1),
        free=free,
    )


def _vars(sig: Signature, *names: str) -> tuple[Term, ...]:
    return tuple(Var(n, sig.rdt_sort) for n in names)


def equations_of(spec: TheorySpec, sig: Signature) -> list[tuple[Term, Term]]:
    """Expand attributes (and user rules) into the axioms they stand for."""
    x, y, z = _vars(sig, "x", "y", "z")
    eqs: list[tuple[Term, Term]] = []
    for d in sig.constructors:
        attrs = spec.attrs.get(d.name, ())
        if not attrs:
            continue
        C = d.name
        kinds = {type(a) for a in attrs}
        for a in attrs:
            if isinstance(a, Assoc):
                eqs.append((App(C, (App(C, (x, y)), z)), App(C, (x, App(C, (y, z))))))
            elif isinstance(a, Com):
                eqs.append((App(C, (x, y)), App(C, (y, x))))
            elif isinstance(a, Neu):
                e = App(a.unit)
                eqs.append((App(C, (x, e)), x))
                if Com in kinds:
                    eqs.append((App(C, (e, x)), x))
            elif isinstance(a, Inv):
                unit = next(b.unit for b in attrs if isinstance(b, Neu))
                eqs.append((App(C, (x, App(a.inverse, (x,)))), App(unit)))
            elif isinstance(a, Idem):
                eqs.append((App(C, (x, x)), x))
            elif isinstance(a, Nil):
                eqs.append((App(C, (x, x)), App(a.absorber)))
    for rule in spec.rules:
        eqs.append((rule.lhs, rule.rhs))
    return eqs


def builtin_presentation(theory: Type2Theory, sig: Signature) -> tuple[RewriteRule, ...]:
    """Complete presentation of one catalog theory, used for redex checks.

    Each law is written once.  The abelian group is the classic six-rule
    system, and plain AC has no rules.  Idempotence and nilpotence share
    one pair law: C(x, x) collapses to x or to the absorber.  Its extension
    rule C(x, C(x, y)) (Peterson & Stickel 1981) makes redex existence
    stable across AC-equal terms.  A neutral element adds the two unit
    rules.  A variant outside these cases raises TheoryError.
    """
    x, y = _vars(sig, "x", "y")

    def C(a: Term, b: Term) -> Term:
        return App(theory.ctor, (a, b))

    if theory.variant is Variant.GROUP:
        e = App(theory.unit)

        def I(a: Term) -> Term:
            return App(theory.inverse, (a,))

        return (
            RewriteRule(C(e, x), x),
            RewriteRule(C(I(x), x), e),
            RewriteRule(C(C(I(x), x), y), y),
            RewriteRule(I(e), e),
            RewriteRule(I(I(x)), x),
            RewriteRule(I(C(x, y)), C(I(y), I(x))),
        )
    if theory.variant in IDEM_VARIANTS or theory.variant in NIL_VARIANTS:
        pair = x if theory.variant in IDEM_VARIANTS else App(theory.absorber)
        rules = (RewriteRule(C(x, x), pair), RewriteRule(C(x, C(x, y)), C(pair, y)))
    elif theory.variant is Variant.AC:
        rules = ()
    else:
        raise TheoryError(f"no builtin presentation for {theory.variant}")
    if theory.unit is not None:
        e = App(theory.unit)
        rules += (RewriteRule(C(x, e), x), RewriteRule(C(e, x), x))
    return rules
