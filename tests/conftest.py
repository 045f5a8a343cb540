"""Shared fixtures: parsed definition files and cached term enumerations."""

from __future__ import annotations

import functools
import os
import pathlib

import pytest
from hypothesis import settings

from canonform import (
    App,
    CompiledFamily,
    Prim,
    Signature,
    Term,
    TheorySpec,
    Var,
    compile_family,
    enumerate_ground,
    parse_definition,
)
from canonform.terms import map_vars

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@functools.lru_cache(maxsize=None)
def load(name: str) -> tuple[Signature, TheorySpec, CompiledFamily]:
    """Parse tests/fixtures/<name>.rdt and compile its family."""
    text = (FIXTURES / f"{name}.rdt").read_text()
    sig, spec = parse_definition(text)
    return sig, spec, compile_family(sig, spec)


@functools.lru_cache(maxsize=None)
def terms(name: str, max_size: int):
    """All ground terms of the fixture's data type up to max_size, cached."""
    sig, _, _ = load(name)
    return tuple(enumerate_ground(sig, sig.rdt_sort, max_size))


BAG = "type bag = I(int) | S(string) | U(bag, bag)"


def bag_universe() -> list:
    """Constants of both primitive types, alone and under BAG's constructors."""
    prims = [Prim("int", v) for v in (-2, 0, 7)] + [Prim("string", v) for v in ("", "B", "a", "ab")]
    leaves = [App("I" if p.ptype == "int" else "S", (p,)) for p in prims]
    return prims + leaves + [App("U", (a, b)) for a in leaves[:4] for b in leaves[2:]]


def match_syntactic(p: Term, t: Term, binding: dict[str, Term]) -> bool:
    """Whether t is an instance of pattern p, extending binding: the
    recursive matcher the closure's reference helpers use."""
    if isinstance(p, Var):
        bound = binding.get(p.name)
        if bound is None:
            binding[p.name] = t
            return True
        return bound == t
    if isinstance(p, Prim):
        return p == t
    return (
        isinstance(t, App)
        and t.ctor == p.ctor
        and len(t.args) == len(p.args)
        and all(match_syntactic(a, b, binding) for a, b in zip(p.args, t.args))
    )


def instantiate(p: Term, binding: dict[str, Term]) -> Term:
    return map_vars(p, lambda v: binding[v.name])


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


# Hypothesis example counts: small in the tier-1 run, larger where the
# environment selects the ci profile (HYPOTHESIS_PROFILE=ci).  Tests that set
# max_examples themselves keep their own count.
settings.register_profile("default", max_examples=15, deadline=None)
settings.register_profile("ci", max_examples=150, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
