"""Combs and AC-normal forms.

Reference model: flatten a term through one AC constructor by collecting
every leaf not headed by it, recursively flattened first; a comb is correct
iff rebuilding the flattened leaf list in spine order reproduces it, and a
sorted comb's leaves are the same list ordered by the term order.
"""

from __future__ import annotations

import functools
import itertools

import pytest

from canonform import (
    EQ,
    App,
    ShapeError,
    Signature,
    build_comb,
    comb,
    compare,
    is_ac_normal,
    leaves,
    sort_combs,
)
from canonform.acnf import spine

from conftest import load, terms


A, B, C, D = App("Zero"), App("One"), App("Opp", (App("Zero"),)), App("Opp", (App("One"),))


def plus(x, y):
    return App("Plus", (x, y))


RIGHT = {"Plus": "right"}
LEFT = {"Plus": "left"}


@pytest.fixture(scope="module")
def sig():
    return load("exp")[0]


# --- reference model ---------------------------------------------------------


def flatten(t, ctor, orientation):
    """Leaf list of t's outermost ctor-spine, leaves recursively flattened."""
    if isinstance(t, App) and t.ctor == ctor:
        return flatten(t.args[0], ctor, orientation) + flatten(t.args[1], ctor, orientation)
    if isinstance(t, App):
        return [App(t.ctor, tuple(rebuild_all(a, ctor, orientation) for a in t.args))]
    return [t]


def rebuild_all(t, ctor, orientation):
    """Independent recombination: flatten every spine and rebuild it as a
    comb of the given orientation (used as the expected value for comb)."""
    ls = flatten(t, ctor, orientation)
    if len(ls) == 1:
        return ls[0]
    if orientation == "right":
        out = ls[-1]
        for leaf in reversed(ls[:-1]):
            out = App(ctor, (leaf, out))
        return out
    out = ls[0]
    for leaf in ls[1:]:
        out = App(ctor, (out, leaf))
    return out


# --- comb --------------------------------------------------------------------


def test_comb_examples():
    assert comb(plus(plus(A, B), C), RIGHT) == plus(A, plus(B, C))
    assert comb(plus(A, B), RIGHT) == plus(A, B)
    assert comb(plus(plus(A, B), plus(C, D)), RIGHT) == plus(A, plus(B, plus(C, D)))
    assert comb(plus(plus(A, B), C), LEFT) == plus(plus(A, B), C)
    assert comb(plus(A, plus(B, C)), LEFT) == plus(plus(A, B), C)


def test_comb_matches_flatten_rebuild_oracle(sig):
    for t in terms("exp", 7):
        assert comb(t, RIGHT) == rebuild_all(t, "Plus", "right")
        assert comb(t, LEFT) == rebuild_all(t, "Plus", "left")


def test_comb_is_idempotent(sig):
    for t in terms("exp", 6):
        once = comb(t, RIGHT)
        assert comb(once, RIGHT) == once


# --- leaves ------------------------------------------------------------------


def test_leaves_examples():
    assert leaves("Plus", plus(A, plus(B, C))) == [A, B, C]
    assert leaves("Plus", A) == [A]
    assert leaves("Plus", plus(plus(A, B), C), "left") == [A, B, C]
    with pytest.raises(ShapeError, match="not a right Plus comb"):
        leaves("Plus", plus(plus(A, B), C))
    with pytest.raises(ShapeError):
        leaves("Plus", plus(A, plus(B, C)), "left")


def test_build_comb_inverts_leaves():
    for parts in itertools.permutations([A, B, C]):
        t = build_comb("Plus", list(parts), "right")
        assert leaves("Plus", t) == list(parts)
        u = build_comb("Plus", list(parts), "left")
        assert leaves("Plus", u, "left") == list(parts)


def reference_spine(ctor, t):
    """acnf.spine as a plain recursion."""
    if isinstance(t, App) and t.ctor == ctor:
        return [leaf for a in t.args for leaf in reference_spine(ctor, a)]
    return [t]


def test_spine_reads_any_bracketing():
    assert spine("Plus", plus(plus(A, B), plus(C, D))) == [A, B, C, D]
    assert spine("Plus", plus(A, plus(B, plus(C, D)))) == [A, B, C, D]
    assert spine("Plus", C) == [C]
    for t in terms("exp", 7):
        assert spine("Plus", t) == reference_spine("Plus", t)


# --- sort_combs and is_ac_normal ---------------------------------------------


def test_sort_combs_examples(sig):
    # A < B < C in the declared order (Zero, One, Opp(Zero))
    assert sort_combs(sig, plus(B, plus(A, C)), RIGHT) == plus(A, plus(B, C))
    assert sort_combs(sig, plus(A, plus(B, C)), RIGHT) == plus(A, plus(B, C))
    assert sort_combs(sig, A, RIGHT) == A


def test_sort_combs_rejects_a_non_comb(sig):
    with pytest.raises(ShapeError, match="not a right Plus comb"):
        sort_combs(sig, plus(plus(B, A), C), RIGHT)
    with pytest.raises(ShapeError, match="not a left Plus comb"):
        sort_combs(sig, App("Opp", (plus(A, plus(B, C)),)), LEFT)


def test_sort_combs_matches_leaf_sort_oracle(sig):
    key = functools.cmp_to_key(lambda a, b: compare(sig, a, b))
    for t in terms("exp", 7):
        combed = comb(t, RIGHT)
        expected_leaves = sorted(
            (sort_combs(sig, l, RIGHT) for l in _spine_leaves(combed)), key=key
        )
        got = sort_combs(sig, combed, RIGHT)
        assert _spine_leaves(got) == expected_leaves
        assert is_ac_normal(sig, got, RIGHT)


def _spine_leaves(t):
    if isinstance(t, App) and t.ctor == "Plus":
        return [t.args[0]] + _spine_leaves(t.args[1])
    return [t]


def test_is_ac_normal_examples(sig):
    assert is_ac_normal(sig, plus(A, plus(B, C)), RIGHT)
    assert not is_ac_normal(sig, plus(plus(A, B), C), RIGHT)  # left nesting
    assert not is_ac_normal(sig, plus(B, plus(A, C)), RIGHT)  # leaves out of order
    assert is_ac_normal(sig, plus(plus(A, B), C), LEFT)
    # ties are allowed: equal adjacent leaves do not break normality
    assert is_ac_normal(sig, plus(A, plus(A, B)), RIGHT)


def test_sort_combs_is_idempotent(sig):
    for t in terms("exp", 6):
        once = sort_combs(sig, comb(t, RIGHT), RIGHT)
        assert sort_combs(sig, once, RIGHT) == once


def test_normal_form_invariant_under_argument_permutation(sig):
    """Swapping the two arguments of any Plus node in the input never
    changes sort_combs(comb(t)): the AC-class has one normal form."""
    for t in terms("exp", 6):
        nf = sort_combs(sig, comb(t, RIGHT), RIGHT)
        for u in _arg_swaps(t):
            assert sort_combs(sig, comb(u, RIGHT), RIGHT) == nf


def _arg_swaps(t):
    """All terms obtainable by swapping the arguments of exactly one
    Plus node of t."""
    if not isinstance(t, App):
        return
    if t.ctor == "Plus":
        a, b = t.args
        yield App("Plus", (b, a))
    for i, arg in enumerate(t.args):
        for swapped in _arg_swaps(arg):
            new_args = t.args[:i] + (swapped,) + t.args[i + 1 :]
            yield App(t.ctor, new_args)


def test_ac_normal_forms_of_a_deep_leaf_without_recursion():
    """P(L, S^100000(L)) and its mirror image, under the default recursion
    limit, in both orientations: a two-leaf comb reads the same either way."""
    syn = Signature("t", [("L", []), ("S", ["t"]), ("P", ["t", "t"])])
    deep = App("L")
    for _ in range(100_000):
        deep = App("S", (deep,))
    normal, swapped = App("P", (App("L"), deep)), App("P", (deep, App("L")))
    for orientation in ({"P": "right"}, {"P": "left"}):
        for t in (normal, swapped):
            combed = comb(t, orientation)
            assert compare(syn, combed, t) == EQ
            assert compare(syn, sort_combs(syn, combed, orientation), normal) == EQ
        assert is_ac_normal(syn, normal, orientation)
        assert not is_ac_normal(syn, swapped, orientation)
