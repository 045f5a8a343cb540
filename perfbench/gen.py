"""Seeded stream of AC sums for the `norm_*` workloads.

Each term is a sum over the AC constructor `P` of one synthetic definition
in defs/.  The properties construction cost depends on are all varied:

* theory variant: plain AC, abelian group, left-oriented group, idempotent,
  nilpotent (one pinned definition each);
* shape of the input sum: balanced, right chain, left chain, random tree;
* leaf depth: leaves are `S^k(L)` with k < 20, which sets the cost of `compare`;
* leaf-pool size: how many distinct k a term draws from, which sets how
  often leaves cancel (group, nilpotent) or collapse (idempotent);
* size: number of leaves, on a log grid, so small sums dominate the count
  and large ones the time.

Variant, shape and size are a fixed design: every (variant, shape) pair
gets one sum at each point of the size grid, and every leaf pool has the
same mean depth; the seed draws the leaves.  Two seeds then give lists of
the same make-up, including the same very large sums that fail today,
which keeps seed-to-seed spread small without dropping any size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

VARIANTS = ("syn_ac", "syn_group", "syn_left_group", "syn_idem", "syn_nil")
SHAPES = ("balanced", "right", "left", "random")
POOL_SIZES = (2, 6, 20)  # even, so pools split into symmetric pairs
MAX_K = 20  # leaves are S^k(L) with k < MAX_K
UNIT_SHARE = 0.05  # share of group leaves that are the unit Z, of nilpotent leaves the absorber B
INVERSE_SHARE = 0.5  # share of group leaves wrapped in the inverse N


@dataclass(frozen=True)
class Sum:
    definition: str
    shape: str
    pool: int
    leaves: int
    term: tuple  # (ctor, *args)


def _leaf(rng: random.Random, definition: str, ks: list[int]) -> tuple:
    if definition in ("syn_group", "syn_left_group") and rng.random() < UNIT_SHARE:
        return ("Z",)
    if definition == "syn_nil" and rng.random() < UNIT_SHARE:
        return ("B",)
    t: tuple = ("L",)
    for _ in range(rng.choice(ks)):
        t = ("S", t)
    if definition in ("syn_group", "syn_left_group") and rng.random() < INVERSE_SHARE:
        t = ("N", t)
    return t


def _join(rng: random.Random, shape: str, parts: list[tuple]) -> tuple:
    """Fold leaves into one P-sum of the given shape, without recursion."""
    if shape == "right":
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = ("P", p, out)
        return out
    if shape == "left":
        out = parts[0]
        for p in parts[1:]:
            out = ("P", out, p)
        return out
    if shape == "balanced":
        while len(parts) > 1:
            nxt = [("P", parts[i], parts[i + 1]) for i in range(0, len(parts) - 1, 2)]
            if len(parts) % 2:
                nxt.append(parts[-1])
            parts = nxt
        return parts[0]
    # random binary tree: join two random neighbours until one tree is left
    parts = list(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [("P", parts[i], parts[i + 1])]
    return parts[0]


def _pool(rng: random.Random, size: int) -> list[int]:
    # symmetric pairs k, MAX_K-1-k: every pool has mean leaf depth (MAX_K-1)/2
    firsts = rng.sample(range(MAX_K // 2), size // 2)
    return firsts + [MAX_K - 1 - k for k in firsts]


def sums(seed: int, slices: int, min_leaves: int, max_leaves: int) -> list[Sum]:
    """One sum per (variant, shape, size slice): the same list for the same arguments.

    The log-uniform size range is cut into `slices` equal-probability
    slices and each (variant, shape) pair gets one sum at the midpoint of
    every slice; pool sizes rotate over variants, shapes and slices (a
    Latin square).  The seed draws the leaves and the random trees.
    """
    rng = random.Random(seed)
    span = math.log(max_leaves / min_leaves)
    out = []
    for v, definition in enumerate(VARIANTS):
        for s, shape in enumerate(SHAPES):
            for j in range(slices):
                n = round(min_leaves * math.exp(span * (j + 0.5) / slices))
                pool = POOL_SIZES[(v + s + j) % len(POOL_SIZES)]
                ks = _pool(rng, pool)
                leaves = [_leaf(rng, definition, ks) for _ in range(n)]
                out.append(Sum(definition, shape, pool, n, _join(rng, shape, leaves)))
    rng.shuffle(out)
    return out
