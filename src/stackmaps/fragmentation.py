"""Dirichlet fragmentation of [0,1) and its equivalence with leaf-growth
trees.

Splitting every fragment into ``arity`` parts with Dirichlet(1/2,...)
proportions (uniform for binary) and inserting nodes at i.i.d. uniform
marks reproduces exactly the tree-shape law of uniform leaf-growth: the
probability of a shape factorizes either through Dirichlet moments or
through history counts, and the two closed forms agree (checked to 1e-10
in the tests).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .counting import histories_total
from .trees import IncreasingTree, OrderedTree


@dataclass
class FragmentationTree:
    """Recursive interval splitting, held as an increasing tree: split k is
    node k of ``IncreasingTree(arity, slot)``, with proportions ``splits[k]``.
    The fragment in slot s (-1 for the root) is [lo[s + 1], hi[s + 1]), split
    by node ``node[s + 1]``, or -1 while a leaf.  Words appear only in JSON.
    """

    arity: int
    slot: list[int] = field(default_factory=list)
    splits: list[tuple[float, ...]] = field(default_factory=list)
    lo: list[float] = field(default_factory=lambda: [0.0])
    hi: list[float] = field(default_factory=lambda: [1.0])
    node: list[int] = field(default_factory=lambda: [-1])

    def leaves(self) -> list[int]:
        return [f - 1 for f, k in enumerate(self.node) if k < 0]

    def shape(self) -> OrderedTree:
        return IncreasingTree(self.arity, self.slot).shape()

    def split_leaf(self, s: int, proportions) -> None:
        # the checks keep sibling left ends non-decreasing for the bisect
        arity, ps = self.arity, tuple(proportions)
        if len(ps) != arity or min(ps) < 0:
            raise ValueError(f"proportions {ps} are not {arity} non-negative numbers")
        if abs(sum(ps) - 1.0) > 1e-9:
            raise ValueError(f"proportions {ps} do not sum to 1")
        if not 0 <= s + 1 < len(self.node) or self.node[s + 1] >= 0:
            raise ValueError(f"slot {s} holds no leaf")
        self.node[s + 1] = len(self.slot)
        self.node += [-1] * arity
        self.slot.append(s)
        self.splits.append(ps)
        a, b = self.lo[s + 1], self.hi[s + 1]
        ends = list(accumulate(ps[:-1], lambda lo, p: lo + p * (b - a), initial=a))
        self.lo += ends
        self.hi += ends[1:] + [b]

    def leaf_containing(self, x: float) -> int:
        """Slot of the leaf holding x: at each split, the last child with lo <= x."""
        if not 0.0 <= x < 1.0:
            raise ValueError(f"mark {x} is outside [0, 1)")
        arity, lo, node = self.arity, self.lo, self.node
        f = 0
        while (k := node[f]) >= 0:
            f = bisect_right(lo, x, arity * k + 1, arity * k + arity + 1) - 1
        return f - 1

    def to_json_dict(self) -> dict:
        """Fragments keyed by their words, in preorder: as the letters are
        one digit each, that is the keys' sorted order, so ``to_json`` needs
        no ``sort_keys``."""
        a, lo, hi, node = self.arity, self.lo, self.hi, self.node
        letters = [(str(c), c) for c in range(a, 0, -1)]  # pushed last first: 1 pops first
        intervals, splits = {}, {}
        stack = [("", 0)]  # (key, fragment index in ``lo``)
        while stack:
            key, f = stack.pop()
            intervals[key] = [lo[f], hi[f]]
            if (k := node[f]) >= 0:
                splits[key] = list(self.splits[k])
                stack += [(key + letter, a * k + c) for letter, c in letters]
        return {"arity": a, "intervals": intervals, "splits": splits}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def sample_split(arity: int, rng) -> tuple[float, ...]:
    """One Dirichlet split: three Gamma(1/2) variables normalized (sampled
    as halved squared normals) for arity 3, (U, 1-U) for arity 2."""
    if arity == 2:
        u = rng.random()
        return (u, 1.0 - u)
    if arity == 3:
        g = rng.standard_normal(3) ** 2 / 2.0
        s = g.sum()
        while s == 0.0:  # pragma: no cover - measure zero
            g = rng.standard_normal(3) ** 2 / 2.0
            s = g.sum()
        return tuple(float(x / s) for x in g)
    raise ValueError("arity must be 2 or 3")


def build_fragmentation_tree(arity: int, K: int, rng) -> FragmentationTree:
    """K-1 fragmentation steps: each step drops a uniform mark, splits the
    leaf fragment containing it with a fresh Dirichlet split."""
    if arity not in (2, 3):
        raise ValueError("arity must be 2 or 3")
    if K < 1:
        raise ValueError("K must be >= 1")
    ft = FragmentationTree(arity)
    for _ in range(K - 1):
        x = float(rng.random())
        ft.split_leaf(ft.leaf_containing(x), sample_split(arity, rng))
    return ft


def shape_pmf_momentdir(k1: int, k2: int, k3: int) -> float:
    """Probability that the leaf-growth ternary tree of K = k1+k2+k3+1
    internal nodes puts k_i internal nodes in the i-th root subtree:
    Dirichlet(1/2,1/2,1/2) moment form."""
    m = k1 + k2 + k3
    multi = math.comb(m, k1) * math.comb(m - k1, k2)
    # Gamma(3/2)/Gamma(1/2)^3 * prod Gamma(k_i+1/2) / Gamma(m+3/2)
    val = multi * math.gamma(1.5) / math.gamma(0.5) ** 3
    val *= math.gamma(k1 + 0.5) * math.gamma(k2 + 0.5) * math.gamma(k3 + 0.5)
    return val / math.gamma(m + 1.5)


def shape_pmf_q_exact(k1: int, k2: int, k3: int) -> Fraction:
    """Same probability through history counting: each assignment of
    insertion ranks to subtrees carries weight prod N_{k_i} / (N_{m+1}/1),
    with N the history-count product."""
    m = k1 + k2 + k3
    multi = math.comb(m, k1) * math.comb(m - k1, k2)
    num = histories_total(k1) * histories_total(k2) * histories_total(k3)
    return Fraction(multi * num, histories_total(m + 1))


def shape_pmf_q(k1: int, k2: int, k3: int) -> float:
    return float(shape_pmf_q_exact(k1, k2, k3))
