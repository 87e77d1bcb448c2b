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
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import histories_total
from .trees import IncreasingTree, OrderedTree, Word


@dataclass
class FragmentationTree:
    """Recursive interval splitting record.

    ``interval`` maps every node word to its half-open subinterval of
    [0,1); ``splits`` maps internal words to their proportion vectors.
    """

    arity: int
    interval: dict[Word, tuple[float, float]] = field(
        default_factory=lambda: {(): (0.0, 1.0)}
    )
    splits: dict[Word, tuple[float, ...]] = field(default_factory=dict)

    def leaves(self) -> list[Word]:
        return sorted(w for w in self.interval if w not in self.splits)

    def shape(self) -> OrderedTree:
        # a fragment is split only after its parent, so ``splits`` is in
        # insertion order
        return IncreasingTree.from_skeleton(self.arity, self.splits).shape()

    def split_leaf(self, w: Word, proportions) -> None:
        if w in self.splits:
            raise ValueError(f"{w} already split")
        a, b = self.interval[w]
        self.splits[w] = tuple(proportions)
        lo = a
        for i, p in enumerate(proportions, start=1):
            hi = b if i == self.arity else lo + p * (b - a)
            self.interval[w + (i,)] = (lo, hi)
            lo = hi

    def leaf_containing(self, x: float) -> Word:
        w: Word = ()
        while w in self.splits:
            for i in range(1, self.arity + 1):
                a, b = self.interval[w + (i,)]
                if a <= x < b or (i == self.arity and x >= a):
                    w = w + (i,)
                    break
        return w

    def to_json_dict(self) -> dict:
        # ``interval`` holds the root, then the children of each split in
        # ``splits`` order, so each key is its parent's key plus one letter
        # and ``key`` fills in the order of ``interval``; ``to_json`` sorts
        # the keys
        letters = [str(i) for i in range(1, self.arity + 1)]
        key = {(): ""}
        children = iter(self.interval)
        next(children)
        for w in self.splits:
            parent = key[w]
            for letter, child in zip(letters, children):
                key[child] = parent + letter
        return {
            "arity": self.arity,
            "intervals": dict(zip(key.values(), map(list, self.interval.values()))),
            "splits": {key[w]: list(s) for w, s in self.splits.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


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
