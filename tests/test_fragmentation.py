"""Interval fragmentation and its equivalence with the growth law."""

import json
from fractions import Fraction

import pytest

from stackmaps.fragmentation import (
    FragmentationTree,
    build_fragmentation_tree,
    sample_split,
    shape_pmf_momentdir,
    shape_pmf_q,
    shape_pmf_q_exact,
)
from stackmaps.stats import EmpiricalPMF
from stackmaps.trees import IncreasingTree, rng_from_seed, sample_increasing_tree


def test_sample_split_sums_to_one():
    rng = rng_from_seed(1)
    for arity in (2, 3):
        for _ in range(50):
            ps = sample_split(arity, rng)
            assert len(ps) == arity
            assert all(p > 0 for p in ps)
            assert sum(ps) == pytest.approx(1.0, abs=1e-12)


def test_binary_split_is_uniform_pair():
    rng = rng_from_seed(2)
    firsts = [sample_split(2, rng)[0] for _ in range(20000)]
    # binary splits are (U, 1-U) with U uniform
    assert sum(firsts) / len(firsts) == pytest.approx(0.5, abs=0.02)
    frac_low = sum(1 for p in firsts if p < 0.25) / len(firsts)
    assert frac_low == pytest.approx(0.25, abs=0.02)


class _WordFragmentation:
    """Reference: the word-keyed record that fragmentation trees were before
    they became slot lists, with its first-match root walk."""

    def __init__(self, arity):
        self.arity = arity
        self.interval = {(): (0.0, 1.0)}
        self.splits = {}

    def split_leaf(self, w, proportions):
        a, b = self.interval[w]
        self.splits[w] = tuple(proportions)
        lo = a
        for i, p in enumerate(proportions, start=1):
            hi = b if i == self.arity else lo + p * (b - a)
            self.interval[w + (i,)] = (lo, hi)
            lo = hi

    def leaf_containing(self, x):
        w = ()
        while w in self.splits:
            for i in range(1, self.arity + 1):
                a, b = self.interval[w + (i,)]
                if a <= x < b or (i == self.arity and x >= a):
                    w = w + (i,)
                    break
        return w

    def shape(self):
        return IncreasingTree.from_skeleton(self.arity, self.splits).shape()

    def to_json(self):
        def key(w):
            return "".join(map(str, w))
        return json.dumps({
            "arity": self.arity,
            "intervals": {key(w): list(iv) for w, iv in self.interval.items()},
            "splits": {key(w): list(p) for w, p in self.splits.items()},
        }, sort_keys=True)


def _reference_build(arity, K, rng):
    ref = _WordFragmentation(arity)
    for _ in range(K - 1):
        x = float(rng.random())
        ref.split_leaf(ref.leaf_containing(x), sample_split(arity, rng))
    return ref


def _word(ft, s):
    """The word of the fragment in slot s."""
    a = ft.arity
    return IncreasingTree(a, ft.slot).skeleton[s // a] + (s % a + 1,) if s >= 0 else ()


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("K, seed", [(1, 1), (2, 6), (100, 9), (2000, 1)])
def test_slot_lists_match_the_word_reference(arity, K, seed):
    ft = build_fragmentation_tree(arity, K, rng_from_seed(seed))
    ref = _reference_build(arity, K, rng_from_seed(seed))
    assert ft.to_json() == ref.to_json()
    assert ft.shape() == ref.shape()


@pytest.mark.parametrize("proportions", [
    (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
])
def test_leaf_containing_with_zero_width_fragments(proportions):
    # zero-width fragments share their left end with the next fragment; a
    # mark there lands in the one the reference's first match picks
    ft, ref = FragmentationTree(3), _WordFragmentation(3)
    for w, s in [((), -1), ((2,), 1), ((2, 1), 3)]:
        ft.split_leaf(s, proportions)
        ref.split_leaf(w, proportions)
    marks = {x for a, b in ref.interval.values() for x in (a, b) if x < 1.0}
    for x in sorted(marks | {0.25, 0.999}):
        assert _word(ft, ft.leaf_containing(x)) == ref.leaf_containing(x), x


def test_interval_partition_invariant():
    rng = rng_from_seed(3)
    ft = build_fragmentation_tree(3, 30, rng)
    ivals = sorted((ft.lo[s + 1], ft.hi[s + 1]) for s in ft.leaves())
    assert len(ivals) == 2 * 29 + 1
    assert ivals[0][0] == 0.0
    assert ivals[-1][1] == 1.0
    for (a1, b1), (a2, b2) in zip(ivals, ivals[1:]):
        assert a1 <= b1 == a2


def test_leaf_containing():
    rng = rng_from_seed(4)
    ft = build_fragmentation_tree(3, 10, rng)
    for x in (0.0, 0.3, 0.77, 0.999):
        s = ft.leaf_containing(x)
        assert s in ft.leaves()
        a, b = ft.lo[s + 1], ft.hi[s + 1]
        assert a <= x < b or (x >= a and b == pytest.approx(1.0))


@pytest.mark.parametrize("x", [-0.1, 1.0, float("nan")])
def test_leaf_containing_rejects_a_mark_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match="outside"):
        build_fragmentation_tree(3, 5, rng_from_seed(4)).leaf_containing(x)


def test_split_leaf_rejects_double_split():
    ft = FragmentationTree(3)
    ft.split_leaf(-1, (0.2, 0.3, 0.5))
    with pytest.raises(ValueError, match="slot -1 holds no leaf"):
        ft.split_leaf(-1, (0.2, 0.3, 0.5))
    ft.split_leaf(2, (0.2, 0.3, 0.5))
    for s in (2, 6, -2):  # split, not yet a slot, not a slot
        with pytest.raises(ValueError, match=f"slot {s} holds no leaf"):
            ft.split_leaf(s, (0.2, 0.3, 0.5))


@pytest.mark.parametrize("proportions, match", [
    ((0.5, 0.5), "are not 3 non-negative numbers"),
    ((0.5, 0.5, 0.0, 0.0), "are not 3 non-negative numbers"),
    ((0.6, 0.6, -0.2), "are not 3 non-negative numbers"),
    ((0.7, 0.7, 0.7), "do not sum to 1"),
    ((0.5, 0.5, 1e-8), "do not sum to 1"),
])
def test_split_leaf_rejects_bad_proportions(proportions, match):
    ft = FragmentationTree(3)
    with pytest.raises(ValueError, match=match):
        ft.split_leaf(-1, proportions)
    assert (ft.slot, ft.lo, ft.hi, ft.node) == ([], [0.0], [1.0], [-1])


@pytest.mark.parametrize("arity", [0, 1, 4])
def test_build_rejects_an_arity_other_than_2_or_3(arity):
    rng = rng_from_seed(1)
    with pytest.raises(ValueError, match="arity must be 2 or 3"):
        build_fragmentation_tree(arity, 1, rng)
    assert rng.random() == rng_from_seed(1).random()  # nothing was drawn


def test_shape_has_right_size():
    rng = rng_from_seed(5)
    ft = build_fragmentation_tree(3, 12, rng)
    assert len(ft.shape().internal_words()) == 11


def test_shape_pmf_equality_all_compositions():
    for m in range(0, 8):
        for k1 in range(m + 1):
            for k2 in range(m - k1 + 1):
                k3 = m - k1 - k2
                q = float(shape_pmf_q_exact(k1, k2, k3))
                d = shape_pmf_momentdir(k1, k2, k3)
                assert d == pytest.approx(q, rel=1e-10), (k1, k2, k3)


def test_shape_pmf_base_case():
    assert shape_pmf_q_exact(1, 0, 0) == Fraction(1, 3)
    assert shape_pmf_q(0, 0, 0) == 1.0


def test_shape_pmf_normalized():
    for m in range(7):
        tot = sum(
            shape_pmf_q_exact(k1, k2, m - k1 - k2)
            for k1 in range(m + 1)
            for k2 in range(m - k1 + 1)
        )
        assert tot == 1


def test_fragmentation_matches_growth_law_k3():
    # root-subtree occupancy (k1,k2,k3) with k1+k2+k3=2: fragmentation
    # shapes and leaf-growth increasing-tree shapes follow the same law
    reps = 4000
    frag = EmpiricalPMF()
    grow = EmpiricalPMF()

    def code(t):
        sizes = []
        internal = set(t.internal_words())
        for i in (1, 2, 3):
            sizes.append(sum(1 for w in internal if w[:1] == (i,)))
        return sizes[0] * 3 + sizes[1]  # k3 determined

    # match internal-node counts: build_fragmentation_tree(3, K) makes K-1
    # splits, so K = 4 gives 3 internal nodes, as does leaf growth with K = 3
    for r in range(reps):
        ft = build_fragmentation_tree(3, 4, rng_from_seed(100, r))
        frag.add(code(ft.shape()))
        it = sample_increasing_tree(3, 3, rng_from_seed(200, r))
        grow.add(code(it.shape()))

    exact = {}
    for k1 in range(3):
        for k2 in range(3 - k1):
            exact[k1 * 3 + k2] = float(shape_pmf_q(k1, k2, 2 - k1 - k2))
    p_frag = frag.chisquare_pvalue(lambda k: exact.get(k, 0.0))
    p_grow = grow.chisquare_pvalue(lambda k: exact.get(k, 0.0))
    assert p_frag > 0.01
    assert p_grow > 0.01


def test_json_roundtrip_fields():
    ft = build_fragmentation_tree(2, 5, rng_from_seed(6))
    d = json.loads(ft.to_json())
    assert d["arity"] == 2
    assert len(d["splits"]) == 4


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("K", [1, 2, 300])
def test_json_keys_are_the_words(arity, K):
    ft = build_fragmentation_tree(arity, K, rng_from_seed(6, K))
    d = ft.to_json_dict()
    assert d["arity"] == arity

    def key(s):
        return "".join(map(str, _word(ft, s)))

    slots = range(-1, arity * len(ft.slot))
    assert d["intervals"] == {key(s): [ft.lo[s + 1], ft.hi[s + 1]] for s in slots}
    assert d["splits"] == {key(s): list(p) for s, p in zip(ft.slot, ft.splits)}
