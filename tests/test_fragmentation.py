"""Interval fragmentation and its equivalence with the growth law."""

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
from stackmaps.trees import rng_from_seed, sample_increasing_tree


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


def test_interval_partition_invariant():
    rng = rng_from_seed(3)
    ft = build_fragmentation_tree(3, 30, rng)
    leaves = ft.leaves()
    ivals = sorted(ft.interval[w] for w in leaves)
    assert ivals[0][0] == pytest.approx(0.0)
    assert ivals[-1][1] == pytest.approx(1.0)
    for (a1, b1), (a2, b2) in zip(ivals, ivals[1:]):
        assert b1 == pytest.approx(a2)


def test_leaf_containing():
    rng = rng_from_seed(4)
    ft = build_fragmentation_tree(3, 10, rng)
    for x in (0.0, 0.3, 0.77, 0.999):
        w = ft.leaf_containing(x)
        a, b = ft.interval[w]
        assert a <= x < b or (x >= a and b == pytest.approx(1.0))


def test_split_leaf_rejects_double_split():
    ft = FragmentationTree(3)
    ft.split_leaf((), (0.2, 0.3, 0.5))
    with pytest.raises(ValueError):
        ft.split_leaf((), (0.2, 0.3, 0.5))


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
    import json

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
    assert d["intervals"] == {"".join(map(str, w)): list(iv) for w, iv in ft.interval.items()}
    assert d["splits"] == {"".join(map(str, w)): list(s) for w, s in ft.splits.items()}
