"""Local-topology distance, passage balls, and the spine sampler."""

import math
import sys
import time

import pytest

from stackmaps import localtopo
from stackmaps.localtopo import (
    gamma_ball,
    infinite_map_ball,
    local_distance,
    map_ball_code,
    sample_spine_tree,
)
from stackmaps.maps import (
    QUADRANGULATION,
    TRIANGULATION,
    StackMap,
    grow,
    map_from_tree,
    rotation_system,
)
from stackmaps.passage import quad_type, tri_root_distance, tri_type
from stackmaps.stats import EmpiricalPMF
from stackmaps.trees import OrderedTree, rng_from_seed, sample_uniform_tree
from stackmaps.verify import rotation_defect


def full_tree(arity: int, depth: int) -> OrderedTree:
    internal = [()]
    frontier = [()]
    for _ in range(depth - 1):
        frontier = [w + (i,) for w in frontier for i in range(1, arity + 1)]
        internal.extend(frontier)
    return OrderedTree.from_internal_words(arity, internal)


def test_local_distance_trees_basic():
    a = OrderedTree.single_leaf(3)
    b = OrderedTree.from_internal_words(3, [()])
    assert local_distance(a, a) == 0.0
    # both have the same radius-1 vertex set? a has only the root
    d = local_distance(a, b)
    assert d in (1.0, 0.5)


def test_local_distance_half_fixture():
    # trees agreeing on the radius-1 ball but not radius 2 are at distance 1/2
    a = OrderedTree.from_internal_words(3, [()])
    b = OrderedTree.from_internal_words(3, [(), (1,)])
    assert local_distance(a, b) == 0.5


def test_local_distance_symmetry_and_kind_check():
    a = OrderedTree.from_internal_words(3, [()])
    b = OrderedTree.from_internal_words(3, [(), (2,)])
    assert local_distance(a, b) == local_distance(b, a)
    m = map_from_tree(a, TRIANGULATION)
    with pytest.raises(TypeError):
        local_distance(a, m)


def test_local_distance_rejects_mixed_arities():
    # two single leaves of different arity used to compare equal at every
    # radius, so the search for a differing ball never ended
    with pytest.raises(TypeError, match="different arities"):
        local_distance(OrderedTree.single_leaf(3), OrderedTree.single_leaf(2))
    quad = map_from_tree(OrderedTree.single_leaf(2), QUADRANGULATION)
    with pytest.raises(TypeError, match="different families"):
        local_distance(map_from_tree(OrderedTree.single_leaf(3), TRIANGULATION), quad)


def test_local_distance_ultrametric_fixtures():
    ts = [
        OrderedTree.from_internal_words(3, s)
        for s in ([()], [(), (1,)], [(), (2,)], [(), (1,), (2,)], [(), (1,), (1, 1)])
    ]
    for a in ts:
        for b in ts:
            for c in ts:
                assert local_distance(a, c) <= max(local_distance(a, b), local_distance(b, c)) + 1e-12


def _reference_local_distance(a, b):
    """The definition: try radii 1, 2, ... until the balls differ."""
    if a == b:
        return 0.0
    if isinstance(a, OrderedTree):
        def ball(t, r):  # the offspring sequence cut at depth r
            return [c if len(w) < r else 0 for w, c in zip(t.words(), t.offspring) if len(w) <= r]
    else:
        ball = map_ball_code
    k = 0
    while ball(a, k + 1) == ball(b, k + 1):
        k += 1
    return 1.0 / (1.0 + k)


def _random_pairs(arity, family, rng):
    """Pairs of small trees and of their maps: one tree and a copy grown in a
    random face (close pairs) or an independent tree (far pairs)."""
    for _ in range(25):
        a = sample_uniform_tree(arity, int(rng.integers(0, 40)), rng)
        if rng.random() < 0.7:
            m = map_from_tree(a, family)
            faces = m.leaf_faces()
            b = grow(m, faces[int(rng.integers(len(faces)))]).tree
        else:
            b = sample_uniform_tree(arity, int(rng.integers(0, 40)), rng)
        yield a, b
        yield map_from_tree(a, family), map_from_tree(b, family)


@pytest.mark.parametrize("arity, family", [(3, TRIANGULATION), (2, QUADRANGULATION)], ids=["tri", "quad"])
def test_local_distance_matches_definition(arity, family):
    rng = rng_from_seed(61, arity)
    for a, b in _random_pairs(arity, family, rng):
        assert local_distance(a, b) == _reference_local_distance(a, b)
        assert local_distance(b, a) == local_distance(a, b)


def test_local_distance_builds_each_map_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return rotation_system(m)

    monkeypatch.setattr(localtopo, "rotation_system", counting)
    rng = rng_from_seed(62)
    for a, b in _random_pairs(3, TRIANGULATION, rng):
        if isinstance(a, StackMap):
            calls.clear()
            local_distance(a, b)
            assert len(calls) <= 2 and all(calls.count(m) <= 1 for m in calls)


def test_local_distance_deep_difference_is_fast(monkeypatch):
    # two uniform maps with n = 2*10^4 whose first difference is one vertex
    # inserted at distance 86 from the root; trying every radius with a
    # fresh BFS and rotation system took about 30 s
    t = sample_uniform_tree(3, 2 * 10**4, rng_from_seed(3))
    a = map_from_tree(t, TRIANGULATION)
    face = next(w for w in a.leaf_faces() if tri_root_distance(w) == 86)
    b = grow(a, face)
    codes = []

    def counting(*args):
        codes.append(args[-1])
        return ball_code(*args)

    ball_code = localtopo._ball_code
    monkeypatch.setattr(localtopo, "_ball_code", counting)
    start = time.perf_counter()
    assert local_distance(a, b) == 1.0 / 86
    assert time.perf_counter() - start < 10
    assert len(codes) <= 2 * (2 * math.ceil(math.log2(86)) + 1)


def test_map_ball_code_distinguishes_and_matches():
    t1 = OrderedTree.from_internal_words(3, [()])
    t2 = OrderedTree.from_internal_words(3, [(), (1,)])
    m1, m2 = (map_from_tree(t, TRIANGULATION) for t in (t1, t2))
    assert map_ball_code(m1, 1) == map_ball_code(m2, 1)
    assert map_ball_code(m1, 2) != map_ball_code(m2, 2)


def test_map_ball_code_nested_path():
    # 1^60: vertex 3 sits in the root face and each later vertex v in the
    # face (v-1, 1, 2), so every vertex is within distance 2 of the root.
    # Labels follow the BFS: 1, 3, 2 get 1, 2, 3 and vertices 62, ..., 4 get
    # 4, ..., 62 as they are met around vertex 1.
    m = map_from_tree(OrderedTree(3, [3] * 60 + [0] * 121), TRIANGULATION)
    want = (
        (1, 2, 3),
        (0, 3, *range(4, 63), 2),
        (0, 1, 62, 3),
        (0, 2, *range(62, 3, -1), 1),
        (1, 3, 5),
        *[(1, label - 1, 3, label + 1) for label in range(5, 62)],
        (1, 61, 3, 2),
    )
    assert map_ball_code(m, 2) == want
    assert map_ball_code(m, 1) == ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))


def test_gamma_ball_fixtures():
    t = full_tree(3, 2)
    assert gamma_ball(t, 0) == set()
    ball1 = gamma_ball(t, 1)
    assert ball1 == {(), (2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)}
    for w in ball1:
        assert tri_root_distance(w) <= 1


def test_gamma_ball_monotone_and_exact():
    rng = rng_from_seed(3)
    t = sample_uniform_tree(3, 60, rng)
    prev = set()
    for r in range(0, 6):
        ball = gamma_ball(t, r)
        assert prev <= ball
        brute = {w for w in t.words() if tri_root_distance(w) <= r}
        assert ball == brute
        prev = ball


def test_gamma_ball_quad():
    rng = rng_from_seed(4)
    t = sample_uniform_tree(2, 60, rng)
    from stackmaps.passage import quad_root_distance

    for r in range(0, 5):
        assert gamma_ball(t, r) == {w for w in t.words() if quad_root_distance(w) <= r}


def test_spine_letters_uniform():
    emp = EmpiricalPMF()
    for rep in range(400):
        _, spine = sample_spine_tree(3, 6, rng_from_seed(50, rep))
        for letter in spine[:5]:
            emp.add(letter - 1)
    p = emp.chisquare_pvalue(lambda k: 1 / 3 if k in (0, 1, 2) else 0.0)
    assert p > 0.01


def test_spine_length_mean():
    r = 8
    lengths = []
    for rep in range(400):
        _, spine = sample_spine_tree(3, r, rng_from_seed(60, rep))
        lengths.append(len(spine))
    mean = sum(lengths) / len(lengths)
    assert abs(mean - 11 * r / 2) / (11 * r / 2) < 0.15


@pytest.mark.parametrize("arity,fold", [(3, tri_type), (2, quad_type)], ids=["tri", "quad"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_spine_ends_at_first_face_beyond_ball(arity, fold, r):
    # the spine stops at the first prefix whose face has every corner at
    # distance >= r, as passage's fold computes the corner distances
    for rep in range(40):
        _, spine = sample_spine_tree(arity, r, rng_from_seed(65, rep))
        assert 1 + min(fold(spine)) > r
        assert all(1 + min(fold(spine[:k])) <= r for k in range(len(spine)))


class _DeepGraftRng:
    """Spine letters 1, 1, 2, 3, whose face (2, 2, 2) leaves the radius-2
    ball; ``random()`` makes the first 3000 graft nodes internal, then
    every node a leaf."""

    def __init__(self):
        self.letters = iter([1, 1, 2, 3])
        self.draws = 0

    def integers(self, low, high):
        return next(self.letters)

    def random(self):
        self.draws += 1
        return 0.0 if self.draws <= 3000 else 0.99


def test_graft_deeper_than_recursion_limit():
    # the graft at (2,) follows 1^k, whose faces all stay at root distance
    # 2, so it is a path of 3000 internal nodes
    t, spine = sample_spine_tree(3, 2, _DeepGraftRng())
    assert spine == (1, 1, 2, 3)
    assert (2,) + (1,) * 2999 in set(t.internal_words())


def test_deep_graft_ball_and_map_under_default_recursion_limit():
    t, _ = sample_spine_tree(3, 2, _DeepGraftRng())
    deepest = (2,) + (1,) * 2999
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        ball = gamma_ball(t, 2)
        m = infinite_map_ball(t, 2)
    finally:
        sys.setrecursionlimit(limit)
    # the path's faces stay at root distance 2, so the whole path is in the
    # ball and, being internal, in the map
    assert {(2,) + (1,) * k for k in range(3000)} <= ball
    assert all(tri_root_distance(w) <= 2 for w in ball if len(w) < 6)
    assert m.word_of(m.vertex_of(deepest)) == deepest


@pytest.mark.parametrize("arity", [3, 2], ids=["tri", "quad"])
def test_infinite_map_ball_rotation_planar(arity):
    for seed in range(3):
        t, _ = sample_spine_tree(arity, 20, rng_from_seed(85, seed))
        for r in (10, 20):
            m = infinite_map_ball(t, r)
            assert rotation_defect(m, rotation_system(m)) == ""


def test_spine_tree_ball_finite_and_deterministic():
    for rep in range(50):
        t1, s1 = sample_spine_tree(3, 4, rng_from_seed(70, rep))
        t2, s2 = sample_spine_tree(3, 4, rng_from_seed(70, rep))
        assert (t1, s1) == (t2, s2)
        ball = gamma_ball(t1, 4)
        assert len(ball) < 10**5


def test_infinite_map_ball_nested():
    t, _ = sample_spine_tree(3, 5, rng_from_seed(80))
    prev = None
    for r in range(1, 5):
        m = infinite_map_ball(t, r)

        def edge_keys(mm):
            def key(v):
                if v < mm.n_boundary:
                    return ("b", v)
                return ("w", mm.word_of(v))

            return {
                frozenset((key(u), key(v)))
                for u in range(mm.n_vertices)
                for v in mm.adjacency[u]
            }

        if prev is not None:
            # nesting: every edge of the smaller ball persists (vertex ids
            # may shift, vertex birth words do not)
            assert edge_keys(prev) <= edge_keys(m)
        prev = m


def test_infinite_map_ball_exhausts_finite_tree():
    t = OrderedTree.from_internal_words(3, [(), (2,)])
    m_full = map_from_tree(t, TRIANGULATION)
    m_ball = infinite_map_ball(t, 50)
    assert m_ball == m_full


def test_spine_tree_quad_family():
    t, _ = sample_spine_tree(2, 4, rng_from_seed(90))
    m = infinite_map_ball(t, 4)
    assert m.family == QUADRANGULATION
    assert m.n_vertices > 4


@pytest.mark.parametrize("arity", [1, 4])
def test_entry_points_reject_an_arity_with_no_face_fold(arity):
    # the spine sampler raises before any draw
    rng, ref_rng = rng_from_seed(91), rng_from_seed(91)
    t = OrderedTree(arity, [arity] + [0] * arity)
    match = f"arity must be 2 or 3, got {arity}"
    for call in (lambda: sample_spine_tree(arity, 2, rng),
                 lambda: gamma_ball(t, 2), lambda: infinite_map_ball(t, 2)):
        with pytest.raises(ValueError, match=match):
            call()
    assert rng.random() == ref_rng.random()
