"""Passage statistics on node addresses and their distance identities."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackmaps.maps import (QUADRANGULATION, TRIANGULATION, _ARITY, _N_BOUNDARY, _ROOT_FACE, _SPLIT, _bfs,
                            csr_from_links, distance_matrix, theta)
from stackmaps.passage import (
    _type_table,
    gamma,
    gamma_pair,
    gamma_prime_literal,
    gamma_prime_pair,
    quad_root_distance,
    quad_type,
    root_distances,
    tau_decomposition,
    tri_root_distance,
    tri_type,
)
from stackmaps.trees import (_slot_links, preorder_links, rng_from_seed, sample_increasing_tree,
                             sample_offspring_sequence)


def w(s: str) -> tuple:
    return tuple(int(c) for c in s)


def test_gamma_fixture():
    assert tau_decomposition(w("22123122131")) == [0, 3, 6, 10]
    assert gamma(w("22123122131")) == 4


def test_gamma_small():
    assert gamma(()) == 1
    assert gamma(w("1")) == 2
    assert gamma(w("2")) == 1
    assert gamma(w("3")) == 1
    assert gamma(w("21")) == 2
    assert gamma(w("123")) == 2


def test_tri_type_seed_and_step():
    assert tri_type(()) == (0, 1, 1)
    assert tri_type(w("1")) == (1, 1, 1)
    assert tri_type(w("2")) == (0, 1, 1)
    assert tri_root_distance(()) == 1
    assert tri_root_distance(w("1")) == 2


def test_tri_root_distance_equals_gamma_exhaustive():
    words = [()]
    for _ in range(7):
        words = [u + (i,) for u in words for i in (1, 2, 3)]
        for u in words:
            assert tri_root_distance(u) == gamma(u)


def test_quad_type_seed_and_distance():
    assert quad_type(()) == (1, 2, 1, 0)
    assert quad_root_distance(()) == 1
    assert quad_root_distance(w("1")) == 2
    assert quad_root_distance(w("2")) == 2


def test_gamma_prime_literal_fixtures():
    assert gamma_prime_literal(()) == 1
    assert gamma_prime_literal(w("1")) == 2
    assert gamma_prime_literal(w("122121112")) == 2


def test_quad_literal_discrepancy_fixture():
    # the word 11 shows the literal block statistic undercounts the true
    # graph distance by one
    assert quad_root_distance(w("11")) == 3
    assert gamma_prime_literal(w("11")) == 2


def test_gamma_pair_rejects_prefixes():
    with pytest.raises(ValueError):
        gamma_pair(w("12"), w("123"))
    with pytest.raises(ValueError):
        gamma_pair((), w("2"))


def test_gamma_pair_symmetric():
    u, v = w("1231"), w("221")
    assert gamma_pair(u, v) == gamma_pair(v, u)
    assert gamma_prime_pair(w("121"), w("21")) == gamma_prime_pair(w("21"), w("121"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=12))
def test_gamma_bounds_and_monotone_step(letters):
    u = tuple(letters)
    g = gamma(u)
    assert 1 <= g <= len(u) + 1
    for i in (1, 2, 3):
        assert abs(gamma(u + (i,)) - g) <= 1  # one insertion moves distance by <= 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=12))
def test_tri_type_entries_are_corner_distances(letters):
    # min corner distance is within 1 of the center distance
    u = tuple(letters)
    tp = tri_type(u)
    assert tri_root_distance(u) == 1 + min(tp)
    assert max(tp) - min(tp) <= 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 2), max_size=14))
def test_quad_parity(letters):
    # quadrangulations are bipartite: distance parity flips with each level
    u = tuple(letters)
    d = quad_root_distance(u)
    assert 1 <= d <= len(u) + 2
    assert (d - 1 - len(u)) % 2 == 0


@pytest.mark.parametrize("f, word, alphabet", [
    (gamma, (4,), "{1,2,3}"),
    (tau_decomposition, (0, 5), "{1,2,3}"),
    (tri_type, (0, 5), "{1,2,3}"),
    (gamma_prime_literal, (3, 3, 3), "{1,2}"),
    (quad_type, (3, 3, 3), "{1,2}"),
    (tri_root_distance, (4, 1), "{1,2,3}"),
    (tri_root_distance, (1.5,), "{1,2,3}"),
    (tri_root_distance, ("1",), "{1,2,3}"),
    (quad_root_distance, (3, 1), "{1,2}"),
    (quad_root_distance, (1.5,), "{1,2}"),
    (quad_root_distance, ("1",), "{1,2}"),
], ids=["gamma", "tau", "tri_type", "gamma_prime_literal", "quad_type",
        "tri_root_distance", "tri_root_distance_float", "tri_root_distance_str",
        "quad_root_distance", "quad_root_distance_float", "quad_root_distance_str"])
def test_passage_counts_reject_letters_outside_their_alphabet(f, word, alphabet):
    # gamma((4,)) was 1, tau_decomposition((0, 5)) [0] and
    # gamma_prime_literal((3, 3, 3)) 2; all now fail as the type folds do
    with pytest.raises(ValueError, match=f"letter {word[0]} not in {re.escape(alphabet)}"):
        f(word)


def test_root_distances_read_letters_equal_to_ints():
    # the tables look letters up by value, as the folds compare them
    for dist in (tri_root_distance, quad_root_distance):
        assert dist((1.0, True, np.int64(2), 1)) == dist((1, 1, 2, 1.0)) == dist((1, 1, 2, 1))


def _rule_types(family, max_len):
    """(word, corner distances to the root vertex of the face it reaches),
    for every word up to max_len, by folding the subdivision rule: the new
    vertex is at 1 + the least distance of the corners it is joined to."""
    split, attach, _ = _SPLIT[family]
    dist = distance_matrix(theta(family), sources=[0])[0]
    level = [((), tuple(int(dist[v]) for v in _ROOT_FACE[family]))]
    for _ in range(max_len):
        yield from level
        level = [(word + (letter,), child)
                 for word, face in level
                 for letter, child in enumerate(split(face, 1 + min(face[attach])), 1)]
    yield from level


def _letter_fold(family, word):
    """Corner distances of the face the word reaches, applying the rule
    letter by letter from the root face's distances in theta."""
    split, attach, _ = _SPLIT[family]
    dist = distance_matrix(theta(family), sources=[0])[0]
    face = tuple(int(dist[v]) for v in _ROOT_FACE[family])
    for letter in word:
        face = split(face, 1 + min(face[attach]))[letter - 1]
    return face


@pytest.mark.parametrize("family, fold, root_distance, max_len, states, steps", [
    (TRIANGULATION, tri_type, tri_root_distance, 8, 7, {0, 1}),
    (QUADRANGULATION, quad_type, quad_root_distance, 12, 3, {-1, 1}),
], ids=["tri", "quad"])
def test_type_folds_are_the_subdivision_rule(family, fold, root_distance, max_len, states, steps):
    # the folds and the root distances, which walk the face-type tables,
    # against maps._SPLIT on every word up to max_len, the empty word
    # included
    joined = _SPLIT[family][1]
    n = 0
    for word, types in _rule_types(family, max_len):
        assert fold(word) == types, word
        assert root_distance(word) == 1 + min(types[joined]), word
        n += 1
    assert n == sum(_ARITY[family] ** k for k in range(max_len + 1))
    # long words reach distances that short ones cannot
    k = _ARITY[family]
    rng = np.random.default_rng(23)
    for word in map(tuple, rng.integers(1, k + 1, size=(100, 10**4)).tolist()):
        types = _letter_fold(family, word)
        assert fold(word) == types
        assert root_distance(word) == 1 + min(types[joined])
    # the states reachable from the empty word's: k transitions, then the
    # reduced type (least joined corner 0)
    reached = [_type_table(family)[0]]
    for row in reached:
        assert len(row) == k + 1 and min(row[k][joined]) == 0
        for child, _ in row[:k]:
            if all(child is not r for r in reached):
                reached.append(child)
    assert len(reached) == states
    assert {step for row in reached for _, step in row[:k]} == steps


@pytest.mark.parametrize("f, alphabet", [
    (tri_type, "{1,2,3}"), (tri_root_distance, "{1,2,3}"),
    (quad_type, "{1,2}"), (quad_root_distance, "{1,2}"),
], ids=["tri_type", "tri_root_distance", "quad_type", "quad_root_distance"])
@pytest.mark.parametrize("bad", [0, 4, 1.5, "1", None, [1]],
                         ids=["0", "4", "float", "str", "None", "unhashable"])
def test_type_walks_name_the_bad_letter(f, alphabet, bad):
    # a letter outside the alphabet, an unhashable one included, is a
    # ValueError naming it, wherever it stands in the word
    with pytest.raises(ValueError, match=f"^letter {re.escape(str(bad))} not in {re.escape(alphabet)}$"):
        f((1, 2, bad, 1))


def _bfs_from_root(parent, letter, family):
    """BFS distances from vertex 0 to the internal vertices of the map of
    preorder links."""
    return _bfs(csr_from_links(parent, letter, family), [0])[0, _N_BOUNDARY[family]:]


@pytest.mark.parametrize("n", [0, 1, 2, 10**3, 10**5])
@pytest.mark.parametrize("law", ["uniform", "growth"])
@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_root_distances_match_bfs(family, arity, law, n):
    rng = rng_from_seed(29, n)
    if law == "uniform":
        links = preorder_links(arity, sample_offspring_sequence(arity, n, rng))
        assert np.array_equal(root_distances(*links, family), _bfs_from_root(*links, family))
        return
    # a growth tree, on its preorder links and on its links in insertion
    # order, where node k is the preorder node of rank ``rank[k]``
    tree = sample_increasing_tree(arity, n, rng)
    want = _bfs_from_root(*tree.links(), family)
    rank = np.argsort(np.argsort(tree._preorder()))
    assert np.array_equal(root_distances(*tree.links(), family), want)
    assert np.array_equal(root_distances(*_slot_links(arity, tree.slot), family), want[rank])


@pytest.mark.parametrize("family", [TRIANGULATION, QUADRANGULATION])
def test_root_distances_deep_path_default_recursion_limit(family):
    # the nested path 1^2000: 2000 levels, one node each
    parent, letter = np.arange(-1, 1999), np.minimum(np.arange(2000), 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = root_distances(parent, letter, family)
    finally:
        sys.setrecursionlimit(limit)
    assert np.array_equal(got, _bfs_from_root(parent, letter, family))


@pytest.mark.parametrize("parent, letter, family, match", [
    ([0], [0], TRIANGULATION, "preorder"),  # the root has parent -1
    ([-1, 1], [0, 1], TRIANGULATION, "preorder"),  # a parent not before its child
    ([-1, 0], [0, 3], QUADRANGULATION, "preorder"),  # a letter outside 1..2
    ([-1, 0], [0], TRIANGULATION, "preorder"),  # arrays of different lengths
    ([-1, 0.5], [0, 1], TRIANGULATION, "not an integer"),
    ([-1, 0], [0, 1.9], TRIANGULATION, "not an integer"),
    ([-1], [0], "x", "^unknown family 'x'$"),
])
def test_root_distances_reject_bad_links(parent, letter, family, match):
    with pytest.raises(ValueError, match=match):
        root_distances(parent, letter, family)

