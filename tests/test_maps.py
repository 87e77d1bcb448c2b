"""Stack-map construction, bijection with trees, distances and degrees."""

import ast
import math
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from stackmaps import maps
from stackmaps.maps import (
    QUADRANGULATION,
    TRIANGULATION,
    NotStackMapError,
    StackMap,
    adjacency_from_offspring,
    bfs_distance,
    bfs_distances_from,
    canonical_drawing,
    csgraph_from_adjacency,
    csr_from_links,
    csr_from_offspring,
    degree_via_tree,
    distance_matrix,
    grow,
    map_from_history,
    map_from_tree,
    pair_distances,
    rotation_system,
    theta,
    to_svg,
    tree_from_map,
)
from stackmaps.passage import gamma_prime_literal, quad_root_distance, root_distances, tri_root_distance
from stackmaps.stats import GAMMA_RATE_QUAD_DERIVED, GAMMA_RATE_TRI, degree_from_offspring
from stackmaps.trees import (
    IncreasingTree,
    OrderedTree,
    enumerate_trees,
    preorder_links,
    rng_from_seed,
    sample_increasing_tree,
    sample_offspring_sequence,
    sample_uniform_tree,
)
from stackmaps.verify import rotation_defect


def test_theta_triangle():
    m = theta(TRIANGULATION)
    assert m.n_vertices == 3
    assert m.n_edges == 3
    assert m.leaf_faces() == [()]


def test_theta_square():
    m = theta(QUADRANGULATION)
    assert m.n_vertices == 4
    assert m.n_edges == 4


def test_grow_triangulation_euler():
    m = theta(TRIANGULATION)
    rng = rng_from_seed(1)
    for _ in range(30):
        faces = m.leaf_faces()
        m = grow(m, faces[int(rng.integers(len(faces)))])
        # Euler: V - E + F = 2 with F = finite faces + outer face
        n_faces = 1 + 2 * m.n_insertions  # finite triangles
        assert m.n_vertices - m.n_edges + (n_faces + 1) == 2


def test_grow_quadrangulation_euler():
    m = theta(QUADRANGULATION)
    rng = rng_from_seed(2)
    for _ in range(30):
        faces = m.leaf_faces()
        m = grow(m, faces[int(rng.integers(len(faces)))])
        n_faces = 1 + m.n_insertions
        assert m.n_vertices - m.n_edges + (n_faces + 1) == 2


def test_map_from_history_matches_tree():
    # inserting in lexicographic face order replays map_from_tree
    t = OrderedTree(3, [3, 3, 0, 0, 0, 0, 0])
    m1 = map_from_tree(t, TRIANGULATION)
    m2 = map_from_history([(), (1,)], TRIANGULATION)
    assert m1 == m2


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_map_from_history_numbers_vertices_in_preorder(family, arity):
    # a growth-law skeleton is a random insertion order; the map, vertex
    # ids included, depends only on the tree
    for r in range(20):
        it = sample_increasing_tree(arity, 30, rng_from_seed(17, r))
        m = map_from_history(it.skeleton, family)
        assert m.adjacency == map_from_tree(it.shape(), family).adjacency


def test_grow_and_history_reject_bad_faces():
    m = grow(theta(TRIANGULATION), ())
    for face in [(0,), (-1,), (4,), (1, 1), ()]:
        with pytest.raises(ValueError):
            grow(m, face)
    for history in [[(1,)], [(), ()], [(), (0,)], [(), (1, 1)]]:
        with pytest.raises(ValueError):
            map_from_history(history, TRIANGULATION)


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_word_of_and_vertex_of_are_inverse(family, arity):
    path = OrderedTree.from_internal_words(arity, [(1,) * k for k in range(2000)])
    for t in (sample_uniform_tree(arity, 300, rng_from_seed(18)), path):
        m = map_from_tree(t, family)
        for v in range(m.n_boundary, m.n_vertices):
            assert m.vertex_of(m.word_of(v)) == v
        assert [m.word_of(m.vertex_of(w)) for w in t.internal_words()] == t.internal_words()


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_vertex_of_matches_word_rank(family, arity):
    # reference: a vertex id is n_boundary plus the word's rank among the
    # internal words in preorder
    rng = rng_from_seed(19, arity)
    for n in (0, 1, 2, 9, 80, 700):
        m = map_from_tree(sample_uniform_tree(arity, n, rng), family)
        internal = m.tree.internal_words()
        assert [m.vertex_of(w) for w in internal] == list(range(m.n_boundary, m.n_vertices))
        assert [m.word_of(v) for v in range(m.n_boundary, m.n_vertices)] == internal


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_vertex_of_key_errors(family, arity):
    m = map_from_tree(OrderedTree.from_internal_words(arity, [(), (1,)]), family)
    leaf = (2,)
    for w in [leaf, leaf + (1,), (1, 1), (1, 1, 1), (0,), (-1,), (arity + 1,), (1, arity + 1),
              (1.5,), ("1",), (1, 1.5)]:
        with pytest.raises(KeyError):
            m.vertex_of(w)
    with pytest.raises(KeyError):
        theta(family).vertex_of(())


def test_word_of_reads_the_child_table(monkeypatch):
    # word_of no longer lists every internal node to find one
    m = map_from_tree(sample_uniform_tree(3, 200, rng_from_seed(20)), TRIANGULATION)
    words = m.tree.internal_words()

    def listing(self):
        raise AssertionError("internal_indices called")

    monkeypatch.setattr(OrderedTree, "internal_indices", listing)
    assert [m.word_of(v) for v in range(m.n_boundary, m.n_vertices)] == words
    for vid in (-1, m.n_boundary - 1, m.n_vertices):
        with pytest.raises(ValueError, match=f"vertex {vid} is not an internal vertex "
                                             f"{m.n_boundary}..{m.n_vertices - 1}"):
            m.word_of(vid)


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_map_round_trip_builds_no_navigation_arrays(family, arity):
    t = sample_uniform_tree(arity, 300, rng_from_seed(21))
    m = map_from_tree(t, family)
    recovered = tree_from_map(m)
    m.to_json()
    assert recovered == t and hash(recovered) == hash(t) and m == map_from_tree(recovered, family)
    assert t._nav is None and recovered._nav is None


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_stackmap_keeps_the_csr_it_builds(family, arity):
    t = sample_uniform_tree(arity, 300, rng_from_seed(22))
    m = map_from_tree(t, family)
    assert m.graph is m.graph
    indptr, indices = m.graph
    ref = csr_from_offspring(t.offspring, family)
    assert np.array_equal(indptr, ref[0]) and np.array_equal(indices, ref[1])
    for a in m.graph:
        assert a.dtype == np.int64 and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    assert (m.n_vertices, m.n_edges) == (len(ref[0]) - 1, len(ref[1]) // 2)
    assert [m.degree(v) for v in range(m.n_vertices)] == np.diff(ref[0]).tolist()


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_map_readers_build_no_adjacency_lists(family, arity, monkeypatch):
    def rows(*_):
        raise AssertionError("adjacency lists built")

    monkeypatch.setattr(maps, "_rows", rows)
    t = sample_uniform_tree(arity, 300, rng_from_seed(23))
    m = map_from_tree(t, family)
    m.to_json()
    assert tree_from_map(m) == t
    distance_matrix(m, [0, 5])
    assert [m.vertex_of(w) for w in t.internal_words()] == list(range(m.n_boundary, m.n_vertices))


def test_adjacency_lists_are_kept_and_edits_show():
    m = map_from_tree(OrderedTree(3, [3, 0, 0, 0]), TRIANGULATION)
    stored = m.graph
    adj = m.adjacency
    assert m.adjacency is adj and adj == [[1, 2, 3], [0, 2, 3], [1, 0, 3], [0, 1, 2]]
    assert m.graph is not stored and np.array_equal(m.graph[1], stored[1])
    adj.append([])
    assert (m.n_vertices, m.degree(4)) == (5, 0)


def test_roundtrip_exhaustive_small():
    for family, arity in ((TRIANGULATION, 3), (QUADRANGULATION, 2)):
        for n in range(5):
            for t in enumerate_trees(arity, n):
                assert tree_from_map(map_from_tree(t, family)) == t


def test_roundtrip_sampled_large():
    rng = rng_from_seed(4)
    for family, arity in ((TRIANGULATION, 3), (QUADRANGULATION, 2)):
        t = sample_uniform_tree(arity, 500, rng)
        assert tree_from_map(map_from_tree(t, family)) == t


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_roundtrip_deep_path_default_recursion_limit(family, arity):
    # the nested path 1^2000 is twice as deep as the default recursion limit
    t = OrderedTree.from_internal_words(arity, [(1,) * k for k in range(2000)])
    m = map_from_tree(t, family)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert tree_from_map(m) == t
    finally:
        sys.setrecursionlimit(limit)


def test_map_from_tree_injective_small():
    for family, arity in ((TRIANGULATION, 3), (QUADRANGULATION, 2)):
        for n in range(5):
            maps = [map_from_tree(t, family) for t in enumerate_trees(arity, n)]
            assert len(set(maps)) == len(maps)


def _set_edges(m: StackMap, n: int, edges) -> None:
    """Replace m's graph by n vertices and the given edges, in the kept
    adjacency lists."""
    m.adjacency[:] = [[] for _ in range(n)]
    for u, v in edges:
        _add_edge(m, u, v)


def _non_stack_triangulation() -> StackMap:
    """A triangulation of the triangle that no insertion history produces:
    an inner triangle x,y,z with each inner vertex joined to two boundary
    corners (the octahedron drawn in a triangle)."""
    A, B, C, x, y, z = range(6)
    m = StackMap(TRIANGULATION)
    _set_edges(m, 6, [
        (A, B), (B, C), (C, A),
        (x, y), (y, z), (z, x),
        (x, A), (x, B), (y, B), (y, C), (z, C), (z, A),
    ])
    return m


def test_graph_is_read_through_stackmap_graph():
    # in the package, only StackMap and the two list-view functions touch the
    # adjacency lists; every other reader takes the CSR pair StackMap.graph
    allowed = {"StackMap", "adjacency_from_offspring", "csgraph_from_adjacency"}
    touches = []
    for path in sorted(Path(maps.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.name == "maps.py" and getattr(top, "name", None) in allowed:
                continue
            touches += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                        if isinstance(node, ast.Attribute) and node.attr == "adjacency"]
    assert touches == []


def test_tree_from_map_rejects_non_stack():
    with pytest.raises(NotStackMapError):
        tree_from_map(_non_stack_triangulation())


def _add_edge(m: StackMap, u: int, v: int) -> None:
    m.adjacency[u].append(v)
    m.adjacency[v].append(u)


def _add_pendant_vertex(m: StackMap) -> None:
    x = m.n_vertices
    m.adjacency.append([])
    _add_edge(m, x, 0)
    _add_edge(m, x, 1)


def _two_in_one_face(m: StackMap) -> None:
    """3 in the root face, then 4 and 5 each joined to the corners 0, 1, 3
    of the face (0, 1, 3): the peel succeeds, the replay finds that face
    taken by 4 when it comes to 5."""
    ring = [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)]
    _set_edges(m, 6, ring + [(x, c) for x in (4, 5) for c in (0, 1, 3)])


def _two_in_root_face(m: StackMap) -> None:
    """3 and 4 each joined to the three corners of the triangle: only one
    of them can take the root face."""
    _set_edges(m, 5, [(0, 1), (1, 2), (2, 0)] + [(x, c) for x in (3, 4) for c in (0, 1, 2)])


def _wrong_diagonal(m: StackMap) -> None:
    """The bare square with vertex 4 joined to 1 and 3, the ends of the
    diagonal that the root face does not subdivide on."""
    ring = [(0, 1), (1, 2), (2, 3), (3, 0)]
    _set_edges(m, 5, ring + [(4, 1), (4, 3)])


def _boundary_end_only(m: StackMap) -> None:
    """The one-insertion map with the edge 0-3 dropped from the row of 3."""
    _set_edges(m, 4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
    m.adjacency[3].remove(0)


@pytest.mark.parametrize(
    "family, spoil, match",
    [
        (QUADRANGULATION, lambda m: _add_edge(m, 0, 2), "boundary vertex 0"),
        (TRIANGULATION, lambda m: _add_edge(m, 3, 0), "repeated edge"),
        (TRIANGULATION, lambda m: _add_edge(m, 0, 0), "loop"),
        (TRIANGULATION, _add_pendant_vertex, "cannot be peeled"),
        (TRIANGULATION, lambda m: m.adjacency[0].append(4), "listed at 0 only"),
        (TRIANGULATION, lambda m: m.adjacency[2].append(9), "^vertex 2 lists 9, not a vertex id"),
        (TRIANGULATION, _two_in_one_face,
         re.escape("the neighbours (0, 1, 3) of vertex 5 bound no face")),
        (TRIANGULATION, _boundary_end_only, "^edge 0-3 is listed at 0 only$"),
        (QUADRANGULATION, _wrong_diagonal,
         re.escape("the neighbours (1, 3) of vertex 4 bound no face")),
        (TRIANGULATION, _two_in_root_face,
         re.escape("the neighbours (0, 1, 2) of vertex 4 bound no face")),
        (TRIANGULATION, lambda m: _set_edges(m, 2, [(0, 1)]),
         "^the graph has 2 vertices, fewer than the 3 boundary vertices of a triangulation$"),
        (TRIANGULATION, lambda m: _set_edges(m, 0, []),
         "^the graph has 0 vertices, fewer than the 3 boundary vertices of a triangulation$"),
        (QUADRANGULATION, lambda m: _set_edges(m, 3, [(0, 1), (1, 2), (2, 0)]),
         "^the graph has 3 vertices, fewer than the 4 boundary vertices of a quadrangulation$"),
    ],
    ids=["boundary-chord", "doubled-edge", "loop", "pendant-vertex", "one-sided-edge",
         "id-out-of-range", "replay-no-face", "one-sided-at-boundary-end", "wrong-diagonal",
         "two-in-root-face", "tri-two-vertices", "tri-no-vertex", "quad-three-vertices"],
)
def test_tree_from_map_rejects_spoiled_map(family, spoil, match):
    arity = 3 if family == TRIANGULATION else 2
    m = map_from_tree(OrderedTree(arity, [arity, arity] + [0] * (2 * arity - 1)), family)
    spoil(m)
    with pytest.raises(NotStackMapError, match=match):
        tree_from_map(m)


def test_root_distance_identity_exhaustive():
    for n in range(1, 5):
        for t in enumerate_trees(3, n):
            m = map_from_tree(t, TRIANGULATION)
            d = distance_matrix(m, sources=[0])[0]
            for u in t.internal_words():
                assert d[m.vertex_of(u)] == tri_root_distance(u)


def test_quad_root_distance_identity_exhaustive():
    for n in range(1, 6):
        for t in enumerate_trees(2, n):
            m = map_from_tree(t, QUADRANGULATION)
            d = distance_matrix(m, sources=[0])[0]
            for u in t.internal_words():
                assert d[m.vertex_of(u)] == quad_root_distance(u)


def test_quad_literal_distance_discrepancy():
    t = OrderedTree.from_internal_words(2, {(), (1,)})
    m = map_from_tree(t, QUADRANGULATION)
    u = (1, 1)
    # (1,1) is a leaf word; its vertex is the one born at internal (1,)
    v = m.vertex_of((1,))
    assert bfs_distance(m, 0, v) == quad_root_distance((1,))
    assert quad_root_distance(u) == 3
    assert gamma_prime_literal(u) == 2


def test_degree_via_tree_matches_graph_tri():
    rng = rng_from_seed(8)
    for _ in range(5):
        t = sample_uniform_tree(3, 40, rng)
        m = map_from_tree(t, TRIANGULATION)
        for u in t.internal_words():
            assert degree_via_tree(t, u, TRIANGULATION) == m.degree(m.vertex_of(u))


def test_degree_via_tree_matches_graph_quad():
    rng = rng_from_seed(9)
    for _ in range(5):
        t = sample_uniform_tree(2, 40, rng)
        m = map_from_tree(t, QUADRANGULATION)
        for u in t.internal_words():
            assert degree_via_tree(t, u, QUADRANGULATION) == m.degree(m.vertex_of(u))


# language {12,21}* restricted to length >= 2, as a (next, accept) table like
# the library's degree tables.  States: 1 and 2 after an odd length ending in
# that letter, 3 after an even length >= 2.
_QUAD_LITERAL = ((1, 2, None, 3, 3, None, 1, 2), (False, False, False, True))


def degree_via_tree_literal_quad(t: OrderedTree, u) -> int:
    """Variant counting descendants u·w with |w| >= 2 and w in {12,21}*;
    it disagrees with the map degree, as the tests below show."""
    i = t.index_of(tuple(u))
    return 2 + maps._count_accepted(t.offspring, i, 2, _QUAD_LITERAL)


@pytest.mark.parametrize("family, offspring, i, match", [
    (TRIANGULATION, [3, 0, 0, 0], 1, "node 1 is a leaf"),
    (TRIANGULATION, [3, 0, 0, 0], 3, "node 3 is a leaf"),
    (TRIANGULATION, [3, 0, 0, 0], -1, "node -1 is not a node id 0..3"),
    (TRIANGULATION, [3, 0, 0, 0], 4, "node 4 is not a node id 0..3"),
    (QUADRANGULATION, np.array([2, 0, 2, 0, 0]), 1, "node 1 is a leaf"),
    (QUADRANGULATION, np.array([2, 0, 2, 0, 0]), -5, "node -5 is not a node id 0..4"),
])
def test_degree_rejects_leaves_and_ids_outside_the_tree(family, offspring, i, match):
    # a leaf has no vertex; it and index -1 used to give the root's degree
    with pytest.raises(ValueError, match=match):
        degree_from_offspring(offspring, i, family)
    assert degree_from_offspring(offspring, 0, family) == 3  # the root's vertex still has one


def test_degree_via_tree_rejects_a_leaf():
    t = OrderedTree(3, [3, 0, 0, 0])
    with pytest.raises(ValueError, match="node 2 is a leaf"):
        degree_via_tree(t, (2,), TRIANGULATION)


@pytest.mark.parametrize("arity, family", [(3, QUADRANGULATION), (2, TRIANGULATION)],
                         ids=["ternary-as-quad", "binary-as-tri"])
def test_degree_rejects_a_tree_of_the_other_arity(arity, family):
    # read with the other family's automaton, the ternary tree gave 3, 3, 2, 2
    # and the binary one 6, 4, 3, 3
    words = [(), (1,), (1, 2), (2,)]
    t = OrderedTree.from_internal_words(arity, words)
    for w in words:
        i = t.index_of(w)
        match = f"node {i} has {arity} children; a {family} node has {maps._ARITY[family]}"
        with pytest.raises(ValueError, match=match):
            degree_via_tree(t, w, family)
        with pytest.raises(ValueError, match=match):
            degree_from_offspring(np.array(t.offspring), i, family)


def test_degree_literal_quad_disagrees_somewhere():
    # the simple block language overcounts/undercounts on some trees
    found = False
    for t in enumerate_trees(2, 5):
        m = map_from_tree(t, QUADRANGULATION)
        for u in t.internal_words():
            lit = degree_via_tree_literal_quad(t, u)
            if lit != m.degree(m.vertex_of(u)):
                found = True
    assert found


def test_degree_literal_quad_on_leaves():
    # a leaf has no descendants: the walk must not read the nodes after it
    t = OrderedTree(2, [2, 0, 2, 0, 0])
    assert [degree_via_tree_literal_quad(t, w) for w in t.words()] == [2, 2, 2, 2, 2]


@pytest.mark.parametrize("arity, table, language", [
    (3, maps._degree_table(TRIANGULATION), r"1[23]*|2[13]*|3[12]*"),
    (2, maps._degree_table(QUADRANGULATION), r"[12]|[12][12]1([12]2)*"),
    (2, _QUAD_LITERAL, r"(12|21)+"),
], ids=["tri", "quad", "quad-literal"])
def test_degree_tables_accept_their_languages(arity, table, language):
    # every node of every small tree: the walk counts exactly the internal
    # strict descendants whose connecting word is in the language
    for n in range(7 if arity == 3 else 9):
        for t in enumerate_trees(arity, n):
            words = t.words()
            internal = [w for w, c in zip(words, t.offspring) if c]
            # the walk reads a list, an array or a memoryview alike
            forms = (t.offspring.tolist(), t.offspring, memoryview(t.offspring))
            for i, u in enumerate(words):
                d = len(u)
                expected = sum(1 for v in internal if len(v) > d and v[:d] == u
                               and re.fullmatch(language, "".join(map(str, v[d:]))))
                for off in forms:
                    assert maps._count_accepted(off, i, arity, table) == expected, (t, u, off)


def test_tables_read_off_the_subdivision_rule_are_the_hand_typed_ones():
    # the degree tables, state numbering included, so _count_accepted walks
    # as before; the ring rows in the order the ring edges are made
    assert maps._degree_table(TRIANGULATION) == ((1, 2, 3, None, 1, 1, 2, None, 2, 3, 3, None),
                                                 (False, True, True, True))
    assert maps._degree_table(QUADRANGULATION) == ((2, 2, 4, None, 1, 1, None, 4, 3, 3),
                                                   (False, False, True, False, True))
    assert maps._RING_ROWS == {TRIANGULATION: ((1, 2), (0, 2), (1, 0)),
                               QUADRANGULATION: ((1, 3), (0, 2), (1, 3), (2, 0))}


def test_mean_degree_bound():
    # sum of degrees = 2E; triangulations have E = 3 + 3n
    rng = rng_from_seed(10)
    t = sample_uniform_tree(3, 100, rng)
    m = map_from_tree(t, TRIANGULATION)
    assert sum(m.degree(v) for v in range(m.n_vertices)) == 2 * m.n_edges
    assert m.n_edges == 3 + 3 * 100


def test_fast_adjacency_matches_map():
    rng = rng_from_seed(12)
    for family, arity in ((TRIANGULATION, 3), (QUADRANGULATION, 2)):
        t = sample_uniform_tree(arity, 60, rng)
        m = map_from_tree(t, family)
        adj = adjacency_from_offspring(t.offspring, family)
        assert [sorted(a) for a in adj] == [sorted(a) for a in m.adjacency]
        d_fast = bfs_distances_from(csr_from_offspring(t.offspring, family), 0)
        d_ref = distance_matrix(m, sources=[0])[0]
        assert (d_fast == d_ref).all()


def _reference_adjacency(offspring, family):
    """Per-step list builder: each inserted vertex appends its birth
    corners to its own list and itself to each corner's list."""
    nb = 3 if family == TRIANGULATION else 4
    adj = [[] for _ in range(nb)]
    for i in range(nb):
        adj[i].append((i + 1) % nb)
        adj[(i + 1) % nb].append(i)
    stack = [(0, 1, 2)] if family == TRIANGULATION else [(1, 2, 3, 0)]
    for c in offspring:
        face = stack.pop()
        if not c:
            continue
        x = len(adj)
        if family == TRIANGULATION:
            v1, v2, v3 = face
            adj.append([v1, v2, v3])
            for v in face:
                adj[v].append(x)
            stack += [(v1, v2, x), (v1, x, v3), (x, v2, v3)]
        else:
            a, b, cc, d = face
            adj.append([b, d])
            adj[b].append(x)
            adj[d].append(x)
            stack += [(b, x, d, cc), (b, x, d, a)]
    assert not stack
    return adj


def _scipy_rows(graph, sources):
    indptr, indices = graph
    n = len(indptr) - 1
    g = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    return shortest_path(g, method="D", unweighted=True, indices=sources).astype(np.int64)


def _oracle_cases():
    rng = rng_from_seed(21)
    for family, arity in ((TRIANGULATION, 3), (QUADRANGULATION, 2)):
        for law in ("uniform", "growth"):
            sizes = [0, 1, 2] + [int(s) for s in rng.integers(3, 3001, size=3)]
            for n in sizes:
                if law == "uniform" or n == 0:
                    off = sample_offspring_sequence(arity, n, rng)
                else:
                    off = sample_increasing_tree(arity, n, rng).offspring()
                yield family, OrderedTree(arity, off)
        yield family, OrderedTree.from_internal_words(arity, [(1,) * k for k in range(2000)])


def test_csr_bfs_matches_scipy_and_reference_lists():
    rng = rng_from_seed(22)
    for family, t in _oracle_cases():
        graph = csr_from_offspring(t.offspring, family)
        n = len(graph[0]) - 1
        adj = adjacency_from_offspring(t.offspring, family)
        assert adj == _reference_adjacency(t.offspring, family)
        for s in (0, int(rng.integers(n))):
            assert (bfs_distances_from(graph, s) == _scipy_rows(graph, [s])[0]).all()
        m = map_from_tree(t, family)
        several = [int(v) for v in rng.integers(n, size=4)]
        for sources in ([n - 1], several) + ((None,) if n <= 300 else ()):
            want = _scipy_rows(graph, sources)
            assert (distance_matrix(m, sources) == want).all()


@pytest.mark.parametrize("family, case", [
    (TRIANGULATION, "uniform"),
    (QUADRANGULATION, "path"),
])
def test_csr_matches_reference_lists_past_16_bit_keys(family, case):
    # a uniform map with more than 2^16 vertices (corner ids past 16 bits),
    # and the quad path 1^70000, whose slot stack grows past 2^16
    if case == "uniform":
        offspring = sample_offspring_sequence(3, 70000, rng_from_seed(24))
    else:
        offspring = [2] * 70000 + [0] * 70001
    indptr, indices = csr_from_offspring(offspring, family)
    assert len(indptr) - 1 > 2**16
    assert adjacency_from_offspring(offspring, family) == _reference_adjacency(offspring, family)


def _growth_cases(arity):
    for K in [0, 1, 2, 50, 3000]:
        yield sample_increasing_tree(arity, K, rng_from_seed(25, K))
    for letter in (1, arity):  # the paths 1^2000 and arity^2000
        yield IncreasingTree(arity, [-1] + [arity * k + letter - 1 for k in range(1999)])


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_csr_from_growth_links_matches_offspring(family, arity):
    for it in _growth_cases(arity):
        indptr, indices = csr_from_links(*it.links(), family)
        want = csr_from_offspring(it.offspring(), family)
        assert np.array_equal(indptr, want[0]) and np.array_equal(indices, want[1])
        rows = [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
        assert rows == _reference_adjacency(it.offspring(), family)


@pytest.mark.parametrize("parent, letter", [
    ([0], [0]),  # the root has parent -1
    ([-1, 1], [0, 1]),  # a parent not before its child
    ([-1, 0], [0, 4]),  # a letter outside 1..3
    ([-1, 0], [0]),  # arrays of different lengths
])
def test_csr_from_links_rejects_non_preorder_links(parent, letter):
    with pytest.raises(ValueError, match="preorder"):
        csr_from_links(parent, letter, TRIANGULATION)


def _assert_pairs_match_bfs(parent, letter, family, rng, sources=20, targets=20):
    """pair_distances against BFS rows: from random sources to random
    targets, to each source itself, its parent and its ancestor three levels
    up (or the root), in both orders."""
    K = len(parent)
    graph = csr_from_links(parent, letter, family)
    nb = len(graph[0]) - 1 - K
    u = rng.integers(0, K, size=sources)
    v = rng.integers(0, K, size=(sources, targets))
    up = np.maximum(parent, 0)
    v[:, 0], v[:, 1], v[:, 2] = u, up[u], up[up[up[u]]]
    want = maps._bfs(graph, nb + u)[np.arange(sources)[:, None], nb + v]
    u = np.repeat(u[:, None], targets, axis=1)
    assert np.array_equal(pair_distances(parent, letter, family, u, v), want)
    assert np.array_equal(pair_distances(parent, letter, family, v, u), want)


@pytest.mark.parametrize("n", [0, 1, 2, 10**3, 10**5])
@pytest.mark.parametrize("law", ["uniform", "growth"])
@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_pair_distances_match_bfs(family, arity, law, n):
    rng = rng_from_seed(27, n)
    if law == "uniform":
        parent, letter = preorder_links(arity, sample_offspring_sequence(arity, n, rng))
    else:
        parent, letter = sample_increasing_tree(arity, n, rng).links()
    if n:
        _assert_pairs_match_bfs(parent, letter, family, rng)
    else:  # no internal node, so no vertex to ask about
        assert pair_distances(parent, letter, family, [], []).shape == (0,)


@pytest.mark.parametrize("family", [TRIANGULATION, QUADRANGULATION])
def test_pair_distances_deep_path_default_recursion_limit(family):
    # the nested path 1^2000: every pair is an ancestor pair, 2000 levels apart at most
    parent, letter = np.arange(-1, 1999), np.minimum(np.arange(2000), 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        _assert_pairs_match_bfs(parent, letter, family, rng_from_seed(28))
        ends = pair_distances(parent, letter, family, [0, 1999], [1999, 0])
    finally:
        sys.setrecursionlimit(limit)
    graph = csr_from_links(parent, letter, family)
    want = maps._bfs(graph, [len(graph[0]) - 1 - 2000])[0, -1]  # the root's vertex to the last
    assert ends.tolist() == [want, want]


@pytest.mark.parametrize("u, v, match", [
    ([0, 3], [1, 2], r"integers in 0\.\.2"),  # K = 3 nodes
    ([-1], [0], r"integers in 0\.\.2"),
    ([0.5], [1], r"integers in 0\.\.2"),
    ([0, 1], [1], "different shapes"),
    ([[0, 1]], [0, 1], "different shapes"),
])
def test_pair_distances_rejects_bad_ids(u, v, match):
    parent, letter = [-1, 0, 0], [0, 1, 3]
    with pytest.raises(ValueError, match=match):
        pair_distances(parent, letter, TRIANGULATION, u, v)


@pytest.mark.parametrize("parent, letter", [
    ([-1, 0.5], [0, 1.9]),  # the int64 cast made these the links [-1, 0] / [0, 1]
    ([-1, 0], [0, 1.5]),
    ([-1.0, np.nan], [0, 1]),
    ([-1, None], [0, 1]),
    (["-1", "0"], [0, 1]),
])
@pytest.mark.parametrize("call", ["csr_from_links", "pair_distances", "root_distances"])
def test_links_must_be_integers(call, parent, letter):
    build = {"csr_from_links": lambda p, l: np.concatenate(csr_from_links(p, l, TRIANGULATION)),
             "pair_distances": lambda p, l: pair_distances(p, l, TRIANGULATION, [0], [1]),
             "root_distances": lambda p, l: root_distances(p, l, TRIANGULATION)}[call]
    with pytest.raises(ValueError, match="^links hold an entry that is not an integer$"):
        build(parent, letter)
    # integral values are taken, as IncreasingTree takes them
    assert np.array_equal(build(np.array([-1.0, 0.0]), [0, True]), build([-1, 0], [0, 1]))


def test_pair_distances_checks_links_as_the_map_builder_does():
    with pytest.raises(ValueError, match="^unknown family 'x'$"):
        pair_distances([-1], [0], "x", [0], [0])
    with pytest.raises(ValueError, match="preorder"):
        pair_distances([-1, 1], [0, 1], TRIANGULATION, [0], [0])


def _stationary_law(moves, n_states):
    """The stationary law of the chain that takes each listed move
    (state, next state) with equal probability from its state, solved
    exactly by Gauss-Jordan elimination on pi (P - I) = 0, sum(pi) = 1."""
    out = Counter(a for a, _ in moves)
    rows = [[Fraction(0)] * n_states + [Fraction(0)] for _ in range(n_states)]
    for a, b in moves:
        rows[b][a] += Fraction(1, out[a])
    for j in range(n_states):
        rows[j][j] -= 1
    rows[-1] = [Fraction(1)] * (n_states + 1)
    for c in range(n_states):
        p = next(r for r in range(c, n_states) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n_states):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


@pytest.mark.parametrize("family, n_states, drift, rate", [
    (TRIANGULATION, 7, Fraction(2, 11), GAMMA_RATE_TRI),
    (QUADRANGULATION, 5, Fraction(1, 5), GAMMA_RATE_QUAD_DERIVED),
])
def test_lift_automaton_derives_the_distance_rates(family, n_states, drift, rate):
    # a vertex's distances to the corners of its ancestors' faces, reduced
    # by their minimum, take finitely many values; under uniform letters the
    # minimum grows by the stationary mean of its steps
    metric, lift = maps._lift_table(family)
    f = len(metric) - 1
    start = metric[f, :f]
    states = [tuple(start - start.min())]
    index = {states[0]: 0}
    moves = []  # (state, next state, step of the minimum), one per letter
    for state in states:  # grows while it is read, until no new state appears
        for table in lift:
            d = (np.array(state)[:, None] + table).min(axis=0)[:f]
            reduced = tuple(d - d.min())
            if reduced not in index:
                index[reduced] = len(states)
                states.append(reduced)
            moves.append((index[state], index[reduced], int(d.min())))
    assert len(states) == n_states
    assert {step for _, _, step in moves} == {0, 1}
    pi = _stationary_law([(a, b) for a, b, _ in moves], n_states)
    k = len(lift)
    assert sum(pi[a] * Fraction(step, k) for a, _, step in moves) == drift
    assert float(drift) == rate


@pytest.mark.parametrize("family, offspring, match", [
    (TRIANGULATION, [3, 0, 0], "incomplete"),
    (TRIANGULATION, [0, 0], "ends early"),
    (QUADRANGULATION, [2, 0, 0, 0], "ends early"),
    (TRIANGULATION, [], "incomplete"),
    # these three used to give the map of the one-node tree
    (TRIANGULATION, [5, 0, 0, 0], "count 5 invalid for arity 3"),
    (TRIANGULATION, [1, 0, 0, 0], "count 1 invalid for arity 3"),
    (TRIANGULATION, [3.5, 0, 0, 0], "count 3.5 invalid for arity 3"),
    (QUADRANGULATION, [3, 0, 0, 0], "count 3 invalid for arity 2"),
])
def test_csr_rejects_malformed_offspring(family, offspring, match):
    with pytest.raises(ValueError, match=match):
        csr_from_offspring(offspring, family)


def test_csgraph_from_adjacency_reads_hand_edits():
    m = map_from_tree(OrderedTree(3, [3, 0, 0, 0]), TRIANGULATION)
    _add_pendant_vertex(m)
    indptr, indices = csgraph_from_adjacency(m.adjacency)
    assert indptr.tolist() == [0, 4, 8, 11, 14, 16]
    assert indices[indptr[4]:].tolist() == [0, 1]
    assert distance_matrix(m, [4])[0].tolist() == [1, 1, 2, 2, 0]
    m.adjacency[4].append(7)
    with pytest.raises(ValueError, match="outside"):
        csgraph_from_adjacency(m.adjacency)


def test_bfs_marks_unreachable_and_rejects_bad_sources():
    m = theta(TRIANGULATION)
    m.adjacency.append([])
    assert distance_matrix(m, [3, 0]).tolist() == [[-1, -1, -1, 0], [0, 1, 1, -1]]
    with pytest.raises(ValueError, match="source"):
        distance_matrix(m, [4])


def test_vertex_ids_out_of_range_rejected():
    m = map_from_tree(OrderedTree(3, [3, 0, 0, 0]), TRIANGULATION)
    for v in (-1, 4):
        with pytest.raises(ValueError, match=f"vertex {v} is not a vertex id 0..3"):
            m.degree(v)
        with pytest.raises(ValueError, match=f"vertex {v} is not a vertex id 0..3"):
            bfs_distance(m, 0, v)
    assert (m.degree(3), bfs_distance(m, 0, 3)) == (3, 1)


def test_distance_matrix_symmetric():
    t = sample_uniform_tree(3, 30, rng_from_seed(13))
    m = map_from_tree(t, TRIANGULATION)
    d = distance_matrix(m)
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()


def test_json_roundtrip():
    t = sample_uniform_tree(3, 20, rng_from_seed(14))
    m = map_from_tree(t, TRIANGULATION)
    import json

    m2 = StackMap.from_json_dict(json.loads(m.to_json()))
    assert m == m2
    assert m2.adjacency == m.adjacency


def test_json_fields():
    for family, arity in [(TRIANGULATION, 3), (QUADRANGULATION, 2)]:
        m = map_from_tree(OrderedTree.from_internal_words(arity, [(), (1,)]), family)
        d = m.to_json_dict()
        assert sorted(d) == ["edges", "family", "root_edge", "tree"]
        assert d["root_edge"] == [0, 1] and len(d["edges"]) == m.n_edges


@pytest.mark.parametrize("tree", ["(o)oo", "(ooo", "o)))", ")(ooo", "", "(ooo)o"])
def test_from_json_rejects_bad_tree_strings(tree):
    with pytest.raises(ValueError):
        StackMap.from_json_dict({"family": TRIANGULATION, "tree": tree})


def test_unknown_family_is_a_value_error():
    # the family is checked before its arity is looked up
    with pytest.raises(ValueError, match="unknown family 'x'"):
        StackMap.from_json_dict({"family": "x", "tree": "(ooo)"})
    with pytest.raises(ValueError, match="unknown family 'x'"):
        map_from_history([()], "x")
    with pytest.raises(ValueError, match="unknown family 'x'"):
        StackMap("x")
    # the array builders and the degree walks read the family the same way
    t = OrderedTree(3, [3, 0, 0, 0])
    for call in (lambda: csr_from_offspring(t.offspring, "x"),
                 lambda: csr_from_links([-1], [0], "x"),
                 lambda: adjacency_from_offspring(t.offspring, "x"),
                 lambda: degree_via_tree(t, (), "x"),
                 lambda: degree_from_offspring(t.offspring, 0, "x")):
        with pytest.raises(ValueError, match="^unknown family 'x'$"):
            call()


def test_drawing_and_svg():
    t = sample_uniform_tree(3, 25, rng_from_seed(15))
    m = map_from_tree(t, TRIANGULATION)
    pos = canonical_drawing(m)
    assert set(pos) == set(range(m.n_vertices))
    svg = to_svg(m)
    assert svg.startswith("<svg")
    assert svg.count("<line") == m.n_edges


def nested_path(arity: int, k: int) -> OrderedTree:
    """The tree whose internal nodes are 1^j, j < k."""
    return OrderedTree(arity, [arity] * k + [0] * ((arity - 1) * k + 1))


def atan2_rotation(m: StackMap) -> list[dict[int, int]]:
    """The rotation system read off the canonical drawing: each vertex's
    neighbours in order of angle, as successor maps."""
    pos = canonical_drawing(m)
    rot = []
    for v, nbrs in enumerate(m.adjacency):
        row = sorted(nbrs, key=lambda w: math.atan2(pos[w][1] - pos[v][1], pos[w][0] - pos[v][0]))
        rot.append(dict(zip(row, row[1:] + row[:1])))
    return rot


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_rotation_system_planar(family, arity):
    # every face a triangle (quadrangle) and V - E + F = 2
    rng = rng_from_seed(17)
    ts = [t for n in (0, 1, 2) for t in enumerate_trees(arity, n)]
    ts += [sample_uniform_tree(arity, int(n), rng) for n in rng.integers(1, 3001, size=3)]
    ts.append(nested_path(arity, 2000))
    for t in ts:
        m = map_from_tree(t, family)
        assert rotation_defect(m, rotation_system(m)) == "", len(t)


def test_rotation_check_rejects_collapsed_drawing():
    # the float drawing of the nested path 1^60 puts 63 vertices at 37 points,
    # and sorting neighbours by angle there gives no planar rotation system
    m = map_from_tree(nested_path(3, 60), TRIANGULATION)
    assert len(set(canonical_drawing(m).values())) == 37
    assert rotation_defect(m, atan2_rotation(m)) == "V - E + F = -52"


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_rotation_system_matches_drawing_angles(family, arity):
    # where the drawing is sound, the combinatorial rotation is its
    # counterclockwise cyclic order at every vertex
    for seed in range(12):
        n = (1, 5, 20, 50, 100)[seed % 5]
        m = map_from_tree(sample_uniform_tree(arity, n, rng_from_seed(70, seed)), family)
        assert rotation_system(m) == atan2_rotation(m)


def _face_walk_reference(m: StackMap):
    """Yield (x, face, ccw) for every internal vertex x in preorder: the
    corners of its birth face and whether they run counterclockwise, by a
    walk over a stack of the faces still to visit."""
    split, _, flips = maps._SPLIT[m.family]
    stack = [(maps._ROOT_FACE[m.family], True)]
    x = m.n_boundary
    for c in m.tree.offspring:
        face, ccw = stack.pop()
        if c:
            yield x, face, ccw
            stack.extend(reversed([(f, ccw != flip) for f, flip in zip(split(face, x), flips)]))
            x += 1


def _rotation_reference(m: StackMap) -> list[dict[int, int]]:
    rot = [{u: v, v: u} for u, v in maps._RING_ROWS[m.family]]
    attach = maps._SPLIT[m.family][1]
    for x, face, ccw in _face_walk_reference(m):
        if not ccw:
            face = face[:1] + face[:0:-1]
        k = len(face)
        for i in range(k)[attach]:
            s, p = rot[face[i]], face[(i + 1) % k]
            s[x], s[p] = s[p], x
        joined = face[attach]
        rot.append(dict(zip(joined, joined[1:] + joined[:1])))
    return rot


def _drawing_reference(m: StackMap) -> dict[int, tuple[float, float]]:
    pos = dict(maps.TRI_CORNERS if m.family == TRIANGULATION else maps.QUAD_CORNERS)
    for x, face, _ in _face_walk_reference(m):
        pos[x] = tuple(sum(c) / len(face) for c in zip(*(pos[v] for v in face)))
    return pos


@pytest.mark.parametrize("family, arity", [(TRIANGULATION, 3), (QUADRANGULATION, 2)])
def test_rotation_and_drawing_match_face_stack_walk(family, arity):
    ts = [t for n in range(6) for t in enumerate_trees(arity, n)]
    ts += [sample_uniform_tree(arity, n, rng_from_seed(71, n)) for n in (300, 3000)]
    ts.append(nested_path(arity, 2000))
    for t in ts:
        m = map_from_tree(t, family)
        # the same entries in the same order, and the same floats bit for bit
        rows = [list(r.items()) for r in rotation_system(m)]
        assert rows == [list(r.items()) for r in _rotation_reference(m)]
        assert list(canonical_drawing(m).items()) == list(_drawing_reference(m).items())


def test_growth_tree_map_consistency():
    it = sample_increasing_tree(3, 50, rng_from_seed(16))
    m = map_from_tree(it.shape(), TRIANGULATION)
    assert m.n_insertions == 50
    assert tree_from_map(m) == it.shape()
