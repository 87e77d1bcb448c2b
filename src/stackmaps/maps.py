"""Stack-map construction and the bijections with ternary/binary trees.

A stack-triangulation grows from the triangle by repeatedly picking a
finite triangular face, inserting a vertex inside it and joining it to the
three corners, which splits the face in three.  Stack-quadrangulations
grow from the square: the new vertex is joined to the two ends of the
face's active diagonal, splitting the face in two.  The face-subdivision
genealogy is a full ternary (resp. binary) tree, and the map depends on
the tree only, not on the insertion order.

Vertex ids are integers: the boundary vertices first (0..2 or 0..3, with 0
the root vertex), then internal vertices in insertion order.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .trees import OrderedTree, Word

TRIANGULATION = "triangulation"
QUADRANGULATION = "quadrangulation"

_ARITY = {TRIANGULATION: 3, QUADRANGULATION: 2}
_N_BOUNDARY = {TRIANGULATION: 3, QUADRANGULATION: 4}
# corner tuples are ordered so the root vertex (id 0) sits where the type
# seed expects it: triangle (E0,E1,E2) -> (0,1,1); square (B,C,D,A) ->
# (1,2,1,0) with A the root vertex
_ROOT_FACE = {TRIANGULATION: (0, 1, 2), QUADRANGULATION: (1, 2, 3, 0)}


def _split_tri(f, x):
    v1, v2, v3 = f
    return (x, v2, v3), (v1, x, v3), (v1, v2, x)


def _split_quad(f, x):
    a, b, c, d = f
    return (b, x, d, a), (b, x, d, c)


# subdivision rule of each family: the child faces, in letter order, of face
# f when vertex x is inserted in it, and the corners of f that x is joined to
_SPLIT = {
    TRIANGULATION: (_split_tri, slice(0, 3)),
    QUADRANGULATION: (_split_quad, slice(1, 4, 2)),
}


class NotStackMapError(ValueError):
    """The given planar graph is not a stack-map of the claimed family."""


class StackMap:
    """Planar map built by iterated face subdivision.

    ``faces`` maps each face word that ever existed to its corner tuple;
    the current finite faces are the words without children.  Corner tuples
    follow the construction order, so corner distances to the root vertex
    reproduce the type automaton of the passage module.
    """

    __slots__ = ("family", "adjacency", "faces", "vertex_words", "root_edge")

    def __init__(self, family: str):
        if family not in _ARITY:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        nb = _N_BOUNDARY[family]
        self.adjacency: list[list[int]] = [[] for _ in range(nb)]
        for i in range(nb):
            self._add_edge(i, (i + 1) % nb)
        self.faces: dict[Word, tuple[int, ...]] = {(): _ROOT_FACE[family]}
        self.vertex_words: list[Word | None] = [None] * nb
        self.root_edge = (0, 1)

    # -- basic accessors ---------------------------------------------------

    @property
    def arity(self) -> int:
        return _ARITY[self.family]

    @property
    def n_boundary(self) -> int:
        return _N_BOUNDARY[self.family]

    @property
    def n_vertices(self) -> int:
        return len(self.adjacency)

    @property
    def n_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    @property
    def n_insertions(self) -> int:
        return self.n_vertices - self.n_boundary

    def leaf_faces(self) -> list[Word]:
        """Words of the current finite faces, in lexicographic order."""
        return sorted(w for w in self.faces if w + (1,) not in self.faces)

    def internal_vertex_ids(self) -> range:
        return range(self.n_boundary, self.n_vertices)

    def word_of(self, vid: int) -> Word:
        """Birth-face word of an internal vertex."""
        w = self.vertex_words[vid]
        if w is None:
            raise ValueError(f"vertex {vid} is a boundary vertex")
        return w

    def vertex_of(self, word: Word) -> int:
        """Id of the vertex inserted in the given face."""
        child = self.faces[word + (1,)]
        # the child tuple consists of parent corners plus the new vertex
        (x,) = set(child) - set(self.faces[word])
        return x

    def degree(self, vid: int) -> int:
        return len(self.adjacency[vid])

    # -- construction ------------------------------------------------------

    def _add_edge(self, u: int, v: int) -> None:
        self.adjacency[u].append(v)
        self.adjacency[v].append(u)

    def _grow_inplace(self, face: Word) -> int:
        corners = self.faces.get(face)
        if corners is None:
            raise ValueError(f"no face with word {face}")
        if face + (1,) in self.faces:
            raise ValueError(f"face {face} was already subdivided")
        x = len(self.adjacency)
        self.adjacency.append([])
        self.vertex_words.append(face)
        split, attach = _SPLIT[self.family]
        for v in corners[attach]:
            self._add_edge(x, v)
        for letter, child in enumerate(split(corners, x), 1):
            self.faces[face + (letter,)] = child
        return x

    def copy(self) -> "StackMap":
        m = StackMap.__new__(StackMap)
        m.family = self.family
        m.adjacency = [list(a) for a in self.adjacency]
        m.faces = dict(self.faces)
        m.vertex_words = list(self.vertex_words)
        m.root_edge = self.root_edge
        return m

    # -- equality: rooted isomorphism via tree recovery --------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, StackMap) or self.family != other.family:
            return NotImplemented if not isinstance(other, StackMap) else False
        return tree_from_map(self) == tree_from_map(other)

    def __hash__(self) -> int:
        return hash((self.family, tuple(tree_from_map(self).offspring)))

    def __repr__(self) -> str:
        return f"StackMap({self.family}, {self.n_insertions} insertions)"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        edges = sorted(
            (u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v
        )
        return {
            "family": self.family,
            "vertices": [
                {"id": i, "birth": i} for i in range(self.n_vertices)
            ],
            "root_edge": list(self.root_edge),
            "edges": [list(e) for e in edges],
            "tree": face_tree(self).to_parens(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "StackMap":
        t = OrderedTree.from_parens(_ARITY[d["family"]], d["tree"])
        return map_from_tree(t, d["family"])


def theta(family: str = TRIANGULATION) -> StackMap:
    """The starting map: bare triangle or square, one finite face."""
    return StackMap(family)


def grow(m: StackMap, face: Word) -> StackMap:
    """Insert a vertex in the given finite face; returns a new map."""
    out = m.copy()
    out._grow_inplace(face)
    return out


def map_from_history(history, family: str) -> StackMap:
    m = StackMap(family)
    for face in history:
        m._grow_inplace(tuple(face))
    return m


def map_from_tree(t: OrderedTree, family: str) -> StackMap:
    """Replay the internal nodes of t in lexicographic order; any insertion
    order producing the same tree gives the same map."""
    if t.arity != _ARITY[family]:
        raise ValueError(f"{family} needs arity {_ARITY[family]}, got {t.arity}")
    m = StackMap(family)
    words = t.words()
    for i in range(len(t)):
        if t.offspring[i]:
            m._grow_inplace(words[i])
    return m


def face_tree(m: StackMap) -> OrderedTree:
    """Face-subdivision tree of the map (internal node = subdivided face)."""
    internal = [w for w in m.faces if w + (1,) in m.faces]
    return OrderedTree.from_internal_words(m.arity, internal)


# ---------------------------------------------------------------------------
# inverse bijection: recover the tree from the bare graph by peeling
#
# An internal vertex of degree 3 (degree 2 in a quadrangulation) gained no
# edge after its insertion, so it can be taken out last: its neighbours are
# the corners of its birth face (for a quadrangulation, the two ends of that
# face's active diagonal).  Peeling such vertices off a stack while counting
# down the degrees of their neighbours gives an insertion history
# backwards.  Replaying it from the root face, each vertex must land in the
# live face whose corners (or diagonal) are its peeled-off neighbours; the
# subdivided faces make up the face tree.  Each vertex is peeled and
# replayed once and each adjacency entry is read a bounded number of times,
# so the cost is O(n) and no recursion is involved.
#
# Only the adjacency is read, so this doubles as a recognition test.  It
# raises NotStackMapError on a loop, a repeated or one-sided edge, an
# internal vertex that cannot be peeled, a replayed vertex whose neighbours
# bound no live face, and anything but the bare boundary cycle left after
# peeling.


def tree_from_map(m: StackMap) -> OrderedTree:
    """Face-subdivision tree of m, read off its adjacency alone; raises
    NotStackMapError if the graph is not a stack-map of ``m.family``."""
    adj = m.adjacency
    n, nb, k = len(adj), m.n_boundary, m.arity
    _check_simple(adj)
    # peel; k is both the degree of a last-inserted vertex and the arity
    deg = [len(a) for a in adj]
    removed = bytearray(n)
    birth = [()] * n  # sorted neighbours of each vertex when it was peeled
    order = []
    todo = [x for x in range(nb, n) if deg[x] == k]
    while todo:
        x = todo.pop()
        if deg[x] != k:
            continue  # lost a neighbour since it was queued: never peelable
        live = _unpeeled_neighbours(adj, x, deg, removed, birth)
        live.sort()
        birth[x] = tuple(live)
        removed[x] = 1
        order.append(x)
        for y in live:
            deg[y] -= 1
            if deg[y] == k and y >= nb:
                todo.append(y)
    if len(order) != n - nb:
        x = next(x for x in range(nb, n) if not removed[x])
        raise NotStackMapError(f"internal vertex {x} cannot be peeled (degree {deg[x]} left)")
    for b in range(nb):
        live = _unpeeled_neighbours(adj, b, deg, removed, birth)
        if sorted(live) != sorted(((b - 1) % nb, (b + 1) % nb)):
            raise NotStackMapError(
                f"boundary vertex {b} keeps neighbours {live} after peeling, "
                "not just its two boundary neighbours"
            )
    # replay: first[node] is the first of the k consecutive child ids of a
    # subdivided face node, -1 for a leaf
    split, attach = _SPLIT[m.family]
    faces = [_ROOT_FACE[m.family]]
    first = [-1]
    open_faces = {tuple(sorted(faces[0][attach])): 0}
    for x in reversed(order):
        node = open_faces.pop(birth[x], None)
        if node is None:
            raise NotStackMapError(f"the neighbours {birth[x]} of vertex {x} bound no face")
        first[node] = len(first)
        for child in split(faces[node], x):
            open_faces[tuple(sorted(child[attach]))] = len(first)
            first.append(-1)
            faces.append(child)
    offspring = []
    stack = [0]
    while stack:
        c = first[stack.pop()]
        if c < 0:
            offspring.append(0)
        else:
            offspring.append(k)
            stack.extend(range(c + k - 1, c - 1, -1))
    return OrderedTree(k, offspring)


def _check_simple(adj) -> None:
    n = len(adj)
    seen = [-1] * n
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if not 0 <= v < n:
                raise NotStackMapError(f"vertex {u} lists {v}, not a vertex id")
            if v == u:
                raise NotStackMapError(f"loop at vertex {u}")
            if seen[v] == u:
                raise NotStackMapError(f"repeated edge {u}-{v}")
            seen[v] = u


def _unpeeled_neighbours(adj, x, deg, removed, birth) -> list[int]:
    """Neighbours of x not yet peeled.  Raises unless every edge at x is
    two-sided: each peeled neighbour had x as a birth corner, and their
    number matches the degree count-down."""
    live = []
    for y in adj[x]:
        if not removed[y]:
            live.append(y)
        elif x not in birth[y]:
            raise NotStackMapError(f"edge {x}-{y} is listed at {x} only")
    if len(live) != deg[x]:
        raise NotStackMapError(f"vertex {x} is listed by a neighbour it does not list")
    return live


# ---------------------------------------------------------------------------
# fast array path (no face dictionaries) for large Monte-Carlo runs


def adjacency_from_offspring(offspring, family: str) -> list[list[int]]:
    """Adjacency lists of the map of the tree given as a preorder offspring
    sequence.  Vertex ids: boundary first, then internal nodes in preorder.

    Equivalent to map_from_tree(...).adjacency (the lex replay inserts
    vertices in preorder) but an order of magnitude faster on big trees.
    """
    nb = _N_BOUNDARY[family]
    adj: list[list[int]] = [[] for _ in range(nb)]
    for i in range(nb):
        adj[i].append((i + 1) % nb)
        adj[(i + 1) % nb].append(i)
    if family == TRIANGULATION:
        stack = [(0, 1, 2)]
        for c in offspring:
            face = stack.pop()
            if not c:
                continue
            x = len(adj)
            adj.append(list(face))
            v1, v2, v3 = face
            adj[v1].append(x)
            adj[v2].append(x)
            adj[v3].append(x)
            stack.append((v1, v2, x))
            stack.append((v1, x, v3))
            stack.append((x, v2, v3))
    else:
        stack = [(1, 2, 3, 0)]
        for c in offspring:
            face = stack.pop()
            if not c:
                continue
            x = len(adj)
            a, b, cc, d = face
            adj.append([b, d])
            adj[b].append(x)
            adj[d].append(x)
            stack.append((b, x, d, cc))
            stack.append((b, x, d, a))
    if stack:
        raise ValueError("offspring sequence is incomplete")
    return adj


def csgraph_from_adjacency(adj) -> csr_matrix:
    rows, cols = [], []
    for u, nbrs in enumerate(adj):
        rows.extend([u] * len(nbrs))
        cols.extend(nbrs)
    n = len(adj)
    return csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))


def bfs_distances_from(adj, source: int) -> np.ndarray:
    d = shortest_path(csgraph_from_adjacency(adj), method="D", unweighted=True,
                      indices=[source])
    return d[0].astype(np.int64)


# ---------------------------------------------------------------------------
# distances


def _csgraph(m: StackMap) -> csr_matrix:
    rows, cols = [], []
    for u, nbrs in enumerate(m.adjacency):
        rows.extend([u] * len(nbrs))
        cols.extend(nbrs)
    data = np.ones(len(rows), dtype=np.int8)
    n = m.n_vertices
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def distance_matrix(m: StackMap, sources=None) -> np.ndarray:
    """BFS distances from the given source ids (default: all) to every
    vertex, as an integer matrix."""
    d = shortest_path(_csgraph(m), method="D", unweighted=True, indices=sources)
    return d.astype(np.int64)


def bfs_distance(m: StackMap, u: int, v: int) -> int:
    return int(distance_matrix(m, sources=[u])[0, v])


# ---------------------------------------------------------------------------
# degrees through the tree


def degree_via_tree(t: OrderedTree, u: Word, family: str) -> int:
    """Vertex degree read off the tree, without building the map.

    Triangulation: 3 plus the number of internal descendants u·w where w
    starts with some letter i and then avoids i.  Quadrangulation: 2 plus
    the number of internal descendants whose face still holds the vertex on
    its active diagonal (position automaton in _quad_step; accepted words
    are exactly {1,2} ∪ {1,2}{1,2}1({1,2}2)*).
    """
    u = tuple(u)
    i = t.index_of(u)
    if not t.offspring[i]:
        raise ValueError(f"{u} is not an internal node")
    if family == TRIANGULATION:
        return 3 + _count_language(t, i, _tri_step)
    return 2 + _count_language(t, i, _quad_step)


def degree_via_tree_literal_quad(t: OrderedTree, u: Word) -> int:
    """Variant counting descendants u·w with |w| >= 2 and w in {12,21}*;
    disagrees with the map degree (see tests), kept for comparison."""
    u = tuple(u)
    i = t.index_of(u)
    return 2 + _count_language(t, i, _quad_literal_step)


def _quad_literal_step(state, letter):
    # language {12,21}* restricted to length >= 2
    if state is _START:
        return (1, letter), False
    parity, prev = state
    if parity == 1:
        if letter == prev:
            return None, False
        return (0, letter), True
    return (1, letter), False


_START = ("start",)


def _tri_step(state, letter):
    # language: some first letter i, then letters avoiding i.  State is the
    # first letter; every live state past the start is accepting.
    if state is _START:
        return letter, True
    if letter == state:
        return None, False
    return state, True


def _quad_step(state, letter):
    # A vertex born in face u sits at tuple position 2 of both children of
    # u and gains an edge exactly when a descendant face holding it at
    # position 2 or 4 is subdivided.  Position flow under subdivision:
    # 2 -> 1 (both letters), 1 -> 4 (letter 1 only), 4 -> 3 (both),
    # 3 -> 4 (letter 2 only); otherwise the vertex leaves the face.
    if state is _START:
        return 2, True
    if state == 2:
        return 1, False
    if state == 1:
        return (4, True) if letter == 1 else (None, False)
    if state == 4:
        return 3, False
    return (4, True) if letter == 2 else (None, False)  # state == 3


def _count_language(t: OrderedTree, root_idx: int, step) -> int:
    """Count internal strict descendants of root_idx whose connecting word
    is accepted by the incremental automaton ``step``.  A None next-state
    kills the branch (both languages are closed under removing suffixes)."""
    count = 0
    stack = [(c, _START) for c in t.children(root_idx) if t.offspring[c]]
    while stack:
        j, state = stack.pop()
        new_state, accept = step(state, t.letter[j])
        if new_state is None:
            continue
        if accept:
            count += 1
        stack.extend(
            (c, new_state) for c in t.children(j) if t.offspring[c]
        )
    return count


# ---------------------------------------------------------------------------
# canonical drawing


TRI_CORNERS = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, np.sqrt(3.0) / 2.0)}
QUAD_CORNERS = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}


def canonical_drawing(m: StackMap) -> dict[int, tuple[float, float]]:
    """Vertex coordinates: fixed boundary (unit triangle or unit square),
    every internal vertex at the centroid of its birth face.  Depends only
    on the map, not on the insertion history."""
    pos = dict(TRI_CORNERS if m.family == TRIANGULATION else QUAD_CORNERS)
    for w in sorted(m.faces):
        if w + (1,) not in m.faces:
            continue
        x = m.vertex_of(w)
        corners = m.faces[w]
        pos[x] = (
            sum(pos[c][0] for c in corners) / len(corners),
            sum(pos[c][1] for c in corners) / len(corners),
        )
    return pos


def to_svg(m: StackMap, size: int = 600) -> str:
    """Straight-line SVG rendering of the canonical drawing; the root edge
    is highlighted."""
    pos = canonical_drawing(m)
    pad = 0.05

    def xy(v):
        x, y = pos[v]
        return ((x + pad) / (1 + 2 * pad) * size, size - (y + pad) / (1 + 2 * pad) * size)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
    ]
    seen = set()
    for u, nbrs in enumerate(m.adjacency):
        for v in nbrs:
            if (v, u) in seen:
                continue
            seen.add((u, v))
            (x1, y1), (x2, y2) = xy(u), xy(v)
            root = {u, v} == set(m.root_edge)
            stroke = "#d62728" if root else "#333"
            width = 2.5 if root else 1.0
            lines.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{stroke}" stroke-width="{width}"/>'
            )
    for v in range(m.n_vertices):
        x, y = xy(v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="#1f77b4"/>')
    lines.append("</svg>")
    return "\n".join(lines)
