"""Stack-map construction and the bijections with ternary/binary trees.

A stack-triangulation grows from the triangle by repeatedly picking a
finite triangular face, inserting a vertex inside it and joining it to the
three corners, which splits the face in three.  Stack-quadrangulations
grow from the square: the new vertex is joined to the two ends of the
face's active diagonal, splitting the face in two.  The face-subdivision
genealogy is a full ternary (resp. binary) tree, and the map depends on
the tree only, not on the insertion order.

A map is held as that tree plus the CSR adjacency (indptr, indices) built
from it once, as read-only int64 arrays.  Vertex ids are integers: the
boundary vertices first (0..2 or 0..3, with 0 the root vertex), then one
vertex per internal tree node in preorder, for every map however it was
built.  Face words are used only at the API boundary.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain

import numpy as np

from .trees import (IncreasingTree, OrderedTree, Word, _root_path_sum, _stable_argsort, _subtree_end,
                    preorder_links)

TRIANGULATION = "triangulation"
QUADRANGULATION = "quadrangulation"

# corner tuples are ordered so the root vertex (id 0) sits where the type
# seed expects it: triangle (E0,E1,E2) -> (0,1,1); square (B,C,D,A) ->
# (1,2,1,0) with A the root vertex
_ROOT_FACE = {TRIANGULATION: (0, 1, 2), QUADRANGULATION: (1, 2, 3, 0)}
_N_BOUNDARY = {family: len(face) for family, face in _ROOT_FACE.items()}


def _split_tri(f, x):
    v1, v2, v3 = f
    return (x, v2, v3), (v1, x, v3), (v1, v2, x)


def _split_quad(f, x):
    a, b, c, d = f
    return (b, x, d, a), (b, x, d, c)


# subdivision rule of each family: the child faces, in letter order, of face
# f when vertex x is inserted in it, the corners of f that x is joined to, and
# which children reverse f's orientation (both root faces run counterclockwise)
_SPLIT = {
    TRIANGULATION: (_split_tri, slice(0, 3), (False, False, False)),
    QUADRANGULATION: (_split_quad, slice(1, 4, 2), (False, True)),
}
_ARITY = {family: len(flips) for family, (_, _, flips) in _SPLIT.items()}  # a flag per child


def _arity(family: str) -> int:
    """The family's arity; ValueError for an unknown family."""
    if family not in _ARITY:
        raise ValueError(f"unknown family {family!r}")
    return _ARITY[family]


class NotStackMapError(ValueError):
    """The given planar graph is not a stack-map of the claimed family."""


class StackMap:
    """Planar map built by iterated face subdivision, held as the pair
    (face-subdivision tree, CSR adjacency).

    The tree determines the map; ``graph`` is the read-only CSR pair
    (indptr, indices) that ``csr_from_offspring`` builds from it, once, in
    the constructor.  Vertex ids are the boundary, then one vertex per
    internal tree node in preorder.  Face words appear only at the API
    boundary (``word_of``, ``vertex_of``, ``leaf_faces``, ``grow``).

    ``adjacency`` is a list view of the graph, built on its first read and
    then kept: from then on ``graph`` is rebuilt from the lists on each
    read, so hand edits of them show.  Only tests that spoil a map use it;
    it is temporary until they build bad graphs directly (ROADMAP item 1).
    """

    __slots__ = ("family", "tree", "_graph", "_adjacency")

    #: the root vertex and the next boundary vertex, in every map
    root_edge = (0, 1)

    def __init__(self, family: str, tree: OrderedTree | None = None):
        k = _arity(family)
        if tree is None:
            tree = OrderedTree.single_leaf(k)
        elif tree.arity != k:
            raise ValueError(f"{family} needs arity {k}, got {tree.arity}")
        self.family = family
        self.tree = tree
        graph = csr_from_offspring(tree.offspring, family)
        for a in graph:
            a.flags.writeable = False
        self._graph = graph
        self._adjacency: list[list[int]] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def arity(self) -> int:
        return _ARITY[self.family]

    @property
    def n_boundary(self) -> int:
        return _N_BOUNDARY[self.family]

    @property
    def n_vertices(self) -> int:
        return len(self.graph[0]) - 1

    @property
    def n_edges(self) -> int:
        return int(self.graph[0][-1]) // 2

    @property
    def n_insertions(self) -> int:
        return self.n_vertices - self.n_boundary

    def leaf_faces(self) -> list[Word]:
        """Words of the current finite faces, in lexicographic order."""
        words = self.tree.words()
        return [words[i] for i in np.flatnonzero(self.tree.offspring == 0).tolist()]

    def word_of(self, vid: int) -> Word:
        """Birth-face word of an internal vertex, in O(depth): vertex
        n_boundary + r is the internal node of rank r in preorder."""
        if not self.n_boundary <= vid < self.n_vertices:
            raise ValueError(f"vertex {vid} is not an internal vertex "
                             f"{self.n_boundary}..{self.n_vertices - 1}")
        t = self.tree
        return t.word(t._arrays().internal[vid - self.n_boundary])

    def vertex_of(self, word: Word) -> int:
        """Id of the vertex inserted in the given face: the boundary, then
        the face's rank among the internal nodes in preorder.  KeyError if
        the face is a leaf or not in the tree."""
        t = self.tree
        r = t._arrays().rank[t.index_of(word)]
        if r < 0:
            raise KeyError(word)
        return self.n_boundary + r

    def degree(self, vid: int) -> int:
        indptr = self.graph[0]
        if not 0 <= vid < len(indptr) - 1:
            raise ValueError(f"vertex {vid} is not a vertex id 0..{len(indptr) - 2}")
        return int(indptr[vid + 1] - indptr[vid])

    @property
    def graph(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR pair (indptr, indices) of the map: the stored read-only pair,
        or, once ``adjacency`` has been read, rebuilt from those lists."""
        if self._adjacency is None:
            return self._graph
        return csgraph_from_adjacency(self._adjacency)

    @property
    def adjacency(self) -> list[list[int]]:
        """The rows of ``graph`` as Python lists, built on the first read
        and kept, so that hand edits of them show in ``graph``."""
        if self._adjacency is None:
            self._adjacency = _rows(*self._graph)
        return self._adjacency

    # -- equality: the tree determines the map ------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, StackMap):
            return NotImplemented
        return (self.family, self.tree) == (other.family, other.tree)

    def __hash__(self) -> int:
        return hash((self.family, self.tree))

    def __repr__(self) -> str:
        return f"StackMap({self.family}, {self.n_insertions} insertions)"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        edges = _edges(self.graph)
        return {
            "family": self.family,
            "root_edge": list(self.root_edge),
            "edges": edges[np.lexsort(edges.T[::-1])].tolist(),
            "tree": self.tree.to_parens(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "StackMap":
        t = OrderedTree.from_parens(_arity(d["family"]), d["tree"])
        return map_from_tree(t, d["family"])


def theta(family: str = TRIANGULATION) -> StackMap:
    """The starting map: bare triangle or square, one finite face."""
    return StackMap(family)


def grow(m: StackMap, face: Word) -> StackMap:
    """Insert a vertex in the given finite face; returns a new map, built
    in O(n) from the offspring sequence with that leaf expanded."""
    t = m.tree
    try:
        i = t.index_of(face)
    except KeyError:
        raise ValueError(f"no face with word {face}") from None
    if t.offspring[i]:
        raise ValueError(f"face {face} was already subdivided")
    off = np.insert(t.offspring, i + 1, [0] * t.arity)
    off[i] = t.arity
    return StackMap(m.family, OrderedTree(t.arity, off))


def map_from_history(history, family: str) -> StackMap:
    """Map after inserting one vertex in each face of the history, in that
    order.  It depends only on the set of faces, so vertex ids follow the
    preorder of the tree, not the insertion order.  ValueError as in
    ``IncreasingTree.from_skeleton``."""
    return StackMap(family, IncreasingTree.from_skeleton(_arity(family), history).shape())


def map_from_tree(t: OrderedTree, family: str) -> StackMap:
    """The map whose face-subdivision tree is t."""
    return StackMap(family, t)


# ---------------------------------------------------------------------------
# inverse bijection: recover the tree from the bare graph by peeling
#
# An internal vertex of degree 3 (degree 2 in a quadrangulation) gained no
# edge after its insertion, so it can be taken out last: its neighbours are
# the corners of its birth face (for a quadrangulation, the two ends of that
# face's active diagonal).  Peeling such vertices off a stack while counting
# down the degrees of their neighbours gives an insertion history
# backwards; the peel records each vertex's live neighbours, its birth set,
# and the step at which it goes.
#
# Replaying the history from the root face rebuilds the face tree.  A birth
# set that lies wholly on the boundary is the root face, which only the
# first replayed vertex can take.  Any other vertex x lands in a face of the
# youngest vertex p of its birth set, its parent: that is the birth
# neighbour peeled first after x.  The others are corners of p's birth face,
# and which corners they are gives the letter of x (``_letter_table``).
# Each (parent, letter) slot may be taken once.  Each vertex is peeled and
# replayed once and each adjacency entry is read a bounded number of times,
# so the cost is O(n) and no recursion is involved.
#
# Only the graph is read, so this doubles as a recognition test.  A vertex
# count and a numpy check of the CSR pair come first: at least the boundary's
# vertices, no loop, no repeated edge, each edge listed at both ends
# (``StackMap.graph`` rejects ids that are no vertex).
# The peel then raises NotStackMapError on an internal vertex that cannot
# be peeled or more than the bare boundary cycle left, the replay on a
# vertex whose neighbours bound no face that is still free.


def tree_from_map(m: StackMap) -> OrderedTree:
    """Face-subdivision tree of m, read off its graph alone; raises
    NotStackMapError if the graph is not a stack-map of ``m.family``."""
    indptr, indices = m.graph
    n, nb, k = len(indptr) - 1, m.n_boundary, m.arity
    if n < nb:
        raise NotStackMapError(f"the graph has {n} vertices, fewer than the {nb} "
                               f"boundary vertices of a {m.family}")
    # the entry v in row u is the key n * u + v; with no key repeated, each
    # edge is listed at both ends iff the reversed keys are the same set
    rows = np.repeat(np.arange(n), np.diff(indptr))
    if (loop := rows == indices).any():
        raise NotStackMapError(f"loop at vertex {rows[loop.argmax()]}")
    keys = np.sort(rows * n + indices)
    if (repeat := keys[1:] == keys[:-1]).any():
        u, v = divmod(keys[repeat.argmax()], n)
        raise NotStackMapError(f"repeated edge {u}-{v}")
    back = indices * n + rows
    if not np.array_equal(np.sort(back), keys):
        p = np.isin(back, keys, invert=True).argmax()
        raise NotStackMapError(f"edge {rows[p]}-{indices[p]} is listed at {rows[p]} only")
    # peel; k is both the degree of a last-inserted vertex and the arity
    flat, ends = indices.tolist(), indptr.tolist()
    deg = np.diff(indptr).tolist()
    removed = bytearray(n)
    birth = [()] * n  # the live neighbours of each vertex when it was peeled
    step = [n] * n  # when each vertex was peeled; n for the boundary, never peeled
    order = []
    todo = [x for x in range(nb, n) if deg[x] == k]
    while todo:
        x = todo.pop()
        if deg[x] != k:
            continue  # lost a neighbour since it was queued: never peelable
        live = [y for y in flat[ends[x]:ends[x + 1]] if not removed[y]]
        birth[x] = tuple(live)
        removed[x] = 1
        step[x] = len(order)
        order.append(x)
        for y in live:
            deg[y] -= 1
            if deg[y] == k and y >= nb:
                todo.append(y)
    if len(order) != n - nb:
        x = next(x for x in range(nb, n) if not removed[x])
        raise NotStackMapError(f"internal vertex {x} cannot be peeled (degree {deg[x]} left)")
    for b, ring in enumerate(_RING_ROWS[m.family]):
        live = [y for y in flat[ends[b]:ends[b + 1]] if not removed[y]]
        if sorted(live) != sorted(ring):
            raise NotStackMapError(
                f"boundary vertex {b} keeps neighbours {live} after peeling, "
                "not just its two boundary neighbours"
            )
    # replay: the j-th replayed vertex is internal node j of the face tree,
    # in the slot (k * parent + letter - 1) of the face it lands in; vertex
    # p is internal node last - step[p]
    split, attach, _ = _SPLIT[m.family]
    root = _ROOT_FACE[m.family]
    letter_of = _letter_table(m.family)
    last = len(order) - 1
    face = [root] * n  # the birth face of each replayed vertex, in _SPLIT's corner order
    taken = bytearray(k * len(order))
    slot: list[int] = []
    for x in reversed(order):
        live = birth[x]
        p = min(live, key=step.__getitem__)
        if p >= nb:
            fp = face[p]
            letter = letter_of.get(tuple([c in live for c in fp]), 0)
            s = k * (last - step[p]) + letter - 1
            if letter and not taken[s]:
                taken[s] = 1
                face[x] = split(fp, p)[letter - 1]
                slot.append(s)
                continue
        elif not slot and sorted(live) == sorted(root[attach]):
            slot.append(-1)
            continue
        raise NotStackMapError(f"the neighbours {tuple(sorted(live))} of vertex {x} bound no face")
    return IncreasingTree(k, slot).shape()


@cache
def _letter_table(family: str) -> dict[tuple[bool, ...], int]:
    """The letter of each child of a face, keyed by the child's joined
    corners other than the new vertex: one flag per corner of the face, in
    ``_SPLIT``'s order, set where that corner is one of them."""
    split, attach, _ = _SPLIT[family]
    corners = tuple(range(_N_BOUNDARY[family]))
    return {tuple(c in child[attach] for c in corners): letter
            for letter, child in enumerate(split(corners, -1), 1)}


# ---------------------------------------------------------------------------
# the map on flat arrays: birth faces, CSR adjacency, frontier BFS
#
# A map's graph is a CSR pair (indptr, indices) of int64 arrays: the
# neighbours of vertex v are indices[indptr[v]:indptr[v + 1]], in the order
# the edges were made.

# rows of the boundary vertices: the ring edges 0-1, 1-2, ..., (nb-1)-0 are
# made in that order, so vertex 0 lists 1 before nb-1
_RING_ROWS = {family: ((1, nb - 1),) + tuple((b - 1, (b + 1) % nb) for b in range(1, nb))
              for family, nb in _N_BOUNDARY.items()}


def _birth_faces(parent: np.ndarray, letter: np.ndarray, family: str) -> np.ndarray:
    """The corners of each internal vertex's birth face, one row per vertex
    in preorder, in the order ``_SPLIT`` gives them, from the parent and
    letter of each internal node.

    Each corner of each birth face is a cell.  The root face's cells hold
    their vertices.  A child face's cell holds its parent's vertex or
    points to a cell of the parent's face, as ``_SPLIT`` applied to the
    corner numbers says.  Pointer jumping then takes every cell to the cell
    holding its vertex, in about log2 of the height rounds, each a numpy
    step over the cells not there yet.
    """
    split = _SPLIT[family][0]
    root = _ROOT_FACE[family]
    f, K = len(root), len(parent)
    # source[l - 1, j]: the parent's corner that is corner j of child l, -1
    # for the parent's vertex
    source = np.array(split(tuple(range(f)), -1), dtype=np.int64)
    ptr = np.empty((K, f), dtype=np.int64)  # cell f * r + j: corner j of node r
    ptr[:1] = np.arange(f)
    np.take(source, letter[1:] - 1, axis=0, out=ptr[1:])
    held = ptr < 0
    held[:1] = True
    ptr[1:] += f * parent[1:, None]
    ptr, held = ptr.ravel(), held.ravel()
    ptr[held] = np.flatnonzero(held)
    todo = np.flatnonzero(~held)
    while todo.size:
        ptr[todo] = ptr[ptr[todo]]
        todo = todo[~held[ptr[todo]]]
    # a cell of node r > 0 that holds a vertex holds that of its parent
    vertex = np.concatenate((root, np.repeat(_N_BOUNDARY[family] + parent[1:], f)))
    return vertex[ptr].reshape(K, f)


def _checked_links(parent, letter, family: str) -> tuple[np.ndarray, np.ndarray]:
    """The parent and letter arrays as int64.  ValueError on an unknown
    family, on an entry that is not an integer (integral floats are
    taken), or unless the root comes first and every other node's parent
    comes before it with a letter in 1..arity; that the arrays list a
    tree's nodes in preorder is not checked."""
    k = _arity(family)
    parent, letter = np.asarray(parent), np.asarray(letter)
    for links in (parent, letter):  # the int64 cast would truncate a fraction
        if links.dtype.kind not in "biu" and (links.dtype.kind != "f" or (links % 1 != 0).any()):
            raise ValueError("links hold an entry that is not an integer")
    parent, letter = parent.astype(np.int64, copy=False), letter.astype(np.int64, copy=False)
    K = len(parent)
    if (len(letter) != K or (K and parent[0] != -1)
            or not ((0 <= parent[1:]) & (parent[1:] < np.arange(1, K))).all()
            or not ((1 <= letter[1:]) & (letter[1:] <= k)).all()):
        raise ValueError("links are not a tree's parents and letters in preorder")
    return parent, letter


def csr_from_links(parent, letter, family: str) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, indices) of the map of the tree given by the
    parent and letter of each internal node in preorder, as
    ``IncreasingTree.links`` and ``trees.preorder_links`` give them.
    Vertex ids: boundary first, then internal nodes in preorder.

    ValueError as in ``_checked_links``.
    """
    parent, letter = _checked_links(parent, letter, family)
    k, nb, K = _ARITY[family], _N_BOUNDARY[family], len(parent)
    corners = _birth_faces(parent, letter, family)[:, _SPLIT[family][1]].ravel()
    n = nb + K
    # row v is its head (a boundary vertex's two ring neighbours, an internal
    # vertex's birth corners), then its tail: the later vertices born with v
    # as a corner, in increasing order
    head = np.full(n, k, dtype=np.int64)
    head[:nb] = 2
    tail = np.bincount(corners, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(head + tail, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[indptr[:nb, None] + np.arange(2)] = _RING_ROWS[family]
    indices[indptr[nb:n, None] + np.arange(k)] = corners.reshape(-1, k)
    # a stable sort by corner keeps each corner's vertices in birth order;
    # the j-th pair in that order lands at tail_start[corner] + j
    order = _stable_argsort(corners)
    tail_start = indptr[:-1] + head - (np.cumsum(tail) - tail)
    indices[tail_start[corners[order]] + np.arange(len(corners))] = order // k + nb
    return indptr, indices


def csr_from_offspring(offspring, family: str) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, indices) of the map of the tree given as a
    preorder offspring sequence: ``csr_from_links`` of its links.

    This is the one map builder from offspring: ``StackMap`` keeps its
    result, ``adjacency_from_offspring`` reads its rows, and Monte-Carlo
    code runs BFS on it straight from sampled offspring arrays.
    """
    return csr_from_links(*preorder_links(_arity(family), offspring), family)


def adjacency_from_offspring(offspring, family: str) -> list[list[int]]:
    """Adjacency lists of the map of the tree given as a preorder offspring
    sequence: the rows of ``csr_from_offspring``, as Python lists."""
    return _rows(*csr_from_offspring(offspring, family))


def _rows(indptr, indices) -> list[list[int]]:
    """The rows of a CSR pair as Python lists."""
    flat, ends = indices.tolist(), indptr.tolist()
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


def csgraph_from_adjacency(adj) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (indptr, indices) of adjacency lists, such as a
    ``StackMap.adjacency``, including one edited by hand.  Raises
    NotStackMapError if a row lists an id outside 0..n-1."""
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=int(indptr[-1]))
    if (bad := (indices < 0) | (indices >= n)).any():
        p = bad.argmax()
        u = np.searchsorted(indptr, p, side="right") - 1
        raise NotStackMapError(f"vertex {u} lists {indices[p]}, not a vertex id (outside 0..{n - 1})")
    return indptr, indices


def _edges(graph) -> np.ndarray:
    """The edges of a CSR pair as rows (u, v) with u < v, in CSR row order:
    each edge once, from the row of its smaller end."""
    indptr, indices = graph
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    keep = rows < indices
    return np.stack((rows[keep], indices[keep]), axis=1)


def _bfs(graph, sources) -> np.ndarray:
    """Distances from each source to every vertex, one row per source; -1
    marks a vertex the source cannot reach.

    All sources run together as one frontier BFS over (row, vertex) pairs,
    held as flat keys row * n + vertex into the distance array.  Each level
    is one numpy step: gather the CSR ranges of the frontier, drop visited
    keys and dedupe the rest.  The dedupe needs no sort: every candidate
    writes its position into its still-unvisited distance slot (as -2 - pos,
    below the unvisited mark -1), and a key survives only at the position
    whose write stuck.
    """
    indptr, indices = graph
    n = len(indptr) - 1
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if sources.size and not 0 <= sources.min() <= sources.max() < n:
        raise ValueError(f"source ids must be vertex ids in 0..{n - 1}")
    dist = np.full(sources.size * n, -1, dtype=np.int64)
    frontier = np.arange(sources.size, dtype=np.int64) * n + sources
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        v = frontier % n
        start = indptr[v]
        count = indptr[v + 1] - start
        ends = np.cumsum(count)
        shift = np.repeat(start - (ends - count), count)
        keys = np.repeat(frontier - v, count) + indices[np.arange(ends[-1]) + shift]
        keys = keys[dist[keys] == -1]
        tags = -2 - np.arange(keys.size, dtype=np.int64)
        dist[keys] = tags
        frontier = keys[dist[keys] == tags]
        dist[frontier] = level
    return dist.reshape(sources.size, n)


def bfs_distances_from(graph, source: int) -> np.ndarray:
    """BFS distances from one source on a CSR pair (indptr, indices), as
    ``csr_from_links`` or ``csgraph_from_adjacency`` give it."""
    return _bfs(graph, [source])[0]


# ---------------------------------------------------------------------------
# distances


def distance_matrix(m: StackMap, sources=None) -> np.ndarray:
    """BFS distances from the given source ids (default: all) to every
    vertex, as an integer matrix with one row per source."""
    return _bfs(m.graph, range(m.n_vertices) if sources is None else sources)


def bfs_distance(m: StackMap, u: int, v: int) -> int:
    if not 0 <= v < m.n_vertices:
        raise ValueError(f"vertex {v} is not a vertex id 0..{m.n_vertices - 1}")
    return int(distance_matrix(m, sources=[u])[0, v])


# Exact distances from the face tree alone.  A face's corner cycle separates
# the vertices inside it from the rest of the map, so a shortest path from a
# vertex inside a face to any point outside it leaves through a corner.  A
# vertex's distances to the f + 1 points of the face of an ancestor node
# (its f corners, then the node's vertex) therefore give those to the points
# of the parent's face: each corner of the child face is a point of the
# parent's face (``_SPLIT``), and the distances between the points of one
# face are a fixed metric, the same in the whole map as in the face's cycle
# with its vertex joined to the joined corners (tri: all 1; quad: a pair at
# distance 2 there has the same colour in the bipartite map, so is not
# adjacent).


@cache
def _lift_table(family: str) -> tuple[np.ndarray, np.ndarray]:
    """``(metric, lift)``: the (f+1)×(f+1) metric on a face's corners and
    its vertex (point f), and ``lift[l - 1, j]``, the metric's row of the
    point of the parent's face that is corner j of child l."""
    split, attach, _ = _SPLIT[family]
    f = _N_BOUNDARY[family]
    ring = np.arange(f)
    metric = np.full((f + 1, f + 1), f + 1, dtype=np.int64)
    np.fill_diagonal(metric, 0)
    metric[ring, (ring + 1) % f] = metric[(ring + 1) % f, ring] = 1
    metric[f, ring[attach]] = metric[ring[attach], f] = 1
    for p in range(f + 1):  # Floyd-Warshall on the face and its vertex
        metric = np.minimum(metric, metric[:, p, None] + metric[p])
    return metric, metric[np.array(split(tuple(ring), f))]


def pair_distances(parent, letter, family: str, u, v) -> np.ndarray:
    """Map distances between the vertices of internal nodes u[i] and v[i],
    read off the face tree given by its links, with no map built.  Node ids
    index the links as given: on preorder links, as ``csr_from_links``
    reads them, node r is vertex n_boundary + r, but any order that lists
    each parent before its children will do.  The result has the shape of
    u.  ValueError on bad links or an unknown family (as
    in ``_checked_links``), on shapes of u and v that differ, or on a node
    id outside 0..K-1.

    Each side holds a vertex's distances to the points of the face of one
    of its ancestors, at first its own node (the metric's vertex row).  A
    lift moves it to the parent's face: E'[q] = min_j E[j] + metric[s_j, q]
    over the corners j of the current face, s_j their points in the
    parent's.  Each node's parent comes before it, so of two distinct nodes
    the later one is no ancestor of the other: lifting it never passes
    their LCA.  One numpy step lifts the later side of every pair still
    apart.  At the LCA, d(u, v) = min_q E_u[q] + E_v[q]: a path between two
    child faces passes through the corners of both, and if v is the LCA,
    E_v is its vertex row and the minimum is E_u at v.
    """
    parent, letter = _checked_links(parent, letter, family)
    u, v = np.asarray(u), np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"node id arrays have different shapes {u.shape} and {v.shape}")
    K = len(parent)
    for ids in (u, v):
        if ids.size and (ids.dtype.kind not in "iu" or not 0 <= ids.min() <= ids.max() < K):
            raise ValueError(f"node ids must be integers in 0..{K - 1}")
    metric, lift = _lift_table(family)
    f = len(metric) - 1
    node = np.stack((u.ravel(), v.ravel()), axis=1).astype(np.int64)
    dist = np.broadcast_to(metric[f], node.shape + (f + 1,)).copy()
    todo = np.flatnonzero(node[:, 0] != node[:, 1])
    while todo.size:
        side = (node[todo, 1] > node[todo, 0]).astype(np.intp)
        r = node[todo, side]
        dist[todo, side] = (dist[todo, side, :f, None] + lift[letter[r] - 1]).min(axis=1)
        node[todo, side] = parent[r]
        todo = todo[node[todo, 0] != node[todo, 1]]
    return (dist[:, 0] + dist[:, 1]).min(axis=1).reshape(u.shape)


# ---------------------------------------------------------------------------
# degrees through the tree


def degree_via_tree(t: OrderedTree, u: Word, family: str) -> int:
    """Vertex degree read off the tree, without building the map.

    Triangulation: 3 plus the number of internal descendants u·w where w
    starts with some letter i and then avoids i.  Quadrangulation: 2 plus
    the number of internal descendants whose face still holds the vertex on
    its active diagonal (position automaton ``_degree_table``; accepted words
    are exactly {1,2} ∪ {1,2}{1,2}1({1,2}2)*).
    """
    return _degree(t.offspring, t.index_of(tuple(u)), family)


# Word automata as transition tables (next, accept): state 0 is the start,
# next[arity * state + letter - 1] is the state after reading the letter
# (None: no extension is accepted), and accept[state] says whether a word
# ending in that state is accepted.


@cache
def _degree_table(family: str):
    """The family's degree automaton, read off its subdivision rule on
    first use: state 0 is the node's vertex, state 1 + p that vertex at
    corner p of the current face.  Letter l moves it to its corner in child
    l (None if child l lacks it), and subdividing the face gives it an edge
    iff p is joined."""
    split, attach, _ = _SPLIT[family]
    states = range(-1, _N_BOUNDARY[family])
    source = split(tuple(states[1:]), -1)  # the new vertex is corner -1
    nxt = tuple(1 + c.index(p) if p in c else None for p in states for c in source)
    return nxt, tuple(p in states[1:][attach] for p in states)


def _degree(offspring, i: int, family: str) -> int:
    """Map degree of the vertex of internal node i: the arity (its birth
    edges) plus the internal descendants the family's automaton accepts.
    ValueError if i is a leaf, which has no vertex, or no node id.  The walk
    reads a memoryview, whose entries are Python ints, as a list's are."""
    k = _arity(family)
    if not 0 <= i < len(offspring):
        raise ValueError(f"node {i} is not a node id 0..{len(offspring) - 1}")
    if not offspring[i]:
        raise ValueError(f"node {i} is a leaf, which has no vertex")
    if offspring[i] != k:  # read before the int64 cast, which would truncate 3.5
        raise ValueError(f"node {i} has {offspring[i]} children; a {family} node has {k}")
    walk = memoryview(np.ascontiguousarray(offspring, dtype=np.int64))
    return k + _count_accepted(walk, i, k, _degree_table(family))


def _count_accepted(offspring, i: int, arity: int, table) -> int:
    """Count the internal strict descendants of node i whose connecting
    word the automaton ``table`` accepts, walking only the subtree of i on
    the flat preorder offspring array.  A None next state is dead (no
    extension of the word is accepted), so the walk skips that subtree."""
    if not offspring[i]:
        return 0  # a leaf: the walk below would read past its subtree
    nxt, accept = table
    count = 0
    # stack of (state, children_left) per open ancestor inside the subtree
    stack = [(0, offspring[i])]
    j = i
    while stack:
        j += 1
        state, left = stack[-1]
        stack[-1] = (state, left - 1)
        c = offspring[j]
        if c:
            # the child's letter is arity - left + 1
            new_state = nxt[arity * state + arity - left]
            if new_state is None:
                j = _subtree_end(offspring, j) - 1
            else:
                if accept[new_state]:
                    count += 1
                stack.append((new_state, c))
        while stack and stack[-1][1] == 0:
            stack.pop()
    return count


# ---------------------------------------------------------------------------
# the birth faces again: rotation system and canonical drawing


def rotation_system(m: StackMap) -> list[dict[int, int]]:
    """Rotation system of m: ``rot[v][u]`` is the neighbour after u in the
    counterclockwise order around v.  It comes from the subdivisions alone:
    inserting x in a face puts x, at each joined corner v, between v's two
    neighbours on the face (in the face's orientation), and x's own order
    is its joined corners in face order."""
    rot = [{u: v, v: u} for u, v in _RING_ROWS[m.family]]
    _, attach, flips = _SPLIT[m.family]
    parent, letter = preorder_links(m.arity, m.tree.offspring)
    faces = _birth_faces(parent, letter, m.family)
    # a face runs clockwise if an odd number of faces on its root path flip
    cw = _root_path_sum(np.maximum(parent, 0), np.array((0,) + flips)[letter]) % 2 == 1
    # the same corners counterclockwise, the joined ones in place
    faces[cw, 1:] = faces[cw, :0:-1]
    for x, face in enumerate(faces.tolist(), m.n_boundary):
        k = len(face)
        for i in range(k)[attach]:
            s, p = rot[face[i]], face[(i + 1) % k]
            s[x], s[p] = s[p], x
        joined = face[attach]
        rot.append(dict(zip(joined, joined[1:] + joined[:1])))
    return rot


TRI_CORNERS = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, np.sqrt(3.0) / 2.0)}
QUAD_CORNERS = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}


def canonical_drawing(m: StackMap) -> dict[int, tuple[float, float]]:
    """Vertex coordinates for SVG: fixed boundary (unit triangle or unit
    square), every internal vertex at the centroid of its birth face.
    Floats collapse deep nests (the triangulation path 1^60 puts 63
    vertices at 37 points); combinatorial code reads ``rotation_system``."""
    pos = dict(TRI_CORNERS if m.family == TRIANGULATION else QUAD_CORNERS)
    faces = _birth_faces(*preorder_links(m.arity, m.tree.offspring), m.family)
    for x, face in enumerate(faces.tolist(), m.n_boundary):
        pos[x] = tuple(sum(c) / len(face) for c in zip(*(pos[v] for v in face)))
    return pos


SVG_SIZE = 600  # width and height of the SVG viewBox


def to_svg(m: StackMap) -> str:
    """Straight-line SVG rendering of the canonical drawing; the root edge
    is highlighted."""
    pos = canonical_drawing(m)
    pad = 0.05

    def xy(v):
        x, y = pos[v]
        return ((x + pad) / (1 + 2 * pad) * SVG_SIZE,
                SVG_SIZE - (y + pad) / (1 + 2 * pad) * SVG_SIZE)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
    ]
    for u, v in _edges(m.graph).tolist():
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
