"""Local topology: rooted-ball distance, passage-function balls, and the
spine sampler approximating the local limit of large uniform trees.

Infinite objects are never materialized: the spine sampler takes the target
ball radius and prunes every branch whose face type already guarantees that
no descendant vertex can re-enter the ball.
"""

from __future__ import annotations

import math

from . import maps as maps_mod
from .maps import StackMap, canonical_drawing, distance_matrix
from .passage import quad_root_distance, quad_type, tri_root_distance, tri_type
from .trees import CapExceeded, OrderedTree, Word


# ---------------------------------------------------------------------------
# local distance


def local_distance(a, b) -> float:
    """1/(1+k) where k is the largest radius at which the rooted balls of a
    and b coincide; 0 when the objects are equal.  Works on two trees or
    two maps (mixing kinds is an error)."""
    if isinstance(a, OrderedTree) and isinstance(b, OrderedTree):
        if a == b:
            return 0.0
        k = 0
        while _tree_ball(a, k + 1) == _tree_ball(b, k + 1):
            k += 1
        return 1.0 / (1.0 + k)
    if isinstance(a, StackMap) and isinstance(b, StackMap):
        if a.family != b.family:
            raise TypeError("cannot compare maps of different families")
        if a == b:
            return 0.0
        k = 0
        while map_ball_code(a, k + 1) == map_ball_code(b, k + 1):
            k += 1
        return 1.0 / (1.0 + k)
    raise TypeError("local_distance needs two trees or two maps")


def _tree_ball(t: OrderedTree, r: int):
    return frozenset(w for w in t.words() if len(w) <= r)


def map_ball_code(m: StackMap, r: int):
    """Canonical code of the radius-r ball around the root vertex: the
    induced subgraph on vertices at distance <= r, encoded by a traversal
    that follows the planar rotation order anchored at the root edge.

    Two balls get the same code iff they are isomorphic as rooted planar
    maps, so the code is safe to compare across maps.
    """
    dist = distance_matrix(m, sources=[0])[0]
    inside = {v for v in range(m.n_vertices) if dist[v] <= r}
    pos = canonical_drawing(m)

    def rotation(v):
        nbrs = [w for w in m.adjacency[v] if w in inside]
        x0, y0 = pos[v]
        return sorted(nbrs, key=lambda w: math.atan2(pos[w][1] - y0, pos[w][0] - x0))

    rot = {v: rotation(v) for v in inside}
    # BFS assigning canonical labels; at each vertex enumerate neighbors in
    # rotation order starting from the arrival edge
    label = {0: 0}
    order = [0]
    arrival = {0: m.root_edge[1] if m.root_edge[1] in inside else None}
    i = 0
    code = []
    while i < len(order):
        v = order[i]
        i += 1
        nbrs = rot[v]
        if arrival[v] is not None and arrival[v] in nbrs:
            k = nbrs.index(arrival[v])
            nbrs = nbrs[k:] + nbrs[:k]
        entry = []
        for w in nbrs:
            if w not in label:
                label[w] = len(order)
                order.append(w)
                arrival[w] = v
            entry.append(label[w])
        code.append(tuple(entry))
    return tuple(code)


# ---------------------------------------------------------------------------
# passage-function balls


#: face-type fold of each arity
_FOLD = {3: tri_type, 2: quad_type}


def gamma_ball(t: OrderedTree, r: int) -> set[Word]:
    """All nodes of t whose passage value is at most r.  Uses monotonicity
    of the minimum face-corner distance to prune whole subtrees."""
    fold = _FOLD[t.arity]
    dist = tri_root_distance if t.arity == 3 else quad_root_distance
    out: set[Word] = set()
    words = t.words()
    skip_end = -1
    for i, w in enumerate(words):
        if i < skip_end:
            continue
        if dist(w) <= r:
            out.add(w)
        elif 1 + min(fold(w)) > r:
            skip_end = t.subtree_end(i)
    return out


def sample_spine_tree(arity: int, r: int, rng, cap: int = 10**6,
                      return_spine: bool = False):
    """Finite truncation of the local limit of large uniform trees: a spine
    of i.i.d. uniform letters dressed with independent critical GW trees on
    the off-spine children, grown until the spine tip reaches a face beyond
    the radius-r passage ball (every corner at distance >= r, so no vertex
    inserted at or below it is in the ball).  Grafts are pruned the same
    way."""
    if r < 1:
        raise ValueError("r must be >= 1")
    fold = _FOLD[arity]
    internal: list[Word] = []
    budget = [cap]

    spine: Word = ()
    tp = fold(())
    while 1 + min(tp) <= r:
        internal.append(spine)
        letter = int(rng.integers(1, arity + 1))
        for other in range(1, arity + 1):
            if other != letter:
                _graft(arity, spine + (other,), fold((other,), tp), r, rng,
                       internal, budget)
        spine = spine + (letter,)
        tp = fold((letter,), tp)
    t = OrderedTree.from_internal_words(arity, internal)
    return (t, spine) if return_spine else t


def _graft(arity, word, tp, r, rng, internal, budget) -> None:
    """Critical GW tree rooted at ``word`` (face type ``tp``), truncated to
    a leaf wherever the minimum corner distance proves the subtree cannot
    meet the ball.  Iterative: children are pushed in reverse letter order,
    so nodes are visited, and draw from ``rng``, in preorder."""
    fold = _FOLD[arity]
    stack = [(word, tp)]
    while stack:
        word, tp = stack.pop()
        if min(tp) + 1 > r:
            continue
        if budget[0] <= 0:
            raise CapExceeded("spine graft exceeded node cap")
        budget[0] -= 1
        if rng.random() >= 1.0 / arity:
            continue  # leaf
        internal.append(word)
        for letter in range(arity, 0, -1):
            stack.append((word + (letter,), fold((letter,), tp)))


def infinite_map_ball(t: OrderedTree, r: int) -> StackMap:
    """Map of the tree truncated to the radius-r passage ball (internal
    nodes = ball members that are internal in t).  Successive radii give
    nested maps."""
    ball = gamma_ball(t, r)
    internal_t = set(t.internal_words())
    # the passage value is not monotone along branches (quadrangulations),
    # so close the selected internal nodes under taking parents
    chosen: set[Word] = set()
    for w in ball:
        if w in internal_t:
            while w not in chosen:
                chosen.add(w)
                if not w:
                    break
                w = w[:-1]
    family = maps_mod.TRIANGULATION if t.arity == 3 else maps_mod.QUADRANGULATION
    return maps_mod.map_from_tree(
        OrderedTree.from_internal_words(t.arity, chosen), family
    )
