"""Local topology: rooted-ball distance, passage-function balls, and the
spine sampler approximating the local limit of large uniform trees.

Infinite objects are never materialized: the spine sampler takes the target
ball radius and prunes every branch whose face type already guarantees that
no descendant vertex can re-enter the ball.  Trees are read as flat arrays
and maps through their rotation systems.
"""

from __future__ import annotations

import numpy as np

from . import maps as maps_mod
from . import passage
from .maps import StackMap, distance_matrix, rotation_system
from .trees import CapExceeded, IncreasingTree, OrderedTree, Word, _depths


# ---------------------------------------------------------------------------
# local distance


def local_distance(a, b) -> float:
    """1/(1+k) where k is the largest radius at which the rooted balls of a
    and b coincide; 0 when the objects are equal.  Works on two trees or
    two maps (mixing kinds is an error).

    Each object's depths (a map's distances and rotation system) are
    computed once.  Ball equality is monotone in the radius, and the balls
    differ once both objects are whole, so doubling and then bisection find
    k with O(log k) ball codes."""
    if isinstance(a, OrderedTree) and isinstance(b, OrderedTree):
        balls = _tree_balls
    elif isinstance(a, StackMap) and isinstance(b, StackMap):
        balls = _map_balls
    else:
        raise TypeError("local_distance needs two trees or two maps")
    if a.arity != b.arity:  # two single leaves would agree at every radius
        raise TypeError("cannot compare trees of different arities or maps of different families")
    if a == b:
        return 0.0
    (ball_a, top_a), (ball_b, top_b) = balls(a), balls(b)
    top = max(top_a, top_b)  # the balls differ here: both objects are whole

    def same(r: int) -> bool:
        return ball_a(r) == ball_b(r)

    lo, hi = 0, 1  # the balls agree at lo (vacuously at 0) and differ at hi
    while hi < top and same(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if same(mid):
            lo = mid
        else:
            hi = mid
    return 1.0 / (1.0 + lo)


def _tree_balls(t: OrderedTree):
    """(r -> ball code of t at radius r, height of t).  The code is the
    preorder offspring sequence of t cut at depth r: equal for two trees iff
    their nodes of depth <= r are."""
    offspring = t.offspring.tolist()
    depth = _depths(np.array(t.parent)).tolist()

    def ball(r: int) -> list[int]:
        return [c if d < r else 0 for c, d in zip(offspring, depth) if d <= r]

    return ball, max(depth)


def _map_balls(m: StackMap):
    """(r -> map_ball_code(m, r), eccentricity of the root vertex)."""
    dist = distance_matrix(m, sources=[0])[0].tolist()
    rot = rotation_system(m)
    return (lambda r: _ball_code(dist, rot, m.root_edge[1], r)), max(dist)


def map_ball_code(m: StackMap, r: int):
    """Canonical code of the radius-r ball around the root vertex: the
    induced subgraph on vertices at distance <= r, encoded by a traversal
    that follows the rotation system anchored at the root edge.

    Two balls get the same code iff they are isomorphic as rooted planar
    maps, so the code is safe to compare across maps.
    """
    return _map_balls(m)[0](r)


def _ball_code(dist, rot, first, r: int):
    # BFS from vertex 0 assigning canonical labels; at each vertex enumerate
    # neighbors in rotation order starting from the arrival edge (the root
    # edge's other end ``first`` at the root)
    label, order, code = {0: 0}, [0], []
    arrival = {0: first}
    for v in order:  # grows as vertices are labelled
        nbrs, w = [], arrival[v]
        for _ in rot[v]:
            if dist[w] <= r:
                nbrs.append(w)
            w = rot[v][w]
        for w in nbrs:
            if w not in label:
                label[w] = len(order)
                order.append(w)
                arrival[w] = v
        code.append(tuple(label[w] for w in nbrs))
    return tuple(code)


# ---------------------------------------------------------------------------
# passage-function balls


#: the family of each arity, whose ``passage._type_table`` gives the states
_FAMILY = {k: family for family, k in maps_mod._ARITY.items()}


def _root_state(arity: int) -> tuple[list, int]:
    """The root's state row and passage value in ``arity``'s face-type
    table; ValueError for an arity with none."""
    if arity not in _FAMILY:
        raise ValueError(f"arity must be {' or '.join(map(str, sorted(_FAMILY)))}, got {arity}")
    return passage._type_table(_FAMILY[arity])


def _ball_nodes(t: OrderedTree, r: int) -> list[int]:
    """Preorder indices of the nodes of t whose passage value is at most r,
    in one preorder pass that steps each node's state and passage value from
    its parent's and skips the subtree of a face whose every corner is
    beyond r (value + least entry of the reduced type > r)."""
    root, d = _root_state(t.arity)
    k, parent, letter = t.arity, t.parent, t.letter
    row, value = [root] * len(t), [d] * len(t)
    out, i = [], 0
    while i < len(t):
        if i:
            row[i], step = row[parent[i]][letter[i] - 1]
            value[i] = value[parent[i]] + step
        if value[i] <= r:
            out.append(i)
        elif value[i] + min(row[i][k]) > r:
            i = t.subtree_end(i)
            continue
        i += 1
    return out


def gamma_ball(t: OrderedTree, r: int) -> set[Word]:
    """All nodes of t whose passage value is at most r, as words."""
    return {t.word(i) for i in _ball_nodes(t, r)}


def sample_spine_tree(arity: int, r: int, rng, cap: int = 10**6):
    """Finite truncation of the local limit of large uniform trees: a spine
    of i.i.d. uniform letters dressed with independent critical GW trees on
    the off-spine children, grown until the spine tip reaches a face beyond
    the radius-r passage ball (every corner at distance >= r, so no vertex
    inserted at or below it is in the ball).  Grafts are pruned the same
    way.  Returns the tree, built by ``IncreasingTree`` from the slot each
    internal node fills in draw order, and the spine's word."""
    if r < 1:
        raise ValueError("r must be >= 1")
    row, d = _root_state(arity)
    slot: list[int] = []
    budget = [cap]
    spine: list[int] = []
    tip = -1  # slot of the spine tip
    while d + min(row[arity]) <= r:
        k = len(slot)
        slot.append(tip)
        letter = int(rng.integers(1, arity + 1))
        for other in range(1, arity + 1):
            if other != letter:
                child, step = row[other - 1]
                _graft(arity, arity * k + other - 1, child, d + step, r, rng, slot, budget)
        spine.append(letter)
        tip = arity * k + letter - 1
        row, step = row[letter - 1]
        d += step
    return IncreasingTree(arity, slot).shape(), tuple(spine)


def _graft(arity, s, row, d, r, rng, slot, budget) -> None:
    """Critical GW tree in slot ``s`` (state ``row``, passage value ``d``),
    truncated to a leaf wherever the least corner distance proves the
    subtree cannot meet the ball.  Iterative: children are pushed in reverse
    letter order, so nodes are visited, and draw from ``rng``, in preorder."""
    stack = [(s, row, d)]
    while stack:
        s, row, d = stack.pop()
        if d + min(row[arity]) > r:
            continue
        if budget[0] <= 0:
            raise CapExceeded("spine graft exceeded node cap")
        budget[0] -= 1
        if rng.random() >= 1.0 / arity:
            continue  # leaf
        k = len(slot)
        slot.append(s)
        for letter in range(arity, 0, -1):
            child, step = row[letter - 1]
            stack.append((arity * k + letter - 1, child, d + step))


def infinite_map_ball(t: OrderedTree, r: int) -> StackMap:
    """Map of the tree truncated to the radius-r passage ball (internal
    nodes = ball members that are internal in t).  Successive radii give
    nested maps."""
    # the passage value is not monotone along branches (quadrangulations),
    # so close the selected internal nodes under taking parents
    parent = t.parent
    chosen = bytearray(len(t))
    for i in _ball_nodes(t, r):
        while i >= 0 and t.offspring[i] and not chosen[i]:
            chosen[i] = 1
            i = parent[i]
    # the truncated tree: the root and every child of a chosen node
    offspring = [t.arity * chosen[i] for i in range(len(t)) if i == 0 or chosen[parent[i]]]
    return maps_mod.map_from_tree(OrderedTree(t.arity, offspring), _FAMILY[t.arity])
