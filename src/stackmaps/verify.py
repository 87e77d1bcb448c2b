"""Invariant suites behind `stackmaps verify`.

Each check has a stable ID and returns (id, ok, detail).  `quick` keeps
exhaustive sweeps small; `full` pushes them to the documented depths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import fragmentation, localtopo, maps, stats, trees
from .counting import count_trees
from .passage import (gamma, gamma_pair, quad_root_distance, quad_type, root_distances, tri_root_distance,
                      tri_type)


def _all_words(arity, max_len):
    for L in range(max_len + 1):
        yield from itertools.product(range(1, arity + 1), repeat=L)


def check_enum_counts(level, mx):
    n_max = 5 if level == "quick" else 6
    for n in range(n_max + 1):
        if len(trees.enumerate_trees(3, n)) != count_trees(3, n):
            return False, f"ternary n={n}"
    for n in range(n_max + 3):
        if len(trees.enumerate_trees(2, n)) != count_trees(2, n):
            return False, f"binary n={n}"
    return True, f"n<={n_max}"


def check_gamma_eq_type(level, mx):
    depth = 7 if level == "quick" else 10
    bad = sum(
        1 for w in _all_words(3, depth) if gamma(w) != tri_root_distance(w)
    )
    return bad == 0, f"depth<={depth}"


def check_tri_type_invariant(level, mx):
    depth = 8 if level == "quick" else 12
    for w in _all_words(3, depth):
        i, j, k = sorted(tri_type(w))
        if not (i == j == k or i == j == k - 1 or i == j - 1 == k - 1):
            return False, str(w)
    return True, f"depth<={depth}"


def check_quad_parity(level, mx):
    depth = 10 if level == "quick" else 16
    for w in _all_words(2, depth):
        a, b, c, d = quad_type(w)
        if (a - c) % 2 or (b - d) % 2 or (a - b) % 2 == 0:
            return False, str(w)
    return True, f"depth<={depth}"


def _exhaustive_maps(mx, families=tuple(maps._ARITY)):
    """(family, n, tree, map) for every tree with n <= mx internal nodes,
    family by family, n by n, the trees in enumeration order."""
    for fam in families:
        for n in range(mx + 1):
            for t in trees.enumerate_trees(maps._ARITY[fam], n):
                yield fam, n, t, maps.map_from_tree(t, fam)


def check_roundtrip(level, mx):
    for fam, n, t, m in _exhaustive_maps(mx):
        if maps.tree_from_map(m) != t:
            return False, f"{fam} n={n}"
    return True, f"exhaustive n<={mx}"


def check_euler(level, mx):
    rng = trees.rng_from_seed(0)
    m = maps.theta()
    for _ in range(40):
        faces = m.leaf_faces()
        m = maps.grow(m, faces[int(rng.integers(len(faces)))])
        K = m.n_insertions + 1
        if not (m.n_vertices == K + 2 and m.n_edges == 3 * K and len(m.leaf_faces()) == 2 * K - 1):
            return False, f"at {m.n_insertions} insertions"
    return True, "40 growth steps"


def check_root_distance(level, mx):
    root_distance = {maps.TRIANGULATION: gamma, maps.QUADRANGULATION: quad_root_distance}
    for fam, _, t, m in _exhaustive_maps(mx):
        d = maps.distance_matrix(m, sources=[0])[0]
        for w in t.internal_words():
            if d[m.vertex_of(w)] != root_distance[fam](w):
                return False, f"{fam} {w}"
    return True, f"exhaustive n<={mx}"


def check_root_distances(level, mx):
    for fam, n, t, m in _exhaustive_maps(mx):
        links = trees.preorder_links(t.arity, t.offspring)
        if not np.array_equal(root_distances(*links, fam), maps.distance_matrix(m, [0])[0][m.n_boundary:]):
            return False, f"{fam} n={n}"
    return True, f"exhaustive n<={mx}"


def check_pair_bound(level, mx):
    for _, _, t, m in _exhaustive_maps(mx, (maps.TRIANGULATION,)):
        D = maps.distance_matrix(m)
        for a, b in itertools.combinations(t.internal_words(), 2):
            if a == b[: len(a)] or b == a[: len(b)]:
                continue
            if abs(D[m.vertex_of(a), m.vertex_of(b)] - gamma_pair(a, b)) > 4:
                return False, f"{a},{b}"
    return True, f"exhaustive n<={mx}"


def check_pair_distance(level, mx):
    for fam, n, t, m in _exhaustive_maps(mx):
        D = maps.distance_matrix(m)[m.n_boundary:, m.n_boundary:]
        links = trees.preorder_links(t.arity, t.offspring)
        if not np.array_equal(maps.pair_distances(*links, fam, *np.indices(D.shape)), D):
            return False, f"{fam} n={n}"
    return True, f"exhaustive n<={mx}"


def check_degrees(level, mx):
    for fam, _, t, m in _exhaustive_maps(mx):
        for w in t.internal_words():
            if m.degree(m.vertex_of(w)) != maps.degree_via_tree(t, w, fam):
                return False, f"{fam} {w}"
    return True, f"exhaustive n<={mx}"


def check_mean_degree(level, mx):
    rng = trees.rng_from_seed(3)
    for n in (5, 40, 200):
        t = trees.sample_uniform_tree(3, n, rng)
        m = maps.map_from_tree(t, maps.TRIANGULATION)
        mean = Fraction(2 * m.n_edges, m.n_vertices)
        n_faces = m.n_insertions + 1
        if mean != Fraction(6 * n_faces, n_faces + 2):
            return False, f"n={n}"
    return True, "3 sampled maps"


def check_histories(level, mx):
    from .counting import count_histories, histories_total

    for K in range(1, mx + 2):
        s = sum(count_histories(t) for t in trees.enumerate_trees(3, K))
        if s != histories_total(K):
            return False, f"K={K}"
    return True, f"K<={mx + 1}"


def check_forest_consistency(level, mx):
    from .counting import count_forests

    for n in range(8):
        if count_forests(3, 1, 3 * n + 1) != count_trees(3, n):
            return False, f"ter n={n}"
        if count_forests(2, 1, 2 * n + 1) != count_trees(2, n):
            return False, f"bin n={n}"
    return True, "n<=7"


def check_pmf_sums(level, mx):
    for pmf in (stats.pmf_limit_deg_first, stats.pmf_limit_deg_uniform):
        s = sum(pmf(k) for k in range(4000))
        if abs(s - 1.0) > 1e-9:
            return False, pmf.__name__
    # the subtree-size tail decays like k^(-3/2); sum the head and bound the
    # tail analytically by sqrt(3/pi)/sqrt(K)
    K = 10**5
    s = sum(stats.pmf_subtree_size(k) for k in range(1, K))
    tail = (3 / 3.141592653589793) ** 0.5 / K**0.5
    if abs(s + tail - 1.0) > 1e-4:
        return False, "pmf_subtree_size"
    for n in range(4, 11):
        if sum(stats.pmf_finite_deg_first_exact(n, k) for k in range(n)) != 1:
            return False, f"finite n={n}"
    for n, j in ((5, 2), (6, 1), (6, 4)):
        if sum(stats.pmf_urn_exact(n, j, k) for k in range(n - j + 1)) != 1:
            return False, f"urn {n},{j}"
    return True, ""


def check_finite_deg_exhaustive(level, mx):
    hist = {}
    for t in trees.enumerate_trees(3, 3):
        m = maps.map_from_tree(t, maps.TRIANGULATION)
        k = m.degree(3) - 3
        hist[k] = hist.get(k, 0) + 1
    total = sum(hist.values())
    for k in range(4):
        if Fraction(hist.get(k, 0), total) != stats.pmf_finite_deg_first_exact(4, k):
            return False, f"k={k}"
    return True, "maps with 8 faces"


def check_urn_shift(level, mx):
    shift = stats.urn_index_shift(4 if level == "quick" else 5)
    return shift == 1, f"shift={shift}"


def check_frag_equality(level, mx):
    kmax = 6 if level == "quick" else 8
    for m in range(kmax + 1):
        for k1 in range(m + 1):
            for k2 in range(m - k1 + 1):
                k3 = m - k1 - k2
                a = fragmentation.shape_pmf_momentdir(k1, k2, k3)
                b = float(fragmentation.shape_pmf_q_exact(k1, k2, k3))
                if abs(a - b) > 1e-10 * max(b, 1e-300):
                    return False, f"{(k1, k2, k3)}"
    return True, f"compositions of <= {kmax}"


def check_frag_partition(level, mx):
    rng = trees.rng_from_seed(11)
    ft = fragmentation.build_fragmentation_tree(3, 200, rng)
    # the leaves tile [0, 1) exactly: each ends where the next begins
    ends = sorted((ft.lo[s + 1], ft.hi[s + 1]) for s in ft.leaves())
    ok = (ends[0][0] == 0.0 and ends[-1][1] == 1.0 and all(a <= b for a, b in ends)
          and all(b == a for (_, b), (a, _) in zip(ends, ends[1:])))
    return ok, "K=200"


def check_ball_monotone(level, mx):
    rng = trees.rng_from_seed(5)
    t = trees.sample_uniform_tree(3, 60, rng)
    prev = set()
    for r in range(6):
        ball = localtopo.gamma_ball(t, r)
        if not prev <= ball:
            return False, f"r={r}"
        prev = ball
    return True, "r<=5"


def check_ultrametric(level, mx):
    m0 = maps.theta()
    m1 = maps.grow(m0, ())
    m2 = maps.grow(m1, (1,))
    m3 = maps.grow(m1, (2,))
    fixtures = [m0, m1, m2, m3]
    for a, b, c in itertools.permutations(fixtures, 3):
        dab = localtopo.local_distance(a, b)
        if dab > max(localtopo.local_distance(a, c), localtopo.local_distance(c, b)) + 1e-12:
            return False, "triple"
    return True, "4-map fixture set"


def check_drawing_planar(level, mx):
    rng = trees.rng_from_seed(9)
    n = 60 if level == "quick" else 200
    for fam, arity in maps._ARITY.items():
        t = trees.sample_uniform_tree(arity, n, rng)
        m = maps.map_from_tree(t, fam)
        pos = maps.canonical_drawing(m)
        edges = maps._edges(m.graph).tolist()
        for (a, b), (c, d) in itertools.combinations(edges, 2):
            if {a, b} & {c, d}:
                continue
            if _segments_cross(pos[a], pos[b], pos[c], pos[d]):
                return False, f"{fam} edges {(a, b)} x {(c, d)}"
    return True, f"n={n} both families"


def rotation_defect(m, rot) -> str:
    """Empty if ``rot`` (as from ``maps.rotation_system``) is planar, V - E
    + F = 2, with every face the root face's size; else what fails.  The
    face of the dart u -> v goes on to (v, rot[v][u])."""
    indptr, indices = m.graph
    flat, ends = indices.tolist(), indptr.tolist()
    if [sorted(s) for s in rot] != [sorted(flat[a:b]) for a, b in zip(ends, ends[1:])]:
        return "the rotations do not list the neighbours"
    nxt = {(u, v): (v, w) for v, s in enumerate(rot) for u, w in s.items()}
    sizes = []
    while nxt:
        dart, size = next(iter(nxt)), 0
        while dart in nxt:
            dart, size = nxt.pop(dart), size + 1
        sizes.append(size)
    chi = m.n_vertices - m.n_edges + len(sizes)
    if chi != 2:
        return f"V - E + F = {chi}"
    return next((f"a face of size {k}" for k in sizes if k != m.n_boundary), "")


def check_rotation_planar(level, mx):
    rng = trees.rng_from_seed(9)
    n, k = (60, 200) if level == "quick" else (200, 2000)
    for fam, a in maps._ARITY.items():
        path = trees.OrderedTree(a, [a] * k + [0] * ((a - 1) * k + 1))  # internal: 1^j, j < k
        for t in (trees.sample_uniform_tree(a, n, rng), path):
            m = maps.map_from_tree(t, fam)
            if bad := rotation_defect(m, maps.rotation_system(m)):
                return False, f"{fam} {len(t)} nodes: {bad}"
    return True, f"n={n} and the path 1^{k}, both families"


def _segments_cross(p, q, r, s) -> bool:
    def orient(a, b, c):
        v = float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        return (1 if v > 1e-12 else 0) - (1 if v < -1e-12 else 0)

    return (
        orient(p, q, r) * orient(p, q, s) < 0
        and orient(r, s, p) * orient(r, s, q) < 0
    )


CHECKS = [
    ("trees.enum-counts", check_enum_counts),
    ("passage.gamma-eq-type", check_gamma_eq_type),
    ("passage.tri-type-invariant", check_tri_type_invariant),
    ("passage.quad-parity", check_quad_parity),
    ("passage.root-distance", check_root_distances),
    ("maps.euler", check_euler),
    ("maps.roundtrip", check_roundtrip),
    ("maps.root-distance", check_root_distance),
    ("maps.pair-bound", check_pair_bound),
    ("maps.pair-distance", check_pair_distance),
    ("maps.degrees", check_degrees),
    ("maps.mean-degree", check_mean_degree),
    ("maps.drawing-planar", check_drawing_planar),
    ("maps.rotation-planar", check_rotation_planar),
    ("counting.histories", check_histories),
    ("counting.forest-consistency", check_forest_consistency),
    ("stats.pmf-sums", check_pmf_sums),
    ("stats.finite-degree-exhaustive", check_finite_deg_exhaustive),
    ("stats.urn-index-shift", check_urn_shift),
    ("frag.pmf-equality", check_frag_equality),
    ("frag.interval-partition", check_frag_partition),
    ("localtopo.ball-monotone", check_ball_monotone),
    ("localtopo.ultrametric", check_ultrametric),
]


def run_all(level: str = "quick", max_exhaustive: int = 4):
    out = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(level, max_exhaustive)
        except Exception as e:  # noqa: BLE001 - verification must report, not crash
            ok, detail = False, f"{type(e).__name__}: {e}"
        out.append((name, ok, detail))
    return out
