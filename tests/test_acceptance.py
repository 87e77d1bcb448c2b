"""Acceptance gate: one test per numbered criterion, each printing a single
PASS/FAIL line to the terminal (bypassing capture).

Criterion 11 has two clauses.  11a checks the exact expected-degree
formula against exhaustive enumeration; 11b checks that the same formula
converges to its closed-form limit 3/sqrt(t) at j = t*n, and records that
3/(1-t), an earlier stated target (6 at t = 1/2), is not that limit.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from stackmaps.counting import count_histories, count_trees, histories_total
from stackmaps.fragmentation import shape_pmf_momentdir, shape_pmf_q_exact
from stackmaps.maps import (
    QUADRANGULATION,
    TRIANGULATION,
    csr_from_offspring,
    map_from_tree,
    tree_from_map,
)
from stackmaps.passage import (
    gamma_pair,
    gamma_prime_literal,
    quad_root_distance,
    tri_root_distance,
)
from stackmaps.stats import (
    GAMMA_RATE_TRI,
    enumerate_urn_pmf,
    expected_degree_growth,
    expected_degree_growth_exact,
    pmf_finite_deg_first_exact,
    run_experiment,
)
from stackmaps.trees import (
    enumerate_trees,
    height_process,
    lca,
    rng_from_seed,
    sample_uniform_tree,
    tree_distance,
)


def report(cid: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _bfs_rows(offspring, family, sources):
    # scipy stays an independent oracle: its Dijkstra runs on the map's CSR
    indptr, indices = csr_from_offspring(offspring, family)
    n = len(indptr) - 1
    g = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    return shortest_path(g, method="D", unweighted=True, indices=sources).astype(int)


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_enumeration_exactness():
    expected = [1, 1, 3, 12, 55, 273]
    ok = True
    for n in range(6):
        ts = enumerate_trees(3, n)
        ok &= len(ts) == count_trees(3, n) == expected[n]
        if n <= 4:
            maps = [map_from_tree(t, TRIANGULATION) for t in ts]
            ok &= len(set(maps)) == len(maps)
    report("01-enumeration", ok, f"|trees(3,n)| = {expected}, maps pairwise distinct")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_roundtrip():
    ok = True
    for family, arity in ((TRIANGULATION, 3), (QUADRANGULATION, 2)):
        for n in range(6):
            for t in enumerate_trees(arity, n, bound=6):
                ok &= tree_from_map(map_from_tree(t, family)) == t
        for rep in range(50):
            t = sample_uniform_tree(arity, 1000, rng_from_seed(20, rep))
            ok &= tree_from_map(map_from_tree(t, family)) == t
    report("02-roundtrip", ok,
           "tree_from_map∘map_from_tree = id, exhaustive ≤5 and 100×10^3 sampled")


# -- 3 ----------------------------------------------------------------------


def _tri_corpus():
    for n in range(1, 6):
        for t in enumerate_trees(3, n, bound=6):
            yield t
    for rep in range(20):
        yield sample_uniform_tree(3, 2000, rng_from_seed(30, rep))


def test_criterion_03_root_distance_identity():
    violations = 0
    for t in _tri_corpus():
        words = t.internal_words()
        d0 = _bfs_rows(t.offspring, TRIANGULATION, [0])[0]
        for i, u in enumerate(words):
            if d0[3 + i] != tri_root_distance(u):
                violations += 1
    report("03-root-distance", violations == 0,
           f"BFS(root,u) == Γ(u′) on full corpus, {violations} violations")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_pair_bound():
    violations = checked = 0
    for t in _tri_corpus():
        words = t.internal_words()
        n = len(words)
        if n <= 60:
            picks = list(range(n))
        else:
            rng = rng_from_seed(40, n)
            picks = sorted(set(int(x) for x in rng.integers(0, n, size=60)))
        D = _bfs_rows(t.offspring, TRIANGULATION, [3 + i for i in picks])
        for a in range(len(picks)):
            for b in range(a + 1, len(picks)):
                u, v = words[picks[a]], words[picks[b]]
                w = lca(u, v)
                if len(w) in (len(u), len(v)):
                    continue  # pair statistic undefined on ancestor pairs
                checked += 1
                if abs(D[a][3 + picks[b]] - gamma_pair(u, v)) > 4:
                    violations += 1
    report("04-pair-bound", violations == 0,
           f"|BFS(u,v) − Γ(u′,v′)| ≤ 4 on {checked} pairs, {violations} violations")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_quad_ground_truth():
    violations = 0
    lit_mismatches = 0
    corpus = [t for n in range(1, 6) for t in enumerate_trees(2, n, bound=6)]
    corpus += [sample_uniform_tree(2, 2000, rng_from_seed(50, rep)) for rep in range(20)]
    for t in corpus:
        words = t.internal_words()
        d0 = _bfs_rows(t.offspring, QUADRANGULATION, [0])[0]
        for i, u in enumerate(words):
            if d0[4 + i] != quad_root_distance(u):
                violations += 1
            if quad_root_distance(u) != gamma_prime_literal(u):
                lit_mismatches += 1
    fixture_ok = quad_root_distance((1, 1)) == 3 and gamma_prime_literal((1, 1)) == 2
    ok = violations == 0 and fixture_ok and lit_mismatches > 0
    report("05-quad-distance", ok,
           f"type-automaton distance exact ({violations} violations); literal block "
           f"statistic differs on {lit_mismatches} words incl. fixture 11 (3 vs 2)")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_renewal_constants():
    tri = run_experiment("gamma-rate", {"n": 10**6, "reps": 30}, seed=6)
    quad = run_experiment("quad-rate", {"n": 10**6, "reps": 10}, seed=6)
    tri_ok = abs(tri.estimates["rate"] - GAMMA_RATE_TRI) <= 0.005
    ok = (
        tri_ok
        and quad.estimates["automaton_vs_1_5"]
        and not quad.estimates["automaton_vs_1_3"]
    )
    report("06-renewal-constants", ok,
           f"tri rate {tri.estimates['rate']:.5f} (2/11 ± 0.005); quad automaton "
           f"{quad.estimates['automaton_rate']:.5f} and literal "
           f"{quad.estimates['literal_rate']:.5f} both match 1/5, not 1/3")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_degree_laws():
    # exact clause on maps with 7 insertions
    from collections import Counter

    counts = Counter()
    for t in enumerate_trees(3, 7, bound=7):
        m = map_from_tree(t, TRIANGULATION)
        counts[m.degree(m.n_boundary)] += 1
    total = sum(counts.values())
    exact_ok = all(
        pmf_finite_deg_first_exact(8, deg - 3) == Fraction(c, total)
        for deg, c in counts.items()
    )
    mc = run_experiment("degree-uniform", {"n": 2000, "reps": 10**5}, seed=7)
    p = mc.estimates["chi2_pvalue"]
    report("07-degree-laws", exact_ok and p > 0.01,
           f"finite pmf exact on 8-face class; MC fit p = {p:.3f} > 0.01")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_subtree_law():
    rep = run_experiment("subtree-size", {"n": 3000, "reps": 10**5}, seed=8)
    p = rep.estimates["chi2_pvalue"]
    report("08-subtree-law", p > 0.01, f"fringe-subtree chi-square p = {p:.3f} > 0.01")


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_fragmentation_equivalence():
    worst = 0.0
    for m in range(9):
        for k1 in range(m + 1):
            for k2 in range(m - k1 + 1):
                k3 = m - k1 - k2
                q = float(shape_pmf_q_exact(k1, k2, k3))
                d = shape_pmf_momentdir(k1, k2, k3)
                worst = max(worst, abs(d - q) / q)
    chi = _frag_shape_chisquare(9)
    ok = worst < 1e-10 and chi > 0.01
    report("09-fragmentation", ok,
           f"pmf identity rel. err {worst:.2e} < 1e-10; K=3 shape fit p = {chi:.3f}")


def _frag_shape_chisquare(seed: int) -> float:
    from stackmaps.fragmentation import build_fragmentation_tree, shape_pmf_q
    from stackmaps.stats import EmpiricalPMF

    emp = EmpiricalPMF()
    for r in range(6000):
        ft = build_fragmentation_tree(3, 4, rng_from_seed(seed, r))
        internal = set(ft.shape().internal_words())
        k1 = sum(1 for w in internal if w[:1] == (1,))
        k2 = sum(1 for w in internal if w[:1] == (2,))
        emp.add(k1 * 3 + k2)
    exact = {
        k1 * 3 + k2: float(shape_pmf_q(k1, k2, 2 - k1 - k2))
        for k1 in range(3)
        for k2 in range(3 - k1)
    }
    return emp.chisquare_pvalue(lambda k: exact.get(k, 0.0))


# -- 10 ---------------------------------------------------------------------


def _linear_extensions(t) -> int:
    from itertools import permutations

    internal = t.internal_words()
    return sum(
        1
        for perm in permutations(internal)
        if all((not w) or perm.index(w[:-1]) < i for i, w in enumerate(perm))
    )


def test_criterion_10_history_counting():
    ok = True
    for K in range(0, 7):
        trees = enumerate_trees(3, K, bound=7)
        if K <= 5:  # brute force linear extensions
            for t in trees:
                ok &= count_histories(t) == _linear_extensions(t)
        ok &= sum(count_histories(t) for t in trees) == histories_total(K)
    report("10-history-counting", ok,
           "hook-length counts = brute-force linear extensions; totals = ∏(2i+1)")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11a_urn_exact():
    ok = True
    for n in range(3, 7):
        for j in range(1, n - 1):
            law = enumerate_urn_pmf(n, j)
            mean = sum((k + 3) * p for k, p in law.items())
            ok &= expected_degree_growth_exact(n, j) == mean
            ok &= all(Fraction(p) == p for p in law.values())
    report("11a-urn-exact", ok,
           "expected degree = exhaustive-history mean, exact rationals, n ≤ 6")


def test_criterion_11b_urn_limit_claim():
    # Under the growth law the j-th inserted vertex has mean degree
    # 3*Gamma(n)Gamma(j+1/2)/(Gamma(n-1/2)Gamma(j+1)) -> 3/sqrt(t) for
    # j = t*n.  3/(1-t) (4, 6, 12 at the three t below) is not the limit.
    ok = True
    parts = []
    for t in (0.25, 0.5, 0.75):
        limit = 3 / t**0.5
        gaps = []
        for n in (10**3, 10**4):
            val = expected_degree_growth(n, int(t * n))
            gaps.append(abs(val - limit) / limit)
        ok &= gaps[1] <= 0.02 and gaps[1] < gaps[0]
        parts.append(f"t={t}: {val:.4f} vs {limit:.4f} (gap {gaps[0]:.1e}→{gaps[1]:.1e}, "
                     f"3/(1-t)={3 / (1 - t):g})")
    report("11b-urn-limit", ok,
           "E[deg] at n=10^4 → 3/√t within 2%, gap shrinking from n=10^3; "
           "3/(1-t) is not the limit: " + "; ".join(parts))


# -- 12 ---------------------------------------------------------------------


def test_criterion_12a_radius_scaling():
    rep = run_experiment("radius-scaling", {"sizes": [2500, 10**4], "reps": 200}, seed=12)
    ratio = rep.estimates["ratio"]
    report("12a-radius-scaling", 1.8 <= ratio <= 2.2,
           f"mean radius ratio 10^4/2500 = {ratio:.3f} ∈ [1.8, 2.2]")


def test_criterion_12b_height_process_identity():
    worst = 0
    for rep in range(20):
        t = sample_uniform_tree(3, 3000, rng_from_seed(120, rep))
        words = t.internal_words()
        H = np.array(height_process(t))
        rng = rng_from_seed(121, rep)
        for _ in range(300):
            i, j = sorted(int(x) for x in rng.integers(0, len(words), size=2))
            if i == j:
                continue
            d = tree_distance(words[i], words[j])
            approx = int(H[i]) + int(H[j]) - 2 * int(H[i + 1:j + 1].min())
            worst = max(worst, abs(d - approx))
    report("12b-height-process", worst <= 2,
           f"|d(i,j) − (H(i)+H(j)−2·min)| ≤ 2, worst observed {worst}")


def test_criterion_12c_typical_distance():
    rep = run_experiment(
        "typical-distance", {"sizes": [10**3, 10**4, 10**5], "reps": 60}, seed=12
    )
    ratios = [rep.estimates["ratio"][str(n)] for n in (10**3, 10**4, 10**5)]
    ses = [rep.stderrs["ratio"][str(n)] for n in (10**3, 10**4, 10**5)]
    # monotone trend toward 1 up to two combined standard errors of noise
    toward_one = all(
        abs(ratios[i + 1] - 1)
        <= abs(ratios[i] - 1) + 2.0 * (ses[i] ** 2 + ses[i + 1] ** 2) ** 0.5
        for i in range(2)
    )
    band = 0.7 <= ratios[-1] <= 1.2
    report("12c-typical-distance", toward_one and band and rep.passed,
           f"distance/((6/11)ln n) = {[round(r, 3) for r in ratios]}, "
           f"monotone toward 1 (±2 SE), final in [0.7, 1.2]")


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_depth_clt():
    tri = run_experiment("tri-depth", {"n": 10**5, "reps": 30}, seed=13)
    ratio = tri.estimates["ratio_to_3halves_ln_n"]
    bino = run_experiment("bin-depth", {"n": 10**5, "reps": 30}, seed=13)
    fitted = bino.estimates["fitted_constant"]
    report("13-depth-clt", 0.95 <= ratio <= 1.05,
           f"ternary depth/(1.5 ln n) = {ratio:.3f} ∈ [0.95, 1.05]; binary fitted "
           f"constant {fitted:.2f}·ln n (reported against 2 ln n and 4 ln n)")


# -- 14 ---------------------------------------------------------------------


def test_criterion_14_determinism():
    from stackmaps.cli import main
    import contextlib
    import io

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return buf.getvalue()

    ok = True
    for argv in (
        ["sample", "--family", "tri", "--law", "growth", "--size", "80", "--seed", "3"],
        ["sample", "--family", "quad", "--size", "80", "--seed", "3"],
        ["stats", "--experiment", "gamma-rate", "--n", "10000", "--reps", "2", "--seed", "3"],
        ["frag", "--arity", "3", "--k", "6", "--seed", "3"],
        ["ball", "--r", "3", "--seed", "3"],
    ):
        ok &= capture(argv) == capture(argv)
    report("14-determinism", ok, "samplers and experiments byte-identical per (params, seed)")
