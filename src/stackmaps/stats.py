"""Map observables, exact degree/subtree/urn laws, and the Monte-Carlo
experiment harness.

The harness is seed-deterministic.  With seed s, the experiments draw from
three stream layouts, each stream being Generator(PCG64(SeedSequence(...))):

- single-size experiments (gamma-rate, quad-rate, tri-depth, bin-depth):
  replica r draws from (s, r);
- sized experiments (typical-distance, radius-scaling): replica r of the
  si-th size draws from (s, si·10^6 + r);
- chi-square experiments (degree-uniform, subtree-size): one stream, s, from
  which each sample draws its tree, then its internal node.

All reductions are order-independent, so reports are bit-for-bit
reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, log

import numpy as np

from . import maps as maps_mod
from . import trees as trees_mod
from .counting import count_forests, count_trees
from .passage import gamma, gamma_prime_literal, quad_root_distance, root_distances
from .trees import rng_from_seed

#: renewal rate of the block count on uniform ternary letters
GAMMA_RATE_TRI = 2.0 / 11.0
#: renewal rate of the two-letter block count (both variants), derived from
#: the mean block length 5; the constant 1/3 is kept as the alternative
#: reference
GAMMA_RATE_QUAD_DERIVED = 1.0 / 5.0
GAMMA_RATE_QUAD_CLAIMED = 1.0 / 3.0
#: chi-square bins are merged until each expects at least this many samples
CHI2_MIN_EXPECTED = 5.0


# ---------------------------------------------------------------------------
# exact distributions


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def pmf_limit_deg_first(k: int) -> float:
    """Large-n degree law of the first-inserted vertex under the uniform
    law: P(X = k+3)."""
    if k <= 0:
        return 0.0
    lg = (
        math.log(k / (k + 3))
        + _log_comb(2 * k + 2, k)
        + (k + 3) * math.log(2)
        - (2 * k + 3) * math.log(3)
    )
    return math.exp(lg)


def pmf_limit_deg_uniform(k: int) -> float:
    """Large-n degree law of a uniformly chosen internal vertex under the
    uniform law: P(Y = k+3)."""
    if k < 0:
        return 0.0
    lg = (
        -math.log(k + 3)
        + _log_comb(2 * k + 2, k)
        + (k + 3) * math.log(2)
        - (2 * k + 2) * math.log(3)
    )
    return math.exp(lg)


def pmf_finite_deg_first_exact(n: int, k: int) -> Fraction:
    """Degree law of the first-inserted vertex of a uniform triangulation
    with 2n faces: P(deg = k+3), exact.

    The internal nodes contributing to the degree form a 3-root binary
    forest grafted on the tree root; the complement is a k-root ternary
    forest.
    """
    if not 0 <= k < n - 1:
        return Fraction(0)
    num = count_forests(2, 3, 2 * k + 3) * count_forests(3, k, 3 * n - 2 * k - 6)
    return Fraction(num, count_trees(3, n - 1))


def pmf_subtree_size(k: int) -> float:
    """Limit law of the fringe-subtree size over a uniform internal node of
    a large uniform ternary tree: P(size = 3k+1), supported on k >= 1
    (internal nodes carry at least their three children)."""
    if k < 1:
        return 0.0
    lg = (
        (2 * k + 1) * math.log(2)
        - 3 * k * math.log(3)
        - math.log(3 * k + 1)
        + _log_comb(3 * k + 1, k)
    )
    return math.exp(lg)


def _gbinom(a: Fraction, b: int) -> Fraction:
    """Generalized binomial a(a-1)...(a-b+1)/b!."""
    num = Fraction(1)
    for i in range(b):
        num *= a - i
    return num / math.factorial(b)


def pmf_urn_exact(n: int, j: int, k: int) -> Fraction:
    """Degree law of the j-th inserted vertex after n insertion rounds of
    the growth law: P(deg = k+3), for n > j and 0 <= k <= n-j.  Exact
    rational evaluation of the urn formula (half-integer gamma ratios are
    rational)."""
    if not (n > j >= 1 and 0 <= k <= n - j):
        return Fraction(0)
    # Gamma(n-j+1) * Gamma(j+1/2) / Gamma(n+1/2)
    pref = Fraction(math.factorial(n - j))
    for i in range(j, n):
        pref /= Fraction(2 * i + 1, 2)
    s = Fraction(0)
    for i in range(k + 1):
        s += (-1) ** i * comb(k, i) * _gbinom(Fraction(2 * n - i - 4, 2), n - j)
    return pref * comb(k + 2, k) * s


def urn_index_shift(max_n: int = 5) -> int:
    """Compare pmf_urn_exact against exhaustive history enumeration and
    report the time-index shift d such that pmf_urn_exact(n-d, j, k)
    reproduces the degree law of vertex j in the map after n-1 insertions
    (the map with 2n faces).  Raises if no shift in {0, 1, 2} matches."""
    for d in (0, 1, 2):
        if all(
            pmf_urn_exact(n - d, j, k) == p
            for n in range(3, max_n + 1)
            for j in range(1, n - 1)
            for k, p in enumerate_urn_pmf(n, j).items()
        ):
            return d
    raise AssertionError("no index shift in {0,1,2} matches the exhaustive law")


def enumerate_urn_pmf(n: int, j: int) -> dict[int, Fraction]:
    """Exhaustive degree law of the j-th inserted vertex of the growth-law
    triangulation with n-1 insertions (all insertion histories are equally
    likely).  Exponential in n; intended for n <= 7."""
    out: dict[int, Fraction] = {}

    def rec(m: maps_mod.StackMap, history: list, prob: Fraction):
        if len(history) == n - 1:
            deg = m.degree(m.vertex_of(history[j - 1]))
            out[deg - 3] = out.get(deg - 3, Fraction(0)) + prob
            return
        leaves = m.leaf_faces()
        for f in leaves:
            rec(maps_mod.grow(m, f), history + [f], prob / len(leaves))

    rec(maps_mod.theta(), [], Fraction(1))
    return out


def expected_degree_growth_exact(n: int, j: int) -> Fraction:
    """Expected degree of the j-th inserted vertex in the growth-law map
    with n-1 insertions: 3 * prod_{k=j+1}^{n-1} 2k/(2k-1).

    The vertex is born with degree 3 at round j and gains an edge at round
    k -> k+1 with probability deg/(2k-1), the map holding 2k-1 finite
    faces.  In closed form the product is

        3 * Gamma(n) * Gamma(j+1/2) / (Gamma(n-1/2) * Gamma(j+1)),

    and since Gamma(m+1/2)/Gamma(m) ~ sqrt(m), for j = floor(t*n) with
    0 < t < 1 it tends to 3 * t**(-1/2) as n -> infinity."""
    out = Fraction(3)
    for k in range(j + 1, n):
        out *= Fraction(2 * k, 2 * k - 1)
    return out


def expected_degree_growth(n: int, j: int) -> float:
    return float(expected_degree_growth_exact(n, j))


# ---------------------------------------------------------------------------
# empirical distributions and chi-square fitting


@dataclass
class EmpiricalPMF:
    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_samples(cls, xs) -> "EmpiricalPMF":
        return cls(dict(Counter(map(int, xs))))

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def add(self, x: int, w: int = 1) -> None:
        self.counts[x] = self.counts.get(x, 0) + w

    def chisquare_pvalue(self, pmf, support_start: int = 0) -> float:
        """Goodness of fit against ``pmf(k)``, merging the upper tail so
        every expected count is at least ``CHI2_MIN_EXPECTED``.  Raises
        ValueError on an empty sample; gives NaN when fewer than two bins
        remain, which leaves the test no degree of freedom."""
        n = self.n
        if not n:
            raise ValueError("chi-square test on an empty sample")
        kmax = max(self.counts)
        obs, exp = [], []
        acc_o, acc_e = 0.0, 0.0
        tail_mass = 1.0
        for k in range(support_start, kmax + 1):
            p = pmf(k)
            tail_mass -= p
            acc_o += self.counts.get(k, 0)
            acc_e += n * p
            if acc_e >= CHI2_MIN_EXPECTED:
                obs.append(acc_o)
                exp.append(acc_e)
                acc_o, acc_e = 0.0, 0.0
        # everything beyond kmax plus any unflushed remainder
        acc_e += n * max(tail_mass, 0.0)
        if exp and acc_e < CHI2_MIN_EXPECTED:
            obs[-1] += acc_o
            exp[-1] += acc_e
        else:
            obs.append(acc_o)
            exp.append(acc_e)
        if len(obs) < 2:
            return math.nan
        # Pearson's statistic and scipy.stats.chisquare's p-value, without
        # importing scipy.stats (about a second); scipy.special is imported
        # here, since only the chi-square experiments need it
        from scipy.special import chdtrc

        o, e = np.array(obs), np.array(exp)
        if abs(o.sum() - e.sum()) / min(o.sum(), e.sum()) > np.finfo(float).eps ** 0.5:
            raise ValueError(f"observed total {o.sum()} and expected total {e.sum()} disagree")
        return float(chdtrc(len(o) - 1, np.sum((o - e) ** 2 / e)))


# ---------------------------------------------------------------------------
# experiment harness

#: gamma-rate and quad-rate pass when a mean rate is this close to its reference
RATE_TOL = 0.005
#: radius-scaling passes when its ratio of mean radii lies in this range
RADIUS_RATIO_BAND = (1.8, 2.2)


@dataclass
class ExperimentReport:
    name: str
    params: dict
    seed: int
    replicates: int
    estimates: dict
    stderrs: dict
    references: list
    passed: bool | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_csv(self) -> str:
        lines = ["key,value"]
        for k in sorted(self.estimates):
            lines.append(f"estimate.{k},{self.estimates[k]}")
        for k in sorted(self.stderrs):
            lines.append(f"stderr.{k},{self.stderrs[k]}")
        for ref in self.references:
            lines.append(f"reference.{ref['name']},{ref['value']}")
        lines.append(f"passed,{self.passed}")
        return "\n".join(lines)


def _mean_se(xs) -> tuple[float, float]:
    a = np.asarray(xs, dtype=float)
    se = a.std(ddof=1) / math.sqrt(len(a)) if len(a) > 1 else 0.0
    return float(a.mean()), float(se)


def _replicas(sample, seed: int, reps: int, stream: int = 0) -> list:
    """``sample(rng)`` of each replica r, drawn from (seed, stream + r)."""
    return [sample(rng_from_seed(seed, stream + r)) for r in range(reps)]


def _sized_replicas(sample, seed: int, sizes: list, reps: int) -> tuple[dict, dict]:
    """Mean and standard error of ``sample(n, rng)`` for each size n, keyed
    by str(n); replica r of the si-th size draws from (seed, si·10^6 + r)."""
    means, ses = {}, {}
    for si, n in enumerate(sizes):
        means[str(n)], ses[str(n)] = _mean_se(_replicas(partial(sample, n), seed, reps, si * 10**6))
    return means, ses


def _fringe_samples(seed: int, n: int, reps: int):
    """Yield (offspring, i) reps times: a uniform ternary tree with n
    internal nodes, then a uniform internal node i of it, both drawn from
    the one stream of ``seed``."""
    rng = rng_from_seed(seed)
    for _ in range(reps):
        off = trees_mod.sample_offspring_sequence(3, n, rng)
        internal = np.flatnonzero(off)
        yield off, int(internal[rng.integers(len(internal))])


def _gamma_rate(seed, n, reps):
    mean, se = _mean_se(_replicas(
        lambda rng: (gamma(rng.integers(1, 4, size=n).tolist()) - 1) / n, seed, reps))
    return (
        {"rate": mean}, {"rate": se},
        [{"name": "renewal_rate", "value": GAMMA_RATE_TRI, "provenance": "analytic-renewal"}],
        abs(mean - GAMMA_RATE_TRI) <= RATE_TOL,
    )


def _quad_rates(n, rng) -> tuple[float, float]:
    letters = rng.integers(1, 3, size=n).tolist()
    return quad_root_distance(letters) / n, (gamma_prime_literal(tuple(letters)) - 1) / n


def _quad_rate(seed, n, reps):
    auto_vals, lit_vals = zip(*_replicas(partial(_quad_rates, n), seed, reps))
    mean_a, se_a = _mean_se(auto_vals)
    mean_l, se_l = _mean_se(lit_vals)
    matches = {
        "automaton_vs_1_5": abs(mean_a - GAMMA_RATE_QUAD_DERIVED) <= RATE_TOL,
        "automaton_vs_1_3": abs(mean_a - GAMMA_RATE_QUAD_CLAIMED) <= RATE_TOL,
        "literal_vs_1_5": abs(mean_l - GAMMA_RATE_QUAD_DERIVED) <= RATE_TOL,
        "literal_vs_1_3": abs(mean_l - GAMMA_RATE_QUAD_CLAIMED) <= RATE_TOL,
    }
    return (
        {"automaton_rate": mean_a, "literal_rate": mean_l, **matches},
        {"automaton_rate": se_a, "literal_rate": se_l},
        [
            {"name": "derived_rate", "value": GAMMA_RATE_QUAD_DERIVED,
             "provenance": "analytic-renewal"},
            {"name": "claimed_rate", "value": GAMMA_RATE_QUAD_CLAIMED,
             "provenance": "reference-constant"},
        ],
        matches["automaton_vs_1_5"],
    )


def _distance_ratio(n, rng) -> float:
    """Distance between two uniform internal vertices of a growth-law
    triangulation, over (6/11)·log n, read off the face tree by
    ``pair_distances``: no map is built.  The vertices are drawn as
    insertion indices (node k the one inserted at step k), on the tree's
    links in insertion order, which list each parent before its children."""
    tree = trees_mod.sample_increasing_tree(3, n, rng)
    parent, letter = trees_mod._slot_links(3, tree.slot)
    nb = maps_mod._N_BOUNDARY[maps_mod.TRIANGULATION]
    ids = rng.integers(nb, nb + len(parent), size=2) - nb
    d = int(maps_mod.pair_distances(parent, letter, maps_mod.TRIANGULATION, ids[:1], ids[1:])[0])
    return d / ((6.0 / 11.0) * log(n))


def _typical_distance(seed, sizes, reps):
    ratios, ses = _sized_replicas(_distance_ratio, seed, sizes, reps)
    ordered = [ratios[str(n)] for n in sizes]
    spread = [ses[str(n)] for n in sizes]
    # monotone trend up to Monte-Carlo noise: allow two combined standard
    # errors of slack in each comparison
    toward_one = all(
        abs(ordered[i + 1] - 1)
        <= abs(ordered[i] - 1) + 2.0 * math.hypot(spread[i], spread[i + 1])
        for i in range(len(ordered) - 1)
    )
    final_ok = 0.7 <= ordered[-1] <= 1.2
    return (
        {"ratio": ratios, "monotone_toward_1": toward_one, "final_in_band": final_ok},
        {"ratio": ses},
        [{"name": "normalization", "value": 6.0 / 11.0, "provenance": "analytic-renewal"}],
        toward_one and final_ok,
    )


def _depth(arity, seed, n, reps, window):
    mean, se = _mean_se(_replicas(
        lambda rng: float(np.mean(
            trees_mod.sample_increasing_tree(arity, n, rng).depths()[max(n - window, 0):])),
        seed, reps))
    if arity == 3:
        refs = [{"name": "centering", "value": 1.5 * log(n), "provenance": "analytic-clt"}]
        ratio = mean / (1.5 * log(n))
        est = {"mean_depth": mean, "ratio_to_3halves_ln_n": ratio}
        passed = 0.95 <= ratio <= 1.05
    else:
        est = {
            "mean_depth": mean,
            "fitted_constant": mean / log(n),
            "ratio_to_2_ln_n": mean / (2 * log(n)),
            "ratio_to_4_ln_n": mean / (4 * log(n)),
        }
        refs = [
            {"name": "2_ln_n", "value": 2 * log(n), "provenance": "analytic-clt"},
            {"name": "4_ln_n", "value": 4 * log(n), "provenance": "reference-constant"},
        ]
        passed = None  # reported, not asserted: conflicting reference constants
    return est, {"mean_depth": se}, refs, passed


def _root_radius(n, rng) -> int:
    """Largest distance from the root vertex in a uniform triangulation,
    read off the face tree by ``root_distances``: no map is built.  The
    internal vertices alone give it, since the root node's vertex is at
    distance 1, as far as any boundary vertex is."""
    off = trees_mod.sample_offspring_sequence(3, n, rng)
    return int(root_distances(*trees_mod.preorder_links(3, off), maps_mod.TRIANGULATION).max())


def _radius_scaling(seed, sizes, reps):
    means, ses = _sized_replicas(_root_radius, seed, sizes, reps)
    ratio = means[str(sizes[-1])] / means[str(sizes[0])]
    lo, hi = RADIUS_RATIO_BAND
    return (
        {"mean_radius": means, "ratio": ratio},
        {"mean_radius": ses},
        [{"name": "sqrt_scaling", "value": math.sqrt(sizes[-1] / sizes[0]),
          "provenance": "analytic-scaling"}],
        lo <= ratio <= hi,
    )


def _degree_uniform(seed, n, reps):
    emp = EmpiricalPMF()
    for off, i in _fringe_samples(seed, n, reps):
        emp.add(degree_from_offspring(off, i, maps_mod.TRIANGULATION) - 3)
    p = emp.chisquare_pvalue(pmf_limit_deg_uniform)
    return (
        {"chi2_pvalue": p, "mean_degree": 3 + sum(k * c for k, c in emp.counts.items()) / reps,
         "histogram": {str(k): emp.counts[k] for k in sorted(emp.counts)}},
        {},
        [{"name": "pmf", "value": "limit_deg_uniform", "provenance": "analytic-formula"}],
        None if math.isnan(p) else p > 0.01,  # NaN: too few cells to test
    )


def _subtree_size(seed, n, reps, kmax):
    """Fringe-subtree sizes versus their limit law.

    The limit holds pointwise for fixed k; sizes comparable to n (including
    the 1/n atom at the full tree) deviate for every finite n, so the fit
    is restricted to k <= kmax with both laws renormalized.
    """
    emp = EmpiricalPMF()
    dropped = 0
    for off, i in _fringe_samples(seed, n, reps):
        k = (trees_mod._subtree_end(memoryview(off), i) - i - 1) // 3
        if k <= kmax:
            emp.add(k)
        else:
            dropped += 1
    mass = sum(pmf_subtree_size(k) for k in range(1, kmax + 1))
    p = emp.chisquare_pvalue(
        lambda k: pmf_subtree_size(k) / mass if k <= kmax else 0.0, support_start=1
    ) if emp.n else math.nan  # every draw beyond kmax: no sample to test
    return (
        {"chi2_pvalue": p, "dropped_beyond_kmax": dropped},
        {},
        [{"name": "pmf", "value": "subtree_size", "provenance": "analytic-formula"}],
        None if math.isnan(p) else p > 0.01,  # NaN: too few cells to test
    )


def degree_from_offspring(offspring, i: int, family: str) -> int:
    """Map degree of the vertex of internal node i, walking only the
    subtree of i on the flat offspring array (no tree object built)."""
    return maps_mod._degree(offspring, i, family)


#: name -> (measure, defaults).  ``measure(seed, **params)`` returns
#: (estimates, stderrs, references, passed); ``defaults`` declares every
#: parameter the experiment takes, and the report echoes them all.
EXPERIMENTS = {
    "gamma-rate": (_gamma_rate, {"n": 10**6, "reps": 30}),
    "quad-rate": (_quad_rate, {"n": 10**6, "reps": 10}),
    "typical-distance": (_typical_distance, {"sizes": [10**3, 10**4, 10**5], "reps": 30}),
    "tri-depth": (partial(_depth, 3), {"n": 10**5, "reps": 30, "window": 3000}),
    "bin-depth": (partial(_depth, 2), {"n": 10**5, "reps": 30, "window": 3000}),
    "radius-scaling": (_radius_scaling, {"sizes": [2500, 10**4], "reps": 200}),
    "degree-uniform": (_degree_uniform, {"n": 2000, "reps": 10**5}),
    "subtree-size": (_subtree_size, {"n": 3000, "reps": 10**5, "kmax": 50}),
}


def run_experiment(name: str, params: dict | None = None, seed: int = 0) -> ExperimentReport:
    """Run a registry experiment with ``params`` over its defaults:
    KeyError on an unknown experiment, ValueError, before any draw, on a
    parameter that it does not declare, or an empty or out-of-range one."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    measure, defaults = EXPERIMENTS[name]
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"{name} takes no parameter {', '.join(unknown)}; "
                         f"accepted: {', '.join(defaults)}")
    least = {"n": 2, "sizes": 2, "reps": 1, "window": 1, "kmax": 1}  # sizes: of each entry
    resolved = {**defaults, **params}
    if not resolved.get("sizes", [2]):
        raise ValueError(f"{name}: sizes must not be empty")
    for k, v in resolved.items():
        for x in v if k == "sizes" else [v]:
            if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < least[k]:
                raise ValueError(f"{name}: {k} must be an integer >= {least[k]}, got {x!r}")
    resolved = {k: [int(s) for s in v] if k == "sizes" else int(v) for k, v in resolved.items()}
    return ExperimentReport(name, resolved, seed, resolved["reps"], *measure(seed, **resolved))
