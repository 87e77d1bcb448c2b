"""Degree laws, urn model, experiment harness."""

import json
import math
from fractions import Fraction

import pytest

from stackmaps.maps import TRIANGULATION, map_from_tree
from stackmaps.stats import (
    GAMMA_RATE_QUAD_DERIVED,
    GAMMA_RATE_TRI,
    EmpiricalPMF,
    ExperimentReport,
    degree_from_offspring,
    enumerate_urn_pmf,
    expected_degree_growth,
    expected_degree_growth_exact,
    pmf_finite_deg_first_exact,
    pmf_limit_deg_first,
    pmf_limit_deg_uniform,
    pmf_subtree_size,
    pmf_urn_exact,
    run_experiment,
    urn_index_shift,
)
from stackmaps.trees import (
    enumerate_trees,
    rng_from_seed,
    sample_increasing_tree,
    sample_uniform_tree,
)


def test_limit_pmfs_normalized():
    s_first = sum(pmf_limit_deg_first(k) for k in range(4000))
    s_unif = sum(pmf_limit_deg_uniform(k) for k in range(4000))
    assert abs(s_first - 1) < 1e-6
    assert abs(s_unif - 1) < 1e-6


def test_limit_pmf_first_zero_at_origin():
    assert pmf_limit_deg_first(0) == 0.0
    assert pmf_limit_deg_first(-3) == 0.0
    assert pmf_limit_deg_first(1) > 0


def test_subtree_pmf_support_and_tail():
    assert pmf_subtree_size(0) == 0.0
    assert pmf_subtree_size(1) == pytest.approx(8 / 27, rel=1e-12)
    # k^{-3/2} tail: ratio of successive terms tends to 1
    assert pmf_subtree_size(2000) / pmf_subtree_size(1999) == pytest.approx(1.0, abs=1e-3)
    partial = sum(pmf_subtree_size(k) for k in range(1, 20001))
    assert 0.98 < partial < 1.0


def test_finite_degree_pmf_matches_exhaustive():
    # uniform law on maps with 7 insertions: histogram of the first-inserted
    # vertex degree
    from collections import Counter

    n = 8  # maps of Delta_n have n-1 insertions here
    counts = Counter()
    for t in enumerate_trees(3, n - 1):
        m = map_from_tree(t, TRIANGULATION)
        counts[m.degree(m.n_boundary)] += 1
    total = sum(counts.values())
    for deg, c in counts.items():
        assert pmf_finite_deg_first_exact(n, deg - 3) == Fraction(c, total)


def test_degree_from_offspring_matches_map():
    rng = rng_from_seed(21)
    t = sample_uniform_tree(3, 60, rng)
    m = map_from_tree(t, TRIANGULATION)
    off = t.offspring
    for i in t.internal_indices():
        u = t.word(i)
        assert degree_from_offspring(off, i, TRIANGULATION) == m.degree(m.vertex_of(u))


def test_urn_pmf_matches_exhaustive_small():
    for n in range(3, 7):
        for j in range(1, n - 1):
            law = enumerate_urn_pmf(n, j)
            assert sum(law.values()) == 1
            for k, p in law.items():
                assert pmf_urn_exact(n - 1, j, k) == p, (n, j, k)


def test_urn_index_shift_is_one():
    assert urn_index_shift(5) == 1


def test_urn_pmf_k0_mass():
    # after 3 insertions the second vertex still has degree 3 w.p. 2/5
    assert pmf_urn_exact(3, 2, 0) == Fraction(2, 5)


def test_urn_pmf_normalized():
    for n in range(2, 9):
        for j in range(1, n):
            assert sum(pmf_urn_exact(n, j, k) for k in range(0, n - j + 1)) == 1


def test_expected_degree_growth_matches_exhaustive():
    for n in range(3, 7):
        for j in range(1, n - 1):
            law = enumerate_urn_pmf(n, j)
            mean = sum((k + 3) * p for k, p in law.items())
            assert expected_degree_growth_exact(n, j) == mean, (n, j)


def test_expected_degree_growth_limit_value():
    # at n = 10^4, j = n/2 the product formula gives about 3*sqrt(2), far
    # from 6; recorded here as the factual value of the formula
    val = expected_degree_growth(10**4, 5000)
    assert val == pytest.approx(3 * 2 ** 0.5, rel=1e-3)


def test_expected_degree_growth_matches_sampled_growth_law():
    # beyond the exhaustive range: the seeded mean degree of the 100th
    # inserted vertex over 1000 growth-law maps with 199 insertions lies
    # within 4 standard errors of the exact formula (two-sided false-alarm
    # rate about 6e-5)
    n, j, reps = 200, 100, 1000
    degs = []
    for r in range(reps):
        it = sample_increasing_tree(3, n - 1, rng_from_seed(11, r))
        t = it.shape()
        i = t.index_of(it.skeleton[j - 1])
        degs.append(degree_from_offspring(t.offspring, i, TRIANGULATION))
    mean = sum(degs) / reps
    se = (sum((d - mean) ** 2 for d in degs) / (reps - 1) / reps) ** 0.5
    assert abs(mean - float(expected_degree_growth_exact(n, j))) <= 4 * se, (mean, se)


def test_empirical_pmf_chisquare_sane():
    rng = rng_from_seed(30)
    emp = EmpiricalPMF.from_samples(rng.geometric(0.3, size=20000) - 1)
    p_good = emp.chisquare_pvalue(lambda k: 0.3 * 0.7**k)
    p_bad = emp.chisquare_pvalue(lambda k: 0.5 * 0.5**k)
    assert p_good > 0.01
    assert p_bad < 1e-6
    # one bin leaves no degree of freedom; an empty sample is an error
    assert math.isnan(EmpiricalPMF.from_samples([1]).chisquare_pvalue(lambda k: 0.5**(k + 1)))
    with pytest.raises(ValueError, match="empty sample"):
        EmpiricalPMF().chisquare_pvalue(lambda k: 0.5**(k + 1))


# (counts, pmf, the bins chisquare_pvalue must form); dyadic probabilities
# keep every expected count exact
_CHI2_FIXTURES = [
    ({0: 30, 1: 50, 2: 20}, lambda k: (0.25, 0.5, 0.25)[k] if k < 3 else 0.0,
     [30, 50, 20], [25, 50, 25]),
    ({0: 7, 1: 9, 2: 11, 3: 13}, lambda k: 0.25 if k < 4 else 0.0,
     [7, 9, 11, 13], [10, 10, 10, 10]),
    # k >= 4 merges until 5 expected; the tail past k = 6 joins the last bin
    ({0: 52, 1: 23, 2: 14, 3: 6, 4: 3, 6: 2}, lambda k: 0.5**(k + 1),
     [52, 23, 14, 6, 5], [50, 25, 12.5, 6.25, 6.25]),
    ({0: 480, 1: 270, 2: 110, 3: 140}, lambda k: 0.5**(k + 1) if k < 3 else 0.125 * (k == 3),
     [480, 270, 110, 140], [500, 250, 125, 125]),
]


@pytest.mark.parametrize("counts,pmf,obs,exp", _CHI2_FIXTURES,
                         ids=["three-bins", "uniform", "merged-tail", "four-bins"])
def test_chisquare_pvalue_equals_scipy_stats(counts, pmf, obs, exp):
    from scipy import stats as sps

    assert EmpiricalPMF(counts).chisquare_pvalue(pmf) == float(sps.chisquare(obs, exp).pvalue)


def test_chisquare_rejects_pmf_with_wrong_total():
    emp = EmpiricalPMF({0: 30, 1: 50, 2: 20})
    with pytest.raises(ValueError, match="disagree"):
        emp.chisquare_pvalue(lambda k: (0.3, 0.5, 0.3)[k] if k < 3 else 0.0)


def test_experiment_report_serialization():
    rep = run_experiment("gamma-rate", {"n": 10**4, "reps": 3}, seed=5)
    d = json.loads(rep.to_json())
    assert d["name"] == "gamma-rate"
    assert d["seed"] == 5
    csv = rep.to_csv()
    assert "estimate" in csv.splitlines()[0] or "," in csv.splitlines()[0]


def test_gamma_rate_experiment_quick():
    rep = run_experiment("gamma-rate", {"n": 10**5, "reps": 5}, seed=1)
    assert abs(rep.estimates["rate"] - GAMMA_RATE_TRI) < 0.01
    assert rep.passed


def test_quad_rate_experiment_quick():
    rep = run_experiment("quad-rate", {"n": 10**5, "reps": 3}, seed=1)
    assert abs(rep.estimates["automaton_rate"] - GAMMA_RATE_QUAD_DERIVED) < 0.01
    assert rep.estimates["automaton_vs_1_5"]
    assert not rep.estimates["automaton_vs_1_3"]


def test_experiments_deterministic():
    a = run_experiment("gamma-rate", {"n": 10**4, "reps": 2}, seed=9).to_json()
    b = run_experiment("gamma-rate", {"n": 10**4, "reps": 2}, seed=9).to_json()
    assert a == b


def test_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("no-such-experiment", {}, 0)
