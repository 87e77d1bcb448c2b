"""Degree laws, urn model, experiment harness."""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from stackmaps.maps import (QUADRANGULATION, TRIANGULATION, bfs_distances_from, csr_from_offspring,
                            map_from_tree, pair_distances)
from stackmaps.stats import (
    GAMMA_RATE_QUAD_DERIVED,
    GAMMA_RATE_TRI,
    EXPERIMENTS,
    EmpiricalPMF,
    ExperimentReport,
    _distance_ratio,
    _root_radius,
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
    _slot_links,
    enumerate_trees,
    rng_from_seed,
    sample_increasing_tree,
    sample_offspring_sequence,
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


# small parameters for every registry experiment; the digests of their
# reports pin the output bytes and the RNG streams
GOLDEN_PARAMS = {
    "gamma-rate": {"n": 1000, "reps": 3},
    "quad-rate": {"n": 1000, "reps": 3},
    "typical-distance": {"sizes": [100, 300], "reps": 3},
    "tri-depth": {"n": 500, "reps": 3, "window": 100},
    "bin-depth": {"n": 500, "reps": 3, "window": 100},
    "radius-scaling": {"sizes": [100, 400], "reps": 3},
    "degree-uniform": {"n": 200, "reps": 300},
    "subtree-size": {"n": 300, "reps": 300, "kmax": 10},
}

# sha256 of (to_json(), to_csv())
GOLDEN_DIGESTS = {
    ("gamma-rate", 0): ("daeff8af8d5110b9f1d7bb1e6696a09d093c5855596a7bc43048b5201ae451e8",
                        "e96a9936768c4f0e03065b814781a974e8a58f04f4d545616323c96a5f804cf2"),
    ("gamma-rate", 7): ("ea2c6bbd283800447e20876293d2f67e04ddd78e49c92dfaed9dc43f04872ee7",
                        "555d71cdfecc3cf1d34e3f13d20ec96c0f086b8125b3869455687fcace343fd4"),
    ("quad-rate", 0): ("bdef63c838fe4d343a098763c2ab90425606a99bea94062bc4cbf51ea0450a27",
                       "01f2b48780b4b4a70cf4c54a7256af4dc0432f84c85a107f0231e3c5339025d4"),
    ("quad-rate", 7): ("d8488444b321dd3e88e1a961e1ef3f7cc77747f109d84053b6722f84c6787722",
                       "83039842d7a71abf53090313cab7fbd24f5b4f80aef5ce21b4ef7cb966816a4f"),
    ("typical-distance", 0): ("71b9ed8fffd8431aa3e506bfaa2d7c8a4dea0a0d89f04c1dceda76cd905df7cd",
                              "eac3176a72fee5898044688a67ac5bd2c6f038e40ef8aae15f053b2c2573f43a"),
    ("typical-distance", 7): ("407452dbf27ef03147b0a99c6c075a8b6cd55c606651dec8a9c9cd6e8d06dfe8",
                              "eac3176a72fee5898044688a67ac5bd2c6f038e40ef8aae15f053b2c2573f43a"),
    ("tri-depth", 0): ("7b25451f4a2222e3c66c33ced413206a8e1fd7c5043f31cce8572a80f8bc676e",
                       "4bf79044e771568914ab7a5468a88f7dbefa2ff22af654ad42e84b859edd93d2"),
    ("tri-depth", 7): ("9ee829955a53a9162770dedf40d461813216cb8bb6ada2f4385e7a2b15f03a58",
                       "25c18ba9e9b007fc35d88142e14db3d8fe572895718ff1649c51e77fcaaec9d4"),
    ("bin-depth", 0): ("4516f47a9934972c4876619ec263d104cd0851e1d86f11058fe173d10d7a3be6",
                       "d1d5b4430ae865174ba69cc61c5c681a8ee5e04f277989c69895702d5e93a56e"),
    ("bin-depth", 7): ("75811e4714015d44fe4d07271fde51a83a854f1d63822738141b9f79f6f617b2",
                       "29097f1195e22dd42ede7ea524af1651193594445c1f4e229d9a29e160f08394"),
    ("radius-scaling", 0): ("c36d52d9e8c7f97b7837c4b8d3f37889787a16b6e118befb70304824f4ea328a",
                            "93b922b3d57be287f53937c4745ff327cba0ea5c01e91c35a456a149bb989adb"),
    ("radius-scaling", 7): ("00938dead1bc6f182b78aa910c3c71702703210e337d16bc477e4df275999887",
                            "d1b00be9b5f0fb318fa6430b36880ab86e8d4d49f271dcd7708af86029f74038"),
    ("degree-uniform", 0): ("ec709f224272d6188c69c1e0086abfbe1a35ebb5806a847461207f4ae97aed97",
                            "86347b41bab891e0260c8d3efbec95a371fa6dd6775f57badd9167f944ecbc25"),
    ("degree-uniform", 7): ("f9a8c3d5d0b9ee701d9f69ec1ecfb0df1133b373a64191190e788d4a71fd3074",
                            "412057fdc475b3e3290ee1c7d5a6c85940b6f8ef0e9a5058f51f79f08dd87ba8"),
    ("subtree-size", 0): ("f7f2bb8225431fcd41fba325f448ef1efb57d8591f943717ad647a8ef9b9757d",
                          "29a37d64fc9e3ea190d40d6c4ccb01879c477618eb929f5a9400556d307b8882"),
    ("subtree-size", 7): ("d51b778925458869e0fdd3b5cdd299e19716b61b88cb9b4798df1f889af14551",
                          "ecb2d1a9c5100ba8531ce10e9366eea314db567059201b24b3c0a3707f0ea4fb"),
}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_DIGESTS))
def test_experiment_reports_match_golden_digests(name, seed):
    rep = run_experiment(name, dict(GOLDEN_PARAMS[name]), seed)
    digests = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (rep.to_json(), rep.to_csv()))
    assert digests == GOLDEN_DIGESTS[name, seed]


@pytest.mark.parametrize("arity, family", [(3, TRIANGULATION), (2, QUADRANGULATION)])
def test_insertion_links_give_the_distances_of_preorder_ranks(arity, family):
    # node k of a growth tree's links in insertion order is the node of
    # preorder rank rank[k] of its links(): the same vertex of the map
    rng = rng_from_seed(29)
    for _ in range(20):
        tree = sample_increasing_tree(arity, 300, rng)
        rank = np.argsort(np.argsort(tree._preorder()))
        u, v = rng.integers(0, 300, size=(2, 50))
        assert np.array_equal(pair_distances(*_slot_links(arity, tree.slot), family, u, v),
                              pair_distances(*tree.links(), family, rank[u], rank[v]))


@pytest.mark.parametrize("seed", range(5))
def test_typical_distance_draws_insertion_indices(seed):
    # the two vertices are those of the nodes inserted at the drawn steps
    rng = rng_from_seed(seed)
    tree = sample_increasing_tree(3, 1000, rng)
    k = rng.integers(3, 1003, size=2) - 3
    rank = np.argsort(np.argsort(tree._preorder()))
    d = pair_distances(*tree.links(), TRIANGULATION, rank[k[:1]], rank[k[1:]])[0]
    assert _distance_ratio(1000, rng_from_seed(seed)) == d / ((6.0 / 11.0) * math.log(1000))


@pytest.mark.parametrize("n", [2, 3, 100, 2500])
def test_root_radius_is_the_bfs_radius(n):
    # the internal vertices alone give the radius: the boundary vertices
    # are at distance at most 1, as the root node's vertex is
    for r in range(20):
        off = sample_offspring_sequence(3, n, rng_from_seed(29, r))
        want = bfs_distances_from(csr_from_offspring(off, TRIANGULATION), 0).max()
        assert _root_radius(n, rng_from_seed(29, r)) == want


def test_golden_params_cover_the_registry():
    assert set(GOLDEN_PARAMS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name, params", [
    ("gamma-rate", {"size": 10}),
    ("typical-distance", {"n": 1000}),
    ("gamma-rate", {"tol": 0.1}),
])
def test_unknown_parameter_rejected(name, params):
    with pytest.raises(ValueError, match=f"{next(iter(params))}.*accepted"):
        run_experiment(name, params, 0)


@pytest.mark.parametrize("name, params, match", [
    ("bin-depth", {"n": 50.7, "reps": 2}, "n must be an integer >= 2, got 50.7"),
    ("bin-depth", {"n": 50, "reps": 2.9}, "reps must be an integer >= 1, got 2.9"),
    ("typical-distance", {"sizes": [100.5]}, "sizes must be an integer >= 2, got 100.5"),
    ("gamma-rate", {"n": "100"}, "n must be an integer >= 2, got '100'"),
    ("gamma-rate", {"reps": True}, "reps must be an integer >= 1, got True"),
    ("typical-distance", {"sizes": [1]}, "sizes must be an integer >= 2, got 1"),
    ("typical-distance", {"sizes": [0]}, "sizes must be an integer >= 2, got 0"),
    ("typical-distance", {"sizes": []}, "sizes must not be empty"),
    ("radius-scaling", {"sizes": [0, 4]}, "sizes must be an integer >= 2, got 0"),
    ("tri-depth", {"n": 1}, "n must be an integer >= 2, got 1"),
    ("bin-depth", {"n": 1}, "n must be an integer >= 2, got 1"),
    ("gamma-rate", {"n": 0}, "n must be an integer >= 2, got 0"),
    ("subtree-size", {"n": 0}, "n must be an integer >= 2, got 0"),
    ("gamma-rate", {"reps": 0}, "reps must be an integer >= 1, got 0"),
    ("tri-depth", {"window": 0}, "window must be an integer >= 1, got 0"),
    ("subtree-size", {"kmax": 0}, "kmax must be an integer >= 1, got 0"),
])
def test_bad_parameter_value_rejected_before_any_draw(name, params, match, monkeypatch):
    # these truncated silently, divided by zero, or failed in numpy
    def measure(*args, **kwargs):
        raise AssertionError("drew with a bad parameter")

    monkeypatch.setitem(EXPERIMENTS, name, (measure, EXPERIMENTS[name][1]))
    with pytest.raises(ValueError, match=f"^{name}: {re.escape(match)}$"):
        run_experiment(name, params, 0)


@pytest.mark.parametrize("name, params, seed", [
    ("degree-uniform", {"n": 2, "reps": 1}, 0),
    ("subtree-size", {"reps": 1}, 1),
])
def test_no_verdict_when_no_chi_square_test_ran(name, params, seed):
    # one replica fills one cell, too few for the test: NaN and no verdict
    r = run_experiment(name, params, seed)
    assert math.isnan(r.estimates["chi2_pvalue"]) and r.passed is None
    assert json.loads(r.to_json())["passed"] is None


@pytest.mark.parametrize("seed", range(6))
def test_one_subtree_size_draw_reports_no_verdict(seed):
    # one replica gives at most one sample: at seeds 0 and 3 it lies beyond
    # kmax, which left the chi-square test an empty sample (a ValueError),
    # and elsewhere it fills one cell; either way NaN and no verdict
    r = run_experiment("subtree-size", {"reps": 1}, seed)
    assert math.isnan(r.estimates["chi2_pvalue"]) and r.passed is None
    assert r.estimates["dropped_beyond_kmax"] == (seed in (0, 3))
