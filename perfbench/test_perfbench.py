"""Tests of the benchmark itself: each workload's check rejects corrupted
outputs, op failures are counted rather than raised, and the tracer sees
calls made inside the library."""

from __future__ import annotations

import json
import math
import os

import pytest

import run
import tracer
import worker
import workloads
from stackmaps import maps, stats, trees
from workloads import CheckFailed


def _one_op(w, seed=7):
    s = workloads.op_seed(seed, 1)
    return s, w.op(s)


@pytest.fixture(scope="module")
def uniform_op():
    w = workloads.make("uniform-mc", "")
    return w, *_one_op(w)


@pytest.fixture(scope="module")
def growth_op():
    w = workloads.make("growth-mc", "")
    return w, *_one_op(w)


@pytest.fixture()
def roundtrip_op(tmp_path):
    w = workloads.RoundtripWorkload(str(tmp_path), n=60)
    return w, *_one_op(w)


def test_valid_outputs_pass(uniform_op, growth_op, roundtrip_op):
    for w, s, out in (uniform_op, growth_op, roundtrip_op):
        w.check(out, s)


def test_check_rejects_degree_histogram_total(uniform_op):
    w, s, out = uniform_op
    report = out[1]
    assert report.name == "degree-uniform"
    hist = report.estimates["histogram"]
    k = next(iter(hist))
    hist[k] += 1
    try:
        with pytest.raises(CheckFailed, match="histogram total"):
            w.check(out, s)
    finally:
        hist[k] -= 1


@pytest.mark.parametrize("index,key", [(0, "ratio"), (2, "chi2_pvalue")])
def test_check_rejects_non_finite_uniform(uniform_op, index, key):
    w, s, out = uniform_op
    est = out[index].estimates
    saved = est[key]
    est[key] = math.nan
    try:
        with pytest.raises(CheckFailed, match="non-finite"):
            w.check(out, s)
    finally:
        est[key] = saved


@pytest.mark.parametrize("index,key", [(1, "mean_depth"), (2, "fitted_constant")])
def test_check_rejects_non_finite_growth(growth_op, index, key):
    w, s, out = growth_op
    est = out[index].estimates
    saved = est[key]
    est[key] = math.inf
    try:
        with pytest.raises(CheckFailed, match="non-finite"):
            w.check(out, s)
    finally:
        est[key] = saved


def test_check_rejects_non_integer_typical_distance(growth_op):
    w, s, out = growth_op
    ratio = out[0].estimates["ratio"]
    (key,) = ratio
    saved = ratio[key]
    ratio[key] = saved * 1.01
    try:
        with pytest.raises(CheckFailed, match="not a graph distance"):
            w.check(out, s)
    finally:
        ratio[key] = saved


def _change_one_letter(t: trees.OrderedTree) -> trees.OrderedTree:
    """The tree whose internal words are those of t with one last letter
    changed: a deepest internal node moves to a free sibling slot."""
    internal = set(t.internal_words())
    for w in sorted(internal, key=len, reverse=True):
        if not w:
            continue
        for letter in range(1, t.arity + 1):
            moved = w[:-1] + (letter,)
            if moved not in internal:
                return trees.OrderedTree.from_internal_words(t.arity, (internal - {w}) | {moved})
    raise AssertionError("no internal node can move")


@pytest.mark.parametrize("family", ["tri", "quad"])
def test_check_rejects_recovered_tree_with_one_letter_changed(roundtrip_op, family):
    w, s, out = roundtrip_op
    r = out[family]
    bad = _change_one_letter(r["recovered"])
    assert bad != r["tree"] and bad.n_internal == r["tree"].n_internal
    r["recovered"] = bad
    with pytest.raises(CheckFailed, match="tree_from_map"):
        w.check(out, s)


@pytest.mark.parametrize("family", ["tri", "quad"])
def test_check_rejects_root_distance_off_by_one(roundtrip_op, family):
    w, s, out = roundtrip_op
    out[family]["words"][17] += 1
    with pytest.raises(CheckFailed, match="BFS distance"):
        w.check(out, s)


class _Raising:
    """Workload whose ops raise, and whose probes overflow the stack."""

    name = "raising"
    probes = ("tri",)

    def __init__(self, exc):
        self.exc = exc

    def op(self, seed):
        raise self.exc

    def check(self, out, seed):
        pass

    def canonical(self, out):
        return b""

    def probe(self, family):
        def down(k):
            return down(k + 1)
        down(0)


@pytest.mark.parametrize("exc", [ValueError("boom"), maps.NotStackMapError("no apex"),
                                 RecursionError("too deep"), CheckFailed("wrong")])
def test_op_exception_is_counted_not_raised(exc):
    res = worker.run_ops(_Raising(exc), 1, 1, count=3)
    assert (res.attempted, res.failed, res.latencies_s) == (3, 3, [])
    assert type(exc).__name__ in res.errors[0]


def test_probe_recursion_error_is_recorded():
    (probe,) = worker.run_probes(_Raising(None))
    assert probe["family"] == "tri" and not probe["ok"]
    assert probe["error"].startswith("RecursionError")


def test_time_bounded_loop_counts_every_op(uniform_op):
    w = uniform_op[0]
    res = worker.run_ops(w, 3, 1, seconds=0.2)
    assert res.attempted >= 1 and res.failed == 0
    assert len(res.latencies_s) == res.attempted
    assert res.out_bytes > 0


def test_tracer_sees_calls_inside_the_library(tmp_path):
    originals = (stats.run_experiment, trees.sample_offspring_sequence,
                 trees.OrderedTree.__init__, maps.tree_from_map)
    with tracer.Tracer() as tr:
        stats.run_experiment("degree-uniform", {"n": 50, "reps": 4}, 1)
        w = workloads.RoundtripWorkload(str(tmp_path), n=40)
        w.check(w.op(5), 5)
        bad = maps.theta()
        bad.adjacency.append([0, 1])
        bad.adjacency[0].append(3)
        bad.adjacency[1].append(3)
        with pytest.raises(maps.NotStackMapError):
            maps.tree_from_map(bad)
    st = tr.stats
    assert st["stats.run_experiment"].calls == 1
    assert st["stats.degree_from_offspring"].calls == 4
    # 4 from degree-uniform, 2 from sample_uniform_tree inside cli.main
    assert st["trees.sample_offspring_sequence"].calls == 6
    assert st["cli.main"].calls == 2
    assert st["maps.tree_from_map"].calls == 3
    assert st["maps.tree_from_map"].failed == 1
    assert st["maps.tree_from_map"].failed_s > 0
    assert st["passage.tri_root_distance"].calls == 40
    assert st["passage.quad_root_distance"].calls == 40
    assert st["passage.tri_root_distance"].counter > 0
    assert st["maps.distance_matrix"].counter == 2
    assert st["maps.StackMap.to_json"].counter > 0
    assert st["maps.map_from_tree"].counter > 2 * 40
    # self time excludes wrapped callees
    for s in st.values():
        assert s.self_s >= 0
    assert len(tr.spans) == sum(s.calls for s in st.values())
    parents = {p for _, _, _, p, _ in tr.spans}
    assert parents - {-1}, "nested spans carry their parent"
    # originals restored everywhere
    assert (stats.run_experiment, trees.sample_offspring_sequence,
            trees.OrderedTree.__init__, maps.tree_from_map) == originals
    path = tmp_path / "spans.json"
    tr.write_spans(path)
    doc = json.loads(path.read_text())
    assert len(doc["spans"]) == len(tr.spans)


def test_parse_importtime_attributes_to_innermost_family():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       inspect",
        "import time:       200 |        230 |     scipy.stats",
        "import time:        10 |        390 |   stackmaps.maps",
        "import time:         5 |          5 |   json",
        "import time:         1 |        396 | stackmaps",
    ])
    got = tracer.parse_importtime(stderr)
    assert got == pytest.approx({"numpy": 150e-6, "scipy": 230e-6, "stackmaps": 16e-6})


def test_benchmark_json_metrics_are_produced():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with tracer.Tracer() as tr:
        traced = {name for name, *_ in tr.targets()}
    for m in spec["per_layer"]:
        name = m["name"]
        if name.startswith(("cli.import.", "trace.")):
            continue
        fn, field = name.rsplit(".", 1)
        assert fn in traced, name
        assert field in ("calls", "self_s", "failed", "failed_s") or \
            tracer.COUNTERS[fn][0] == field, name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in run.WORKLOADS:
        assert run.EXPECTED_CALLS[w] <= traced

