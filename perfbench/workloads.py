"""The benchmark's workloads: what one op runs, and how its output is checked.

Every op is seeded from (workload seed, op index) and calls only the
public ``stackmaps`` API.  ``check`` raises ``CheckFailed`` on a wrong
output; ``canonical`` gives the bytes that enter the output digest.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from stackmaps import cli, maps, passage, stats, trees

#: nested path 1^DEEP_PATH: the tree height at which recursive tree
#: recovery must still work under the default recursion limit
DEEP_PATH = 2000

ROUNDTRIP_SIZE = 1000


class CheckFailed(AssertionError):
    """An op returned a wrong output."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index``; index 0 is the untimed warm-up op."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Monte-Carlo workloads: each op is a list of registry experiments


def _finite_numbers(obj, path="estimates"):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _finite_numbers(v, f"{path}.{k}")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def _check_report(report, name: str, params: dict, seed: int) -> None:
    require(report.name == name, f"report name {report.name!r} != {name!r}")
    require(report.seed == seed, f"{name}: seed {report.seed} != {seed}")
    require(report.replicates == params["reps"], f"{name}: replicates {report.replicates}")
    for path, x in list(_finite_numbers(report.estimates)) + list(
        _finite_numbers(report.stderrs, "stderrs")
    ):
        require(math.isfinite(x), f"{name}: non-finite {path} = {x}")
    est = report.estimates
    if name == "radius-scaling":
        (n,) = params["sizes"]
        r = est["mean_radius"][str(n)]
        require(r == int(r) and 1 <= r <= n, f"{name}: radius {r} for n={n}")
    elif name in ("degree-uniform", "subtree-size"):
        p = est["chi2_pvalue"]
        require(0.0 <= p <= 1.0, f"{name}: p-value {p}")
        if name == "degree-uniform":
            hist = {int(k): c for k, c in est["histogram"].items()}
            total = sum(hist.values())
            require(total == params["reps"], f"{name}: histogram total {total} != reps")
            require(min(hist) >= 0, f"{name}: negative degree excess {min(hist)}")
            mean = 3 + sum(k * c for k, c in hist.items()) / total
            require(abs(mean - est["mean_degree"]) < 1e-9, f"{name}: mean_degree {mean}")
        else:
            d = est["dropped_beyond_kmax"]
            require(0 <= d <= params["reps"], f"{name}: dropped {d}")
    elif name == "typical-distance":
        (n,) = params["sizes"]
        # the two vertices are drawn with replacement, so 0 is a valid distance
        d = est["ratio"][str(n)] * (6.0 / 11.0) * math.log(n)
        require(abs(d - round(d)) < 1e-6 and 0 <= round(d) <= n + 3,
                f"{name}: distance {d} is not a graph distance")
    elif name in ("tri-depth", "bin-depth"):
        m = est["mean_depth"]
        require(1 <= m <= params["n"], f"{name}: mean depth {m}")


class StatsWorkload:
    """One op runs ``stats.run_experiment`` once per listed experiment."""

    probes = ()

    def __init__(self, name: str, experiments):
        self.name = name
        self.experiments = experiments

    def op(self, seed: int):
        return [stats.run_experiment(n, dict(p), seed) for n, p in self.experiments]

    def check(self, out, seed: int) -> None:
        require(len(out) == len(self.experiments), "missing reports")
        for report, (name, params) in zip(out, self.experiments):
            _check_report(report, name, params, seed)

    def canonical(self, out) -> bytes:
        return "\n".join(r.to_json() for r in out).encode()


# ---------------------------------------------------------------------------
# roundtrip: CLI sample -> JSON -> tree -> map -> recovered tree


FAMILY_ARITY = {"tri": 3, "quad": 2}


def _roundtrip_family(family: str, n: int, seed: int, out_path: str) -> dict:
    rc = cli.main(["sample", "--family", family, "--size", str(n),
                   "--seed", str(seed), "--out", out_path])
    with open(out_path, "rb") as f:
        raw = f.read()
    data = json.loads(raw)
    t = trees.OrderedTree.from_parens(FAMILY_ARITY[family], data["tree"])
    m = maps.map_from_tree(t, cli.FAMILIES[family])
    recovered = maps.tree_from_map(m)
    words = t.internal_words()
    bfs = maps.distance_matrix(m, [0])[0]
    # looked up at call time, so the tracer's wrappers are seen
    dist = passage.tri_root_distance if family == "tri" else passage.quad_root_distance
    return {
        "rc": rc,
        "raw": raw,
        "family": data["family"],
        "n_vertices": m.n_vertices,
        "tree": t,
        "recovered": recovered,
        "bfs": [int(bfs[m.vertex_of(w)]) for w in words],
        "words": [dist(w) for w in words],
    }


def _check_family(r: dict, family: str, n: int) -> None:
    require(r["rc"] == 0, f"{family}: stackmaps sample exited {r['rc']}")
    require(r["family"] == cli.FAMILIES[family], f"{family}: JSON family {r['family']!r}")
    t = r["tree"]
    require(t.n_internal == n, f"{family}: {t.n_internal} internal nodes, wanted {n}")
    nb = 3 if family == "tri" else 4
    require(r["n_vertices"] == n + nb, f"{family}: map has {r['n_vertices']} vertices")
    require(r["recovered"] == t, f"{family}: tree_from_map(map_from_tree(t)) != t")
    require(len(r["bfs"]) == len(r["words"]) == n, f"{family}: distance list lengths")
    for i, (a, b) in enumerate(zip(r["bfs"], r["words"])):
        require(a == b, f"{family}: internal node {i}: BFS distance {a} != word distance {b}")


class RoundtripWorkload:
    """One op is a tri and a quad round trip at ``ROUNDTRIP_SIZE``."""

    name = "roundtrip"
    probes = ("tri", "quad")

    def __init__(self, tmp_dir: str, n: int = ROUNDTRIP_SIZE):
        self.tmp_dir = tmp_dir
        self.n = n

    def op(self, seed: int):
        return {
            fam: _roundtrip_family(fam, self.n, seed, os.path.join(self.tmp_dir, f"{fam}.json"))
            for fam in FAMILY_ARITY
        }

    def check(self, out, seed: int) -> None:
        require(set(out) == set(FAMILY_ARITY), "missing family")
        for fam in FAMILY_ARITY:
            _check_family(out[fam], fam, self.n)

    def canonical(self, out) -> bytes:
        return b"".join(out[fam]["raw"] for fam in FAMILY_ARITY)

    def probe(self, family: str) -> None:
        """Round trip of the nested path 1^DEEP_PATH, under the default
        recursion limit."""
        arity = FAMILY_ARITY[family]
        t = trees.OrderedTree.from_internal_words(arity, [(1,) * k for k in range(DEEP_PATH)])
        m = maps.map_from_tree(t, cli.FAMILIES[family])
        require(maps.tree_from_map(m) == t, f"{family} deep path: recovered tree differs")


WORKLOAD_NAMES = ("uniform-mc", "growth-mc", "roundtrip")


def make(name: str, tmp_dir: str):
    if name == "uniform-mc":
        return StatsWorkload(name, [
            ("radius-scaling", {"sizes": [10**4], "reps": 1}),
            ("degree-uniform", {"n": 2000, "reps": 25}),
            ("subtree-size", {"n": 3000, "reps": 25}),
        ])
    if name == "growth-mc":
        return StatsWorkload(name, [
            ("typical-distance", {"sizes": [10**4], "reps": 1}),
            ("tri-depth", {"n": 10**4, "reps": 1, "window": 3000}),
            ("bin-depth", {"n": 10**4, "reps": 1, "window": 3000}),
        ])
    if name == "roundtrip":
        return RoundtripWorkload(tmp_dir)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
