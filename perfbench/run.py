"""stackmaps benchmark: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in fresh single-threaded interpreters (see worker.py) on
the ``stackmaps`` sources under ``src/`` of the same checkout.  With
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are measured;
with ``--trace 1`` a separate traced run gives the per-layer metrics.
Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a
traced run go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("uniform-mc", "growth-mc", "roundtrip")

#: fresh interpreters whose set-up is timed in an untraced run: the one that
#: runs the timed phase and SETUP_SAMPLES - 1 that only set up
SETUP_SAMPLES = 3
#: ``python -X importtime`` runs per traced run, for cli.import.*
IMPORTTIME_SAMPLES = 3

#: one process, one thread: BLAS/OpenMP pools pinned to a single thread
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: per-layer functions that must be called on each workload; any other
#: per-layer function must not be
EXPECTED_CALLS = {
    "uniform-mc": {
        "trees.sample_offspring_sequence", "maps.adjacency_from_offspring",
        "maps.csgraph_from_adjacency", "maps.bfs_distances_from",
        "stats.run_experiment", "stats.degree_from_offspring",
        "stats.EmpiricalPMF.chisquare_pvalue",
    },
    "growth-mc": {
        "trees.sample_increasing_tree", "trees.offspring_from_internal_words",
        "maps.adjacency_from_offspring", "maps.csgraph_from_adjacency",
        "maps.bfs_distances_from", "stats.run_experiment",
    },
    "roundtrip": {
        "trees.sample_offspring_sequence", "trees.offspring_from_internal_words",
        "trees.OrderedTree", "trees.OrderedTree.words",
        "passage.tri_type", "passage.tri_root_distance",
        "passage.quad_type", "passage.quad_root_distance",
        "maps.tree_from_map", "maps.map_from_tree", "maps.StackMap.to_json",
        "maps.distance_matrix", "cli.main",
    },
}

#: layers no workload times, and why
UNTIMED_LAYERS = {
    "passage.GammaState": "used only by the gamma-rate and quad-rate experiments",
    "counting": "on none of the three workloads",
    "fragmentation": "on none of the three workloads",
    "localtopo": "on none of the three workloads",
    "verify": "on none of the three workloads; `stackmaps verify --level full` "
              "is one ~5 s pass, about 60% of it passage word sweeps",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# processes


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--root", ROOT, "--state-dir", STATE_DIR,
        "--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
    ]
    timeout = 60 + 2.5 * seconds
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} worker for {workload} exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times() -> dict[str, float]:
    from tracer import parse_importtime

    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import stackmaps.cli"],
            env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"import of stackmaps.cli failed:\n{proc.stderr[-3000:]}")
        runs.append(parse_importtime(proc.stderr))
    return {fam: statistics.median(r[fam] for r in runs) for fam in runs[0]}


# ---------------------------------------------------------------------------
# metadata


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (the
    checkout need not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(pkg: str) -> str:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "pinned_env": PINNED_ENV,
        "loop": "closed, 1 process, 1 thread",
        "waiting_s": 0.0,  # single thread, no queues: zero by construction
    }


# ---------------------------------------------------------------------------
# metrics


def _p90_with_tail(xs) -> tuple[float, int] | None:
    """90th percentile and the number of samples beyond it, when at least
    ten lie beyond it."""
    if len(xs) < 2:
        return None
    p90 = statistics.quantiles(xs, n=10)[-1]
    beyond = sum(1 for x in xs if x > p90)
    return (p90, beyond) if beyond >= 10 else None


def _probe_lines(w: str, probes: list, where: str, lines: list) -> None:
    for pr in probes:
        status = "ok" if pr["ok"] else f"FAILED {pr['error']}"
        lines.append(f"{w}  deep_probe {pr['family']} 1^2000  {status}  "
                     f"({pr['seconds']:.2f} s, {where})")


def upper_quartile(xs) -> float:
    """75th percentile of ``xs``, interpolated.

    ops_per_s and op_ms_p75 are read at this point rather than at the mean
    or median.  On a shared 2-vCPU VM (Xeon, 2.1 GHz) the CPU runs in a slow
    state most of the time and in a state up to 1.9 times faster for
    stretches of 2 to 30 s.  The share of fast time in a run sets its mean
    and median; the upper quartile stays in the slow state until that share
    nears a half, and a stall of a few ops barely moves it."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")[2]


def measure(workload: str, seed: int, seconds: float, lines: list) -> tuple[dict, dict]:
    """Untraced run: returns (end-to-end metric values, run summary)."""
    setups = [_worker("setup", workload, seed, 0) for _ in range(SETUP_SAMPLES - 1)]
    r = _worker("run", workload, seed, seconds)
    with open(os.path.join(STATE_DIR, f"run-{workload}.json"), "w") as f:
        json.dump(r, f)
    attempted, failed = r["attempted"], r["failed"]
    errors = [e for x in setups + [r] for e in x["warmup"]["errors"]] + r["errors"]
    if not r["latencies_s"]:
        raise BenchError(f"{workload}: no op passed: {errors}")
    lat_ms = [x * 1e3 for x in r["latencies_s"]]
    digests = dict(r["warmup"]["digests"], **r["digests"])
    digest = hashlib.sha256("".join(digests[i] for i in sorted(digests, key=int)).encode())
    setup_samples = [x["setup_s"] for x in setups + [r]]
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": 1.0 / upper_quartile(r["cycles_s"]),
        "op_ms_p75": upper_quartile(lat_ms),
        "peak_rss_mb": r["peak_rss_mb"],
        "out_bytes_per_op": r["out_bytes"] / len(lat_ms),
    }
    w = workload
    samples = ", ".join(f"{x:.3f}" for x in setup_samples)
    lines.append(f"{w}  setup_s           {values['setup_s']:.4f} s    "
                 f"(median of {SETUP_SAMPLES} fresh interpreters: {samples})")
    lines.append(f"{w}  ops_per_s         {values['ops_per_s']:.4f} 1/s  "
                 f"(1 / p75 of op cycle, n={len(lat_ms)}; closed loop)")
    lines.append(f"{w}  op_ms_p75         {values['op_ms_p75']:.3f} ms   (n={len(lat_ms)})")
    lines.append(f"{w}  whole run         {attempted} ops in {r['wall_s']:.3f} s: "
                 f"{attempted / r['wall_s']:.4f} ops/s, op_ms_p50 "
                 f"{statistics.median(lat_ms):.3f} ms (n={len(lat_ms)})")
    tail = _p90_with_tail(lat_ms)
    if tail:
        lines.append(f"{w}  op_ms_p90         {tail[0]:.3f} ms   "
                     f"(whole run, n={len(lat_ms)}, {tail[1]} beyond)")
    else:
        lines.append(f"{w}  op_ms_p90         not reported  "
                     f"(n={len(lat_ms)}: fewer than 10 samples beyond it)")
    lines.append(f"{w}  peak_rss_mb       {values['peak_rss_mb']:.1f} MB   "
                 f"(the timed interpreter)")
    lines.append(f"{w}  fail_ratio        {failed / attempted:.4f}  "
                 f"(ops {attempted}, ops_failed {failed})")
    lines.append(f"{w}  out_bytes_per_op  {values['out_bytes_per_op']:.1f} B")
    _probe_lines(w, r["probes"], "outside the timed phase", lines)
    lines.append(f"{w}  digest            sha256:{digest.hexdigest()}  "
                 f"(ops {', '.join(sorted(digests, key=int))}; information only)")
    for e in errors:
        lines.append(f"{w}  ERROR {e}")
    warm_failed = sum(x["warmup"]["failed"] for x in setups + [r])
    summary = {"attempted": attempted, "failed": failed,
               "correct": failed == 0 and warm_failed == 0}
    return values, summary


def _layer_value(name: str, tr: dict, imports: dict, overhead_pct: float):
    """Value of one per-layer metric of BENCHMARK.json."""
    if name.startswith("cli.import."):
        return imports[name[len("cli.import."):-len("_s")]]
    n_ops = tr["traced"]["attempted"]
    if name == "trace.ops":
        return n_ops
    if name == "trace.overhead_pct":
        return overhead_pct
    fn, field = name.rsplit(".", 1)
    st = tr["functions"][fn]
    if field in ("failed", "failed_s"):
        return st[field]  # totals over the traced phase, probes included
    return st[field if field in ("calls", "self_s") else "counter"] / n_ops


def trace(workload: str, seed: int, seconds: float, layer_names, lines: list) -> tuple[dict, dict]:
    """Traced run: returns (per-layer metric values, run summary)."""
    imports = _import_times()
    tr = _worker("trace", workload, seed, seconds)
    u, t = tr["untraced"], tr["traced"]
    # same ops both times, so the throughput ratio is the wall-time ratio
    overhead_pct = 100.0 * (1.0 - u["wall_s"] / t["wall_s"])
    values = {name: _layer_value(name, tr, imports, overhead_pct) for name in layer_names}
    w = workload
    lines.append(f"{w}  traced ops {t['attempted']} (the ops of the untraced "
                 f"{u['wall_s']:.2f} s phase, re-run traced in {t['wall_s']:.2f} s); "
                 f"tracing overhead {overhead_pct:.1f}% of throughput; "
                 f"{tr['spans']} spans in .perfbench/spans-{w}.json")
    lines.append(f"{w}  function                                  calls/op      self_s/op")
    called = {fn for fn, st in tr["functions"].items() if st["calls"]}
    for fn in sorted(called):
        st = tr["functions"][fn]
        lines.append(f"{w}  {fn:<40} {st['calls'] / t['attempted']:>10.2f} "
                     f"{st['self_s'] / t['attempted']:>14.6f}")
    lines.append(f"{w}  wrapped, 0 calls: {', '.join(sorted(set(tr['functions']) - called))}")
    layer_fns = {n.rsplit(".", 1)[0] for n in layer_names} & set(tr["functions"])
    for fn in sorted(EXPECTED_CALLS[w] - called):
        lines.append(f"{w}  COVERAGE FLAG: {fn} has no calls, expected some")
    for fn in sorted((called & layer_fns) - EXPECTED_CALLS[w]):
        lines.append(f"{w}  COVERAGE FLAG: {fn} is called, expected no calls")
    for layer, why in UNTIMED_LAYERS.items():
        lines.append(f"{w}  untimed layer {layer}: {why}")
    _probe_lines(w, tr["probes"], "traced", lines)
    for e in tr["warmup"]["errors"] + u["errors"] + t["errors"]:
        lines.append(f"{w}  ERROR {e}")
    failed = u["failed"] + t["failed"]
    summary = {"attempted": u["attempted"] + t["attempted"], "failed": failed,
               "correct": failed == 0 and tr["warmup"]["failed"] == 0}
    return values, summary


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "stackmaps", "__init__.py")):
        print(f"error: no stackmaps sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    os.makedirs(STATE_DIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            lines = [f"# stackmaps benchmark: workload {w}, seed {args.seed}, "
                     f"{args.seconds:g} s, trace {args.trace}",
                     "# meta " + json.dumps(metadata(w, args.seed, args.seconds, args.trace))]
            if args.trace:
                values, summary = trace(w, args.seed, args.seconds, list(units), lines)
            else:
                values, summary = measure(w, args.seed, args.seconds, lines)
            print("\n".join(lines), flush=True)
            results[w] = (values, summary)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    prefix = len(names) > 1  # name the metrics <workload>.<metric> for --workload all
    out = {
        "correct": all(s["correct"] for _, s in results.values()),
        "attempted": sum(s["attempted"] for _, s in results.values()),
        "failed": sum(s["failed"] for _, s in results.values()),
        "metrics": {(f"{w}." if prefix else "") + n: {"value": values[n], "unit": units[n]}
                    for w, (values, _) in results.items() for n in units},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
