"""One share of a workload run, in a fresh single-threaded interpreter.

Started by ``run.py``, never imported by the library.  Modes:

- ``setup``: import ``stackmaps.cli``, build the workload and run the
  checked, untimed warm-up op (set-up), then exit;
- ``run``: set up, then a closed loop of ops 1, 2, 3, ... for ``--seconds``
  (one caller; the next op starts when the previous one returns), then the
  workload's deep-path probes;
- ``trace``: set up, a closed untraced loop for half of ``--seconds``, then
  the same ops again with every layer wrapped by ``tracer.Tracer``.

Set-up time runs from the parent's spawn timestamp (system-wide monotonic
clock) to the first timed op.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, field
from time import perf_counter

#: ops whose canonical output enters the digest: the warm-up op and the
#: first timed ones, so the digest does not depend on machine speed
DIGEST_OPS = 8


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    latencies_s: list = field(default_factory=list)
    cycles_s: list = field(default_factory=list)  # op + check, per passed op
    wall_s: float = 0.0
    out_bytes: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # op index -> sha256 of its output


def run_ops(workload, seed, first, *, seconds=None, count=None, tracer=None):
    """Closed loop over ops ``first, first+1, ...`` until ``seconds``
    have passed or ``count`` ops ran.  An op that raises or fails its check
    is counted as failed and the loop goes on; latency covers the op only,
    the cycle time and the wall time also cover its check."""
    from workloads import op_seed

    res = LoopResult()
    start = perf_counter()
    index = first
    while (res.attempted < count) if count is not None else (perf_counter() - start < seconds):
        s = op_seed(seed, index)
        if tracer is not None:
            tracer.op_id = index
        t0 = perf_counter()
        try:
            out = workload.op(s)
            t1 = perf_counter()
            workload.check(out, s)
            data = workload.canonical(out)
        except Exception as e:  # an op failure is a result, not a crash
            res.failed += 1
            res.errors.append(f"op {index}: {type(e).__name__}: {str(e)[:200]}")
        else:
            res.latencies_s.append(t1 - t0)
            res.cycles_s.append(perf_counter() - t0)
            res.out_bytes += len(data)
            if index < DIGEST_OPS:
                res.digests[index] = hashlib.sha256(data).hexdigest()
        res.attempted += 1
        index += 1
    res.wall_s = perf_counter() - start
    return res


def run_probes(workload) -> list[dict]:
    """Deep-path probes, under the interpreter's default recursion limit.
    A failure (``RecursionError``, ``NotStackMapError``, a failed check) is
    recorded, never raised."""
    out = []
    for family in workload.probes:
        t0 = perf_counter()
        try:
            workload.probe(family)
            error = None
        except Exception as e:
            error = f"{type(e).__name__}: {str(e)[:200]}"
        out.append({"family": family, "ok": error is None, "error": error,
                    "seconds": perf_counter() - t0})
    return out


def _setup(args, tmp_dir):
    """Everything up to the first timed op; returns (workload, warm-up
    loop result, set-up seconds)."""
    import stackmaps.cli  # the import is part of set-up
    import workloads

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(stackmaps.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"stackmaps imported from {stackmaps.cli.__file__}, not from {src}")
    workload = workloads.make(args.workload, tmp_dir)
    warm = run_ops(workload, args.seed, 0, count=1)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned_ns) / 1e9
    return workload, warm, setup_s


def _loop_dict(res: LoopResult) -> dict:
    return {
        "attempted": res.attempted,
        "failed": res.failed,
        "latencies_s": res.latencies_s,
        "cycles_s": res.cycles_s,
        "wall_s": res.wall_s,
        "out_bytes": res.out_bytes,
        "errors": res.errors[:5],
        "digests": res.digests,
    }


def _trace(args, workload, out: dict) -> None:
    from tracer import Tracer

    plain = run_ops(workload, args.seed, 1, seconds=args.seconds / 2)
    with Tracer() as tracer:
        traced = run_ops(workload, args.seed, 1, count=plain.attempted, tracer=tracer)
        per_op = {
            name: {"calls": st.calls, "self_s": st.self_s, "counter": st.counter}
            for name, st in tracer.stats.items()
        }
        tracer.op_id = "probe"
        out["probes"] = run_probes(workload)
    for name, st in tracer.stats.items():
        per_op[name].update(failed=st.failed, failed_s=st.failed_s)
    tracer.write_spans(os.path.join(args.state_dir, f"spans-{args.workload}.json"))
    out.update(
        untraced=_loop_dict(plain),
        traced=_loop_dict(traced),
        functions=per_op,
        spans=len(tracer.spans),
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--state-dir", required=True)
    p.add_argument("--spawned-ns", type=int, required=True)
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.state_dir) as tmp_dir:
        workload, warm, setup_s = _setup(args, tmp_dir)
        out = {"setup_s": setup_s, "warmup": _loop_dict(warm)}
        if args.mode == "run":
            res = run_ops(workload, args.seed, 1, seconds=args.seconds)
            # peak RSS of the timed phase, before the probes build their
            # O(height^2) word tuples
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["probes"] = run_probes(workload)
            out.update(_loop_dict(res))
        elif args.mode == "trace":
            _trace(args, workload, out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
