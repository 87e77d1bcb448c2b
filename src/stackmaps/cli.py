"""Command-line entry point.

Subcommands: sample, enumerate, count, verify, stats, draw, frag, ball,
passage.  Exit codes: 0 success, 1 usage error (a flag out of its range
included) or a sampler over its node cap, 2 failed verification.
The seed comes from --seed, falling back to the STACKMAP_SEED environment
variable, then 0; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

from . import counting, fragmentation, localtopo, maps, stats, trees
from .passage import (
    gamma,
    gamma_prime_literal,
    quad_root_distance,
    quad_type,
    tau_decomposition,
    tri_type,
)

FAMILIES = {"tri": maps.TRIANGULATION, "quad": maps.QUADRANGULATION}
ARITY = {name: maps._ARITY[family] for name, family in FAMILIES.items()}

# Inclusive ranges of the numeric flags.  The upper ends keep one run to
# seconds and a few hundred MB (timed on a shared 2-vCPU x86_64 VM):
# `sample --size 100000` takes about 0.6-1.1 s and 100-130 MB (either law
# and family), `frag --k 100000` about 2.5-4 s and 170-210 MB (arity 2-3),
# `ball --r 30` about 0.5 s and 50 MB.
# (`enumerate --size` is bounded by trees.DEFAULT_EXHAUSTIVE_BOUND.)
SIZE_RANGE = (0, 10**5)  # sample --size, draw --size
FRAG_K_RANGE = (1, 10**5)
BALL_R_RANGE = (1, 30)
STATS_N_RANGE = (2, 10**6)
STATS_REPS_RANGE = (1, 10**6)
# count --n, --m: at 1000 every count prints in about 1 ms with at most 2867
# digits, under Python's 4300-digit limit for int-to-str
COUNT_RANGE = (0, 1000)
# verify --max-exhaustive mx: the pair-bound check runs sizes 2..mx, and the
# histories check enumerates trees of size mx + 1
MAX_EXHAUSTIVE_RANGE = (2, trees.DEFAULT_EXHAUSTIVE_BOUND - 1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
    else:
        print(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("STACKMAP_SEED", "0"))


def _check_range(flag: str, value: int, bounds: tuple[int, int]) -> None:
    lo, hi = bounds
    if not lo <= value <= hi:
        raise ValueError(f"--{flag} must be in [{lo}, {hi}], got {value}")


def _sample_tree(family: str, law: str, size: int, seed: int) -> trees.OrderedTree:
    _check_range("size", size, SIZE_RANGE)
    rng = trees.rng_from_seed(seed)
    arity = ARITY[family]
    if law == "uniform":
        return trees.sample_uniform_tree(arity, size, rng)
    return trees.sample_increasing_tree(arity, size, rng).shape()


def _emit_map(m: maps.StackMap, args) -> int:
    _emit(maps.to_svg(m) if args.format == "svg" else m.to_json(), args.out)
    return 0


def cmd_sample(args) -> int:
    """`sample`, and `draw`, which is `sample --format svg`."""
    t = _sample_tree(args.family, args.law, args.size, _seed(args))
    return _emit_map(maps.map_from_tree(t, FAMILIES[args.family]), args)


def cmd_enumerate(args) -> int:
    ts = trees.enumerate_trees(ARITY[args.family], args.size)
    _emit(json.dumps([t.to_parens() for t in ts]), args.out)
    return 0


def cmd_count(args) -> int:
    _check_range("n", args.n, COUNT_RANGE)
    if args.m is not None and args.what != "forests":
        raise ValueError(f"--m counts forest roots; --what {args.what} takes no --m")
    if args.what == "trees":
        val = counting.count_trees(ARITY[args.family], args.n)
    elif args.what == "forests":
        m = 1 if args.m is None else args.m
        _check_range("m", m, COUNT_RANGE)
        val = counting.count_forests(ARITY[args.family], m, args.n)
    else:
        if args.family != "tri":
            raise ValueError("--what histories counts stack-triangulation histories; "
                             "it takes only --family tri")
        val = counting.histories_total(args.n)
    _emit(str(val), args.out)
    return 0


def cmd_stats(args) -> int:
    # run_experiment rejects --n for the sized experiments
    params = {}
    if args.n is not None:
        _check_range("n", args.n, STATS_N_RANGE)
        params["n"] = args.n
    if args.reps is not None:
        _check_range("reps", args.reps, STATS_REPS_RANGE)
        params["reps"] = args.reps
    report = stats.run_experiment(args.experiment, params, _seed(args))
    nonfinite = [k for k, v in report.estimates.items()
                 if isinstance(v, float) and not math.isfinite(v)]
    if nonfinite:
        raise ValueError(f"{args.experiment} gives a non-finite {', '.join(nonfinite)}: "
                         "too few samples for the test; raise --reps")
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(text, args.out)
    return 0


def cmd_frag(args) -> int:
    _check_range("k", args.k, FRAG_K_RANGE)
    rng = trees.rng_from_seed(_seed(args))
    ft = fragmentation.build_fragmentation_tree(args.arity, args.k, rng)
    _emit(ft.to_json(), args.out)
    return 0


def cmd_ball(args) -> int:
    _check_range("r", args.r, BALL_R_RANGE)
    rng = trees.rng_from_seed(_seed(args))
    t, _ = localtopo.sample_spine_tree(ARITY[args.family], args.r, rng)
    return _emit_map(localtopo.infinite_map_ball(t, args.r), args)


def cmd_passage(args) -> int:
    k = ARITY[args.family]
    if set(args.word) - set("123"[:k]):
        raise ValueError(f"--word must be a string of letters 1..{k}, got {args.word!r}")
    word = tuple(int(c) for c in args.word)
    if args.family == "tri":
        info = {
            "word": args.word,
            "tau": tau_decomposition(word),
            "gamma": gamma(word),
            "type": list(tri_type(word)),
        }
    else:
        info = {
            "word": args.word,
            "type": list(quad_type(word)),
            "root_distance": quad_root_distance(word),
            "gamma_prime_literal": gamma_prime_literal(word),
        }
    _emit(json.dumps(info, sort_keys=True), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify: every module-level invariant, each with a stable ID


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    _check_range("max-exhaustive", args.max_exhaustive, MAX_EXHAUSTIVE_RANGE)
    results = verify_mod.run_all(level=args.level, max_exhaustive=args.max_exhaustive)
    failed = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


# flags shared by several subcommands; each subcommand names the ones its
# handler reads
_SHARED = {
    "family": dict(choices=("tri", "quad"), default="tri"),
    "seed": dict(type=int, default=None),
    "out": dict(default=None),
    "law": dict(choices=("uniform", "growth"), default="uniform"),
}


@cache
def build_parser() -> _Parser:
    """The parser, built on the first call and kept: each parse starts from
    a fresh namespace, so no value carries over between calls."""
    p = _Parser(prog="stackmaps", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, help, shared, **defaults):
        sp = sub.add_parser(name, help=help)
        for flag in shared:
            sp.add_argument(f"--{flag}", **_SHARED[flag])
        sp.set_defaults(fn=fn, **defaults)
        return sp

    sp = add("sample", cmd_sample, "sample a random stack-map", ("family", "seed", "out", "law"))
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--format", choices=("json", "svg"), default="json")

    sp = add("enumerate", cmd_enumerate, "list all trees of a given size", ("family", "out"))
    sp.add_argument("--size", type=int, required=True)

    sp = add("count", cmd_count, "exact counting formulas", ("family", "out"))
    sp.add_argument("--what", choices=("trees", "forests", "histories"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=None, help="forest roots (default 1)")

    sp = add("verify", cmd_verify, "run the invariant suites", ())
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--max-exhaustive", type=int, default=4)

    sp = add("stats", cmd_stats, "Monte-Carlo experiments", ("seed", "out"))
    sp.add_argument("--experiment", required=True, choices=sorted(stats.EXPERIMENTS))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--reps", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = add("draw", cmd_sample, "SVG drawing of a sampled map",
             ("family", "seed", "out", "law"), format="svg")
    sp.add_argument("--size", type=int, required=True)

    sp = add("frag", cmd_frag, "sample a fragmentation tree", ("seed", "out"))
    sp.add_argument("--arity", type=int, choices=(2, 3), default=3)
    sp.add_argument("--k", type=int, required=True)

    sp = add("ball", cmd_ball, "finite ball of the local-limit map", ("family", "seed", "out"))
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--format", choices=("json", "svg"), default="json")

    sp = add("passage", cmd_passage, "evaluate passage statistics of a word", ("family", "out"))
    sp.add_argument("--word", required=True)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, trees.CapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
