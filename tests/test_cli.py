"""Command-line interface: exit codes, determinism, output formats."""

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

import stackmaps
from stackmaps import localtopo
from stackmaps.cli import build_parser, main

CLI = [sys.executable, "-m", "stackmaps.cli"]
# subprocesses import the stackmaps this test run imported, installed or not
SRC = os.path.dirname(os.path.dirname(stackmaps.__file__))


def subprocess_env(extra=None) -> dict:
    env = dict(os.environ, **(extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(args, env=None):
    return subprocess.run(CLI + args, capture_output=True, text=True, env=subprocess_env(env))


def test_sample_byte_identical():
    args = ["sample", "--family", "tri", "--law", "uniform", "--size", "50", "--seed", "7"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    m = json.loads(a.stdout)
    assert m["family"] == "triangulation"


def test_sample_growth_law():
    r = run_cli(["sample", "--family", "quad", "--law", "growth", "--size", "20", "--seed", "1"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["family"] == "quadrangulation"


def test_sample_svg(tmp_path):
    out = tmp_path / "m.svg"
    r = run_cli(["sample", "--family", "tri", "--size", "10", "--seed", "2",
                 "--format", "svg", "--out", str(out)])
    assert r.returncode == 0
    assert out.read_text().startswith("<svg")


def test_seed_env_fallback():
    args = ["sample", "--family", "tri", "--size", "30"]
    a = run_cli(args, env={"STACKMAP_SEED": "123"})
    b = run_cli(args, env={"STACKMAP_SEED": "123"})
    c = run_cli(args, env={"STACKMAP_SEED": "124"})
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_seed_flag_beats_env():
    a = run_cli(["sample", "--family", "tri", "--size", "30", "--seed", "5"],
                env={"STACKMAP_SEED": "123"})
    b = run_cli(["sample", "--family", "tri", "--size", "30", "--seed", "5"])
    assert a.stdout == b.stdout


def test_enumerate():
    r = run_cli(["enumerate", "--family", "tri", "--size", "2"])
    assert r.returncode == 0
    assert len(json.loads(r.stdout)) == 3


def test_enumerate_size_is_bounded():
    r = run_cli(["enumerate", "--family", "tri", "--size", "12"])
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "exhaustive bound" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_enumerate_negative_size_exits_1(capsys):
    assert main(["enumerate", "--size", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: n_internal must be >= 0, got -1\n"


def test_count():
    r = run_cli(["count", "--what", "trees", "--family", "tri", "--n", "5"])
    assert r.stdout.strip() == "273"
    r = run_cli(["count", "--what", "histories", "--n", "3"])
    assert r.stdout.strip() == "15"


def test_count_forests_default_one_root(capsys):
    # --m defaults to 1 for forests: one tree with 3 internal nodes
    assert main(["count", "--what", "forests", "--n", "10"]) == 0
    assert main(["count", "--what", "forests", "--n", "10", "--m", "1"]) == 0
    assert capsys.readouterr().out == "12\n12\n"


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse rejects the command line
        return e.code


@pytest.mark.parametrize("args", [
    ["stats", "--family", "quad", "--experiment", "gamma-rate", "--n", "1000", "--reps", "2"],
    ["frag", "--family", "quad", "--k", "4"],
    ["enumerate", "--seed", "1", "--size", "2"],
    ["count", "--seed", "1", "--what", "trees", "--n", "4"],
    ["passage", "--seed", "1", "--word", "123"],
    ["passage", "eval", "--word", "123"],
    ["count", "--what", "histories", "--family", "quad", "--n", "4"],
    ["count", "--what", "trees", "--n", "4", "--m", "7"],
], ids=["stats-family", "frag-family", "enumerate-seed", "count-seed", "passage-seed",
        "passage-eval", "count-quad-histories", "count-m-without-forests"])
def test_unread_flag_values_refused(args, capsys):
    # each subcommand takes only the flags its handler reads
    assert _exit_code(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: " in err


def test_usage_error_exit_1():
    r = run_cli(["sample", "--family", "hex", "--size", "5"])
    assert r.returncode == 1
    r = run_cli(["no-such-command"])
    assert r.returncode == 1


def test_passage_eval():
    r = run_cli(["passage", "--word", "22123122131"])
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["gamma"] == 4
    assert d["tau"] == [0, 3, 6, 10]


def test_passage_quad():
    r = run_cli(["passage", "--family", "quad", "--word", "11"])
    d = json.loads(r.stdout)
    assert d["root_distance"] == 3
    assert d["gamma_prime_literal"] == 2


@pytest.mark.parametrize("family, word, k", [
    ("tri", "x1", 3), ("tri", "1 2", 3), ("tri", "4", 3), ("quad", "3", 2), ("quad", "12a", 2),
])
def test_passage_word_outside_alphabet_exits_1(family, word, k, capsys):
    assert main(["passage", "--family", family, "--word", word]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --word must be a string of letters 1..{k}, got {word!r}\n"


@pytest.mark.parametrize("cmd", ["sample", "draw"])
@pytest.mark.parametrize("family", ["tri", "quad"])
def test_growth_size_0_is_the_bare_face(cmd, family, capsys):
    # zero insertions under either law leave the root face alone
    args = [cmd, "--family", family, "--size", "0", "--seed", "3"]
    assert main(args + ["--law", "growth"]) == 0
    growth = capsys.readouterr()
    assert main(args + ["--law", "uniform"]) == 0
    assert growth == capsys.readouterr()


# sha256 of `sample --law growth --seed 1` stdout, fixed before the sampler
# and the preorder build were vectorized
GROWTH_SAMPLE_SHA256 = {
    ("tri", 3000): "fea5c96df5a3d589f08b4a7eb9251c9f0e7cfc1cfd6179412b2fcc6cf0c89ee0",
    ("tri", 100000): "9c9da99796254d6b6319c2d8bccf0ed8a955bc4d6b2daaa62cd85a59ed425cb8",
    ("quad", 3000): "33ced8a9316895c23acd9fa835edc326cbb4b6f25763cf19c8efcd8ac9197073",
    ("quad", 100000): "1796e798a7c2c8d2f68af1a9e9b6cecc0d689375f0687f4f7db508f88495b177",
}


@pytest.mark.parametrize("family, size", sorted(GROWTH_SAMPLE_SHA256))
def test_growth_sample_golden_bytes(family, size, capsys):
    args = ["sample", "--family", family, "--law", "growth", "--size", str(size), "--seed", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GROWTH_SAMPLE_SHA256[family, size]


# sha256 of `frag --arity A --k K --seed 1` stdout, fixed while fragmentation
# trees were word-keyed dicts
FRAG_OUTPUT_SHA256 = {
    (2, 1): "8c4d37dc78feb991fdd44b025b4bdd781c866b9f10e1a7068957e691c4e9fbab",
    (2, 2): "9f34cae219f8a3c995ff89e4298d48ea1c71ba46039efc7995c95d688e85d11a",
    (2, 100): "15802433918842a69013df3cd953c531ecb69e355168fb02eb5e97e7ddc93154",
    (2, 40000): "d4cb19bbafba80868fcdc3c575da94b87b61ce440926c7738aeeb0c703a739c9",
    (3, 1): "b2b6920ada4d98c6e692147e651cbe5a2a60be4d191de371f331926eb7ac10ba",
    (3, 2): "858a3d266d8cdbbc9b749d36a2c75798fc2c9dd4adc860e6bd0333538c43eeb8",
    (3, 100): "6683bd1f961eae8a945d6c45925ffe934171f8d2f5af7842a8552c3c134a14f1",
    (3, 40000): "5b669db6c884cde495fb495106cd7572671460de0b95bc3043d9a61d16f3d1ac",
}


@pytest.mark.parametrize("arity, k", sorted(FRAG_OUTPUT_SHA256))
def test_frag_golden_bytes(arity, k, capsys):
    assert main(["frag", "--arity", str(arity), "--k", str(k), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FRAG_OUTPUT_SHA256[arity, k]


# sha256 of the map commands' stdout (JSON edges and SVG lines), fixed
# before every reader moved onto StackMap.graph
MAP_OUTPUT_SHA256 = {
    "sample --family tri --law uniform --size 3000 --seed 1": "7f31130f9c3d5c7ebc35acb7fcf94f51e12420e5283b1b97b3015989dbe2561e",
    "draw --family tri --law uniform --size 300 --seed 1": "825eb4daff8d0d760d2953a52ac2b69c41885581bdc22d07de1122ef54bc099b",
    "draw --family tri --law growth --size 300 --seed 1": "d7a76a124fbbe69b5e165a920df470cb37a38fd864f8ebb0a6e9cef03b5cda41",
    "ball --family tri --r 3 --seed 1": "5d7ca716cfee299ae262577de0d190b681d32db810c0863eb213daee2d6a4301",
    "ball --family tri --r 3 --format svg --seed 1": "5daf25ba742bdb7038184b9b8e5bba8cec8f33a2441dcf424bfe71957cef203e",
    "ball --family tri --r 20 --seed 1": "00867a3da2197b4b2f37dcd07205a6c040801a97340cd54f8c88a499317ea61a",
    "sample --family quad --law uniform --size 3000 --seed 1": "958951591a675d27977bbf1b6b2592a350b5ca9c4986f81f3b61e1eb5c454272",
    "draw --family quad --law uniform --size 300 --seed 1": "69cd09601470dcad0cb6cbc9b1decfd81710cf2923d4f8737c0805d42fcb56b8",
    "draw --family quad --law growth --size 300 --seed 1": "494661c4b48ba398441e20ff553e60038b9365623b5a25d869253c085e4cfdc5",
    "ball --family quad --r 3 --seed 1": "0653613425df842f28b3945071f65ab1322b4f20fb5e6369763078cc2cb8a441",
    "ball --family quad --r 3 --format svg --seed 1": "31a208ce84a6facc7553d695801a4c169aef54e3fef76c714a4b1bb31718b526",
    "ball --family quad --r 20 --seed 1": "facbaf9c8710fdf4880cbf4b3bcc5a078db4e01fb6d6c36974d7108443ac0261",
}


@pytest.mark.parametrize("cmd", sorted(MAP_OUTPUT_SHA256))
def test_map_output_golden_bytes(cmd, capsys):
    assert main(cmd.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MAP_OUTPUT_SHA256[cmd]


def test_one_parser_serves_successive_commands(capsys):
    # the parser is built once per process; draw's format="svg" default must
    # not carry over into the next sample, nor either into passage
    assert build_parser() is build_parser()
    for cmd in ["draw --family tri --law uniform --size 300 --seed 1",
                "sample --family tri --law uniform --size 3000 --seed 1"]:
        assert main(cmd.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == MAP_OUTPUT_SHA256[cmd], cmd
    args = ["passage", "--word", "22123122131"]
    assert main(args) == 0
    assert capsys.readouterr().out == run_cli(args).stdout


def test_stats_csv_and_json():
    base = ["stats", "--experiment", "gamma-rate", "--n", "10000", "--reps", "2", "--seed", "3"]
    rj = run_cli(base)
    rc = run_cli(base + ["--format", "csv"])
    assert rj.returncode == 0 and rc.returncode == 0
    assert json.loads(rj.stdout)["name"] == "gamma-rate"
    assert "," in rc.stdout


@pytest.mark.parametrize("args", [
    ["--experiment", "gamma-rate", "--n", "0"],
    ["--experiment", "tri-depth", "--n", "1"],
    ["--experiment", "gamma-rate", "--reps", "0"],
    ["--experiment", "typical-distance", "--n", "1000"],
    ["--experiment", "radius-scaling", "--n", "1000"],
    # too few samples for a chi-square test: one bin, and no sample in range
    ["--experiment", "degree-uniform", "--n", "2", "--reps", "1"],
    ["--experiment", "subtree-size", "--reps", "1"],
], ids=["gamma-rate-n0", "tri-depth-n1", "reps0", "typical-distance-n", "radius-scaling-n",
        "degree-uniform-one-bin", "subtree-size-empty"])
def test_stats_rejects_bad_sizes(args, capsys):
    assert main(["stats"] + args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("args, flag", [
    (["sample", "--size", "-1"], "size"),
    (["sample", "--size", "100001"], "size"),
    (["draw", "--size", "-1"], "size"),
    (["frag", "--k", "0"], "k"),
    (["frag", "--k", "100001"], "k"),
    (["ball", "--r", "0"], "r"),
    (["ball", "--r", "31"], "r"),
    (["stats", "--experiment", "tri-depth", "--n", "1000001"], "n"),
    (["stats", "--experiment", "gamma-rate", "--reps", "1000001"], "reps"),
    (["verify", "--max-exhaustive", "-1"], "max-exhaustive"),
    (["verify", "--max-exhaustive", "1"], "max-exhaustive"),
    (["verify", "--max-exhaustive", "8"], "max-exhaustive"),
    (["count", "--what", "trees", "--n", "-1"], "n"),
    (["count", "--what", "trees", "--n", "6000"], "n"),
    (["count", "--what", "histories", "--n", "200000"], "n"),
    (["count", "--what", "forests", "--n", "4", "--m", "-1"], "m"),
    (["count", "--what", "forests", "--n", "4", "--m", "1001"], "m"),
])
def test_flags_out_of_range_exit_1(args, flag, capsys):
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --{flag} must be in [")
    assert err.rstrip().endswith(f"got {args[-1]}")


def test_ball_over_node_cap_exits_1(monkeypatch, capsys):
    # a zero node budget makes the first graft inside the ball raise CapExceeded
    monkeypatch.setattr(localtopo, "sample_spine_tree",
                        functools.partial(localtopo.sample_spine_tree, cap=0))
    assert main(["ball", "--r", "5", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: spine graft exceeded node cap\n"


def test_cli_import_loads_no_scipy():
    code = ("import sys, stackmaps.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_import_builds_no_face_type_table():
    # the tables are built on first use, not when the CLI starts: the
    # face-type automata and their flat arrays, the degree automata, the
    # replay's letter tables and the pair-distance lift tables
    code = ("import stackmaps.cli, stackmaps.passage as p, stackmaps.maps as m; "
            "print([f.cache_info().currsize for f in "
            "(p._type_table, p._type_arrays, m._degree_table, m._letter_table, m._lift_table)])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[0, 0, 0, 0, 0]"


def test_chisquare_experiment_loads_no_scipy_stats():
    # the p-value comes from scipy.special alone
    code = ("import sys; from stackmaps.cli import main; "
            "main(['stats', '--experiment', 'degree-uniform', '--n', '200', '--reps', '40']); "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.special'))))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=subprocess_env())
    assert r.returncode == 0, r.stderr
    report, modules = r.stdout.splitlines()
    assert json.loads(report)["estimates"]["chi2_pvalue"] > 0
    assert "scipy.special" in modules and "scipy.stats" not in modules


def test_frag_and_ball():
    r = run_cli(["frag", "--arity", "3", "--k", "5", "--seed", "1"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["arity"] == 3
    r = run_cli(["ball", "--family", "tri", "--r", "2", "--seed", "4"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["family"] == "triangulation"


def test_draw(tmp_path):
    out = tmp_path / "d.svg"
    r = run_cli(["draw", "--family", "quad", "--size", "8", "--seed", "6", "--out", str(out)])
    assert r.returncode == 0
    assert "<line" in out.read_text()


def test_verify_quick_exit_0():
    r = run_cli(["verify", "--level", "quick", "--max-exhaustive", "3"])
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 15
    assert all(ln.startswith("PASS") for ln in lines)


VERIFY_QUICK_STDOUT = (
    "PASS trees.enum-counts  (n<=5)\n"
    "PASS passage.gamma-eq-type  (depth<=7)\n"
    "PASS passage.tri-type-invariant  (depth<=8)\n"
    "PASS passage.quad-parity  (depth<=10)\n"
    "PASS passage.root-distance  (exhaustive n<=4)\n"
    "PASS maps.euler  (40 growth steps)\n"
    "PASS maps.roundtrip  (exhaustive n<=4)\n"
    "PASS maps.root-distance  (exhaustive n<=4)\n"
    "PASS maps.pair-bound  (exhaustive n<=4)\n"
    "PASS maps.pair-distance  (exhaustive n<=4)\n"
    "PASS maps.degrees  (exhaustive n<=4)\n"
    "PASS maps.mean-degree  (3 sampled maps)\n"
    "PASS maps.drawing-planar  (n=60 both families)\n"
    "PASS maps.rotation-planar  (n=60 and the path 1^200, both families)\n"
    "PASS counting.histories  (K<=5)\n"
    "PASS counting.forest-consistency  (n<=7)\n"
    "PASS stats.pmf-sums\n"
    "PASS stats.finite-degree-exhaustive  (maps with 8 faces)\n"
    "PASS stats.urn-index-shift  (shift=1)\n"
    "PASS frag.pmf-equality  (compositions of <= 6)\n"
    "PASS frag.interval-partition  (K=200)\n"
    "PASS localtopo.ball-monotone  (r<=5)\n"
    "PASS localtopo.ultrametric  (4-map fixture set)\n"
    "23/23 checks passed\n"
)


VERIFY_FULL_STDOUT = (
    "PASS trees.enum-counts  (n<=6)\n"
    "PASS passage.gamma-eq-type  (depth<=10)\n"
    "PASS passage.tri-type-invariant  (depth<=12)\n"
    "PASS passage.quad-parity  (depth<=16)\n"
    "PASS passage.root-distance  (exhaustive n<=4)\n"
    "PASS maps.euler  (40 growth steps)\n"
    "PASS maps.roundtrip  (exhaustive n<=4)\n"
    "PASS maps.root-distance  (exhaustive n<=4)\n"
    "PASS maps.pair-bound  (exhaustive n<=4)\n"
    "PASS maps.pair-distance  (exhaustive n<=4)\n"
    "PASS maps.degrees  (exhaustive n<=4)\n"
    "PASS maps.mean-degree  (3 sampled maps)\n"
    "PASS maps.drawing-planar  (n=200 both families)\n"
    "PASS maps.rotation-planar  (n=200 and the path 1^2000, both families)\n"
    "PASS counting.histories  (K<=5)\n"
    "PASS counting.forest-consistency  (n<=7)\n"
    "PASS stats.pmf-sums\n"
    "PASS stats.finite-degree-exhaustive  (maps with 8 faces)\n"
    "PASS stats.urn-index-shift  (shift=1)\n"
    "PASS frag.pmf-equality  (compositions of <= 8)\n"
    "PASS frag.interval-partition  (K=200)\n"
    "PASS localtopo.ball-monotone  (r<=5)\n"
    "PASS localtopo.ultrametric  (4-map fixture set)\n"
    "23/23 checks passed\n"
)


@pytest.mark.parametrize("level, stdout", [("quick", VERIFY_QUICK_STDOUT), ("full", VERIFY_FULL_STDOUT)],
                         ids=["quick", "full"])
def test_verify_quick_prints_every_check_line(level, stdout):
    # the whole stdout, so a changed bound, label or verdict shows
    r = run_cli(["verify", "--level", level])
    assert (r.returncode, r.stdout) == (0, stdout), r.stderr


def test_main_in_process():
    assert main(["count", "--what", "trees", "--n", "4"]) == 0
    with pytest.raises(SystemExit) as e:
        main(["count", "--what", "nonsense", "--n", "4"])
    assert e.value.code == 1
