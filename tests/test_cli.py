import csv
import json
import os
import subprocess
import sys

import pytest

import sminlab
from sminlab import cli, combinatorics
from sminlab import experiments as ex
from sminlab.errors import InvalidInputError
from sminlab.samplers import RowDistribution, ShiftSpec


def refuse_sampling(*args, **kwargs):
    raise AssertionError("a trial was sampled")


class TestParsers:
    def test_linear_grid(self):
        grid = cli.parse_grid("0.05:0.5:10")
        assert len(grid) == 10
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(0.5)
        assert grid[1] == pytest.approx(0.1)

    def test_geometric_grid(self):
        grid = cli.parse_grid("0.01:1.0:3", geom=True)
        assert grid == pytest.approx((0.01, 0.1, 1.0))

    def test_explicit_list(self):
        assert cli.parse_grid("1,2,4") == (1.0, 2.0, 4.0)

    def test_malformed_grid(self):
        with pytest.raises(InvalidInputError):
            cli.parse_grid("1:2")

    def test_shift_specs(self):
        assert cli.parse_shift("zero") == ShiftSpec.zero()
        assert cli.parse_shift("scaled-identity:2.5") == ShiftSpec.scaled_identity(2.5)
        assert cli.parse_shift("diagonal:1,2,3") == ShiftSpec.diagonal([1.0, 2.0, 3.0])
        assert cli.parse_shift("counterexample:100") == ShiftSpec.counterexample(100.0)
        with pytest.raises(InvalidInputError):
            cli.parse_shift("rotation:3")


class TestDispatch:
    def test_unknown_verb_is_usage_error(self, capsys):
        assert cli.parse_and_dispatch(["bogus"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.parse_and_dispatch(["tail", "--frobnicate", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.parse_and_dispatch(["--help"]) == 0
        capsys.readouterr()

    def test_every_verb_lists_defaults_in_help(self, capsys):
        for verb in (
            "tail",
            "counterexample",
            "distance-profile",
            "lemma-check",
            "alphaeta-demo",
            "graph-decompose",
        ):
            assert cli.parse_and_dispatch([verb, "--help"]) == 0
            out = capsys.readouterr().out
            assert "default" in out

    def test_tail_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "tail.csv"
        code = cli.parse_and_dispatch(
            [
                "tail",
                "--dist", "gaussian",
                "--n", "8",
                "--trials", "20",
                "--shift", "zero",
                "--t-grid", "0.05:0.5:10",
                "--seed", "42",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 11  # header + 10 grid points
        captured = capsys.readouterr().out
        assert "config:" in captured

    def test_tail_from_config_file(self, tmp_path, capsys):
        config = {
            "dist": {"kind": "uniform_entry"},
            "shift": {"kind": "scaled_identity", "tau": 5.0},
            "n": 6,
            "trials": 10,
            "t_grid": [0.1, 0.2],
            "master_seed": 7,
            "statistic": {"kind": "smin_scaled"},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "result.json"
        code = cli.parse_and_dispatch(
            ["tail", "--config", str(path), "--out", str(out), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["n"] == 6
        capsys.readouterr()

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 5}',
            '{"dist": {"kind": "gaussian"}, "shift": {"kind": "zero"}, "n": "five", '
            '"trials": 10, "t_grid": [0.1], "master_seed": 1, "statistic": {"kind": "smin_scaled"}}',
            '{"n": 5',
            '{"dist": {"kind": "gaussian"}, "shift": {"kind": "zero"}, "n": 5, "trails": 10, '
            '"trials": 10, "t_grid": [0.1], "master_seed": 1, "statistic": {"kind": "smin_scaled"}}',
        ],
    )
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert cli.parse_and_dispatch(["tail", "--config", str(path)]) == 2
        assert "error: experiment config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shift", ["scaled-identity:nan", "scaled-identity:inf", "diagonal:1,nan,2"]
    )
    def test_non_finite_shift_is_usage_error_before_sampling(self, monkeypatch, capsys, shift):
        monkeypatch.setattr(ex, "sample_matrix", refuse_sampling)
        code = cli.parse_and_dispatch(["tail", "--n", "3", "--trials", "4", "--shift", shift])
        assert code == 2
        assert "non-finite entries" in capsys.readouterr().err

    def test_non_finite_config_shift_is_usage_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(ex, "sample_matrix", refuse_sampling)
        doc = ex.ExperimentConfig(
            RowDistribution("gaussian"), ShiftSpec.explicit([[1.0, 0.0], [0.0, 1.0]]), 2, 4, (0.1,), 7
        ).to_dict()
        doc["shift"]["entries"][1][0] = float("nan")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli.parse_and_dispatch(["tail", "--config", str(path)]) == 2
        assert "non-finite entries" in capsys.readouterr().err

    def test_nan_grid_threshold_is_usage_error(self, capsys):
        code = cli.parse_and_dispatch(["tail", "--n", "4", "--trials", "2", "--t-grid", "nan,1"])
        assert code == 2
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["abc", "0"])
    def test_bad_thread_cap_is_usage_error(self, monkeypatch, capsys, cap):
        monkeypatch.setenv("SMINLAB_THREADS", cap)
        code = cli.parse_and_dispatch(["tail", "--n", "4", "--trials", "8", "--t-grid", "0.5"])
        assert code == 2
        assert "error: SMINLAB_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_is_usage_error(self, capsys, tau):
        code = cli.parse_and_dispatch(
            ["counterexample", "--n", "10", "--tau", tau, "--trials", "4"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error: tau must be finite" in captured.err
        assert captured.out == ""

    def test_counterexample_runs(self, tmp_path, capsys):
        out = tmp_path / "ce.json"
        code = cli.parse_and_dispatch(
            [
                "counterexample",
                "--n", "8",
                "--tau", "16",
                "--trials", "12",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trials"] == 12
        capsys.readouterr()

    def test_distance_profile_runs(self, capsys):
        code = cli.parse_and_dispatch(
            [
                "distance-profile",
                "--dist", "gaussian",
                "--n", "6",
                "--trials", "10",
                "--k", "1",
                "--a", "1000000",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1.000000" in out

    def test_lemma_check_pass_and_report(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = cli.parse_and_dispatch(
            [
                "lemma-check",
                "--suite", "alpharho",
                "--instances", "5",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["failures"] == 0
        assert doc["failed_instances"] == []
        capsys.readouterr()

    def test_lemma_check_writes_every_failing_instance(self, tmp_path, capsys, monkeypatch):
        def fail_sizes_4_and_5(A, sets, inside, tau, high):
            q1, q2 = masks(A, sets, inside, tau, high)
            if A.shape[1] in (4, 5):
                q1[:] = q2[:] = False
            return q1, q2

        masks = combinatorics._q_masks
        monkeypatch.setattr(combinatorics, "_q_masks", fail_sizes_4_and_5)
        out = tmp_path / "suite.json"
        argv = ["lemma-check", "--suite", "q-sets", "--instances", "60", "--seed", "3"]
        assert cli.parse_and_dispatch(argv + ["--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert len(doc["messages"]) == 10 < doc["failures"] == len(doc["failed_instances"])
        assert doc["failed_instances"] == sorted(doc["failed_instances"])
        assert [int(m.split()[1].rstrip(":")) for m in doc["messages"]] == doc["failed_instances"][:10]
        capsys.readouterr()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551621"])
    def test_lemma_check_rejects_a_seed_beyond_64_bits(self, capsys, seed):
        code = cli.parse_and_dispatch(["lemma-check", "--suite", "pivot", "--seed", seed])
        assert code == 2
        assert "master_seed" in capsys.readouterr().err

    def test_config_seed_beyond_64_bits_is_usage_error(self, tmp_path, capsys):
        doc = ex.ExperimentConfig(
            RowDistribution("gaussian"), ShiftSpec.zero(), 5, 3, (0.1,), 7
        ).to_dict()
        doc["master_seed"] = 2**64 + 5
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli.parse_and_dispatch(["tail", "--config", str(path)]) == 2
        assert "master_seed" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_lemma_check_rejects_a_count_below_one(self, capsys, count):
        code = cli.parse_and_dispatch(["lemma-check", "--suite", "pivot", "--instances", count])
        assert code == 2
        assert "instances must be at least 1" in capsys.readouterr().err

    def test_alphaeta_demo(self, capsys):
        code = cli.parse_and_dispatch(
            ["alphaeta-demo", "--cube", "--n", "4", "--k", "10", "--atoms", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "exact P(event)        = 0.1420609375" in out
        assert "sharp labels          = 1 -> 2, 2 -> 2" in out
        assert "certified bound       = rhs / K = 0.4" in out

    def test_alphaeta_demo_runs_the_cube_by_default(self, capsys):
        argv = ["alphaeta-demo", "--n", "4", "--k", "10", "--atoms", "40"]
        assert cli.parse_and_dispatch(argv) == 0
        out = capsys.readouterr().out
        assert "0.1420609375" in out and "verdict: ok" in out
        assert cli.parse_and_dispatch(argv[:1] + ["--cube"] + argv[1:]) == 0
        assert capsys.readouterr().out == out

    def test_graph_decompose(self, tmp_path, capsys):
        graph_file = tmp_path / "star.txt"
        graph_file.write_text("2 3\n2 4\n2 5\n")
        code = cli.parse_and_dispatch(
            [
                "graph-decompose",
                "--graph", str(graph_file),
                "--n", "5",
                "--vertex", "1",
                "--depth", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "|E|=0" in out

    def test_graph_decompose_non_isolated_vertex(self, tmp_path, capsys):
        graph_file = tmp_path / "edge.txt"
        graph_file.write_text("1 2\n")
        code = cli.parse_and_dispatch(
            ["graph-decompose", "--graph", str(graph_file), "--vertex", "1", "--depth", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vertex, message",
        [("2", "vertex 2 must be isolated"), ("0", "vertex 0 out of range 1..3"),
         ("4", "vertex 4 out of range 1..3")],
    )
    def test_graph_decompose_names_the_vertex_one_indexed(self, tmp_path, capsys, vertex, message):
        # vertex 1 is isolated, vertex 2 has an edge
        graph_file = tmp_path / "edge.txt"
        graph_file.write_text("2 3\n")
        code = cli.parse_and_dispatch(["graph-decompose", "--graph", str(graph_file), "--vertex", vertex])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, n, message",
        [("2 3\n", ["--n", "2"], "error: edge (2,3) out of range 1..2"),
         ("1 1\n", [], "error: self-loop (1,1) is not allowed")],
    )
    def test_graph_decompose_names_a_bad_edge_as_written(self, tmp_path, capsys, text, n, message):
        # both were named 0-indexed: edge (1,2), self-loop (0,0)
        graph_file = tmp_path / "bad.txt"
        graph_file.write_text(text)
        code = cli.parse_and_dispatch(["graph-decompose", "--graph", str(graph_file), "--vertex", "1", *n])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_graph_decompose_exact_mode_past_its_size_is_usage_error(self, tmp_path, capsys):
        # a path on vertices 2..17 and the isolated root 1: 17 vertices
        graph_file = tmp_path / "path17.txt"
        graph_file.write_text("".join(f"{j} {j + 1}\n" for j in range(2, 17)))
        code = cli.parse_and_dispatch(
            ["graph-decompose", "--graph", str(graph_file), "--vertex", "1", "--mode", "exact"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_graph_file(self, capsys):
        code = cli.parse_and_dispatch(
            ["graph-decompose", "--graph", "/nonexistent/g.txt", "--vertex", "1"]
        )
        assert code == 2
        capsys.readouterr()


def test_runtime_imports_no_scipy():
    # a fresh process: the CLI and one Monte Carlo run load no scipy module
    script = (
        "import sys\n"
        "import sminlab.cli\n"
        "assert sminlab.cli.main(['tail', '--n', '5', '--trials', '1']) == 0\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(sminlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_public_names_resolve():
    # a stale or repeated __all__ entry would break `from sminlab import *`
    assert len(set(sminlab.__all__)) == len(sminlab.__all__)
    assert [name for name in sminlab.__all__ if not hasattr(sminlab, name)] == []


# CSVs of the criterion-03 and -04 shapes at 200 trials, written before the
# dominance screen took these trials off the QR path, and of the criterion-02
# shape at 200 trials, written before the trials drew into their stack; the
# CI smoke run compares them with `cmp` too
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")
UNIFORM_SHIFTED = ["--dist", "uniform_entry", "--n", "100", "--shift", "scaled-identity:100"]
GOLDEN_TAILS = {
    "tail_uniform_n100_shift_smin_seed33.csv": UNIFORM_SHIFTED + ["--statistic", "smin_scaled",
                                                                  "--seed", "33"],
    "tail_uniform_n100_shift_hs_n_seed44.csv": UNIFORM_SHIFTED + ["--statistic", "hs_scaled_n",
                                                                  "--seed", "44", "--t-grid", "1,2,4"],
    "tail_gaussian_n200_smin_seed22.csv": ["--dist", "gaussian", "--n", "200", "--statistic",
                                           "smin_scaled", "--seed", "22"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TAILS))
def test_tail_csv_matches_its_golden_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    argv = ["tail", "--trials", "200", *GOLDEN_TAILS[name], "--out", str(out)]
    assert cli.parse_and_dispatch(argv) == 0
    capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


# CSVs of the criterion-12 shape at 30 trials, written by both tail verbs
# before a config's threshold a became its one-point grid under either verb;
# `tail --config` on the JSON config that holds a alone writes the bytes of
# `distance-profile --a`.  The CI smoke run compares them with `cmp` too
PROFILE = ["distance-profile", "--dist", "gaussian", "--n", "100", "--trials", "30", "--k", "8",
           "--seed", "12"]
PROFILE_CONFIG = os.path.join(GOLDEN_DIR, "profile_gaussian_n100_k8_a0.7_seed12.json")
GOLDEN_PROFILES = {
    "grid": (PROFILE + ["--t-grid", "0.35,0.7,1.4"], "profile_gaussian_n100_k8_grid_seed12.csv"),
    "a": (PROFILE + ["--a", "0.7"], "profile_gaussian_n100_k8_a0.7_seed12.csv"),
    "tail-config": (["tail", "--config", PROFILE_CONFIG], "profile_gaussian_n100_k8_a0.7_seed12.csv"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PROFILES))
def test_profile_csv_matches_its_golden_bytes(tmp_path, capsys, case):
    argv, name = GOLDEN_PROFILES[case]
    out = tmp_path / name
    assert cli.parse_and_dispatch([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


# The criterion-02 and both criterion-12 CSVs again, each written by the
# console command in a fresh process under SMINLAB_THREADS=1: one helper
# thread draws every trial, on the one generator it re-keys per trial
ONE_WORKER = {
    "tail_gaussian_n200_smin_seed22.csv": ["tail", "--trials", "200",
                                           *GOLDEN_TAILS["tail_gaussian_n200_smin_seed22.csv"]],
    "profile_gaussian_n100_k8_grid_seed12.csv": GOLDEN_PROFILES["grid"][0],
    "profile_gaussian_n100_k8_a0.7_seed12.csv": GOLDEN_PROFILES["a"][0],
}


def test_one_worker_csvs_match_their_golden_bytes(tmp_path):
    script = (
        "import sys\n"
        "from sminlab import cli, experiments\n"
        "assert experiments.resolve_workers() == 1\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(sminlab.__file__))
    env = dict(os.environ, SMINLAB_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, argv in ONE_WORKER.items():
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            assert out.read_bytes() == fh.read(), name


# The alpharho suite's report at 500 instances, seed 1111, written before
# the suite verified its structures as one batch
GOLDEN_ALPHARHO = "lemma_alpharho_500_seed1111.json"


def test_alpharho_report_matches_its_golden_bytes(tmp_path, capsys):
    out = tmp_path / GOLDEN_ALPHARHO
    argv = ["lemma-check", "--suite", "alpharho", "--instances", "500", "--seed", "1111", "--out", str(out)]
    assert cli.parse_and_dispatch(argv) == 0
    capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, GOLDEN_ALPHARHO), "rb") as fh:
        assert out.read_bytes() == fh.read()


# The counterexample report of the criterion-05 shape at 400 trials, written
# before the trials drew their sign matrices into their stack; the CI smoke
# run compares it with `cmp` too
GOLDEN_COUNTEREXAMPLE = "counterexample_n50_tau2500_seed55.json"


def check_counterexample_report_matches_its_golden_bytes(tmp_path):
    out = tmp_path / GOLDEN_COUNTEREXAMPLE
    argv = ["counterexample", "--n", "50", "--tau", "2500", "--trials", "400", "--seed", "55",
            "--out", str(out)]
    assert cli.parse_and_dispatch(argv) == 0
    with open(os.path.join(GOLDEN_DIR, GOLDEN_COUNTEREXAMPLE), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_counterexample_report_matches_its_golden_bytes(tmp_path, capsys):
    check_counterexample_report_matches_its_golden_bytes(tmp_path)
    capsys.readouterr()


# The cube demo's report at its defaults (n=4, K=10, 40 atoms per factor),
# written before every section line was summed in coordinate order
GOLDEN_CUBE = "alphaeta_cube_n4_k10_atoms40.json"


def check_alphaeta_demo_report_matches_its_golden_bytes(tmp_path):
    out = tmp_path / GOLDEN_CUBE
    assert cli.parse_and_dispatch(["alphaeta-demo", "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN_DIR, GOLDEN_CUBE), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_alphaeta_demo_report_matches_its_golden_bytes(tmp_path, capsys):
    check_alphaeta_demo_report_matches_its_golden_bytes(tmp_path)
    capsys.readouterr()


@pytest.mark.parametrize("threads", [1, 2])
def test_alphaeta_reports_match_their_golden_bytes_at_one_and_two_blas_threads(tmp_path, threads):
    # a fresh process whose OpenBLAS starts at `threads` threads writes the
    # cube demo's and the alpharho suite's reports: neither calls BLAS.  The
    # reports hold the verdicts, so their bytes decide the test
    cube, alpharho = tmp_path / GOLDEN_CUBE, tmp_path / GOLDEN_ALPHARHO
    script = (
        "import sys\n"
        "from sminlab import cli, linalg\n"
        f"assert linalg._BLAS.get_num_threads() == {threads}\n"
        "cli.main(['alphaeta-demo', '--out', sys.argv[1]])\n"
        "cli.main(['lemma-check', '--suite', 'alpharho', '--instances', '500', '--seed', '1111',\n"
        "          '--out', sys.argv[2]])\n"
    )
    src = os.path.dirname(os.path.dirname(sminlab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(cube), str(alpharho)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for out in (cube, alpharho):
        with open(os.path.join(GOLDEN_DIR, out.name), "rb") as fh:
            assert out.read_bytes() == fh.read(), out.name
