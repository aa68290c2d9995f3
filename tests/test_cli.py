"""CLI behaviour: merging, outputs, manifests, exit codes."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import errorfloor
from errorfloor import cli
from errorfloor.census import emit_table
from errorfloor.cli import main
from errorfloor.floorpred import load_job
from errorfloor.tanner import ParityCheckMatrix, random_regular_code, save_alist

CW = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


@pytest.fixture()
def alist(tmp_path):
    save_alist(random_regular_code(36, 3, 6, seed=1), tmp_path / "code.alist")
    return "code.alist"


@pytest.fixture()
def planted_alist(tmp_path):
    save_alist(
        random_regular_code(48, 3, 6, seed=5, planted=CW), tmp_path / "planted.alist"
    )
    return "planted.alist"


def read_manifest(tmp_path, prefix):
    doc = json.loads((tmp_path / f"{prefix}.manifest.json").read_text())
    assert doc["schema"] == "run-manifest v1"
    assert doc["tool"].startswith("errorfloor ")
    assert "started" in doc and "finished" in doc
    return doc


def test_dde_outputs(tmp_path):
    assert main(["dde", "--ebn0", "2.8", "--iters", "2", "--out", "d"]) == 0
    man = read_manifest(tmp_path, "d")
    assert man["command"] == "dde"
    assert man["config"]["iters"] == 2
    assert str(tmp_path / "d.csv") in man["outputs"] or "d.csv" in man["outputs"]
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "# manifest: d.manifest.json"
    assert lines[1] == "# dde-table v1"
    assert lines[2] == "iteration,m_ex,var_ex,g_bar,p_e"
    assert len(lines) == 5
    assert float(lines[3].split(",")[1]) == pytest.approx(0.669, abs=0.01)


def test_enumerate_matches_library(tmp_path):
    assert main(["enumerate", "--dv", "3", "--amax", "4", "--out", "c"]) == 0
    rows = [
        r for r in csv.reader((tmp_path / "c.csv").open())
        if r and not r[0].startswith("#") and r[0] != "a"
    ]
    want = emit_table(3, 4)
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert (int(got[0]), int(got[1]), int(got[2])) == (ref.a, ref.b, ref.count)
        assert float(got[5]) == pytest.approx(ref.r_max, abs=1e-5)


def test_stats_output_parses(tmp_path):
    assert main(["stats", "--ebn0", "2.8", "--iters", "3", "--out", "s"]) == 0
    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    meta = {r[0]: r[1] for r in rows if r[0].startswith("# ") and len(r) == 2}
    assert meta["# source"] == "dde"
    assert meta["# d_c"] == "6"
    assert float(meta["# saturation"]) == 25.0
    head = rows.index(["iteration", "m_ex", "var_ex", "g_bar", "p_e"])
    assert [int(r[0]) for r in rows[head + 1:]] == [1, 2, 3]


def test_simulate_smoke(tmp_path, alist):
    rc = main([
        "simulate", "--alist", alist, "--ebn0", "2.0", "--frames", "500",
        "--batch-size", "128", "--seed", "1", "--out", "sim",
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "sim.json").read_text())
    assert doc["manifest"] == "sim.manifest.json"
    assert doc["frames"] == 500
    assert 0.0 <= doc["fer"] <= 1.0
    body = (tmp_path / "sim.csv").read_text().splitlines()
    assert body[0] == "# manifest: sim.manifest.json"
    assert len(body) == 3
    rec = body[2].split(",")
    assert int(rec[3]) == 500


def test_default_rate_counts_dependent_checks_once(tmp_path):
    # (4,8): the rows of H sum to zero, rank 127 of 128, so the rate is
    # 129/256; the default used to be the design rate 0.5
    save_alist(random_regular_code(256, 4, 8, seed=1), tmp_path / "c48.alist")
    assert main(["simulate", "--alist", "c48.alist", "--ebn0", "3.0", "--frames", "8",
                 "--batch-size", "8", "--out", "sim"]) == 0
    rec = (tmp_path / "sim.csv").read_text().splitlines()[2].split(",")
    assert float(rec[1]) == pytest.approx(129 / 256, rel=1e-6)
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    (tmp_path / "job.cfg").write_text("code = c48.alist\nsets = sets.txt\nsnr = 3.0\n")
    assert load_job(tmp_path / "job.cfg").rate == 129 / 256


def test_config_file_with_flag_override(tmp_path):
    (tmp_path / "run.cfg").write_text("ebn0 = 2.0\niters = 4  # from file\n")
    assert main(["dde", "--config", "run.cfg", "--iters", "2", "--out", "d"]) == 0
    man = read_manifest(tmp_path, "d")
    assert man["config"]["iters"] == 2  # flag beats file
    assert man["config"]["ebn0"] == 2.0


def test_config_errors_exit_2(tmp_path, alist, capsys):
    (tmp_path / "bad.cfg").write_text("bogus_key = 1\n")
    assert main(["dde", "--config", "bad.cfg", "--ebn0", "2.0"]) == 2
    assert "bogus_key" in capsys.readouterr().err
    assert main(["dde", "--ebn0", "notanumber"]) == 2
    assert main(["dde"]) == 2  # --ebn0 is required
    assert "required" in capsys.readouterr().err
    assert main(["simulate", "--alist", alist, "--ebn0", "2.0", "--sat", "-4"]) == 2
    assert main(["simulate", "--alist", "missing.alist", "--ebn0", "2.0"]) == 2
    assert main(["dde", "--ebn0", "2.0", "--rate", "1.5"]) == 2
    assert main(["richardson", "--alist", alist, "--set", "sets.txt", "--ebn0", "2"]) == 2


def test_bad_config_file_values_exit_2(tmp_path, capsys):
    # regression: values read from --config were coerced outside the
    # ConfigError guard, so they exited 3 where the same flag exits 2
    (tmp_path / "bad.cfg").write_text("ebn0 = abc\n")
    assert main(["dde", "--config", "bad.cfg"]) == 2
    assert "ebn0" in capsys.readouterr().err
    (tmp_path / "inf.cfg").write_text("ebn0 = 2.0\niters = inf\n")
    assert main(["dde", "--config", "inf.cfg"]) == 2
    assert main(["dde", "--ebn0", "2.0", "--iters", "inf"]) == 2


def test_iteration_counts_below_one_exit_2(tmp_path, alist, capsys):
    # --max-iters 0 used to exit 3 (UnboundLocalError); --ec-window 0 ran
    # and reported no frame errors, since non-converged frames got empty
    # failed sets
    for flags in (["--max-iters", "0"], ["--ec-window", "0"]):
        rc = main(["simulate", "--alist", alist, "--ebn0", "1.5", "--frames", "16",
                   *flags, "--out", "s"])
        assert rc == 2
        assert "at least 1" in capsys.readouterr().err
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    base = ["richardson", "--alist", alist, "--set", "sets.txt", "--ebn0", "2.4",
            "--s-points", "1", "--s-lo", "-1.5", "--s-hi", "-1.0",
            "--frames-per-point", "16", "--refine", "0", "--out", "r"]
    for flags in (["--max-iters", "0"], ["--ec-window", "0"],
                  ["--mode", "saturation-phase", "--sat-iters", "0"]):
        assert main(base + flags) == 2
        assert "at least 1" in capsys.readouterr().err


def test_evolution_iteration_counts_below_one_exit_2(tmp_path, alist, capsys):
    # --iters 0 used to exit 3 (UnboundLocalError in the DDE loop)
    for argv in (["dde", "--ebn0", "2.8"],
                 ["stats", "--source", "dde", "--ebn0", "2.8"],
                 ["stats", "--source", "spa", "--alist", alist, "--ebn0", "2.8",
                  "--frames", "8"]):
        assert main(argv + ["--iters", "0", "--out", "s"]) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("cmd", ["dde", "stats"])
@pytest.mark.parametrize("flags", [["--dc", "0"], ["--dc", "1"], ["--dv", "0"], ["--dv", "1"],
                                   ["--dv", "1", "--rate", "0.5"]])
def test_evolution_degrees_below_two_exit_2(tmp_path, capsys, cmd, flags):
    # --dc 0 used to exit 3 (division by zero in the 1 - dv/dc rate), --dc 1
    # exited 2 blaming the rate, and --dv 0 or 1 exited 0 with the channel
    # pmf's statistics written as if they were an evolution
    assert main([cmd, "--ebn0", "3", "--iters", "2", *flags, "--out", "s"]) == 2
    err = capsys.readouterr().err
    assert f"{flags[0]} must be at least 2, got {flags[1]}" in err
    assert not (tmp_path / "s.csv").exists()


def test_enumerate_rejects_degenerate_sizes(tmp_path, capsys):
    # --dv 1 used to exit 3 ("nilpotent matrix"); --dv 0, -1 and --amax
    # 1, -3 exited 0 with an empty table
    for flags in (["--dv", "1"], ["--dv", "0"], ["--dv", "-1"],
                  ["--amax", "1"], ["--amax", "-3"]):
        assert main(["enumerate", "--amax", "5", *flags, "--out", "e"]) == 2
        assert "at least 2" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
    assert main(["enumerate", "--dv", "2", "--amax", "4", "--out", "e"]) == 0
    rows = (tmp_path / "e.csv").read_text().splitlines()[3:]
    assert rows == ["3,0,1,3,1,1", "4,0,1,4,1,1"]  # the cycles


def test_predict_overrides_failing_job_validation_exit_2(tmp_path, planted_alist, capsys):
    # these used to exit 3: the overrides were applied outside the
    # configuration-error mapping
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    (tmp_path / "job.cfg").write_text(
        f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.6\nhorizon = 2\n"
    )
    for flags in (["--stats-source", "foo"], ["--horizon", "0"], ["--snr", "3,2"],
                  ["--workers", "0"]):
        assert main(["predict", "--job", "job.cfg", *flags, "--out", "p"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "runtime" not in err
        assert not (tmp_path / "p.json").exists()
    (tmp_path / "job.cfg").write_text(
        f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.6\ncapture_frames = 0\n"
    )
    assert main(["predict", "--job", "job.cfg", "--out", "p"]) == 2
    assert "capture_frames" in capsys.readouterr().err


def test_richardson_rejects_degenerate_run_sizes(tmp_path, alist, capsys):
    # --frames-per-point 0 exited 0 with a floor of 0.0 from zero frames,
    # --target-failures 0 stopped each point after one batch, and
    # --workers 0 exited 3
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    base = ["richardson", "--alist", alist, "--set", "sets.txt", "--ebn0", "2.4",
            "--s-points", "2", "--s-lo", "-1.5", "--s-hi", "-1.0",
            "--frames-per-point", "16", "--refine", "0", "--out", "r"]
    for flags, msg in ((["--frames-per-point", "0"], "at least 1"),
                       (["--target-failures", "0"], "at least 1"),
                       (["--refine", "-1"], "at least 0"),
                       (["--workers", "0"], "workers")):
        assert main(base + flags) == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("points", ["0", "-1"])
def test_richardson_rejects_s_points_below_one(tmp_path, alist, capsys, points):
    # -1 exited 3 from np.linspace; 0 exited 2 blaming the grid's order
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    assert main(["richardson", "--alist", alist, "--set", "sets.txt", "--ebn0", "2.4",
                 "--s-points", points, "--out", "r"]) == 2
    assert "--s-points" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_non_positive_clamps_exit_2(tmp_path, planted_alist, capsys):
    # dde and stats exited 0 with a table of nan (--sat -5) or m_ex = 0
    # (--sat 0), and predict ran on the same statistics
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    (tmp_path / "job.cfg").write_text(
        f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.6\nhorizon = 2\n"
    )
    runs = (["dde", "--ebn0", "2.8", "--iters", "2"],
            ["stats", "--ebn0", "2.8", "--iters", "2"],
            ["predict", "--job", "job.cfg"],
            ["richardson", "--alist", planted_alist, "--set", "sets.txt", "--ebn0", "2.4",
             "--mode", "saturation-phase", "--s-points", "1", "--s-lo", "-1.5",
             "--s-hi", "-1.0", "--frames-per-point", "16", "--refine", "0"])
    for sat in ("-5", "0"):
        for argv in runs:
            assert main(argv + ["--sat", sat, "--out", "o"]) == 2
            assert "positive" in capsys.readouterr().err
            assert not list(tmp_path.glob("o.*"))


@pytest.mark.parametrize("argv", [
    ["simulate", "--alist", "planted.alist", "--ebn0", "2.0", "--frames", "16", "--seed", "-1"],
    ["richardson", "--alist", "planted.alist", "--set", "sets.txt", "--ebn0", "2.4",
     "--s-points", "1", "--s-lo", "-1.5", "--s-hi", "-1.0", "--frames-per-point", "16",
     "--refine", "0", "--seed", "-1"],
    ["stats", "--source", "spa", "--alist", "planted.alist", "--ebn0", "2.4", "--iters", "2",
     "--frames", "10", "--seed", "-1"],
    ["predict", "--job", "job.cfg"],
], ids=["simulate", "richardson", "stats", "predict"])
def test_negative_seeds_exit_2(tmp_path, planted_alist, capsys, argv):
    # numpy's SeedSequence rejected them: simulate exited 3, and no
    # command's message named the seed
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    (tmp_path / "job.cfg").write_text(f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.6\n"
                                      "horizon = 2\nsource = spa\ncapture_seed = -1\n")
    assert main(argv + ["--out", "o"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not list(tmp_path.glob("o.*"))


def test_saturation_phase_needs_a_clamp(tmp_path, planted_alist, capsys):
    # --sat none ran the clamped phase at 25 while the manifest recorded null
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    argv = ["richardson", "--alist", planted_alist, "--set", "sets.txt", "--ebn0", "2.4",
            "--s-points", "1", "--s-lo", "-1.5", "--s-hi", "-1.0", "--frames-per-point", "16",
            "--refine", "0", "--sat", "none", "--out", "r"]
    assert main(argv + ["--mode", "saturation-phase"]) == 2
    assert "--sat" in capsys.readouterr().err
    assert not list(tmp_path.glob("r.*"))
    assert main(argv + ["--mode", "exact-match"]) == 0  # an unclamped decoder
    assert read_manifest(tmp_path, "r")["config"]["sat"] is None


def test_non_integral_integers_exit_2(tmp_path, capsys):
    # --iters 2.7 used to run 2 iterations and record iters: 2
    assert main(["dde", "--ebn0", "2.8", "--iters", "2.7", "--out", "d"]) == 2
    assert "integer" in capsys.readouterr().err
    (tmp_path / "run.cfg").write_text("ebn0 = 2.8\niters = 2.5\n")
    assert main(["dde", "--config", "run.cfg", "--out", "d"]) == 2
    assert "iters" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()
    assert main(["dde", "--ebn0", "2.8", "--iters", "2e0", "--out", "d"]) == 0
    assert read_manifest(tmp_path, "d")["config"]["iters"] == 2


def test_predict_job_file_errors_exit_2(tmp_path, planted_alist, capsys):
    # a misspelt key was read without complaint and ran at the default
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    head = f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.6\n"
    for line, msg in (("horizn = 5\n", "horizn"), ("horizon = 2.5\n", "integer"),
                      ("saturation = 0\n", "positive")):
        (tmp_path / "job.cfg").write_text(head + line)
        assert main(["predict", "--job", "job.cfg", "--out", "p"]) == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()


def test_stats_spa_rejects_frame_counts_below_one(tmp_path, alist, capsys):
    # --frames 0 used to exit 0 with a header-only stats CSV
    for frames in ("0", "-4"):
        assert main(["stats", "--source", "spa", "--alist", alist, "--ebn0", "2.8",
                     "--iters", "3", "--frames", frames, "--out", "s"]) == 2
        assert "at least 1" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


def test_simulate_json_key_order(tmp_path, alist):
    # the key order is the output format; a new result field must show up here
    assert main(["simulate", "--alist", alist, "--ebn0", "0.5", "--frames", "64",
                 "--batch-size", "64", "--seed", "1", "--out", "sim"]) == 0
    doc = json.loads((tmp_path / "sim.json").read_text())
    assert list(doc) == ["manifest", "frames", "frame_errors", "bit_errors", "n", "fer", "ber",
                         "fer_ci", "ber_ci", "failures"]
    assert doc["failures"]
    for row in doc["failures"]:
        assert list(row) == ["frame", "iterations", "failed_set", "a", "b", "elementary",
                             "absorbing", "fully_absorbing", "codeword"]


def test_richardson_json_key_order(tmp_path, planted_alist):
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    assert main(["richardson", "--alist", planted_alist, "--set", "sets.txt", "--ebn0", "2.4",
                 "--s-points", "2", "--s-lo", "-2.2", "--s-hi", "-1.0",
                 "--frames-per-point", "32", "--refine", "0", "--max-iters", "10",
                 "--out", "r"]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert list(doc) == ["manifest", "value", "ci", "s_grid", "cond", "cond_lo", "cond_hi",
                         "frames", "a", "ebn0_db", "rate", "mode", "extrapolated_from", "notes"]


def test_predict_json_key_order(tmp_path, planted_alist):
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    (tmp_path / "job.cfg").write_text(
        f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.6 3.0\nhorizon = 2\n"
    )
    assert main(["predict", "--job", "job.cfg", "--out", "p"]) == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert list(doc) == ["manifest", "schema", "job", "curve", "breakdown"]
    assert list(doc["job"]) == ["code_id", "n", "sets", "multiplicities", "snr_grid", "rate",
                                "source", "saturation", "horizon", "inversion_iters", "mode",
                                "capture_frames", "capture_seed"]
    assert len(doc["curve"]) == len(doc["breakdown"]) == 2
    for point, rows in zip(doc["curve"], doc["breakdown"]):
        assert list(point) == ["ebn0_db", "fer_bound", "ber_bound"]
        for row in rows:
            assert list(row) == ["set", "a", "b", "r", "h", "horizon", "mean", "var", "p_fail",
                                 "multiplicity", "fer_contribution"]


def test_runtime_errors_exit_3(tmp_path, alist, capsys):
    # spa capture keeps iterating past convergence, so an unsaturated
    # exact-tanh run walks into the rounding range and trips the guard
    rc = main([
        "stats", "--source", "spa", "--alist", alist, "--ebn0", "2.8",
        "--mode", "exact-tanh", "--sat", "none", "--iters", "25",
        "--frames", "20", "--out", "s",
    ])
    assert rc == 3
    assert "runtime error" in capsys.readouterr().err


def test_predict_job_cli(tmp_path, planted_alist):
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    (tmp_path / "job.cfg").write_text(
        f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.6 3.0\nhorizon = 4\n"
    )
    rc = main(["predict", "--job", "job.cfg", "--out", "p"])
    assert rc == 0
    doc = json.loads((tmp_path / "p.json").read_text())
    assert doc["schema"] == "floor-prediction v1"
    assert doc["manifest"] == "p.manifest.json"
    assert len(doc["curve"]) == 2
    assert doc["curve"][0]["fer_bound"] > doc["curve"][1]["fer_bound"]
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[:2] == ["# manifest: p.manifest.json", "# floor-prediction v1"]
    assert lines[2] == ("ebn0_db,set,a,b,r,h,horizon,mean,var,p_fail,multiplicity,"
                        "fer_contribution")
    # breakdown block (one row per SNR and set), blank, then the curve block
    assert lines[5:7] == ["", "ebn0_db,fer_bound,ber_bound"]
    assert len(lines) == 9
    # SNR override narrows the grid
    rc = main(["predict", "--job", "job.cfg", "--snr", "2.6", "--out", "q"])
    assert rc == 0
    assert len(json.loads((tmp_path / "q.json").read_text())["curve"]) == 1


def test_richardson_smoke(tmp_path, planted_alist):
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    rc = main([
        "richardson", "--alist", planted_alist, "--set", "sets.txt",
        "--ebn0", "2.4", "--s-points", "3", "--s-lo", "-2.2", "--s-hi", "-1.0",
        "--frames-per-point", "400", "--target-failures", "10", "--refine", "0",
        "--max-iters", "20", "--seed", "1", "--out", "r",
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["manifest"] == "r.manifest.json"
    assert doc["value"] > 0
    assert doc["ci"][0] <= doc["value"] <= doc["ci"][1]
    assert len(doc["s_grid"]) == 3


def test_version_subprocess():
    pkg_root = str(Path(errorfloor.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    # the autouse run_in_tmp fixture has changed the working directory, so a
    # relative PYTHONPATH entry no longer reaches the package: pass it absolute
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-m", "errorfloor.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("errorfloor ")
    assert out.stdout.strip() == f"errorfloor {errorfloor.__version__}"


_SCIPY_PROBE = """
import json, sys
from errorfloor.cli import main
from errorfloor.floorpred import load_job

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": loaded()}
runs = {
    "simulate": ["simulate", "--alist", "code.alist", "--ebn0", "2.0", "--frames", "64",
                 "--batch-size", "64", "--max-iters", "5", "--out", "sim"],
    "richardson exact-match": ["richardson", "--alist", "planted.alist", "--set", "sets.txt",
                               "--ebn0", "2.4", "--s-points", "2", "--frames-per-point", "16",
                               "--refine", "0", "--max-iters", "5", "--out", "r1"],
    "richardson saturation-phase": ["richardson", "--alist", "planted.alist", "--set",
                                    "sets.txt", "--ebn0", "2.4", "--mode", "saturation-phase",
                                    "--s-points", "2", "--frames-per-point", "16", "--refine",
                                    "0", "--max-iters", "5", "--sat-iters", "3", "--out", "r2"],
    "predict": ["predict", "--job", "job.cfg", "--out", "p"],
    "dde": ["dde", "--ebn0", "2.8", "--iters", "2", "--out", "d"],
    "stats dde": ["stats", "--ebn0", "2.8", "--iters", "2", "--out", "s1"],
    "stats spa": ["stats", "--source", "spa", "--alist", "code.alist", "--ebn0", "2.8",
                  "--iters", "2", "--frames", "8", "--out", "s2"],
    "enumerate": ["enumerate", "--dv", "3", "--amax", "4", "--out", "e"],
}
for name, argv in runs.items():
    seen[name] = [f"exit {main(argv)}"] + loaded()
print(json.dumps(seen))
"""


def test_no_cli_path_imports_scipy(tmp_path, alist, planted_alist):
    # importing scipy costs more than half a second of every CLI run, so
    # only the tests may use it
    (tmp_path / "sets.txt").write_text("0 1 2 3\n")
    (tmp_path / "job.cfg").write_text(
        f"code = {planted_alist}\nsets = sets.txt\nsnr = 2.8\nhorizon = 2\n"
    )
    pkg_root = str(Path(errorfloor.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen.pop("import") == []
    assert seen == {name: ["exit 0"] for name in seen}
    assert len(seen) == 8


@pytest.mark.parametrize("argv", [
    ["simulate", "--alist", "empty.alist", "--ebn0", "2.0", "--frames", "16"],
    ["simulate", "--alist", "empty.alist", "--ebn0", "2.0", "--frames", "16", "--rate", "0.5"],
    ["richardson", "--alist", "empty.alist", "--set", "sets.txt", "--ebn0", "2.4",
     "--s-points", "1", "--s-lo", "-1.5", "--s-hi", "-1.0", "--frames-per-point", "16",
     "--refine", "0"],
    ["stats", "--source", "spa", "--alist", "empty.alist", "--ebn0", "2.4", "--iters", "2",
     "--frames", "10"],
    ["stats", "--alist", "empty.alist", "--ebn0", "2.4", "--iters", "2"],
    ["predict", "--job", "job.cfg"],
], ids=["simulate", "simulate-rate", "richardson", "stats-spa", "stats-dde", "predict"])
def test_alist_without_variables_exits_2(tmp_path, capsys, argv):
    # simulate exited 3 with "division by zero" from the default rate, or
    # with "cannot reshape array of size 0" when --rate was given
    (tmp_path / "empty.alist").write_text("0 0\n0 0\n")
    (tmp_path / "sets.txt").write_text("0\n")
    (tmp_path / "job.cfg").write_text("code = empty.alist\nsets = sets.txt\nsnr = 2.6\n")
    assert main(argv + ["--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "empty.alist" in err and "n = 0" in err
    assert not list(tmp_path.glob("o.*"))


@pytest.mark.parametrize("source", ["dde", "spa"])
def test_stats_csv_names_its_manifest(tmp_path, alist, source):
    # stats wrote its CSV itself, without the manifest line of every other CSV
    assert main(["stats", "--source", source, "--alist", alist, "--ebn0", "2.8", "--iters", "2",
                 "--frames", "8", "--out", "s"]) == 0
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "# manifest: s.manifest.json"
    assert read_manifest(tmp_path, "s")["outputs"] == ["s.csv"]


def test_manifest_started_is_stamped_before_the_run(monkeypatch):
    # the manifest was built after the computation, so a 4 s simulate run
    # recorded started = finished
    events = []
    strftime, emit = time.strftime, cli.emit_table

    def stamp(*args):
        events.append("stamp")
        return strftime(*args)

    def run(*args):
        events.append("run")
        return emit(*args)

    monkeypatch.setattr(time, "strftime", stamp)
    monkeypatch.setattr(cli, "emit_table", run)
    assert main(["enumerate", "--dv", "3", "--amax", "4", "--out", "e"]) == 0
    assert events == ["stamp", "run", "stamp"]


@pytest.fixture()
def merged_check_alist(tmp_path):
    # the README quick-start code with two disjoint degree-6 checks merged
    # into one degree-12 check: 127 checks, still variable-regular
    H = random_regular_code(
        256, 3, 6, seed=2,
        planted=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1,)],
    )
    rows = [set(map(int, r)) for r in H.chk_vars]
    j = next(j for j in range(len(rows) - 2, 0, -1) if not rows[-1] & rows[j])
    merged = [r for k, r in enumerate(rows[:-1]) if k != j] + [rows[-1] | rows[j]]
    save_alist(ParityCheckMatrix(merged, H.n_vars), tmp_path / "merged.alist")
    return "merged.alist"


@pytest.mark.parametrize("argv", [
    ["predict", "--job", "job.cfg"],
    ["predict", "--job", "job.cfg", "--stats-source", "spa"],
    ["stats", "--source", "spa", "--alist", "merged.alist", "--ebn0", "2.8", "--iters", "2",
     "--frames", "10"],
], ids=["predict-dde", "predict-spa", "stats-spa"])
def test_unequal_check_degrees_exit_2(tmp_path, capsys, merged_check_alist, argv):
    # the largest check degree stood in for all of them: one degree-12 check
    # in 127 turned the prediction into the (3,12) ensemble's, with exit 0
    (tmp_path / "sets.txt").write_text("0 1 2 3 4\n")
    (tmp_path / "job.cfg").write_text(f"code = {merged_check_alist}\nsets = sets.txt\n"
                                      "snr = 2.8\nhorizon = 2\ncapture_frames = 10\n")
    assert main(argv + ["--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "one check degree, the code has [6, 12]" in err
    assert not list(tmp_path.glob("o.*"))
