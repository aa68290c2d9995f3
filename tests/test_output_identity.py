"""CLI outputs compared with committed expected files.

`enumerate` runs for d_v 2-6 at `--amax 8` on a cold census cache and its
CSV must match `tests/expected/enumerate/census_dv<d_v>.csv` byte for
byte.

The other runs use the committed inputs in `tests/expected/inputs/`: a
(3,6) code on 48 variables with a planted codeword, two failure sets and
a two-point job.  They cover
- `predict` (dde and spa sources);
- `stats` (dde source unclamped, spa source clamped);
- `simulate` at one and two workers, which share one expected file, and a
  run stopped by `--target-errors`;
- `richardson` in exact-match and saturation-phase mode with one grid
  refinement;
- `dde`.
Their CSV and JSON outputs are compared field by field with the files
under `tests/expected/`: integers and text exactly, floats within 1e-12
relative (1e-11 for values derived from density evolution).  Each run's
manifest is compared with `<run name>.manifest.json` next to its expected
files, without the `started` and `finished` stamps and with paths reduced
to names relative to the run directory or to `tests/expected/inputs/`.
No output may contain a carriage return: every line ends in "\n".

A change that moves these outputs on purpose regenerates the files and
states the deviation:

    PYTHONPATH=src python tests/test_output_identity.py

The files were written on a 2-core x86-64 Xeon host (python 3.11,
numpy 2.4); the census values are printed to six significant digits.
"""

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from errorfloor import census
from errorfloor.cli import main

EXPECTED = Path(__file__).resolve().parent / "expected"
INPUTS = EXPECTED / "inputs"
ENUMERATE_DV = (2, 3, 4, 5, 6)

CODE = str(INPUTS / "code.alist")
SIMULATE = ["simulate", "--alist", CODE, "--ebn0", "2.0", "--max-iters", "20", "--seed", "3"]
RICHARDSON = ["richardson", "--alist", CODE, "--set", str(INPUTS / "sets.txt"), "--ebn0", "2.4",
              "--s-points", "3", "--frames-per-point", "64", "--target-failures", "10",
              "--max-iters", "10", "--refine", "1", "--seed", "1"]

# output name -> (expected files' path stem under EXPECTED, argv without --out,
# float tolerance)
RUNS = {
    "predict_dde": ("predict/predict_dde", ["predict", "--job", str(INPUTS / "job.cfg")], 1e-11),
    "predict_spa": ("predict/predict_spa", ["predict", "--job", str(INPUTS / "job.cfg"),
                                            "--stats-source", "spa"], 1e-12),
    "stats_dde": ("stats/stats_dde", ["stats", "--ebn0", "2.8", "--iters", "4", "--sat", "none"],
                  1e-11),
    "stats_spa": ("stats/stats_spa", ["stats", "--source", "spa", "--alist", CODE, "--ebn0", "2.8",
                                      "--iters", "4", "--frames", "40", "--seed", "1"], 1e-12),
    "simulate": ("simulate/simulate", SIMULATE + ["--frames", "256", "--batch-size", "64"], 1e-12),
    "simulate_workers2": ("simulate/simulate", SIMULATE + ["--frames", "256", "--batch-size", "64",
                                                           "--workers", "2"], 1e-12),
    "simulate_target": ("simulate/simulate_target", SIMULATE + [
        "--frames", "1024", "--batch-size", "32", "--target-errors", "20"], 1e-12),
    "richardson_exact": ("richardson/richardson_exact", RICHARDSON, 1e-12),
    "richardson_saturation": ("richardson/richardson_saturation", RICHARDSON + [
        "--mode", "saturation-phase", "--sat-iters", "5"], 1e-12),
    "dde": ("dde/dde", ["dde", "--ebn0", "2.8", "--iters", "3"], 1e-11),
}


def run_enumerate(d_v: int, out_dir: Path) -> Path:
    prefix = out_dir / f"census_dv{d_v}"
    if main(["enumerate", "--dv", str(d_v), "--amax", "8", "--out", str(prefix)]) != 0:
        raise RuntimeError(f"enumerate --dv {d_v} failed")
    return prefix.with_suffix(".csv")


def run_output(name: str, out_dir: Path) -> list:
    """Runs one entry of RUNS into `out_dir`, named as its expected files;
    returns its result files."""
    stem, argv, _ = RUNS[name]
    prefix = out_dir / Path(stem).name
    if main(argv + ["--out", str(prefix)]) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed")
    return [p for p in (prefix.with_suffix(".csv"), prefix.with_suffix(".json")) if p.exists()]


def _reduced_manifest(path: Path) -> dict:
    """The manifest at `path` without its timestamps, its paths reduced
    to names relative to the run directory or to INPUTS."""
    doc = json.loads(path.read_text())
    del doc["started"], doc["finished"]

    def name(v):
        for base in (path.parent, INPUTS):
            if isinstance(v, str) and Path(v).is_relative_to(base):
                return Path(v).relative_to(base).as_posix()
        return v

    doc["config"] = {k: name(v) for k, v in doc["config"].items()}
    doc["outputs"] = [name(v) for v in doc["outputs"]]
    return doc


def _assert_lf_only(paths):
    for path in paths:
        assert b"\r" not in path.read_bytes(), f"{path.name} has a carriage return"


def _same_scalar(got, want, tol: float) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return abs(got - want) <= tol * max(abs(got), abs(want))
    return type(got) is type(want) and got == want


def _cell(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def _compare(got, want, tol: float, where: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for k in want:
            _compare(got[k], want[k], tol, f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, tol, f"{where}[{i}]")
    else:
        dev = ""
        if isinstance(want, float) and isinstance(got, float) and want:
            dev = f" (relative deviation {abs(got - want) / abs(want):.3g})"
        assert _same_scalar(got, want, tol), f"{where}: got {got!r}, expected {want!r}{dev}"


def _parsed(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return [[_cell(c) for c in line.split(",")] for line in path.read_text().splitlines()]


@pytest.mark.parametrize("d_v", ENUMERATE_DV)
def test_enumerate_csv_matches_expected(d_v, tmp_path, monkeypatch):
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    path = run_enumerate(d_v, tmp_path)
    manifest = path.with_suffix(".manifest.json")
    _assert_lf_only([path, manifest])
    want = (EXPECTED / "enumerate" / path.name).read_bytes().splitlines(keepends=True)
    got = path.read_bytes().splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"d_v={d_v}, line {i + 1}: got {g!r}, expected {w!r}"
    assert len(got) == len(want), f"d_v={d_v}: {len(got)} lines, expected {len(want)}"
    want_manifest = EXPECTED / "enumerate" / manifest.name
    _compare(_reduced_manifest(manifest), json.loads(want_manifest.read_text()), 0.0,
             want_manifest.name)


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_expected(name, tmp_path):
    stem, _, tol = RUNS[name]
    got = run_output(name, tmp_path)
    manifest = tmp_path / f"{Path(stem).name}.manifest.json"
    _assert_lf_only(got + [manifest])
    want = sorted(p for p in EXPECTED.glob(f"{stem}.*") if not p.name.endswith(".manifest.json"))
    assert sorted(p.name for p in got) == [p.name for p in want]
    for g, w in zip(sorted(got), want):
        _compare(_parsed(g), _parsed(w), tol, w.name)
    want_manifest = (EXPECTED / stem).with_name(f"{name}.manifest.json")
    _compare(_reduced_manifest(manifest), json.loads(want_manifest.read_text()), tol,
             want_manifest.name)


def _save(files: list, manifest: Path, dest: Path, name: str) -> None:
    """Copies result files into `dest` and writes the reduced manifest
    there as `<name>.manifest.json`."""
    dest.mkdir(parents=True, exist_ok=True)
    for path in files:
        shutil.copyfile(path, dest / path.name)
    target = dest / f"{name}.manifest.json"
    target.write_text(json.dumps(_reduced_manifest(manifest), indent=2) + "\n")
    for path in [*files, target]:
        print(f"wrote {dest / path.name}", file=sys.stderr)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for d_v in ENUMERATE_DV:
            path = run_enumerate(d_v, Path(tmp))
            _save([path], path.with_suffix(".manifest.json"), EXPECTED / "enumerate", path.stem)
        for name, (stem, _, _) in RUNS.items():
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            files = run_output(name, run_dir)
            # a run that shares another run's expected files adds only its manifest
            _save(files if Path(stem).name == name else [],
                  run_dir / f"{Path(stem).name}.manifest.json", (EXPECTED / stem).parent, name)
