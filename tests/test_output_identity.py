"""CLI outputs compared with committed expected files.

`enumerate` runs for d_v 2-6 at `--amax 8` on a cold census cache and its
CSV must match `tests/expected/enumerate/census_dv<d_v>.csv` byte for
byte.  A change that moves these outputs on purpose regenerates the files
and states the deviation:

    PYTHONPATH=src python tests/test_output_identity.py

The files were written on a 2-core x86-64 Xeon host (python 3.11,
numpy 2.4); the census values are printed to six significant digits.
"""

import sys
from pathlib import Path

import pytest

from errorfloor import census
from errorfloor.cli import main

EXPECTED = Path(__file__).resolve().parent / "expected"
ENUMERATE_DV = (2, 3, 4, 5, 6)


def run_enumerate(d_v: int, out_dir: Path) -> Path:
    prefix = out_dir / f"census_dv{d_v}"
    if main(["enumerate", "--dv", str(d_v), "--amax", "8", "--out", str(prefix)]) != 0:
        raise RuntimeError(f"enumerate --dv {d_v} failed")
    return prefix.with_suffix(".csv")


@pytest.mark.parametrize("d_v", ENUMERATE_DV)
def test_enumerate_csv_matches_expected(d_v, tmp_path, monkeypatch):
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    want = (EXPECTED / "enumerate" / f"census_dv{d_v}.csv").read_bytes().splitlines(keepends=True)
    got = run_enumerate(d_v, tmp_path).read_bytes().splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"d_v={d_v}, line {i + 1}: got {g!r}, expected {w!r}"
    assert len(got) == len(want), f"d_v={d_v}: {len(got)} lines, expected {len(want)}"


if __name__ == "__main__":
    out = EXPECTED / "enumerate"
    out.mkdir(parents=True, exist_ok=True)
    for d_v in ENUMERATE_DV:
        path = run_enumerate(d_v, out)
        path.with_suffix(".manifest.json").unlink()
        print(f"wrote {path}", file=sys.stderr)
