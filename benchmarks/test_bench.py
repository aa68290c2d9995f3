"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, the
output checks, and cold caches in every operation.

    PYTHONPATH=src python -m pytest benchmarks/test_bench.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spans(rows):
    """rows: (name, start, end, parent index)"""
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows], dtype=np.int32),
    }


def test_self_time_arithmetic_on_a_synthetic_tree():
    rows = [
        ("tanner.random_regular_code", 0.0, 0.5, -1),  # set-up, outside the operation
        ("cli.main", 1.0, 11.0, -1),
        ("simharness.run_monte_carlo", 1.5, 10.0, 1),
        ("decoder.decode_batch", 2.0, 6.0, 2),
        ("decoder.decode_batch", 6.5, 9.0, 2),
        ("tanner.classify", 9.2, 9.7, 2),
    ]
    s = _spans(rows)
    dur = s["end"] - s["start"]
    selft = spans.self_times(dur, s["parent"].astype(np.int64))
    assert selft == pytest.approx([0.5, 1.5, 8.5 - 4.0 - 2.5 - 0.5, 4.0, 2.5, 0.5])

    counters = dict.fromkeys(spans.COUNTER_NAMES, 0)
    m = spans.summarize(s, counters, op_wall_s=10.25)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["simharness.self_s"] == pytest.approx(1.5)
    assert m["decoder.self_s"] == pytest.approx(6.5)
    assert m["tanner.self_s"] == pytest.approx(0.5)  # set-up span excluded
    assert m["tanner.random_regular_code.self_s"] == pytest.approx(0.5)
    assert m["decoder.decode_batch.calls"] == 2
    assert m["trace.layers_s"] == pytest.approx(10.0)
    assert m["trace.uncovered_s"] == pytest.approx(0.25)


def _current():
    return [spans._owner(mod, path)[0].__dict__[path.split(".")[-1]]
            for mod, path, _ in spans.PATCHES]


def test_wrappers_restore_the_originals():
    from errorfloor import dde, tanner

    before = _current()
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.traced(rec):
            assert all(a is not b for a, b in zip(_current(), before))
            tanner.random_regular_code(12, 2, 4, seed=1)
            p = dde.Pmf(np.ones(5) / 5, half=2)
            p.convolve(p)
            raise RuntimeError("leave the block by an exception")
    assert all(a is b for a, b in zip(_current(), before))
    assert [rec.names[i] for i in rec.name] == ["tanner.random_regular_code", "dde.convolve"]
    assert all(e >= s for s, e in zip(rec.start, rec.end))


def _mc_out(errors, frames=workloads.MC_FRAMES):
    return {"frames": frames, "frame_errors": errors, "bit_errors": errors, "n": 256}


def _predict_out(fer, ber):
    return {"curve": [{"ebn0_db": s, "fer_bound": f, "ber_bound": b}
                      for s, f, b in zip(workloads.PREDICT_REF["ebn0_db"], fer, ber)]}


IS_GRID = [-2.2, -2.0, -1.8, -1.6, -1.4, -1.3, -1.2, -1.1, -1.0, -0.8]


def _is_out(matched):
    """A richardson output with `matched` frames of 256 per grid point and a
    CI wide enough to hold its floor."""
    n = workloads.IS_FRAMES_PER_POINT
    cond = [k / n for k in matched]
    value = workloads.floor_integral(IS_GRID, cond, workloads.IS_EBN0_DB, workloads.IS_RATE,
                                     workloads.IS_A)
    return {"value": value, "ci": [0.75 * value, 1e-2], "s_grid": IS_GRID, "cond": cond,
            "frames": [n] * len(matched), "a": workloads.IS_A,
            "ebn0_db": workloads.IS_EBN0_DB, "rate": workloads.IS_RATE}


def _census_out():
    return {dv: [(a, b, *row) for (a, b), row in workloads.CENSUS_GOLDEN[dv].items()]
            for dv in workloads.CENSUS_DV}


def test_output_checks_reject_perturbed_results():
    ref = workloads.MC_REF
    expected = round(ref["frame_errors"] / ref["frames"] * workloads.MC_FRAMES)
    assert workloads.check("mc-waterfall", _mc_out(expected)) == []
    assert workloads.check("mc-waterfall", _mc_out(4 * expected + 40))
    assert workloads.check("mc-waterfall", _mc_out(expected, frames=workloads.MC_FRAMES - 1))

    good_matched = [209, 220, 211, 197, 163, 114, 54, 17, 0, 0]
    good = _is_out(good_matched)
    assert good["value"] == pytest.approx(8.848891035393256e-05, rel=1e-6)  # seed 0
    assert workloads.check("is-sweep", good) == []
    lo, hi = workloads.IS_REF_CI
    assert workloads.check("is-sweep", {**good, "value": 10 * hi, "ci": [5 * hi, 20 * hi]})
    assert workloads.check("is-sweep", {**good, "value": 2 * good["value"]})
    assert workloads.check("is-sweep", _is_out(good_matched[::-1]))
    assert workloads.check("is-sweep", _is_out([k * 4 // 5 for k in good_matched]))
    # a decoder that never lands in the set: floor 0 inside a CI that
    # still overlaps the reference
    never = _is_out([0] * workloads.IS_GRID_POINTS)
    assert never["value"] == 0.0 and never["ci"][0] <= lo <= never["ci"][1]
    assert workloads.check("is-sweep", never)
    assert workloads.check("is-sweep", _is_out([256] * workloads.IS_GRID_POINTS))

    fer, ber = workloads.PREDICT_REF["fer_bound"], workloads.PREDICT_REF["ber_bound"]
    assert workloads.check("predict-floor", _predict_out(fer, ber)) == []
    assert workloads.check("predict-floor", _predict_out((fer[0] * 1.001, *fer[1:]), ber))
    assert workloads.check("predict-floor", _predict_out(fer, (ber[0], ber[0], ber[0])))

    census = _census_out()
    assert workloads.check("census", census) == []
    bad = copy.deepcopy(census)
    a, b, count, *rest = bad[4][3]
    bad[4][3] = (a, b, count + 1, *rest)
    assert workloads.check("census", bad)
    bad = copy.deepcopy(census)
    bad[5] = bad[5][:-1]
    assert workloads.check("census", bad)


@pytest.mark.parametrize("name, key", [
    ("mc-waterfall", "decoder.frame_iters"),
    ("predict-floor", "dde.check_pair.calls"),
    ("census", "census.canonical_cert.calls"),
])
def test_counts_repeat_exactly_so_caches_start_cold(tmp_path, name, key):
    first, second = (run.run_child(tmp_path, name, 0, "trace", small=True) for _ in range(2))
    assert first["errors"] == [] and second["errors"] == []
    assert first["layers"][key] > 0
    assert first["layers"][key] == second["layers"][key]
