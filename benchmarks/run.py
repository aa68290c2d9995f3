"""The errorfloor benchmark.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each operation is one user-level run
through `errorfloor.cli.main`, in a fresh interpreter (`op.py`), one at a
time, with `workers = 1` and one BLAS thread, so the process-level caches
start cold as on every CLI run.  Inputs come from `--seed` (see
`workloads.py`); everything is written under `.bench_work/` in the
checkout and removed at the end.

With `--trace 0` a run first samples set-up alone eight times, then
repeats the operation until `--seconds` would be exceeded (at least
once), checks every operation's outputs and reports the end-to-end
metrics.  With `--trace 1` it skips the set-up samples, alternates
untraced and traced operations (at least one pair, so a run of
`predict-floor` takes about two operations, some 45 s) and reports
per-layer metrics from the spans plus the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
SETUP_PROBES = 8
OP_TIMEOUT_S = 150
DECODER_WORKLOADS = ("mc-waterfall", "is-sweep")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ERRORFLOOR_CACHE_DIR", None)  # predict must never read cached stats
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(work: Path, name: str, seed: int, mode: str, small: bool = False) -> dict:
    """Run op.py once and return its record plus the checked outputs."""
    op_dir = Path(tempfile.mkdtemp(dir=work))
    argv = [sys.executable, str(HERE / "op.py"), str(ROOT), name, str(seed), str(op_dir)]
    tail = [mode] + (["small"] if small else [])
    rec = {"mode": mode, "dir": op_dir, "errors": []}
    try:
        proc = subprocess.run(argv + [repr(time.monotonic())] + tail, cwd=op_dir,
                              env=child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rec["errors"].append(f"timed out after {OP_TIMEOUT_S} s")
        return rec
    if proc.returncode != 0 or not (op_dir / "op.json").is_file():
        rec["errors"].append(f"op.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return rec
    rec.update(json.loads((op_dir / "op.json").read_text()))
    if mode == "setup":
        return rec
    if any(c != 0 for c in rec["exit_codes"]):
        rec["errors"].append(f"errorfloor exit codes {rec['exit_codes']}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return rec
    try:
        out = workloads.read_outputs(name, op_dir)
    except (OSError, ValueError, KeyError) as e:
        rec["errors"].append(f"unreadable outputs: {e!r}")
        return rec
    rec["frames"] = workloads.frames_of(name, out)
    rec["errors"].extend(workloads.check(name, out) if not small else [])
    rec["outputs"] = out
    if mode == "trace":
        with np.load(op_dir / "spans.npz") as z:
            rec["layers"] = spans.summarize(dict(z), rec["counters"], rec["wall_s"])
    return rec


def measure(work: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.monotonic()
    probes = [] if trace else [run_child(work, name, seed, "setup")
                               for _ in range(SETUP_PROBES)]
    ops, traced, took = [], [], []
    while True:
        t_op = time.monotonic()
        ops.append(run_child(work, name, seed, "run"))
        if trace:
            traced.append(run_child(work, name, seed, "trace"))
        took.append(time.monotonic() - t_op)
        if time.monotonic() - t0 + statistics.median(took) > seconds:
            break
    return {"probes": probes, "ops": ops, "traced": traced}


def median_of(recs, key):
    vals = [r[key] for r in recs if key in r]
    return (statistics.median(vals), len(vals)) if vals else (float("nan"), 0)


def tail_note(recs, key) -> str:
    """Highest of p99/p90 with at least ten samples beyond it, if any."""
    vals = sorted(r[key] for r in recs if key in r)
    for p in (99, 90):
        if len(vals) * (100 - p) / 100 >= 10:
            return f", p{p} {np.percentile(vals, p):.6g}"
    return ""


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    src = hashlib.sha1()
    for path in sorted((ROOT / "src" / "errorfloor").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown (git rev-parse failed)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha1": src.hexdigest()[:16],
        "blas_threads": BLAS_THREADS,
        "workers": 1,
        "host_tuning": "none: no CPU governor, affinity, huge-page or cache setting was changed",
    }


def report(name, seed, seconds, trace, m) -> dict:
    ops, traced = m["ops"], m["traced"]
    every = ops + traced
    failed = [r for r in every if r["errors"]]
    for r in failed:
        print(f"FAILED {r['mode']} op: " + "; ".join(r["errors"]))
    ok_ops = [r for r in ops if not r["errors"]]
    timed = [r for r in ops if "wall_s" in r]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("machine " + json.dumps(machine_facts()))

    setups = [r for r in m["probes"] + every if "setup_s" in r]
    metrics = {}
    for key, recs in (("wall_s", timed), ("setup_s", setups), ("peak_rss_mb", timed)):
        value, n = median_of(recs, key)
        unit = END_TO_END_UNITS[key]
        metrics[key] = {"value": value, "unit": unit}
        print(f"  {key:<14} {value:12.6g} {unit:<5} median of {n}{tail_note(recs, key)}")
    if name in DECODER_WORKLOADS and ok_ops:
        fps = [r["frames"] / r["wall_s"] for r in ok_ops]
        print(f"  {'frames_per_s':<14} {statistics.median(fps):12.6g} {'1/s':<5} median of "
              f"{len(fps)} ({ok_ops[0]['frames']} frames per operation)")
    print(f"  {'op_fail_ratio':<14} {len(failed) / len(every):12.6g} {'ratio':<5} "
          f"{len(failed)} of {len(every)} operations")

    if trace:
        metrics = layer_metrics([r for r in traced if "layers" in r], metrics["wall_s"]["value"])
    return {"correct": not failed, "attempted": len(every), "failed": len(failed),
            "metrics": metrics}


def unit_of(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", "_share", "_yield")):
        return "ratio"
    return "count"


def layer_metrics(traced, untraced_wall) -> dict:
    if not traced:
        return {}
    keys = traced[0]["layers"].keys()
    vals = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}
    vals["trace.overhead_s"] = vals["trace.wall_s"] - untraced_wall
    wall = vals["trace.wall_s"]
    print(f"traced operations: {len(traced)}; traced wall_s {wall:.6g}, "
          f"untraced {untraced_wall:.6g}, overhead {vals['trace.overhead_s']:+.6g} s")
    for lay in spans.LAYERS:
        s = vals[f"{lay}.self_s"]
        print(f"  {lay + '.self_s':<22} {s:12.6g} s  {100 * s / wall:6.2f}% of traced wall")
    print(f"  {'named layers':<22} {vals['trace.layers_s']:12.6g} s  "
          f"{100 * vals['trace.layers_s'] / wall:6.2f}%;"
          f" uncovered {vals['trace.uncovered_s']:.6g} s")
    top = max(spans.LAYERS, key=lambda lay: vals[f"{lay}.self_s"])
    print(f"  dominant layer: {top}")
    for k in sorted(vals):
        if not k.endswith(".self_s") or k.count(".") > 1:
            print(f"  {k:<36} {vals[k]:.6g} {unit_of(k)}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in vals.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative (it offsets the PEG and run seeds)")

    if not (ROOT / "src" / "errorfloor" / "cli.py").is_file():
        print(f"error: no errorfloor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        m = measure(work, args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(args.workload, args.seed, args.seconds, bool(args.trace), m)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
