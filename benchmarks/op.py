"""One benchmark operation in a fresh interpreter.

    python3 op.py ROOT WORKLOAD SEED TMPDIR SPAWNED {run|trace|setup} [small]

ROOT is the checkout whose `src/errorfloor` is measured and SPAWNED the
parent's `time.monotonic()` just before it started this process.  The
child imports errorfloor, writes the operation's inputs into TMPDIR (that
is set-up), then calls `errorfloor.cli.main` for each run of the
operation (that is the operation's wall time).  It writes `op.json` into
TMPDIR, and with `trace` also the spans, `spans.npz`.  `setup` stops
after set-up, so the parent can sample set-up time alone.  `small`
shrinks the operation for the benchmark's own tests.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main(argv) -> int:
    root, name, seed, tmp, spawned, mode, *flags = argv
    tmp = Path(tmp)
    sys.path.insert(0, str(Path(root) / "src"))
    from errorfloor import cli  # importing the package is part of set-up
    import spans
    import workloads

    rec = spans.Recorder() if mode == "trace" else None
    with spans.traced(rec) if rec is not None else nullcontext():
        runs = workloads.prepare(name, int(seed), tmp, small="small" in flags)
        t_ready = time.monotonic()
        codes = []
        if mode != "setup":
            codes = [cli.main(args) for args in runs]
        t_done = time.monotonic()

    result = {
        "setup_s": t_ready - float(spawned),
        "wall_s": t_done - t_ready,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        rec.save(tmp / "spans.npz")
        result["counters"] = rec.counters
    (tmp / "op.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
