"""Command-line front end.

Every subcommand reads an optional flat key-value config file, applies
explicit flags on top (flags win), and runs one pipeline that returns its
results: CSV text under "csv", a JSON payload under "json".  `main` writes
them next to a JSON run manifest that records the tool version, the
merged config, when the run started and finished, and the output paths.
Result CSVs carry a comment line referencing the manifest; result JSONs
carry a "manifest" key.  A ValueError anywhere is a rejected value and
exits 2; any other error exits 3.  No other module encodes results:
`_table` writes every CSV and `_json` every JSON, all lines end in "\n".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .census import emit_table, table_to_csv
from .channel import ChannelConfig
from .decoder import DecoderConfig
from .floorpred import (
    parse_floats,
    parse_int,
    parse_sat,
    load_job,
    predict_curve,
    read_key_values,
    stats_from_capture,
    stats_from_dde,
)
from .simharness import McConfig, SemiAnalyticConfig, run_monte_carlo, semi_analytic_floor
from .tanner import load_alist, load_trapping_sets


# per-command option table: dest -> (converter, default, help)
_SPECS = {
    "simulate": {
        "alist": (str, None, "parity-check matrix (alist format)"),
        "ebn0": (float, None, "Eb/N0 in dB"),
        "rate": (float, None, "code rate; default (n - rank(H))/n from the alist"),
        "sat": (parse_sat, 25.0, "LLR clamp at check output; 'none' disables"),
        "mode": (str, "pairwise", "check update: pairwise|exact-tanh|approx|min-sum"),
        "max_iters": (parse_int, 50, "decoding iterations"),
        "ec_window": (parse_int, 12, "trailing window for eventually-correct accounting"),
        "frames": (parse_int, 100_000, "frame budget"),
        "target_errors": (parse_int, None, "stop after this many frame errors"),
        "seed": (parse_int, 0, "run seed"),
        "batch_size": (parse_int, 256, "frames per batch; batch b draws its noise from "
                       "frame_rng(seed, b), so results depend on seed and batch size; "
                       "the decoder's state memory does not grow with it"),
        "workers": (parse_int, 1, "parallel workers"),
        "out": (str, "simulate", "output prefix"),
    },
    "predict": {
        "job": (str, None, "prediction job file"),
        "stats_source": (str, None, "override: dde|spa"),
        "sat": (parse_sat, "keep", "override saturation"),
        "horizon": (parse_int, None, "override model horizon"),
        "inversion_iters": (parse_int, None, "override inversion iterations"),
        "snr": (parse_floats, None, "override SNR grid, comma separated dB"),
        "workers": (parse_int, 1, "parallel workers"),
        "out": (str, "predict", "output prefix"),
    },
    "dde": {
        "dv": (parse_int, 3, "variable degree"),
        "dc": (parse_int, 6, "check degree"),
        "ebn0": (float, None, "Eb/N0 in dB"),
        "rate": (float, None, "code rate; default 1 - dv/dc"),
        "sat": (parse_sat, 25.0, "LLR clamp; 'none' disables"),
        "iters": (parse_int, 10, "iterations to evolve"),
        "out": (str, "dde", "output prefix"),
    },
    "enumerate": {
        "dv": (parse_int, 3, "variable degree"),
        "amax": (parse_int, 8, "largest set size"),
        "r_cutoff": (float, None, "keep only rows with r_max above this; omit for no cutoff"),
        "out": (str, "census", "output prefix"),
    },
    "richardson": {
        "alist": (str, None, "parity-check matrix (alist format)"),
        "set": (str, None, "failure-set file; first line is used"),
        "ebn0": (float, None, "Eb/N0 in dB"),
        "rate": (float, None, "code rate; default (n - rank(H))/n from the alist"),
        "mode": (str, "exact-match", "exact-match|saturation-phase"),
        "sat": (parse_sat, 25.0, "decoder clamp (exact-match) / phase-2 clamp"),
        "sat_iters": (parse_int, 20, "saturated iterations (saturation-phase)"),
        "max_iters": (parse_int, 50, "decoding iterations"),
        "s_lo": (float, -2.2, "most negative mean-noise grid point"),
        "s_hi": (float, -0.8, "least negative mean-noise grid point"),
        "s_points": (parse_int, 8, "grid size"),
        "frames_per_point": (parse_int, 20_000, "frame cap per grid point"),
        "target_failures": (parse_int, 50, "early stop per grid point"),
        "refine": (parse_int, 2, "grid refinement rounds"),
        "ec_window": (parse_int, 12, "trailing window"),
        "seed": (parse_int, 0, "run seed"),
        "workers": (parse_int, 1, "parallel workers"),
        "out": (str, "richardson", "output prefix"),
    },
    "stats": {
        "source": (str, "dde", "dde|spa"),
        "alist": (str, None, "code for spa capture (or rate inference)"),
        "dv": (parse_int, 3, "variable degree (dde source)"),
        "dc": (parse_int, 6, "check degree (dde source)"),
        "ebn0": (float, None, "Eb/N0 in dB"),
        "rate": (float, None, "code rate; default (n - rank(H))/n from the alist, else 1 - dv/dc"),
        "sat": (parse_sat, 25.0, "LLR clamp; 'none' disables"),
        "iters": (parse_int, 20, "iterations to collect"),
        "frames": (parse_int, 100, "capture frames (spa source)"),
        "mode": (str, "pairwise", "check update (spa source)"),
        "seed": (parse_int, 0, "capture seed"),
        "out": (str, "stats", "output prefix"),
    },
}

_REQUIRED = {
    "simulate": ("alist", "ebn0"),
    "predict": ("job",),
    "dde": ("ebn0",),
    "enumerate": (),
    "richardson": ("alist", "set", "ebn0"),
    "stats": ("ebn0",),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="errorfloor")
    p.add_argument("--version", action="version", version=f"errorfloor {__version__}")
    subs = p.add_subparsers(dest="command", required=True)
    for cmd, spec in _SPECS.items():
        sp = subs.add_parser(cmd)
        sp.add_argument("--config", default=None, help="flat key = value file; flags override it")
        for dest, (_, _, help_) in spec.items():
            sp.add_argument(f"--{dest.replace('_', '-')}", dest=dest, default=None, help=help_)
    return p


def _coerce(conv, value: str, where: str):
    try:
        return conv(value)
    except ValueError as e:
        raise ValueError(f"bad value for {where}: {e}") from None


def _merge(cmd: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, with type coercion."""
    spec = _SPECS[cmd]
    cfg = {dest: default for dest, (_, default, _) in spec.items()}
    if args.config:
        kv = _read(read_key_values, args.config, "config file")
        seen = set()
        for k, v in kv.items():
            k = k.replace("-", "_")
            if k not in spec:
                raise ValueError(f"unknown config key {k!r} for {cmd}")
            if k in seen:
                raise ValueError(f"key {k!r} repeated in {args.config}")
            seen.add(k)
            cfg[k] = _coerce(spec[k][0], v, f"{k!r} in {args.config}")
    for dest, (conv, _, _) in spec.items():
        v = getattr(args, dest)
        if v is not None:
            cfg[dest] = _coerce(conv, v, f"--{dest.replace('_', '-')}")
    for dest in _REQUIRED[cmd]:
        if cfg[dest] is None:
            raise ValueError(f"--{dest.replace('_', '-')} is required for {cmd}")
    return cfg


def _read(loader, path: str, what: str):
    """`loader(path)`, with a file that cannot be read or parsed as a
    rejected value (exit 2)."""
    try:
        return loader(path)
    except OSError as e:
        raise ValueError(f"cannot read {what}: {e}") from None
    except ValueError as e:
        raise ValueError(f"bad {what} {path}: {e}") from None


def _load_code(path: str):
    return _read(load_alist, path, "alist")


def _rate_of(cfg_rate, H) -> float:
    return cfg_rate if cfg_rate is not None else H.rate()


def _cell(x, digits: int) -> str:
    return "" if x is None else f"{x:.{digits}g}" if isinstance(x, float) else str(x)


def _table(rows, digits: int = 6) -> str:
    """CSV text of `rows`: floats to `digits` significant digits, None
    as an empty cell, anything else through str; every line ends in
    "\n"."""
    return "".join(",".join(_cell(x, digits) for x in row) + "\n" for row in rows)


def _plain(v):
    """`json.dumps` hook: a dataclass as the dict of its fields, which the
    encoder then walks (no copies are made), numpy arrays and scalars as
    plain data."""
    if dataclasses.is_dataclass(v):
        return {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _json(doc) -> str:
    return json.dumps(doc, indent=2, default=_plain) + "\n"


def _stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _write(cmd: str, cfg: dict, started: str, outputs: dict) -> None:
    """Writes a command's outputs to `<out>.csv` and `<out>.json`, in the
    order given, each naming the manifest; then the manifest itself."""
    manifest = Path(f"{cfg['out']}.manifest.json")
    paths = []
    for ext, body in outputs.items():
        path = Path(f"{cfg['out']}.{ext}")
        if ext == "csv":
            text = f"# manifest: {manifest.name}\n{body}"
        else:
            text = _json({"manifest": manifest.name, **body})
        path.write_text(text, newline="")
        paths.append(str(path))
    doc = {
        "schema": "run-manifest v1",
        "tool": f"errorfloor {__version__}",
        "command": cmd,
        "config": dict(sorted(cfg.items())),
        "seed": cfg.get("seed"),
        "started": started,
        "outputs": paths,
        "finished": _stamp(),
    }
    manifest.write_text(_json(doc), newline="")


def cmd_simulate(cfg: dict) -> dict:
    H = _load_code(cfg["alist"])
    chan = ChannelConfig(cfg["ebn0"], _rate_of(cfg["rate"], H))
    dec = DecoderConfig(mode=cfg["mode"], max_iters=cfg["max_iters"], saturation=cfg["sat"],
                        ec_window=cfg["ec_window"])
    mc = McConfig(max_frames=cfg["frames"], target_errors=cfg["target_errors"], seed=cfg["seed"],
                  workers=cfg["workers"], batch_size=cfg["batch_size"])
    res = run_monte_carlo(H, chan, dec, mc)
    rows = [("ebn0_db", "rate", "saturation", "frames", "frame_errors", "bit_errors",
             "fer", "fer_lo", "fer_hi", "ber", "ber_lo", "ber_hi"),
            (chan.ebn0_db, chan.rate, cfg["sat"], res.frames, res.frame_errors, res.bit_errors,
             res.fer, *res.fer_ci, res.ber, *res.ber_ci)]
    return {"csv": _table(rows), "json": _plain(res)}


def cmd_predict(cfg: dict) -> dict:
    job = _read(load_job, cfg["job"], "job file")
    edits = {"source": cfg["stats_source"], "horizon": cfg["horizon"],
             "inversion_iters": cfg["inversion_iters"], "snr_grid": cfg["snr"]}
    edits = {k: v for k, v in edits.items() if v is not None}
    if cfg["sat"] != "keep":
        edits["saturation"] = cfg["sat"]
    job = dataclasses.replace(job, **edits)
    report = predict_curve(job, workers=cfg["workers"])
    cfg["code_id"] = job.code_id  # recorded in the manifest's config
    doc = report.to_dict()
    curve, breakdown = doc["curve"], doc["breakdown"]
    rows = [("# floor-prediction v1",), ("ebn0_db", *breakdown[0][0])]
    rows += [(c["ebn0_db"], *p.values()) for c, preds in zip(curve, breakdown) for p in preds]
    rows += [(), tuple(curve[0]), *(tuple(c.values()) for c in curve)]
    return {"csv": _table(rows), "json": doc}


def _dde_stats(cfg: dict):
    """Density-evolution statistics of a dde or stats run.  The rate
    defaults to that of the --alist code if one is given, else 1 - dv/dc."""
    for key in ("dv", "dc"):
        if cfg[key] < 2:
            raise ValueError(f"--{key} must be at least 2, got {cfg[key]}")
    rate = cfg["rate"]
    if rate is None and cfg.get("alist") is not None:
        rate = _rate_of(None, _load_code(cfg["alist"]))
    if rate is None:
        rate = 1.0 - cfg["dv"] / cfg["dc"]
    return stats_from_dde(ChannelConfig(cfg["ebn0"], rate), cfg["dv"], cfg["dc"], cfg["iters"],
                          cfg["sat"])


def _iteration_rows(stats) -> list:
    """Header and per-iteration rows of InputStats columns."""
    return [("iteration", "m_ex", "var_ex", "g_bar", "p_e"),
            *((i, *row) for i, row in
              enumerate(zip(stats.m_ex, stats.var_ex, stats.g_bar, stats.p_e), 1))]


def cmd_dde(cfg: dict) -> dict:
    return {"csv": _table([("# dde-table v1",), *_iteration_rows(_dde_stats(cfg))])}


def cmd_enumerate(cfg: dict) -> dict:
    cut = cfg["r_cutoff"]
    if cut is not None and not math.isfinite(cut):
        raise ValueError(f"--r-cutoff must be finite, got {cut}; omit it for no cutoff")
    rows = emit_table(cfg["dv"], cfg["amax"], cut)
    return {"csv": _table([(f"# census v1 dv={cfg['dv']}",), *table_to_csv(rows)])}


def cmd_richardson(cfg: dict) -> dict:
    H = _load_code(cfg["alist"])
    sets = _read(load_trapping_sets, cfg["set"], "set file")
    if not sets:
        raise ValueError(f"no sets in {cfg['set']}")
    T = tuple(int(v) for v in sets[0])
    if any(v < 0 or v >= H.n_vars for v in T):
        raise ValueError("set references variables outside the code")
    if cfg["s_points"] < 1:
        raise ValueError(f"--s-points must be at least 1, got {cfg['s_points']}")
    if cfg["mode"] == "saturation-phase" and cfg["sat"] is None:
        raise ValueError("saturation-phase clamps its second phase: give a positive --sat, "
                         "not none")
    chan = ChannelConfig(cfg["ebn0"], _rate_of(cfg["rate"], H))
    dec = DecoderConfig(mode="pairwise", max_iters=cfg["max_iters"], saturation=cfg["sat"],
                        ec_window=cfg["ec_window"])
    sa = SemiAnalyticConfig(
        trap_set=T,
        s_grid=tuple(np.linspace(cfg["s_lo"], cfg["s_hi"], cfg["s_points"])),
        frames_per_point=cfg["frames_per_point"],
        target_failures=cfg["target_failures"],
        mode=cfg["mode"],
        sat_iters=cfg["sat_iters"],
        seed=cfg["seed"],
        refine_rounds=cfg["refine"],
    )
    est = semi_analytic_floor(H, chan, dec, sa, workers=cfg["workers"])
    return {"json": _plain(est)}


def cmd_stats(cfg: dict) -> dict:
    if cfg["source"] not in ("dde", "spa"):
        raise ValueError(f"unknown stats source {cfg['source']!r}")
    if cfg["source"] == "spa":
        if cfg["alist"] is None:
            raise ValueError("--alist is required for the spa source")
        H = _load_code(cfg["alist"])
        chan = ChannelConfig(cfg["ebn0"], _rate_of(cfg["rate"], H))
        stats = stats_from_capture(H, chan, cfg["iters"], cfg["sat"], mode=cfg["mode"],
                                   n_frames=cfg["frames"], seed=cfg["seed"])
    else:
        stats = _dde_stats(cfg)
    meta = [(f"# {k}", getattr(stats, k))
            for k in ("source", "d_c", "m_lambda", "ebn0_db", "rate", "saturation")]
    return {"csv": _table([("# input-stats v1",), *meta, *_iteration_rows(stats)], digits=17)}


_COMMANDS = {
    "simulate": cmd_simulate,
    "predict": cmd_predict,
    "dde": cmd_dde,
    "enumerate": cmd_enumerate,
    "richardson": cmd_richardson,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge(args.command, args)
        started = _stamp()
        _write(args.command, cfg, started, _COMMANDS[args.command](cfg))
        return 0
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
