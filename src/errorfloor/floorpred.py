"""Floor-prediction pipeline.

Wires a parity-check matrix, a list of failure sets, and a per-SNR
input-statistics source (density evolution or decoder capture) into the
state-space predictor, producing SNR-swept FER/BER bound curves with a
per-set breakdown.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .channel import ChannelConfig, frame_rng, ordered_map, sample_llrs
from .dde import dde_run
from .decoder import CaptureAccumulator, DecoderConfig, decode_batch
from .statespace import (
    InputStats,
    beta_prime_moments,
    build_model,
    failure_probability,
    gain_schedule,
    union_bounds,
)
from .tanner import ParityCheckMatrix, induce, load_alist, load_trapping_sets


@dataclass(frozen=True, kw_only=True)
class PredictionJob:
    """One prediction run: code, sets, SNR grid, stats source.  The field
    order is the order of the report's job echo."""

    H: ParityCheckMatrix
    sets: tuple
    multiplicities: tuple = ()
    snr_grid: tuple
    rate: float
    source: str = "dde"  # dde | spa
    saturation: float | None = 25.0
    horizon: int = 20
    inversion_iters: int = 3
    mode: str = "pairwise"
    capture_frames: int = 100
    capture_seed: int = 0

    def __post_init__(self):
        if not self.sets:
            raise ValueError("need at least one failure set")
        if self.multiplicities == ():
            object.__setattr__(self, "multiplicities", (1,) * len(self.sets))
        if len(self.multiplicities) != len(self.sets):
            raise ValueError("one multiplicity per set")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be >= 1")
        snr = np.asarray(self.snr_grid, dtype=float)
        if len(snr) < 1 or np.any(np.diff(snr) <= 0):
            raise ValueError("SNR grid must be strictly increasing")
        if self.source not in ("dde", "spa"):
            raise ValueError(f"unknown stats source {self.source!r}")
        if self.saturation is not None and self.saturation <= 0:
            raise ValueError("saturation limit must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.capture_frames < 1:
            raise ValueError("capture_frames must be at least 1")
        if self.capture_seed < 0:
            raise ValueError(f"capture_seed must be non-negative, got {self.capture_seed}")

    @property
    def code_id(self) -> str:
        return code_digest(self.H)


def code_digest(H: ParityCheckMatrix) -> str:
    h = hashlib.sha1()
    h.update(f"{H.n_chks}x{H.n_vars}".encode())
    for row in H.chk_vars:
        h.update(np.asarray(sorted(map(int, row)), dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _check_degree(H: ParityCheckMatrix) -> int:
    """The check degree d_c of every check; the model has no mixture of
    check degrees."""
    degrees = sorted(set(H.chk_degrees.tolist()))  # np.unique's first call costs 1.4 MB of RSS
    if len(degrees) != 1:
        raise ValueError(f"the model needs one check degree, the code has {degrees}")
    return degrees[0]


def stats_from_dde(
    cfg: ChannelConfig, d_v: int, d_c: int, n_iters: int, saturation: float | None
) -> InputStats:
    res = dde_run(d_v, d_c, cfg, n_iters, saturation=saturation)
    return InputStats(
        "dde", d_c, cfg.mean_llr, res.m_ex, res.var_ex, res.g_bar, res.p_e,
        cfg.ebn0_db, cfg.rate, saturation,
    )


def stats_from_capture(
    H: ParityCheckMatrix,
    cfg: ChannelConfig,
    n_iters: int,
    saturation: float | None,
    mode: str = "pairwise",
    n_frames: int = 100,
    seed: int = 0,
) -> InputStats:
    """Population statistics captured from the decoder itself on
    all-zero-codeword frames, decoded in batches of 50 without early
    termination, so every frame contributes to every iteration."""
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    dec = DecoderConfig(mode=mode, max_iters=n_iters, saturation=saturation)
    d_c = _check_degree(H)
    cap = CaptureAccumulator(d_c, n_iters)
    for b, start in enumerate(range(0, n_frames, 50)):
        llrs = sample_llrs(cfg, frame_rng(seed, b), (min(50, n_frames - start), H.n_vars))
        decode_batch(H, llrs, dec, capture=cap)
    return InputStats("spa", d_c, cfg.mean_llr, *cap.results(), cfg.ebn0_db, cfg.rate, saturation)


@dataclass(frozen=True)
class SetPrediction:
    set_index: int
    a: int
    b: int
    r: float
    h: int
    horizon: int
    mean: float
    var: float
    p_fail: float
    multiplicity: int

    @property
    def fer_contribution(self) -> float:
        return self.multiplicity * self.p_fail


@dataclass
class PredictionReport:
    job_echo: dict
    snr_grid: np.ndarray
    fer: np.ndarray
    ber: np.ndarray
    breakdown: list  # list (per SNR) of lists of SetPrediction

    def to_dict(self) -> dict:
        def row(p: SetPrediction) -> dict:
            d = asdict(p)
            return {"set": d.pop("set_index"), **d, "fer_contribution": p.fer_contribution}

        return {
            "schema": "floor-prediction v1",
            "job": self.job_echo,
            "curve": [
                {"ebn0_db": float(s), "fer_bound": float(f), "ber_bound": float(b)}
                for s, f, b in zip(self.snr_grid, self.fer, self.ber)
            ],
            "breakdown": [[row(p) for p in rows] for rows in self.breakdown],
        }


def predict_set(
    H: ParityCheckMatrix,
    d_v: int,
    T,
    stats: InputStats,
    horizon: int,
    inversion_iters: int,
    set_index: int = 0,
    multiplicity: int = 1,
) -> SetPrediction:
    """State-space failure probability for one set under the given
    per-iteration input statistics."""
    sub = induce(H, T)
    model = build_model(sub, d_v)
    sched = gain_schedule(stats, inversion_iters)
    mean, var = beta_prime_moments(model, sched, stats, horizon)
    return SetPrediction(
        set_index,
        model.a,
        model.b,
        float(model.summary.r),
        int(model.summary.h),
        horizon,
        mean,
        var,
        failure_probability(mean, var),
        multiplicity,
    )


def _curve_point(args):
    job, snr, d_v, d_c = args
    cfg = ChannelConfig(snr, job.rate)
    if job.source == "dde":
        stats = stats_from_dde(cfg, d_v, d_c, job.horizon, job.saturation)
    else:
        stats = stats_from_capture(
            job.H, cfg, job.horizon, job.saturation,
            mode=job.mode, n_frames=job.capture_frames, seed=job.capture_seed,
        )
    rows = [
        predict_set(
            job.H, d_v, T, stats, job.horizon, job.inversion_iters,
            set_index=i, multiplicity=int(job.multiplicities[i]),
        )
        for i, T in enumerate(job.sets)
    ]
    fer, ber = union_bounds(
        [p.p_fail for p in rows],
        [p.multiplicity for p in rows],
        [p.a for p in rows],
        job.H.n_vars,
    )
    return fer, ber, rows


def predict_curve(job: PredictionJob, workers: int = 1) -> PredictionReport:
    """SNR-swept FER/BER bounds with a per-set breakdown."""
    vd = job.H.var_degrees
    if not np.all(vd == vd[0]):
        raise ValueError("prediction requires a variable-regular code")
    d_v, d_c = int(vd[0]), _check_degree(job.H)
    tasks = [(job, float(s), d_v, d_c) for s in job.snr_grid]
    outs = list(ordered_map(_curve_point, tasks, workers))
    echo = {"code_id": job.code_id, "n": job.H.n_vars}
    echo.update((f.name, getattr(job, f.name)) for f in fields(job) if f.name != "H")
    return PredictionReport(
        echo,
        np.asarray(job.snr_grid, dtype=float),
        np.array([o[0] for o in outs]),
        np.array([o[1] for o in outs]),
        [o[2] for o in outs],
    )


def read_key_values(path) -> dict:
    """Flat `key = value` lines of a job or config file; `#` starts a
    comment and blank lines are skipped."""
    kv = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value' in {path}, got {line!r}")
            k, v = line.split("=", 1)
            kv[k.strip()] = v.strip()
    return kv


def _i(x: str) -> int:
    v = float(x)  # accepts 1e5
    if not v.is_integer():
        raise ValueError(f"expected an integer, got {x!r}")
    return int(v)


def _sat(x: str):
    return None if x.lower() in ("none", "inf", "off") else float(x)


def _floats(x: str) -> tuple:
    return tuple(float(v) for v in x.replace(",", " ").split())


def _ints(x: str) -> tuple:
    return tuple(_i(v) for v in x.replace(",", " ").split())


# job-file key -> converter; each key but snr (snr_grid) names a
# PredictionJob field, and code and sets are paths read by load_job
_JOB_KEYS = {
    "snr": _floats,
    "rate": float,
    "multiplicities": _ints,
    "source": str,
    "saturation": _sat,
    "horizon": _i,
    "inversion_iters": _i,
    "mode": str,
    "capture_frames": _i,
    "capture_seed": _i,
}


def load_job(path) -> PredictionJob:
    """Flat key-value job file; relative paths resolve against the file.
    Keys left out take PredictionJob's defaults; the rate defaults to
    (n - rank(H))/n, with the rank over GF(2)."""
    base = Path(path).parent
    kv = read_key_values(path)
    for k in ("code", "sets", "snr"):
        if k not in kv:
            raise ValueError(f"job file is missing the {k!r} key")
    fields = {}
    for k, v in kv.items():
        if k in ("code", "sets"):
            continue
        if k not in _JOB_KEYS:
            raise ValueError(f"unknown job key {k!r}")
        try:
            fields[k] = _JOB_KEYS[k](v)
        except ValueError as e:
            raise ValueError(f"bad value for {k!r}: {e}") from None
    try:
        H = load_alist(base / kv["code"])
    except ValueError as e:
        raise ValueError(f"bad alist {base / kv['code']}: {e}") from None
    sets = tuple(tuple(map(int, s)) for s in load_trapping_sets(base / kv["sets"]))
    fields.setdefault("rate", H.rate())
    return PredictionJob(H=H, sets=sets, snr_grid=fields.pop("snr"), **fields)
