"""Monte Carlo decoding runs and a semi-analytic floor estimator.

The floor estimator conditions the noise on a trapping set T through an
orthonormal rotation whose first basis vector has equal support on T:
pinning the first rotated coordinate pins the mean noise over T at s
while the remaining coordinates stay i.i.d.  Conditional failure rates
measured on an s grid are then integrated against the Gaussian density
of the mean, N(0, sigma^2/a).
"""

from __future__ import annotations

import math
import warnings
from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelConfig, frame_rng, ndtr, ordered_map, sample_llrs
from .decoder import DecoderConfig, decode_batch
from .tanner import ParityCheckMatrix, classify, induce


class GridCoverageWarning(UserWarning):
    pass


def wilson_interval(k: int, n: int, z: float = 1.959963984540054):
    """95% score interval for k successes in n trials."""
    if n == 0:
        return 0.0, 1.0
    p = k / n
    den = 1.0 + z * z / n
    mid = (p + z * z / (2 * n)) / den
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / den
    return max(0.0, mid - half), min(1.0, mid + half)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run shape.  Results depend only on (seed, batch_size),
    never on the worker count: batch b draws its frames from
    `frame_rng(seed, b)`, so batch_size sets which frames share a random
    stream.  It sets neither the decoder's compute width nor its state
    memory: the decoder runs a batch through a fixed pool of rows of its
    own, which waiting frames refill as others leave."""

    max_frames: int = 100_000
    target_errors: int | None = None
    seed: int = 0
    workers: int = 1
    batch_size: int = 256

    def __post_init__(self):
        if self.max_frames < 1 or self.batch_size < 1 or self.workers < 1:
            raise ValueError("max_frames, batch_size and workers must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.target_errors is not None and self.target_errors < 1:
            raise ValueError("target_errors must be positive")


@dataclass(frozen=True)
class FailureRecord:
    frame: int
    iterations: int
    failed_set: tuple
    a: int
    b: int
    elementary: bool | None = None
    absorbing: bool | None = None
    fully_absorbing: bool | None = None
    codeword: bool | None = None


@dataclass
class McResult:
    frames: int
    frame_errors: int
    bit_errors: int
    n: int
    fer: float
    ber: float
    fer_ci: tuple
    ber_ci: tuple
    failures: list  # of FailureRecord


def _sim_batch(args):
    H, cfg, dec, seed, batch_idx, batch_size = args
    llrs = sample_llrs(cfg, frame_rng(seed, batch_idx), (batch_size, H.n_vars))
    res = decode_batch(H, llrs, dec)
    err_rows = np.flatnonzero(res.failed.any(axis=1))
    bit_errors = int(res.hard.sum())
    log = [
        (int(i), int(res.iterations[i]), tuple(map(int, np.flatnonzero(res.failed[i]))))
        for i in err_rows
    ]
    return batch_size, len(err_rows), bit_errors, log


def _classify_failure(H, frame, iterations, fset, d_v):
    sub = induce(H, fset)
    if d_v is None:
        return FailureRecord(frame, iterations, fset, sub.a, sub.b)
    c = classify(sub, d_v)
    return FailureRecord(
        frame, iterations, fset, c.a, c.b, c.elementary, c.absorbing, c.fully_absorbing, c.codeword
    )


def run_monte_carlo(
    H: ParityCheckMatrix, cfg: ChannelConfig, dec: DecoderConfig, mc: McConfig
) -> McResult:
    """All-zero-codeword simulation with Wilson intervals and a failure
    log holding each frame's not-eventually-correct set and its (a, b).
    Batches are aggregated in order, so the stopping point does not
    depend on the worker count."""
    vd = H.var_degrees
    d_v = int(vd[0]) if len(vd) and np.all(vd == vd[0]) else None

    n_batches = -(-mc.max_frames // mc.batch_size)
    sizes = [min(mc.batch_size, mc.max_frames - i * mc.batch_size) for i in range(n_batches)]
    tasks = [(H, cfg, dec, mc.seed, i, sizes[i]) for i in range(n_batches)]

    frames = frame_errors = bit_errors = 0
    failures = []
    with closing(ordered_map(_sim_batch, tasks, mc.workers)) as outs:
        for i, (bsize, errs, berrs, log) in enumerate(outs):
            frames += bsize
            frame_errors += errs
            bit_errors += berrs
            failures.extend(
                _classify_failure(H, i * mc.batch_size + local, iters, fset, d_v)
                for local, iters, fset in log
            )
            if mc.target_errors is not None and frame_errors >= mc.target_errors:
                break

    total_bits = frames * H.n_vars
    return McResult(
        frames=frames,
        frame_errors=frame_errors,
        bit_errors=bit_errors,
        n=H.n_vars,
        fer=frame_errors / frames if frames else 0.0,
        ber=bit_errors / total_bits if total_bits else 0.0,
        fer_ci=wilson_interval(frame_errors, frames),
        ber_ci=wilson_interval(bit_errors, total_bits),
        failures=failures,
    )


_ROT_CACHE: dict = {}


def _equal_support_rotation(a: int) -> np.ndarray:
    """Orthonormal Q whose first column is 1/sqrt(a) on every entry,
    completed by Gram-Schmidt over the standard basis."""
    Q = _ROT_CACHE.get(a)
    if Q is None:
        M = np.eye(a)
        M[:, 0] = 1.0
        Q, _ = np.linalg.qr(M)
        if Q[0, 0] < 0:
            Q = -Q
        _ROT_CACHE[a] = Q
    return Q


def _rotated_noise(T, s, cfg, rng, n, n_frames):
    """LLR frames whose mean noise over T is pinned at s.

    The T block of the noise is Q u with u[0] = s*sqrt(a) fixed and the
    other a-1 rotated coordinates i.i.d. N(0, sigma^2); off-T noise is
    untouched channel noise.
    """
    T = np.asarray(T, dtype=np.int64)
    a = T.size
    llrs = sample_llrs(cfg, rng, (n_frames, n))
    u = np.empty((n_frames, a))
    u[:, 0] = s * math.sqrt(a)
    if a > 1:
        u[:, 1:] = rng.normal(0.0, cfg.sigma, size=(n_frames, a - 1))
    llrs[:, T] = cfg.llr_scale * (1.0 + u @ _equal_support_rotation(a).T)
    return llrs


# frames decoded at once per grid point
_BATCH = 512


@dataclass(frozen=True)
class SemiAnalyticConfig:
    """Importance-sampling plan for one trapping set."""

    trap_set: tuple
    s_grid: tuple = tuple(np.linspace(-2.0, -0.8, 8))
    frames_per_point: int = 20_000
    target_failures: int = 50
    mode: str = "exact-match"
    sat_iters: int = 20
    seed: int = 0
    refine_rounds: int = 0

    def __post_init__(self):
        if len(self.trap_set) < 1:
            raise ValueError("trapping set must have a >= 1 variables")
        s = np.asarray(self.s_grid, dtype=float)
        if not np.all(np.isfinite(s)):
            raise ValueError("s grid must be finite")
        if len(s) < 1 or np.any(np.diff(s) <= 0):
            raise ValueError("s grid must be strictly increasing")
        if s[-1] >= 0:
            raise ValueError("s grid must stay below zero")
        if self.mode not in ("exact-match", "saturation-phase"):
            raise ValueError(f"unknown classification mode {self.mode!r}")
        if self.sat_iters < 1:
            raise ValueError("sat_iters must be at least 1")
        if min(self.frames_per_point, self.target_failures) < 1:
            raise ValueError("frames_per_point and target_failures must be at least 1")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be at least 0")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ConditionalEstimate:
    s: float
    failures: int
    frames: int

    @property
    def p(self) -> float:
        return self.failures / self.frames if self.frames else 0.0

    @property
    def ci(self) -> tuple:
        return wilson_interval(self.failures, self.frames)


def conditional_failure(
    H: ParityCheckMatrix,
    sa: SemiAnalyticConfig,
    s: float,
    cfg: ChannelConfig,
    dec: DecoderConfig,
    stream_base: int = 0,
) -> ConditionalEstimate:
    """P{failure pattern == T | mean noise over T = s} for T = `sa.trap_set`.

    Decodes batches of up to 512 frames until `sa.frames_per_point`
    frames or `sa.target_failures` failures.  exact-match compares the
    decoder's not-eventually-correct set with T directly;
    saturation-phase first runs the decoder without its clamp, then
    appends `sa.sat_iters` iterations clamped at `dec.saturation` and
    matches on their trailing `dec.ec_window`.
    """
    T = tuple(sorted(int(v) for v in sa.trap_set))
    mask = np.zeros(H.n_vars, dtype=bool)
    mask[list(T)] = True
    if sa.mode == "saturation-phase":
        if dec.saturation is None:
            raise ValueError("saturation-phase needs a decoder with a saturation limit")
        sat_dec = replace(dec, max_iters=sa.sat_iters, early_stop=False)
        dec = replace(dec, saturation=None)

    fails = 0
    frames = 0
    batch = 0
    while frames < sa.frames_per_point and fails < sa.target_failures:
        bsize = min(_BATCH, sa.frames_per_point - frames)
        rng = frame_rng(sa.seed, stream_base + batch)
        llrs = _rotated_noise(T, s, cfg, rng, H.n_vars, bsize)
        if sa.mode == "exact-match":
            failed = decode_batch(H, llrs, dec).failed
        else:
            pre = decode_batch(H, llrs, dec, return_state=True)
            failed = decode_batch(H, llrs, sat_dec, init_v2c=pre.state_v2c).failed
        fails += int((failed == mask).all(axis=1).sum())
        frames += bsize
        batch += 1
    return ConditionalEstimate(float(s), fails, frames)


def integrate_floor(s_grid, cond, cfg: ChannelConfig, a: int, warn: bool = True) -> float:
    """Integrate P{failure | s} against the mean-noise density N(0, sigma^2/a).

    The conditional curve is treated as piecewise linear between grid
    points and held constant beyond both ends, so each segment has a
    closed form under the Gaussian measure.
    """
    s = np.asarray(s_grid, dtype=float)
    p = np.asarray(cond, dtype=float)
    if s.shape != p.shape or s.ndim != 1 or len(s) < 1:
        raise ValueError("grid and estimates must be 1-d and aligned")
    if len(s) > 1 and np.any(np.diff(s) <= 0):
        raise ValueError("s grid must be strictly increasing")
    sig = cfg.sigma / math.sqrt(a)
    z = s / sig
    cdf = ndtr(z)
    pdf = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    left = p[0] * cdf[0]
    right = p[-1] * (1.0 - cdf[-1])
    total = left + right
    if len(s) > 1:
        slope = np.diff(p) / np.diff(s)
        icept = p[:-1] - slope * s[:-1]
        total += float(np.sum(icept * np.diff(cdf) + slope * sig * (pdf[:-1] - pdf[1:])))
    if warn and total > 0 and max(left, right) >= 0.01 * total:
        warnings.warn(
            f"grid endpoints hold {100 * max(left, right) / total:.1f}% of the mass; "
            "widen the s grid",
            GridCoverageWarning,
            stacklevel=2,
        )
    return float(total)


@dataclass
class FloorEstimate:
    """Semi-analytic failure probability for one trapping set."""

    value: float
    ci: tuple
    s_grid: np.ndarray
    cond: np.ndarray
    cond_lo: np.ndarray
    cond_hi: np.ndarray
    frames: np.ndarray
    a: int
    ebn0_db: float
    rate: float
    mode: str
    notes: list = field(default_factory=list)


def _point_eval(args):
    return conditional_failure(*args)


def semi_analytic_floor(
    H: ParityCheckMatrix,
    cfg: ChannelConfig,
    dec: DecoderConfig,
    sa: SemiAnalyticConfig,
    workers: int = 1,
) -> FloorEstimate:
    """Sweep the s grid, optionally refine around the integrand peak,
    then integrate the conditional curve with CI propagation."""
    points = [(float(s), i) for i, s in enumerate(sa.s_grid)]
    estimates: dict = {}
    next_idx = len(points)

    def eval_points(batch):
        tasks = [(H, sa, s, cfg, dec, (i + 1) << 20) for s, i in batch]
        for est, (s, _) in zip(ordered_map(_point_eval, tasks, workers), batch):
            estimates[s] = est

    eval_points(points)
    a = len(sa.trap_set)
    sig = cfg.sigma / math.sqrt(a)
    for _ in range(sa.refine_rounds):
        grid = sorted(estimates)
        if len(grid) < 2:
            break
        dens = [math.exp(-0.5 * (s / sig) ** 2) for s in grid]
        contrib = [
            0.5 * (estimates[grid[i]].p * dens[i] + estimates[grid[i + 1]].p * dens[i + 1])
            * (grid[i + 1] - grid[i])
            for i in range(len(grid) - 1)
        ]
        k = int(np.argmax(contrib))
        if contrib[k] <= 0:
            break
        mid = 0.5 * (grid[k] + grid[k + 1])
        eval_points([(mid, next_idx)])
        next_idx += 1

    grid = np.array(sorted(estimates))
    cond = np.array([estimates[s].p for s in grid])
    lo = np.array([estimates[s].ci[0] for s in grid])
    hi = np.array([estimates[s].ci[1] for s in grid])
    frames = np.array([estimates[s].frames for s in grid])

    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GridCoverageWarning)
        value = integrate_floor(grid, cond, cfg, a)
        v_lo = integrate_floor(grid, lo, cfg, a, warn=False)
        v_hi = integrate_floor(grid, hi, cfg, a, warn=False)
        notes.extend(str(w.message) for w in caught)
    return FloorEstimate(
        value, (v_lo, v_hi), grid, cond, lo, hi, frames, a, cfg.ebn0_db, cfg.rate, sa.mode,
        notes=notes,
    )

