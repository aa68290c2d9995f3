"""Discretized density evolution and its Gaussian approximation.

Densities live on a uniform LLR grid (default step 50/2047, support
+-50); the check transform applies the exact pairwise reduction as a
density operator on the quantized pair table (Chung, Forney,
Richardson & Urbanke 2001), the variable transform is plain
convolution.  The table entry for bins (i, j) is sign(i) sign(j)
min(|i|, |j|) except inside a band ||i| - |j|| <= W, so the operator
takes the min part from tail sums in O(N) and only the band, held as
precomputed bins per grid, through a bincount.  Decoder saturation is
modeled by sweeping tail mass onto the clamp bins after each check
transform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ChannelConfig, ndtr, qfunc

DEFAULT_STEP = 50.0 / 2047.0
DEFAULT_HALF_BINS = 2047


def _band_width(delta: float) -> int:
    """Half-width W of the band ||i| - |j|| <= W that holds every pair
    table entry differing from sign(i) sign(j) min(|i|, |j|).

    Off the band the correction log1p(exp(-|a+b|)) - log1p(exp(-|a-b|))
    lies in (-delta/2, 0), because log1p(exp(-x)) < delta/2 for
    x > -log(expm1(delta/2)); rounding then lands on the min bin.  Two
    extra bins absorb floating-point error in that bound."""
    smallest_safe_gap = math.floor(-math.log(math.expm1(delta / 2.0)) / delta) + 1
    return smallest_safe_gap + 2


def _pair_bins(a: np.ndarray, b: np.ndarray, delta: float) -> np.ndarray:
    """Grid index of the quantized pairwise check operation R(a, b)."""
    base = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    r = base + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    return np.rint(r / delta).astype(np.intp)


_BAND_CACHE: dict = {}


def _band(delta: float, half: int) -> tuple[int, np.ndarray]:
    """Band width W and the output offsets (bin + half) of the pair
    table on the band, laid out (p, sign class, d) for magnitude pairs
    (p, p + d), p in 1..half, d in -W..W; sign class 0 is same-sign,
    1 opposite-sign.  R(-a, -b) = R(a, b) and R(-a, b) = R(a, -b) hold
    bit for bit, so (+p, +q) and (+p, -q) stand for their classes.
    Pairs with p + d off the grid carry zero weight and point at the
    zero bin."""
    key = (round(delta, 12), half)
    if key not in _BAND_CACHE:
        w = min(_band_width(delta), half - 1)
        mag = np.arange(1, half + 1)
        q = mag[:, None] + np.arange(-w, w + 1)[None, :]
        a = mag[:, None].astype(float) * delta
        b = q.astype(float) * delta
        idx = np.stack([_pair_bins(a, b, delta), _pair_bins(a, -b, delta)], axis=1)
        on_grid = ((q >= 1) & (q <= half))[:, None, :]
        _BAND_CACHE[key] = (w, np.where(on_grid, idx, 0).ravel() + half)
    return _BAND_CACHE[key]


def _tail_beyond(v: np.ndarray, w: int) -> np.ndarray:
    """Row k - 1 of v holds mass at magnitude k; row k - 1 of the
    result holds v's mass at magnitudes > k + w (column by column)."""
    tail = np.zeros_like(v)
    n = len(v) - w - 1
    if n > 0:
        tail[:n] = np.cumsum(v[::-1], axis=0)[::-1][w + 1 :]  # small tail terms summed first
    return tail


@dataclass
class Pmf:
    """Probability mass on the uniform grid i*delta, i in [-half, half]."""

    probs: np.ndarray
    delta: float = DEFAULT_STEP
    half: int = DEFAULT_HALF_BINS

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.half < 1:
            raise ValueError("grid needs half >= 1")
        if self.probs.size != 2 * self.half + 1:
            raise ValueError("pmf length must be 2*half+1")

    @property
    def grid(self) -> np.ndarray:
        return np.arange(-self.half, self.half + 1) * self.delta

    def mean(self) -> float:
        return float(self.grid @ self.probs)

    def variance(self) -> float:
        m = self.mean()
        return max(float((self.grid**2) @ self.probs - m * m), 0.0)

    def tanh_mean(self) -> float:
        return float(np.tanh(self.grid / 2.0) @ self.probs)

    def negative_mass(self) -> float:
        return float(self.probs[: self.half].sum())

    def total(self) -> float:
        return float(self.probs.sum())

    def normalized(self) -> "Pmf":
        """Rescale to unit total.  One iteration raises the total mass
        to the power (d_c - 1)(d_v - 1), so float drift in the total
        compounds exponentially unless removed each round."""
        return Pmf(self.probs / self.probs.sum(), self.delta, self.half)

    def saturate(self, limit: float) -> "Pmf":
        """Sweep all mass beyond +-limit onto the clamp bins."""
        k = int(round(limit / self.delta))
        if k >= self.half:
            return self
        p = self.probs.copy()
        c = self.half  # center index
        p[c + k] += p[c + k + 1 :].sum()
        p[c - k] += p[: c - k].sum()
        p[c + k + 1 :] = 0.0
        p[: c - k] = 0.0
        return Pmf(p, self.delta, self.half)

    def convolve(self, other: "Pmf") -> "Pmf":
        """Sum of independent variables; out-of-range mass accumulates on
        the boundary bins (the grid's own saturation)."""
        if (self.delta, self.half) != (other.delta, other.half):
            raise ValueError("incompatible grids")
        full = np.convolve(self.probs, other.probs)
        h = self.half  # full covers grid indices -2h .. +2h
        p = full[h : 3 * h + 1].copy()
        p[0] += full[:h].sum()
        p[-1] += full[3 * h + 1 :].sum()
        return Pmf(p, self.delta, self.half)

    def check_pair(self, other: "Pmf") -> "Pmf":
        """Density of R(X, Y) for independent X ~ self, Y ~ other.

        Exact for the quantized pair table: pairs whose magnitudes are
        more than W bins apart land on sign * min, gathered in O(N) from
        tail sums; the band of the remaining pairs goes through one
        bincount over precomputed bins.  A zero input maps to bin 0."""
        if (self.delta, self.half) != (other.delta, other.half):
            raise ValueError("incompatible grids")
        h = self.half
        w, bins = _band(self.delta, h)
        x, y = self.probs, other.probs
        # row k - 1: (mass at +k, mass at -k)
        xs = np.stack([x[h + 1 :], x[:h][::-1]], axis=1)
        ys = np.stack([y[h + 1 :], y[:h][::-1]], axis=1)

        # band: row k - 1 of y_win holds y at magnitudes k - w .. k + w;
        # same-sign weight x+ y+ + x- y-, opposite-sign x- y+ + x+ y-
        y_win = sliding_window_view(np.pad(ys, ((w, w), (0, 0))), 2 * w + 1, axis=0)
        pairing = np.stack([xs, xs[:, ::-1]], axis=1)
        out = np.bincount(bins, weights=(pairing @ y_win).ravel(), minlength=2 * h + 1)

        # off the band: the smaller magnitude k is the output magnitude
        tx, ty = _tail_beyond(xs, w), _tail_beyond(ys, w)
        out[h + 1 :] += (xs * ty).sum(axis=1) + (ys * tx).sum(axis=1)
        out[:h][::-1] += (xs * ty[:, ::-1]).sum(axis=1) + (ys * tx[:, ::-1]).sum(axis=1)
        out[h] += x[h] * y.sum() + y[h] * xs.sum()
        return Pmf(out, self.delta, self.half)


def channel_pmf(cfg: ChannelConfig, delta: float = DEFAULT_STEP, half: int = DEFAULT_HALF_BINS) -> Pmf:
    """Quantized N(m_lambda, 2 m_lambda) channel LLR density.

    Bins below the mean take their mass from CDF differences, bins above
    it from upper-tail (Q) differences: a CDF near 1 would round the
    upper tail's masses to multiples of 2^-53."""
    m = cfg.mean_llr
    sd = math.sqrt(2.0 * m)
    z = ((np.arange(-half, half + 2) - 0.5) * delta - m) / sd
    cdf, tail = ndtr(z), qfunc(z)
    p = np.where(z[1:] <= 0.0, np.diff(cdf), -np.diff(tail))
    p[0] += cdf[0]
    p[-1] += tail[-1]
    return Pmf(p, delta, half)


def check_transform(vc: Pmf, d_c: int) -> Pmf:
    """Density of a check output with d_c - 1 iid inputs."""
    if d_c < 2:
        raise ValueError("check degree must be >= 2")
    out = vc
    for _ in range(d_c - 2):
        out = out.check_pair(vc)
    return out


@dataclass
class DDEResult:
    """Per-iteration DDE path: saturated check-output stats, gains, and
    error probabilities of the messages entering the checks."""

    m_ex: np.ndarray
    var_ex: np.ndarray
    g_bar: np.ndarray
    p_e: np.ndarray
    m_vc: np.ndarray
    check_pmf: Pmf = None
    vc_pmf: Pmf = None


def dde_run(
    d_v: int,
    d_c: int,
    cfg: ChannelConfig,
    n_iters: int,
    saturation: float | None = 25.0,
    delta: float = DEFAULT_STEP,
    half: int = DEFAULT_HALF_BINS,
) -> DDEResult:
    for name, deg in (("d_v", d_v), ("d_c", d_c)):
        if deg < 2:
            raise ValueError(f"{name} must be at least 2, got {deg}")
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    if saturation is not None and saturation <= 0:
        raise ValueError("saturation limit must be positive")
    if saturation is not None and saturation >= half * delta:
        warnings.warn(
            f"saturation {saturation:g} is beyond the grid edge {half * delta:g}; "
            "the grid boundary acts as the effective clamp",
            stacklevel=2,
        )
    ch = channel_pmf(cfg, delta, half)
    vc = ch
    m_ex, var_ex, g_bar, p_e, m_vc = [], [], [], [], []
    for _ in range(n_iters):
        g_bar.append(vc.tanh_mean() ** (d_c - 2))
        p_e.append(vc.negative_mass())
        cv = check_transform(vc, d_c)
        if saturation is not None:
            cv = cv.saturate(saturation)
        cv = cv.normalized()
        m_ex.append(cv.mean())
        var_ex.append(cv.variance())
        vc = ch
        for _ in range(d_v - 1):
            vc = vc.convolve(cv)
        vc = vc.normalized()
        m_vc.append(vc.mean())
    return DDEResult(
        np.array(m_ex), np.array(var_ex), np.array(g_bar), np.array(p_e), np.array(m_vc), cv, vc
    )


# ---------------------------------------------------------------------------
# Gaussian approximation

_SQRT_PI = math.sqrt(math.pi)


def phi(x: float) -> float:
    """phi(x) = 1 - E[tanh(u/2)] for u ~ N(x, 2x); phi(0) = 1.

    Integrates 1 - tanh(u/2) = 2 e^-u / (1 + e^-u), which is positive,
    so adaptive quadrature controls the relative error of phi itself
    even deep in the tail.  Above x = 700 the integrand underflows and
    the tight upper asymptote sqrt(pi/x) e^{-x/4} (1 - 1/(7x)) takes
    over."""
    from scipy.integrate import quad  # not at module level: no CLI run calls phi

    if x < 0:
        raise ValueError("phi domain is x >= 0")
    if x == 0:
        return 1.0
    if x > 700:
        return math.sqrt(math.pi / x) * math.exp(-x / 4.0) * (1.0 - 1.0 / (7.0 * x))
    s = 2.0 * math.sqrt(x)

    def integrand(t):
        u = x + s * t
        if u >= 0:
            e = math.exp(-u)
            g = 2.0 * e / (1.0 + e)
        else:
            g = 2.0 / (1.0 + math.exp(u))
        return g * math.exp(-t * t)

    # the integrand's second hump sits near t = -sqrt(x)/2 (where tanh
    # transitions); make sure the range covers it for large x
    lo = min(-12.0, -0.5 * math.sqrt(x) - 12.0)
    val, _ = quad(integrand, lo, 12.0, epsabs=0.0, epsrel=1e-11, limit=400,
                  points=[-0.5 * math.sqrt(x)] if x > 100 else None)
    return val / _SQRT_PI


def phi_inv(y: float, lo: float = 1e-12, hi: float = 5000.0) -> float:
    """Inverse of phi by bisection (phi is strictly decreasing)."""
    if not 0.0 < y <= 1.0:
        raise ValueError("phi_inv domain is (0, 1]")
    if y == 1.0:
        return 0.0
    if phi(hi) > y:
        raise ValueError("y below phi(hi); raise hi")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi(mid) > y:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def gaussian_de_step(m_prev: float, cfg: ChannelConfig, d_v: int, d_c: int) -> float:
    """One Gaussian-approximation DE update of the check-output mean."""
    x = cfg.mean_llr + (d_v - 1) * m_prev
    return phi_inv(1.0 - (1.0 - phi(x)) ** (d_c - 1))


def growth_threshold_regular(d_v: int, d_c: int, delta: float = 1.0) -> float:
    """Eb/N0 (dB) above which the large-mean DE growth condition
    R*Eb/N0 > ln((d_c-1)/delta) holds for the (d_v, d_c) ensemble."""
    rate = 1.0 - d_v / d_c
    return 10.0 * math.log10(math.log((d_c - 1) / delta) / rate)


def growth_threshold_pointwise(
    d_v: int,
    d_c: int,
    r: float,
    m_prev: float,
    cfg: ChannelConfig,
) -> bool:
    """Pointwise growth condition at mean m_prev against a set with
    spectral radius r; satisfied means DE outpaces the set's gain."""
    return pointwise_margin(d_v, d_c, r, m_prev, cfg) > 0


def pointwise_margin(d_v: int, d_c: int, r: float, m_prev: float, cfg: ChannelConfig) -> float:
    """Signed slack of the pointwise growth condition (positive:
    satisfied), with delta = 1 - 3/x at the variable-node mean x."""
    eps = d_v - 1 - r
    x = cfg.mean_llr + (d_v - 1) * m_prev
    delta = 1.0 - 3.0 / x
    if delta <= 0:
        return -math.inf
    need = math.log((d_c - 1) / delta) / (1.0 + 2.0 / x) - eps * m_prev / 4.0
    return cfg.rate * cfg.ebn0 - need


def pointwise_crossing(
    d_v: int,
    d_c: int,
    r: float,
    cfg: ChannelConfig,
    lo: float = 0.1,
    hi: float = 500.0,
) -> float:
    """Smallest m_prev at which the pointwise condition turns on."""
    if pointwise_margin(d_v, d_c, r, lo, cfg) > 0:
        return lo
    if pointwise_margin(d_v, d_c, r, hi, cfg) <= 0:
        raise ValueError("condition never satisfied below hi")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if pointwise_margin(d_v, d_c, r, mid, cfg) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def growth_threshold_irregular(lambda_coeffs, rho_coeffs, delta: float = 1.0) -> float:
    """Eb/N0 (dB) for an irregular ensemble: R*Eb/N0 > sum_j rho_j
    ln((j-1)/delta).  Degree distributions are edge-perspective,
    coefficient index = degree."""
    lam = {int(d): c for d, c in lambda_coeffs.items() if c}
    rho = {int(d): c for d, c in rho_coeffs.items() if c}
    for name, dist in (("lambda", lam), ("rho", rho)):
        s = sum(dist.values())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"{name} coefficients must sum to 1")
    rate = 1.0 - sum(c / d for d, c in rho.items()) / sum(c / d for d, c in lam.items())
    need = sum(c * math.log((d - 1) / delta) for d, c in rho.items())
    return 10.0 * math.log10(need / rate)
