"""Discretized density evolution.

Densities live on a uniform LLR grid (default step 50/2047, support
+-50); the check transform applies the exact pairwise reduction as a
density operator on the quantized pair table (Chung, Forney,
Richardson & Urbanke 2001), the variable transform is plain
convolution over the inputs' nonzero spans.  The table entry for bins
(i, j) is sign(i) sign(j) min(|i|, |j|) except inside a band
||i| - |j|| <= W, so the operator works in three parts:
- off the band, the min part comes from tail sums in O(N);
- on the band, pairs whose smaller magnitude m is at least p0 land on
  +-(m + g(u)), where g is fixed on groups of gaps u = ||i| - |j||: one
  window sum of the other input per group and one slice add per group
  and sign class;
- the band pairs with m < p0 go through a bincount over precomputed
  bins.
W, p0 and the gap groups are derived from the table the first time a
grid is used.  On the default grid (W = 183, p0 = 155, 29 groups) one
pair step takes about 2 ms on a 2-core Xeon, nearly all of it
arithmetic: 154 stacked 2 x 2 matmuls and a bincount over the 113,036
band pairs below p0, 45 window-sum passes, and one einsum and two slice
adds per group.  The convolution stays direct: DE carries tail masses
of 1e-40 to 1e-84, which an FFT's rounding error, some 1e-16 of the
largest mass, would erase.  Decoder saturation is modeled by sweeping
tail mass onto the clamp bins after each check transform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


class _Band(NamedTuple):
    """The band of the pair table on one grid, split for `Pmf.check_pair`.

    A band pair has smaller magnitude m and gap u <= w to the larger one.
    From magnitude p0 on, each pair's output bin is +-(m + shift) in its
    sign class, with the shift fixed on groups of gaps that tile 0..w.
    `groups` holds each group, shortest first, as Python ints (so the
    operator's group loop does no numpy indexing): its first gap, its
    length, and the output index half + p0 + shift of each sign class.
    Pairs with m < p0 keep their bins (+ half), laid out (m, sign class,
    u) in `low_x` for u in 0..w and in `low_y` for u in 1..w; the table
    is symmetric, R(a, b) = R(b, a) bit for bit, so both orientations
    share them."""

    w: int
    p0: int
    low_x: np.ndarray
    low_y: np.ndarray
    groups: tuple


_BAND_CACHE: dict = {}

# magnitudes per block of the scan for p0, which so never holds the whole
# [half, 2, w + 1] table (some 30 MB of transients on the default grid);
# below the 154 rows kept for m < p0, whose build then sets the peak
# (2.7 MB of transients on the default grid, against 4.2 MB with 256)
_BAND_BLOCK = 128


def _band_rows(delta: float, half: int, w: int, lo: int, hi: int):
    """Bins of the magnitude pairs (m, m + u) for m in lo..hi - 1 and u in
    0..w, laid out (m, sign class, u), and which of them are on the grid."""
    m = np.arange(lo, hi)[:, None]
    q = m + np.arange(w + 1)
    a, b = m.astype(float) * delta, q.astype(float) * delta
    idx = np.stack([_pair_bins(a, b, delta), _pair_bins(a, -b, delta)], axis=1)
    return idx, (q <= half)[:, None, :]


def _band(delta: float, half: int) -> _Band:
    """Pair table on the band for magnitude pairs (m, m + u), m in
    1..half, u in 0..w; sign class 0 is same-sign, 1 opposite-sign.
    R(-a, -b) = R(a, b) and R(-a, b) = R(a, -b) hold bit for bit, so
    (+m, +q) and (+m, -q) stand for their classes.  Pairs with m + u off
    the grid carry zero weight and point at the zero bin.

    p0 is the smallest magnitude from which every on-grid pair's output
    magnitude minus m depends only on (class, u).  The shift is claimed
    only where every gap is seen on at least two magnitudes; otherwise
    the grid has no shifted region and p0 is half + 1.  The magnitudes
    are scanned for p0 in blocks from the top down, and the bins kept
    for m < p0 are built last."""
    key = (round(delta, 12), half)
    if key not in _BAND_CACHE:
        w = min(_band_width(delta), half - 1)
        gaps = np.arange(w + 1)
        sign = np.array([1, -1])[:, None]

        def shifts(lo, hi):
            idx, on_grid = _band_rows(delta, half, w, lo, hi)
            return idx * sign - np.arange(lo, hi)[:, None, None], on_grid

        last, _ = shifts(half - w, half + 1)
        top = last[w - gaps, :, gaps]  # (u, class) at the largest on-grid m, half - u
        p0 = 1
        for hi in range(half + 1, 1, -_BAND_BLOCK):
            lo = max(hi - _BAND_BLOCK, 1)
            shift, on_grid = shifts(lo, hi)
            varies = np.flatnonzero(((shift != top.T) & on_grid).any(axis=(1, 2)))
            if varies.size:
                p0 = lo + int(varies[-1]) + 1
                break
        if p0 + w >= half:
            p0 = half + 1
        idx, on_grid = _band_rows(delta, half, w, 1, p0)
        low = np.where(on_grid, idx, 0) + half
        starts = np.flatnonzero(np.r_[True, (top[1:] != top[:-1]).any(axis=1)])
        lengths = np.diff(np.r_[starts, w + 1])
        groups = tuple((int(starts[g]), int(lengths[g]), *(half + p0 + int(c) for c in top[starts[g]]))
                       for g in np.argsort(lengths, kind="stable"))
        _BAND_CACHE[key] = _Band(w, p0, low.ravel(), low[:, :, 1:].ravel(), groups)
    return _BAND_CACHE[key]


def _tail_beyond(v: np.ndarray, w: int) -> np.ndarray:
    """Row k - 1 of v holds mass at magnitude k; row k - 1 of the
    result holds v's mass at magnitudes > k + w (column by column)."""
    tail = np.zeros_like(v)
    n = len(v) - w - 1
    if n > 0:
        tail[:n] = np.cumsum(v[::-1], axis=0)[::-1][w + 1 :]  # small tail terms summed first
    return tail


def _support(p: np.ndarray) -> tuple[np.ndarray, int]:
    """The span of p from its first to its last nonzero entry, and the
    index where it starts."""
    nz = np.flatnonzero(p)
    if nz.size == 0:
        return p[:1], 0
    return p[nz[0] : nz[-1] + 1], int(nz[0])


def _add_shifted(out: np.ndarray, band: _Band, x: np.ndarray, y: np.ndarray) -> None:
    """Add the band pairs of x and y with smaller magnitude m >= p0 into
    `out`.

    Per gap group, x's masses at m meet y's window sum over m + u, and
    y's masses at m meet x's over m + u with u >= 1; the group's pairs
    land on +-(m + shift), one slice per sign class."""
    h, w, n = (len(out) - 1) // 2, band.w, band.p0 - 1
    size, count = h - n + w, h - n  # block: magnitudes p0 .. h + w; m: p0 .. h
    # blocks y+, y-, x+, x- (zero beyond magnitude h), then w + 1 zeros
    # so every window is whole
    flat = np.zeros(4 * size + w + 1)
    blocks = flat[: 4 * size].reshape(4, size)
    for row, p in ((0, y), (2, x)):
        blocks[row, :count] = p[h + 1 + n :]
        blocks[row + 1, :count] = p[h - 1 - n :: -1]
    # masses at m: x+, x-, y+, y- against same-sign windows, then against
    # opposite-sign ones
    pairing = blocks[[[2, 3, 0, 1], [3, 2, 1, 0]], :count]
    # y at m meets x at m + u for u >= 1 only, so the diagonal counts once
    x_diag = np.zeros((2, count))
    for u in range(1, next(length for lo, length, _, _ in band.groups if lo == 0)):
        x_diag += flat[2 * size + u : 4 * size + u].reshape(2, size)[:, :count]
    # acc[i] sums flat[i : i + length] directly: differences of prefix
    # sums would lose the tiny tail masses
    acc, length = flat.copy(), 1
    step = acc.strides[0]
    wins = as_strided(acc, (w + 1, 4, count), (step, size * step, step))  # wins[lo]: from gap lo
    rev = out[::-1]  # rev[h + k] is out[h - k]
    for lo, group_length, same, opposite in band.groups:
        while length < group_length:
            length += 1
            acc[: 1 - length] += flat[length - 1 :]
        win = np.concatenate([wins[0, :2], x_diag]) if lo == 0 else wins[lo]
        both = np.einsum("ckm,km->cm", pairing, win)
        k = count - lo  # magnitudes p0 .. h - lo have their window on the grid
        out[same : same + k] += both[0, :k]
        rev[opposite : opposite + k] += both[1, :k]


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
        """Second moment about the mean, in two passes: E[x^2] - m^2
        would cancel two numbers near clamp^2 once the clamp holds.  The
        second term removes the rounding error of m to first order."""
        d = self.grid - self.mean()
        return max(float(self.probs @ d**2 - (self.probs @ d) ** 2), 0.0)

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
        the boundary bins (the grid's own saturation).  Only the nonzero
        span of each input is convolved: a saturated check pmf is zero
        beyond its clamp bins."""
        if (self.delta, self.half) != (other.delta, other.half):
            raise ValueError("incompatible grids")
        h = self.half
        (a, i), (b, j) = _support(self.probs), _support(other.probs)
        full = np.zeros(4 * h + 1)  # grid indices -2h .. +2h
        full[i + j : i + j + a.size + b.size - 1] = np.convolve(a, b)
        p = full[h : 3 * h + 1].copy()
        p[0] += full[:h].sum()
        p[-1] += full[3 * h + 1 :].sum()
        return Pmf(p, self.delta, self.half)

    def check_pair(self, other: "Pmf") -> "Pmf":
        """Density of R(X, Y) for independent X ~ self, Y ~ other.

        Exact for the quantized pair table, in three parts:
        - pairs whose magnitudes are more than W bins apart land on
          sign * min, gathered in O(N) from tail sums;
        - band pairs whose smaller magnitude m is at least p0 land on
          +-(m + shift), with the shift fixed on each group of gaps: the
          other input's mass over a group's gaps is one window sum, and
          each group and sign class adds into the output with one slice;
        - the band pairs with m < p0 go through one bincount over
          precomputed bins.
        A zero input maps to bin 0."""
        if (self.delta, self.half) != (other.delta, other.half):
            raise ValueError("incompatible grids")
        h = self.half
        band = _band(self.delta, h)
        w, n = band.w, band.p0 - 1
        x, y = self.probs, other.probs
        # row k - 1: (mass at +k, mass at -k), zero beyond magnitude h
        xs, ys = np.zeros((h + w, 2)), np.zeros((h + w, 2))
        for rows, p in ((xs, x), (ys, y)):
            rows[:h, 0] = p[h + 1 :]
            rows[:h, 1] = p[h - 1 :: -1]

        # band, m < p0: x at m against y at m + u (u >= 0), then y at m
        # against x at m + u (u >= 1); same-sign weight x+ y+ + x- y-,
        # opposite-sign x- y+ + x+ y-
        row, col = ys.strides
        y_win = as_strided(ys, (n, 2, w + 1), (row, col, row))
        x_win = as_strided(xs[1:], (n, 2, w), (row, col, row))
        wx = np.stack([xs[:n], xs[:n, ::-1]], axis=1) @ y_win
        wy = np.stack([ys[:n], ys[:n, ::-1]], axis=1) @ x_win
        out = np.zeros(2 * h + 1)  # bincount of no weights would be integer
        out += np.bincount(band.low_x, weights=wx.ravel(), minlength=2 * h + 1)
        out += np.bincount(band.low_y, weights=wy.ravel(), minlength=2 * h + 1)

        if band.p0 <= h:
            _add_shifted(out, band, x, y)

        # off the band: the smaller magnitude k is the output magnitude
        xp, xn, yp, yn = x[h + 1 :], x[h - 1 :: -1], y[h + 1 :], y[h - 1 :: -1]
        txp, txn, typ, tyn = (_tail_beyond(v, w) for v in (xp, xn, yp, yn))
        out[h + 1 :] += (xp * typ + xn * tyn) + (yp * txp + yn * txn)
        out[:h][::-1] += (xp * tyn + xn * typ) + (yp * txn + yn * txp)
        out[h] += x[h] * y.sum() + y[h] * xs[:h].sum()
        return Pmf(out, self.delta, self.half)


def channel_pmf(cfg: ChannelConfig) -> Pmf:
    """Quantized N(m_lambda, 2 m_lambda) channel LLR density on the
    default grid.

    Bins below the mean take their mass from CDF differences, bins above
    it from upper-tail (Q) differences: a CDF near 1 would round the
    upper tail's masses to multiples of 2^-53."""
    m = cfg.mean_llr
    sd = math.sqrt(2.0 * m)
    z = ((np.arange(-DEFAULT_HALF_BINS, DEFAULT_HALF_BINS + 2) - 0.5) * DEFAULT_STEP - m) / sd
    cdf, tail = ndtr(z), qfunc(z)
    p = np.where(z[1:] <= 0.0, np.diff(cdf), -np.diff(tail))
    p[0] += cdf[0]
    p[-1] += tail[-1]
    return Pmf(p)


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
) -> DDEResult:
    for name, deg in (("d_v", d_v), ("d_c", d_c)):
        if deg < 2:
            raise ValueError(f"{name} must be at least 2, got {deg}")
    if n_iters < 1:
        raise ValueError(f"n_iters must be at least 1, got {n_iters}")
    if saturation is not None and not saturation > 0:
        raise ValueError("saturation limit must be positive")
    edge = DEFAULT_HALF_BINS * DEFAULT_STEP
    if saturation is not None and saturation >= edge:
        warnings.warn(
            f"saturation {saturation:g} is beyond the grid edge {edge:g}; "
            "the grid boundary acts as the effective clamp",
            stacklevel=2,
        )
    ch = channel_pmf(cfg)
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

