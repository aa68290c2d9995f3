"""Flooding sum-product decoding in the LLR domain, batched over frames.

Check updates run in one of four modes: the reference tanh-product form
(overflow-prone, kept as a reference), an exact pairwise reduction that
cannot overflow, its two-piece linear approximation, and min-sum.  The
last three share one sign/magnitude kernel: a check's sign parity is the
XOR of its inputs' sign bits, and a forward/backward pairwise recursion
runs on magnitudes alone.
Saturation, when enabled, clamps check-node outputs only; variable nodes
and channel LLRs are never clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tanner import ParityCheckMatrix

MODES = ("pairwise", "exact-tanh", "approx", "min-sum")


class NonFiniteMessageError(FloatingPointError):
    """Raised when exact-tanh mode produces inf/nan; the tanh product
    rounds to +-1 once any input magnitude passes ~38.12."""


# tanh(x/2) lands within half an ulp of 1 for x > 55 ln 2 = 38.1230949,
# so a double-precision factor rounds to exactly 1 from there on
_ROUND_EPS = 2.0 ** -54


def _factor_deficit(x):
    """1 - tanh(|x|/2) with double-precision rounding to 1 emulated."""
    ax = np.abs(x)
    with np.errstate(over="ignore"):
        d = 2.0 / (np.exp(ax) + 1.0)
    return np.where(d < _ROUND_EPS, 0.0, d)


# float64 sign bit as an int64 mask
_SIGN = np.int64(-(2**63))


def _corr_exact(x, out):
    """log1p(exp(-|y|)) for x = -|y|."""
    np.exp(x, out=out)
    return np.log1p(out, out=out)


def _corr_approx(x, out):
    """Two-piece fit 0.6 - 0.24|y| (zero from |y| = 2.5 on) for x = -|y|;
    0.6 - 0.24 * 2.5 is exactly 0, and fmax maps nan to the zero piece."""
    np.fmax(x, -2.5, out=out)
    out *= 0.24
    out += 0.6
    return out


def _boxplus(a, b, out, corr, t1, t2):
    """Pairwise check reduction on negated magnitudes (a, b <= 0).

    Writes -(min(|a|,|b|) + L(|a|+|b|) - L(||a|-|b||)) into `out`, which
    may alias `a`; with corr None (min-sum) only the min is kept.  +inf
    magnitudes are neutral: both corrections vanish.
    """
    if corr is None:
        return np.maximum(a, b, out=out)
    np.minimum(a, b, out=t1)
    np.add(a, b, out=t2)
    np.maximum(a, b, out=out)
    np.subtract(t1, out, out=t1)
    if corr is _corr_exact:
        np.fmax(t1, -np.inf, out=t1)  # inf - inf between two neutral inputs
    corr(t2, t2)
    corr(t1, t1)
    np.subtract(t2, t1, out=t2)
    return np.subtract(out, t2, out=out)


def _sgn(x: float) -> float:
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


def _fold(inputs, corr):
    """Scalar pairwise reduction, the batched kernel's recursion in plain floats."""
    acc = math.inf
    for x in inputs:
        x = float(x)
        base = _sgn(acc) * _sgn(x) * min(abs(acc), abs(x))
        if corr is None or math.isinf(acc) or math.isinf(x):
            acc = base
        else:
            acc = base + corr(abs(acc + x)) - corr(abs(acc - x))
    return acc


def _corr_exact_1(x: float) -> float:
    return math.log1p(math.exp(-x)) if x < 745.0 else 0.0


def _corr_approx_1(x: float) -> float:
    return 0.6 - 0.24 * x if x < 2.5 else 0.0


def check_update_pairwise(inputs) -> float:
    """Extrinsic check output via the exact pairwise reduction; finite
    for any finite inputs, single input returned unchanged."""
    return _fold(inputs, _corr_exact_1)


def check_update_approx(inputs) -> float:
    """Pairwise reduction with both correction terms replaced by the
    two-piece linear fit 0.6 - 0.24|x| (zero beyond |x| = 2.5)."""
    return _fold(inputs, _corr_approx_1)


def check_update_minsum(inputs) -> float:
    """Sign-product times minimum magnitude; no correction terms."""
    return _fold(inputs, None)


def check_update_exact(inputs) -> float:
    """Reference tanh-product form 2*atanh(prod tanh(x/2)).

    Factor magnitudes round to exactly 1 beyond |x| = 55 ln 2 = 38.123,
    as in any double-precision tanh product; once every factor rounds,
    the output is non-finite and callers are expected to test for it.
    Below the rounding point the deficit of the magnitude product from 1
    is tracked directly, so no precision is lost near saturation.
    """
    sign = 1.0
    eps = None
    prod = 1.0
    for x in inputs:
        ax = float(x)
        if ax < 0.0:
            sign = -sign
            ax = -ax
        if ax > 45.0:  # deficit already below the rounding point
            d = 0.0
        else:
            d = 2.0 / (math.exp(ax) + 1.0)
            if d < _ROUND_EPS:
                d = 0.0
        eps = d if eps is None else eps + d - eps * d
        prod *= 1.0 - d
    if eps is None:
        raise ValueError("need at least one input message")
    if eps == 0.0:
        return sign * math.inf
    if eps < 0.5:
        return sign * math.log((2.0 - eps) / eps)
    return sign * 2.0 * math.atanh(prod)


_CORR = {"pairwise": _corr_exact, "approx": _corr_approx, "min-sum": None}


@dataclass(frozen=True)
class DecoderConfig:
    mode: str = "pairwise"
    max_iters: int = 200
    saturation: float | None = None
    early_stop: bool = True
    ec_window: int = 12

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.saturation is not None and self.saturation <= 0:
            raise ValueError("saturation limit must be positive")
        if self.max_iters < 1 or self.ec_window < 1:
            raise ValueError("max_iters and ec_window must be at least 1")


class _Layout:
    """Padded gather/scatter index tables for one parity-check matrix.

    Edges are numbered check-major; index `E` (`n` for variables) is a
    sentinel slot, read as the neutral element of the gather (+inf into
    checks, 0 into variable sums and parities).  Gathers skip the
    sentinel when no row is padded.  The variable-side and parity tables
    are held degree-major ([d, n] and [d, m]): gathered that way, the sum
    over a node's inputs adds contiguous rows.
    """

    def __init__(self, H: ParityCheckMatrix):
        dc = H.chk_degrees
        dv = H.var_degrees
        self.E = int(dc.sum())
        self.n = H.n_vars
        self.m = H.n_chks
        self.edge_var = (
            np.concatenate(H.chk_vars).astype(np.int64) if self.E else np.zeros(0, np.int64)
        )
        self.edge_chk = np.repeat(np.arange(self.m, dtype=np.int64), dc)
        # a degree-1 check's extrinsic output is the empty product, +inf
        self.lone_edge = dc[self.edge_chk] == 1
        off = np.concatenate([[0], np.cumsum(dc)])
        dcmax = int(dc.max(initial=1))
        dvmax = int(dv.max(initial=1))
        self.chk_padded = bool((dc < dcmax).any())
        self.var_padded = bool((dv < dvmax).any())
        self.chk_eid = np.full((self.m, dcmax), self.E, dtype=np.int64)
        self.chk_var = np.full((dcmax, self.m), self.n, dtype=np.int64)
        for c in range(self.m):
            self.chk_eid[c, : dc[c]] = np.arange(off[c], off[c + 1])
            self.chk_var[: dc[c], c] = H.chk_vars[c]
        self.chk_valid = self.chk_eid < self.E
        self.var_eid = np.full((dvmax, self.n), self.E, dtype=np.int64)
        fill = np.zeros(self.n, dtype=np.int64)
        for e, v in enumerate(self.edge_var):
            self.var_eid[fill[v], v] = e
            fill[v] += 1


def _layout(H: ParityCheckMatrix) -> _Layout:
    lay = getattr(H, "_decoder_layout", None)
    if lay is None:
        lay = _Layout(H)
        H._decoder_layout = lay
    return lay


def _gather(x, idx, fill, padded: bool):
    """x[:, idx], where index x.shape[1] (the sentinel) reads `fill`."""
    if padded:
        x = np.concatenate([x, np.full((x.shape[0], 1), fill, dtype=x.dtype)], axis=1)
    return np.take(x, idx, axis=1)


class _Workspace:
    """Buffers of the sign/magnitude check pass, sized for `F` frames;
    smaller batches use a contiguous prefix of each."""

    def __init__(self, lay: _Layout, F: int):
        self.dcmax, self.m = lay.chk_eid.shape[1], lay.m
        self.bufs = np.empty((6, self.dcmax * F * self.m))

    def views(self, F: int):
        size = self.dcmax * F * self.m
        return [b[:size].reshape(self.dcmax, F, self.m) for b in self.bufs]


def _tanh_pass(M):
    """Reference tanh-product outputs for gathered inputs [F, m, dcmax]."""
    dcmax = M.shape[2]
    sgn = np.where(M < 0, -1.0, 1.0)  # pads -> +1
    d = _factor_deficit(M)            # pads -> 0 (neutral factor)
    p = 1.0 - d
    ef = np.zeros_like(M)
    eb = np.zeros_like(M)
    sf = np.ones_like(M)
    sb = np.ones_like(M)
    pf = np.ones_like(M)
    pb = np.ones_like(M)
    for k in range(1, dcmax):
        ef[:, :, k] = ef[:, :, k - 1] + d[:, :, k - 1] - ef[:, :, k - 1] * d[:, :, k - 1]
        sf[:, :, k] = sf[:, :, k - 1] * sgn[:, :, k - 1]
        pf[:, :, k] = pf[:, :, k - 1] * p[:, :, k - 1]
    for k in range(dcmax - 2, -1, -1):
        eb[:, :, k] = eb[:, :, k + 1] + d[:, :, k + 1] - eb[:, :, k + 1] * d[:, :, k + 1]
        sb[:, :, k] = sb[:, :, k + 1] * sgn[:, :, k + 1]
        pb[:, :, k] = pb[:, :, k + 1] * p[:, :, k + 1]
    e = ef + eb - ef * eb
    with np.errstate(divide="ignore"):
        # deficit form near saturation, plain product elsewhere
        out = np.where(
            e < 0.5,
            np.log((2.0 - e) / np.where(e > 0.0, e, 1.0)),
            2.0 * np.arctanh(pf * pb),
        )
        return np.where(e > 0.0, out, np.inf) * sf * sb


def _signmag_pass(M, corr, work: _Workspace):
    """Outputs of every non-tanh mode for gathered inputs [F, m, dcmax].

    An output's sign is the XOR of the other inputs' sign bits: the
    check's parity XOR the edge's own.  Its magnitude is the forward/
    backward pairwise recursion of `_boxplus` over negated magnitudes
    -|x|, held position-major ([dcmax, F, m]) so every step runs on
    contiguous rows.  Returns a [F, m, dcmax] view of a workspace buffer.
    """
    F, m, dc = M.shape
    X, fwd, bwd, t1, t2, S = work.views(F)
    S = S.view(np.int64)
    np.copyto(X, M.transpose(2, 0, 1))
    Xb = X.view(np.int64)
    np.bitwise_and(Xb, _SIGN, out=S)
    flip = np.bitwise_xor.reduce(S, axis=0)
    flip ^= _SIGN  # the recursion yields -|out|: flip where the sign is +
    S ^= flip
    Xb |= _SIGN
    with np.errstate(invalid="ignore"):
        if dc > 1:
            fwd[1] = X[0]
            bwd[dc - 2] = X[dc - 1]
        for k in range(2, dc):
            _boxplus(fwd[k - 1], X[k - 1], fwd[k], corr, t1[0], t2[0])
            _boxplus(bwd[dc - k], X[dc - k], bwd[dc - 1 - k], corr, t1[0], t2[0])
        mid = slice(1, dc - 1)
        _boxplus(fwd[mid], bwd[mid], fwd[mid], corr, t1[mid], t2[mid])
    fwd[0] = bwd[0] if dc > 1 else -np.inf
    fwd.view(np.int64)[...] ^= S
    return fwd.transpose(1, 2, 0)


def _check_pass(v2c, lay: _Layout, mode: str, work: _Workspace | None = None) -> np.ndarray:
    """All extrinsic check outputs for a batch; returns [F, E]."""
    F = v2c.shape[0]
    if lay.chk_padded:
        M = _gather(v2c, lay.chk_eid, np.inf, True)  # [F, m, dcmax]
    else:
        M = v2c.reshape(F, lay.m, -1)  # edges are numbered check-major
    if mode == "exact-tanh":
        out = _tanh_pass(M)
    else:
        out = _signmag_pass(M, _CORR[mode], work or _Workspace(lay, F))
    c2v = np.empty((F, lay.E))
    if lay.chk_padded:
        c2v[:, lay.chk_eid[lay.chk_valid]] = out[:, lay.chk_valid]
    else:
        c2v.reshape(M.shape)[...] = out
    return c2v


class CaptureAccumulator:
    """Per-iteration statistics over all frames fed through a decoder.

    Gain uses the messages *entering* the checks at each iteration (the
    previous iteration's variable outputs), raised to d_c - 2; the
    mean/variance track check outputs after saturation.  Both hooks run
    once per iteration on arrays of one shape, so they share one count.
    """

    def __init__(self, d_c: int, n_iters: int):
        self.d_c = int(d_c)
        z = np.zeros(n_iters)
        self._n = z.copy()
        self._tanh_sum = z.copy()
        self._neg_sum = z.copy()
        self._cv_sum = z.copy()
        self._cv_sq = z.copy()

    def pre_check(self, it: int, v2c: np.ndarray) -> None:
        self._n[it] += v2c.size
        self._tanh_sum[it] += np.tanh(v2c / 2.0).sum()
        self._neg_sum[it] += np.count_nonzero(v2c < 0)

    def post_check(self, it: int, c2v: np.ndarray) -> None:
        self._cv_sum[it] += c2v.sum()
        self._cv_sq[it] += (c2v * c2v).sum()

    def results(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-iteration columns (m_ex, var_ex, g_bar, p_e) over the
        iterations that saw frames; a frame reaching an iteration passed
        all earlier ones, so these come first."""
        n = np.count_nonzero(self._n)
        count = self._n[:n]
        mean = self._cv_sum[:n] / count
        var = self._cv_sq[:n] / count - mean * mean
        # scalar (libm) pow: numpy's vectorized power may differ in the last bit
        g_bar = np.array([t ** (self.d_c - 2) for t in self._tanh_sum[:n] / count])
        return mean, var, g_bar, self._neg_sum[:n] / count


@dataclass
class BatchResult:
    hard: np.ndarray        # [F, n] uint8
    converged: np.ndarray   # [F] bool
    iterations: np.ndarray  # [F] int32
    failed: np.ndarray      # [F, n] bool, not eventually correct
    soft: np.ndarray        # [F, n] float, soft values at exit
    state_v2c: np.ndarray | None = None  # [F, E] messages after the last iteration


def _unclamped_v2c(soft, c2v, ch, lay: _Layout) -> np.ndarray:
    """Variable-to-check messages soft - c2v when check outputs are not
    clamped.  A degree-1 check sends +inf, which degree-2 checks pass on;
    on such an edge soft - c2v would be inf - inf, so the message there is
    the channel value plus the variable's other inputs (+inf when one of
    them is infinite too).  Channel values are finite and a check output
    is infinite only when all its other inputs are, so every infinite
    output is +inf."""
    inf = np.isinf(c2v)
    if not inf.any():
        return np.take(soft, lay.edge_var, axis=1) - c2v
    fin = np.where(inf, 0.0, c2v)
    v2c = np.take(soft, lay.edge_var, axis=1) - fin
    rest = ch + _gather(fin, lay.var_eid, 0.0, lay.var_padded).sum(axis=1)
    n_inf = _gather(inf, lay.var_eid, False, lay.var_padded).sum(axis=1)
    others = np.where(n_inf > 1, np.inf, rest)
    v2c[inf] = np.take(others, lay.edge_var, axis=1)[inf]
    return v2c


def _fixed_rows(soft, prev_soft, v2c, prev_v2c) -> np.ndarray:
    """Rows whose messages repeat the previous iteration's bit for bit.

    Bit patterns, not `==`: -0.0 and +0.0 compare equal but carry
    different sign bits into the check kernel.  Only rows whose soft
    values also repeat (an [F, n] compare) get the [F, E] message compare;
    a row whose messages repeat has equal soft values one iteration later.
    """
    same = (soft.view(np.int64) == prev_soft.view(np.int64)).all(axis=1)
    rows = np.flatnonzero(same)
    if rows.size:
        same[rows] = (v2c[rows].view(np.int64) == prev_v2c[rows].view(np.int64)).all(axis=1)
    return same


def decode_batch(
    H: ParityCheckMatrix,
    llrs: np.ndarray,
    cfg: DecoderConfig,
    capture: CaptureAccumulator | None = None,
    init_v2c: np.ndarray | None = None,
    return_state: bool = False,
) -> BatchResult:
    """Decode many frames at once; frames that satisfy all checks leave
    the batch early unless a capture hook or `return_state` needs every
    iteration.

    Under the same condition a frame whose messages repeat the previous
    iteration's bit for bit (a decoder locked on a trapping set) leaves
    too: every later iteration would repeat that one, so its outputs are
    those of the full `cfg.max_iters` run, not converged.

    The all-zero word is the transmitted one.  A non-converged frame's
    failed set (not eventually correct) collects symbols wrong anywhere
    in the trailing `cfg.ec_window` iterations, a converged frame's the
    symbols wrong at exit.
    """
    llrs = np.atleast_2d(np.asarray(llrs, dtype=float))
    F, n = llrs.shape
    if n != H.n_vars:
        raise ValueError("LLR width does not match the code length")
    lay = _layout(H)

    early = cfg.early_stop and capture is None and not return_state

    hard_out = np.zeros((F, n), dtype=np.uint8)
    conv_out = np.zeros(F, dtype=bool)
    iters_out = np.zeros(F, dtype=np.int32)
    failed_out = np.zeros((F, n), dtype=bool)
    soft_out = np.zeros((F, n))

    idx = np.arange(F)
    ch = llrs
    v2c = ch[:, lay.edge_var].copy() if init_v2c is None else np.array(init_v2c, dtype=float)
    last_wrong = np.zeros((F, n), dtype=np.int32)
    first_conv = np.zeros(F, dtype=np.int32)
    work = _Workspace(lay, F)

    sat = cfg.saturation
    lo = max(cfg.max_iters - cfg.ec_window + 1, 1)  # start of the trailing window
    soft = None
    for it in range(1, cfg.max_iters + 1):
        if capture is not None:
            capture.pre_check(it - 1, v2c)
        c2v = _check_pass(v2c, lay, cfg.mode, work)
        if cfg.mode == "exact-tanh":
            bad = ~np.isfinite(c2v)
            bad[:, lay.lone_edge] = False  # the neutral +inf, not an overflow
            if bad.any():
                raise NonFiniteMessageError(
                    f"non-finite check output at iteration {it}; "
                    "inputs exceeded the tanh-product range"
                )
        if sat is not None:
            np.clip(c2v, -sat, sat, out=c2v)
        if capture is not None:
            capture.post_check(it - 1, c2v)

        prev_soft, prev_v2c = soft, v2c
        soft = ch + _gather(c2v, lay.var_eid, 0.0, lay.var_padded).sum(axis=1)
        if sat is None:
            v2c = _unclamped_v2c(soft, c2v, ch, lay)
        else:
            v2c = np.take(soft, lay.edge_var, axis=1) - c2v
        stuck = _fixed_rows(soft, prev_soft, v2c, prev_v2c) if early and it > 1 else None
        del prev_soft, prev_v2c  # only the compare needs them

        wrong = soft < 0
        hard = wrong.astype(np.uint8)
        np.maximum(last_wrong, np.multiply(wrong, it, dtype=np.int32), out=last_wrong)

        parity = np.bitwise_xor.reduce(_gather(hard, lay.chk_var, 0, lay.chk_padded), axis=1)
        conv_now = ~parity.any(axis=1)
        np.copyto(first_conv, it, where=(first_conv == 0) & conv_now)

        if it == cfg.max_iters:
            done = np.ones(idx.size, dtype=bool)
        elif early:
            done = conv_now if stuck is None else conv_now | stuck
        else:
            continue
        if done.any():
            # a stuck frame repeats this iteration up to max_iters: its
            # outputs are the full run's, with every wrong symbol still
            # wrong at the last iteration
            rows = np.flatnonzero(done)
            conv = conv_now[rows]
            gd = idx[rows]
            hard_out[gd] = hard[rows]
            soft_out[gd] = soft[rows]
            conv_out[gd] = conv
            iters_out[gd] = np.where(first_conv[rows] > 0, first_conv[rows], cfg.max_iters)
            failed_out[gd] = wrong[rows] | (~conv[:, None] & (last_wrong[rows] >= lo))
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                break
            idx = idx[keep]
            ch = ch[keep]
            v2c = v2c[keep]
            soft = soft[keep]
            last_wrong = last_wrong[keep]
            first_conv = first_conv[keep]

    return BatchResult(hard_out, conv_out, iters_out, failed_out, soft_out,
                       v2c if return_state else None)

