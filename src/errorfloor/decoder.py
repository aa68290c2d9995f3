"""Flooding sum-product decoding in the LLR domain, batched over frames.

Check updates run in one of four modes: the reference tanh-product form
(overflow-prone, kept as a reference), an exact pairwise reduction that
cannot overflow, its two-piece linear approximation, and min-sum.  All
four share one sign/magnitude kernel: a check's sign parity is the XOR
of its inputs' sign bits, and a forward/backward pairwise recursion runs
on magnitudes alone.  The exact reduction runs it on t = exp(-|x|),
where a pair step is (t_a + t_b) / (1 + t_a t_b) (Hagenauer, Offer and
Papke 1996): one exp per input, one log per output.  A frame with a
finite input magnitude above 700, where exp loses precision, runs it in
the log domain, so no input magnitude overflows.  The tanh product is
the same t-domain recursion with every input whose tanh factor rounds
to 1 (t < 2^-55) taken as the neutral t = 0.
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
    """Raised when an exact-tanh check output is inf or nan: a tanh
    factor rounds to +-1 once its input magnitude passes ~38.12, and an
    output whose other inputs all rounded is +-inf."""


# tanh(x/2) lands within half an ulp of 1 for x > 55 ln 2 = 38.1230949,
# so a double-precision factor rounds to exactly 1 from there on: its
# deficit 1 - tanh(x/2) falls below 2^-54, and t = exp(-x) below 2^-55
_ROUND_EPS = 2.0 ** -54


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
    magnitudes are neutral: both corrections vanish.  The clamp at 0 keeps
    a result of magnitudes ~1e-16 that rounds above 0 from outliving a
    later exact-zero input.
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
    np.subtract(out, t2, out=out)
    return np.minimum(out, 0.0, out=out)


def _tplus(a, b, out, corr, t1, t2):
    """(a + b) / (1 + ab) into `out` (may alias `a`) on t = exp(-|x|); t = 0
    is neutral.  It stays <= 1 in float64: for a >= b, a + b - 1 <= ab is a
    multiple of ulp(b), so 1 + fl(ab) >= a + b."""
    np.multiply(a, b, out=t1)
    t1 += 1.0
    np.add(a, b, out=out)
    return np.divide(out, t1, out=out)


# exp(-|x|) stays a normal float64 up to |x| ~ 708 and underflows near 745
_T_MAX = 700.0


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


# per mode: the pair step, the correction of `_boxplus` (for a t-domain
# rule, that of its log-domain fallback past _T_MAX; None for min-sum,
# and for the tanh rule, which needs no fallback: its floor makes every
# input past 38.12 the neutral t = 0) and the t below which an input is
# taken as t = 0
_RULES = {
    "pairwise": (_tplus, _corr_exact, 0.0),
    "exact-tanh": (_tplus, None, 2.0 ** -55),
    "approx": (_boxplus, _corr_approx, 0.0),
    "min-sum": (_boxplus, None, 0.0),
}


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
        if self.saturation is not None and not self.saturation > 0:
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


# bytes of one [dcmax, rows, m] float64 buffer of the check pass: 128
# rows of an n = 256 (3,6) code, whose six buffers (4.5 MiB) ran faster
# than blocks of 32, 64, 256 or all 1,024 rows on a Xeon with 2 MiB of
# L2 per core
_BLOCK_BYTES = 768 * 1024


def _block_rows(lay: _Layout) -> int:
    """Rows of the decoder's frame pool: the byte budget over one row's
    check-pass buffer."""
    return max(1, _BLOCK_BYTES // (8 * lay.chk_eid.shape[1] * lay.m))


class _Workspace:
    """Buffers of the sign/magnitude check pass, sized for `F` frames;
    smaller blocks use a contiguous prefix of each."""

    def __init__(self, lay: _Layout, F: int):
        self.dcmax, self.m = lay.chk_eid.shape[1], lay.m
        self.bufs = np.empty((6, self.dcmax * F * self.m))

    def views(self, F: int):
        size = self.dcmax * F * self.m
        return [b[:size].reshape(self.dcmax, F, self.m) for b in self.bufs]


def _recursion(X, fwd, bwd, t1, t2, step, corr, neutral):
    """Forward/backward pass of `step` over inputs X [dcmax, F, m]; fwd
    ends up holding each position's combination of all the others."""
    dc = X.shape[0]
    if dc > 1:
        fwd[1] = X[0]
        bwd[dc - 2] = X[dc - 1]
    for k in range(2, dc):
        step(fwd[k - 1], X[k - 1], fwd[k], corr, t1[0], t2[0])
        step(bwd[dc - k], X[dc - k], bwd[dc - 1 - k], corr, t1[0], t2[0])
    mid = slice(1, dc - 1)
    step(fwd[mid], bwd[mid], fwd[mid], corr, t1[mid], t2[mid])
    fwd[0] = bwd[0] if dc > 1 else neutral


def _log_rows(X):
    """Rows (frames) of X [dcmax, F, m] with a finite magnitude above
    `_T_MAX`; -inf (t = 0) is neutral in both domains, so it does not
    count."""
    return np.flatnonzero(((X < -_T_MAX) & (X > -np.inf)).any(axis=(0, 2)))


def _signmag_pass(M, v2c, mode: str, work: _Workspace):
    """Outputs of every mode for inputs M [F, m, dcmax] gathered from the
    block v2c.

    An output's sign is the XOR of the other inputs' sign bits: the
    check's parity XOR the edge's own.  Its magnitude is the forward/
    backward recursion of the mode's pair step, held position-major
    ([dcmax, F, m]) so every step runs on contiguous rows: `_boxplus`
    over negated magnitudes -|x|, or `_tplus` over their exps, each t
    below the mode's floor taken as 0.  The exact mode runs a row with a
    finite magnitude above `_T_MAX` in the log domain, so a row's path
    depends on its own inputs alone.  Returns a [F, m, dcmax] view of a
    workspace buffer.
    """
    step, corr, floor = _RULES[mode]
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
    # a t-domain rule with a correction falls back to it; the block's
    # largest magnitude spares most blocks the row scan.  Gathered padding
    # reads -inf in X, so a padded block takes it from the un-gathered v2c
    # (two passes, where X takes one)
    log_rows = np.zeros(0, dtype=np.intp)
    if step is not _boxplus and corr is not None:
        if M.size > v2c.size:
            peak = max(-v2c.min(initial=0.0), v2c.max(initial=0.0))
        else:
            peak = -X.min(initial=0.0)
        if peak > _T_MAX:
            log_rows = _log_rows(X)
    with np.errstate(invalid="ignore", divide="ignore"):  # log(t = 0) = -inf
        if step is _boxplus or log_rows.size == F:
            _recursion(X, fwd, bwd, t1, t2, _boxplus, corr, -np.inf)
        else:
            # rows past _T_MAX run in the log domain on a copy; the t
            # domain runs on the whole block and their results replace
            # its own
            if log_rows.size:
                X_log = X[:, log_rows]
                fwd_log, *bufs = np.empty((4, *X_log.shape))
                _recursion(X_log, fwd_log, *bufs, _boxplus, corr, -np.inf)
            np.exp(X, out=X)
            if floor:
                np.copyto(X, 0.0, where=X < floor)
            _recursion(X, fwd, bwd, t1, t2, step, corr, 0.0)
            np.log(fwd, out=fwd)
            if log_rows.size:
                fwd[:, log_rows] = fwd_log
    fwd.view(np.int64)[...] ^= S
    return fwd.transpose(1, 2, 0)


def _check_pass(v2c, lay: _Layout, mode: str, work: _Workspace) -> np.ndarray:
    """All extrinsic check outputs for F rows of messages; returns [F, E].
    `work` holds at least F rows."""
    if lay.chk_padded:
        M = _gather(v2c, lay.chk_eid, np.inf, True)  # [F, m, dcmax]
    else:
        M = v2c.reshape(-1, lay.m, lay.chk_eid.shape[1])  # edges are numbered check-major
    out = _signmag_pass(M, v2c, mode, work)
    c2v = np.empty((v2c.shape[0], lay.E))
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


def _unclamped_v2c(soft, c2v, ch, lay: _Layout, out) -> np.ndarray:
    """Writes the variable-to-check messages soft - c2v into `out` when
    check outputs are not clamped.  A degree-1 check sends +inf, which
    degree-2 checks pass on; on such an edge soft - c2v would be inf - inf,
    so the message there is the channel value plus the variable's other
    inputs (+inf when one of them is infinite too).  Channel values are
    finite and a check output is infinite only when all its other inputs
    are, so every infinite output is +inf."""
    np.take(soft, lay.edge_var, axis=1, out=out, mode="clip")
    inf = np.isinf(c2v)
    if not inf.any():
        return np.subtract(out, c2v, out=out)
    fin = np.where(inf, 0.0, c2v)
    np.subtract(out, fin, out=out)
    rest = ch + _gather(fin, lay.var_eid, 0.0, lay.var_padded).sum(axis=1)
    n_inf = _gather(inf, lay.var_eid, False, lay.var_padded).sum(axis=1)
    others = np.where(n_inf > 1, np.inf, rest)
    out[inf] = np.take(others, lay.edge_var, axis=1)[inf]
    return out


def _fixed_rows(x, prev) -> np.ndarray:
    """Rows of `x` that repeat `prev` bit for bit.

    Bit patterns, not `==`: -0.0 and +0.0 compare equal but carry
    different sign bits into the check kernel.
    """
    return (x.view(np.int64) == prev.view(np.int64)).all(axis=1)


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

    Frames run through a pool of `_block_rows` rows, each at its own
    iteration.  A pass runs one iteration on every row: check pass,
    clamp, variable pass, fixed-point compare, hard decisions and
    parity.  A frame that leaves writes its outputs and the next waiting
    frame takes its row; once none waits, the pool shrinks.  Every step
    is row-wise, so no output depends on the pool, and the decoder's
    state is pool-sized whatever the batch size F: only the outputs grow
    with F.  A capture hook pools the whole batch in lockstep, so it sums
    in one order.  `llrs` must be finite and `init_v2c` [F, E] free of
    nan (+inf, as in an unclamped state, is allowed); neither is written.
    """
    llrs = np.atleast_2d(np.asarray(llrs, dtype=float))
    F, n = llrs.shape
    if n != H.n_vars:
        raise ValueError("LLR width does not match the code length")
    if not np.isfinite(llrs).all():
        raise ValueError("llrs must be finite")
    lay = _layout(H)
    if init_v2c is not None:
        init_v2c = np.asarray(init_v2c, dtype=float)
        if init_v2c.shape != (F, lay.E):
            raise ValueError(f"init_v2c is {init_v2c.shape}, not [frames, edges] {(F, lay.E)}")
        if np.isnan(init_v2c).any():
            raise ValueError("init_v2c holds nan")

    early = cfg.early_stop and capture is None and not return_state

    hard_out = np.zeros((F, n), dtype=np.uint8)
    conv_out = np.zeros(F, dtype=bool)
    iters_out = np.zeros(F, dtype=np.int32)
    failed_out = np.zeros((F, n), dtype=bool)
    soft_out = np.zeros((F, n))
    state_out = np.empty((F, lay.E)) if return_state else None

    # pool row r decodes frame idx[r], which has run age[r] iterations
    P = F if capture is not None else min(F, _block_rows(lay))
    idx = np.empty(P, dtype=np.intp)
    ch = np.empty((P, n))
    v2c = np.empty((P, lay.E))
    soft = np.empty((P, n))  # the previous pass's soft values
    last_wrong = np.empty((P, n), dtype=np.int32)
    first_conv = np.empty(P, dtype=np.int32)
    age = np.empty(P, dtype=np.int32)
    work = _Workspace(lay, P)
    free = np.arange(P)  # rows to fill: every row at first, then those whose frame left
    waiting = 0  # the next frame to enter

    sat = cfg.saturation
    lo = max(cfg.max_iters - cfg.ec_window + 1, 1)  # start of the trailing window
    while True:
        k = min(free.size, F - waiting)
        if k:
            fill, frames = free[:k], np.arange(waiting, waiting + k)
            waiting += k
            idx[fill] = frames
            ch[fill] = llrs[frames]
            v2c[fill] = (np.take(ch[fill], lay.edge_var, axis=1) if init_v2c is None
                         else init_v2c[frames])
            for a in (last_wrong, first_conv, age):
                a[fill] = 0
        if k < free.size:  # no frame waits: the pool shrinks
            keep = np.ones(idx.size, dtype=bool)
            keep[free[k:]] = False
            idx, ch, v2c, soft, last_wrong, first_conv, age = (
                a[keep] for a in (idx, ch, v2c, soft, last_wrong, first_conv, age))
        if not idx.size:
            break

        age += 1
        if capture is not None:
            capture.pre_check(age[0] - 1, v2c)
        c2v = _check_pass(v2c, lay, cfg.mode, work)
        if cfg.mode == "exact-tanh":
            bad = ~np.isfinite(c2v)
            bad[:, lay.lone_edge] = False  # the neutral +inf, not an overflow
            if bad.any():
                r = bad.any(axis=1).argmax()
                raise NonFiniteMessageError(
                    f"non-finite check output in frame {idx[r]} at its iteration {age[r]}; "
                    "inputs exceeded the tanh-product range")
        if sat is not None:
            np.clip(c2v, -sat, sat, out=c2v)
        if capture is not None:
            capture.post_check(age[0] - 1, c2v)

        s = ch + _gather(c2v, lay.var_eid, 0.0, lay.var_padded).sum(axis=1)
        # a row whose messages repeat has equal soft values one iteration
        # later, so only those rows compare messages
        if early:
            cand = np.flatnonzero((age > 1) & _fixed_rows(s, soft))
            old = v2c[cand]
        if sat is None:
            _unclamped_v2c(s, c2v, ch, lay, v2c)
        else:
            np.take(s, lay.edge_var, axis=1, out=v2c, mode="clip")
            np.subtract(v2c, c2v, out=v2c)
        soft = s

        wrong = s < 0
        np.maximum(last_wrong, np.multiply(wrong, age[:, None], dtype=np.int32), out=last_wrong)
        bits = _gather(wrong.view(np.uint8), lay.chk_var, 0, lay.chk_padded)
        conv = ~np.bitwise_xor.reduce(bits, axis=1).any(axis=1)
        np.copyto(first_conv, age, where=(first_conv == 0) & conv)

        leave = age == cfg.max_iters
        if early:
            leave |= conv
            leave[cand[_fixed_rows(v2c[cand], old)]] = True
        free = np.flatnonzero(leave)
        # a stuck frame repeats this iteration up to max_iters: its outputs are
        # the full run's, with every wrong symbol still wrong at the last one
        gd = idx[free]
        hard_out[gd] = wrong[free]
        soft_out[gd] = s[free]
        conv_out[gd] = conv[free]
        iters_out[gd] = np.where(first_conv[free] > 0, first_conv[free], cfg.max_iters)
        failed_out[gd] = wrong[free] | (~conv[free, None] & (last_wrong[free] >= lo))
        if return_state:
            state_out[gd] = v2c[free]

    return BatchResult(hard_out, conv_out, iters_out, failed_out, soft_out, state_out)
