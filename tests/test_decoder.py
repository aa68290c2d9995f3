"""Check-node update rules and the batch message-passing decoder."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from errorfloor.channel import ChannelConfig, frame_rng, sample_llrs
from errorfloor.cli import main
import errorfloor.decoder as decoder_mod
import errorfloor.simharness as simharness_mod
from errorfloor.decoder import (
    BatchResult,
    CaptureAccumulator,
    DecoderConfig,
    NonFiniteMessageError,
    _check_pass,
    _fixed_rows,
    _gather,
    _layout,
    _unclamped_v2c,
    _Workspace,
    _block_rows,
    check_update_approx,
    check_update_exact,
    check_update_minsum,
    check_update_pairwise,
    decode_batch,
)
from errorfloor.simharness import _rotated_noise
from errorfloor.tanner import ParityCheckMatrix, random_regular_code, save_alist

finite_llrs = st.lists(
    st.floats(-30, 30).filter(lambda x: abs(x) > 1e-3), min_size=2, max_size=8
)


@given(finite_llrs)
def test_pairwise_matches_exact(msgs):
    assert check_update_pairwise(msgs) == pytest.approx(
        check_update_exact(msgs), abs=1e-9
    )


@given(finite_llrs)
def test_minsum_is_sign_times_min(msgs):
    want = np.prod(np.sign(msgs)) * np.min(np.abs(msgs))
    assert check_update_minsum(msgs) == pytest.approx(want, rel=1e-15)


@given(finite_llrs)
def test_pairwise_magnitude_and_sign(msgs):
    out = check_update_pairwise(msgs)
    assert abs(out) <= np.min(np.abs(msgs)) + 1e-12
    if out != 0.0:
        assert math.copysign(1, out) == np.prod(np.sign(msgs))


@given(finite_llrs, st.randoms())
def test_pairwise_permutation_invariant(msgs, rnd):
    shuffled = list(msgs)
    rnd.shuffle(shuffled)
    assert check_update_pairwise(shuffled) == pytest.approx(
        check_update_pairwise(msgs), abs=1e-9
    )


@given(finite_llrs)
def test_approx_tracks_pairwise(msgs):
    # two linear-fit corrections, each within 0.07 of the true term
    err = abs(check_update_approx(msgs) - check_update_pairwise(msgs))
    assert err < 0.15 * (len(msgs) - 1)


def test_single_input_passthrough():
    for f in (check_update_pairwise, check_update_approx, check_update_minsum):
        assert f([3.7]) == pytest.approx(3.7)
        assert f([-0.2]) == pytest.approx(-0.2)


def test_pairwise_huge_inputs_stay_finite():
    out = check_update_pairwise([1e300, -1e300, 1e300])
    assert math.isfinite(out)
    assert out == pytest.approx(-1e300, rel=1e-12)  # odd negative count
    assert math.isfinite(check_update_pairwise([1e300, 0.5]))


def test_exact_tanh_rounds_to_non_finite():
    assert not math.isfinite(check_update_exact([38.13, 38.13]))
    assert math.isfinite(check_update_exact([37.4, 37.4]))


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(mode="bogus")
    with pytest.raises(ValueError):
        DecoderConfig(saturation=-1.0)


@pytest.mark.parametrize("kw", [{"max_iters": 0}, {"max_iters": -3}, {"ec_window": 0}])
def test_decoder_config_rejects_empty_iteration_counts(kw):
    # max_iters = 0 used to end in UnboundLocalError; ec_window = 0 gave
    # non-converged frames empty failed sets, so they counted as successes
    with pytest.raises(ValueError, match="at least 1"):
        DecoderConfig(**kw)
    assert DecoderConfig(max_iters=1, ec_window=1).max_iters == 1


@pytest.fixture(scope="module")
def code():
    return random_regular_code(48, 3, 6, seed=3)


def clean_llrs(code, cfg, n_frames, seed=0):
    return sample_llrs(cfg, frame_rng(seed, 0), (n_frames, code.n_vars))


def decode_one(H, llr, cfg):
    """decode_batch on a one-frame batch."""
    return decode_batch(H, np.asarray(llr, dtype=float)[None, :], cfg)


def test_decode_noiseless(code):
    llr = np.full(code.n_vars, 5.0)
    res = decode_one(code, llr, DecoderConfig(max_iters=10))
    assert res.converged[0] and res.iterations[0] == 1
    assert not res.hard.any()
    assert not res.failed.any()
    assert np.all(res.soft > 0)


def test_decode_corrects_single_flip(code):
    llr = np.full(code.n_vars, 5.0)
    llr[7] = -5.0
    res = decode_one(code, llr, DecoderConfig(max_iters=20))
    assert res.converged[0] and not res.hard.any()


def test_batch_agrees_with_single(code):
    cfg = ChannelConfig(2.0, 0.5)
    dec = DecoderConfig(max_iters=30, saturation=25.0)
    llrs = clean_llrs(code, cfg, 32, seed=5)
    batch = decode_batch(code, llrs, dec)
    for i in range(32):
        one = decode_one(code, llrs[i], dec)
        assert one.converged[0] == batch.converged[i]
        assert np.array_equal(one.hard[0], batch.hard[i])
        assert np.array_equal(one.failed[0], batch.failed[i])


def test_early_stop_only_reorders_exit(code):
    cfg = ChannelConfig(2.0, 0.5)
    llrs = clean_llrs(code, cfg, 64, seed=6)
    a = decode_batch(code, llrs, DecoderConfig(max_iters=25, early_stop=True))
    b = decode_batch(code, llrs, DecoderConfig(max_iters=25, early_stop=False))
    conv = a.converged & b.converged
    assert np.array_equal(a.converged, b.converged)
    assert np.array_equal(a.hard[conv], b.hard[conv])


def test_saturation_bounds_corrections(code):
    cfg = ChannelConfig(2.0, 0.5)
    llrs = clean_llrs(code, cfg, 16, seed=7)
    sat = 4.0
    dec = DecoderConfig(max_iters=8, saturation=sat, early_stop=False)
    for i in range(16):
        soft = decode_one(code, llrs[i], dec).soft[0]
        assert np.all(np.abs(soft - llrs[i]) <= 3 * sat + 1e-9)


def test_state_round_trip_composes(code):
    cfg = ChannelConfig(2.0, 0.5)
    llrs = clean_llrs(code, cfg, 24, seed=8)
    mk = lambda iters: DecoderConfig(max_iters=iters, early_stop=False, saturation=25.0)
    pre = decode_batch(code, llrs, mk(3), return_state=True)
    assert pre.state_v2c.shape == (24, code.n_edges)
    resumed = decode_batch(code, llrs, mk(2), init_v2c=pre.state_v2c)
    straight = decode_batch(code, llrs, mk(5))
    assert np.array_equal(resumed.hard, straight.hard)
    assert np.array_equal(resumed.converged, straight.converged)


def test_exact_tanh_overflow_raises(code):
    llrs = np.full((2, code.n_vars), 50.0)
    dec = DecoderConfig(mode="exact-tanh", max_iters=3)
    with pytest.raises(NonFiniteMessageError):
        decode_batch(code, llrs, dec)
    # pairwise shrugs at the same input
    res = decode_batch(code, llrs, DecoderConfig(max_iters=3))
    assert res.converged.all()


@pytest.mark.parametrize("sat", [25.0, None])
def test_exact_tanh_passes_degree_one_checks(sat):
    # a degree-1 check's output is the empty product, +inf: exact-tanh used
    # to take it for an overflow and raise at iteration 1
    H = ParityCheckMatrix([[0], [0, 1, 2], [1, 2, 3], [2, 3, 0]], 4)
    llrs = np.full((3, 4), 5.0)
    llrs[1, 3] = -1.0
    llrs[2, 2] = -0.5
    want = decode_batch(H, llrs, DecoderConfig(max_iters=10, saturation=sat))
    got = decode_batch(H, llrs, DecoderConfig(mode="exact-tanh", max_iters=10, saturation=sat))
    assert np.array_equal(got.converged, want.converged)
    assert np.array_equal(got.hard, want.hard)


def test_llr_width_checked(code):
    with pytest.raises(ValueError):
        decode_batch(code, np.zeros((2, code.n_vars + 1)), DecoderConfig())


@settings(deadline=None, max_examples=10)
@given(st.sampled_from(["pairwise", "approx", "min-sum"]), st.integers(0, 1000))
def test_modes_decode_clean_frames(mode, seed):
    code = random_regular_code(36, 3, 6, seed=2)
    llr = np.full(code.n_vars, 8.0)
    llr[seed % code.n_vars] = 0.5
    res = decode_one(code, llr, DecoderConfig(mode=mode, max_iters=10))
    assert res.converged[0] and not res.hard.any()


def test_run_capture_lengths(code):
    cfg = ChannelConfig(2.8, 0.5)
    dec = DecoderConfig(max_iters=6, saturation=25.0)
    cap = CaptureAccumulator(6, dec.max_iters)
    decode_batch(code, clean_llrs(code, cfg, 50, seed=9), dec, capture=cap)
    m_ex, var_ex, g_bar, p_e = cap.results()
    assert all(len(col) == 6 for col in (m_ex, var_ex, g_bar, p_e))
    assert np.all((0.0 <= g_bar) & (g_bar <= 1.0))
    assert np.all(var_ex >= 0.0)
    # means grow as decoding cleans up the frames
    assert m_ex[-1] > m_ex[0]


# --- the former signed fwd/bwd check pass, kept as the kernel's oracle ---

def _oracle_corr_exact(apb, amb):
    with np.errstate(invalid="ignore"):
        return np.log1p(np.exp(-apb)) - np.log1p(np.exp(-amb))


def _oracle_corr_approx(apb, amb):
    def piece(x):
        return np.where(x < 2.5, 0.6 - 0.24 * x, 0.0)

    return piece(apb) - piece(amb)


_ORACLE_CORR = {"pairwise": _oracle_corr_exact, "approx": _oracle_corr_approx, "min-sum": None}


def _oracle_pair_reduce(a, b, corr):
    """sign(a)sign(b)min(|a|,|b|) + corr(|a+b|, |a-b|); infinite
    arguments act as neutral elements (corrections vanish).  A sum whose
    sign rounds away from the base's is 0, as the kernel clamps it."""
    base = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    if corr is None:
        return base
    with np.errstate(invalid="ignore"):
        apb = np.abs(a + b)
        amb = np.abs(a - b)
    c = corr(apb, amb)
    inf_mask = np.isinf(a) | np.isinf(b)
    if inf_mask.any():
        c = np.where(inf_mask, 0.0, c)
    out = base + c
    return np.where(np.sign(out) * np.sign(base) < 0, 0.0, out)


def _oracle_log_check_pass(v2c, lay, mode):
    F = v2c.shape[0]
    ext = np.concatenate([v2c, np.full((F, 1), np.inf)], axis=1)
    M = ext[:, lay.chk_eid]
    corr = _ORACLE_CORR[mode]
    fwd = np.full_like(M, np.inf)
    bwd = np.full_like(M, np.inf)
    for k in range(1, M.shape[2]):
        fwd[:, :, k] = _oracle_pair_reduce(fwd[:, :, k - 1], M[:, :, k - 1], corr)
    for k in range(M.shape[2] - 2, -1, -1):
        bwd[:, :, k] = _oracle_pair_reduce(bwd[:, :, k + 1], M[:, :, k + 1], corr)
    out = _oracle_pair_reduce(fwd, bwd, corr)
    c2v = np.empty((F, lay.E))
    c2v[:, lay.chk_eid[lay.chk_valid]] = out[:, lay.chk_valid]
    return c2v


# --- the t-domain recursion of the exact mode, kept as its oracle ---

def _t_pair(a, b):
    """The exact pair step on t = exp(-|x|); plain IEEE arithmetic, so a
    float and an array of rows give the same bits."""
    return (a + b) / (1.0 + a * b)


def _t_fold(ts):
    """Pair steps over `ts` in order, from the neutral t = 0."""
    acc = 0.0
    for t in ts:
        acc = _t_pair(acc, t)
    return acc


def _t_llr(t, neg):
    """Check outputs from combined t: magnitude -log(t), negative where
    `neg`.  numpy's log (and exp below), as in the kernel."""
    with np.errstate(divide="ignore"):
        mag = np.log(t)  # <= 0; +0.0 at t = 1
    return np.where(neg, mag, -mag)


def _t_check_update(msgs) -> float:
    """Scalar t-domain check output for inputs `msgs`."""
    x = np.asarray(msgs, dtype=float)
    t = _t_fold(np.exp(-np.abs(x)).tolist())
    return float(_t_llr(np.array(t), np.signbit(x).sum() % 2 == 1))


# t = exp(-|x|) below which the tanh rule's factor tanh(|x|/2) rounds to 1
_TANH_FLOOR = 2.0 ** -55


def _oracle_t_check_pass(v2c, lay, floor=0.0):
    """Every edge's output as the batched kernel forms it: the forward
    fold of the inputs before it combined with the backward fold of
    those after it (t = 0 pads are exact no-ops, so real inputs only);
    each t below `floor` is taken as 0."""
    c2v = np.empty_like(v2c)
    for c in range(lay.m):
        eids = lay.chk_eid[c, lay.chk_valid[c]]
        x = v2c[:, eids]
        t = np.exp(-np.abs(x))
        t = list(np.where(t < floor, 0.0, t).T)
        tout = np.empty_like(x)
        for k in range(len(t)):
            tout[:, k] = _t_pair(_t_fold(t[:k]), _t_fold(t[:k:-1]))
        sb = np.signbit(x)
        c2v[:, eids] = _t_llr(tout, (sb.sum(axis=1, keepdims=True) - sb) % 2 == 1)
    return c2v


def _t_domain_rows(v2c, mode):
    """The kernel's per-row choice: the exact mode runs a frame in t
    unless one of its finite input magnitudes exceeds 700, the tanh
    rule every frame."""
    if mode == "exact-tanh":
        return np.ones(len(v2c), dtype=bool)
    huge = ((np.abs(v2c) > 700.0) & np.isfinite(v2c)).any(axis=1)
    return ~huge if mode == "pairwise" else np.zeros(len(v2c), dtype=bool)


def _oracle_check_pass(v2c, lay, mode):
    """The check pass of one row block, each row in its own domain."""
    t = _t_domain_rows(v2c, mode)
    c2v = np.empty_like(v2c)
    c2v[t] = _oracle_t_check_pass(v2c[t], lay, _TANH_FLOOR if mode == "exact-tanh" else 0.0)
    if not t.all():
        c2v[~t] = _oracle_log_check_pass(v2c[~t], lay, mode)
    return c2v


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_t_pair_stays_at_most_one(a, b):
    # the kernel takes log(t) as a negated magnitude without a cap at 1
    assert _t_pair(a, b) <= 1.0


@given(st.lists(st.floats(-700, 700), min_size=2, max_size=9))
def test_t_fold_tracks_pairwise(msgs):
    # criterion 1's tolerance, up to the largest magnitude the t domain takes
    assert _t_check_update(msgs) == pytest.approx(check_update_pairwise(msgs), abs=1e-9)


def _oracle_soft(H, llr, cfg):
    """The former second decode that a single-frame decode ran for its
    soft output."""
    lay = _layout(H)
    v2c = llr[None, lay.edge_var].copy()
    soft = llr[None, :].copy()
    for _ in range(cfg.max_iters):
        c2v = _oracle_check_pass(v2c, lay, cfg.mode)
        if cfg.saturation is not None:
            np.clip(c2v, -cfg.saturation, cfg.saturation, out=c2v)
        ext = np.concatenate([c2v, np.zeros((1, 1))], axis=1)
        soft = llr[None, :] + ext[:, lay.var_eid.T].sum(axis=2)
        with np.errstate(invalid="ignore"):
            v2c = soft[:, lay.edge_var] - c2v
        # an infinite (unclamped) check output: the other inputs' sum
        for e in np.flatnonzero(np.isinf(c2v[0])):
            v = lay.edge_var[e]
            others = [x for x in lay.var_eid[:, v] if x != e and x < lay.E]
            v2c[0, e] = llr[v] + c2v[0, others].sum()
        hard = (soft < 0).astype(np.uint8)
        hard_ext = np.concatenate([hard, np.zeros((1, 1), dtype=np.uint8)], axis=1)
        if cfg.early_stop and not (hard_ext[:, lay.chk_var.T].sum(axis=2) & 1).any():
            break
    return soft[0]


@pytest.fixture(scope="module")
def irregular_code():
    """Check degrees 1, 2, 3..6, 7 and 9; variable degrees 1 to 5."""
    rng = np.random.default_rng(11)
    n = 40
    rows = [[0], [1, 2], list(range(3, 10)), list(range(10, 19))]
    rows += [rng.choice(n, size=int(d), replace=False) for d in rng.integers(3, 7, size=26)]
    rows += [[v, (v + 1) % n] for v in range(0, n, 4)]  # no variable left unchecked
    H = ParityCheckMatrix(rows, n)
    assert {1, 2, 7, 9} <= set(H.chk_degrees.tolist())
    assert H.var_degrees.min() >= 1 and H.var_degrees.max() < 8
    return H


def _kernel_inputs(rng, F, E, special, big):
    x = rng.normal(2.0, 4.0, size=(F, E)) * rng.choice([1e-3, 1.0, 30.0], size=(F, E))
    picks = rng.random((F, E))
    x[picks < 0.05] = 0.0
    x[(picks >= 0.05) & (picks < 0.10)] = big
    x[(picks >= 0.10) & (picks < 0.15)] = -big
    if special:
        x[(picks >= 0.15) & (picks < 0.20)] = np.inf
        x[(picks >= 0.20) & (picks < 0.25)] = -np.inf
        # magnitudes whose pairwise combination rounds to within an ulp of
        # log 2 of zero, where the log-domain step needs its clamp at 0
        tiny = (picks >= 0.25) & (picks < 0.35)
        x[tiny] = rng.normal(0.0, 1e-16, size=int(tiny.sum()))
    return x


def _wrap_step(monkeypatch, name, record):
    """Calls `record(a)` before each call of the kernel's pair step `name`,
    in the module and in every mode's rule."""
    inner = getattr(decoder_mod, name)

    def counted(a, *args):
        record(a)
        return inner(a, *args)

    monkeypatch.setattr(decoder_mod, name, counted)
    for mode, (step, *rest) in decoder_mod._RULES.items():
        if step is inner:
            monkeypatch.setitem(decoder_mod._RULES, mode, (counted, *rest))


def _count_t_steps(monkeypatch):
    """Records each t-domain pair step of the kernel."""
    calls = []
    _wrap_step(monkeypatch, "_tplus", lambda a: calls.append(1))
    return calls


@pytest.mark.parametrize("mode", ["pairwise", "approx", "min-sum", "exact-tanh"])
@pytest.mark.parametrize("which", ["regular", "irregular"])
def test_check_kernel_matches_signed_oracle(mode, which, code, irregular_code, monkeypatch):
    H = code if which == "regular" else irregular_code
    lay = _layout(H)
    rng = np.random.default_rng(len(mode) + 7 * len(which))
    calls = _count_t_steps(monkeypatch)
    # rows with |x| = 700 take the t domain in the exact mode, rows with
    # |x| = 745.5 (exp(-745.5) is 0) or 1e300 the log domain; `mixed`
    # blocks redraw every other row with |x| = 700, so both domains run
    # in one block; so many rows (F = 2 block + 3) also draw magnitudes
    # ~1e-16 without `special`.  The tanh rule runs every row in t, its
    # inputs past 38.12 (30-scaled draws among them) taken as t = 0.
    for F in (1, 5, 64, 2 * _block_rows(lay) + 3):
        work = _Workspace(lay, F)
        for big, mixed in ((700.0, False), (745.5, False), (745.5, True), (1e300, False),
                           (1e300, True)):
            for special in (False, True):  # also +-inf and ~1e-16
                x = _kernel_inputs(rng, F, lay.E, special, big)
                if mixed:
                    x[1::2] = _kernel_inputs(rng, F, lay.E, special, 700.0)[1::2]
                t_rows = _t_domain_rows(x, mode)
                assert t_rows.any() == (mode == "exact-tanh" or mode == "pairwise" and (
                    big == 700.0 or (mixed and F > 1)))
                calls.clear()
                out = _check_pass(x, lay, mode, work)
                # an infinite input (t = 0) leaves a row in the t domain
                assert bool(calls) == bool(t_rows.any())
                ref = _oracle_check_pass(x, lay, mode)
                # bit equality; only an exact zero may come out as -0.0 here
                assert np.array_equal(out, ref)
                nz = ref != 0
                assert np.array_equal(out[nz].view(np.int64), ref[nz].view(np.int64))


# one degree-9 check whose log-domain recursion, unclamped, carried a sum
# of magnitudes ~1e-16 across zero: edges 2, 6 and 7 then got +-6.99e-17
# although the exact-zero input is among their others
_CROSSING = [4.1163053637413283e-17, 0.00010425133694426775, -1.2853466294403426e-14,
             0.013664634705496859, -6.651946734866135e-05, 3.5151007009301975e-05,
             9.034701816518086e-05, 0.0009401229776087457, 0.0]


def test_exact_zero_input_zeroes_every_other_edge(monkeypatch):
    # the crossing check beside a degree-2 check: with inputs of 1 there
    # the frame runs in the t domain, with inputs of 1e6 in the log domain
    lay = _layout(ParityCheckMatrix([list(range(9)), [9, 10]], 11))
    calls = _count_t_steps(monkeypatch)
    for other, t_domain in ((1.0, True), (1e6, False)):
        calls.clear()
        out = _check_pass(np.array([_CROSSING + [other, other]]), lay, "pairwise",
                          _Workspace(lay, 1))
        assert bool(calls) == t_domain
        assert (out[0, :8] == 0.0).all()


@pytest.mark.parametrize("mode", ["pairwise", "approx", "min-sum"])
def test_degree_one_checks_send_the_neutral_inf(mode):
    # one input per check: the recursion never runs, every output is +inf
    lay = _layout(ParityCheckMatrix([[0], [1]], 2))
    assert np.isposinf(_check_pass(np.array([[0.5, -3.0]]), lay, mode, _Workspace(lay, 1))).all()


def _count_log_rows(monkeypatch):
    """Records how many rows each log-domain pair step of the kernel runs on."""
    rows = []
    _wrap_step(monkeypatch, "_boxplus", lambda a: rows.append(a.shape[-2]))
    return rows


def test_unclamped_block_with_huge_messages_matches_scalar_reference(code, monkeypatch):
    # exp(-1e6) is 0 in float64, which the t domain reads as an infinite
    # magnitude: the row holding such a message runs the log-domain
    # recursion, which no input magnitude overflows, and its block-mate
    # stays in the t domain
    lay = _layout(code)
    llrs = clean_llrs(code, ChannelConfig(2.0, 0.5), 2, seed=12)
    llrs[1] *= 1e6
    calls, log_rows = _count_t_steps(monkeypatch), _count_log_rows(monkeypatch)
    passes = []
    inner = decoder_mod._check_pass

    def recorded(v2c, *args):
        calls.clear()
        log_rows.clear()
        out = inner(v2c, *args)
        passes.append((v2c.copy(), out.copy(), bool(calls), set(log_rows)))
        return out

    monkeypatch.setattr(decoder_mod, "_check_pass", recorded)
    res = decode_batch(code, llrs, DecoderConfig(max_iters=4, saturation=None, early_stop=False))
    # every pass takes t steps, and its log steps run on one row
    assert [p[2:] for p in passes] == [(True, {1})] * 4
    assert np.isfinite(res.soft).all()
    for v2c, c2v, _, _ in passes:
        for e in range(lay.E):
            others = lay.chk_eid[lay.edge_chk[e]]
            others = others[others != e]
            for f in range(2):
                want = check_update_pairwise(v2c[f, others])
                assert c2v[f, e] == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_unclamped_frames_keep_their_bits_beside_a_huge_frame(code):
    # a frame's domain follows its own messages, so its bits do not
    # depend on a block-mate whose messages pass 700
    llrs = clean_llrs(code, ChannelConfig(2.0, 0.5), 6, seed=12)
    huge = llrs[:1] * 1e6
    dec = DecoderConfig(max_iters=6, saturation=None, early_stop=False)
    alone = decode_batch(code, llrs, dec)
    beside = decode_batch(code, np.concatenate([llrs[:3], huge, llrs[3:]]), dec)
    keep = [0, 1, 2, 4, 5, 6]
    assert np.array_equal(alone.soft.view(np.int64), beside.soft[keep].view(np.int64))
    for name in ("hard", "converged", "iterations", "failed"):
        assert np.array_equal(getattr(alone, name), getattr(beside, name)[keep]), name


def test_padding_does_not_trigger_the_row_scan(irregular_code, monkeypatch):
    # the irregular code's padding slots gather as +inf (-inf in the
    # kernel): a clamped decode must not take them for magnitudes past
    # 700 and scan every block's rows
    scans, passes = [], []
    inner_rows, inner_pass = decoder_mod._log_rows, decoder_mod._check_pass

    def rows(X):
        scans.append(1)
        return inner_rows(X)

    def check_pass(v2c, *args):
        passes.append(1)
        return inner_pass(v2c, *args)

    monkeypatch.setattr(decoder_mod, "_log_rows", rows)
    monkeypatch.setattr(decoder_mod, "_check_pass", check_pass)
    llrs = clean_llrs(irregular_code, ChannelConfig(2.0, 0.5), 64, seed=12)
    decode_batch(irregular_code, llrs, DecoderConfig(max_iters=10, saturation=25.0,
                                                     early_stop=False))
    assert (len(passes), len(scans)) == (10, 0)
    # a frame holding 1e6-sized messages is scanned for in every pass
    passes.clear()
    llrs[5] *= 1e6
    decode_batch(irregular_code, llrs, DecoderConfig(max_iters=10, saturation=None,
                                                     early_stop=False))
    assert (len(passes), len(scans)) == (10, 10)


def test_exact_tanh_pass_tracks_scalar_reference(irregular_code):
    # inputs on both sides of the rounding point 55 ln 2 = 38.1230949,
    # +-inf, the padding of checks of degree 2 to 9 and a degree-1 check
    # (whose output is the empty product, +inf); each edge against the
    # tanh product of its check's other inputs
    H = irregular_code
    lay = _layout(H)
    rng = np.random.default_rng(23)
    F = 64
    x = rng.normal(2.0, 6.0, size=(F, lay.E))
    picks = rng.random((F, lay.E))
    for k, v in enumerate((38.1230, 38.1231, -38.1230, -38.1231, np.inf, -np.inf)):
        x[(picks >= 0.1 * k) & (picks < 0.1 * (k + 1))] = v
    c2v = _check_pass(x, lay, "exact-tanh", _Workspace(lay, F))
    n_inf = n_fin = 0
    for e in range(lay.E):
        others = lay.chk_eid[lay.edge_chk[e]]
        others = others[(others != e) & (others < lay.E)]
        for f in range(F):
            want = check_update_exact(x[f, others]) if others.size else math.inf
            got = c2v[f, e]
            if math.isfinite(want):
                n_fin += 1
                assert got == pytest.approx(want, rel=0.0, abs=1e-9), (e, f)
            else:
                n_inf += 1
                assert got == want, (e, f)
    # both patterns occur often, near the rounding point too
    assert n_inf > 0.1 * F * lay.E and n_fin > 0.3 * F * lay.E
    near = np.isin(np.abs(x), (38.1230, 38.1231))
    assert near.sum() > 0.3 * F * lay.E


def _decode_all_ways(H, llrs, dec):
    """Every decode_batch output that row blocking could move: a plain
    run, the state after 3 iterations, the run resumed from that state,
    and the capture statistics."""
    state = decode_batch(H, llrs, dec, return_state=True)
    pre = decode_batch(H, llrs, dataclasses.replace(dec, max_iters=3), return_state=True)
    resumed = decode_batch(H, llrs, dec, init_v2c=pre.state_v2c)
    cap = CaptureAccumulator(int(H.chk_degrees.max()), dec.max_iters)
    decode_batch(H, llrs, dec, capture=cap)
    return [decode_batch(H, llrs, dec), state, pre, resumed], cap.results()


def _assert_overflow_named(H, llrs, dec, mode):
    """exact-tanh's error names frame 20 and the iteration at which it
    overflows when decoded alone; the other modes decode the batch."""
    if mode != "exact-tanh":
        assert decode_batch(H, llrs, dec).converged[20]
        return
    with pytest.raises(NonFiniteMessageError, match="in frame 0 at its iteration 2;"):
        decode_batch(H, llrs[20:21], dec)
    with pytest.raises(NonFiniteMessageError, match="in frame 20 at its iteration 2;"):
        decode_batch(H, llrs, dec)


@pytest.mark.parametrize("mode", ["pairwise", "approx", "min-sum", "exact-tanh"])
@pytest.mark.parametrize("which", ["regular", "irregular"])
def test_row_blocks_do_not_move_outputs(mode, which, code, irregular_code, monkeypatch):
    H = code if which == "regular" else irregular_code
    lay = _layout(H)
    # with at most six other inputs clamped at 4, exact-tanh's inputs stay
    # below its rounding point
    sat = 4.0 if mode == "exact-tanh" else 25.0
    dec = DecoderConfig(mode=mode, max_iters=8, saturation=sat)
    llrs = clean_llrs(H, ChannelConfig(1.0, 0.5), 23, seed=14)
    # at 2.5 dB frames leave an early-exit batch at several iterations, so
    # waiting frames take the rows they free
    leaving = clean_llrs(H, ChannelConfig(2.5, 0.5), 24, seed=14)
    # a frame whose inputs pass the tanh-product range at its second
    # iteration; in a 3-row pool it enters long after the first pass
    overflow = leaving.copy()
    overflow[20] = 35.0
    overflow[20, 5] = -35.0
    monkeypatch.setattr(decoder_mod, "_BLOCK_BYTES", 1 << 40)
    assert _block_rows(lay) >= 24
    whole, whole_stats = _decode_all_ways(H, llrs, dec)
    whole.append(decode_batch(H, leaving, dec))
    _assert_overflow_named(H, overflow, dec, mode)
    monkeypatch.setattr(decoder_mod, "_BLOCK_BYTES", 3 * 8 * lay.chk_eid.shape[1] * lay.m)
    assert _block_rows(lay) == 3 < min(llrs.shape[0], leaving.shape[0])
    blocked, blocked_stats = _decode_all_ways(H, llrs, dec)
    blocked.append(decode_batch(H, leaving, dec))
    assert np.unique(blocked[-1].iterations[blocked[-1].converged]).size >= 3
    _assert_overflow_named(H, overflow, dec, mode)
    for got, want in zip(blocked, whole, strict=True):
        _assert_same_batch(got, want)
        if want.state_v2c is not None:
            assert np.array_equal(got.state_v2c.view(np.int64), want.state_v2c.view(np.int64))
    for got, want in zip(blocked_stats, whole_stats):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("sat", [25.0, None])
def test_decode_leaves_its_inputs_unchanged(code, irregular_code, sat, monkeypatch):
    # the decoder moves kept rows within its own arrays, never the caller's
    for H in (code, irregular_code):
        lay = _layout(H)
        monkeypatch.setattr(decoder_mod, "_BLOCK_BYTES", 3 * 8 * lay.chk_eid.shape[1] * lay.m)
        llrs = clean_llrs(H, ChannelConfig(2.5, 0.5), 24, seed=14)
        dec = DecoderConfig(max_iters=8, saturation=sat)
        state = decode_batch(H, llrs, dataclasses.replace(dec, max_iters=2),
                             return_state=True).state_v2c
        before = llrs.copy(), state.copy()
        res = decode_batch(H, llrs, dec, init_v2c=state)
        assert np.unique(res.iterations).size >= 2  # rows moved as frames left
        for got, want in zip((llrs, state), before):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_decode_memory_per_frame():
    # [F, n] outputs and a pool of rows: about 3.5 KiB a frame here, against
    # 14.7 KiB with a whole-batch message array and 29 KiB when every step
    # of an iteration held whole-batch temporaries
    H = random_regular_code(256, 3, 6, seed=5)
    F = 8192
    llrs = sample_llrs(ChannelConfig(2.4, 0.5), frame_rng(3, 0), (F, H.n_vars))
    dec = DecoderConfig(max_iters=3, saturation=25.0)
    decode_batch(H, llrs[:8], dec)  # the layout is built and cached outside the trace
    tracemalloc.start()
    try:
        decode_batch(H, llrs, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / F < 18 * 1024


def test_decoder_state_does_not_grow_with_the_batch():
    # the pool of rows holds the decoder's state, so a 4,096-frame
    # early-stop decode peaks below one [F, E] float64 array (25.2 MB
    # here); with whole-batch state it peaked at about 64 MB
    H = random_regular_code(256, 3, 6, seed=5)
    F = 4096
    llrs = sample_llrs(ChannelConfig(2.4, 0.5), frame_rng(3, 0), (F, H.n_vars))
    dec = DecoderConfig(max_iters=50, saturation=25.0)
    decode_batch(H, llrs[:8], dec)  # the layout is built and cached outside the trace
    tracemalloc.start()
    try:
        res = decode_batch(H, llrs, dec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.unique(res.iterations).size > 10
    assert peak < F * H.n_edges * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_llrs(code, bad):
    llrs = np.full((2, code.n_vars), 3.0)
    llrs[1, 4] = bad
    with pytest.raises(ValueError, match="llrs must be finite"):
        decode_batch(code, llrs, DecoderConfig(max_iters=5))


@pytest.mark.parametrize("shape", ["rows", "columns", "flat"])
def test_decode_rejects_misshapen_init_v2c(code, shape):
    dec = DecoderConfig(max_iters=5, saturation=25.0)
    llrs = clean_llrs(code, ChannelConfig(2.0, 0.5), 8, seed=3)
    state = decode_batch(code, llrs, dec, return_state=True).state_v2c
    bad = {"rows": state[:-1], "columns": state[:, :-1], "flat": state[0]}[shape]
    with pytest.raises(ValueError, match=r"init_v2c is \(.*\), not \[frames, edges\]"):
        decode_batch(code, llrs, dec, init_v2c=bad)


def test_decode_rejects_nan_in_init_v2c(code):
    # one nan edge used to leave every frame converged with nan soft values
    dec = DecoderConfig(max_iters=5, saturation=25.0)
    llrs = clean_llrs(code, ChannelConfig(2.0, 0.5), 8, seed=3)
    state = decode_batch(code, llrs, dec, return_state=True).state_v2c
    state[3, 10] = np.nan
    with pytest.raises(ValueError, match="init_v2c holds nan"):
        decode_batch(code, llrs, dec, init_v2c=state)


def test_decode_resumes_an_unclamped_state_holding_inf(irregular_code):
    # a degree-1 check sends +inf, so an unclamped state holds it
    H = irregular_code
    dec = DecoderConfig(max_iters=3, saturation=None, early_stop=False)
    llrs = clean_llrs(H, ChannelConfig(2.0, 0.5), 6, seed=12)
    state = decode_batch(H, llrs, dec, return_state=True).state_v2c
    assert np.isposinf(state).any()
    resumed = decode_batch(H, llrs, dec, init_v2c=state)
    straight = decode_batch(H, llrs, dataclasses.replace(dec, max_iters=6))
    assert np.array_equal(resumed.soft.view(np.int64), straight.soft.view(np.int64))
    assert np.array_equal(resumed.converged, straight.converged)


@pytest.mark.parametrize("early_stop", [True, False])
@pytest.mark.parametrize("sat", [None, 4.0])
def test_decode_soft_matches_second_decode(code, irregular_code, early_stop, sat):
    cfg = ChannelConfig(2.0, 0.5)
    dec = DecoderConfig(max_iters=12, saturation=sat, early_stop=early_stop)
    for H in (code, irregular_code):
        llrs = clean_llrs(H, cfg, 6, seed=12)
        for llr in llrs:
            got, want = decode_one(H, llr, dec).soft[0], _oracle_soft(H, llr, dec)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("early_stop", [True, False])
def test_unclamped_decode_has_no_nan(irregular_code, early_stop):
    # a degree-1 check sends +inf; soft - c2v on its edge was inf - inf,
    # and the nan spread to most variables within a few iterations
    H = irregular_code
    dec = DecoderConfig(max_iters=12, saturation=None, early_stop=early_stop)
    llrs = clean_llrs(H, ChannelConfig(2.0, 0.5), 6, seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        soft = decode_batch(H, llrs, dec).soft
        for llr in llrs:
            assert not np.isnan(decode_one(H, llr, dec).soft).any()
    assert not np.isnan(soft).any()
    assert np.isposinf(soft).any()  # the forced variables


# --- the loop before fixed-point retirement, kept as the decoder's oracle ---

def _oracle_decode_batch(H, llrs, cfg):
    """Runs every non-converged frame to `cfg.max_iters`."""
    F, n = llrs.shape
    lay = _layout(H)
    early = cfg.early_stop
    hard_out = np.zeros((F, n), dtype=np.uint8)
    conv_out = np.zeros(F, dtype=bool)
    iters_out = np.full(F, cfg.max_iters, dtype=np.int32)
    failed_out = np.zeros((F, n), dtype=bool)
    soft_out = np.zeros((F, n))
    idx = np.arange(F)
    ch = llrs
    v2c = ch[:, lay.edge_var].copy()
    last_wrong = np.zeros((F, n), dtype=np.int32)
    first_conv = np.zeros(F, dtype=np.int32)
    work = _Workspace(lay, F)
    sat = cfg.saturation
    lone = np.repeat(H.chk_degrees, H.chk_degrees) == 1  # edges are check-major
    for it in range(1, cfg.max_iters + 1):
        c2v = _check_pass(v2c, lay, cfg.mode, work)
        # a degree-1 check's +inf output is neutral, not an overflow
        if cfg.mode == "exact-tanh" and not (np.isfinite(c2v) | lone).all():
            raise NonFiniteMessageError("non-finite check output")
        if sat is not None:
            np.clip(c2v, -sat, sat, out=c2v)
        soft = ch + _gather(c2v, lay.var_eid, 0.0, lay.var_padded).sum(axis=1)
        if sat is None:
            v2c = _unclamped_v2c(soft, c2v, ch, lay, np.empty_like(c2v))
        else:
            v2c = np.take(soft, lay.edge_var, axis=1) - c2v
        wrong = soft < 0
        hard = wrong.astype(np.uint8)
        np.maximum(last_wrong, np.multiply(wrong, it, dtype=np.int32), out=last_wrong)
        parity = np.bitwise_xor.reduce(_gather(hard, lay.chk_var, 0, lay.chk_padded), axis=1)
        conv_now = ~parity.any(axis=1)
        np.copyto(first_conv, it, where=(first_conv == 0) & conv_now)
        if early and conv_now.any():
            done = np.flatnonzero(conv_now)
            gd = idx[done]
            hard_out[gd] = hard[done]
            soft_out[gd] = soft[done]
            conv_out[gd] = True
            iters_out[gd] = it
            failed_out[gd] = wrong[done]
            keep = np.flatnonzero(~conv_now)
            if keep.size == 0:
                return BatchResult(hard_out, conv_out, iters_out, failed_out, soft_out)
            idx, ch, v2c = idx[keep], ch[keep], v2c[keep]
            last_wrong, first_conv = last_wrong[keep], first_conv[keep]
            hard, soft, wrong, conv_now = hard[keep], soft[keep], wrong[keep], conv_now[keep]
    lo = cfg.max_iters - cfg.ec_window + 1
    hard_out[idx] = hard
    soft_out[idx] = soft
    conv_out[idx] = conv_now if not early else False
    iters_out[idx] = np.where(first_conv > 0, first_conv, cfg.max_iters)
    failed_out[idx] = np.where(conv_now[:, None], wrong, last_wrong >= max(lo, 1)) if not early \
        else last_wrong >= max(lo, 1)
    return BatchResult(hard_out, conv_out, iters_out, failed_out, soft_out)


def _assert_same_batch(got, want):
    for f in ("hard", "converged", "iterations", "failed"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and np.array_equal(a, b), f
    assert np.array_equal(got.soft.view(np.int64), want.soft.view(np.int64))


def _assert_matches_oracle(H, llrs, dec):
    """decode_batch equals the oracle bit for bit, or both raise; returns
    the oracle's result (None when it raised)."""
    try:
        want = _oracle_decode_batch(H, llrs, dec)
    except NonFiniteMessageError:
        with pytest.raises(NonFiniteMessageError):
            decode_batch(H, llrs, dec)
        return None
    _assert_same_batch(decode_batch(H, llrs, dec), want)
    return want


@pytest.fixture(scope="module")
def trap_code():
    """(3,6) host with a five-variable single-unsatisfied-check set planted."""
    return random_regular_code(
        256, 3, 6, seed=2,
        planted=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1,)],
    )


def _trapped_llrs(code, n_frames):
    # mean noise -2.2 over the planted set at 2.8 dB: no frame converges
    # within 50 iterations, and most lock on the set with clamp 25
    return _rotated_noise((0, 1, 2, 3, 4), -2.2, ChannelConfig(2.8, 0.5), frame_rng(3, 0),
                          code.n_vars, n_frames)


class _RowCounter:
    """Wraps `_check_pass`, counting the frame-rows it decodes."""

    def __init__(self, monkeypatch):
        self.rows = 0
        inner = decoder_mod._check_pass

        def counted(v2c, *args, **kwargs):
            self.rows += v2c.shape[0]
            return inner(v2c, *args, **kwargs)

        monkeypatch.setattr(decoder_mod, "_check_pass", counted)


@pytest.mark.parametrize("mode", decoder_mod.MODES)
@pytest.mark.parametrize("sat", [25.0, 3.0, None])
@pytest.mark.parametrize("which", ["regular", "irregular"])
def test_fixed_point_exit_matches_full_run(mode, sat, which, code, irregular_code, monkeypatch):
    H = code if which == "regular" else irregular_code
    counter = _RowCounter(monkeypatch)
    trapped = []
    for ebn0, iters in ((1.5, 50), (1.5, 20), (1.5, 7), (4.5, 50)):
        llrs = clean_llrs(H, ChannelConfig(ebn0, 0.5), 96, seed=13)
        for early in (True, False):
            dec = DecoderConfig(mode=mode, max_iters=iters, saturation=sat, early_stop=early)
            counter.rows = 0
            want = _assert_matches_oracle(H, llrs, dec)
            if want is not None and early:
                trapped.append(counter.rows < want.iterations.sum())
    # on these small codes only clamp 3 locks frames on a fixed point, so
    # the other clamps cover batches without trapped frames (on the
    # irregular code exact-tanh decodes only at clamp 3: at 25 and none the
    # degree-1 check's clamped or infinite output reaches a degree-2 check
    # past the tanh-product range at iteration 2)
    if trapped:
        assert any(trapped) == (sat == 3.0)


@pytest.mark.parametrize("mode", decoder_mod.MODES)
@pytest.mark.parametrize("sat", [25.0, None])
def test_fixed_point_exit_matches_full_run_on_trapping_set(mode, sat, trap_code):
    # 20 iterations put frames that lock late inside the trailing window
    llrs = _trapped_llrs(trap_code, 64)
    for iters in (50, 20, 7):
        _assert_matches_oracle(trap_code, llrs, DecoderConfig(mode=mode, max_iters=iters,
                                                              saturation=sat))


def test_fixed_rows_tell_signed_zeros_apart():
    # -0.0 == +0.0, but the check kernel XORs sign bits, so the two decode
    # differently
    v2c = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 2.0]])
    prev = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    assert _fixed_rows(v2c, prev).tolist() == [False, True, False]
    soft = np.array([[0.0, 1.0], [-0.0, 1.0]])
    assert _fixed_rows(soft, soft.copy()).tolist() == [True, True]
    assert not _fixed_rows(soft, soft[::-1].copy()).any()


def test_trapped_frames_leave_the_batch(trap_code, monkeypatch):
    llrs = _trapped_llrs(trap_code, 64)
    dec = DecoderConfig(max_iters=50, saturation=25.0)
    want = _oracle_decode_batch(trap_code, llrs, dec)
    assert not want.converged.any()
    counter = _RowCounter(monkeypatch)
    _assert_same_batch(decode_batch(trap_code, llrs, dec), want)
    assert counter.rows < 0.75 * 64 * 50
    # a run that hands back its state keeps every frame for every iteration
    counter.rows = 0
    decode_batch(trap_code, llrs, dec, return_state=True)
    assert counter.rows == 64 * 50


def test_richardson_exact_match_output_matches_oracle_loop(trap_code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_alist(trap_code, tmp_path / "trap.alist")
    (tmp_path / "sets.txt").write_text("0 1 2 3 4\n")
    argv = ["richardson", "--alist", "trap.alist", "--set", "sets.txt", "--ebn0", "2.8",
            "--s-points", "3", "--s-lo", "-2.2", "--s-hi", "-1.0", "--frames-per-point", "96",
            "--target-failures", "1000", "--refine", "0", "--seed", "4"]
    assert main(argv + ["--out", "new"]) == 0
    monkeypatch.setattr(simharness_mod, "decode_batch", _oracle_decode_batch)
    assert main(argv + ["--out", "old"]) == 0
    new, old = (json.loads((tmp_path / f"{p}.json").read_text()) for p in ("new", "old"))
    assert new.pop("manifest") == "new.manifest.json" and old.pop("manifest") == "old.manifest.json"
    assert json.dumps(new) == json.dumps(old)
    assert 0 < sum(new["frames"]) and 0 < new["value"]
