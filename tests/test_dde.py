"""Quantized density evolution: grid ops, conservation, thresholds."""

import functools
import math
import warnings

import numpy as np
import pytest
import scipy.special
from numpy.lib.stride_tricks import sliding_window_view

import errorfloor.dde
from errorfloor.channel import ChannelConfig
from errorfloor.decoder import check_update_pairwise
from errorfloor.dde import (
    DEFAULT_HALF_BINS,
    DEFAULT_STEP,
    Pmf,
    _Band,
    _band,
    _band_width,
    _pair_bins,
    _tail_beyond,
    channel_pmf,
    check_transform,
    dde_run,
    growth_threshold_pointwise,
    growth_threshold_regular,
    pointwise_crossing,
)

CFG = ChannelConfig(2.8, 0.5)


def small_pmf(mean, sd, delta=0.25, half=120):
    edges = (np.arange(-half, half + 2) - 0.5) * delta
    cdf = scipy.special.ndtr((edges - mean) / sd)
    p = np.diff(cdf)
    p[0] += cdf[0]
    p[-1] += 1.0 - cdf[-1]
    return Pmf(p, delta, half)


def test_channel_pmf_moments():
    pmf = channel_pmf(CFG)
    assert pmf.total() == pytest.approx(1.0, abs=1e-12)
    assert pmf.mean() == pytest.approx(CFG.mean_llr, rel=1e-4)
    assert pmf.variance() == pytest.approx(2 * CFG.mean_llr, rel=1e-3)
    assert 0.0 < pmf.negative_mass() < 0.1


@pytest.mark.parametrize("ebn0_db", [2.5, 2.8, 3.1])
def test_channel_pmf_matches_scipy_ndtr(ebn0_db):
    # oracle: CDF differences below the mean, upper-tail differences above
    # it; CDF differences alone round the upper tail to multiples of 2^-53
    cfg = ChannelConfig(ebn0_db, 0.5)
    got = channel_pmf(cfg).probs
    edges = (np.arange(-DEFAULT_HALF_BINS, DEFAULT_HALF_BINS + 2) - 0.5) * DEFAULT_STEP
    x = (edges - cfg.mean_llr) / math.sqrt(2.0 * cfg.mean_llr)
    cdf, tail = scipy.special.ndtr(x), scipy.special.ndtr(-x)
    want = np.where(x[1:] <= 0, np.diff(cdf), -np.diff(tail))
    want[0] += cdf[0]
    want[-1] += tail[-1]
    keep = want >= 1e-300
    assert keep.sum() > 3000
    np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0)


def test_pmf_length_checked():
    with pytest.raises(ValueError):
        Pmf(np.ones(10), DEFAULT_STEP, DEFAULT_HALF_BINS)
    with pytest.raises(ValueError, match="half"):
        Pmf(np.ones(1), 1.0, 0)


def test_normalized_restores_unit_mass():
    pmf = channel_pmf(CFG)
    skew = Pmf(pmf.probs * 0.97, pmf.delta, pmf.half)
    assert skew.normalized().total() == pytest.approx(1.0, abs=1e-15)


def test_saturate_sweeps_tails():
    pmf = channel_pmf(CFG)
    sat = pmf.saturate(10.0)
    assert sat.total() == pytest.approx(pmf.total(), abs=1e-14)
    k = int(round(10.0 / pmf.delta))
    assert sat.probs[: pmf.half - k].sum() == 0.0
    assert sat.probs[pmf.half + k + 1 :].sum() == 0.0
    assert abs(sat.mean()) <= 10.0 + pmf.delta
    # beyond the grid edge it is a no-op
    assert pmf.saturate(60.0) is pmf


def test_convolve_adds_cumulants():
    a = small_pmf(1.0, 1.5)
    b = small_pmf(-2.0, 2.0)
    c = a.convolve(b)
    assert c.total() == pytest.approx(1.0, abs=1e-12)
    assert c.mean() == pytest.approx(-1.0, abs=0.01)
    assert c.variance() == pytest.approx(1.5**2 + 2.0**2, rel=0.01)


def test_convolve_folds_overflow_to_edges():
    half, delta = 40, 1.0
    p = np.zeros(81)
    p[-1] = 1.0  # point mass at +40
    spike = Pmf(p, delta, half)
    out = spike.convolve(spike)  # true sum sits at +80, off grid
    assert out.total() == pytest.approx(1.0, abs=1e-15)
    assert out.probs[-1] == pytest.approx(1.0)


def test_grid_mismatch_rejected():
    with pytest.raises(ValueError):
        small_pmf(0, 1).convolve(small_pmf(0, 1, delta=0.5, half=60))
    with pytest.raises(ValueError):
        small_pmf(0, 1).check_pair(small_pmf(0, 1, half=121))


def test_check_pair_against_monte_carlo():
    a = small_pmf(1.5, 1.2)
    b = small_pmf(0.8, 1.0)
    out = a.check_pair(b)
    assert out.total() == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    xs = rng.choice(a.grid, size=200_000, p=a.probs / a.total())
    ys = rng.choice(b.grid, size=200_000, p=b.probs / b.total())
    ref = np.array([check_update_pairwise([x, y]) for x, y in zip(xs[:50_000], ys[:50_000])])
    assert out.mean() == pytest.approx(ref.mean(), abs=4 * ref.std() / math.sqrt(ref.size))
    assert out.variance() == pytest.approx(ref.var(), rel=0.05)


@functools.lru_cache(maxsize=None)
def full_pair_table(delta, half):
    """The whole quantized pair table: entry (i, j) is the grid index of
    R(i*delta, j*delta).  Oracle for the banded operator."""
    x = np.arange(-half, half + 1, dtype=float) * delta
    T = np.empty((x.size, x.size), dtype=np.int16)
    chunk = 256
    for lo in range(0, x.size, chunk):
        a = x[lo : lo + chunk, None]
        b = x[None, :]
        base = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
        r = base + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
        T[lo : lo + chunk] = np.rint(r / delta).astype(np.int16)
    return T


def dense_check_pair(x, y, delta, half):
    """Weighted bincount over every table entry."""
    T = full_pair_table(delta, half)
    size = 2 * half + 1
    out = np.zeros(size)
    chunk = 512
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        w = x[lo:hi, None] * y[None, :]
        out += np.bincount((T[lo:hi].astype(np.int64) + half).ravel(), weights=w.ravel(), minlength=size)
    return out


@functools.lru_cache(maxsize=None)
def band_rows(delta, half):
    """Band width W and the band's bins (+ half), laid out (p, sign
    class, d) for magnitude pairs (p, p + d), p in 1..half, d in -W..W."""
    w = min(_band_width(delta), half - 1)
    mag = np.arange(1, half + 1)
    q = mag[:, None] + np.arange(-w, w + 1)[None, :]
    a = mag[:, None].astype(float) * delta
    b = q.astype(float) * delta
    idx = np.stack([_pair_bins(a, b, delta), _pair_bins(a, -b, delta)], axis=1)
    on_grid = ((q >= 1) & (q <= half))[:, None, :]
    return w, np.where(on_grid, idx, 0).ravel() + half


def banded_check_pair(self, other):
    """Pmf.check_pair before gap groups: tail sums off the band and one
    bincount over every band pair.  Oracle for the grouped operator."""
    h = self.half
    w, bins = band_rows(self.delta, h)
    x, y = self.probs, other.probs
    xs = np.stack([x[h + 1 :], x[:h][::-1]], axis=1)
    ys = np.stack([y[h + 1 :], y[:h][::-1]], axis=1)
    y_win = sliding_window_view(np.pad(ys, ((w, w), (0, 0))), 2 * w + 1, axis=0)
    pairing = np.stack([xs, xs[:, ::-1]], axis=1)
    out = np.bincount(bins, weights=(pairing @ y_win).ravel(), minlength=2 * h + 1)
    tx, ty = _tail_beyond(xs, w), _tail_beyond(ys, w)
    out[h + 1 :] += (xs * ty).sum(axis=1) + (ys * tx).sum(axis=1)
    out[:h][::-1] += (xs * ty[:, ::-1]).sum(axis=1) + (ys * tx[:, ::-1]).sum(axis=1)
    out[h] += x[h] * y.sum() + y[h] * xs.sum()
    return Pmf(out, self.delta, self.half)


def oracle_inputs(half, seed):
    rng = np.random.default_rng(seed)
    size = 2 * half + 1

    def sparse_random():
        p = rng.random(size) * rng.random(size) ** 3  # asymmetric, uneven
        p[rng.random(size) < 0.3] = 0.0
        return p / p.sum()

    def point(k):
        p = np.zeros(size)
        p[half + k] = 1.0
        return p

    r1, r2 = sparse_random(), sparse_random()
    pos, neg = r1.copy(), r2.copy()
    pos[: half + 1] = 0.0  # all mass on +
    neg[half:] = 0.0  # all mass on -
    cases = [(r1, r2), (r2, r1), (pos, neg), (neg, neg), (pos, r2)]
    for k in (0, 1, -1, half, -half):
        cases += [(point(k), r1), (r2, point(k)), (point(k), point(-k)), (point(k), point(1))]
    return cases


GRIDS = [(DEFAULT_STEP, DEFAULT_HALF_BINS), (0.25, 120), (1.0, 40), (2.0, 12), (0.5, 3)]


@pytest.mark.parametrize("delta, half", GRIDS)
def test_check_pair_matches_full_table_oracle(delta, half):
    worst = 0.0
    for x, y in oracle_inputs(half, seed=half):
        got = Pmf(x, delta, half).check_pair(Pmf(y, delta, half)).probs
        worst = max(worst, np.abs(got - dense_check_pair(x, y, delta, half)).max())
    assert worst <= 1e-12


def test_check_pair_keeps_the_tails_of_density_evolution(monkeypatch):
    # the masses DE carries reach 1e-84, below any absolute bound: each
    # bin must match the dense oracle to a relative 1e-12, and the zero
    # bins must be the same
    seen = []
    inner = Pmf.check_pair

    def recorded(self, other):
        seen.append((self.probs, other.probs))
        return inner(self, other)

    monkeypatch.setattr(Pmf, "check_pair", recorded)
    dde_run(3, 6, CFG, n_iters=12, saturation=25.0)
    monkeypatch.undo()
    steps = 6 - 2  # check_pair calls per iteration
    smallest = 1.0
    for it in (3, 12):
        # vc with vc, and the last partial check output with vc
        for x, y in (seen[steps * (it - 1)], seen[steps * it - 1]):
            got = Pmf(x).check_pair(Pmf(y)).probs
            want = dense_check_pair(x, y, DEFAULT_STEP, DEFAULT_HALF_BINS)
            assert np.array_equal(got == 0.0, want == 0.0)
            big = want > 1e-300
            assert (np.abs(got[big] - want[big]) <= 1e-12 * want[big]).all()
            smallest = min(smallest, want[big].min())
    assert smallest < 1e-80


@pytest.mark.parametrize("delta, half", GRIDS[:2])
def test_pair_table_is_signed_min_off_the_band(delta, half):
    T = full_pair_table(delta, half)
    i = np.arange(-half, half + 1, dtype=np.int16)
    mag = np.abs(i)
    signed_min = np.sign(i)[:, None] * np.sign(i)[None, :] * np.minimum.outer(mag, mag)
    gap = np.abs(np.subtract.outer(mag, mag))
    off_band = gap > _band_width(delta)
    assert np.array_equal(T[off_band], signed_min[off_band])
    # the band is no wider than the bound plus its margin needs
    widest = gap[T != signed_min].max()
    assert _band_width(delta) - 3 <= widest <= _band_width(delta)


def test_shifted_region_derived_from_the_table():
    T = full_pair_table(DEFAULT_STEP, DEFAULT_HALF_BINS)
    band = _band(DEFAULT_STEP, DEFAULT_HALF_BINS)
    h, w = DEFAULT_HALF_BINS, band.w
    m = np.arange(1, h + 1)[:, None]
    u = np.arange(w + 1)
    on_grid = m + u <= h
    rows, cols = np.broadcast_to(m, on_grid.shape)[on_grid], np.broadcast_to(u, on_grid.shape)[on_grid]
    by_gap = sorted(band.groups)
    starts = np.array([g[0] for g in by_gap])
    shift = np.array([g[2:] for g in by_gap]).T - h - band.p0  # [sign class, group]
    assert np.array_equal(starts + [g[1] for g in by_gap], [*starts[1:], w + 1])  # they tile 0..w
    group = np.searchsorted(starts, cols, side="right") - 1
    varies = np.zeros(on_grid.shape, dtype=bool)
    for c, sign in ((0, 1), (1, -1)):
        got = sign * T[h + rows, h + sign * (rows + cols)].astype(int)
        varies[on_grid] |= got != rows + shift[c, group]
    # p0 is the smallest magnitude from which the shift holds
    assert band.p0 == 155 and len(band.groups) == 29
    # the window sums grow in place, so the groups come shortest first
    assert [g[1] for g in band.groups] == sorted(g[1] for g in band.groups)
    assert not varies[band.p0 - 1 :].any() and varies[band.p0 - 2].any()
    # a band row p of the old (p, d) layout pairs p with p +- u, so it is
    # shift-invariant only from the largest varying pair's m + u on
    bad_m, bad_u = np.nonzero(varies)
    assert (bad_m + 1 + bad_u).max() + 1 == 304
    # every gap seen once on a tiny grid is no evidence: no shifted region
    tiny = _band(0.5, 3)
    assert tiny.p0 == 4


def whole_table_band(delta, half):
    """`_band` built in one pass over the whole [half, 2, w + 1] table,
    the oracle for its blocked scan."""
    w = min(_band_width(delta), half - 1)
    gaps = np.arange(w + 1)
    m = np.arange(1, half + 1)[:, None]
    q = m + gaps
    a, b = m.astype(float) * delta, q.astype(float) * delta
    idx = np.stack([_pair_bins(a, b, delta), _pair_bins(a, -b, delta)], axis=1)
    on_grid = (q <= half)[:, None, :]
    shift = idx * np.array([1, -1])[:, None] - m[:, :, None]
    top = shift[half - 1 - gaps, :, gaps]
    varies = (shift != top.T) & on_grid
    p0 = int(np.flatnonzero(varies.any(axis=(1, 2))).max(initial=-1)) + 2
    if p0 + w >= half:
        p0 = half + 1
    low = np.where(on_grid, idx, 0)[: p0 - 1] + half
    starts = np.flatnonzero(np.r_[True, (top[1:] != top[:-1]).any(axis=1)])
    # (first gap, length, output index per sign class), shortest first
    groups = sorted(((int(lo), int(end - lo), *(half + p0 + int(c) for c in top[lo]))
                     for lo, end in zip(starts, [*starts[1:], w + 1])), key=lambda g: g[1])
    return _Band(w, p0, low.ravel(), low[:, :, 1:].ravel(), tuple(groups))


@pytest.mark.parametrize("delta, half", GRIDS)
@pytest.mark.parametrize("block", [256, 7])
def test_band_matches_whole_table_build(delta, half, block, monkeypatch):
    monkeypatch.setattr(errorfloor.dde, "_BAND_CACHE", {})
    monkeypatch.setattr(errorfloor.dde, "_BAND_BLOCK", block)
    got, want = _band(delta, half), whole_table_band(delta, half)
    for name, g, v in zip(_Band._fields, got, want):
        assert np.asarray(g).dtype == np.asarray(v).dtype, name
        assert np.array_equal(g, v), name


def folded_convolve(x, y, half):
    """Full np.convolve, with the mass beyond the grid on its edge bins."""
    full = np.convolve(x, y)
    p = full[half : 3 * half + 1].copy()
    p[0] += full[:half].sum()
    p[-1] += full[3 * half + 1 :].sum()
    return p


def test_convolve_on_the_nonzero_span_matches_full_convolution():
    half, delta = 60, 0.5
    rng = np.random.default_rng(5)
    dense = rng.random(2 * half + 1) + 0.1  # full support: nothing trimmed
    dense /= dense.sum()
    gapped = rng.random(2 * half + 1)
    gapped[:17] = gapped[-40:] = 0.0  # zeros on both sides
    gapped /= gapped.sum()
    edges = []
    for k in (-half, half):  # point masses whose sums fold onto the edges
        edges.append(np.zeros(2 * half + 1))
        edges[-1][half + k] = 1.0
    cases = [(dense, dense), (dense, gapped), (gapped, gapped), (gapped, edges[0]),
             (edges[1], dense), (edges[0], edges[0]), (edges[1], edges[1])]
    for x, y in cases:
        got = Pmf(x, delta, half).convolve(Pmf(y, delta, half)).probs
        want = folded_convolve(x, y, half)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    assert got[-1] == 1.0  # +half + half folds onto +half


def test_variance_keeps_mass_near_the_clamp():
    # E[x^2] - m^2 cancels to 0 here: both terms are ~625
    h, k = DEFAULT_HALF_BINS, int(round(25.0 / DEFAULT_STEP))
    p = np.zeros(2 * h + 1)
    p[h + k] = 1.0 - 1e-20
    p[h + k - 1] = 1e-20
    assert Pmf(p).variance() == pytest.approx(1e-20 * DEFAULT_STEP**2, rel=1e-9, abs=0)


def test_check_transform_degree_two_is_identity_shape():
    a = small_pmf(1.5, 1.2)
    out = check_transform(a, 2)
    assert np.array_equal(out.probs, a.probs)
    with pytest.raises(ValueError):
        check_transform(a, 1)


def test_dde_mass_conserved_long_horizon():
    # regression: per-iteration mass drift is amplified to the
    # (d_c-1)(d_v-1) power, which used to erase the density by iter ~16
    res = dde_run(3, 6, CFG, n_iters=24, saturation=25.0)
    assert np.all(np.isfinite(res.m_ex))
    assert np.all(np.isfinite(res.var_ex))
    assert res.check_pmf.total() == pytest.approx(1.0, abs=1e-9)
    assert res.vc_pmf.total() == pytest.approx(1.0, abs=1e-9)
    # saturated fixed point: mean parks at the clamp bin
    assert res.m_ex[-1] == pytest.approx(25.012, abs=0.01)
    assert res.g_bar[-1] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("d_v, d_c, ebn0_db, sat", [(3, 6, 2.5, 15.0), (4, 8, 2.8, None),
                                                    (3, 6, 3.1, 25.0)])
def test_dde_run_matches_scipy_ndtr_channel(monkeypatch, d_v, d_c, ebn0_db, sat):
    cfg = ChannelConfig(ebn0_db, 1 - d_v / d_c)
    got = dde_run(d_v, d_c, cfg, n_iters=8, saturation=sat)
    monkeypatch.setattr(errorfloor.dde, "ndtr", scipy.special.ndtr)
    want = dde_run(d_v, d_c, cfg, n_iters=8, saturation=sat)
    for key in ("m_ex", "g_bar", "p_e", "m_vc"):
        np.testing.assert_allclose(getattr(got, key), getattr(want, key), rtol=1e-9, atol=0)
    np.testing.assert_allclose(got.var_ex, want.var_ex, rtol=1e-9, atol=0)


DDE_CASES = [(d_v, d_c, ebn0_db, sat) for d_v, d_c in ((3, 6), (4, 8)) for ebn0_db in (2.5, 2.8, 3.1)
             for sat in (15.0, 25.0, None)] + [(6, 32, 2.8, 25.0)]


@pytest.mark.parametrize("d_v, d_c, ebn0_db, sat", DDE_CASES)
def test_dde_run_matches_banded_oracle(monkeypatch, d_v, d_c, ebn0_db, sat):
    cfg = ChannelConfig(ebn0_db, 1 - d_v / d_c)
    n_iters = 2 if d_c > 8 else 4
    got = dde_run(d_v, d_c, cfg, n_iters=n_iters, saturation=sat)
    monkeypatch.setattr(Pmf, "check_pair", banded_check_pair)
    want = dde_run(d_v, d_c, cfg, n_iters=n_iters, saturation=sat)
    for key in ("m_ex", "var_ex", "g_bar", "p_e", "m_vc"):
        np.testing.assert_allclose(getattr(got, key), getattr(want, key), rtol=1e-9, atol=0,
                                   err_msg=key)
    for key in ("check_pmf", "vc_pmf"):
        np.testing.assert_allclose(getattr(got, key).probs, getattr(want, key).probs,
                                   rtol=1e-9, atol=0, err_msg=key)


def test_dde_run_matches_banded_oracle_once_the_clamp_holds(monkeypatch):
    # from iteration 12 on, var_ex is ~1e-24: only mass next to the clamp bin
    cfg = ChannelConfig(3.1, 0.5)
    got = dde_run(3, 6, cfg, n_iters=14, saturation=25.0)
    monkeypatch.setattr(Pmf, "check_pair", banded_check_pair)
    want = dde_run(3, 6, cfg, n_iters=14, saturation=25.0)
    assert 0.0 < want.var_ex[-1] < 1e-20
    np.testing.assert_allclose(got.var_ex, want.var_ex, rtol=1e-9, atol=0)
    np.testing.assert_allclose(got.check_pmf.probs, want.check_pmf.probs, rtol=1e-9, atol=0)


@pytest.mark.parametrize("d_v, d_c", [(1, 6), (0, 6), (3, 1), (3, 0)])
def test_dde_run_rejects_degrees_below_two(d_v, d_c):
    name = "d_v" if d_v < 2 else "d_c"
    with pytest.raises(ValueError, match=f"{name} must be at least 2"):
        dde_run(d_v, d_c, CFG, n_iters=1)


def test_dde_saturation_beyond_grid_warns():
    with pytest.warns(UserWarning, match="grid edge"):
        dde_run(3, 6, CFG, n_iters=1, saturation=100.0)
    # unclamped DE is clamped by the same edge, and says so
    with pytest.warns(UserWarning, match=r"saturation none is beyond the grid edge 50\b"):
        dde_run(3, 6, CFG, n_iters=1, saturation=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dde_run(3, 6, CFG, n_iters=1, saturation=25.0)


def test_growth_threshold_regular_value():
    thr = growth_threshold_regular(3, 6, delta=1.0)
    assert thr == pytest.approx(5.077, abs=1e-3)
    # larger delta relaxes the requirement
    assert growth_threshold_regular(3, 6, delta=1.5) < thr


def test_pointwise_crossing_monotone_in_r():
    m_weak = pointwise_crossing(3, 6, 1.5214, CFG)
    m_strong = pointwise_crossing(3, 6, 1.6956, CFG)
    # stronger sets demand a larger working mean before DE outruns them
    assert m_strong > m_weak
    assert growth_threshold_pointwise(3, 6, 1.6956, m_strong + 0.1, CFG)
    assert not growth_threshold_pointwise(3, 6, 1.6956, m_strong - 0.1, CFG)
