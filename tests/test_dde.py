"""Quantized density evolution: grid ops, conservation, thresholds."""

import functools
import math
import warnings

import numpy as np
import pytest
import scipy.special

import errorfloor.dde
from errorfloor.channel import ChannelConfig
from errorfloor.decoder import check_update_pairwise
from errorfloor.dde import (
    DEFAULT_HALF_BINS,
    DEFAULT_STEP,
    Pmf,
    _band_width,
    channel_pmf,
    check_transform,
    dde_run,
    gaussian_de_step,
    growth_threshold_irregular,
    growth_threshold_pointwise,
    growth_threshold_regular,
    phi,
    phi_inv,
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
    # once the clamp holds, var_ex is E[x^2] - E[x]^2 of two ~clamp^2 numbers,
    # whose last digits are rounding noise: compare it relative to max(|var_ex|, 1)
    np.testing.assert_allclose(got.var_ex, want.var_ex, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("d_v, d_c", [(1, 6), (0, 6), (3, 1), (3, 0)])
def test_dde_run_rejects_degrees_below_two(d_v, d_c):
    name = "d_v" if d_v < 2 else "d_c"
    with pytest.raises(ValueError, match=f"{name} must be at least 2"):
        dde_run(d_v, d_c, CFG, n_iters=1)


def test_dde_saturation_beyond_grid_warns():
    with pytest.warns(UserWarning, match="grid edge"):
        dde_run(3, 6, CFG, n_iters=1, saturation=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dde_run(3, 6, CFG, n_iters=1, saturation=25.0)


def test_phi_round_trip():
    assert phi(0.0) == pytest.approx(1.0)
    for x in [0.3, 2.0, 11.0, 40.0, 300.0]:
        assert phi_inv(phi(x)) == pytest.approx(x, rel=1e-6)
    assert phi(800.0) > 0.0  # asymptotic branch stays positive
    xs = np.linspace(0.01, 50, 200)
    vals = np.array([phi(float(x)) for x in xs])
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        phi_inv(1.5)


def test_gaussian_de_tracks_dde_variable_mean():
    res = dde_run(3, 6, CFG, n_iters=6, saturation=None)
    m_gauss = 0.0
    for l in range(6):
        m_gauss = gaussian_de_step(m_gauss, CFG, 3, 6)
        full_dde = CFG.mean_llr + 2 * res.m_ex[l]
        full_gauss = CFG.mean_llr + 2 * m_gauss
        assert full_gauss == pytest.approx(full_dde, rel=0.05)


def test_growth_threshold_regular_value():
    thr = growth_threshold_regular(3, 6, delta=1.0)
    assert thr == pytest.approx(5.077, abs=1e-3)
    # larger delta relaxes the requirement
    assert growth_threshold_regular(3, 6, delta=1.5) < thr


def test_growth_threshold_irregular_degenerates_to_regular():
    thr = growth_threshold_irregular({3: 1.0}, {6: 1.0})
    assert thr == pytest.approx(growth_threshold_regular(3, 6), rel=1e-12)
    with pytest.raises(ValueError):
        growth_threshold_irregular({3: 0.9}, {6: 1.0})


def test_pointwise_crossing_monotone_in_r():
    m_weak = pointwise_crossing(3, 6, 1.5214, CFG)
    m_strong = pointwise_crossing(3, 6, 1.6956, CFG)
    # stronger sets demand a larger working mean before DE outruns them
    assert m_strong > m_weak
    assert growth_threshold_pointwise(3, 6, 1.6956, m_strong + 0.1, CFG)
    assert not growth_threshold_pointwise(3, 6, 1.6956, m_strong - 0.1, CFG)
