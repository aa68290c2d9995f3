"""Channel model: Q function, LLR statistics, reproducible noise."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from errorfloor.channel import (
    ChannelConfig,
    frame_rng,
    ndtr,
    ordered_map,
    qfunc,
    sample_llrs,
)
from errorfloor.statespace import codeword_failure_probability


def test_qfunc_anchors():
    assert qfunc(0.0) == pytest.approx(0.5)
    assert qfunc(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)
    assert qfunc(np.inf) == 0.0
    assert qfunc(-np.inf) == 1.0


@given(st.floats(-8, 8))
def test_qfunc_symmetry(x):
    assert qfunc(-x) + qfunc(x) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(-6, 6), st.floats(0.01, 6))
def test_qfunc_monotone(x, step):
    assert qfunc(x + step) < qfunc(x)


def _rel_err_where_normal(got, want):
    """Largest relative error over the entries whose value is >= 1e-300."""
    keep = want >= 1e-300
    assert keep.sum() > 0
    return float(np.max(np.abs(got[keep] - want[keep]) / want[keep]))


def test_qfunc_matches_scipy_erfc():
    x = np.concatenate([np.linspace(-40.0, 40.0, 40_001), [-1e-300, 0.0, 1e-300, 37.0]])
    want = 0.5 * special.erfc(x / math.sqrt(2.0))
    assert _rel_err_where_normal(qfunc(x), want) <= 1e-12
    for xi in (-8.5, -1.0, 0.25, 3.0, 12.0, 36.5):
        w = 0.5 * special.erfc(xi / math.sqrt(2.0))
        assert abs(qfunc(xi) - w) <= 1e-12 * w


def test_ndtr_matches_scipy():
    x = np.concatenate([np.linspace(-40.0, 40.0, 40_001), [-37.0, -1e-300, 0.0]])
    assert _rel_err_where_normal(ndtr(x), special.ndtr(x)) <= 1e-12
    for xi in (-36.5, -5.0, -0.5, 0.0, 2.0, 9.0):
        assert abs(ndtr(xi) - special.ndtr(xi)) <= 1e-12 * special.ndtr(xi)


@pytest.mark.parametrize("fn", [qfunc, ndtr])
def test_tail_helpers_keep_shape_and_dtype(fn):
    for x in (0.5, 2, np.float32(1.5), np.array(0.5)):
        y = fn(x)
        assert np.ndim(y) == 0 and np.asarray(y).dtype == np.float64
    for shape in ((0,), (5,), (3, 4), (2, 0, 3)):
        x = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        y = fn(x)
        assert isinstance(y, np.ndarray) and y.shape == shape and y.dtype == np.float64
    assert fn([1, 2, 3]).dtype == np.float64


def test_tail_helpers_at_infinity_and_nan():
    assert ndtr(np.inf) == 1.0 and ndtr(-np.inf) == 0.0
    assert math.isnan(qfunc(np.nan)) and math.isnan(ndtr(np.nan))
    y = qfunc(np.array([-np.inf, np.nan, np.inf]))
    assert y[0] == 1.0 and math.isnan(y[1]) and y[2] == 0.0


def test_qfunc_keeps_subnormal_tail():
    # libm's erfc does not flush to zero below the smallest normal double
    # (scipy's erfc returns 0 here)
    assert 0.0 < qfunc(38.0) < np.finfo(float).tiny
    assert qfunc(38.0) < qfunc(37.9)


def test_config_moments():
    cfg = ChannelConfig(2.8, 0.5)
    ebn0 = 10 ** 0.28
    assert cfg.ebn0 == pytest.approx(ebn0, rel=1e-12)
    assert cfg.sigma2 == pytest.approx(1.0 / (2 * 0.5 * ebn0), rel=1e-12)
    assert cfg.llr_scale == pytest.approx(2.0 / cfg.sigma2, rel=1e-12)
    # all-zero BPSK: LLR mean is 4 R Eb/N0, variance twice that
    assert cfg.mean_llr == pytest.approx(4 * 0.5 * ebn0, rel=1e-12)
    assert cfg.mean_llr == pytest.approx(3.8109214, abs=1e-6)


@pytest.mark.parametrize("ebn0_db,rate", [(2.8, 0.5), (5.0, 0.841), (0.0, 0.25)])
def test_llr_from_symbol_affine(ebn0_db, rate):
    # the LLR of the received symbol 1 + n is (2/sigma^2) * (1 + n)
    cfg = ChannelConfig(ebn0_db, rate)
    noise = frame_rng(4, 0).normal(0.0, cfg.sigma, size=3)
    llr = sample_llrs(cfg, frame_rng(4, 0), 3)
    assert llr == pytest.approx(cfg.llr_scale * (1.0 + noise))


def test_llr_sample_moments():
    cfg = ChannelConfig(2.8, 0.5)
    rng = frame_rng(7, 0)
    llr = sample_llrs(cfg, rng, 200_000)
    assert llr.mean() == pytest.approx(cfg.mean_llr, rel=0.02)
    assert llr.var() == pytest.approx(2 * cfg.mean_llr, rel=0.02)


def test_frame_rng_reproducible():
    a = frame_rng(3, 5).normal(size=8)
    b = frame_rng(3, 5).normal(size=8)
    c = frame_rng(3, 6).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_llrs_batch_equals_row_draws():
    cfg = ChannelConfig(2.8, 0.5)
    rng = frame_rng(2, 1)
    rows = np.stack([sample_llrs(cfg, rng, 48) for _ in range(5)])
    assert np.array_equal(sample_llrs(cfg, frame_rng(2, 1), (5, 48)), rows)


def _square(x):
    return x * x


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_keeps_task_order(workers):
    tasks = list(range(20))  # more than the 4 * workers in-flight window
    assert list(ordered_map(_square, tasks, workers)) == [x * x for x in tasks]
    assert list(ordered_map(_square, [], workers)) == []


def test_ordered_map_rejects_workers_below_one():
    calls = []
    with pytest.raises(ValueError, match="workers"):
        next(ordered_map(calls.append, [1, 2], 0))
    assert calls == []


def test_uncoded_error_prob():
    cfg = ChannelConfig(2.8, 0.5)
    # a weight-1 word fails as the raw channel does: P{1 + n < 0}, n ~ N(0, sigma^2)
    assert codeword_failure_probability(cfg, 1) == pytest.approx(qfunc(1.0 / cfg.sigma), rel=1e-12)


def test_invalid_config():
    with pytest.raises(ValueError):
        ChannelConfig(2.8, 0.0)
    with pytest.raises(ValueError):
        ChannelConfig(2.8, 1.5)
