"""Monte Carlo harness: noise rotation, integration, reproducibility."""

import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.special
from scipy.special import ndtr

import errorfloor.simharness

from errorfloor.channel import ChannelConfig, frame_rng, qfunc
from errorfloor.decoder import DecoderConfig
from errorfloor.simharness import (
    GridCoverageWarning,
    McConfig,
    SemiAnalyticConfig,
    _rotated_noise,
    conditional_failure,
    integrate_floor,
    run_monte_carlo,
    semi_analytic_floor,
    wilson_interval,
)
from errorfloor.tanner import ParityCheckMatrix, random_regular_code

CFG = ChannelConfig(2.0, 0.5)


def test_wilson_interval_anchors():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.403, abs=0.005)
    assert hi == pytest.approx(0.597, abs=0.005)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0, abs=1e-12) and lo > 0.95
    assert wilson_interval(0, 0) == (0.0, 1.0)  # vacuous


def test_rotated_noise_mean_and_margins():
    T = (2, 5, 7)
    a = len(T)
    s = -1.3
    rng = frame_rng(0)
    frames = np.stack([_rotated_noise(T, s, CFG, rng, 24, 1)[0] for _ in range(20_000)])
    on = frames[:, list(T)]
    off = np.delete(frames, list(T), axis=1)
    # the set-average noise is pinned at s, per frame, in LLR units
    pinned = CFG.llr_scale * (1.0 + s)
    np.testing.assert_allclose(on.mean(axis=1), pinned, atol=1e-9)
    # each on-set LLR keeps variance scale^2 sigma^2 (a-1)/a
    assert on.var() == pytest.approx(
        CFG.llr_scale**2 * CFG.sigma2 * (a - 1) / a, rel=0.05
    )
    # off-set entries are untouched channel LLRs: N(m, 2m)
    assert off.mean() == pytest.approx(CFG.mean_llr, rel=0.01)
    assert off.var() == pytest.approx(2 * CFG.mean_llr, rel=0.03)


def test_rotated_noise_single_variable_pins_exactly():
    rng = frame_rng(1)
    f = _rotated_noise((4,), -0.9, CFG, rng, 10, 1)[0]
    assert f[4] == pytest.approx(CFG.llr_scale * 0.1, abs=1e-12)
    with pytest.raises(ValueError, match="a >= 1"):
        SemiAnalyticConfig(trap_set=())


def test_integrate_floor_saturated_curve():
    grid = np.linspace(-6 * CFG.sigma, 6 * CFG.sigma, 9)
    p = integrate_floor(grid, np.ones_like(grid), CFG, a=1)
    assert p == pytest.approx(1.0, abs=1e-6)


def test_integrate_floor_step_curve():
    a, s0 = 4, -0.7
    scale = CFG.sigma / math.sqrt(a)
    grid = np.array([s0 - 8 * scale, s0 - 1e-6, s0 + 1e-6, s0 + 8 * scale])
    cond = np.array([1.0, 1.0, 0.0, 0.0])
    p = integrate_floor(grid, cond, CFG, a)
    assert p == pytest.approx(ndtr(s0 / scale), rel=1e-3)


# conditional failure rates of criterion 10's (5,1) set at 2.8 dB, clamps 15 and 25
_C10_GRID = [-2.2, -2.0, -1.8, -1.6, -1.4, -1.3, -1.2, -1.1, -1.0, -0.8]
_C10_CURVES = (
    [0.90234375, 0.93359375, 0.91796875, 0.8984375, 0.86328125, 0.70703125, 0.453125,
     0.134765625, 0.013020833333333334, 0.0001],
    [0.841796875, 0.8515625, 0.80078125, 0.75390625, 0.640625, 0.41796875, 0.21875,
     0.0634765625, 0.005326704545454545, 0.0001],
)


@pytest.mark.parametrize("cond", _C10_CURVES)
def test_integrate_floor_matches_scipy_ndtr(monkeypatch, cond):
    cfg = ChannelConfig(2.8, 0.5)
    got = integrate_floor(_C10_GRID, cond, cfg, a=5, warn=False)
    monkeypatch.setattr(errorfloor.simharness, "ndtr", scipy.special.ndtr)
    want = integrate_floor(_C10_GRID, cond, cfg, a=5, warn=False)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_integrate_floor_warns_on_short_grid():
    grid = np.linspace(-0.2, 0.2, 5)  # leaves heavy mass outside
    with pytest.warns(GridCoverageWarning):
        integrate_floor(grid, np.ones_like(grid), CFG, a=1, warn=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_floor(grid, np.ones_like(grid), CFG, a=1, warn=False)


def test_monte_carlo_repetition_code_oracle():
    # tree code: flooding rounds make every marginal the full LLR sum,
    # so a frame fails exactly when the sum goes negative
    H = ParityCheckMatrix([[0, 1], [1, 2]], 3)
    cfg = ChannelConfig(0.0, 0.5)
    dec = DecoderConfig(mode="pairwise", max_iters=10)
    res = run_monte_carlo(H, cfg, dec, McConfig(max_frames=20_000, seed=4))
    want = qfunc(math.sqrt(6 * cfg.rate * cfg.ebn0))
    se = math.sqrt(want * (1 - want) / res.frames)
    assert res.fer == pytest.approx(want, abs=4 * se)
    assert res.fer_ci[0] < want < res.fer_ci[1]
    assert res.ber <= res.fer
    assert res.frames == 20_000


def test_monte_carlo_worker_invariance(small_code):
    dec = DecoderConfig(mode="pairwise", max_iters=30)
    mc1 = McConfig(max_frames=2_000, seed=8, workers=1, batch_size=256)
    mc2 = McConfig(max_frames=2_000, seed=8, workers=2, batch_size=256)
    r1 = run_monte_carlo(small_code, CFG, dec, mc1)
    r2 = run_monte_carlo(small_code, CFG, dec, mc2)
    assert r1.frame_errors == r2.frame_errors
    assert r1.bit_errors == r2.bit_errors
    assert [(f.frame, f.failed_set) for f in r1.failures] == [
        (f.frame, f.failed_set) for f in r2.failures
    ]


def test_monte_carlo_target_errors_stops_early(small_code):
    dec = DecoderConfig(mode="pairwise", max_iters=30)
    # 2.5 dB in 32-frame batches stops at the fifth batch, with batches
    # still pending in the two-worker pool's window
    for ebn0, batch_size, stop in ((0.5, 128, 128), (2.5, 32, 160)):
        res = [
            run_monte_carlo(
                small_code, ChannelConfig(ebn0, 0.5), dec,
                McConfig(max_frames=50_000, target_errors=20, seed=1, batch_size=batch_size,
                         workers=workers),
            )
            for workers in (1, 2)
        ]
        assert res[0].frame_errors >= 20
        assert res[0].frames == stop
        # batches are aggregated in order, so both worker counts stop at the same frame
        assert asdict(res[1]) == asdict(res[0])


def test_semi_analytic_config_validation():
    with pytest.raises(ValueError):
        SemiAnalyticConfig(trap_set=())
    with pytest.raises(ValueError):
        SemiAnalyticConfig(trap_set=(0, 1), s_grid=(-1.0, -1.5))
    with pytest.raises(ValueError):
        SemiAnalyticConfig(trap_set=(0, 1), s_grid=(-1.0, 0.5))
    with pytest.raises(ValueError):
        SemiAnalyticConfig(trap_set=(0, 1), mode="bogus")
    for bad in (float("nan"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            SemiAnalyticConfig(trap_set=(0, 1), s_grid=(bad, -1.0))


@pytest.mark.parametrize("kw", [
    {"frames_per_point": 0}, {"target_failures": 0},
    {"target_failures": -1}, {"refine_rounds": -1},
])
def test_semi_analytic_config_rejects_degenerate_run_sizes(kw):
    # frames_per_point 0 used to yield a floor of 0.0 from zero frames and
    # target_failures 0 stopped every grid point after one batch
    with pytest.raises(ValueError, match="at least"):
        SemiAnalyticConfig(trap_set=(0, 1), **kw)


@pytest.fixture(scope="module")
def planted_code():
    cw = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    return random_regular_code(120, 3, 6, seed=5, planted=cw)


def test_conditional_failure_modes_and_determinism(planted_code):
    dec = DecoderConfig(mode="pairwise", max_iters=30, saturation=25.0)
    # a failure target at the frame budget never stops a point early
    sa = SemiAnalyticConfig(
        trap_set=(0, 1, 2, 3), frames_per_point=2_000, target_failures=2_000, seed=3
    )
    est = conditional_failure(planted_code, sa, -2.0, CFG, dec)
    est2 = conditional_failure(planted_code, sa, -2.0, CFG, dec)
    assert est.failures == est2.failures and est.frames == est2.frames
    assert est.p > 0.5  # deep in the failure region
    assert est.ci[0] <= est.p <= est.ci[1]
    sat = conditional_failure(
        planted_code, replace(sa, mode="saturation-phase", sat_iters=10), -2.0, CFG, dec
    )
    assert 0.0 <= sat.p <= 1.0
    assert sat.frames == 2_000


def test_saturation_phase_window_is_the_decoders(planted_code, monkeypatch):
    # the second phase is the given decoder at its clamp and window; the
    # first runs it unclamped
    seen = []
    real = errorfloor.simharness.decode_batch

    def spy(H, llrs, cfg, **kw):
        seen.append(cfg)
        return real(H, llrs, cfg, **kw)

    monkeypatch.setattr(errorfloor.simharness, "decode_batch", spy)
    dec = DecoderConfig(mode="pairwise", max_iters=6, saturation=15.0, ec_window=3)
    sa = SemiAnalyticConfig(trap_set=(0, 1, 2, 3), frames_per_point=8,
                            mode="saturation-phase", sat_iters=5)
    conditional_failure(planted_code, sa, -2.0, CFG, dec)
    assert [(c.max_iters, c.saturation, c.ec_window) for c in seen] == [(6, None, 3),
                                                                        (5, 15.0, 3)]
    with pytest.raises(ValueError, match="saturation limit"):
        conditional_failure(planted_code, sa, -2.0, CFG, replace(dec, saturation=None))


def test_semi_analytic_refine_grows_grid(planted_code):
    dec = DecoderConfig(mode="pairwise", max_iters=30, saturation=25.0)
    base = SemiAnalyticConfig(
        trap_set=(0, 1, 2, 3),
        s_grid=tuple(np.linspace(-2.4, -0.6, 5)),
        frames_per_point=800,
        target_failures=30,
        seed=2,
    )
    est = semi_analytic_floor(planted_code, CFG, dec, base)
    ref = semi_analytic_floor(
        planted_code, CFG, dec,
        SemiAnalyticConfig(**{**base.__dict__, "refine_rounds": 1}),
    )
    assert len(ref.s_grid) > len(est.s_grid)
    assert est.value > 0
    assert est.ci[0] <= est.value <= est.ci[1]
    assert np.all(np.diff(ref.s_grid) > 0)


def test_semi_analytic_worker_invariance(planted_code):
    dec = DecoderConfig(mode="pairwise", max_iters=20, saturation=25.0)
    sa = SemiAnalyticConfig(
        trap_set=(0, 1, 2, 3), s_grid=tuple(np.linspace(-2.4, -0.6, 4)),
        frames_per_point=300, target_failures=20, seed=4, refine_rounds=2,
    )
    one = semi_analytic_floor(planted_code, CFG, dec, sa, workers=1)
    two = semi_analytic_floor(planted_code, CFG, dec, sa, workers=2)
    assert len(one.s_grid) == 6
    for key, value in asdict(one).items():
        np.testing.assert_array_equal(getattr(two, key), value, err_msg=key)
    with pytest.raises(ValueError, match="workers"):
        semi_analytic_floor(planted_code, CFG, dec, sa, workers=0)
