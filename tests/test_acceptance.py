"""Acceptance suite: the package's externally promised behaviours.

Each test guards one promise and records a [PASS]/[FAIL] line that the
terminal-summary hook echoes after the run.  Golden numbers live next to
the tests that consume them.
"""

import functools
import itertools
import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from errorfloor.census import generate_classes, emit_table
from errorfloor.channel import (
    ChannelConfig,
    frame_rng,
    qfunc,
    sample_llrs,
)
from errorfloor.decoder import DecoderConfig, check_update_exact, check_update_pairwise
from errorfloor.dde import (
    dde_run,
    growth_threshold_pointwise,
    growth_threshold_regular,
    pointwise_crossing,
)
from errorfloor.floorpred import PredictionJob, predict_curve, stats_from_dde
from errorfloor.graphs import Multigraph, state_digraphs
from errorfloor.simharness import (
    McConfig,
    SemiAnalyticConfig,
    run_monte_carlo,
    semi_analytic_floor,
    wilson_interval,
)
from errorfloor.spectral import frobenius_bounds, spectral_summary
from errorfloor.statespace import build_model, codeword_failure_probability
from errorfloor.tanner import induce, random_regular_code

CFG28 = ChannelConfig(2.8, 0.5)


def criterion(num, desc):
    """Record one pass/fail summary line for an acceptance test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as e:
                detail = f"{type(e).__name__}: {e}"[:120]
                ACCEPTANCE_LINES.append(
                    (num, f"[FAIL] criterion {num}: {desc} ({detail})")
                )
                raise
            ACCEPTANCE_LINES.append((num, f"[PASS] criterion {num}: {desc}"))

        return wrapper

    return deco


@pytest.fixture(scope="module")
def golden_trace():
    """Saturated density evolution trace shared by criteria 6 and 7."""
    return dde_run(3, 6, CFG28, n_iters=10, saturation=25.0)


@pytest.fixture(scope="module")
def trap_code():
    """(3,6) host with a five-variable single-unsatisfied-check set planted."""
    return random_regular_code(
        256, 3, 6, seed=2,
        planted=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1,)],
    )


@pytest.fixture(scope="module")
def codeword_code():
    """(3,6) host with a weight-4 codeword planted on variables 0-3."""
    return random_regular_code(
        256, 3, 6, seed=5,
        planted=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    )


@criterion(1, "pairwise and exact-tanh check updates agree to 1e-9")
def test_criterion_01_check_update_equivalence():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100_000):
        k = int(rng.integers(3, 33))
        msgs = rng.uniform(-30.0, 30.0, size=k)
        worst = max(worst, abs(check_update_pairwise(msgs) - check_update_exact(msgs)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9, f"max deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "pairwise never overflows; exact-tanh flags rounded products")
def test_criterion_02_overflow_behaviour():
    big = 1e300
    for msgs in ([big, -big, big], [big] * 8, [-big, big], [big, 0.5, -big]):
        assert math.isfinite(check_update_pairwise(msgs))
    # one-sided magnitudes survive: sign(prod) * min carries through
    assert check_update_pairwise([big, -big, big]) == -big
    # any factor past the double-rounding point contributes exactly 1
    assert math.isinf(check_update_exact([38.1231, 38.1231]))
    assert math.isinf(check_update_exact([39.0] * 5))
    assert math.isfinite(check_update_exact([38.1230, 38.1230]))
    # a single surviving factor keeps the output finite
    assert check_update_exact([39.0, 0.5]) == pytest.approx(0.5, abs=1e-12)


def spectrum_of(G):
    return spectral_summary(state_digraphs([G])[3].astype(float))[0]


@criterion(3, "spectral radius goldens for the small canonical graphs")
def test_criterion_03_spectral_goldens():
    t0 = time.perf_counter()
    three_one = spectrum_of(Multigraph(3, [(0, 1), (0, 1), (0, 2), (1, 2)]))
    assert three_one.r == pytest.approx(1.6956, abs=5e-4)

    (four_two,) = generate_classes(3, 4, 2)
    assert spectrum_of(four_two).r == pytest.approx(1.5214, abs=5e-4)

    five_three = [spectrum_of(G) for G in generate_classes(3, 5, 3)]
    sqrt2 = [s for s in five_three if abs(s.r - math.sqrt(2)) < 1e-6]
    assert len(sqrt2) == 1 and sqrt2[0].h == 4

    summ = spectrum_of(Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert summ.r == 1.0
    assert summ.reducible_cycle_case

    for d_v, a in ((3, 4), (3, 6), (4, 5), (5, 6)):
        for G in generate_classes(d_v, a, 0):
            assert spectrum_of(G).r == pytest.approx(d_v - 1, abs=1e-9)
    assert time.perf_counter() - t0 < 1.0


# reference state-space realization of the four-variable, two-external
# set at d_v = 3, quoted up to a symmetric permutation of the states
REF_A = np.array([
    [0, 0, 0, 0, 0, 1, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
], dtype=float)
REF_B = np.zeros((10, 4))
REF_B[0:3, 0] = REF_B[3:5, 1] = REF_B[5:8, 2] = REF_B[8:10, 3] = 1.0
REF_B_EX = np.zeros((10, 2))
REF_B_EX[3:5, 0] = REF_B_EX[8:10, 1] = 1.0
REF_C = np.array([
    [0, 0, 0, 1, 0, 1, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 0, 0, 1, 0, 0],
], dtype=float)
REF_D_EX = np.zeros((4, 2))
REF_D_EX[1, 0] = REF_D_EX[3, 1] = 1.0


@criterion(4, "state-space realization matches the reference matrices")
def test_criterion_04_state_space_realization():
    diamond = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    H = random_regular_code(48, 3, 6, seed=5, planted=diamond)
    model = build_model(induce(H, (0, 1, 2, 3)), 3)
    assert (model.m, model.a, model.b) == (10, 4, 2)

    ref_tails = REF_B.argmax(axis=1)
    ref_heads = REF_C.T.argmax(axis=1)
    ref_arcs = {(int(ref_tails[k]), int(ref_heads[k])): k for k in range(10)}
    ref_edges = {frozenset(arc) for arc in ref_arcs}
    ours = [(t, h) for (t, h, _) in model.states]

    matched = False
    for sigma in itertools.permutations(range(4)):
        if {frozenset((sigma[u], sigma[v])) for u, v in diamond} != ref_edges:
            continue
        pi = [ref_arcs[(sigma[t], sigma[h])] for (t, h) in ours]
        P = np.zeros((10, 10))
        P[pi, range(10)] = 1.0
        S = np.zeros((4, 4))
        S[[sigma[v] for v in range(4)], range(4)] = 1.0
        for tau in itertools.permutations(range(2)):
            T = np.zeros((2, 2))
            T[list(tau), range(2)] = 1.0
            if (np.array_equal(P @ model.A @ P.T, REF_A)
                    and np.array_equal(P @ model.B @ S.T, REF_B)
                    and np.array_equal(P @ model.B_ex @ T.T, REF_B_EX)
                    and np.array_equal(S @ model.C @ P.T, REF_C)
                    and np.array_equal(S @ model.D_ex @ T.T, REF_D_EX)):
                matched = True
    assert matched, "no state permutation reproduces the reference matrices"


# golden census rows {(a, b): (count, h_max, r_min, r_max)}
CENSUS_DV3 = {  # r_max > 1.3 cutoff
    (4, 0): (1, 1, 2.0, 2.0), (4, 2): (1, 1, 1.521, 1.521),
    (5, 1): (1, 1, 1.829, 1.829), (5, 3): (2, 4, 1.414, 1.424),
    (6, 0): (2, 2, 2.0, 2.0), (6, 2): (4, 2, 1.696, 1.729),
    (6, 4): (4, 2, 1.348, 1.361), (7, 1): (4, 1, 1.883, 1.888),
    (7, 3): (10, 2, 1.599, 1.665), (7, 5): (6, 2, 1.298, 1.316),
    (8, 0): (5, 2, 2.0, 2.0), (8, 2): (19, 2, 1.780, 1.870),
    (8, 4): (25, 2, 1.521, 1.622),
}
CENSUS_DV4 = {
    (4, 4): (1, 1, 2.0, 2.0), (5, 0): (1, 1, 3.0, 3.0),
    (5, 2): (1, 1, 2.629, 2.629), (5, 4): (1, 1, 2.219, 2.219),
    (6, 0): (1, 1, 3.0, 3.0), (6, 2): (2, 1, 2.697, 2.710),
    (6, 4): (3, 1, 2.355, 2.367), (6, 6): (2, 2, 2.0, 2.0),
    (7, 0): (2, 1, 3.0, 3.0), (7, 2): (7, 1, 2.744, 2.762),
    (7, 4): (11, 2, 2.449, 2.480), (7, 6): (4, 1, 2.159, 2.160),
    (8, 0): (6, 2, 3.0, 3.0), (8, 2): (28, 2, 2.778, 2.805),
    (8, 4): (50, 2, 2.525, 2.585), (8, 6): (28, 2, 2.272, 2.296),
    (8, 8): (5, 2, 2.0, 2.0),
}


@criterion(5, "census tables reproduce the golden counts and spectra")
def test_criterion_05_census_goldens():
    t0 = time.perf_counter()
    for d_v, cutoff, golden in ((3, 1.3, CENSUS_DV3), (4, None, CENSUS_DV4)):
        rows = {(r.a, r.b): r for r in emit_table(d_v, 8, r_cutoff=cutoff)}
        assert set(rows) == set(golden), f"(a,b) keys differ at d_v={d_v}"
        for key, (count, h_max, r_min, r_max) in golden.items():
            row = rows[key]
            assert row.count == count, f"{key} count {row.count} != {count}"
            assert row.h_max == h_max, f"{key} h_max {row.h_max} != {h_max}"
            assert row.r_min == pytest.approx(r_min, abs=1e-3)
            assert row.r_max == pytest.approx(r_max, abs=1e-3)
    assert time.perf_counter() - t0 < 600.0


# (mean, variance, gain) of the saturated check output per iteration,
# (3,6) at 2.8 dB, clamp 25, step 50/2047
GOLDEN_TRACE = (
    (0.669, 1.47, 0.3242),
    (1.315, 2.81, 0.4898),
    (2.08, 4.24, 0.6243),
    (3.11, 5.94, 0.7472),
    (4.66, 8.05, 0.8586),
    (7.21, 10.74, 0.9446),
    (11.66, 14.22, 0.9891),
    (19.67, 16.59, 0.9995),
    (24.91, 0.47, 1.0000),
    (25.00, 0.00, 1.0000),
)


@criterion(6, "density evolution reproduces the golden ten-iteration trace")
def test_criterion_06_density_evolution_goldens(golden_trace):
    t0 = time.perf_counter()
    res = golden_trace
    assert len(res.m_ex) == 10
    for i, (mean, var, gain) in enumerate(GOLDEN_TRACE):
        assert res.m_ex[i] == pytest.approx(mean, rel=0.03), f"mean, iteration {i + 1}"
        if var < 1.0:
            assert res.var_ex[i] == pytest.approx(var, abs=0.05), f"var, iteration {i + 1}"
        else:
            assert res.var_ex[i] == pytest.approx(var, rel=0.05), f"var, iteration {i + 1}"
        assert res.g_bar[i] == pytest.approx(gain, abs=0.005), f"gain, iteration {i + 1}"
    assert time.perf_counter() - t0 < 300.0


@criterion(7, "growth thresholds: regular, pointwise crossing, trace entry")
def test_criterion_07_growth_thresholds(golden_trace):
    thr = growth_threshold_regular(3, 6, delta=1.0)
    assert thr == pytest.approx(5.077, abs=1e-3)

    crossing = pointwise_crossing(3, 6, 1.6956, CFG28)
    assert crossing == pytest.approx(8.6, abs=0.3)

    # mean entering iteration l is the trace mean of iteration l-1
    entering = [0.0] + list(golden_trace.m_ex)
    satisfied = [
        l
        for l in range(1, len(entering))
        if growth_threshold_pointwise(3, 6, 1.6956, entering[l - 1], CFG28)
    ]
    assert satisfied and satisfied[0] == 8


@criterion(8, "codeword failure probability is closed-form, horizon-free")
def test_criterion_08_codeword_closed_form():
    for w in (4, 6, 10):
        want = qfunc(math.sqrt(2 * CFG28.rate * CFG28.ebn0 * w))
        assert codeword_failure_probability(CFG28, w) == pytest.approx(want, rel=1e-12)

    from errorfloor.floorpred import predict_set

    H = random_regular_code(
        48, 3, 6, seed=5, planted=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )
    want = codeword_failure_probability(CFG28, 4)
    model = build_model(induce(H, (0, 1, 2, 3)), 3)
    outs = []
    for horizon in (4, 9):
        stats = stats_from_dde(CFG28, 3, 6, n_iters=horizon, saturation=25.0)
        p = predict_set(model, stats, horizon, 3)
        assert p.p_fail == pytest.approx(want, rel=1e-12)
        outs.append(p.p_fail)
    assert outs[0] == pytest.approx(outs[1], rel=1e-12)


@criterion(9, "channel LLR mean golden; sampled variance is twice the mean")
def test_criterion_09_channel_moments():
    assert CFG28.mean_llr == pytest.approx(3.8109, abs=1e-4)
    rng = frame_rng(42)
    llrs = sample_llrs(CFG28, rng, 1_000_000)
    mean, var = llrs.mean(), llrs.var()
    assert mean == pytest.approx(CFG28.mean_llr, rel=0.01)
    assert var == pytest.approx(2.0 * mean, rel=0.01)


def _crossing_db(grid_db, fer, target):
    """dB at which a decreasing FER curve reaches `target` (log-linear)."""
    logf, logt = np.log(fer), math.log(target)
    for i in range(len(grid_db) - 1):
        if (logf[i] - logt) * (logf[i + 1] - logt) <= 0:
            frac = (logf[i] - logt) / (logf[i] - logf[i + 1])
            return grid_db[i] + frac * (grid_db[i + 1] - grid_db[i])
    raise AssertionError("simulated floor lies outside the predicted curve")


@pytest.mark.filterwarnings("ignore:saturation 100 is beyond the grid edge")
@criterion(10, "saturation ordering; prediction within 0.5 dB of simulation")
def test_criterion_10_saturation_study(trap_code):
    T = (0, 1, 2, 3, 4)
    grid_db = (2.5, 2.6, 2.7, 2.8, 2.9)
    sats = (15.0, 25.0, 100.0)

    predicted = {}
    for sat in sats:
        job = PredictionJob(
            H=trap_code, sets=(T,), snr_grid=grid_db, rate=0.5,
            saturation=sat, horizon=20,
        )
        predicted[sat] = predict_curve(job).fer
    at28 = {sat: predicted[sat][grid_db.index(2.8)] for sat in sats}
    assert at28[15.0] > at28[25.0] > at28[100.0]

    simulated, captures = {}, {}
    for sat in sats:
        dec = DecoderConfig(
            mode="pairwise", max_iters=50, saturation=sat, ec_window=12
        )
        sa = SemiAnalyticConfig(
            trap_set=T,
            s_grid=tuple(np.linspace(-2.2, -0.8, 8)),
            frames_per_point=20_000 if sat < 100.0 else 2_000,
            target_failures=60,
            mode="exact-match",
            seed=11,
            refine_rounds=2 if sat < 100.0 else 0,
        )
        est = semi_analytic_floor(trap_code, CFG28, dec, sa)
        simulated[sat] = est.value
        captures[sat] = int(np.rint(est.cond * est.frames).sum())
    assert simulated[15.0] > simulated[25.0] > simulated[100.0]

    for sat in sats:
        if captures[sat] >= 100 and simulated[sat] >= 1e-6:
            db = _crossing_db(grid_db, predicted[sat], simulated[sat])
            assert abs(db - 2.8) <= 0.5, f"sat {sat}: displaced {abs(db - 2.8):.2f} dB"
    # the tight clamps must actually support the displacement claim
    assert captures[15.0] >= 100 and captures[25.0] >= 100
    assert simulated[15.0] >= 1e-6 and simulated[25.0] >= 1e-6


@criterion(11, "direct and importance-sampled floor estimates agree")
def test_criterion_11_monte_carlo_consistency(codeword_code):
    t0 = time.perf_counter()
    T = (0, 1, 2, 3)
    cfg = ChannelConfig(2.4, 0.5)
    dec = DecoderConfig(mode="pairwise", max_iters=50, saturation=25.0, ec_window=12)

    mc = run_monte_carlo(
        codeword_code, cfg, dec, McConfig(max_frames=200_000, seed=3, batch_size=1024)
    )
    k = sum(1 for f in mc.failures if tuple(f.failed_set) == T)
    direct = k / mc.frames
    assert direct >= 1e-5, "operating point too clean for a direct estimate"
    direct_ci = wilson_interval(k, mc.frames)

    sa = SemiAnalyticConfig(
        trap_set=T,
        s_grid=tuple(np.linspace(-2.4, -0.4, 11)),
        frames_per_point=20_000,
        target_failures=80,
        mode="exact-match",
        seed=9,
        refine_rounds=2,
    )
    est = semi_analytic_floor(codeword_code, cfg, dec, sa)

    assert max(direct_ci[0], est.ci[0]) <= min(direct_ci[1], est.ci[1]), (
        f"disjoint 95% intervals: direct {direct_ci}, conditional {est.ci}"
    )
    assert mc.frames + est.frames.sum() <= 1e7
    assert time.perf_counter() - t0 < 1800.0


@criterion(12, "spectral bounds hold for every census class, d_v in {3,4,5}")
def test_criterion_12_spectral_bounds_sweep():
    checked = 0
    for d_v in (3, 4, 5):
        dmin = d_v // 2 + 1
        for a in range(2, 9):
            for b in range((a * d_v) % 2, a * (d_v - dmin) + 1, 2):
                classes = generate_classes(d_v, a, b)
                if not classes:
                    continue
                *_, A = state_digraphs(classes)
                for s, lo, hi in zip(spectral_summary(A), *frobenius_bounds(A)):
                    assert lo - 1e-9 <= s.r <= hi + 1e-9
                    assert d_v - 1 - b / a <= s.r + 1e-9
                    if b == 0:
                        assert s.r == pytest.approx(d_v - 1, abs=1e-9)
                    else:
                        assert 1.0 - 1e-9 <= s.r < d_v - 1
                    checked += 1
    assert checked > 1000


@criterion(13, "pendant variables never move the spectral radius")
def test_criterion_13_leaf_invariance():
    pool = []
    for a in range(4, 7):
        for b in range((a * 3) % 2, a + 1, 2):
            pool.extend(generate_classes(3, a, b))
    rng = np.random.default_rng(7)
    for _ in range(50):
        G = pool[int(rng.integers(len(pool)))]
        r_base = spectrum_of(G).r
        edges = list(G.edges)
        n = G.n
        n_leaves = int(rng.integers(1, 4))
        for j in range(n_leaves):
            attach = int(rng.integers(n + j))
            edges.append((attach, n + j))
        aug = Multigraph(n + n_leaves, edges)
        r_aug = spectrum_of(aug).r
        assert abs(r_aug - r_base) < 1e-9
