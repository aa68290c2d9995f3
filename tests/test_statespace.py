"""Trap-set state model assembly, gain schedule, failure algebra."""

import math

import numpy as np
import pytest

from errorfloor.channel import ChannelConfig, qfunc
from errorfloor.floorpred import stats_from_dde
from errorfloor.graphs import subgraph_to_multigraph
from errorfloor.statespace import (
    InputStats,
    beta_prime_moments,
    build_model,
    codeword_failure_probability,
    failure_probability,
    gain_schedule,
    inversion_probability,
    union_bounds,
)
from errorfloor.tanner import ParityCheckMatrix, induce, random_regular_code

CFG = ChannelConfig(2.8, 0.5)


@pytest.fixture(scope="module")
def stats():
    return stats_from_dde(CFG, 3, 6, n_iters=12, saturation=25.0)


@pytest.fixture(scope="module")
def k4_sub():
    cw = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    H = random_regular_code(36, 3, 6, seed=5, planted=cw)
    return induce(H, (0, 1, 2, 3))


@pytest.fixture(scope="module")
def k4_model(k4_sub):
    return build_model(k4_sub, 3)


def test_input_stats_length_check():
    with pytest.raises(ValueError):
        InputStats("test", 6, 3.8, [1.0, 2.0], [1.0], [1.0], [0.1])


def test_inversion_probability_closed_form():
    for d_c in (3, 6, 10):
        for p in (0.0, 0.05, 0.2, 0.5):
            closed = (1.0 - (1.0 - 2.0 * p) ** (d_c - 2)) / 2.0
            assert inversion_probability(p, d_c) == pytest.approx(closed, abs=1e-12)
    assert inversion_probability(0.0, 6) == 0.0


def test_gain_schedule_applies_inversion_window(stats):
    sched = gain_schedule(stats, inversion_iters=3)
    np.testing.assert_array_equal(sched.g_raw, stats.g_bar)
    for i in range(stats.n_iters):
        if i < 3:
            assert sched.p_inv[i] > 0
            assert sched.g_eff[i] == pytest.approx(
                stats.g_bar[i] * (1 - sched.p_inv[i])
            )
        else:
            assert sched.p_inv[i] == 0.0
            assert sched.g_eff[i] == stats.g_bar[i]


def test_build_model_shapes_and_structure(k4_sub, k4_model):
    m = k4_model
    deg = subgraph_to_multigraph(k4_sub).degrees()
    assert m.m == 12 and m.a == 4 and m.b == 0
    assert m.A.shape == (12, 12)
    # each arc fans out to deg(head)-1 = 2 successors
    assert set(m.A.sum(axis=0)) == {2.0}
    assert np.all(m.B.sum(axis=1) == 1.0)
    # soft output at a variable collects its deg incoming arcs
    np.testing.assert_array_equal(m.C.sum(axis=1), deg)
    assert m.D_ex.size == 0
    assert not (deg <= 1).any()  # no leaves
    assert m.summary is not None and m.summary.r == pytest.approx(2.0, abs=1e-9)


def test_build_model_absorbing_set_externals():
    H = random_regular_code(
        256, 3, 6, seed=2,
        planted=[(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1,)],
    )
    sub = induce(H, (0, 1, 2, 3, 4))
    model = build_model(sub, 3)
    assert model.b == 1
    assert not (subgraph_to_multigraph(sub).degrees() <= 1).any()  # no leaves
    # the lone external column feeds the single degree-2 vertex
    assert model.D_ex.sum() == 1.0
    assert model.D_ex[1, 0] == 1.0


def test_build_model_tolerates_leaves():
    H = random_regular_code(120, 3, 6, seed=0, planted=[(0, 1), (0, 2), (1, 2), (0, 3)])
    sub = induce(H, (0, 1, 2, 3))
    model = build_model(sub, 3)
    assert (subgraph_to_multigraph(sub).degrees() <= 1).any()  # variable 3 is a leaf
    assert model.b == 4


def test_build_model_rejects_disconnected_subgraph():
    # two triangles with no check between them: an elementary set whose
    # multigraph is not connected
    H = ParityCheckMatrix([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]], 6)
    with pytest.raises(ValueError, match="connected"):
        build_model(induce(H, range(6)), 3)


def _oracle_injections(model, G, d_v):
    """The former loop-built B, B_ex, C and D_ex of a model's states on
    the multigraph G."""
    n, m = G.n, len(model.states)
    B = np.zeros((m, n))
    C = np.zeros((n, m))
    for k, (tail, head, _) in enumerate(model.states):
        B[k, tail] = 1.0
        C[head, k] = 1.0
    deg = G.degrees()
    ext_vertex = []
    for v in range(n):
        ext_vertex.extend([v] * (d_v - int(deg[v])))
    B_ex = np.zeros((m, len(ext_vertex)))
    D_ex = np.zeros((n, len(ext_vertex)))
    for j, v in enumerate(ext_vertex):
        D_ex[v, j] = 1.0
        for k, (tail, _, _) in enumerate(model.states):
            if tail == v:
                B_ex[k, j] = 1.0
    return B, B_ex, C, D_ex


@pytest.mark.parametrize("planted, T", [
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], range(4)),
    ([(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1,)], range(5)),
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], range(4)),
    ([(0, 1), (0, 1), (1, 2), (0, 2), (2, 3)], range(4)),
], ids=["k4", "absorbing", "diamond", "leafy"])
def test_build_model_injections_match_loop_oracle(planted, T):
    H = random_regular_code(96, 3, 6, seed=4, planted=planted)
    sub = induce(H, T)
    model = build_model(sub, 3)
    for got, want in zip((model.B, model.B_ex, model.C, model.D_ex),
                         _oracle_injections(model, subgraph_to_multigraph(sub), 3), strict=True):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_beta_prime_moments_guard_and_growth(k4_model, stats):
    sched = gain_schedule(stats)
    with pytest.raises(ValueError):
        beta_prime_moments(k4_model, sched, stats, horizon=stats.n_iters + 1)
    mean, var = beta_prime_moments(k4_model, sched, stats, horizon=8)
    assert mean > 0 and var > 0
    # adding iterations adds positive discounted terms
    m2, v2 = beta_prime_moments(k4_model, sched, stats, horizon=10)
    assert m2 > mean and v2 > var


def test_failure_probability_is_q_of_snr():
    assert failure_probability(3.0, 4.0) == pytest.approx(qfunc(1.5), rel=1e-12)
    with pytest.raises(ValueError):
        failure_probability(1.0, 0.0)


def test_codeword_failure_probability_closed_form():
    for w in (4, 6, 10):
        want = qfunc(math.sqrt(2 * CFG.rate * CFG.ebn0 * w))
        assert codeword_failure_probability(CFG, w) == pytest.approx(want, rel=1e-12)


def test_union_bounds_hand_case():
    fer, ber = union_bounds([1e-3, 1e-5], [2, 3], [4, 5], n=100)
    assert fer == pytest.approx(2e-3 + 3e-5, rel=1e-12)
    assert ber == pytest.approx(2e-3 * 4 / 100 + 3e-5 * 5 / 100, rel=1e-12)
