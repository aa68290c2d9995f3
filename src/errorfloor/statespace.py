"""Linear state-space model of LLR growth inside an elementary subgraph.

States are the directed edges of the collapsed multigraph; one update
step propagates each state through its check (scalar gain) and re-adds
the channel plus the unsatisfied-check inputs.  Projecting on the left
Perron vector of the update matrix yields a scalar error indicator whose
Gaussian tail probability approximates the failure rate of the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, qfunc
from .graphs import state_digraphs, subgraph_to_multigraph
from .spectral import SpectralSummary, spectral_summary
from .tanner import InducedSubgraph


@dataclass
class StateSpaceModel:
    A: np.ndarray       # m x m state update
    B: np.ndarray       # m x a channel injection, one 1 per row
    B_ex: np.ndarray    # m x b unsatisfied-check injection
    C: np.ndarray       # a x m soft-output read-out
    D_ex: np.ndarray    # a x b direct unsatisfied-check feed
    states: list        # (tail, head, edge_id) per state
    summary: SpectralSummary

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def a(self) -> int:
        return self.B.shape[1]

    @property
    def b(self) -> int:
        return self.B_ex.shape[1]


def build_model(sub: InducedSubgraph, d_v: int) -> StateSpaceModel:
    """Assemble (A, B, B_ex, C, D_ex) for an elementary connected
    subgraph.  Trees are rejected (no cycle, nothing to model); leaves
    are tolerated, since they only pad the spectrum with zeros."""
    G = subgraph_to_multigraph(sub)
    if not G.connected():
        raise ValueError("subgraph is not connected")
    if G.size < G.n:
        raise ValueError("tree subgraph: state matrix is nilpotent")
    deg = G.degrees()
    if np.any(deg > d_v):
        raise ValueError("multigraph degree exceeds d_v")
    tail, head, eid, A = (x[0] for x in state_digraphs([G]))
    A = A.astype(float)
    eye = np.eye(G.n)
    # one external column per missing unit of degree, grouped by vertex
    D_ex = eye[:, np.repeat(np.arange(G.n), d_v - deg)]
    # a state takes its tail's channel value and external inputs; its
    # head's soft output reads it
    return StateSpaceModel(
        A, eye[tail], D_ex[tail], eye[:, head], D_ex,
        list(zip(tail.tolist(), head.tolist(), eid.tolist())), spectral_summary(A[None])[0],
    )


@dataclass
class InputStats:
    """Per-iteration inputs the model needs from a density source.

    `m_ex`/`var_ex` describe the saturated check outputs, `g_bar` the
    mean extrinsic gain, `p_e` the probability that a message entering
    the checks is negative.  `source` records how they were obtained.
    """

    source: str
    d_c: int
    m_lambda: float
    m_ex: np.ndarray
    var_ex: np.ndarray
    g_bar: np.ndarray
    p_e: np.ndarray
    ebn0_db: float = float("nan")
    rate: float = float("nan")
    saturation: float | None = None

    def __post_init__(self):
        self.m_ex = np.asarray(self.m_ex, dtype=float)
        self.var_ex = np.asarray(self.var_ex, dtype=float)
        self.g_bar = np.asarray(self.g_bar, dtype=float)
        self.p_e = np.asarray(self.p_e, dtype=float)
        n = len(self.m_ex)
        if not (len(self.var_ex) == len(self.g_bar) == len(self.p_e) == n):
            raise ValueError("per-iteration arrays must have equal length")

    @property
    def n_iters(self) -> int:
        return len(self.m_ex)


def inversion_probability(p: float, d_c: int) -> float:
    """Probability that an odd number of the d_c - 2 other external
    inputs to a degree-2 check are in error (sign flip)."""
    n = d_c - 2
    total = 0.0
    for j in range(1, n + 1, 2):
        total += math.comb(n, j) * p**j * (1.0 - p) ** (n - j)
    return total


@dataclass
class GainSchedule:
    g_raw: np.ndarray
    g_eff: np.ndarray
    p_inv: np.ndarray
    inversion_iters: int


def gain_schedule(stats: InputStats, inversion_iters: int = 3) -> GainSchedule:
    """Effective per-iteration gains: the raw tanh-product gain, reduced
    by the sign-inversion factor during the first `inversion_iters`
    iterations (while message polarities are still unreliable)."""
    g_raw = stats.g_bar.copy()
    p_inv = np.zeros_like(g_raw)
    g_eff = g_raw.copy()
    for i in range(len(g_raw)):
        if i < inversion_iters:
            p_inv[i] = inversion_probability(float(stats.p_e[i]), stats.d_c)
            g_eff[i] = g_raw[i] * (1.0 - p_inv[i])
    return GainSchedule(g_raw, g_eff, p_inv, inversion_iters)


def beta_prime_moments(
    model: StateSpaceModel,
    schedule: GainSchedule,
    stats: InputStats,
    horizon: int,
) -> tuple[float, float]:
    """Mean and variance of the normalized error indicator after
    `horizon` iterations.

    The channel term re-enters every iteration with the same LLR vector
    (fully correlated), the unsatisfied-check inputs are fresh each
    iteration (independent), and both are discounted by the accumulated
    dominant gain r^i * prod(g_eff)."""
    if horizon > stats.n_iters or horizon > len(schedule.g_eff):
        raise ValueError("horizon exceeds the available stats")
    w1 = model.summary.w1
    r = model.summary.r

    wB = w1 @ model.B
    wBex = w1 @ model.B_ex
    s1, s1sq = wB.sum(), (wB**2).sum()
    se, sesq = wBex.sum(), (wBex**2).sum()

    m_l = stats.m_lambda
    disc = 1.0
    ch_coeff = 1.0
    mean_ex = 0.0
    var_ex = 0.0
    for i in range(1, horizon + 1):
        disc *= r * schedule.g_eff[i - 1]
        ch_coeff += 1.0 / disc
        mean_ex += stats.m_ex[i - 1] / disc
        var_ex += stats.var_ex[i - 1] / disc**2
    mean = m_l * ch_coeff * s1 + mean_ex * se
    var = 2.0 * m_l * ch_coeff**2 * s1sq + var_ex * sesq
    return float(mean), float(var)


def failure_probability(mean: float, var: float) -> float:
    """Gaussian tail of the error indicator: Q(mean / sqrt(var))."""
    if var <= 0:
        raise ValueError("variance must be positive")
    return float(qfunc(mean / math.sqrt(var)))


def codeword_failure_probability(cfg: ChannelConfig, weight: int) -> float:
    """Closed form for b = 0 sets: Q(sqrt(2 R Eb/N0 * weight)),
    independent of the model horizon."""
    return float(qfunc(math.sqrt(2.0 * cfg.rate * cfg.ebn0 * weight)))


def union_bounds(probs, mults, set_sizes, n):
    """Union bound over failure sets: FER sums multiplicity-weighted
    probabilities, BER additionally weights by a_i/n."""
    probs = np.asarray(probs, dtype=float)
    mults = np.asarray(mults, dtype=float)
    sizes = np.asarray(set_sizes, dtype=float)
    fer = float(np.sum(mults * probs))
    ber = float(np.sum(mults * sizes / n * probs))
    return fer, ber
