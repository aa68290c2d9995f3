"""Perron-Frobenius machinery against brute-force eigenvalues."""

import numpy as np
import pytest

from errorfloor.graphs import Multigraph, multigraph_to_digraph
from errorfloor.spectral import (
    _aperiodic,
    _arcs,
    _period,
    _power_iteration,
    _sccs,
    frobenius_bounds,
    spectral_summary,
)

CYCLE4 = np.roll(np.eye(4), 1, axis=1)  # permutation: period 4


def random_nonneg(rng, m, density=0.5):
    M = rng.random((m, m)) * (rng.random((m, m)) < density)
    return M


def test_irreducibility_classics():
    assert spectral_summary(CYCLE4).irreducible
    block = np.zeros((4, 4))
    block[:2, :2] = 1
    block[2:, 2:] = 1
    assert not spectral_summary(block).irreducible
    upper = np.triu(np.ones((3, 3)), k=1)
    with pytest.raises(ValueError, match="nilpotent"):
        spectral_summary(upper)


def test_boolean_powers_do_not_wrap():
    # regression: products ran in uint8, so an entry counting 256 paths
    # wrapped to 0 and this all-ones matrix read as reducible
    assert spectral_summary(np.ones((256, 256))).irreducible
    ring = np.roll(np.eye(300), 1, axis=1)
    ring[:, 0] = 1  # every state feeds state 0: 300 paths into it
    s = spectral_summary(ring)
    assert s.irreducible
    assert s.primitive


def test_primitivity_classics():
    assert not spectral_summary(CYCLE4).primitive  # irreducible but periodic
    loop = CYCLE4.copy()
    loop[0, 0] = 1  # self loop breaks the period
    assert spectral_summary(loop).primitive
    assert spectral_summary(np.ones((3, 3))).primitive
    with pytest.raises(ValueError, match="nilpotent"):
        spectral_summary(np.triu(np.ones((3, 3)), k=1))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_summary(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_summary(np.array([[1.0, -0.1], [0.2, 0.3]]))
    with pytest.raises(ValueError, match="nilpotent"):
        spectral_summary(np.triu(np.ones((3, 3)), k=1))


def test_radius_matches_eig_on_random_irreducible():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        M = random_nonneg(rng, m) + 0.01  # strictly positive: primitive
        s = spectral_summary(M)
        r_ref = np.abs(np.linalg.eigvals(M)).max()
        assert s.r == pytest.approx(r_ref, rel=1e-9)
        assert s.irreducible and s.primitive and s.h == 1
        # left Perron vector: w1 M = r w1, normalized to unit L1
        assert s.w1 @ M == pytest.approx(s.r * s.w1, rel=1e-8)
        assert s.w1.sum() == pytest.approx(1.0)
        lo, hi = frobenius_bounds(M)
        assert lo - 1e-12 <= s.r <= hi + 1e-12


def test_radius_on_reducible():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m1, m2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        M = np.zeros((m1 + m2, m1 + m2))
        M[:m1, :m1] = random_nonneg(rng, m1) + 0.01
        M[m1:, m1:] = random_nonneg(rng, m2) + 0.01
        M[0, m1] = 0.5  # one-way coupling keeps it reducible
        s = spectral_summary(M)
        r_ref = np.abs(np.linalg.eigvals(M)).max()
        assert not s.irreducible
        assert s.r == pytest.approx(r_ref, rel=1e-9)


def test_permutation_cycle_case():
    # 4-cycle multigraph: state digraph is two disjoint directed 4-cycles
    D = multigraph_to_digraph(Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    s = spectral_summary(D.arcs.T.astype(float))
    assert s.reducible_cycle_case
    assert s.r == 1.0 and s.h == 4
    assert s.w1 == pytest.approx(np.full(8, 1 / 8))


def test_period_detection():
    s = spectral_summary(CYCLE4)
    assert s.h == 4 and s.r == pytest.approx(1.0)
    # bipartite-like period 2
    M = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    assert spectral_summary(M).h == 2


def test_power_iteration_raises_when_not_converged():
    M = np.array([[1.0, 2.0], [0.5, 3.0]])
    with pytest.raises(RuntimeError, match="did not converge"):
        _power_iteration(M, max_iter=3)
    r, w = _power_iteration(M)
    assert r == pytest.approx(np.abs(np.linalg.eigvals(M)).max(), rel=1e-9)


# --- the former matrix-power tests, kept as the oracle of the SCC-based
# ones ---

def _oracle_bool_power_positive(B, p):
    result = np.eye(len(B))
    base = B.astype(float)
    while p:
        if p & 1:
            result = ((result @ base) > 0).astype(float)
        base = ((base @ base) > 0).astype(float)
        p >>= 1
    return bool(result.all())


def _oracle_irreducible(M):
    m = len(M)
    return _oracle_bool_power_positive((M > 0) | np.eye(m, dtype=bool), m - 1)


def _oracle_primitive(M):
    m = len(M)
    return _oracle_irreducible(M) and _oracle_bool_power_positive(M > 0, (m - 1) * m + 1)


def _scc_flags(M):
    """The irreducible and primitive flags as spectral_summary derives
    them.  Not spectral_summary itself: random matrices where one
    component of radius r feeds another of radius r, such as [[1,0],[1,1]],
    stall its power iteration, and a non-backtracking state digraph never
    has such a pair."""
    succ, pred = _arcs(M > 0)
    comps = _sccs(succ, pred)
    irreducible = len(comps) == 1
    return irreducible, irreducible and _aperiodic(succ, _period(succ, comps[0]))


def test_scc_tests_match_matrix_power_oracle():
    rng = np.random.default_rng(5)
    cases = [np.zeros((1, 1)), np.ones((1, 1)), CYCLE4, np.ones((256, 256)),
             np.roll(np.eye(256), 1, axis=1)]
    ring = np.roll(np.eye(256), 1, axis=1)
    ring[:, 0] = 1
    cases.append(ring)
    for _ in range(400):
        m = int(rng.integers(1, 10))
        cases.append((rng.random((m, m)) < rng.choice([0.1, 0.25, 0.5])).astype(float))
    seen = set()
    for M in cases:
        got = _scc_flags(M)
        assert got == (_oracle_irreducible(M), _oracle_primitive(M))
        seen.add(got)
    assert seen == {(False, False), (True, False), (True, True)}
