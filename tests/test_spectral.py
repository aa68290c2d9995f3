"""Perron-Frobenius machinery against brute-force eigenvalues."""

import math

import numpy as np
import pytest

from errorfloor import census, spectral
from errorfloor.graphs import Multigraph, state_digraphs
from errorfloor.spectral import _arcs, _sccs, _structure, frobenius_bounds

CYCLE4 = np.roll(np.eye(4), 1, axis=1)  # permutation: period 4


def spectral_summary(M):
    """The summary of one matrix: a stack of one."""
    return spectral.spectral_summary(np.asarray(M, dtype=float)[None])[0]


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
        (lo,), (hi,) = frobenius_bounds(M[None])
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
    *_, A = state_digraphs([Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])])
    s = spectral_summary(A[0].astype(float))
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
        spectral._power_iteration(M[None], max_iter=3)
    # one slow member holds the stack: the others stopped, it did not
    with pytest.raises(RuntimeError, match="did not converge"):
        spectral._power_iteration(np.stack([np.eye(2), M]), max_iter=3)
    (r,), _ = spectral._power_iteration(M[None])
    assert r == pytest.approx(np.abs(np.linalg.eigvals(M)).max(), rel=1e-9)


# --- the former one-matrix power iteration, kept as the oracle of the
# stacked one ---

def _oracle_power_iteration(M, tol=1e-13, max_iter=500_000):
    m = len(M)
    B = M + np.eye(m)
    w = np.full(m, 1.0 / m)
    lam = 0.0
    for _ in range(max_iter):
        nxt = w @ B
        s = nxt.sum()
        if s == 0:
            return 0.0, w
        nxt /= s
        if abs(s - lam) < tol * max(1.0, abs(s)) and np.abs(nxt - w).sum() < tol:
            return float(s - 1.0), nxt
        lam, w = s, nxt
    raise RuntimeError(f"power iteration did not converge in {max_iter} steps")


def _oracle_summary(M):
    """r and w1 as the one-matrix spectral_summary computed them."""
    succ, pred = _arcs(M > 0)
    comps = _sccs(succ, pred)
    if len(comps) == 1:
        return _oracle_power_iteration(M)
    cyclic = [c for c in comps if len(c) > 1 or M[c[0], c[0]] > 0]
    r = 0.0
    for c in cyclic:
        r = max(r, _oracle_power_iteration(M[np.ix_(c, c)])[0])
    return r, _oracle_power_iteration(M)[1]


def _census_families():
    for d_v in (3, 4, 5):
        census._augmented_census(8, d_v)
        for a in range(2, 9):
            for b in range((a * d_v) % 2, a * (d_v - d_v // 2 - 1) + 1, 2):
                classes = census.generate_classes(d_v, a, b)
                if classes:
                    yield state_digraphs(classes)[3]


def test_stacked_iteration_matches_scalar_oracle_on_census_families():
    families = iterated = cycles = 0
    for A in _census_families():
        families += 1
        summaries = spectral.spectral_summary(A)
        assert len(summaries) == len(A)
        irr = [k for k, s in enumerate(summaries) if s.irreducible]
        if irr:
            r, w1 = spectral._power_iteration(A[irr])
        for j, k in enumerate(irr):
            r0, w0 = _oracle_power_iteration(A[k].astype(float))
            assert r[j] == r0 and np.array_equal(w1[j], w0)
            assert summaries[k].r == r0 and np.array_equal(summaries[k].w1, w0)
            iterated += 1
        for s in summaries:
            if not s.irreducible:  # the cycles: two disjoint directed cycles
                assert s.reducible_cycle_case and s.r == 1.0
                cycles += 1
    assert (families, iterated, cycles) == (64, 1258, 6)


def test_stack_mixes_cycle_reducible_and_irreducible_members():
    cycle = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # a triangle with a double edge and a pendant vertex: leaf states
    # make the state digraph reducible, as build_model allows
    leafy = Multigraph(4, [(0, 1), (0, 1), (1, 2), (0, 3)])
    dense = Multigraph(3, [(0, 1), (0, 1), (1, 2), (0, 2)])
    stack = np.concatenate([state_digraphs([G])[3] for G in (cycle, leafy, dense)]).astype(float)
    got = spectral.spectral_summary(stack)
    assert got[0].reducible_cycle_case and got[0].h == 4
    assert got[0].w1 == pytest.approx(np.full(8, 1 / 8))
    assert not got[1].irreducible and not got[1].reducible_cycle_case
    assert got[2].irreducible
    for k in (1, 2):
        r0, w0 = _oracle_summary(stack[k])
        assert got[k].r == r0 and np.array_equal(got[k].w1, w0)
        alone = spectral_summary(stack[k])
        assert (alone.r, alone.h) == (got[k].r, got[k].h)
        assert np.array_equal(alone.w1, got[k].w1)


def test_nilpotent_member_fails_the_stack():
    stack = np.stack([np.ones((3, 3)), np.triu(np.ones((3, 3)), k=1)])
    with pytest.raises(ValueError, match="nilpotent"):
        spectral.spectral_summary(stack)
    with pytest.raises(ValueError, match="stack"):
        spectral.spectral_summary(np.ones((3, 3)))


# --- the former matrix-power tests, kept as the oracle of the
# breadth-first ones ---

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
    irreducible, _, primitive = _structure((M > 0)[None])
    return bool(irreducible[0]), bool(primitive[0])


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


# --- the former breadth-first period of one component, kept as the
# oracle of the stacked one ---

def _oracle_period(adj, nodes):
    sub = set(nodes)
    dist = {nodes[0]: 0}
    frontier = [nodes[0]]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in sub:
                    continue
                if w in dist:
                    g = math.gcd(g, dist[u] + 1 - dist[w])
                else:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    for u in nodes:
        for w in adj[u]:
            if w in sub:
                g = math.gcd(g, dist[u] + 1 - dist[w])
    return abs(g) if g else 1


def test_stacked_period_matches_bfs_oracle():
    rng = np.random.default_rng(11)
    stacks = list(_census_families())
    for m in range(1, 9):
        stacks.append((rng.random((60, m, m)) < rng.choice([0.15, 0.3, 0.5])).astype(float))
    stacks.append(np.stack([np.roll(np.eye(6), k, axis=1) for k in range(1, 6)]))
    periods = set()
    for A in stacks:
        irreducible, h, _ = _structure(A > 0)
        for k in np.flatnonzero(irreducible):
            succ, pred = _arcs(A[k] > 0)
            (nodes,) = _sccs(succ, pred)
            assert h[k] == _oracle_period(succ, nodes)
            periods.add(int(h[k]))
        for k in np.flatnonzero(~irreducible):
            assert len(_sccs(*_arcs(A[k] > 0))) > 1
    assert {1, 2, 3, 4, 6} <= periods
