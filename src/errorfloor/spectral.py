"""Nonnegative-matrix spectral analysis for state-update matrices.

The quantities that matter downstream: spectral radius r (asymptotic
per-iteration gain), index of imprimitivity h, and the left Perron
vector w1 used to project the model onto its dominant mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    if np.any(M < 0):
        raise ValueError("matrix must be nonnegative")
    return M


def _arcs(B: np.ndarray) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists of a boolean adjacency matrix,
    each in increasing order."""
    m = len(B)
    succ: list = [[] for _ in range(m)]
    pred: list = [[] for _ in range(m)]
    for u, w in zip(*(x.tolist() for x in np.nonzero(B))):
        succ[u].append(w)
        pred[w].append(u)
    return succ, pred


def _aperiodic(succ, h: int) -> bool:
    """Period 1 of an irreducible matrix; a single state has a cycle only
    through its self loop."""
    return h == 1 and bool(succ[0])


def frobenius_bounds(M) -> tuple[float, float]:
    """Row-sum bounds enclosing the spectral radius."""
    M = _as_square(M)
    s = M.sum(axis=1)
    return float(s.min()), float(s.max())


def _sccs(adj: list[list[int]], radj: list[list[int]]) -> list[list[int]]:
    """Kosaraju strongly-connected components (iterative) from successor
    and predecessor lists."""
    n = len(adj)
    seen = [False] * n
    order = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [(s, iter(adj[s]))]
        seen[s] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    comp = [-1] * n
    comps = []
    for s in reversed(order):
        if comp[s] != -1:
            continue
        group = [s]
        comp[s] = len(comps)
        stack = [s]
        while stack:
            v = stack.pop()
            for w in radj[v]:
                if comp[w] == -1:
                    comp[w] = len(comps)
                    group.append(w)
                    stack.append(w)
        comps.append(group)
    return comps


def _period(adj: list[list[int]], nodes: list[int]) -> int:
    """gcd of directed cycle lengths within one strongly connected part,
    from successor lists."""
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
    # sweep once more: cross arcs between settled nodes carry the gcd
    for u in nodes:
        for w in adj[u]:
            if w in sub:
                g = math.gcd(g, dist[u] + 1 - dist[w])
    return abs(g) if g else 1


def _power_iteration(M: np.ndarray, tol: float = 1e-13, max_iter: int = 500_000):
    """Left power iteration on M + I (shift keeps imprimitive cases
    convergent); returns (radius of M, L1-normalized left vector).
    Raises RuntimeError when max_iter steps do not converge."""
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


@dataclass
class SpectralSummary:
    r: float
    h: int
    w1: np.ndarray
    irreducible: bool
    primitive: bool
    reducible_cycle_case: bool


def spectral_summary(M) -> SpectralSummary:
    """Spectral radius, period, and left Perron vector of a state-update
    matrix.

    A permutation matrix (the two disjoint directed cycles produced by a
    cycle multigraph) is recognized exactly: r = 1, h = cycle length,
    uniform w1.  Reducible inputs with leaves fall back to per-component
    analysis; r and h come from the dominant component while w1 is taken
    on the full matrix, where leaf states split into zero and positive
    entries.
    """
    M = _as_square(M)
    m = len(M)
    B = M > 0
    succ, pred = _arcs(B)
    comps = _sccs(succ, pred)
    irr = len(comps) == 1

    row = M.sum(axis=1)
    col = M.sum(axis=0)
    if np.all(row == 1) and np.all(col == 1) and np.all((M == 0) | (M == 1)):
        if all(len(c) > 1 for c in comps) and not irr:
            h = max(len(c) for c in comps)
            return SpectralSummary(1.0, h, np.full(m, 1.0 / m), False, False, True)

    if irr:
        r, w1 = _power_iteration(M)
        h = _period(succ, comps[0])
        return SpectralSummary(r, h, w1, True, _aperiodic(succ, h), False)

    # reducible: dominant component carries r and h
    best_r, best_nodes = 0.0, None
    for nodes in comps:
        if len(nodes) == 1 and not B[nodes[0], nodes[0]]:
            continue
        sub = M[np.ix_(nodes, nodes)]
        r_c, _ = _power_iteration(sub)
        if r_c > best_r:
            best_r, best_nodes = r_c, nodes
    if best_nodes is None:
        raise ValueError("nilpotent matrix: no directed cycle, spectral radius 0")
    _, w1 = _power_iteration(M)
    h = _period(succ, best_nodes)
    return SpectralSummary(best_r, h, w1, False, False, False)
