"""Nonnegative-matrix spectral analysis for state-update matrices.

The quantities that matter downstream: spectral radius r (asymptotic
per-iteration gain), index of imprimitivity h, and the left Perron
vector w1 used to project the model onto its dominant mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_stack(M) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise ValueError("stack [K, m, m] of square matrices required")
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


def frobenius_bounds(M) -> tuple[np.ndarray, np.ndarray]:
    """Row-sum bounds enclosing the spectral radius of each matrix of a
    nonnegative stack [K, m, m]: two arrays of K."""
    s = _as_stack(M).sum(axis=2)
    return s.min(axis=1), s.max(axis=1)


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


def _levels(B: np.ndarray) -> np.ndarray:
    """Breadth-first level of every state from state 0, for each member
    of a boolean stack [K, m, m]; -1 where state 0 does not reach."""
    K, m, _ = B.shape
    level = np.full((K, m), -1)
    level[:, 0] = 0
    front = level == 0
    for step in range(1, m):
        front = np.matmul(front[:, None, :], B)[:, 0, :] & (level < 0)
        if not front.any():
            break
        level[front] = step
    return level


def _structure(B: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Irreducible flag, period h and primitive flag of each member of a
    boolean stack [K, m, m] (h is meaningful for irreducible members).

    A member is irreducible when state 0 reaches every state and every
    state reaches state 0.  Its period is the gcd, over all arcs u -> w,
    of level(u) + 1 - level(w) for the breadth-first levels from state 0;
    1 when there is no arc.  A single state has a cycle only through its
    self loop, so primitive also needs an arc out of state 0.
    """
    level = _levels(B)
    irreducible = np.all(level >= 0, axis=1) & np.all(_levels(B.transpose(0, 2, 1)) >= 0, axis=1)
    k, u, w = np.nonzero(B)
    h = np.zeros(len(B), dtype=np.int64)
    np.gcd.at(h, k, np.abs(level[k, u] + 1 - level[k, w]))
    h[h == 0] = 1
    return irreducible, h, irreducible & (h == 1) & B[:, 0].any(axis=1)


def _power_iteration(M: np.ndarray, tol: float = 1e-13, max_iter: int = 500_000):
    """Left power iteration on M + I (shift keeps imprimitive cases
    convergent) for every matrix of a nonnegative stack [K, m, m] at
    once; returns (radii of the K matrices, their L1-normalized left
    vectors [K, m]).

    Each member stops at its own step, when both the sum of its new
    vector and the vector itself have settled to `tol`; the stack then
    shrinks to the members still running.  The shift adds the previous
    vector, which sums to 1, so no sum is 0.  Raises RuntimeError when
    max_iter steps leave a member unconverged.
    """
    K, m, _ = M.shape
    B = M + np.eye(m)
    r = np.empty(K)
    w1 = np.empty((K, m))
    run = np.arange(K)  # stack index of each running member
    w = np.full((K, m), 1.0 / m)
    lam = np.zeros(K)
    for _ in range(max_iter):
        nxt = np.matmul(w[:, None, :], B)[:, 0, :]
        s = nxt.sum(axis=1)
        nxt /= s[:, None]
        done = (np.abs(s - lam) < tol * np.maximum(1.0, s)) & (np.abs(nxt - w).sum(axis=1) < tol)
        if done.any():
            r[run[done]], w1[run[done]] = s[done] - 1.0, nxt[done]
            keep = ~done
            if not keep.any():
                return r, w1
            run, B, nxt, s = run[keep], B[keep], nxt[keep], s[keep]
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


# bytes of the float copy of M + I that one stacked power iteration
# holds: the census's largest family, 252 state matrices of order 32,
# runs in four chunks, as fast as in one stack on a 2-core Xeon
_CHUNK_BYTES = 512 * 1024


def spectral_summary(M) -> list[SpectralSummary]:
    """Spectral radius, period, and left Perron vector of each matrix of
    a stack [K, m, m] of state-update matrices (nonnegative, or boolean
    for 0/1 weights); one summary per matrix.

    The irreducible members share stacked power iterations, each over as
    many members as `_CHUNK_BYTES` holds.  A permutation matrix (the two
    disjoint directed cycles produced by a cycle multigraph) is
    recognized exactly: r = 1, h = cycle length, uniform w1.  Reducible
    inputs with leaves fall back to per-component analysis; r and h come
    from the dominant component while w1 is taken on the full matrix,
    where leaf states split into zero and positive entries.
    """
    M = _as_stack(M)
    K, m, _ = M.shape
    B = M > 0
    irreducible, h, primitive = _structure(B)
    perm = (np.all(M.sum(axis=2) == 1, axis=1) & np.all(M.sum(axis=1) == 1, axis=1)
            & np.all((M == 0) | (M == 1), axis=(1, 2)))
    out: list = [None] * K
    idx = np.flatnonzero(irreducible)
    step = max(1, _CHUNK_BYTES // (8 * m * m))
    for k0 in range(0, idx.size, step):
        part = idx[k0 : k0 + step]
        r, w1 = _power_iteration(M[part])
        for j, k in enumerate(part.tolist()):
            out[k] = SpectralSummary(float(r[j]), int(h[k]), w1[j], True, bool(primitive[k]),
                                     False)
    for k in np.flatnonzero(~irreducible).tolist():
        comps = _sccs(*_arcs(B[k]))
        if perm[k] and all(len(c) > 1 for c in comps):
            out[k] = SpectralSummary(1.0, max(len(c) for c in comps), np.full(m, 1.0 / m),
                                     False, False, True)
        else:
            out[k] = _reducible_summary(M[k], B[k], comps)
    return out


def _reducible_summary(M, B, comps) -> SpectralSummary:
    """The dominant component carries r and h; w1 is taken on M."""
    best_r, best_nodes = 0.0, None
    for nodes in comps:
        if len(nodes) == 1 and not B[nodes[0], nodes[0]]:
            continue
        sub = M[np.ix_(nodes, nodes)]
        r_c = float(_power_iteration(sub[None])[0][0])
        if r_c > best_r:
            best_r, best_nodes = r_c, nodes
    if best_nodes is None:
        raise ValueError("nilpotent matrix: no directed cycle, spectral radius 0")
    w1 = _power_iteration(M[None])[1][0]
    h = int(_structure(B[np.ix_(best_nodes, best_nodes)][None])[1][0])
    return SpectralSummary(best_r, h, w1, False, False, False)
