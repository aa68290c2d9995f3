"""Multigraph view of elementary subgraphs and the derived state digraph.

An elementary subgraph collapses to a multigraph G on its variables:
degree-2 checks become edges (4-cycles become parallel edges), degree-1
checks are dropped.  Message flow lives on the directed edges of G; the
state digraph D has one vertex per direction of each edge and an arc for
every non-backtracking continuation.
"""

from __future__ import annotations

import numpy as np

from .tanner import InducedSubgraph


class Multigraph:
    """Loop-free multigraph; parallel edges are separate entries."""

    def __init__(self, n_vertices: int, edges):
        self.n = int(n_vertices)
        self.edges = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("self-loop not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("vertex index out of range")
            self.edges.append((min(u, v), max(u, v)))
        self.edges.sort()

    @property
    def size(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def connected(self) -> bool:
        if self.n == 0:
            return False
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __repr__(self):
        return f"Multigraph(n={self.n}, size={self.size})"


def subgraph_to_multigraph(sub: InducedSubgraph) -> Multigraph:
    """Collapse an elementary induced subgraph onto its variable set."""
    pos = {int(v): j for j, v in enumerate(sub.variables)}
    edges = []
    for c, d in zip(sub.checks, sub.check_degrees):
        if d not in (1, 2):
            raise ValueError(f"check {c} has degree {d} in the subgraph; not elementary")
        if d == 2:
            u, v = (pos[int(x)] for x in sub.host.chk_vars[c] if int(x) in pos)
            edges.append((u, v))
    return Multigraph(sub.a, edges)


def state_digraphs(graphs):
    """State digraphs of a list of K multigraphs of one size s, built
    together.

    D is the line digraph of the complete biorientation of G with the
    backtracking arc pairs removed; every k-cycle of G yields two directed
    k-cycles in D.  A graph's m = 2s states are both directions of its
    edges, ordered by (tail, head, edge).  Returns each state's tail, head
    and edge id as [K, m] arrays and the boolean state-update matrices
    [K, m, m]: A[k, j, i] is True when state j continues state i (head of
    i = tail of j) without turning back along i's edge.
    """
    edges = np.array([G.edges for G in graphs], dtype=np.int64).reshape(len(graphs), -1, 2)
    K, size, _ = edges.shape
    tail = np.concatenate([edges[:, :, 0], edges[:, :, 1]], axis=1)
    head = np.concatenate([edges[:, :, 1], edges[:, :, 0]], axis=1)
    eid = np.broadcast_to(np.tile(np.arange(size), 2), tail.shape)
    order = np.lexsort((eid, head, tail))  # per graph, along the last axis
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(2 * size), axis=1)
    rev = np.take_along_axis(rank, (order + size) % (2 * size), axis=1)  # the reverse state
    tail, head, eid = (np.take_along_axis(x, order, axis=1) for x in (tail, head, eid))
    arcs = head[:, :, None] == tail[:, None, :]
    arcs[np.arange(K)[:, None], np.arange(2 * size), rev] = False
    return tail, head, eid, arcs.transpose(0, 2, 1)
