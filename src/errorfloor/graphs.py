"""Multigraph view of elementary subgraphs and the derived state digraph.

An elementary subgraph collapses to a multigraph G on its variables:
degree-2 checks become edges (4-cycles become parallel edges), degree-1
checks are dropped.  Message flow lives on the directed edges of G; the
state digraph D has one vertex per direction of each edge and an arc for
every non-backtracking continuation.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class StateDigraph:
    """Directed-edge states of a multigraph and their adjacency.

    `states[k] = (tail, head, edge_id)`; `arcs[i, j]` is 1 when state j
    continues state i (head of i = tail of j) without backtracking, and
    `reverse[k]` is the opposite direction of the same edge.
    """

    states: list
    arcs: np.ndarray
    reverse: np.ndarray

    @property
    def order(self) -> int:
        return len(self.states)


def multigraph_to_digraph(G: Multigraph) -> StateDigraph:
    """Build the state digraph D of G.

    D is the line digraph of the complete biorientation of G with the
    backtracking arc pairs removed; every k-cycle of G yields two directed
    k-cycles in D.
    """
    if not G.connected():
        raise ValueError("multigraph is not connected")
    by_tail = {t: [] for t in range(G.n)}
    for eid, (u, v) in enumerate(G.edges):
        by_tail[u].append((v, eid))
        by_tail[v].append((u, eid))
    states = []
    for t in range(G.n):
        for head, eid in sorted(by_tail[t]):
            states.append((t, head, eid))
    index = {s: k for k, s in enumerate(states)}
    m = len(states)
    rev = np.array([index[(h, t, e)] for (t, h, e) in states], dtype=np.int64)
    arcs = np.zeros((m, m), dtype=np.int64)
    for i, (_, h, _) in enumerate(states):
        for head2, eid2 in by_tail[h]:
            j = index[(h, head2, eid2)]
            if j != rev[i]:
                arcs[i, j] = 1
    return StateDigraph(states, arcs, rev)
