"""Multigraph collapse and the directed-edge state digraph."""

import numpy as np
import pytest

from errorfloor.graphs import Multigraph, state_digraphs, subgraph_to_multigraph
from errorfloor.tanner import ParityCheckMatrix, induce, random_regular_code

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_multigraph_basics():
    G = Multigraph(3, [(0, 1), (1, 0), (1, 2)])  # parallel pair 0-1
    assert G.size == 3
    assert G.degrees().tolist() == [2, 3, 1]
    assert G.connected()
    assert not Multigraph(3, [(0, 1)]).connected()


def test_multigraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Multigraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Multigraph(3, [(0, 3)])


def test_subgraph_to_multigraph_collapse():
    plant = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    H = random_regular_code(36, 3, 6, seed=5, planted=plant)
    G = subgraph_to_multigraph(induce(H, [0, 1, 2, 3]))
    assert G.n == 4 and G.size == 6
    assert sorted(G.edges) == K4_EDGES


def test_subgraph_to_multigraph_drops_degree1():
    plant = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1,)]
    H = random_regular_code(256, 3, 6, seed=2, planted=plant)
    G = subgraph_to_multigraph(induce(H, range(5)))
    assert G.n == 5 and G.size == 7  # the degree-1 check vanishes


def test_subgraph_to_multigraph_rejects_non_elementary():
    dense = np.zeros((4, 3), dtype=np.uint8)
    dense[0] = 1  # degree-3 check inside the set
    dense[1, 0] = dense[2, 1] = dense[3, 2] = 1
    H = ParityCheckMatrix.from_dense(dense)
    with pytest.raises(ValueError, match="elementary"):
        subgraph_to_multigraph(induce(H, [0, 1, 2]))


def digraph_of(edges, n=None):
    """States (tail, head, edge) as [m] arrays and arcs [m, m] of one
    multigraph: arcs[i, j] when state j continues state i."""
    n = 1 + max(max(e) for e in edges) if n is None else n
    tail, head, eid, A = (x[0] for x in state_digraphs([Multigraph(n, edges)]))
    return tail, head, eid, A.T


def test_digraph_structure():
    tail, head, eid, arcs = digraph_of(K4_EDGES)
    assert arcs.shape == (12, 12)  # two states per edge
    deg = Multigraph(4, K4_EDGES).degrees()
    # each edge gives one state per direction
    assert np.array_equal(np.bincount(eid), np.full(6, 2))
    for i in range(12):
        assert arcs[i].sum() == deg[head[i]] - 1  # continuations skip the reverse
        for j in np.flatnonzero(arcs[i]):
            # j starts where i ends and never returns along i's edge
            assert tail[j] == head[i] and eid[j] != eid[i]


def test_digraph_cycle_splits_in_two():
    # a k-cycle yields two disjoint directed k-cycles
    *_, arcs = digraph_of([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert arcs.shape == (8, 8)
    assert np.all(arcs.sum(axis=1) == 1)
    walk = np.linalg.matrix_power(arcs.astype(np.int64), 4)
    assert np.array_equal(np.diag(walk), np.ones(8, dtype=np.int64))


def test_digraph_parallel_edges():
    # double edge = 2-cycle: each direction continues into the other edge
    tail, head, eid, arcs = digraph_of([(0, 1), (0, 1)])
    assert arcs.shape == (4, 4)
    assert np.all(arcs.sum(axis=1) == 1)
    i, j = np.nonzero(arcs)
    assert np.all(eid[i] != eid[j]) and np.array_equal(head[i], tail[j])


def test_digraph_of_a_vertex_without_edges():
    # the one-vertex graph has no state; its empty edge list still makes
    # a [K, 0, 2] stack
    tail, head, eid, A = state_digraphs([Multigraph(1, []), Multigraph(1, [])])
    assert tail.shape == head.shape == eid.shape == (2, 0)
    assert A.shape == (2, 0, 0) and A.dtype == bool


# --- the former loop-built digraph, kept as the oracle of the array-built
# one ---

def _oracle_digraph(G):
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
    return states, arcs, rev


def assert_matches_oracle(G):
    tail, head, eid, A = (x[0] for x in state_digraphs([G]))
    states, arcs, _ = _oracle_digraph(G)
    got = list(zip(tail.tolist(), head.tolist(), eid.tolist()))
    assert got == states
    assert all(type(x) is int for s in got for x in s)
    assert A.dtype == bool and np.array_equal(A.T, arcs)


def test_digraph_matches_loop_oracle_on_census_classes():
    from errorfloor import census

    checked = 0
    for d_v in (3, 4, 5):
        census._augmented_census(8, d_v)
        for a in range(2, 9):
            for b in range((a * d_v) % 2, a * (d_v - d_v // 2 - 1) + 1, 2):
                classes = census.generate_classes(d_v, a, b)
                for G in classes:
                    assert_matches_oracle(G)
                    checked += 1
                if classes:  # the family's stack, built at once, holds the same arcs
                    *_, A = state_digraphs(classes)
                    assert A.dtype == bool
                    for G, M in zip(classes, A):
                        assert np.array_equal(M, _oracle_digraph(G)[1].T)
    assert checked == 1264


def test_digraph_matches_loop_oracle_on_multigraphs_with_parallel_edges():
    rng = np.random.default_rng(3)
    checked = 0
    same_size = {}
    for _ in range(300):
        n = int(rng.integers(2, 7))
        # a spanning path keeps it connected; extra edges repeat freely
        edges = [(v, v + 1) for v in range(n - 1)]
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = rng.choice(n, 2, replace=False)
            edges.append((int(u), int(v)))
        edges.extend(edges[: int(rng.integers(0, 3))])  # parallel copies
        G = Multigraph(n, edges)
        assert_matches_oracle(G)
        checked += len(set(G.edges)) < G.size
        same_size.setdefault((G.n, G.size), []).append(G)
    assert checked > 100
    for graphs in same_size.values():
        for G, M in zip(graphs, state_digraphs(graphs)[3]):
            assert np.array_equal(M, _oracle_digraph(G)[1].T)
    # the statespace input: a collapsed subgraph whose 4-cycles are
    # parallel edges, and the one-vertex graph with no state
    plant = [(0, 1), (0, 1), (1, 2), (0, 2), (2, 3)]
    H = random_regular_code(96, 3, 6, seed=4, planted=plant)
    G = subgraph_to_multigraph(induce(H, range(4)))
    assert len(set(G.edges)) < G.size
    assert_matches_oracle(G)
    assert_matches_oracle(Multigraph(1, []))
