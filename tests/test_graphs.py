"""Multigraph collapse and the directed-edge state digraph."""

import numpy as np
import pytest

from errorfloor.graphs import Multigraph, multigraph_to_digraph, subgraph_to_multigraph
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
    n = 1 + max(max(e) for e in edges) if n is None else n
    return multigraph_to_digraph(Multigraph(n, edges))


def test_digraph_structure():
    D = digraph_of(K4_EDGES)
    assert D.order == 12  # two states per edge
    deg = Multigraph(4, K4_EDGES).degrees()
    for i, (_, head, _) in enumerate(D.states):
        assert D.arcs[i].sum() == deg[head] - 1  # continuations skip the reverse
        assert D.arcs[i, D.reverse[i]] == 0
    rev = D.reverse
    assert np.array_equal(rev[rev], np.arange(D.order))


def test_digraph_cycle_splits_in_two():
    # a k-cycle yields two disjoint directed k-cycles
    D = digraph_of([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert D.order == 8
    assert np.all(D.arcs.sum(axis=1) == 1)
    A = D.arcs.astype(np.int64)
    walk = np.linalg.matrix_power(A, 4)
    assert np.array_equal(np.diag(walk), np.ones(8, dtype=np.int64))


def test_digraph_parallel_edges():
    # double edge = 2-cycle: each direction continues into the other edge
    D = digraph_of([(0, 1), (0, 1)])
    assert D.order == 4
    assert np.all(D.arcs.sum(axis=1) == 1)


def test_digraph_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        multigraph_to_digraph(Multigraph(4, [(0, 1), (2, 3)]))
