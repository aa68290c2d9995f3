"""Structure census: canonical forms, completeness, table aggregation."""

import itertools

import numpy as np
import pytest

from errorfloor import census
from errorfloor.census import (
    ClassRow,
    _augmented_census,
    canonical_cert,
    class_spectra,
    emit_table,
    generate_classes,
    spectrum_of,
    table_to_csv,
)
from errorfloor.graphs import Multigraph


def brute_isomorphic(e1, e2, n):
    s1 = {tuple(sorted(e)) for e in e1}
    if len(s1) != len({tuple(sorted(e)) for e in e2}):
        return False
    for perm in itertools.permutations(range(n)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in e2} == s1:
            return True
    return False


def brute_classes(d_v, a, b):
    """All connected simple graphs with the census degree window,
    deduplicated by permutation search."""
    dmin = d_v // 2 + 1
    size = (a * d_v - b) // 2
    pairs = list(itertools.combinations(range(a), 2))
    reps = []
    for chosen in itertools.combinations(pairs, size):
        deg = [0] * a
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        if min(deg) < dmin or max(deg) > d_v:
            continue
        if not Multigraph(a, list(chosen)).connected():
            continue
        if not any(brute_isomorphic(chosen, r, a) for r in reps):
            reps.append(chosen)
    return reps


def random_adj(n, rng):
    adj = [[] for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def test_cert_invariant_under_relabeling():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        adj = random_adj(n, rng)
        perm = rng.permutation(n)
        padj = [[] for _ in range(n)]
        for u in range(n):
            for v in adj[u]:
                padj[perm[u]].append(int(perm[v]))
        assert canonical_cert(adj) == canonical_cert(padj)


def test_cert_separates_non_isomorphic():
    # path vs star on 4 vertices: same degree multiset fails, use 5
    path = [[1], [0, 2], [1, 3], [2, 4], [3]]
    fork = [[1], [0, 2, 3], [1], [1, 4], [3]]
    assert canonical_cert(path) != canonical_cert(fork)


@pytest.mark.parametrize(
    "d_v,a,b",
    [(3, 4, 0), (3, 4, 2), (3, 5, 1), (3, 5, 3), (3, 6, 2), (4, 4, 2), (4, 5, 4)],
)
def test_generate_classes_matches_brute_force(d_v, a, b):
    got = generate_classes(d_v, a, b)
    want = brute_classes(d_v, a, b)
    assert len(got) == len(want)
    # every produced class is inside the window and mutually non-isomorphic
    for G in got:
        deg = G.degrees()
        assert deg.min() >= d_v // 2 + 1 and deg.max() <= d_v
    for G, H in itertools.combinations(got, 2):
        assert not brute_isomorphic(G.edges, H.edges, a)


def test_generate_classes_validates():
    with pytest.raises(ValueError):
        generate_classes(3, 1, 1)
    with pytest.raises(ValueError):
        generate_classes(3, 4, 1)  # parity


def test_no_minority_degree_vertices():
    for b in (0, 2, 4):
        for G in generate_classes(4, 6, b):
            assert G.degrees().min() >= 3


def test_spectrum_of_known_classes():
    (k4,) = generate_classes(3, 4, 0)
    s = spectrum_of(k4)
    assert s.r == pytest.approx(2.0, abs=1e-9)
    (g42,) = generate_classes(3, 4, 2)
    s42 = spectrum_of(g42)
    assert s42.r == pytest.approx(1.5214, abs=5e-4)
    assert s42.h == 1
    assert s42.frob_low <= s42.r <= s42.frob_high


def test_class_spectra_aggregates():
    classes = generate_classes(3, 5, 3)
    row = class_spectra(classes, 3)
    assert (row.a, row.b, row.count) == (5, 3, 2)
    assert row.r_min == pytest.approx(1.414, abs=1e-3)
    assert row.r_max == pytest.approx(1.424, abs=1e-3)
    assert row.h_max == 4
    with pytest.raises(ValueError):
        class_spectra([], 3)
    with pytest.raises(ValueError):
        class_spectra(generate_classes(3, 4, 0) + generate_classes(3, 5, 1), 3)


def test_emit_table_cutoff():
    full = emit_table(3, 6)
    cut = emit_table(3, 6, r_cutoff=1.3)
    assert {(r.a, r.b) for r in cut} <= {(r.a, r.b) for r in full}
    assert all(r.r_max > 1.3 for r in cut)
    dropped = {(r.a, r.b) for r in full} - {(r.a, r.b) for r in cut}
    assert all(r.r_max <= 1.3 for r in full if (r.a, r.b) in dropped)
    assert [(r.a, r.b) for r in full] == sorted((r.a, r.b) for r in full)


def test_class_row_validation():
    with pytest.raises(ValueError):
        ClassRow(3, 4, 2, -1, 1, 1.0, 2.0)
    with pytest.raises(ValueError):
        ClassRow(3, 4, 2, 1, 1, 2.0, 1.0)


def test_table_to_csv_layout():
    rows = emit_table(3, 5)
    table = table_to_csv(rows)
    assert table[0] == ("a", "b", "count", "h_max", "r_min", "r_max")
    assert len(table) == len(rows) + 1
    r = rows[0]
    assert table[1] == (r.a, r.b, r.count, r.h_max, r.r_min, r.r_max)


# --- the former exhaustive search and per-order augmentation, kept as the
# oracles of the pruned search and the one-chain-per-d_v census ---

def _oracle_refine(adj, colors):
    n = len(adj)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        mapping = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(mapping[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def _oracle_cert(adj):
    n = len(adj)
    best = None

    def emit(colors):
        nonlocal best
        perm = sorted(range(n), key=colors.__getitem__)
        pos = {v: i for i, v in enumerate(perm)}
        cert = tuple(tuple(sorted(pos[w] for w in adj[v])) for v in perm)
        if best is None or cert < best:
            best = cert

    def rec(colors):
        groups: dict = {}
        for v, c in enumerate(colors):
            groups.setdefault(c, []).append(v)
        target = None
        for c in sorted(groups):
            if len(groups[c]) > 1:
                target = groups[c]
                break
        if target is None:
            emit(colors)
            return
        for v in target:
            split = list(colors)
            split[v] = -1
            rec(_oracle_refine(adj, tuple(split)))

    rec(_oracle_refine(adj, (0,) * n))
    return best


def _adj_of(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _oracle_augmented_census(a, d_v):
    return _oracle_chain(a, d_v)[a]


def _oracle_chain(a, d_v):
    """Every level of the per-order augmentation with the pruning set for
    order `a`, each a list of edge tuples, one per class."""
    dmin = d_v // 2 + 1
    level = {(): ()}
    levels = [[], [()]]
    for k in range(1, a):
        nxt: dict = {}
        for edges in level.values():
            deg = [0] * k
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            free = [v for v in range(k) if deg[v] < d_v]
            future = a - (k + 1)
            for r in range(0, min(len(free), d_v) + 1):
                for subset in itertools.combinations(free, r):
                    new_edges = edges + tuple((v, k) for v in subset)
                    ndeg = deg + [len(subset)]
                    for v in subset:
                        ndeg[v] += 1
                    if any(dmin - d > future for d in ndeg):
                        continue
                    if sum(max(0, dmin - d) for d in ndeg) > future * d_v:
                        continue
                    cert = _oracle_cert(_adj_of(k + 1, new_edges))
                    if cert not in nxt:
                        nxt[cert] = new_edges
        level = nxt
        levels.append(list(level.values()))
    return levels


def _random_graphs(rng, count, n_max):
    for n in range(n_max + 1):
        yield _adj_of(n, [])
        yield _adj_of(n, list(itertools.combinations(range(n), 2)))
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        p = rng.choice([0.2, 0.5, 0.8])
        yield _adj_of(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def test_cert_matches_exhaustive_search_oracle():
    rng = np.random.default_rng(3)
    for adj in _random_graphs(rng, 600, 7):
        autos = []
        assert canonical_cert(adj, autos) == _oracle_cert(adj)
        # what the search reports as automorphisms are automorphisms
        edges = {frozenset((u, v)) for u in range(len(adj)) for v in adj[u]}
        for g in autos:
            assert sorted(g) == list(range(len(adj)))
            assert {frozenset((g[u], g[v])) for u, v in edges} == edges


def test_cert_prunes_symmetric_graphs():
    # K_6 has 720 leaves unpruned; the pruned search visits a handful
    # and its automorphisms move every vertex
    k6 = _adj_of(6, list(itertools.combinations(range(6), 2)))
    autos = []
    assert canonical_cert(k6, autos) == _oracle_cert(k6)
    assert 0 < len(autos) < 720
    moved = {v for g in autos for v in range(6) if g[v] != v}
    assert moved == set(range(6))


def _window_certs(d_v, a, graphs):
    dmin = d_v // 2 + 1
    out = set()
    for edges in graphs:
        G = Multigraph(a, list(edges))
        deg = G.degrees()
        if deg.min() >= dmin and deg.max() <= d_v and G.connected():
            out.add(_oracle_cert(_adj_of(a, edges)))
    return out


@pytest.mark.parametrize("d_v", [2, 3, 4, 5, 6])
def test_classes_match_per_order_oracle(d_v, monkeypatch):
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    dmin = d_v // 2 + 1
    for a in range(2, 8):
        want = _window_certs(d_v, a, _oracle_augmented_census(a, d_v))
        got = []
        for b in range((a * d_v) % 2, a * (d_v - dmin) + 1, 2):
            got += [_oracle_cert(_adj_of(a, G.edges)) for G in generate_classes(d_v, a, b)]
        assert len(got) == len(set(got))  # one graph per class
        assert set(got) == want
        assert _window_certs(d_v, a, _augmented_census(a, d_v)) == want


@pytest.mark.parametrize("d_v", [2, 3, 4, 5, 6])
def test_every_chain_level_matches_the_oracle(d_v, monkeypatch):
    # all classes, not only the census window: a filter that drops an
    # intermediate class shows here even when no window class is lost
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    _augmented_census(7, d_v)
    chain = census._CENSUS_CACHE[d_v]
    oracle = _oracle_chain(7, d_v)
    assert len(chain) == len(oracle)
    for k in range(1, 8):
        got = [_oracle_cert(_adj_of(k, edges)) for edges, _ in chain[k]]
        assert len(got) == len(set(got))  # one graph per class
        assert set(got) == {_oracle_cert(_adj_of(k, e)) for e in oracle[k]}


@pytest.mark.parametrize("d_v", [2, 3, 4, 5, 6])
def test_chain_computes_about_one_certificate_per_class(d_v, monkeypatch):
    calls = []
    cert = census.canonical_cert

    def counted(adj, autos=None):
        calls.append(1)
        return cert(adj, autos)

    monkeypatch.setattr(census, "canonical_cert", counted)
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    _augmented_census(7, d_v)
    kept = sum(len(level) for level in census._CENSUS_CACHE[d_v])
    assert len(calls) <= 1.05 * kept


def test_classes_do_not_depend_on_chain_depth(monkeypatch):
    def certs(d_v, a, b):
        return sorted(_oracle_cert(_adj_of(a, G.edges)) for G in generate_classes(d_v, a, b))

    cases = [(3, 5, 1), (3, 6, 2), (4, 5, 2), (4, 6, 4), (5, 5, 5), (5, 6, 6)]
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    shallow = [certs(*c) for c in cases]  # each chain built to that order
    monkeypatch.setattr(census, "_CENSUS_CACHE", {})
    for d_v in (3, 4, 5):
        _augmented_census(8, d_v)
    deep = [certs(*c) for c in cases]  # served by the order-8 chains
    assert deep == shallow
    assert all(shallow)


def test_emit_table_rejects_degenerate_sizes():
    for d_v, a_max in ((1, 6), (0, 6), (-1, 6), (3, 1), (3, -3)):
        with pytest.raises(ValueError, match="at least 2"):
            emit_table(d_v, a_max)
    assert [(r.a, r.b, r.count) for r in emit_table(2, 5)] == [(3, 0, 1), (4, 0, 1), (5, 0, 1)]
