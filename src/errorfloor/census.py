"""Census of connected simple graphs that collapse from absorbing sets.

For variable degree d_v, an (a, b) elementary absorbing set collapses to
a connected simple graph of order a, size (a*d_v - b)/2, with every
vertex degree strictly above d_v/2 (the strict-majority condition) and
at most d_v.  Graphs are generated by vertex augmentation, in one chain
per d_v that serves every order.  A parent is augmented by one vertex
subset per orbit of its automorphisms, which the certificate search finds
as it prunes.  A child is kept only if its new vertex lies in its
canonical deletion class, the least-degree vertices with the largest
color under refinement seeded by the degrees (the pre-test of McKay's
canonical augmentation); a canonical certificate then removes the
remaining duplicates.  The filter loses no class:

- the class is an isomorphism invariant;
- the chain's degree-deficit pruning still holds after deleting any
  vertex v: each deficit grows by at most 1 while the vertices still to
  come grow by 1, and the total grows by at most deg(v) <= d_v while its
  budget grows by d_v;
- so a class of order k+1 minus a vertex of its deletion class is a class
  of order k in the chain, and the orbit representative of the deleted
  vertex's neighbourhood yields a child isomorphic to it whose new vertex
  lies in the deletion class.

Only the automorphisms the search found are used, which may generate a
subgroup: smaller orbits cost duplicates, which the certificate removes,
never classes.  Each class is then ranked by the spectral radius of its
state digraph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Multigraph, multigraph_to_digraph
from .spectral import frobenius_bounds, spectral_summary


def _refine(adj, colors):
    """Iterated neighbourhood refinement; returns stable integer colors.

    Each round ranks the vertices by (color, sorted neighbour colors).
    A round that splits no class is the last: its ranks are final.
    """
    k = len(set(colors))
    while True:
        sigs = [(c, tuple(sorted(map(colors.__getitem__, nbrs))))
                for c, nbrs in zip(colors, adj)]
        mapping = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = tuple(map(mapping.__getitem__, sigs))
        if len(mapping) == k:
            return colors
        k = len(mapping)


def _orbit_labels(gens, n: int) -> list[int]:
    """Least member of each vertex's orbit under the group `gens` generate."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for g in gens:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def canonical_cert(adj, autos: list | None = None) -> tuple:
    """Canonical form of a simple graph given as neighbour lists.

    Refinement plus backtracking individualization: members of the first
    non-singleton color class are individualized in turn and the
    lexicographically smallest adjacency encoding over the discrete
    colorings wins.  Equal certificates reconstruct equal graphs, so the
    certificate is sound and complete.

    A leaf whose encoding equals the first or the best one found differs
    from it by an automorphism, which is recorded.  A target-cell vertex
    that the automorphisms fixing the node's individualized prefix map
    onto an explored vertex is skipped: its subtree is the image of an
    explored one and holds only encodings already seen, so the minimum is
    that of the full search.  The automorphisms found (tuples g, vertex v
    maps to g[v]) are appended to `autos` when it is given; they generate
    a subgroup of the automorphism group.
    """
    n = len(adj)
    found: list = []
    first = best = None  # (encoding, vertex at each position)

    def leaf(colors):
        nonlocal first, best
        perm = [0] * n
        for v, c in enumerate(colors):
            perm[c] = v
        cert = tuple(tuple(sorted(map(colors.__getitem__, adj[v]))) for v in perm)
        for ref in (first, best):
            if ref is not None and ref[0] == cert:
                if perm != ref[1]:
                    g = [0] * n
                    for u, v in zip(ref[1], perm):
                        g[u] = v
                    found.append(tuple(g))
                return
        if first is None:
            first = best = (cert, perm)
        elif cert < best[0]:
            best = (cert, perm)

    def rec(colors, prefix):
        size = [0] * n
        for c in colors:
            size[c] += 1
        cell = next((c for c in range(n) if size[c] > 1), None)
        if cell is None:
            leaf(colors)
            return
        explored: list = []
        n_gens, orbit = 0, None
        for v in (u for u in range(n) if colors[u] == cell):
            if explored and found:
                if n_gens != len(found):
                    n_gens = len(found)
                    fixing = [g for g in found if all(g[u] == u for u in prefix)]
                    orbit = _orbit_labels(fixing, n)
                if any(orbit[u] == orbit[v] for u in explored):
                    continue
            split = list(colors)
            split[v] = -1
            rec(_refine(adj, tuple(split)), prefix + (v,))
            explored.append(v)

    rec(_refine(adj, (0,) * n), ())
    if autos is not None:
        autos.extend(found)
    return best[0]


# d_v -> levels of the augmentation chain, indexed by order: each level a
# list of (edges, automorphism generators), one per isomorphism class
_CENSUS_CACHE: dict = {}


def _augmented_census(a: int, d_v: int) -> list:
    """Simple graphs of order `a` (as edge tuples, one per iso class) with
    max degree <= d_v that may still grow into the census window.

    One augmentation chain per d_v serves every order up to the one it
    was built to; a deeper request rebuilds it.  Its pruning is set for
    that deepest order, which keeps a superset of what a chain built to
    `a` keeps, so every graph of order `a` with min degree at least the
    strict-majority bound d_v//2 + 1 is among the returned ones.
    """
    levels = _CENSUS_CACHE.get(d_v)
    if levels is None or len(levels) <= a:
        levels = _build_chain(a, d_v)
        _CENSUS_CACHE[d_v] = levels
    return [edges for edges, _ in levels[a]]


def _build_chain(a_max: int, d_v: int) -> list:
    dmin = d_v // 2 + 1
    level = [((), [])]  # starts from the 1-vertex graph
    levels = [[], level]
    for k in range(1, a_max):
        nxt: dict = {}  # cert -> (edges, automorphism generators)
        future = a_max - (k + 1)
        for edges, autos in level:
            adj = [[] for _ in range(k)]
            for u, v in edges:
                adj[u].append(v)
                adj[v].append(u)
            deg = [len(nbrs) for nbrs in adj]
            free = [v for v in range(k) if deg[v] < d_v]
            # the new vertex must end up of least degree (degree cut)
            for subset in _subset_reps(free, min(d_v, min(deg) + 1), autos):
                ndeg = deg + [len(subset)]
                for v in subset:
                    ndeg[v] += 1
                low = min(ndeg)
                if len(subset) > low:
                    continue
                # each remaining vertex can feed one simple edge per
                # deficient vertex and d_v edge endpoints in total
                if any(dmin - d > future for d in ndeg):
                    continue
                if sum(max(0, dmin - d) for d in ndeg) > future * d_v:
                    continue
                cadj = [nbrs + [k] if v in subset else nbrs for v, nbrs in enumerate(adj)]
                cadj.append(list(subset))
                # color cut: k must be in the canonical deletion class
                col = _refine(cadj, ndeg)
                if col[k] != max(c for c, d in zip(col, ndeg) if d == low):
                    continue
                found: list = []
                cert = canonical_cert(cadj, found)
                if cert not in nxt:
                    nxt[cert] = (edges + tuple((v, k) for v in subset), found)
        level = list(nxt.values())
        levels.append(level)
    return levels


def _subset_reps(pool, kmax, autos):
    """Subsets of `pool` up to size kmax, one per orbit of the group the
    parent's automorphisms `autos` generate: the lexicographically least.
    Subsets in one orbit give isomorphic children.  `pool` is sorted and
    closed under the group."""
    for r in range(0, min(len(pool), kmax) + 1):
        seen: set = set()
        for subset in itertools.combinations(pool, r):
            if subset in seen:
                continue
            yield subset
            if not autos:
                continue
            seen.add(subset)
            stack = [subset]
            while stack:
                s = stack.pop()
                for g in autos:
                    t = tuple(sorted([g[v] for v in s]))
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)


def generate_classes(d_v: int, a: int, b: int) -> list[Multigraph]:
    """Non-isomorphic candidates for (a, b) absorbing sets at degree d_v."""
    if a < 2:
        raise ValueError("need a >= 2")
    if (a * d_v - b) % 2:
        raise ValueError("a*d_v - b must be even")
    size = (a * d_v - b) // 2
    if size < 0:
        raise ValueError("negative size")
    dmin = d_v // 2 + 1
    out = []
    for edges in _augmented_census(a, d_v):
        if len(edges) != size:
            continue
        G = Multigraph(a, edges)
        deg = G.degrees()
        if deg.min() < dmin or deg.max() > d_v:
            continue
        if G.connected():
            out.append(G)
    return out


@dataclass(frozen=True)
class ClassSpectrum:
    """Spectral detail for one equivalence class."""

    graph: Multigraph
    r: float
    h: int
    irreducible: bool
    primitive: bool
    frob_low: float
    frob_high: float


def spectrum_of(G: Multigraph) -> ClassSpectrum:
    D = multigraph_to_digraph(G)
    A = D.arcs.T.astype(float)
    s = spectral_summary(A)
    lo, hi = frobenius_bounds(A)
    return ClassSpectrum(G, s.r, s.h, s.irreducible, s.primitive, lo, hi)


@dataclass(frozen=True)
class ClassRow:
    """One table row: all classes sharing (a, b) at a given d_v."""

    d_v: int
    a: int
    b: int
    count: int
    h_max: int
    r_min: float
    r_max: float

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("negative count")
        if self.count and self.r_min > self.r_max:
            raise ValueError("r_min > r_max")


def class_spectra(classes, d_v: int) -> ClassRow:
    """Aggregate row over one (a, b) family of classes."""
    if not classes:
        raise ValueError("no classes to aggregate")
    a = classes[0].n
    size = classes[0].size
    if any(G.n != a or G.size != size for G in classes):
        raise ValueError("classes mix different (a, b)")
    b = a * d_v - 2 * size
    spectra = [spectrum_of(G) for G in classes]
    return ClassRow(
        d_v,
        a,
        b,
        len(classes),
        max(s.h for s in spectra),
        min(s.r for s in spectra),
        max(s.r for s in spectra),
    )


def emit_table(d_v: int, a_max: int, r_cutoff: float | None = None) -> list[ClassRow]:
    """Census rows for all feasible (a, b) with a <= a_max, sorted by
    (a, b); when r_cutoff is given only rows with r_max above it stay.
    Needs d_v >= 2 (d_v = 2 gives the cycles) and a_max >= 2."""
    if d_v < 2:
        raise ValueError(f"d_v must be at least 2, got {d_v}")
    if a_max < 2:
        raise ValueError(f"a_max must be at least 2, got {a_max}")
    _augmented_census(a_max, d_v)  # one chain serves every order below
    dmin = d_v // 2 + 1
    rows = []
    for a in range(2, a_max + 1):
        b_start = (a * d_v) % 2
        for b in range(b_start, a * (d_v - dmin) + 1, 2):
            classes = generate_classes(d_v, a, b)
            if not classes:
                continue
            row = class_spectra(classes, d_v)
            if r_cutoff is not None and not row.r_max > r_cutoff:
                continue
            rows.append(row)
    return rows


def table_to_csv(rows) -> list[tuple]:
    """Header and cells of the census table, in the column layout of the
    published tables."""
    return [("a", "b", "count", "h_max", "r_min", "r_max"),
            *((r.a, r.b, r.count, r.h_max, r.r_min, r.r_max) for r in rows)]
