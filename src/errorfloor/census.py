"""Census of connected simple graphs that collapse from absorbing sets.

For variable degree d_v, an (a, b) elementary absorbing set collapses to
a connected simple graph of order a, size (a*d_v - b)/2, with every
vertex degree strictly above d_v/2 (the strict-majority condition) and
at most d_v.  Graphs are generated by vertex augmentation, in one chain
per d_v that serves every order.  A parent is augmented by one vertex
subset per orbit of its automorphisms, which the certificate search finds
as it prunes, and only by admissible subsets: those whose child keeps the
new vertex of least degree (the degree cut) and passes the chain's
degree-deficit pruning, so the generator forces in the vertices these
rules require and never forms the others.  A child is kept only if its
new vertex lies in its canonical deletion class, the least-degree
vertices with the largest color under refinement seeded by the degrees
(the pre-test of McKay's canonical augmentation); a canonical certificate
then removes the remaining duplicates.  The chain's last order is never
augmented, so it needs no automorphisms: its children are bucketed by an
invariant of that refinement, and certificates are computed only within
a bucket that holds more than one child.  The filter loses no class:

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
never classes.  Nor do they move a representative: a level keeps the
first child of each class, and that is always made from the least subset
of its orbit under the full group, whatever subgroup was found.  Each
class is then ranked by the spectral radius of its state digraph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Multigraph, state_digraphs
from .spectral import frobenius_bounds, spectral_summary


def _refine(adj, colors):
    """Iterated neighbourhood refinement; returns stable integer colors.

    Each round ranks the vertices by (color, sorted neighbour colors).
    A round that splits no class is the last: its ranks are final.  Two
    shortcuts give the same ranks with less work: a discrete coloring is
    ranked by its colors at once, and a vertex alone in its class gets
    the signature (color, ()), since its color already sets its rank.
    """
    n = len(colors)
    k = len(set(colors))
    while k < n:
        sigs = [(c, tuple(sorted(map(colors.__getitem__, nbrs))) if colors.count(c) > 1 else ())
                for c, nbrs in zip(colors, adj)]
        mapping = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = tuple(map(mapping.__getitem__, sigs))
        if len(mapping) == k:
            return colors
        k = len(mapping)
    rank = {c: i for i, c in enumerate(sorted(colors))}
    return tuple(map(rank.__getitem__, colors))


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


def canonical_cert(adj, autos: list | None = None, root: tuple | None = None) -> tuple:
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

    The search starts from `root` when it is given, else from the refined
    unit coloring.  `root` must be stable, as `_refine` returns it, and
    computed from the graph alone (say, refined from the degrees), so
    that isomorphic graphs get corresponding roots.  Certificates are
    comparable only between searches that use the same root rule.
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

    rec(_refine(adj, (0,) * n) if root is None else root, ())
    if autos is not None:
        autos.extend(found)
    return best[0]


# d_v -> levels of the augmentation chain, indexed by order: each level a
# list of (edges, automorphism generators), one per isomorphism class.  The
# last level's graphs are never augmented, so it holds no generators.
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


def _adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _build_chain(a_max: int, d_v: int) -> list:
    level = [((), [])]  # starts from the 1-vertex graph
    levels = [[], level]
    for k in range(1, a_max):
        future = a_max - (k + 1)
        nxt: list = []
        certs: set = set()
        buckets: dict = {}  # last order only: invariant hash -> [edges, certs]
        for edges, autos in level:
            adj = _adjacency(k, edges)
            deg = [len(nbrs) for nbrs in adj]
            for subset in _subset_reps(deg, d_v, future, autos):
                low = len(subset)  # the degree cut made the new vertex least
                ndeg = deg + [low]
                for v in subset:
                    ndeg[v] += 1
                cadj = [nbrs + [k] if v in subset else nbrs for v, nbrs in enumerate(adj)]
                cadj.append(list(subset))
                # color cut: k must be in the canonical deletion class
                col = _refine(cadj, ndeg)
                if col[k] != max(c for c, d in zip(col, ndeg) if d == low):
                    continue
                child = edges + tuple((v, k) for v in subset)
                found: list = []
                if future:
                    cert = canonical_cert(cadj, found, col)
                    if cert in certs:
                        continue
                    certs.add(cert)
                elif not _new_at_last_order(buckets, child, cadj, col):
                    continue
                nxt.append((child, found))
        level = nxt
        levels.append(level)
    return levels


def _new_at_last_order(buckets: dict, edges, adj, colors) -> bool:
    """Whether a child of the chain's last order is of a new class.

    No graph of that order is augmented, so no automorphisms are needed.
    Children are bucketed by the hash of an isomorphism invariant of their
    stable coloring, the sorted multiset of (color, sorted neighbour
    colors).  Certificates, started from that coloring, are computed only
    once a bucket holds a second child; a bucket's first child is kept as
    its edges and rebuilt then."""
    key = hash(tuple(sorted((c, tuple(sorted(map(colors.__getitem__, nbrs))))
                            for c, nbrs in zip(colors, adj))))
    entry = buckets.get(key)
    if entry is None:
        buckets[key] = [edges, None]
        return True
    if entry[1] is None:
        first = _adjacency(len(adj), entry[0])
        entry[1] = {canonical_cert(first, root=_refine(first, [len(nbrs) for nbrs in first]))}
    cert = canonical_cert(adj, root=colors)
    if cert in entry[1]:
        return False
    entry[1].add(cert)
    return True


def _subset_reps(deg, d_v: int, future: int, autos):
    """Admissible subsets of a parent's vertices, one per orbit of the
    group its automorphisms `autos` generate: the lexicographically least.
    Subsets in one orbit give isomorphic children.

    `deg` holds the parent's degrees and `future` the vertices still to
    come after the new one.  A subset of size r is admissible when its
    child passes the degree cut (the new vertex ends up of least degree)
    and the deficit prunes: each remaining vertex can feed one simple
    edge per deficient vertex and d_v edge endpoints in total.  So a size
    r needs every parent degree at least r - 1, every deficit dmin - d at
    most future + 1 and the new vertex's own deficit at most future; the
    vertices of degree r - 1 or deficit future + 1 are forced in, and the
    rest are drawn from the other vertices below degree d_v.  These rules
    read degrees only, so the admissible subsets are a union of orbits,
    and with the forced set fixed, lexicographic order on the drawn
    vertices is lexicographic order on the subsets."""
    dmin = d_v // 2 + 1
    if any(dmin - d > future + 1 for d in deg):
        return
    deficit = sum(max(0, dmin - d) for d in deg)
    for r in range(max(0, dmin - future), min(d_v, min(deg) + 1) + 1):
        forced = [v for v, d in enumerate(deg) if d == r - 1 or dmin - d == future + 1]
        if len(forced) > r:
            continue
        rest = [v for v, d in enumerate(deg) if r <= d < d_v and dmin - d <= future]
        # deficient members the subset needs to meet the total budget
        short = (deficit + max(0, dmin - r) - future * d_v
                 - sum(deg[v] < dmin for v in forced))
        seen: set = set()
        for drawn in itertools.combinations(rest, r - len(forced)):
            if short > 0 and sum(deg[v] < dmin for v in drawn) < short:
                continue
            subset = tuple(sorted(forced + list(drawn))) if forced else drawn
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
    """Aggregate row over one (a, b) family of classes.

    The family's state-update matrices share their order 2*size, so one
    stacked spectral summary serves them all; every radius must lie
    within the row-sum (Frobenius) bounds of its matrix."""
    if not classes:
        raise ValueError("no classes to aggregate")
    a = classes[0].n
    size = classes[0].size
    if any(G.n != a or G.size != size for G in classes):
        raise ValueError("classes mix different (a, b)")
    b = a * d_v - 2 * size
    *_, A = state_digraphs(classes)
    spectra = spectral_summary(A)
    r = np.array([s.r for s in spectra])
    lo, hi = frobenius_bounds(A)
    if np.any(r < lo * (1 - 1e-9)) or np.any(r > hi * (1 + 1e-9)):
        raise RuntimeError(f"({a},{b}) at d_v={d_v}: a spectral radius lies outside "
                           "its row-sum bounds")
    return ClassRow(d_v, a, b, len(classes), max(s.h for s in spectra),
                    float(r.min()), float(r.max()))


def emit_table(d_v: int, a_max: int, r_cutoff: float | None = None) -> list[ClassRow]:
    """Census rows for all feasible (a, b) with a <= a_max, sorted by
    (a, b); when r_cutoff is given only rows with r_max above it stay.
    Needs d_v >= 2 (d_v = 2 gives the cycles) and a_max >= 2."""
    if d_v < 2:
        raise ValueError(f"d_v must be at least 2, got {d_v}")
    if a_max < 2:
        raise ValueError(f"a_max must be at least 2, got {a_max}")
    if r_cutoff is not None and not math.isfinite(r_cutoff):
        raise ValueError(f"r_cutoff must be finite, got {r_cutoff}")
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
