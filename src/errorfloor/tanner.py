"""Tanner graphs: parity-check storage, alist I/O, induced subgraphs.

Variable and check indices are 0-based everywhere in memory; the alist
format's 1-based indices are translated at the file boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ParityCheckMatrix:
    """Sparse binary parity-check matrix held as adjacency lists."""

    def __init__(self, chk_vars, n_vars: int):
        self.chk_vars = [np.asarray(sorted(set(map(int, row))), dtype=np.int64) for row in chk_vars]
        self.n_vars = int(n_vars)
        self.n_chks = len(self.chk_vars)
        var_chks = [[] for _ in range(self.n_vars)]
        for c, row in enumerate(self.chk_vars):
            if len(row) and (row[0] < 0 or row[-1] >= self.n_vars):
                raise ValueError("variable index out of range")
            for v in row:
                var_chks[v].append(c)
        self.var_chks = [np.asarray(chks, dtype=np.int64) for chks in var_chks]

    @property
    def var_degrees(self) -> np.ndarray:
        return np.array([len(c) for c in self.var_chks], dtype=np.int64)

    @property
    def chk_degrees(self) -> np.ndarray:
        return np.array([len(v) for v in self.chk_vars], dtype=np.int64)

    @property
    def n_edges(self) -> int:
        return int(self.chk_degrees.sum())

    def dense(self) -> np.ndarray:
        H = np.zeros((self.n_chks, self.n_vars), dtype=np.uint8)
        for c, row in enumerate(self.chk_vars):
            H[c, row] = 1
        return H

    def rate(self) -> float:
        """Code rate (n - rank(H))/n, with the rank over GF(2): dependent
        checks add no constraint.  Rows are packed 64 columns to a word
        and each nonzero row, in turn, clears its lowest set bit from the
        rows below it."""
        packed = np.packbits(self.dense(), axis=1, bitorder="little")
        rows = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
        rank = 0
        for i, row in enumerate(rows):
            nz = np.flatnonzero(row)
            if not len(nz):
                continue
            rank += 1
            w = nz[0]
            bit = row[w] & ~(row[w] - np.uint64(1))
            below = rows[i + 1:]
            below[(below[:, w] & bit) != 0] ^= row
        return (self.n_vars - rank) / self.n_vars

    @classmethod
    def from_dense(cls, H) -> "ParityCheckMatrix":
        H = np.asarray(H)
        return cls([np.flatnonzero(row) for row in H], H.shape[1])

    def __repr__(self):
        return f"ParityCheckMatrix(n={self.n_vars}, checks={self.n_chks}, edges={self.n_edges})"


def load_alist(path) -> ParityCheckMatrix:
    """Read a parity-check matrix in the standard alist text format.

    Padding zeros in the per-node lists are ignored, so both padded and
    unpadded writers are accepted.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)

    def take(k):
        return [int(next(it)) for _ in range(k)]

    try:
        n, m = take(2)
        max_col, max_row = take(2)
        col_deg = take(n)
        row_deg = take(m)
        # column lists are consulted only for cross-checking
        col_lists = [take(max_col if max_col else col_deg[j]) for j in range(n)]
        row_lists = [take(max_row if max_row else row_deg[i]) for i in range(m)]
    except StopIteration:
        raise ValueError(f"truncated alist file: {path}") from None
    if n < 1:
        raise ValueError(f"a code needs at least one variable, got n = {n}")

    chk_vars = []
    for i, lst in enumerate(row_lists):
        vals = [v - 1 for v in lst if v != 0]
        if len(vals) != row_deg[i]:
            raise ValueError(f"alist row {i}: degree mismatch")
        chk_vars.append(vals)
    H = ParityCheckMatrix(chk_vars, n)
    for j, lst in enumerate(col_lists):
        got = sorted(v - 1 for v in lst if v != 0)
        if got != list(H.var_chks[j]):
            raise ValueError(f"alist column {j}: row/column lists disagree")
    return H


def save_alist(H: ParityCheckMatrix, path) -> None:
    max_col = int(H.var_degrees.max(initial=0))
    max_row = int(H.chk_degrees.max(initial=0))
    lines = [
        f"{H.n_vars} {H.n_chks}",
        f"{max_col} {max_row}",
        " ".join(str(len(c)) for c in H.var_chks),
        " ".join(str(len(v)) for v in H.chk_vars),
    ]
    for chks in H.var_chks:
        pad = [0] * (max_col - len(chks))
        lines.append(" ".join(str(c + 1) for c in chks) + ("" if not pad else " " + " ".join(map(str, pad))))
    for vars_ in H.chk_vars:
        pad = [0] * (max_row - len(vars_))
        lines.append(" ".join(str(v + 1) for v in vars_) + ("" if not pad else " " + " ".join(map(str, pad))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_trapping_sets(path) -> list[np.ndarray]:
    """Read trapping-set candidates: one set per line, 0-based variable
    indices separated by whitespace, '#' starts a comment."""
    sets = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                idx = sorted(set(int(t) for t in line.split()))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed variable index") from None
            if idx and idx[0] < 0:
                raise ValueError(f"{path}:{lineno}: negative variable index")
            sets.append(np.asarray(idx, dtype=np.int64))
    return sets


@dataclass
class InducedSubgraph:
    """Subgraph induced by a variable set S: S, its check neighborhood,
    and per-check degrees within S."""

    host: ParityCheckMatrix
    variables: np.ndarray          # sorted, unique
    checks: np.ndarray             # checks with >= 1 neighbor in S
    check_degrees: np.ndarray      # degree within S, aligned with `checks`

    @property
    def a(self) -> int:
        return len(self.variables)

    @property
    def b(self) -> int:
        return int(np.sum(self.check_degrees % 2 == 1))


def induce(H: ParityCheckMatrix, var_set) -> InducedSubgraph:
    S = np.asarray(sorted(set(map(int, var_set))), dtype=np.int64)
    if len(S) == 0:
        raise ValueError("empty variable set")
    if S[0] < 0 or S[-1] >= H.n_vars:
        raise ValueError("variable index out of range")
    counts = np.zeros(H.n_chks, dtype=np.int64)
    for v in S:
        counts[H.var_chks[v]] += 1
    checks = np.flatnonzero(counts)
    return InducedSubgraph(H, S, checks, counts[checks])


@dataclass(frozen=True)
class SubgraphClass:
    a: int
    b: int
    elementary: bool
    absorbing: bool
    fully_absorbing: bool
    codeword: bool


def classify(sub: InducedSubgraph, d_v: int) -> SubgraphClass:
    """Classify an induced subgraph of a variable-regular Tanner graph.

    (a, b) counts the variables and the odd-degree checks; the absorbing
    flags use the strict-majority condition vertex by vertex.
    """
    H = sub.host
    for v in sub.variables:
        if len(H.var_chks[v]) != d_v:
            raise ValueError(f"variable {v} has degree {len(H.var_chks[v])}, expected {d_v}")

    deg = {int(c): int(d) for c, d in zip(sub.checks, sub.check_degrees)}
    odd = {c for c, d in deg.items() if d % 2 == 1}
    elementary = all(d in (1, 2) for d in deg.values())
    codeword = len(odd) == 0

    absorbing = True
    for v in sub.variables:
        n_odd = sum(1 for c in H.var_chks[v] if int(c) in odd)
        if not d_v - n_odd > n_odd:
            absorbing = False
            break

    fully = absorbing
    if fully:
        members = set(map(int, sub.variables))
        # outside variables may touch only a minority of odd checks
        for c in odd:
            for v in H.chk_vars[c]:
                if int(v) in members:
                    continue
                n_odd = sum(1 for cc in H.var_chks[v] if int(cc) in odd)
                if not len(H.var_chks[v]) - n_odd > n_odd:
                    fully = False
                    break
            if not fully:
                break

    return SubgraphClass(sub.a, sub.b, elementary, absorbing, fully, codeword)


def random_regular_code(
    n: int,
    d_v: int,
    d_c: int,
    seed: int = 0,
    planted=None,
) -> ParityCheckMatrix:
    """Small random (d_v, d_c)-regular code via progressive edge growth.

    `planted` is an optional list of per-check variable tuples occupying
    the first checks; the remaining sockets are filled randomly.  Edges
    are grown one at a time, rejecting candidates that would duplicate an
    edge or close a 4-cycle; the whole construction restarts on a dead
    end, at most 500 times.
    """
    if (n * d_v) % d_c != 0:
        raise ValueError("n*d_v must be divisible by d_c")
    m = n * d_v // d_c
    planted = [tuple(p) for p in planted] if planted else []
    if len(planted) > m:
        raise ValueError("more planted checks than checks in the code")

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 0x7e9))))
    for _ in range(500):
        chk_sets = [set() for _ in range(m)]
        var_sets = [set() for _ in range(n)]
        ok = True
        for c, vs in enumerate(planted):
            for v in vs:
                if v in chk_sets[c] or len(var_sets[v]) >= d_v or len(chk_sets[c]) >= d_c:
                    raise ValueError("planted structure violates degree bounds")
                chk_sets[c].add(v)
                var_sets[v].add(c)

        order = rng.permutation(n)
        for v in order:
            while ok and len(var_sets[v]) < d_v:
                two_hop = set()
                for c in var_sets[v]:
                    two_hop.update(chk_sets[c])
                two_hop.discard(v)
                cands = [
                    c for c in range(m)
                    if len(chk_sets[c]) < d_c
                    and c not in var_sets[v]
                    and not (chk_sets[c] & two_hop)
                ]
                if not cands:
                    ok = False
                    break
                # choose proportionally to free sockets (uniform over stubs)
                caps = np.array([d_c - len(chk_sets[c]) for c in cands], dtype=float)
                c = cands[int(rng.choice(len(cands), p=caps / caps.sum()))]
                chk_sets[c].add(int(v))
                var_sets[v].add(c)
            if not ok:
                break
        if ok:
            return ParityCheckMatrix([sorted(s) for s in chk_sets], n)
    raise RuntimeError(f"could not build a ({d_v},{d_c}) code with n={n} in 500 tries")
