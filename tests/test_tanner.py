"""Tanner-graph storage, alist round trips, induced-subgraph classification."""

import numpy as np
import pytest

from errorfloor.tanner import (
    ParityCheckMatrix,
    classify,
    induce,
    load_alist,
    load_trapping_sets,
    random_regular_code,
    save_alist,
)

H_DENSE = np.array(
    [
        [1, 1, 0, 0, 1, 0],
        [0, 1, 1, 0, 0, 1],
        [1, 0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1, 1],
    ],
    dtype=np.uint8,
)


def test_dense_round_trip():
    H = ParityCheckMatrix.from_dense(H_DENSE)
    assert np.array_equal(H.dense(), H_DENSE)
    assert H.n_vars == 6 and H.n_chks == 4
    assert np.array_equal(H.chk_degrees, [3, 3, 3, 3])
    assert np.array_equal(H.var_degrees, [2, 2, 2, 2, 2, 2])
    assert H.n_edges == 12


def _rank_oracle(A):
    """GF(2) rank by textbook column-pivot elimination on a dense copy."""
    A = A.copy()
    rank = 0
    for c in range(A.shape[1]):
        rows = [i for i in range(rank, A.shape[0]) if A[i, c]]
        if not rows:
            continue
        A[[rank, rows[0]]] = A[[rows[0], rank]]
        for i in range(A.shape[0]):
            if i != rank and A[i, c]:
                A[i] ^= A[rank]
        rank += 1
    return rank


def test_rate_matches_rank_oracle():
    rng = np.random.default_rng(7)
    for trial in range(120):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 140))
        A = (rng.random((m, n)) < rng.choice([0.05, 0.3, 0.7])).astype(np.uint8)
        if trial % 3 == 0:
            A[-1] = A[0] ^ A[m // 2]  # a dependent row (or a zero one)
        assert ParityCheckMatrix.from_dense(A).rate() == (n - _rank_oracle(A)) / n
    assert ParityCheckMatrix.from_dense(H_DENSE).rate() == 3 / 6  # rows sum to zero


def test_rate_of_even_variable_degree_code():
    # every column of a (4,8) code has even weight, so the 128 rows sum
    # to zero and the design rate 1/2 is not the code's rate
    assert random_regular_code(256, 4, 8, seed=1).rate() == 129 / 256
    assert random_regular_code(256, 3, 6, seed=1).rate() == 0.5


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        ParityCheckMatrix([[0, 6]], 6)
    with pytest.raises(ValueError):
        ParityCheckMatrix([[-1]], 6)


def test_alist_round_trip(tmp_path):
    H = random_regular_code(48, 3, 6, seed=4)
    p = tmp_path / "code.alist"
    save_alist(H, p)
    H2 = load_alist(p)
    assert np.array_equal(H.dense(), H2.dense())


def test_alist_accepts_unpadded(tmp_path):
    # same matrix written without zero padding (max counts set to 0)
    H = ParityCheckMatrix.from_dense(H_DENSE)
    p = tmp_path / "unpadded.alist"
    lines = ["6 4", "0 0",
             " ".join("2" for _ in range(6)),
             " ".join("3" for _ in range(4))]
    lines += [" ".join(str(c + 1) for c in H.var_chks[j]) for j in range(6)]
    lines += [" ".join(str(v + 1) for v in H.chk_vars[i]) for i in range(4)]
    p.write_text("\n".join(lines) + "\n")
    assert np.array_equal(load_alist(p).dense(), H_DENSE)


def test_alist_truncated_rejected(tmp_path):
    H = random_regular_code(36, 3, 6, seed=0)
    p = tmp_path / "trunc.alist"
    save_alist(H, p)
    tokens = p.read_text().split()
    p.write_text(" ".join(tokens[:-3]))
    with pytest.raises(ValueError, match="truncated"):
        load_alist(p)


def test_alist_inconsistent_rejected(tmp_path):
    p = tmp_path / "bad.alist"
    # column lists disagree with row lists
    p.write_text("2 1\n1 2\n1 1\n2\n1\n0\n1 2\n")
    with pytest.raises(ValueError):
        load_alist(p)


def test_load_trapping_sets(tmp_path):
    p = tmp_path / "sets.txt"
    p.write_text("# header comment\n3 1 2\n\n7 7 9   # dup collapses\n")
    sets = load_trapping_sets(p)
    assert [s.tolist() for s in sets] == [[1, 2, 3], [7, 9]]
    p.write_text("1 x 3\n")
    with pytest.raises(ValueError, match="malformed"):
        load_trapping_sets(p)
    p.write_text("-2 0\n")
    with pytest.raises(ValueError, match="negative"):
        load_trapping_sets(p)


def test_induce_counts():
    H = ParityCheckMatrix.from_dense(H_DENSE)
    sub = induce(H, [0, 1, 2])
    assert sub.a == 3
    # checks 0,1 see two of {0,1,2}; checks 2 sees two; check 3 none
    assert sub.checks.tolist() == [0, 1, 2]
    assert sub.check_degrees.tolist() == [2, 2, 2]
    assert sub.b == 0


def test_induce_rejects_bad_sets():
    H = ParityCheckMatrix.from_dense(H_DENSE)
    with pytest.raises(ValueError):
        induce(H, [])
    with pytest.raises(ValueError):
        induce(H, [0, 99])


def plant_code(planted, seed=5, n=36):
    return random_regular_code(n, 3, 6, seed=seed, planted=planted)


def test_classify_codeword_set():
    # K4 on variables 0..3: six degree-2 checks, no odd checks
    cw = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    H = plant_code(cw)
    cls = classify(induce(H, [0, 1, 2, 3]), 3)
    assert (cls.a, cls.b) == (4, 0)
    assert cls.elementary and cls.codeword
    assert cls.absorbing and cls.fully_absorbing


def test_classify_absorbing_set():
    # (5,1): vertices 0..4, one degree-1 check on variable 1
    plant = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (1,)]
    H = plant_code(plant, seed=2, n=256)
    cls = classify(induce(H, range(5)), 3)
    assert (cls.a, cls.b) == (5, 1)
    assert cls.elementary and cls.absorbing and not cls.codeword


def test_classify_non_elementary():
    H = ParityCheckMatrix.from_dense(H_DENSE)
    # variable degrees are 2 here, so classify against d_v = 2
    cls = classify(induce(H, [0, 1, 4]), 2)
    assert not cls.elementary  # check 0 has degree 3 inside the set


def test_classify_strict_majority():
    # d_v = 4 vertex with 2 odd and 2 even checks is not absorbing
    dense = np.zeros((9, 3), dtype=np.uint8)
    dense[0, [0, 1]] = 1
    dense[1, [0, 2]] = 1
    dense[2, [1, 2]] = 1
    rows = [(3, 0), (4, 0), (5, 1), (6, 1), (7, 2), (8, 2)]
    for r, v in rows:
        dense[r, v] = 1
    H = ParityCheckMatrix.from_dense(dense)
    cls = classify(induce(H, [0, 1, 2]), 4)
    assert (cls.a, cls.b) == (3, 6)
    assert not cls.absorbing


def test_classify_rejects_wrong_degree():
    H = ParityCheckMatrix.from_dense(H_DENSE)
    with pytest.raises(ValueError):
        classify(induce(H, [0, 1]), 3)


def test_random_regular_structure():
    H = random_regular_code(30, 3, 6, seed=9)
    assert np.all(H.var_degrees == 3)
    assert np.all(H.chk_degrees == 6)
    # 4-cycle-free: no pair of checks shares two variables
    D = H.dense().astype(int)
    overlap = D @ D.T
    np.fill_diagonal(overlap, 0)
    assert overlap.max() <= 1


def test_random_regular_planted_and_deterministic():
    plant = [(0, 1), (2, 3)]
    H1 = random_regular_code(36, 3, 6, seed=11, planted=plant)
    H2 = random_regular_code(36, 3, 6, seed=11, planted=plant)
    assert np.array_equal(H1.dense(), H2.dense())
    for c, vs in enumerate(plant):
        assert set(vs) <= set(H1.chk_vars[c].tolist())
    H3 = random_regular_code(36, 3, 6, seed=12, planted=plant)
    assert not np.array_equal(H1.dense(), H3.dense())


def test_random_regular_rejects_bad_args():
    with pytest.raises(ValueError):
        random_regular_code(25, 3, 6)
    with pytest.raises(ValueError):
        random_regular_code(12, 3, 6, planted=[(0, 0)])
