from fractions import Fraction
from itertools import permutations
from math import isqrt, prod
from operator import mul

import pytest

from polyaprofile import enumeration
from polyaprofile.enumeration import (
    canonical_shape,
    count_trees,
    cycle_index_apply,
    degree_series,
    enumerate_trees_exhaustive,
    multiset_cap_series,
    tree_series,
)
from polyaprofile.errors import UsageError
from polyaprofile.series import TruncatedSeries

A000081 = [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486]


def test_count_values():
    t = count_trees(13)
    assert list(t.y) == A000081
    assert t.y[0] == 0


def test_count_requires_positive():
    with pytest.raises(UsageError):
        count_trees(0)


@pytest.mark.parametrize("N", [0, -3])
def test_tree_series_requires_positive(N):
    with pytest.raises(UsageError):
        tree_series(N)


def test_euler_transform_recurrence_holds():
    t = count_trees(40)
    s = [sum(d * t.y[d] for d in range(1, k + 1) if k % d == 0) for k in range(41)]
    for n in range(2, 41):
        assert (n - 1) * t.y[n] == sum(s[k] * t.y[n - k] for k in range(1, n))


def test_counts_match_exhaustive():
    t = count_trees(8)
    for n in range(1, 9):
        assert len(enumerate_trees_exhaustive(n)) == t.y[n]


def test_exhaustive_classes_are_canonical_and_distinct():
    for n in (4, 7):
        trees = enumerate_trees_exhaustive(n)
        assert len(set(trees)) == len(trees)
        for s in trees:
            assert canonical_shape(s) == s


def test_exhaustive_size_cap():
    with pytest.raises(UsageError):
        enumerate_trees_exhaustive(11)


# ---------------------------------------------------------------------------
# the process-wide table and its disk cache
# ---------------------------------------------------------------------------

def _forbidden(*args):
    raise AssertionError("the count table should not have done this")


@pytest.fixture
def empty_table(monkeypatch):
    """Empty the process-wide table, so that the next request misses memory."""

    def reset():
        monkeypatch.setattr(enumeration, "_rows", [0, 1])

    reset()
    return reset


def test_count_table_disk_cache_roundtrip(tmp_path, empty_table, monkeypatch):
    fresh = count_trees(80)
    empty_table()
    cached_write = count_trees(80, cache_dir=str(tmp_path))
    assert (tmp_path / "counts_80.txt").exists()
    empty_table()
    monkeypatch.setattr(enumeration, "_extend", _forbidden)
    cached_read = count_trees(80, cache_dir=str(tmp_path))
    assert list(cached_write.y) == list(fresh.y) == list(cached_read.y)


def test_request_within_the_table_runs_no_step_and_reads_no_file(tmp_path, monkeypatch):
    count_trees(50)
    (tmp_path / "counts_50.txt").write_text("not a count table")
    for name in ("_extend", "_cached_file", "_load", "_save"):
        monkeypatch.setattr(enumeration, name, _forbidden)
    for n in (1, 13, 50):
        t = count_trees(n, cache_dir=str(tmp_path))
        assert t.n_max == n and len(t.y) == n + 1
    assert list(count_trees(13).y) == A000081
    assert tree_series(13).coeffs == A000081
    assert [p.name for p in tmp_path.iterdir()] == ["counts_50.txt"]


def test_each_request_returns_exactly_its_rows(empty_table):
    for n in (1, 2, 3, 5, 4, 13):
        assert list(count_trees(n).y) == A000081[: n + 1]


def test_larger_cache_file_is_reused(tmp_path, empty_table, monkeypatch):
    count_trees(80, cache_dir=str(tmp_path))
    want = list(count_trees(40).y)
    empty_table()
    monkeypatch.setattr(enumeration, "_extend", _forbidden)
    assert list(count_trees(40, cache_dir=str(tmp_path)).y) == want
    assert [p.name for p in tmp_path.iterdir()] == ["counts_80.txt"]
    # the whole file entered the table: the next request needs no disk
    monkeypatch.setattr(enumeration, "_load", _forbidden)
    assert len(count_trees(80, cache_dir=str(tmp_path)).y) == 81


def test_smallest_sufficient_cache_file_is_read(tmp_path, empty_table, monkeypatch):
    count_trees(80, cache_dir=str(tmp_path))
    (tmp_path / "counts_20.txt").write_text("\n".join(map(str, count_trees(20).y)))
    empty_table()
    monkeypatch.setattr(enumeration, "_extend", _forbidden)
    assert list(count_trees(13, cache_dir=str(tmp_path)).y) == A000081
    assert len(enumeration._rows) == 21
    assert len(count_trees(40, cache_dir=str(tmp_path)).y) == 41
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts_20.txt", "counts_80.txt"]


# ---------------------------------------------------------------------------
# the multi-modular build against the Python-integer recurrence
# ---------------------------------------------------------------------------

def _euler_counts(n_max):
    """y_0..y_{n_max} by the Euler recurrence in Python integers: the oracle."""
    y = [0, 1]
    s = [0] * n_max  # s[k] sums d * y_d over the divisors d <= m of k
    for m in range(1, n_max + 1):
        if m == len(y):
            y.append(sum(map(mul, s[1:m], y[m - 1:0:-1])) // (m - 1))
        for k in range(m, n_max, m):
            s[k] += m * y[m]
    return y


def test_build_in_one_jump_matches_the_oracle(empty_table):
    assert list(count_trees(400).y) == _euler_counts(400)


def test_build_in_small_steps_matches_the_oracle(empty_table):
    oracle = _euler_counts(400)
    for n in (5, 13, 65, 400):
        assert list(count_trees(n).y) == oracle[: n + 1]


@pytest.mark.parametrize("n", [1, 2, 400, 6400, 10**5])
def test_build_primes_make_the_build_exact(n):
    primes = enumeration._build_primes(n)
    small = [q for q in range(2, 1025) if all(q % r for r in range(2, isqrt(q) + 1))]
    assert all(p % q for p in primes for q in small if q * q <= p)
    assert len(set(primes)) == len(primes)
    assert prod(primes) > 4**n  # y_m < 4^m for every row m <= n
    assert min(primes) > n  # every divisor m - 1 is invertible
    assert (n - 1) * (max(primes) - 1) ** 2 <= 2**53  # float64 dot sums are exact


def test_wrong_row_in_the_table_stops_the_build(monkeypatch):
    # off by the product of both check primes, so the load check passes it
    bad = A000081[:6] + [A000081[6] + prod(enumeration.CHECK_PRIMES)]
    monkeypatch.setattr(enumeration, "_rows", bad[:])
    with pytest.raises(UsageError, match="y_6"):
        count_trees(20)
    assert enumeration._rows == bad


def _corrupt(rows, kind):
    lines = [str(v) for v in rows]
    if kind == "wrong-digit":
        lines[4] = "5"
    elif kind == "wrong-last-row":
        lines[-1] = str(rows[-1] + 1)
    elif kind == "non-digit":
        lines[7] = "48x"
    elif kind == "truncated":
        lines = lines[:9]
    elif kind == "wrong-by-check-prime":  # right modulo the first check prime
        lines[6] = str(rows[6] + enumeration.CHECK_PRIMES[0])
    elif kind == "y1-is-2":  # every row satisfies the recurrence, from y_1 = 2
        lines = [str(v) for v in (0, 2, 4, 14, 52, 214, 916, 4116, 18996, 89894, 433196,
                                  2119904, 10503612, 52594476)]
    return "\n".join(lines)


@pytest.mark.parametrize("kind", ["wrong-digit", "wrong-last-row", "non-digit", "truncated",
                                  "y1-is-2", "wrong-by-check-prime"])
@pytest.mark.parametrize("n", [13, 10])
def test_corrupt_cache_file_is_rebuilt(tmp_path, empty_table, kind, n):
    (tmp_path / "counts_13.txt").write_text(_corrupt(A000081, kind))
    assert list(count_trees(n, cache_dir=str(tmp_path)).y) == A000081[: n + 1]
    # the failed file is replaced by a correct counts_<n>.txt
    assert [p.name for p in tmp_path.iterdir()] == [f"counts_{n}.txt"]
    rows = (tmp_path / f"counts_{n}.txt").read_text().split("\n")
    assert rows == [str(v) for v in A000081[: n + 1]]


# ---------------------------------------------------------------------------
# cycle index
# ---------------------------------------------------------------------------

def _brute_cycle_index(d, args):
    """Average of prod_i s_i^{c_i(pi)} over S_d, as a series."""
    N = args[0].order
    total = TruncatedSeries.zero(N)
    for pi in permutations(range(d)):
        seen = [False] * d
        term = TruncatedSeries.one(N)
        for start in range(d):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = pi[j]
                length += 1
            term = term * args[length - 1]
        total = total + term
    import math

    return total.scalar_div(math.factorial(d))


def test_cycle_index_z0_is_one():
    probe = tree_series(5)
    assert cycle_index_apply(0, [probe]) == TruncatedSeries.one(5)
    with pytest.raises(UsageError):
        cycle_index_apply(0, [])


def test_cycle_index_small_formulas():
    N = 6
    s1 = TruncatedSeries([0, 1, 2, 3, 0, 0, 0], N)
    s2 = TruncatedSeries([0, 0, 1, 5, 0, 0, 0], N)
    s3 = TruncatedSeries([0, 1, 0, 0, 2, 0, 0], N)
    z2 = cycle_index_apply(2, [s1, s2])
    assert z2 == (s1 * s1 + s2).scalar_div(2)
    z3 = cycle_index_apply(3, [s1, s2, s3])
    want = (s1 * s1 * s1 + (s1 * s2) * 3 + s3 * 2).scalar_div(6)
    assert z3 == want


def test_cycle_index_matches_permutation_average():
    N = 8
    y = tree_series(N)
    for d in (2, 3, 4):
        args = [y.substitute_power(i) for i in range(1, d + 1)]
        assert cycle_index_apply(d, args) == _brute_cycle_index(d, args)


def test_multiset_identity_reconstructs_tree_series():
    # x sum_{d>=0} Z_d(y(x), ..., y(x^d)) = y(x) up to order 20
    N = 20
    y = tree_series(N)
    args = [y.substitute_power(i) for i in range(1, N + 1)]
    acc = TruncatedSeries.zero(N)
    for d in range(N + 1):
        acc = acc + cycle_index_apply(d, args)
    assert acc.shift(1) == y


# ---------------------------------------------------------------------------
# degree series
# ---------------------------------------------------------------------------

def test_leaf_series_small_values():
    D = degree_series(1, 8).D
    # 2-node tree has exactly one leaf (the non-root vertex)
    assert D[2] == 1
    assert D[1] == 1  # the single node is a planted leaf
    assert D[3] == 3


def test_degree_series_vanishing_threshold():
    # a degree-d vertex needs d-1 children: impossible below n = d, and the
    # size-d star realizes it exactly once
    for d in (2, 3, 4, 5):
        D = degree_series(d, 8).D
        for n in range(1, d):
            assert D[n] == 0
        assert D[d] == 1


def test_degree_partition_identity():
    N = 30
    y = tree_series(N)
    sums = [0] * (N + 1)
    for d in range(1, N + 1):
        D = degree_series(d, N).D
        for n in range(1, N + 1):
            sums[n] += D[n]
    for n in range(1, N + 1):
        assert sums[n] == n * y[n]


def test_degree_series_integrality():
    for d in (1, 2, 5):
        D = degree_series(d, 20).D
        for c in D.coeffs:
            assert Fraction(c).denominator == 1


def test_multiset_cap_series_counts_root_degrees():
    # coefficient of x^n = number of trees of size n whose root has d-1 children
    N = 8
    for d in (1, 2, 3, 4):
        g = multiset_cap_series(d, N)
        for n in range(1, N + 1):
            brute = sum(
                1 for s in enumerate_trees_exhaustive(n) if len(s) == d - 1
            )
            assert g[n] == brute
