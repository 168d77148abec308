import hashlib
import sys
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
    root_degree_counts,
    tree_series,
)
from polyaprofile.errors import UsageError
from polyaprofile.series import TruncatedSeries, build_primes

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


def _hex_rows(rows):
    """A cache file's text: one row per line in lowercase hexadecimal."""
    return "\n".join(format(v, "x") for v in rows)


def test_count_table_disk_cache_roundtrip(tmp_path, empty_table, monkeypatch):
    fresh = count_trees(80)
    empty_table()
    cached_write = count_trees(80, cache_dir=str(tmp_path))
    assert (tmp_path / "counts_80.txt").read_text() == _hex_rows(fresh.y)
    empty_table()
    monkeypatch.setattr(enumeration, "_extend", _forbidden)
    cached_read = count_trees(80, cache_dir=str(tmp_path))
    assert list(cached_write.y) == list(fresh.y) == list(cached_read.y)


def test_decimal_cache_file_is_rebuilt_in_hexadecimal(tmp_path, empty_table):
    # the format before hexadecimal: y_6 = 20 reads as 0x20 and fails the check
    (tmp_path / "counts_13.txt").write_text("\n".join(map(str, A000081)))
    assert list(count_trees(13, cache_dir=str(tmp_path)).y) == A000081
    assert (tmp_path / "counts_13.txt").read_text() == _hex_rows(A000081)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python before 3.10.7 has no int/str digit limit")
def test_cache_round_trip_passes_the_int_digit_limit(tmp_path, empty_table, monkeypatch):
    # y_1500 has 705 decimal digits; the hexadecimal cache never converts in decimal
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        built = count_trees(1500, cache_dir=str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["counts_1500.txt"]
        empty_table()
        monkeypatch.setattr(enumeration, "_extend", _forbidden)
        loaded = count_trees(1500, cache_dir=str(tmp_path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(str(built.y[1500])) > 640
    assert loaded.y == built.y


def test_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    count_trees(20)

    def refuse(*args):
        raise OSError("disk full")

    monkeypatch.setattr(enumeration.os, "replace", refuse)
    enumeration._save(str(tmp_path), 20)
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == "warning: count table not cached: disk full\n"

    def stop(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(enumeration.os, "replace", stop)
    with pytest.raises(KeyboardInterrupt):
        enumeration._save(str(tmp_path), 20)
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == ""


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
    (tmp_path / "counts_20.txt").write_text(_hex_rows(count_trees(20).y))
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
    primes = build_primes(n, 4**n)
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
    """A cache file of ``rows`` in the current (hexadecimal) format with one fault."""
    rows = list(rows)
    if kind == "wrong-digit":
        rows[4] = 5
    elif kind == "wrong-last-row":
        rows[-1] += 1
    elif kind == "truncated":
        rows = rows[:9]
    elif kind == "wrong-by-check-prime":  # right modulo the first check prime
        rows[6] += enumeration.CHECK_PRIMES[0]
    elif kind == "y1-is-2":  # every row satisfies the recurrence, from y_1 = 2
        rows = [0, 2, 4, 14, 52, 214, 916, 4116, 18996, 89894, 433196, 2119904, 10503612,
                52594476]
    lines = _hex_rows(rows).split("\n")
    if kind == "non-digit":
        lines[7] += "x"
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
    assert rows == [format(v, "x") for v in A000081[: n + 1]]


@pytest.mark.parametrize("kind", ["directory", "symlink-loop", "unremovable"])
def test_unreadable_or_unremovable_cache_entry_is_a_miss(tmp_path, empty_table, monkeypatch, kind):
    # a directory and a symlink loop cannot be opened, and a corrupt file
    # whose removal fails stays: each is a miss, and the table is built
    entry = tmp_path / "counts_20.txt"
    if kind == "directory":
        entry.mkdir()
    elif kind == "symlink-loop":
        entry.symlink_to(entry)
    else:
        entry.write_text(_corrupt(A000081, "wrong-digit"))

        def refuse(path):
            raise PermissionError(path)

        monkeypatch.setattr(enumeration.os, "remove", refuse)
    assert list(count_trees(13, cache_dir=str(tmp_path)).y) == A000081
    assert (tmp_path / "counts_13.txt").read_text() == _hex_rows(A000081)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts_13.txt", "counts_20.txt"]


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
    D = degree_series(1, 8)
    # 2-node tree has exactly one leaf (the non-root vertex)
    assert D[2] == 1
    assert D[1] == 1  # the single node is a planted leaf
    assert D[3] == 3


def test_degree_series_vanishing_threshold():
    # a degree-d vertex needs d-1 children: impossible below n = d, and the
    # size-d star realizes it exactly once
    for d in (2, 3, 4, 5):
        D = degree_series(d, 8)
        for n in range(1, d):
            assert D[n] == 0
        assert D[d] == 1


def test_degree_partition_identity():
    N = 30
    y = tree_series(N)
    sums = [0] * (N + 1)
    for d in range(1, N + 1):
        D = degree_series(d, N)
        for n in range(1, N + 1):
            sums[n] += D[n]
    for n in range(1, N + 1):
        assert sums[n] == n * y[n]


def test_degree_series_integrality():
    for d in (1, 2, 5):
        D = degree_series(d, 20)
        for c in D.coeffs:
            assert Fraction(c).denominator == 1


@pytest.mark.parametrize("d, digest", [
    (1, "1949dd561536944bb774d1e7882e51eb3cecc68922608824242cdc3e6d8cbb23"),
    (3, "729bbc1a0f6f546192096404112e708e6e07cd225dc1709dea72050e41dffd32"),
])
def test_degree_series_is_pinned(d, digest):
    # sha256 over the decimal digits of every coefficient (exact integers, so
    # no float form), recorded while T_n was found by scanning every i <= n
    coeffs = degree_series(d, 400).coeffs
    assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == digest


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


def test_root_degree_counts_are_the_cap_series_as_ints(monkeypatch):
    for d in (1, 2, 3, 6):
        cs = root_degree_counts(d, 20)
        assert all(type(c) is int for c in cs)
        assert cs == list(multiset_cap_series(d, 20).coeffs)
    # a fraction there is an internal fault, raised as one (not a usage error)
    monkeypatch.setattr(enumeration, "multiset_cap_series",
                        lambda d, N: TruncatedSeries([0, Fraction(1, 2)], N))
    for build in (root_degree_counts, degree_series):
        with pytest.raises(AssertionError, match="integrality"):
            build(2, 5)
