from fractions import Fraction
from itertools import permutations

import pytest

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
    for n in range(2, 41):
        assert (n - 1) * t.y[n] == sum(t.s[k] * t.y[n - k] for k in range(1, n))


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


def test_count_table_disk_cache_roundtrip(tmp_path):
    fresh = count_trees(80)
    cached_write = count_trees(80, cache_dir=str(tmp_path))
    cached_read = count_trees(80, cache_dir=str(tmp_path))
    assert (tmp_path / "counts_80.txt").exists()
    assert list(cached_write.y) == list(fresh.y) == list(cached_read.y)
    assert list(cached_read.s) == list(fresh.s)


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
    assert cycle_index_apply(0, [], like=probe) == TruncatedSeries.one(5)


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
        acc = acc + cycle_index_apply(d, args[:d] if d else [], like=y)
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
