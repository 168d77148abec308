"""Exact counting of unlabelled rooted trees and degree-restricted variants.

Counts come from the Euler-transform recurrence

    (n-1) y_n = sum_{k=1}^{n-1} s_k y_{n-k},      s_k = sum_{d|k} d y_d,

which is the coefficient form of the functional equation
y(x) = x exp(sum_i y(x^i)/i).  Everything downstream (sampler weights,
profile recurrences, constants) is built on these exact integers; gmpy2 is
used for the big-integer arithmetic when available.

Degree convention: planted.  Every vertex, the root included, has degree
1 + (number of children), the root's extra edge going to a phantom node that
is never counted.  A vertex of degree d therefore has d-1 children.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby

from .errors import UsageError
from .series import EXACT, TruncatedSeries

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    mpz = int

EXHAUSTIVE_MAX = 10


@dataclass(frozen=True)
class CountTable:
    """y[n] = number of rooted unlabelled trees with n nodes; s = divisor sums."""

    n_max: int
    y: tuple
    s: tuple

    def __post_init__(self):
        if self.y[0] != 0 or (self.n_max >= 1 and self.y[1] != 1):
            raise UsageError("malformed count table")


def count_trees(n_max, cache_dir=None):
    """Exact tree counts up to n_max, optionally cached on disk.

    The disk cache stores decimal digits; it exists because the O(n^2)
    big-integer convolution takes about 300 s at n_max = 6400 with Python
    integers (302 s measured on a 2-CPU host, Python 3.11, no gmpy2).
    """
    if n_max < 1:
        raise UsageError("count_trees requires n_max >= 1")
    if cache_dir is not None:
        path = os.path.join(cache_dir, f"counts_{n_max}.txt")
        if os.path.exists(path):
            with open(path) as fh:
                y = tuple(mpz(line.strip()) for line in fh if line.strip())
            if len(y) == n_max + 1:
                return _table_from_y(n_max, y)
    table = _count_trees_raw(n_max)
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write("\n".join(str(v) for v in table.y))
        os.replace(tmp, path)
    return table


def _divisor_sum(y, n):
    """s_n = sum_{d|n} d y_d."""
    acc = mpz(0)
    d = 1
    while d * d <= n:
        if n % d == 0:
            acc += d * y[d]
            e = n // d
            if e != d:
                acc += e * y[e]
        d += 1
    return acc


def _count_trees_raw(n_max):
    y = [mpz(0)] * (n_max + 1)
    s = [mpz(0)] * (n_max + 1)
    y[1] = mpz(1)
    for n in range(1, n_max + 1):
        s[n] = _divisor_sum(y, n)
        if n < n_max:
            m = n + 1
            tot = mpz(0)
            for k in range(1, m):
                tot += s[k] * y[m - k]
            y[m] = tot // (m - 1)
    return CountTable(n_max, tuple(y), tuple(s))


def _table_from_y(n_max, y):
    s = [mpz(0)] + [_divisor_sum(y, n) for n in range(1, n_max + 1)]
    return CountTable(n_max, tuple(y), tuple(s))


@lru_cache(maxsize=8)
def _counts_cached(n_max):
    return _count_trees_raw(n_max)


def tree_series(N, ring=EXACT, scale=1.0):
    """The tree generating function y(x) as a truncated series."""
    if N < 1:
        raise UsageError("tree_series requires N >= 1")
    table = _counts_cached(N)
    if ring == EXACT:
        return TruncatedSeries([int(c) for c in table.y], N, EXACT)
    return TruncatedSeries([int(c) for c in table.y], N, EXACT).to_double(scale)


# ---------------------------------------------------------------------------
# cycle index of the symmetric group
# ---------------------------------------------------------------------------

def cycle_index_apply(d, args, like=None):
    """Z_d(s_1, ..., s_d) via the recurrence Z_d = (1/d) sum_r s_r Z_{d-r}.

    Z_0 = 1.  args may be TruncatedSeries or MarkedSeries; substituting
    s_i = y(x^i) turns Z_d into the generating function of multisets of d
    trees.  ``like`` supplies the ring/shape when d = 0 and args is empty.
    """
    if d < 0:
        raise UsageError("cycle_index_apply requires d >= 0")
    if d > 0 and len(args) < d:
        raise UsageError(f"need s_1..s_{d}, got {len(args)} series")
    if d == 0:
        probe = args[0] if args else like
        if probe is None:
            raise UsageError("cycle_index_apply with d=0 needs a probe series")
        return probe.one_like()
    Z = [args[0].one_like()]
    for m in range(1, d + 1):
        acc = args[0] * Z[m - 1]
        for r in range(2, m + 1):
            acc = acc + args[r - 1] * Z[m - r]
        Z.append(acc.scalar_div(m))
    return Z[d]


def multiset_cap_series(d, N, base=None):
    """x * Z_{d-1}(b(x), b(x^2), ..., b(x^{d-1})) for base series b (default y).

    This is the generating function of trees whose root has exactly d-1
    children, i.e. root degree d in the planted convention.  Integer
    coefficients whenever the base series has integer coefficients.
    """
    if base is None:
        base = tree_series(N)
    args = [base.substitute_power(i) for i in range(1, max(d - 1, 1) + 1)]
    Z = cycle_index_apply(d - 1, args)
    return Z.shift(1)


# ---------------------------------------------------------------------------
# degree-count series D^{(d)}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeSeriesSet:
    """D = generating function of total degree-d vertex counts; Zsub = x Z_{d-1}(y...)."""

    d: int
    D: TruncatedSeries
    Zsub: TruncatedSeries


def degree_series(d, N):
    """Solve (1-y) D = y * sum_{i>=2} D(x^i) + x Z_{d-1}(y(x), ..., y(x^{d-1})).

    The solve is coefficient-by-coefficient: the right side at order n only
    involves D_j with j < n (the substituted sum only reaches j <= n/2), so
    D_n = [x^n](y D + y sum_{i>=2} D(x^i) + Zsub).  All coefficients are
    integers: D_n counts degree-d vertices across all trees of size n.
    """
    if d < 1 or N < 1:
        raise UsageError("degree_series requires d >= 1 and N >= 1")
    y = [int(c) for c in tree_series(N).coeffs]
    zsub_series = multiset_cap_series(d, N)
    zsub = []
    for c in zsub_series.coeffs:
        f = Fraction(c)
        if f.denominator != 1:
            raise UsageError("cycle-index substitution lost integrality")
        zsub.append(int(f))
    D = [0] * (N + 1)
    T = [0] * (N + 1)  # T_n = sum_{i>=2, i|n} D_{n/i}
    for n in range(1, N + 1):
        acc = 0
        i = 2
        while i <= n:
            if n % i == 0:
                acc += D[n // i]
            i += 1
        T[n] = acc
        tot = zsub[n]
        for m in range(1, n):
            if y[m]:
                tot += y[m] * (D[n - m] + T[n - m])
        D[n] = tot
    return DegreeSeriesSet(d, TruncatedSeries(D, N, EXACT), zsub_series)


# ---------------------------------------------------------------------------
# exhaustive enumeration (test oracle)
# ---------------------------------------------------------------------------

def enumerate_trees_exhaustive(n):
    """One canonical representative per isomorphism class, as nested tuples.

    A tree is a tuple of its children's canonical forms, sorted; the single
    node is ().  Only sensible for n <= 10 (y_10 = 719 classes).
    """
    if n < 1 or n > EXHAUSTIVE_MAX:
        raise UsageError(f"exhaustive enumeration supports 1 <= n <= {EXHAUSTIVE_MAX}")
    return list(_trees_of_size(n))


@lru_cache(maxsize=None)
def _trees_of_size(n):
    if n == 1:
        return ((),)
    out = []
    for sizes in _partitions(n - 1, n - 1):
        blocks = [(sz, sum(1 for _ in grp)) for sz, grp in groupby(sizes)]
        for kids in _multiset_children(blocks, 0):
            out.append(tuple(sorted(kids)))
    # children multisets chosen from canonical pools are already distinct
    out.sort()
    return tuple(out)


def _partitions(total, maxpart):
    if total == 0:
        yield ()
        return
    for p in range(min(total, maxpart), 0, -1):
        for rest in _partitions(total - p, p):
            yield (p,) + rest


def _multiset_children(blocks, idx):
    if idx == len(blocks):
        yield ()
        return
    size, cnt = blocks[idx]
    pool = _trees_of_size(size)
    for combo in combinations_with_replacement(pool, cnt):
        for rest in _multiset_children(blocks, idx + 1):
            yield combo + rest


def canonical_shape(shape):
    """Canonical (children-sorted) form of a nested-tuple tree."""
    return tuple(sorted(canonical_shape(c) for c in shape))
