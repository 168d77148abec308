"""Exact counting of unlabelled rooted trees and degree-restricted variants.

Counts come from the Euler-transform recurrence

    (n-1) y_n = sum_{k=1}^{n-1} s_k y_{n-k},      s_k = sum_{d|k} d y_d,

which is the coefficient form of the functional equation
y(x) = x exp(sum_i y(x^i)/i).  Everything downstream (sampler weights,
profile recurrences, constants) is built on these exact integers; gmpy2 is
used for the big-integer arithmetic when available.

The counts live in one process-wide table that only grows; ``count_trees``
and ``tree_series`` both read it.  Its disk cache is checked row by row
against the recurrence modulo a prime when it is loaded.

Degree convention: planted.  Every vertex, the root included, has degree
1 + (number of children), the root's extra edge going to a phantom node that
is never counted.  A vertex of degree d therefore has d-1 children.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from operator import mul

import numpy as np

from .errors import UsageError
from .series import EXACT, TruncatedSeries

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    mpz = int

EXHAUSTIVE_MAX = 10

# A loaded table is checked modulo this prime (2^20 - 3): residues stay below
# 2^20, so every product in the int64 convolution is below 2^40 and the sums
# stay exact for tables far beyond any size used here.
CHECK_PRIME = 1048573
_CACHE_NAME = re.compile(r"counts_(\d+)\.txt")

# The process-wide count table: _rows[n] = y_n.  It only grows.
_rows = [mpz(0), mpz(1)]


@dataclass(frozen=True)
class CountTable:
    """y[n] = number of rooted unlabelled trees with n nodes, for n <= n_max."""

    n_max: int
    y: tuple


def count_trees(n_max, cache_dir=None):
    """Exact tree counts y_0..y_{n_max}, read from the process-wide table.

    On a miss the table takes every row of the smallest ``counts_<m>.txt`` in
    ``cache_dir`` with m >= n_max that passes the check; otherwise it extends
    itself and writes ``counts_<n_max>.txt``.  The disk cache exists because
    the O(n^2) big-integer convolution takes about 300 s at n_max = 6400 with
    Python integers (302 s measured on a 2-CPU host, Python 3.11, no gmpy2).
    """
    if n_max < 1:
        raise UsageError(f"tree counts need a size n >= 1, got {n_max}")
    if len(_rows) <= n_max:
        found = None if cache_dir is None else _cached_file(cache_dir, n_max)
        rows = found and _load(*found)
        if rows:
            _rows.extend(rows[len(_rows):])
        else:
            _extend(n_max)
            if cache_dir is not None:
                _save(cache_dir, n_max)
    return CountTable(n_max, tuple(_rows[: n_max + 1]))


def _cached_file(cache_dir, n_max):
    """(m, path) of the smallest counts_<m>.txt in cache_dir with m >= n_max, or None."""
    names = os.listdir(cache_dir) if os.path.isdir(cache_dir) else ()
    sizes = [(int(match[1]), name) for name in names
             if (match := _CACHE_NAME.fullmatch(name)) and int(match[1]) >= n_max]
    if not sizes:
        return None
    m, name = min(sizes)
    return m, os.path.join(cache_dir, name)


def _load(m, path):
    """Rows 0..m of a cache file, or None after removing a file that fails the check."""
    with open(path) as fh:
        try:
            rows = [mpz(line.strip()) for line in fh]
        except ValueError:  # a line that is not a decimal
            rows = []
    if len(rows) == m + 1 and _recurrence_holds(rows):
        return rows
    os.remove(path)
    return None


def _recurrence_holds(y):
    """y_0 = 0, y_1 = 1, and the Euler recurrence modulo CHECK_PRIME at every row."""
    if y[:2] != [0, 1]:
        return False
    p = CHECK_PRIME
    n = np.arange(len(y), dtype=np.int64)
    r = np.array([int(v % p) for v in y], dtype=np.int64)
    dy = n * r % p
    s = np.zeros_like(r)
    for d in range(1, len(y)):
        s[d::d] += dy[d]
    conv = np.convolve(s % p, r)[: len(y)]
    return bool(np.array_equal((n - 1) * r % p, conv % p))


def _extend(n_max):
    """Grow the table to rows 0..n_max by the Euler recurrence."""
    y = _rows
    s = [0] * n_max  # s[k] sums d * y_d over the divisors d <= m of k
    for m in range(1, n_max + 1):
        if m == len(y):
            y.append(sum(map(mul, s[1:m], y[m - 1:0:-1])) // (m - 1))
        for k in range(m, n_max, m):
            s[k] += m * y[m]


def _save(cache_dir, n_max):
    """Write rows 0..n_max as counts_<n_max>.txt."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"counts_{n_max}.txt")
    with open(path + ".tmp", "w") as fh:
        fh.write("\n".join(map(str, _rows[: n_max + 1])))
    os.replace(path + ".tmp", path)


def tree_series(N, ring=EXACT, scale=1.0):
    """The tree generating function y(x) as a truncated series, from the count table."""
    y = TruncatedSeries([int(c) for c in count_trees(N).y], N, EXACT)
    return y if ring == EXACT else y.to_double(scale)


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
