"""Exact counting of unlabelled rooted trees and degree-restricted variants.

Counts come from the Euler-transform recurrence

    (n-1) y_n = sum_{k=1}^{n-1} s_k y_{n-k},      s_k = sum_{d|k} d y_d,

which is the coefficient form of the functional equation
y(x) = x exp(sum_i y(x^i)/i).  Everything downstream (sampler weights,
profile recurrences, constants) is built on these exact integers.

The counts live in one process-wide table that only grows; ``count_trees``
and ``tree_series`` both read it.  It is built multi-modularly (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 5): the recurrence runs in
numpy modulo primes just below 2^20, and the CRT rebuilds each y_n.  A cold
build takes about 0.25 s at n = 1600 and 13 s at n = 6400 on a 2-CPU host,
against 1.0 s and 302 s for the Python-integer recurrence it replaced.  Its
disk cache is checked row by row against the recurrence modulo two primes
when it is loaded.

Degree convention: planted.  Every vertex, the root included, has degree
1 + (number of children), the root's extra edge going to a phantom node that
is never counted.  A vertex of degree d therefore has d-1 children.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from math import isqrt, prod
from operator import mul

import numpy as np

from .errors import UsageError
from .series import EXACT, TruncatedSeries

EXHAUSTIVE_MAX = 10

# A loaded table is checked modulo both of these primes (2^20 - 3, 2^20 - 5),
# so a wrong row passes only if it is off by a multiple of their product.
CHECK_PRIMES = (1048573, 1048571)
# Batches of this many primes share one recurrence pass (see _extend).
_PRIME_BATCH = 64
_SIEVE_WINDOW = 4096
_CACHE_NAME = re.compile(r"counts_(\d+)\.txt")

# The process-wide count table: _rows[n] = y_n.  It only grows.
_rows = [0, 1]


@dataclass(frozen=True)
class CountTable:
    """y[n] = number of rooted unlabelled trees with n nodes, for n <= n_max."""

    n_max: int
    y: tuple


def count_trees(n_max, cache_dir=None):
    """Exact tree counts y_0..y_{n_max}, read from the process-wide table.

    On a miss the table takes every row of the smallest ``counts_<m>.txt`` in
    ``cache_dir`` with m >= n_max that passes the check; otherwise it extends
    itself and writes ``counts_<n_max>.txt``.  A cold build of n_max = 6400
    takes about 13 s (2-CPU host, Python 3.11, numpy 2.4) and a load
    of its file about 0.3 s, which is why the disk cache stays.
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
            rows = [int(line.strip()) for line in fh]
        except ValueError:  # a line that is not a decimal
            rows = []
    if len(rows) == m + 1 and _recurrence_holds(rows):
        return rows
    os.remove(path)
    return None


def _recurrence_holds(y):
    """y_0 = 0, y_1 = 1, and the Euler recurrence modulo each of CHECK_PRIMES at every row.

    Each row is reduced once, modulo the primes' product.  Residues are below
    2^20, so each convolution sum is below len(y) 2^40: exact in float64 up to
    len(y) = 8192 (``_residues``' bound), in int64 beyond.
    """
    if y[:2] != [0, 1]:
        return False
    top = max(CHECK_PRIMES) - 1
    dtype = np.float64 if len(y) * top * top <= 1 << 53 else np.int64
    q = prod(CHECK_PRIMES)
    primes = np.array(CHECK_PRIMES, dtype=np.int64)[:, None]
    r = (np.array([v % q for v in y], dtype=np.int64) % primes).astype(dtype)
    p = primes.astype(dtype)
    n = np.arange(len(y), dtype=dtype)
    dy = n * r % p
    s = np.zeros_like(r)
    for d in range(1, len(y)):
        s[:, d::d] += dy[:, d:d + 1]
    s %= p
    conv = np.array([np.convolve(si, ri)[: len(y)] for si, ri in zip(s, r)])
    return bool(np.array_equal((n - 1) * r % p, conv % p))


def _extend(n_max):
    """Rebuild rows 0..n_max multi-modularly and append the rows the table lacks.

    Each batch of ``_build_primes`` runs the Euler recurrence for every row
    (``_residues``) and is folded into each y_m by the CRT (the batch's own
    basis (M/p)((M/p)^-1 mod p), then Garner's step onto the product of the
    earlier batches).  Row m takes no more batches once their product exceeds
    4^m > y_m.  The rows already in the table must equal the rebuilt prefix.
    """
    primes = _build_primes(n_max)
    y = [0] * (n_max + 1)
    modulus = 1  # product of the batches folded in so far
    for start in range(0, len(primes), _PRIME_BATCH):
        batch = primes[start:start + _PRIME_BATCH]
        residues = _residues(batch, n_max)
        step = prod(batch)
        basis = [step // p * pow(step // p, -1, p) for p in batch]
        lift = pow(modulus, -1, step)
        # rows m with 4^m < modulus are already exact
        for m in range(((modulus - 1).bit_length() + 1) // 2, n_max + 1):
            z = sum(map(mul, residues[m].astype(np.int64).tolist(), basis))
            y[m] += modulus * ((z - y[m]) % step * lift % step)
        modulus *= step
    for m, (old, new) in enumerate(zip(_rows, y)):
        if old != new:
            raise UsageError(f"the count table holds a wrong y_{m}, which passed the check "
                             "of a loaded counts_<n>.txt; delete that file")
    _rows.extend(y[len(_rows):])


def _build_primes(n_max):
    """The primes of the multi-modular build of rows 0..n_max, largest first.

    They make the build exact:
    - each prime exceeds n_max, so every divisor m - 1 < n_max is invertible;
    - (n_max - 1)(p - 1)^2 <= 2^53, so ``_residues``' dot sums of residue
      products are exact in float64 (primes just below 2^20 up to n_max = 8193,
      smaller ones past that);
    - their product exceeds 4^n_max.  A rooted unlabelled tree has a distinct
      plane embedding, so y_m <= Catalan(m - 1) < 4^m, and the CRT recovers y_m.
    """
    top = min(1 << 20, isqrt((1 << 53) // max(n_max - 1, 1)) + 2)
    primes, product = [], 1
    for hi in range(top, n_max + 1, -_SIEVE_WINDOW):  # sieve [lo, hi), top down
        lo = max(hi - _SIEVE_WINDOW, n_max + 1)
        is_prime = np.ones(hi - lo, dtype=bool)
        for q in range(2, isqrt(hi - 1) + 1):
            is_prime[max(q * q, -(-lo // q) * q) - lo::q] = False
        for p in (np.flatnonzero(is_prime)[::-1] + lo).tolist():
            primes.append(p)
            product *= p
            if product >> 2 * n_max:
                return primes
    raise UsageError(f"no set of primes builds a count table of n = {n_max} exactly")


def _residues(primes, n_max):
    """y_m mod p for each m <= n_max and p in primes, as a float64 array [m, prime].

    The Euler recurrence runs for all the primes at once in float64, which is
    exact: every stored value is a residue below p, so each dot sum is below
    (n_max - 1) p^2 <= 2^53 (see ``_build_primes``).  y is kept reversed
    (column n_max - k holds y_k), so y_{m-1}, ..., y_1 is one contiguous slice.
    """
    ints = np.array(primes, dtype=np.int64)
    p = ints.astype(np.float64)
    cols = np.arange(len(primes))
    inv = np.ones((n_max, len(primes)))  # inv[i] = i^-1 mod p
    for i in range(2, n_max):
        q, r = np.divmod(ints, i)
        inv[i] = -q * inv[r, cols] % p
    y = np.zeros((len(primes), n_max + 1))
    s = np.zeros_like(y)  # s[:, k] = sum of d y_d over the divisors d of k seen so far
    y[:, n_max - 1] = 1
    s[:, 1:] = 1
    for m in range(2, n_max + 1):
        dot = np.einsum("ij,ij->i", s[:, 1:m], y[:, n_max - m + 1:n_max])
        ym = dot % p * inv[m - 1] % p
        y[:, n_max - m] = ym
        multiples = s[:, m::m]
        multiples += m * ym[:, None]
        np.remainder(multiples, p[:, None], out=multiples)
    return y[:, ::-1].T


def _save(cache_dir, n_max):
    """Write rows 0..n_max as counts_<n_max>.txt; warn on stderr if that fails."""
    path = os.path.join(cache_dir, f"counts_{n_max}.txt")
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(path + ".tmp", "w") as fh:
            fh.write("\n".join(map(str, _rows[: n_max + 1])))
        os.replace(path + ".tmp", path)
    except OSError as exc:
        print(f"warning: count table not cached: {exc}", file=sys.stderr)


def tree_series(N):
    """The tree generating function y(x) as an exact truncated series, from the count table."""
    return TruncatedSeries(count_trees(N).y, N, EXACT)


# ---------------------------------------------------------------------------
# cycle index of the symmetric group
# ---------------------------------------------------------------------------

def cycle_index_apply(d, args):
    """Z_d(s_1, ..., s_d) via the recurrence Z_d = (1/d) sum_r s_r Z_{d-r}.

    Z_0 = 1.  args may be TruncatedSeries or MarkedSeries; substituting
    s_i = y(x^i) turns Z_d into the generating function of multisets of d
    trees.  At least one series is needed, also for d = 0: it gives the
    ring and shape of the result.
    """
    if d < 0:
        raise UsageError("cycle_index_apply requires d >= 0")
    if len(args) < max(d, 1):
        raise UsageError(f"need s_1..s_{max(d, 1)}, got {len(args)} series")
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
    y = tree_series(N).coeffs
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
