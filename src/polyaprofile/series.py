"""Truncated formal power series over exact-rational, residue and double-precision rings.

Everything in this package that manipulates generating functions goes through
the classes here:

``TruncatedSeries``
    a(x) = sum_{n<=N} a_n x^n with scalar coefficients in a ring, which owns
    their format and arithmetic, so every series method has one body.  The
    exact ring ``EXACT`` keeps Python ints / Fractions (whole quotients stay
    ints, so coefficient-wise equality is canonical), and it alone evaluates.
    A ``DoubleRing`` keeps a numpy float64 vector rescaled by the ring's
    geometric ``scale`` (stored[n] equals the true coefficient times
    scale**n) so that series whose coefficients grow like rho**-n stay inside
    float range at large truncation orders.  A ``ResidueRing`` keeps integer
    coefficients modulo each of its word-size primes, as a float64 array
    [prime, n], and reading a coefficient lifts it back by the CRT (signed,
    for values of either sign, in a ring made ``signed``).  Every ring has
    one substitution sum, ``power_sum(a, weights, lo, hi)`` = sum_{i=lo}^{hi}
    weights[i] a(x**i), weights in the ring's format (``weights``): the
    derivative pass takes its S_k from it and the marked series their Polya
    exponent.  In the array rings a range of i is a gather and
    ``np.bincount`` along the (i, m) plan of the order
    (``_substitution_plan``), with no loop over i.
    A rational whose denominator is prime to every p has residues too, so
    the residue ring also divides by an int below its smallest prime
    (``scalar_div``, through a table of inverses built once per ring),
    shifts, substitutes x -> x**i (a strided copy), takes ``exp`` by
    n e_n = sum_m m a_m e_{n-m} with one dot per prime for each n, adds
    sums of products (``mul_sum``: one ``np.correlate`` per prime and group
    of pairs, or a blocked short product for a lone product past order 160)
    and lifts one coefficient of many series in one call
    (``read_many``) for the marked series.  Only the double ring refuses
    those.
    An exact series evaluates at a point through its table of (log|a_n|,
    sign of a_n), built at its first evaluation and never passed on to a
    series made from it: each term is then one multiply-add and one
    ``math.exp``, the float operations of forming it from a_n afresh.

``MarkedSeries``
    a series in x and one or two marking variables in the nilpotent basis
    (the series is f(1+eps) truncated at a fixed eps-degree, which carries
    all u-derivatives at u = 1 up to that order in one pass), stored as a
    map from the eps exponent (a, b) to the TruncatedSeries in x that
    multiplies it (b = 0 with one mark), so sums, products and shifts are
    scalar-series arithmetic.  Its terms are of one ring and one order,
    exact or residue, and the one body of every method serves both: the
    residue ring carries the profile's moments, and the exact ring is their
    test oracle.  ``exp`` steps in the mark direction with the Euler
    operator and keeps whole coefficients as ints in the exact ring.  Each
    term's x-valuation is found once, and a product whose valuations add up
    past the order is skipped, not formed.

``PointSeries``
    a series in x and one or two marks held by its values at the M-th roots
    of unity modulo primes p = 1 (mod M) (a ``PointRing``), as a float64
    array [prime, u-point, v-point, n]: the representation of whole laws.
    The substitution u -> u^i permutes the points, so the Polya exponent is
    a gather and the exp one scalar recurrence per point, and the law of
    [x^n] is one inverse DFT of length M per prime and mark, lifted by the
    CRT.  A mark the series does not carry is an axis of length 1.

Multiplication is O(N^2) schoolbook convolution (N <= ~1600).  In the exact
ring it is a Python loop over big integers, so the exact derivative pass and
the marked series run in a residue ring (the multi-modular method: von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 5).  There a sum of products
is one ``np.correlate`` per prime for each group of pairs laid side by side,
and a lone product of window order past 160 is a short product that skips
the triangle of zero terms: blocks of ``np.vecdot`` over all primes at once.
Every sum stays below 2^53, so float64 gets it exactly in any order.  Values
are immutable and operations pure, so instances are safe to share across
workers.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AccuracyError, DomainError, UsageError


def _comb_signed(i: int, r: int):
    """Generalised binomial C(i, r) for integer i of either sign (exact int)."""
    num = 1
    for t in range(r):
        num *= i - t
    return num // math.factorial(r)


def _whole(c):
    """c as an int when it is a whole Fraction."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def _quotient(c, q):
    """c / q exactly, an int when q divides c."""
    if isinstance(c, int):
        quo, rem = divmod(c, q)
        if not rem:
            return quo
    return _whole(Fraction(c, q))


def crt_basis(primes):
    """(M, basis) with M the product of the primes and basis[j] = (M/p_j)((M/p_j)^-1 mod p_j).

    sum_j r_j basis[j] mod M is the integer in [0, M) that is r_j modulo each p_j.
    """
    modulus = math.prod(primes)
    return modulus, [modulus // p * pow(modulus // p, -1, p) for p in primes]


def _frozen(arr):
    """arr as a read-only float64 array."""
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=64)
def _substitution_plan(N):
    """(src, tgt, i, ends), read-only: entry r of sum_{i>=1} a(x**i) to order N moves
    a_src[r] to x**tgt[r], tgt = src i, in blocks of i = 1..N ascending, src =
    0..N // i; block i is ends[i - 1]:ends[i] (ends[0] = 0), so lo <= i <= hi is a slice."""
    sizes = N // np.arange(1, N + 1) + 1
    ends = np.concatenate(([0], np.cumsum(sizes)))
    i = np.repeat(np.arange(1, N + 1), sizes)
    src = np.arange(len(i)) - ends[i - 1]
    plan = (src, src * i, i, ends)
    for arr in plan:
        arr.setflags(write=False)
    return plan


@lru_cache(maxsize=64)
def _scale_powers(scale, N):
    """scale**(tgt - src) along the plan: a_m scale^m stored at m moves to mi."""
    src, tgt, _, _ = _substitution_plan(N)
    return _frozen(scale ** (tgt - src))


_SIEVE_WINDOW = 4096

# the largest window order at which ``ResidueRing.mul_sum`` groups its pairs;
# past it a lone product is a short product
_PACKED_MAX_ORDER = 160
# the outputs of one ``np.vecdot`` in ``_short_product``: blocks of 32 to 96
# took the same time within 10 % at window orders 160 to 1600 (2-CPU host)
_SHORT_BLOCK = 48


def build_primes(n, bound):
    """Primes below 2^20, largest first, for exact residue arithmetic at length n.

    - each prime exceeds n, so every m <= n is invertible modulo it;
    - (n + 1)(p - 1)^2 <= 2^53, so a sum of n + 1 products of residues is
      exact in float64 (primes just below 2^20 up to n = 8191, smaller ones
      past that), which ``ResidueRing.coefficients`` and ``mul_sum`` rely on;
    - their product exceeds ``bound``, so the CRT recovers any integer in
      [0, bound].

    The count table takes them for rows 0..n with bound 4^n: a rooted
    unlabelled tree has a distinct plane embedding, so y_m <= Catalan(m - 1)
    < 4^m.  A ``ResidueRing`` of order n takes them for its bound times 2^20.
    """
    top = min(1 << 20, math.isqrt((1 << 53) // (n + 1)) + 2)
    primes, product = [], 1
    for hi in range(top, n + 1, -_SIEVE_WINDOW):  # sieve [lo, hi), top down
        lo = max(hi - _SIEVE_WINDOW, n + 1)
        is_prime = np.ones(hi - lo, dtype=bool)
        for q in range(2, math.isqrt(hi - 1) + 1):
            is_prime[max(q * q, -(-lo // q) * q) - lo::q] = False
        for p in (np.flatnonzero(is_prime)[::-1] + lo).tolist():
            primes.append(p)
            product *= p
            if product > bound:
                return primes
    raise UsageError(f"no set of primes below 2^20 exceeds a bound of {bound.bit_length()} bits"
                     f" at n = {n}")


def inverse_table(primes, size):
    """Read-only float64 array [q, prime] of q^-1 mod p for q = 1..size - 1 (row 0 is 0).

    Each row is one numpy step for all the primes, by inv(q) = -(p // q)
    inv(p mod q) mod p; every q must lie below the smallest prime.
    """
    ints = np.array(primes, dtype=np.int64)
    p, cols = ints.astype(float), np.arange(len(ints))
    inv = np.zeros((size, len(ints)))
    inv[1:2] = 1
    for q in range(2, size):
        quo, rem = np.divmod(ints, q)
        inv[q] = -quo * inv[rem, cols] % p
    return _frozen(inv)


def _first(nonzero):
    """The index of the first True of a non-empty boolean vector, its length when none is."""
    first = int(nonzero.argmax())
    return first if nonzero[first] else len(nonzero)


# ---------------------------------------------------------------------------
# rings: each converts exact coefficients into its format (``coefficients``)
# and does the arithmetic of TruncatedSeries on that format
# ---------------------------------------------------------------------------

class ExactRing:
    """Exact rationals, as a list of Python ints and Fractions; the one instance is EXACT."""

    __slots__ = ()

    def __repr__(self):
        return "exact"

    def coefficients(self, coeffs, order):
        cs = list(coeffs[: order + 1])
        return cs + [0] * (order + 1 - len(cs))

    freeze = staticmethod(list)
    read = staticmethod(operator.getitem)
    equal = staticmethod(operator.eq)

    def read_many(self, arrays, n):
        return [a[n] for a in arrays]

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b, N):
        return self.mul_sum([(a, 0, b, 0)], N)

    def mul_sum(self, pairs, N):
        """sum a b over the pairs (a, val(a), b, val(b)), to order N.

        A pair whose valuations add up past N is skipped, and each product
        walks b's nonzero terms only: y * 1 is O(N).
        """
        out = [0] * (N + 1)
        for a, va, b, vb in pairs:
            if va + vb > N:
                continue
            terms = [(j, bj) for j, bj in enumerate(b) if bj]
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in terms:
                        if j > N - i:
                            break
                        out[i + j] += ai * bj
        return out

    def scalar_mul(self, a, c):
        return [x * c for x in a]

    def scalar_div(self, a, q):
        return [_quotient(c, q) for c in a]

    def shift(self, a, k):
        k = min(k, len(a))
        return [0] * k + a[: len(a) - k]

    def substitute_power(self, a, i):
        out = [0] * len(a)
        out[::i] = a[: (len(a) - 1) // i + 1]
        return out

    def exp(self, a):
        # n e_n = sum_m m a_m e_{n-m}; whole m a_m and e_n stay ints
        na = [_whole(m * am) for m, am in enumerate(a)]
        e = [1] + [0] * (len(a) - 1)
        for n in range(1, len(a)):
            tot = 0
            for m in range(1, n + 1):
                if na[m]:
                    tot += na[m] * e[n - m]
            e[n] = _quotient(tot, n)
        return e

    def valuation(self, a):
        return next((n for n, x in enumerate(a) if x), len(a))

    weights = staticmethod(list)

    def power_sum(self, a, weights, lo, hi):
        """sum_{i=lo}^{hi} weights[i] a(x**i), each product whole as an int."""
        N = len(a) - 1
        terms = [(m, am) for m, am in enumerate(a) if am]
        out = [0] * (N + 1)
        for i in range(lo, hi + 1):
            if weights[i]:
                for m, am in terms:
                    if m * i > N:
                        break
                    out[m * i] += _whole(weights[i] * am)
        return out

    def lift_series(self, series):
        return series


EXACT = ExactRing()


class DoubleRing:
    """Reals as a float64 vector, rescaled: stored[n] is a_n scale**n.

    Rings of one scale are equal, and only series of equal rings combine.
    """

    __slots__ = ("scale",)

    def __init__(self, scale):
        self.scale = float(scale)

    def __eq__(self, other):
        return isinstance(other, DoubleRing) and self.scale == other.scale

    def __repr__(self):
        return f"DoubleRing({self.scale!r})"

    def coefficients(self, coeffs, order):
        """Exact coefficients times scale**n.  At scale 1 each converts with
        float(), correctly rounded, so small ints stay exact; at any other
        scale each goes through log|c|, so that a big one converts whenever
        its rescaled value lies in the double range."""
        out = np.zeros(order + 1)
        ls = math.log(self.scale)
        for n, c in enumerate(coeffs[: order + 1]):
            if c:
                out[n] = _signed_exp(c, n * ls) if ls else _to_float(c)
        return _frozen(out)

    freeze = staticmethod(_frozen)
    read = staticmethod(operator.getitem)
    equal = staticmethod(np.array_equal)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b, N):
        return np.convolve(a, b)[: N + 1]

    def scalar_mul(self, a, c):
        return a * float(c)

    weights = staticmethod(_frozen)

    def valuation(self, a):
        return _first(a != 0)

    def power_sum(self, a, weights, lo, hi):
        """sum_{i=lo}^{hi} weights[i] a(x**i), over i <= N / val(a), past which a(x**i) vanishes.

        stored[m] = a_m scale^m, so a(x^i) stored at mi needs scale^(mi-m).
        ``np.bincount`` adds in plan order, i ascending: the bits of adding
        the substituted series one by one.
        """
        N = len(a) - 1
        top = min(hi, N // max(self.valuation(a), 1))
        if top < lo:
            return np.zeros(N + 1)
        src, tgt, i, ends = _substitution_plan(N)
        cut = slice(ends[lo - 1], ends[top])
        terms = a[src[cut]] * _scale_powers(self.scale, N)[cut] * weights[i[cut]]
        return np.bincount(tgt[cut], terms, N + 1)

    def lift_series(self, series):
        return series


class ResidueRing:
    """Integers in [0, bound], or in [-bound, bound] when ``signed``, held
    modulo each of the primes ``build_primes`` picks for the ring's order,
    whose product exceeds 2^20 times the bound.

    It is the ring of a TruncatedSeries whose coefficients are a read-only
    float64 array [prime, n] of residues.  Float64 arithmetic on them is exact
    while every sum of products stays below 2^53: a series of order N needs
    (N + 1)(p - 1)^2 <= 2^53, which the primes meet up to the ring's order
    and ``coefficients`` checks.  Reading a coefficient lifts it by the CRT,
    which is right when the true value lies in the ring's range, as the
    primes' product exceeds twice the bound; a lifted value out of range
    raises AccuracyError, since a residue or the bound is then wrong.

    A rational whose denominator is prime to every p has residues too, so
    the ring divides by any int from 1 up to its smallest prime
    (``scalar_div``), through a table of inverses it builds once.

    ``primes``, when given, replaces ``build_primes``' choice; they must meet
    the same three conditions (``PointRing`` passes its ``root_primes``).
    """

    __slots__ = ("primes", "p", "p64", "modulus", "basis", "bound", "signed", "_inv")

    def __init__(self, order, bound, signed=False, primes=None):
        self.primes = tuple(primes or build_primes(order, bound << 20))
        self.modulus, self.basis = crt_basis(self.primes)
        self.bound, self.signed = bound, signed
        self.p = np.array(self.primes, dtype=float)[:, None]
        self.p64 = self.p.astype(np.int64)
        self.p.setflags(write=False)
        self.p64.setflags(write=False)
        self._inv = np.zeros((len(self.primes), 1))

    def __repr__(self):
        kind = "signed bound" if self.signed else "bound"
        return f"ResidueRing({len(self.primes)} primes, {kind} of {self.bound.bit_length()} bits)"

    def residues(self, ints):
        """The ints modulo each prime, as a float64 array [prime, len(ints)]."""
        ints = [operator.index(c) for c in ints]
        if all(abs(c) < 1 << 53 for c in ints):  # exact as floats
            return np.remainder(np.array(ints, dtype=float), self.p)
        return np.array([[c % q for c in ints] for q in self.primes], dtype=float)

    def inverses(self, q_max):
        """Read-only [prime, q] array of q^-1 mod p for q = 1..q_max (column 0 is 0).

        Built once per ring (``inverse_table``) and extended when a larger q
        is asked for.
        """
        if q_max >= min(self.primes):
            raise UsageError(f"{q_max} is not below the smallest prime of {self!r}")
        if self._inv.shape[1] <= q_max:
            self._inv = inverse_table(self.primes, max(q_max + 1, 2 * self._inv.shape[1])).T
        return self._inv

    def weights(self, values):
        """Residues of ints and Fractions whose denominators lie below the smallest prime."""
        fracs = [Fraction(v) for v in values]
        dens = [f.denominator for f in fracs]
        inv = self.inverses(max(dens, default=1))[:, dens]
        return self._reduce(self.residues([f.numerator for f in fracs]) * inv)

    def lift(self, columns):
        """The ints whose residues are the columns of a float64 array [prime, m]."""
        out = []
        half = self.modulus // 2
        for col in columns.astype(np.int64).T.tolist():
            v = sum(map(operator.mul, col, self.basis)) % self.modulus
            if self.signed and v > half:
                v -= self.modulus
            if abs(v) > self.bound:
                raise AccuracyError(f"a residue lifts to a value above the bound {self.bound}"
                                    f"{' in magnitude' if self.signed else ''}: "
                                    "a residue or the bound is wrong")
            out.append(v)
        return out

    def coefficients(self, coeffs, order):
        if (order + 1) * (max(self.primes) - 1) ** 2 > 1 << 53:
            raise UsageError(f"the primes of {self!r} are too large for order {order}")
        arr = np.zeros((len(self.primes), order + 1))
        arr[:, : min(len(coeffs), order + 1)] = self.residues(coeffs[: order + 1])
        return _frozen(arr)

    freeze = staticmethod(_frozen)
    equal = staticmethod(np.array_equal)

    def read(self, c, n):
        return self.lift(c[:, n:n + 1])[0]

    def read_many(self, arrays, n):
        """Coefficient n of each array, lifted together."""
        return self.lift(np.array([a[:, n] for a in arrays]).T) if arrays else []

    # a sum or difference of two residues is off by at most one p: one
    # conditional step in place reduces it, at half the cost of np.where
    def add(self, a, b):
        s = a + b
        s -= self.p * (s >= self.p)
        return s

    def sub(self, a, b):
        s = a - b
        s += self.p * (s < 0)
        return s

    def _reduce(self, a):
        """a float64 array [prime, n] (or [prime, ..., n]) of integers below
        2^53, modulo each prime.

        The int64 % of the same integers gives the same residues as a float64
        % in about a third of its time.
        """
        p64 = self.p64 if a.ndim == 2 else self.p64.reshape((-1,) + (1,) * (a.ndim - 1))
        return (a.astype(np.int64) % p64).astype(float)

    def mul(self, a, b, N):
        return self.mul_sum([(a, 0, b, 0)], N)

    def _room(self):
        """How many products of two residues a float64 sum holds exactly:
        2^53 / (p - 1)^2, which ``coefficients`` keeps at the order + 1 or more."""
        return (1 << 53) // (max(self.primes) - 1) ** 2

    def mul_sum(self, pairs, N):
        """sum a b over the pairs (a, val(a), b, val(b)), to order N.

        A pair whose valuations add up past N is skipped.  Two or more of the
        rest whose window order n = N - low is at most ``_PACKED_MAX_ORDER``,
        low the least val(a) + val(b), share groups of at most ``_room`` /
        (n + 1) pairs; every other pair is a group of its own at its own low.
        Each group (``_group_product``) is one ``np.correlate`` per prime, or
        a blocked short product when it is one pair past that order, reduced
        and added.  Grouping beats a group per pair up to about that
        order: on random residues with valuation 0 (2-CPU host, numpy 2.4),
        2, 4 and 8 pairs in two runs took 0.26-0.50 times the time of a group
        per pair at N = 60 over 6 primes, 0.73-0.83 at N = 160 over 12 primes,
        0.85-1.26 at N = 200 over 14 primes and 1.08-2.58 at N = 400 over 24
        primes, where the zeros between the blocks, which a group multiplies
        too, dominate.  Past that order the short product of one pair took
        0.61-0.91 times the time of its ``np.correlate`` (best of 5, N = 161
        to 1600 over 15 to 132 primes, same host).
        """
        pairs = [pair for pair in pairs if pair[1] + pair[3] <= N]
        low = min((va + vb for _, va, _, vb in pairs), default=N)
        if len(pairs) > 1 and N - low <= _PACKED_MAX_ORDER:
            size = self._room() // (N - low + 1)
            groups = [(pairs[start:start + size], low) for start in range(0, len(pairs), size)]
        else:
            groups = [([pair], pair[1] + pair[3]) for pair in pairs]
        out = np.zeros((len(self.primes), N + 1))
        for k, (group, low) in enumerate(groups):
            part = self._group_product(group, N, low)
            out[:, low:] = self.add(out[:, low:], part) if k else part
        return out

    def _group_product(self, group, N, low):
        """x^-low sum a b over a group of pairs, reduced, low being at most
        every val(a) + val(b).

        Each pair splits as a = x^i a', b = x^(low - i) b' (i = min(val(a),
        low) drops only zero terms), and the sum is x^low sum a' b' to the
        window order n = N - low, over windows a', b' of n + 1 terms.  A lone
        pair past ``_PACKED_MAX_ORDER`` is a short product
        (``_short_product``), any other group a Kronecker sum
        (``_kronecker_sum``).  Output k sums at most m (n + 1) products of two
        residues: below 2^53, and so exact in float64 in any order, for
        groups of at most ``_room`` / (n + 1) pairs.
        """
        n = N - low
        windows = [(a[:, i:i + n + 1], b[:, low - i:low - i + n + 1])
                   for a, va, b, _ in group for i in (min(va, low),)]
        if len(windows) == 1 and n > _PACKED_MAX_ORDER:
            return self._reduce(_short_product(*windows[0], n))
        return self._reduce(_kronecker_sum(windows, n))

    def scalar_mul(self, a, c):
        return self._reduce(a * self.residues([c]))

    def scalar_div(self, a, q):
        if q < 1:
            raise UsageError(f"a residue ring divides by positive ints only, not {q}")
        return self._reduce(a * self.inverses(q)[:, q:q + 1])

    def shift(self, a, k):
        out = np.zeros_like(a)
        out[:, k:] = a[:, : max(a.shape[1] - k, 0)]
        return out

    def substitute_power(self, a, i):
        out = np.zeros_like(a)
        out[:, ::i] = a[:, : (a.shape[1] - 1) // i + 1]
        return out

    def exp(self, a):
        # n e_n = sum_m (m a_m) e_{n-m}, one dot per prime (and per row of an
        # array [prime, row, n]) for each n, then times n^-1; e is kept
        # reversed, so e_{n-1}, ..., e_0 is one slice; m a_m is reduced in
        # place, as a law's array is large
        N = a.shape[-1] - 1
        column = (-1,) + (1,) * (a.ndim - 2)
        inv, p = self.inverses(max(N, 1)), self.p.reshape(column)
        na = a * np.arange(N + 1)
        np.remainder(na, p[..., None], out=na)
        rev = np.zeros_like(a)
        rev[..., N] = 1
        for n in range(1, N + 1):
            dot = np.vecdot(na[..., 1:n + 1], rev[..., N - n + 1:])
            rev[..., N - n] = dot % p * inv[:, n].reshape(column) % p
        return rev[..., ::-1]

    def valuation(self, a):
        return _first(a.any(axis=0))

    def power_sum(self, a, weights, lo, hi):
        """sum_{i=lo}^{hi} weights[:, i] a(x**i), reduced.

        One i is a strided product.  A range of i is gathered along the plan,
        cut at i <= N / val(a) and to a's nonzero terms, and added by one
        ``np.bincount`` per prime (one row of terms at a time).  x^t gains a
        product of two residues per i dividing t (every i at t = 0): at most
        N + 1 terms below p^2, exact in any order (``coefficients``' bound).
        """
        N = a.shape[1] - 1
        out = np.zeros(a.shape)
        if lo == hi:
            out[:, ::lo] = self._reduce(a[:, : N // lo + 1] * weights[:, lo:lo + 1])
            return out
        nonzero = a.any(axis=0)
        top = min(hi, N // max(_first(nonzero), 1))
        if top < lo:
            return out
        src, tgt, i, ends = _substitution_plan(N)
        keep = ends[lo - 1] + np.flatnonzero(nonzero[src[ends[lo - 1]:ends[top]]])
        src, tgt, i = src[keep], tgt[keep], i[keep]
        return self._reduce(np.array([np.bincount(tgt, row[src] * wr[i], N + 1)
                                      for row, wr in zip(a, weights)]))

    def lift_series(self, series):
        """The exact-ring series, each coefficient lifted by the CRT."""
        return TruncatedSeries(self.lift(series.coeffs), series.order)


def _kronecker_sum(windows, n):
    """sum a' b' to order n over pairs of windows [prime, n + 1]: one
    ``np.correlate`` per prime (Kronecker substitution, von zur Gathen &
    Gerhard).

    In blocks of stride L = 2n + 1, X = [0^n | b'_1 | 0^n | b'_2 | ...] and
    K = [rev a'_1 | 0^n | rev a'_2 | ... | rev a'_m], so output k of the
    "valid" correlation, sum_t X[t + k] K[t], is sum_r [x^k] a'_r b'_r: the
    term a'_r[j] meets block r of X at offset n + k - j, which is b'_r[k - j]
    from k >= j on and zero below, and never leaves block r.
    """
    P, m, L = windows[0][0].shape[0], len(windows), 2 * n + 1
    X, K = np.zeros((2, P, m, L))
    X.transpose(1, 0, 2)[:, :, n:] = [b for _, b in windows]
    K.transpose(1, 0, 2)[:, :, :n + 1] = [a[:, ::-1] for a, _ in windows]
    X, K = X.reshape(P, -1), K.reshape(P, -1)[:, :m * L - n]
    return np.array([np.correlate(x, k, "valid") for x, k in zip(X, K)])


def _short_product(a, b, n):
    """a b to order n for windows [prime, n + 1], skipping the triangle of
    zeros (Mulders' short product: T. Mulders, AAECC 11, 2000; Hanrot &
    Zimmermann, JSC 37, 2004).

    With X = [0^n | b] and K = rev a, output k is sum_t X[k + t] K[t], as in
    ``_kronecker_sum`` with one pair, and X[k + t] is zero for t < n - k.  The
    outputs go in blocks [k0, k1) of ``_SHORT_BLOCK``.  Each block drops the
    leading t < n + 1 - k1, which are zero for every k of the block, and is
    one ``np.vecdot`` over the sliding windows of X, for all primes at once:
    about (n + 1)(n + 1 + _SHORT_BLOCK) / 2 multiplies where the correlation
    does (n + 1)^2.  K is contiguous, so that each dot is a BLAS call.
    """
    X = np.zeros((a.shape[0], 2 * n + 1))
    X[:, n:] = b
    K = np.ascontiguousarray(a[:, ::-1])
    W = sliding_window_view(X, n + 1, axis=1)
    blocks = []
    for k0 in range(0, n + 1, _SHORT_BLOCK):
        k1 = min(k0 + _SHORT_BLOCK, n + 1)
        t0 = n + 1 - k1
        blocks.append(np.vecdot(W[:, k0:k1, t0:], K[:, None, t0:]))
    return np.concatenate(blocks, axis=1)


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    __slots__ = ("coeffs", "order", "ring", "_logs", "_val")

    def __init__(self, coeffs, order=None, ring=EXACT):
        if order is None:
            order = len(coeffs) - 1
        self.coeffs = ring.coefficients(coeffs, order)
        self.order = order
        self.ring = ring
        self._logs = None  # evaluate's table of log-magnitudes, built at its first call
        self._val = None  # the x-valuation, found at its first use

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, order, ring=EXACT):
        return cls([0], order, ring)

    @classmethod
    def one(cls, order, ring=EXACT):
        return cls([1], order, ring)

    def one_like(self):
        return TruncatedSeries.one(self.order, self.ring)

    def copy_with(self, coeffs):
        out = object.__new__(TruncatedSeries)
        out.coeffs, out.order, out.ring = self.ring.freeze(coeffs), self.order, self.ring
        out._logs = out._val = None
        return out

    # -- bookkeeping ---------------------------------------------------------
    def _check_compatible(self, other):
        if not isinstance(other, TruncatedSeries):
            raise UsageError("expected a TruncatedSeries")
        if self.ring != other.ring or self.order != other.order:
            raise UsageError(f"ring/order mismatch: ({self.ring},{self.order}) vs "
                             f"({other.ring},{other.order})")

    def _exact_only(self, what, residues=False):
        """Refuse an operation that only the exact ring provides, or with
        ``residues`` the exact and residue rings."""
        if self.ring is not EXACT and not (residues and isinstance(self.ring, ResidueRing)):
            also = " (and modulo primes)" if residues else ""
            raise UsageError(f"{what} is defined in the exact ring only{also}, "
                             f"not in {self.ring!r}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring == other.ring and self.order == other.order
                and bool(self.ring.equal(self.coeffs, other.coeffs)))

    def __repr__(self):
        head = ", ".join(str(c) for c in list(self.coeffs[:5]))
        return f"TruncatedSeries([{head}, ...], order={self.order}, ring={self.ring})"

    def __getitem__(self, n):
        return self.ring.read(self.coeffs, n)

    def lift(self):
        """A residue-ring series in the exact ring, lifted by the CRT; others as they are."""
        return self.ring.lift_series(self)

    def valuation(self):
        """The least n with a_n != 0 (order + 1 for the zero series), found once."""
        if self._val is None:
            self._val = self.ring.valuation(self.coeffs)
        return self._val

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        return self.copy_with(self.ring.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check_compatible(other)
        return self.copy_with(self.ring.sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return self.copy_with(self.ring.mul(self.coeffs, other.coeffs, self.order))
        return self.copy_with(self.ring.scalar_mul(self.coeffs, other))

    __rmul__ = __mul__

    def scalar_div(self, q):
        """Divide by a nonzero int q; a residue ring needs 1 <= q below its smallest prime."""
        self._exact_only("scalar_div", residues=True)
        return self.copy_with(self.ring.scalar_div(self.coeffs, q))

    def shift(self, k=1):
        """Multiply by x**k."""
        self._exact_only("shift", residues=True)
        return self.copy_with(self.ring.shift(self.coeffs, k))

    def exp(self):
        """exp(a) for a with zero constant term, via e' = a'e coefficient solve."""
        self._exact_only("exp", residues=True)
        if self.valuation() == 0:
            raise DomainError("exp requires zero constant term")
        return self.copy_with(self.ring.exp(self.coeffs))

    def substitute_power(self, i):
        """a(x) -> a(x**i)."""
        self._exact_only("substitute_power", residues=True)
        if i < 1:
            raise UsageError("substitute_power requires i >= 1")
        if i == 1:
            return self
        return self.copy_with(self.ring.substitute_power(self.coeffs, i))

    def power_sum(self, weights):
        """sum_{i>=2} weights[i] a(x**i), with ``weights`` = ``ring.weights`` of w_0..w_N."""
        return self.copy_with(self.ring.power_sum(self.coeffs, weights, 2, self.order))

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, x0):
        """Evaluate at |x0| < 1; returns (value, error_estimate).

        Each term a_n x0**n is e**(log|a_n| + n log|x0|) with its sign, so big
        integers never overflow.  log|a_n| and the sign of a_n come from the
        series' table of log-magnitudes, built at the first evaluation, and
        log|x0| is taken once per call; each term then costs one multiply-add
        and one ``math.exp``.  The table caches, it does not approximate:
        the float operations are those of forming each term from a_n afresh,
        in the same order.  ``math.exp`` stays per term and ``math.log`` per
        coefficient and per point, because numpy's vectorised ones differ
        from them in the last bit on some arguments, and the constants are
        pinned bit for bit.

        The partial sum gets a geometric tail correction t_N * r/(1-r) built
        from the last retained terms (exact for a truly geometric tail).  The
        returned error is a conservative multiple of that correction plus
        float rounding.  When the last term has not decayed at all the series
        is useless at x0 and an AccuracyError is raised.
        """
        self._exact_only("evaluate")
        if abs(x0) >= 1:
            raise DomainError("evaluate requires |x0| < 1")
        if x0 == 0:
            return float(self.coeffs[0]), 0.0
        logs = self._logs
        if logs is None:  # [(log|a_n|, sign of a_n) or None for a_n = 0], once per series
            logs = self._logs = [(_log_abs(c), 1.0 if c > 0 else -1.0) if c else None
                                 for c in self.coeffs]
        lx = math.log(abs(x0))
        odd = -1.0 if x0 < 0 else 1.0  # the sign of x0**n at odd n
        exp = math.exp
        total = 0.0
        tiny_run = 0
        # each term as _table_term forms it, inlined: the loop runs up to
        # N + 1 times per point
        for n, entry in enumerate(logs):
            t = 0.0
            if entry is not None:
                mag = entry[0] + n * lx
                if mag >= -745.0:
                    try:
                        t = entry[1] * exp(mag)
                    except OverflowError:
                        raise _out_of_range(mag) from None
                    if n & 1:
                        t *= odd
            total += t
            if total != 0.0 and abs(t) < 1e-18 * abs(total):
                tiny_run += 1
                if tiny_run > 4 and n > 8:
                    break
            else:
                tiny_run = 0
        N = self.order
        tN = _table_term(logs, N, lx, odd)
        tN1 = _table_term(logs, N - 1, lx, odd) if N >= 1 else 0.0
        correction, err = _tail_model(tN, tN1, x0, N)
        value = total + correction
        if abs(tN) > 0.1 * max(abs(value), 1e-300):
            raise AccuracyError(f"series tail has not decayed at x0={x0}: last term {abs(tN):.3g}")
        return value, err

    def to_double(self, scale=1.0):
        """This series in the double ring of the given geometric scale."""
        self._exact_only("to_double")
        return TruncatedSeries(self.coeffs, self.order, DoubleRing(scale))


def _log_abs(c):
    """log|c| of a nonzero int or Fraction, free of overflow for big ones.

    An int has ``numerator`` and ``denominator`` too, so neither needs a
    Fraction built; exact-ring coefficients are never floats.
    """
    return math.log(abs(c.numerator)) - (math.log(c.denominator) if c.denominator != 1 else 0.0)


def _signed_exp(c, extra_log):
    """c e^extra_log for an int or Fraction c, through log|c|."""
    if c == 0:
        return 0.0
    mag = _log_abs(c) + extra_log
    if mag < -745.0:
        return 0.0
    try:
        return math.exp(mag) if c > 0 else -math.exp(mag)
    except OverflowError:
        raise _out_of_range(mag) from None


def _to_float(c):
    """An int or Fraction c as the nearest float."""
    try:
        return float(c)
    except OverflowError:
        raise _out_of_range(_log_abs(c)) from None


def _out_of_range(mag):
    """The error for a value e^mag past the double range."""
    return AccuracyError(f"|value| = e^{mag:.1f} passes the double range; "
                         "in the double ring, pass a geometric scale such as rho")


def _table_term(logs, n, lx, odd):
    """Term n of a series at x0 from its table entry, as ``evaluate``'s loop forms it.

    lx is log|x0| and odd the sign of x0**n at odd n.
    """
    if logs[n] is None:
        return 0.0
    mag = logs[n][0] + n * lx
    if mag < -745.0:
        return 0.0
    try:
        t = logs[n][1] * math.exp(mag)
    except OverflowError:
        raise _out_of_range(mag) from None
    return t * odd if n & 1 else t


def _tail_model(tN, tN1, x0, N):
    """(correction, error) of the tail past term N, from terms N and N - 1."""
    if tN == 0.0:
        return 0.0, 0.0
    r = abs(tN / tN1) if tN1 else abs(x0)
    if r >= 0.9999:  # no usable decay; refuse to model the tail
        return 0.0, abs(tN) * N
    corr = tN * r / (1.0 - r)
    return corr, 2.0 * abs(corr) + 1e-15 * abs(tN) * N


# ---------------------------------------------------------------------------
# marked series
# ---------------------------------------------------------------------------

_UNMARKED = (0, 0)


@lru_cache(maxsize=4096)
def _eps_power_image(i, a, cap):
    """eps**a under u -> u**i, i.e. ((1+eps)**i - 1)**a, to eps**cap."""
    base = [0] + [_comb_signed(i, r) for r in range(1, cap + 1)]
    out = [1] + [0] * cap
    for _ in range(a):
        out = [sum(out[s] * base[r - s] for s in range(r + 1)) for r in range(cap + 1)]
    return tuple(out)


class MarkedSeries:
    """Series in x and one or two marks, stored by mark exponent.

    ``terms`` maps a mark exponent (a, b) to the TruncatedSeries in x that
    multiplies it; b stays 0 with one mark, and zero terms are dropped.
    Every term is of one ring and one order, and the series takes its ring
    from them (the exact ring when it has none).  An exponent is a power of
    eps = u - 1 (the nilpotent basis), and ``caps`` bounds a and b.

    Each term keeps its x-valuation (``TruncatedSeries.valuation``), so
    products whose valuations add up past the order are skipped, not formed.
    """

    __slots__ = ("terms", "order", "caps", "ring")

    def __init__(self, terms, order, caps):
        if len(caps) != 2 or min(caps) < 0:
            raise UsageError(f"bad mark shape: caps {caps!r}")
        self.ring = next(iter(terms.values())).ring if terms else EXACT
        if self.ring is not EXACT and not isinstance(self.ring, ResidueRing):
            raise UsageError(f"marked series are exact or modulo primes, not in {self.ring!r}")
        if any(s.ring != self.ring or s.order != order for s in terms.values()):
            raise UsageError("the terms of a marked series are of one ring and one order")
        self.order, self.caps = order, tuple(caps)
        self.terms = self._nonzero(terms)

    def _nonzero(self, terms):
        return {e: s for e, s in terms.items() if s.valuation() <= self.order}

    @classmethod
    def lift(cls, s, caps):
        """The scalar series s with every mark absent."""
        return cls({_UNMARKED: s}, s.order, caps)

    def copy_with(self, terms):
        out = object.__new__(type(self))
        out.order, out.caps, out.ring = self.order, self.caps, self.ring
        out.terms = out._nonzero(terms)
        return out

    def one_like(self):
        return self.copy_with({_UNMARKED: TruncatedSeries.one(self.order, self.ring)})

    def mark(self, power=1, v=0):
        """The monomial u_v**power = (1+eps_v)**power (v = 0 or 1), constant in x."""
        one = TruncatedSeries.one(self.order, self.ring)
        return self.copy_with({(r, 0) if v == 0 else (0, r): one * _comb_signed(power, r)
                               for r in range(self.caps[v] + 1)})

    def _check(self, other):
        if (self.order, self.caps, self.ring) != (other.order, other.caps, other.ring):
            raise UsageError("marked series order/caps/ring mismatch")

    def _fits(self, e):
        return e[0] <= self.caps[0] and e[1] <= self.caps[1]

    def _image(self, e, i):
        """(exponent, weight) pairs of the mark monomial e under every u -> u**i."""
        wa, wb = (_eps_power_image(i, a, cap) for a, cap in zip(e, self.caps))
        return [((p, q), x * y) for p, x in enumerate(wa) if x for q, y in enumerate(wb) if y]

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, s in other.terms.items():
            terms[e] = terms[e] + s if e in terms else s
        return self.copy_with(terms)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if not isinstance(other, MarkedSeries):
            return self.copy_with({e: s * other for e, s in self.terms.items()})
        self._check(other)
        pairs = {}
        for (a1, b1), s1 in self.terms.items():
            for (a2, b2), s2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                if self._fits(e):
                    pairs.setdefault(e, []).append((s1, s2))
        return self.copy_with({e: self._sum_of_products(ps) for e, ps in pairs.items()})

    __rmul__ = __mul__

    def _sum_of_products(self, pairs):
        """sum s t over a non-empty list of pairs of terms; the ring skips a
        pair whose valuations add up past the order."""
        terms = [(s.coeffs, s.valuation(), t.coeffs, t.valuation()) for s, t in pairs]
        return pairs[0][0].copy_with(self.ring.mul_sum(terms, self.order))

    def scalar_div(self, q):
        return self.copy_with({e: s.scalar_div(q) for e, s in self.terms.items()})

    def shift(self, k=1):
        return self.copy_with({e: s.shift(k) for e, s in self.terms.items()})

    def _check_constant_term(self, what):
        if any(s.valuation() == 0 for s in self.terms.values()):
            raise DomainError(f"{what} requires zero constant term")

    def exp(self, unmarked=None):
        """exp(p) through the Euler operator theta = sum_m m d/dm over the marks.

        theta E = (theta p) E gives, with |alpha| = a + b,

            |alpha| E_alpha = sum_{0 < beta <= alpha} |beta| p_beta E_{alpha-beta},

        from E_0 = exp(p_0) in x, or from ``unmarked`` when the caller already
        knows exp(p_0) (a scalar series of this ring and order); p's own
        unmarked term is then not read, and may be absent.  Whole
        coefficients stay ints in the exact ring.  A product of two terms whose valuations add up past the order
        is zero and is skipped.
        """
        self._check_constant_term("exp")
        N = self.order
        if unmarked is None:
            unmarked = self.terms.get(_UNMARKED, TruncatedSeries.zero(N, self.ring)).exp()
        E = {_UNMARKED: unmarked}
        val = {_UNMARKED: unmarked.valuation()}  # each E_alpha's valuation, read once
        dp = {}  # |beta| -> [(beta, |beta| p_beta, its valuation)], by ascending valuation
        for beta, s in sorted(self.terms.items(), key=lambda item: item[1].valuation()):
            if beta != _UNMARKED:
                t = s * sum(beta)
                dp.setdefault(sum(beta), []).append((beta, t.coeffs, t.valuation()))
        cap_a, cap_b = self.caps
        # E_alpha of |alpha| = size needs only the E of smaller size, all known
        for size in range(1, cap_a + cap_b + 1):
            pairs = {}
            for (a, b), rest in E.items():
                v_rest = val[a, b]
                for (c, d), s, v in dp.get(size - a - b, ()):
                    if v + v_rest > N:
                        break
                    if a + c <= cap_a and b + d <= cap_b:
                        pairs.setdefault((a + c, b + d), []).append((s, v, rest.coeffs, v_rest))
            for alpha, terms in pairs.items():
                tot = unmarked.copy_with(self.ring.mul_sum(terms, N))
                if tot.valuation() <= N:
                    E[alpha], val[alpha] = tot.scalar_div(size), tot.valuation()
        return self.copy_with(E)

    def substitute_power(self, i):
        """x -> x**i together with every mark u -> u**i."""
        if i < 1:
            raise UsageError("substitute_power requires i >= 1")
        if i == 1:
            return self
        terms = {}
        for e, s in self.terms.items():
            sub = s.substitute_power(i)
            for e2, w in self._image(e, i):
                t = sub * w
                terms[e2] = terms[e2] + t if e2 in terms else t
        return self.copy_with(terms)

    def polya_exponent(self):
        """sum_{i>=1} a(x**i, u**i) / i, as the ring's substitution sums.

        Only i <= N / val(a_e) reach the order.  Every i adds to each image
        exponent of eps**e, weighted by the image coefficient over i, in one
        sum over all i.
        """
        self._check_constant_term("polya_exponent")
        N, ring = self.order, self.ring
        acc = {}
        for e, s in self.terms.items():
            top = N // s.valuation()
            for e2, weights in _polya_weights(ring, N, e, self.caps):
                part = ring.power_sum(s.coeffs, weights, 1, top)
                acc[e2] = ring.add(acc[e2], part) if e2 in acc else part
        like = next(iter(self.terms.values()), None)  # acc is empty when there are no terms
        return self.copy_with({e: like.copy_with(out) for e, out in acc.items()})

    def __getitem__(self, n):
        """The x**n coefficient as {mark exponent: nonzero value}."""
        values = self.ring.read_many([s.coeffs for s in self.terms.values()], n)
        return {e: v for e, v in zip(self.terms, values) if v}


@lru_cache(maxsize=256)
def _polya_weights(ring, N, e, caps):
    """The weights of ``MarkedSeries.polya_exponent`` in the ring's format, over
    i = 0..N: the pairs (image exponent e2, [0, c_1 / 1, ..., c_N / N]) with c_i
    the coefficient of eps**e2 in the image of eps**e under u -> u**i.
    """
    images = [[0] * (N + 1) for _ in range((caps[0] + 1) * (caps[1] + 1))]
    for i in range(1, N + 1):
        wa, wb = (_eps_power_image(i, a, cap) for a, cap in zip(e, caps))
        for p, x in enumerate(wa):
            for q, y in enumerate(wb):
                images[p * (caps[1] + 1) + q][i] = Fraction(x * y, i)
    return tuple(((j // (caps[1] + 1), j % (caps[1] + 1)), ring.weights(w))
                 for j, w in enumerate(images) if any(w))


# ---------------------------------------------------------------------------
# laws by their values at roots of unity
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _primes_below_2_20():
    """Every prime below 2^20, ascending, as an int64 array."""
    is_prime = np.ones(1 << 20, dtype=bool)
    is_prime[:2] = False
    for q in range(2, 1 << 10):
        if is_prime[q]:
            is_prime[q * q::q] = False
    return np.flatnonzero(is_prime)


def root_primes(M, bound):
    """The fewest primes p = 1 (mod M) below 2^20 with M (p - 1)^2 < 2^53,
    largest first, whose product exceeds ``bound``.

    Each holds the M-th roots of unity, and exceeds M, so every int up to M
    is invertible modulo it.  UsageError when all of them fall short.
    """
    top = math.isqrt(((1 << 53) - 1) // M) + 1  # M (top - 1)^2 < 2^53
    primes = _primes_below_2_20()
    chosen, product = [], 1
    for p in primes[((primes - 1) % M == 0) & (primes <= top)][::-1].tolist():
        chosen.append(p)
        product *= p
        if product > bound:
            return chosen
    raise UsageError(f"the primes p = 1 (mod {M}) below 2^20 do not pass a bound of "
                     f"{bound.bit_length()} bits")


def _unit_roots(p, M):
    """[omega^t mod p for t = 0..M-1], omega of order exactly M modulo a
    prime p = 1 (mod M): the first g^((p - 1) / M), g = 2, 3, ..., whose
    powers omega^1..omega^(M-1) all differ from 1."""
    for g in range(2, max(p, 3)):
        powers = [pow(g, (p - 1) // M * t, p) for t in range(M)]
        if 1 not in powers[1:]:
            return powers


class PointRing:
    """Residues at the M-th roots of unity modulo primes p = 1 (mod M), for
    the laws of series of order N whose [x^n] counts lie in [0, bound].

    A law of values below M is fixed by its generating polynomial at the M
    points omega^m, omega of order M modulo p (J. M. Pollard, "The fast
    Fourier transform in a finite field", Math. Comp. 25, 1971), and read
    back by one inverse DFT of length M per prime and mark, a float64 matrix
    product (``law``).  Its sums hold M products of two residues, exact while
    M (p - 1)^2 < 2^53 (``root_primes``).  The counts of a series of order N
    take values up to N, so M = N + 1, and the primes' product passes 2^20
    times the bound; when the primes below 2^20 fall short (N = 990 is the
    first such order) the ring raises UsageError.  The DFT's output is
    lifted by the CRT of ``residue``, a ``ResidueRing`` over the same primes,
    which raises AccuracyError for a count above the bound.  Every int up to
    M divides, as M < p.
    """

    __slots__ = ("M", "residue", "p", "powers")

    def __init__(self, order, bound):
        self.M = order + 1
        primes = root_primes(self.M, bound << 20)
        self.residue = ResidueRing(order, bound, primes=primes)
        self.p = self.residue.p.reshape(-1, 1, 1, 1)
        self.powers = _frozen([_unit_roots(p, self.M) for p in primes])

    def law(self, values):
        """{(a, b): [u^a v^b]} over the nonzero coefficients of the polynomial
        whose values at the points are ``values`` [prime, A, B]; an axis of
        length 1 is a mark the polynomial does not hold (b = 0 with one mark).

        Each axis of length M is one product per prime by the inverse DFT
        matrix M^-1 omega^(-a m), built for the read and dropped after it.
        """
        M = self.M
        idx = -np.outer(np.arange(M), np.arange(M)) % M
        counts = []
        for roots, c, p in zip(self.powers, values, self.residue.primes):
            dft = roots[idx] * pow(M, -1, p) % p
            if c.shape[0] > 1:
                c = dft @ c % p
            if c.shape[1] > 1:
                c = c @ dft % p
            counts.append(c)
        flat = np.array(counts).reshape(len(counts), -1)
        cols = np.flatnonzero(flat.any(axis=0)).tolist()
        width = values.shape[2]
        return {divmod(j, width): v for j, v in zip(cols, self.residue.lift(flat[:, cols]))}


def _point_images(A, B, M, i):
    """[len(i), A B]: row (a, b) -> row (a i mod M, b i mod M) of A x B
    points, flattened, for each int of the array i."""
    i = np.asarray(i)[:, None]
    a, b = (np.arange(size) * i % M for size in (A, B))
    return (a[:, :, None] * B + b[:, None, :]).reshape(len(i), A * B)


class PointSeries:
    """A series in x and one or two marks u, v, held by its values at
    u = omega^a and v = omega^b (a, b = 0..M-1) modulo the primes of a
    ``PointRing``: the representation of whole laws.

    ``values`` is a read-only float64 array [prime, a, b, n] of residues.  An
    axis a or b of length 1 stands for a mark the series does not carry:
    every point holds the same series, and numpy's broadcasting spreads it
    over M points when the mark enters.  A series constant in x (``mark``,
    ``one_like``) holds one x column, [prime, a, b, 1]: a product by it is
    one multiply per point, a sum or difference with a series that is not
    constant widens it to N + 1 terms, and so do ``shift`` and ``[n]``; the
    other operations take a constant to a constant.

    The Polya substitution u -> u^i sends point a to a i mod M, so
    ``substitute_power`` and ``polya_exponent`` gather points, and ``exp``
    is the scalar recurrence n e_n = sum_m m a_m e_{n-m} on every point at
    once: no step pairs mark exponents.  ``[n]`` reads the law of the
    coefficient of x^n (``PointRing.law``) as {(a, b): count}, b = 0 with
    one mark, the nonzero counts only.

    Two marks on one level count the same nodes, so u and v only enter as
    u v: a series ``on_one_level`` holds that one mark on axis a, at M
    points rather than M^2, and its [n] reads each count l as (l, l).
    """

    __slots__ = ("values", "order", "ring", "one_level")

    def __init__(self, values, order, ring, one_level=False):
        self.values, self.order, self.ring = _frozen(values), order, ring
        self.one_level = one_level

    @classmethod
    def lift(cls, s, ring):
        """The exact integer series s, at every point: it carries no mark."""
        return cls(ring.residue.coefficients(s.coeffs, s.order)[:, None, None], s.order, ring)

    def copy_with(self, values):
        return PointSeries(values, self.order, self.ring, self.one_level)

    def on_one_level(self):
        """This series, which carries no mark yet, for two marks on one
        level: ``mark()`` is u v from then on, and [n] reads (l, l)."""
        return PointSeries(self.values, self.order, self.ring, True)

    def _constant(self, c):
        """The series c [prime, A, B], constant in x: one x column."""
        return self.copy_with(c[..., None])

    def _wide(self):
        """``values`` with all N + 1 x terms: a constant's column padded."""
        v = self.values
        if v.shape[-1] == self.order + 1:
            return v
        out = np.zeros(v.shape[:-1] + (self.order + 1,))
        out[..., :1] = v
        return out

    def one_like(self):
        return self._constant(np.ones((len(self.ring.residue.primes), 1, 1)))

    def mark(self, power=1, v=0):
        """u**power (v = 0) or v**power (v = 1): omega^(power a) at point a."""
        M = self.ring.M
        at = self.ring.powers[:, np.arange(M) * power % M]
        return self._constant(at[:, :, None] if v == 0 else at[:, None, :])

    def _check(self, other):
        if not isinstance(other, PointSeries) or (self.ring, self.order, self.one_level) != (
                other.ring, other.order, other.one_level):
            raise UsageError("point series ring/order mismatch")

    def _operands(self, other):
        """The values of self and other, a constant widened when the other
        is not constant, so that a sum adds it to x^0 alone."""
        self._check(other)
        if self.values.shape[-1] == other.values.shape[-1]:
            return self.values, other.values
        return self._wide(), other._wide()

    # a sum or difference of two residues is off by at most one p
    def __add__(self, other):
        a, b = self._operands(other)
        s = a + b
        s -= self.ring.p * (s >= self.ring.p)
        return self.copy_with(s)

    def __sub__(self, other):
        a, b = self._operands(other)
        s = a - b
        s += self.ring.p * (s < 0)
        return self.copy_with(s)

    def __mul__(self, other):
        """The product point by point: one multiply per point when a factor
        is constant in x, else a short product (``_short_product``) of each
        point's series."""
        reduce = self.ring.residue._reduce
        self._check(other)
        for a, b in ((self.values, other.values), (other.values, self.values)):
            if not b[..., 1:].any():
                return self.copy_with(reduce(a * b[..., :1]))
        a, b = np.broadcast_arrays(self.values, other.values)
        n = self.order
        return self.copy_with(reduce(
            _short_product(a.reshape(-1, n + 1), b.reshape(-1, n + 1), n).reshape(a.shape)))

    def scalar_div(self, q):
        inv = self.ring.residue.inverses(q)[:, q, None, None, None]
        return self.copy_with(self.ring.residue._reduce(self.values * inv))

    def shift(self, k=1):
        values = self._wide()
        out = np.zeros_like(values)
        out[..., k:] = values[..., : max(self.order + 1 - k, 0)]
        return self.copy_with(out)

    def substitute_power(self, i):
        """x -> x**i together with every mark u -> u**i: point a takes the
        series at a i mod M (an axis of length 1 stays)."""
        if i < 1:
            raise UsageError("substitute_power requires i >= 1")
        if i == 1:
            return self
        P, A, B, n = self.values.shape
        rows = self.values.reshape(P, A * B, n)[:, _point_images(A, B, self.ring.M, [i])[0]]
        out = np.zeros_like(self.values)
        out[..., ::i] = rows[..., : (n - 1) // i + 1].reshape(P, A, B, -1)
        return self.copy_with(out)

    def _check_constant_term(self, what):
        if self.values[..., 0].any():
            raise DomainError(f"{what} requires zero constant term")

    def polya_exponent(self):
        """sum_{i>=1} a(x**i, u**i) / i: term j of a(x^i) goes to x^(i j) at
        the image points (``_point_images``), times i^-1.

        The pairs i j <= N take about 2 sqrt(N) numpy steps (Dirichlet's
        hyperbola): one per i <= s = isqrt(N), for every term j of a(x^i),
        and one per j <= N / (s + 1), for term j of every a(x^i), i > s.
        They add up unreduced, reduced once and in place: x^t gains a product
        of two residues per i dividing t, at most N + 1 terms below p^2, exact
        as M = N + 1 and M (p - 1)^2 < 2^53.
        """
        self._check_constant_term("polya_exponent")
        P, A, B, n = self.values.shape
        N = n - 1
        rows = self.values.reshape(P, A * B, n)
        inv = self.ring.residue.inverses(max(N, 1))
        images = _point_images(A, B, self.ring.M, np.arange(n))
        s = math.isqrt(N)
        out = rows.copy()  # i = 1
        for i in range(2, s + 1):
            out[..., i::i] += rows[:, images[i], 1:N // i + 1] * inv[:, i, None, None]
        for j in range(1, N // (s + 1) + 1):
            top = N // j  # i = s + 1..top, to x^(i j)
            out[..., (s + 1) * j:top * j + 1:j] += (
                rows[:, images[s + 1:top + 1].T, j] * inv[:, None, s + 1:top + 1])
        np.remainder(out, self.ring.p[..., 0], out=out)
        return self.copy_with(out.reshape(P, A, B, n))

    def exp(self):
        """exp(a) at every point, by the residue ring's recurrence on every
        point's row at once."""
        self._check_constant_term("exp")
        shape = self.values.shape
        rows = self.values.reshape(shape[0], -1, shape[-1])
        return self.copy_with(self.ring.residue.exp(rows).reshape(shape))

    def __getitem__(self, n):
        """The x**n coefficient as {mark exponent: nonzero count}."""
        law = self.ring.law(self._wide()[..., n])
        return {(a, a): v for (a, _), v in law.items()} if self.one_level else law
