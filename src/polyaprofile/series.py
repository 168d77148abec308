"""Truncated formal power series over exact-rational, residue and double-precision rings.

Everything in this package that manipulates generating functions goes through
the classes here:

``TruncatedSeries``
    a(x) = sum_{n<=N} a_n x^n with scalar coefficients in a ring, which owns
    their format and arithmetic, so every series method has one body.  The
    exact ring ``EXACT`` keeps Python ints / Fractions (whole quotients stay
    ints, so coefficient-wise equality is canonical), and it alone divides,
    shifts, substitutes and evaluates.  A ``DoubleRing`` keeps a numpy
    float64 vector rescaled by the ring's geometric ``scale`` (stored[n]
    equals the true coefficient times scale**n) so that series whose
    coefficients grow like rho**-n stay inside float range at large
    truncation orders.  A ``ResidueRing`` keeps integer coefficients modulo
    each of its word-size primes, as a float64 array [prime, n], and reading
    a coefficient lifts it back by the CRT.  The derivative pass runs in
    these two array rings, through ``+``, ``*`` and ``power_sums``, whose
    substitution sums are a gather and ``np.bincount`` along the (i, m)
    plan of the order (``_substitution_plan``), with no loop over i.
    An exact series evaluates at a point through its table of (log|a_n|,
    sign of a_n), built at its first evaluation and never passed on to a
    series made from it: each term is then one multiply-add and one
    ``math.exp``, the float operations of forming it from a_n afresh.

``MarkedSeries``
    an exact series in x and one or two marking variables, stored as a map
    from the mark exponent (a, b) to the TruncatedSeries in x that multiplies
    it (b = 0 with one mark), so sums, products and shifts are scalar-series
    arithmetic.  The marks live in the monomial basis ('u': an exponent
    counts marked nodes) or in the nilpotent basis ('eps': the series is
    f(1+eps) truncated at a fixed eps-degree, which carries all
    u-derivatives at u = 1 up to that order in one pass).  ``exp`` steps in
    the mark direction with the Euler operator, the same in both bases, and
    keeps whole coefficients as ints.

Multiplication is plain O(N^2) convolution (N <= ~1600).  In the exact ring
it is a Python loop over big integers, so the exact derivative pass runs in a
residue ring, where a product is one ``np.convolve`` per prime (the
multi-modular method: von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 5).  Values are immutable and operations pure, so instances are safe to
share across workers.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

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
    """(src, tgt, i, ends), read-only: entry r of sum_{i>=2} a(x**i) to order N moves
    a_src[r] to x**tgt[r], tgt = src i, in blocks of i = 2..N ascending, src =
    0..N // i; block i ends at ends[i] (ends[0] = ends[1] = 0), so i <= i_max is a prefix."""
    sizes = N // np.arange(2, N + 1) + 1
    ends = np.concatenate(([0, 0], np.cumsum(sizes)))[: N + 1]
    i = np.repeat(np.arange(2, N + 1), sizes)
    src = np.arange(len(i)) - ends[i - 1]
    plan = (src, src * i, i, ends)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _plan_prefix(nonzero, N):
    """The plan cut to i <= i_max = N / val(a), and i_max; ``nonzero`` marks a's nonzero terms."""
    src, tgt, i, ends = _substitution_plan(N)
    top = N // max(next(iter(np.flatnonzero(nonzero)), N + 1), 1)
    return src[: ends[top]], tgt[: ends[top]], i[: ends[top]], top


@lru_cache(maxsize=64)
def _scale_powers(scale, N):
    """scale**(tgt - src) along the plan: a_m scale^m stored at m moves to mi."""
    src, tgt, _, _ = _substitution_plan(N)
    return _frozen(scale ** (tgt - src))


def _by_block(w, top):
    """[0, 0, w(2), ..., w(top)], to be indexed by the plan's i: w once per block.

    w = None means w(i) = 1; multiplying by that 1 leaves every bit as it is.
    """
    return [0, 0, *(map(w, range(2, top + 1)) if w else [1] * (top - 1))]


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

    def add(self, a, b):
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b):
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b, N):  # walks b's nonzero terms only: y * 1 is O(N)
        out = [0] * (N + 1)
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

    def power_sums(self, c, N, weights):
        raise UsageError("power_sums is defined in the double and residue rings only")

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
        """Exact coefficients times scale**n, each through log|c|: a big one
        converts whenever its rescaled value lies in the double range."""
        out = np.zeros(order + 1)
        ls = math.log(self.scale)
        for n, c in enumerate(coeffs[: order + 1]):
            if c:
                out[n] = _signed_exp(c, n * ls)
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

    def power_sums(self, c, N, weights):
        # stored[m] = a_m scale^m, so a(x^i) stored at mi needs scale^(mi-m);
        # bincount adds in plan order, so each sum adds its terms i by i
        src, tgt, i, top = _plan_prefix(c != 0, N)
        t = c[src] * _scale_powers(self.scale, N)[: len(src)]
        return [np.bincount(tgt, t * np.array(_by_block(w, top), dtype=float)[i], N + 1)
                for w in weights]

    def lift_series(self, series):
        return series


class ResidueRing:
    """Integers in [0, bound], held modulo each of a set of primes.

    It is the ring of a TruncatedSeries whose coefficients are a read-only
    float64 array [prime, n] of residues.  Float64 arithmetic on them is exact
    while every sum of products stays below 2^53: a series of order N needs
    (N + 1)(p - 1)^2 <= 2^53, which ``coefficients`` checks.  Reading a
    coefficient lifts it by the CRT, which is right when the true value lies
    in [0, bound] and the primes' product exceeds bound; a lifted value above
    bound raises AccuracyError, since a residue or the bound is then wrong.
    """

    __slots__ = ("primes", "p", "p64", "modulus", "basis", "bound")

    def __init__(self, primes, bound):
        self.primes = tuple(primes)
        self.modulus, self.basis = crt_basis(self.primes)
        if self.modulus <= bound:
            raise UsageError("the primes' product must exceed the bound of a residue ring")
        self.bound = bound
        self.p = np.array(self.primes, dtype=float)[:, None]
        self.p64 = self.p.astype(np.int64)
        self.p.setflags(write=False)
        self.p64.setflags(write=False)

    def __repr__(self):
        return f"ResidueRing({len(self.primes)} primes, bound of {self.bound.bit_length()} bits)"

    def residues(self, ints):
        """The ints modulo each prime, as a float64 array [prime, len(ints)]."""
        ints = [operator.index(c) for c in ints]
        if all(abs(c) < 1 << 53 for c in ints):  # exact as floats
            return np.remainder(np.array(ints, dtype=float), self.p)
        return np.array([[c % q for c in ints] for q in self.primes], dtype=float)

    def lift(self, columns):
        """The ints whose residues are the columns of a float64 array [prime, m]."""
        out = []
        for col in columns.astype(np.int64).T.tolist():
            v = sum(map(operator.mul, col, self.basis)) % self.modulus
            if v > self.bound:
                raise AccuracyError(f"a residue lifts to a value above the bound {self.bound}: "
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

    # a sum or difference of two residues is off by at most one p: one
    # conditional step reduces it, at less than half the cost of a float %
    def add(self, a, b):
        s = a + b
        return np.where(s >= self.p, s - self.p, s)

    def sub(self, a, b):
        s = a - b
        return np.where(s < 0, s + self.p, s)

    def _reduce(self, a):
        """a float64 array [prime, n] of integers below 2^53, modulo each prime.

        The int64 % of the same integers gives the same residues as a float64
        % in about a third of its time.
        """
        return (a.astype(np.int64) % self.p64).astype(float)

    def mul(self, a, b, N):  # one convolution per prime, each sum below 2^53
        return self._reduce(np.array([np.convolve(x, y)[: N + 1] for x, y in zip(a, b)]))

    def scalar_mul(self, a, c):
        return self._reduce(a * self.residues([c]))

    def power_sums(self, c, N, weights):
        # weights reduced modulo each prime: an entry adds fewer than N products
        # of two residues, below 2^53 like a convolution sum, so the sums are
        # exact in any order (terms of zero coefficients drop out); a bincount
        # per prime keeps every temporary at one row of terms
        nonzero = c.any(axis=0)
        src, tgt, i, top = _plan_prefix(nonzero, N)
        keep = np.flatnonzero(nonzero[src])
        src, tgt, i = src[keep], tgt[keep], i[keep]
        return [self._reduce(np.array([np.bincount(tgt, a[src] * wr[i], N + 1)
                                      for a, wr in zip(c, self.residues(_by_block(w, top)))]))
                for w in weights]

    def lift_series(self, series):
        """The exact-ring series, each coefficient lifted by the CRT."""
        return TruncatedSeries(self.lift(series.coeffs), series.order)


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    __slots__ = ("coeffs", "order", "ring", "_logs")

    def __init__(self, coeffs, order=None, ring=EXACT):
        if order is None:
            order = len(coeffs) - 1
        self.coeffs = ring.coefficients(coeffs, order)
        self.order = order
        self.ring = ring
        self._logs = None  # evaluate's table of log-magnitudes, built at its first call

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
        out._logs = None
        return out

    # -- bookkeeping ---------------------------------------------------------
    def _check_compatible(self, other):
        if not isinstance(other, TruncatedSeries):
            raise UsageError("expected a TruncatedSeries")
        if self.ring != other.ring or self.order != other.order:
            raise UsageError(f"ring/order mismatch: ({self.ring},{self.order}) vs "
                             f"({other.ring},{other.order})")

    def _exact_only(self, what):
        """Refuse an operation that only the exact ring provides."""
        if self.ring is not EXACT:
            raise UsageError(f"{what} is defined in the exact ring only, not in {self.ring!r}")

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
        self._exact_only("scalar_div")
        return self.copy_with([_quotient(c, q) for c in self.coeffs])

    def shift(self, k=1):
        """Multiply by x**k."""
        self._exact_only("shift")
        return self.copy_with([0] * k + self.coeffs[: self.order + 1 - k])

    def exp(self):
        """exp(a) for a with zero constant term, via e' = a'e coefficient solve."""
        self._exact_only("exp")
        if self.coeffs[0] != 0:
            raise DomainError("exp requires zero constant term")
        N = self.order
        # n e_n = sum_m m a_m e_{n-m}; whole m a_m and e_n stay ints
        na = [_whole(m * am) for m, am in enumerate(self.coeffs)]
        e = [1] + [0] * N
        for n in range(1, N + 1):
            tot = 0
            for m in range(1, n + 1):
                if na[m]:
                    tot += na[m] * e[n - m]
            e[n] = _quotient(tot, n)
        return self.copy_with(e)

    def substitute_power(self, i):
        """a(x) -> a(x**i)."""
        self._exact_only("substitute_power")
        if i < 1:
            raise UsageError("substitute_power requires i >= 1")
        if i == 1:
            return self
        out = [0] * (self.order + 1)
        out[::i] = self.coeffs[: self.order // i + 1]
        return self.copy_with(out)

    def power_sums(self, weights):
        """[sum_{i>=2} w(i) a(x**i) for w in weights]; w = None means w(i) = 1.

        In the double or a residue ring: the terms of i <= N / val(a) (past
        which a(x**i) vanishes) are gathered along the order's substitution
        plan, weighted with w called once per i, and added by ``np.bincount``
        in plan order, i ascending, so a double-ring sum is bit-identical to
        adding the substituted series one by one.
        """
        return [self.copy_with(acc)
                for acc in self.ring.power_sums(self.coeffs, self.order, weights)]

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
    """Exact series in x and one or two marks, stored by mark exponent.

    ``terms`` maps a mark exponent (a, b) to the TruncatedSeries in x that
    multiplies it; b stays 0 with one mark, and zero terms are dropped.
    ``caps`` bounds a and b.  In the 'u' basis an exponent counts marked
    nodes; in the 'eps' basis it is a power of eps = u - 1.
    """

    __slots__ = ("terms", "order", "caps", "basis")

    def __init__(self, terms, order, caps, basis):
        if basis not in ("u", "eps") or len(caps) != 2 or min(caps) < 0:
            raise UsageError(f"bad mark shape: caps {caps!r}, basis {basis!r}")
        if any(s.ring is not EXACT or s.order != order for s in terms.values()):
            raise UsageError("marked series are exact-only, of one order")
        self.terms = {e: s for e, s in terms.items() if any(s.coeffs)}
        self.order, self.caps, self.basis = order, tuple(caps), basis

    @classmethod
    def lift(cls, s, caps, basis):
        """The scalar series s with every mark absent."""
        return cls({_UNMARKED: s}, s.order, caps, basis)

    def copy_with(self, terms):
        out = object.__new__(MarkedSeries)
        out.terms = {e: s for e, s in terms.items() if any(s.coeffs)}
        out.order, out.caps, out.basis = self.order, self.caps, self.basis
        return out

    def one_like(self):
        return self.copy_with({_UNMARKED: TruncatedSeries.one(self.order)})

    def mark(self, power=1, v=0):
        """The monomial u_v**power (v = 0 or 1) in this basis, constant in x."""
        if self.basis == "u":
            if power < 0:
                raise UsageError("the u basis holds no negative powers")
            weights = {power: 1}
        else:  # u**p = (1+eps)**p
            weights = {r: _comb_signed(power, r) for r in range(self.caps[v] + 1)}
        one = TruncatedSeries.one(self.order)
        return self.copy_with({(r, 0) if v == 0 else (0, r): one * w
                               for r, w in weights.items() if r <= self.caps[v]})

    def _check(self, other):
        if (self.order, self.caps, self.basis) != (other.order, other.caps, other.basis):
            raise UsageError("marked series order/caps/basis mismatch")

    def _fits(self, e):
        return e[0] <= self.caps[0] and e[1] <= self.caps[1]

    def _image(self, e, i):
        """(exponent, weight) pairs of the mark monomial e under every u -> u**i."""
        if self.basis == "u":
            e2 = (e[0] * i, e[1] * i)
            return [(e2, 1)] if self._fits(e2) else []
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
        terms = {}
        for (a1, b1), s1 in self.terms.items():
            for (a2, b2), s2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                if self._fits(e):
                    p = s1 * s2
                    terms[e] = terms[e] + p if e in terms else p
        return self.copy_with(terms)

    __rmul__ = __mul__

    def scalar_div(self, q):
        return self.copy_with({e: s.scalar_div(q) for e, s in self.terms.items()})

    def shift(self, k=1):
        return self.copy_with({e: s.shift(k) for e, s in self.terms.items()})

    def exp(self):
        """exp(p) through the Euler operator theta = sum_m m d/dm over the marks.

        theta E = (theta p) E gives, with |alpha| = a + b,

            |alpha| E_alpha = sum_{0 < beta <= alpha} |beta| p_beta E_{alpha-beta},

        from E_0 = exp(p_0) in x.  It is the same in both bases, and whole
        coefficients stay ints.
        """
        if any(s[0] for s in self.terms.values()):
            raise DomainError("exp requires zero constant term")
        E = {_UNMARKED: self.terms.get(_UNMARKED, TruncatedSeries.zero(self.order)).exp()}
        dp = [(beta, s.copy_with([_whole(c * sum(beta)) for c in s.coeffs]))
              for beta, s in self.terms.items() if beta != _UNMARKED]
        A, B = self.caps
        for alpha in sorted(((a, b) for a in range(A + 1) for b in range(B + 1)), key=sum)[1:]:
            tot = None
            for (a, b), s in dp:
                rest = E.get((alpha[0] - a, alpha[1] - b))
                if rest is not None:
                    t = s * rest
                    tot = t if tot is None else tot + t
            if tot is not None and any(tot.coeffs):
                E[alpha] = tot.scalar_div(sum(alpha))
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
        """sum_{i>=1} a(x**i, u**i) / i, accumulated in place over ascending i."""
        if any(s[0] for s in self.terms.values()):
            raise DomainError("polya_exponent requires zero constant term")
        N = self.order
        acc = {}
        for i in range(1, N + 1):
            for e, s in self.terms.items():
                c = s.coeffs
                for e2, w in self._image(e, i):
                    out = acc.setdefault(e2, [0] * (N + 1))
                    for m in range(1, N // i + 1):
                        if c[m]:
                            out[m * i] += _quotient(w * c[m], i)
        return self.copy_with({e: TruncatedSeries(c, N) for e, c in acc.items()})

    def at_one(self):
        """Collapse every mark to 1 (eps = 0), giving a scalar TruncatedSeries."""
        zero = TruncatedSeries.zero(self.order)
        if self.basis == "u":
            return sum(self.terms.values(), zero)
        return self.terms.get(_UNMARKED, zero)

    def __getitem__(self, n):
        """The x**n coefficient as {mark exponent: nonzero value}."""
        return {e: s[n] for e, s in self.terms.items() if s[n]}
