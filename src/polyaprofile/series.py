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
    these two array rings, through ``+``, ``*`` and ``power_sums``.

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

Multiplication is plain O(N^2) convolution at every order used here
(N <= ~1600).  In the exact ring it is a pure-Python loop over big integers,
so the exact derivative pass runs in a residue ring instead, where a product
is one ``np.convolve`` per prime (the multi-modular method: von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 5).  All values are immutable after
construction and all operations are pure, so instances are safe to share
across workers.
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


# ---------------------------------------------------------------------------
# rings: each converts exact coefficients into its format (``coefficients``)
# and does the arithmetic of TruncatedSeries on that format
# ---------------------------------------------------------------------------

class ExactRing:
    """Exact rationals, as a list of Python ints and Fractions; the one instance is EXACT.

    Its ``power_sums`` refuses: only the derivative pass calls it, and that
    runs in the array rings.
    """

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

    def mul(self, a, b, N):
        out = [0] * (N + 1)
        for i, ai in enumerate(a):
            if ai:
                for j in range(N + 1 - i):
                    bj = b[j]
                    if bj:
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
        # past the first i whose rescaled terms all underflow, every later one does
        sums = [np.zeros(N + 1) for _ in weights]
        val = next(iter(np.flatnonzero(c)), N + 1)
        for i in range(2, N // max(val, 1) + 1):
            M = N // i
            t = c[: M + 1] * self.scale ** (np.arange(M + 1) * (i - 1))
            if not t.any():
                break
            for acc, w in zip(sums, weights):
                acc[::i] += t if w is None else t * float(w(i))
        return sums

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

    __slots__ = ("primes", "p", "modulus", "basis", "bound")

    def __init__(self, primes, bound):
        self.primes = tuple(primes)
        self.modulus, self.basis = crt_basis(self.primes)
        if self.modulus <= bound:
            raise UsageError("the primes' product must exceed the bound of a residue ring")
        self.bound = bound
        self.p = np.array(self.primes, dtype=float)[:, None]
        self.p.setflags(write=False)

    def __repr__(self):
        return f"ResidueRing({len(self.primes)} primes, bound of {self.bound.bit_length()} bits)"

    def residues(self, ints):
        """The ints modulo each prime, as a float64 array [prime, len(ints)]."""
        ints = [operator.index(c) for c in ints]
        return np.array([[c % q for c in ints] for q in self.primes], dtype=float)

    def reduce(self, c):
        """The int c modulo each prime, as a float64 column."""
        if abs(c) < 1 << 53:  # exact as a float
            return np.remainder(float(operator.index(c)), self.p)
        return self.residues([c])

    def lift(self, columns):
        """The ints whose residues are the columns of a float64 array [prime, m]."""
        out = []
        for col in columns.astype(np.int64).T.tolist():
            v = sum(map(operator.mul, col, self.basis)) % self.modulus
            if v > self.bound:
                raise AccuracyError(
                    f"a residue lifts to a value above the bound {self.bound}: "
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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b, N):  # one convolution per prime, each sum below 2^53
        return np.array([np.convolve(x, y)[: N + 1] for x, y in zip(a, b)]) % self.p

    def scalar_mul(self, a, c):
        return a * self.reduce(c) % self.p

    def power_sums(self, c, N, weights):
        # the weights are ints reduced modulo each prime, so a sum adds fewer
        # than N products of two residues: below 2^53 like a convolution sum,
        # and reduced once at the end
        sums = [np.zeros(c.shape) for _ in weights]
        val = next(iter(np.flatnonzero(c.any(axis=0))), N + 1)
        for i in range(2, N // max(val, 1) + 1):
            t = c[:, : N // i + 1]
            for acc, w in zip(sums, weights):
                acc[:, ::i] += t if w is None else t * self.reduce(w(i))
        return [acc % self.p for acc in sums]

    def lift_series(self, series):
        """The exact-ring series, each coefficient lifted by the CRT."""
        return TruncatedSeries(self.lift(series.coeffs), series.order)


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    __slots__ = ("coeffs", "order", "ring")

    def __init__(self, coeffs, order=None, ring=EXACT):
        if order is None:
            order = len(coeffs) - 1
        self.coeffs = ring.coefficients(coeffs, order)
        self.order = order
        self.ring = ring

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
        out.coeffs = self.ring.freeze(coeffs)
        out.order = self.order
        out.ring = self.ring
        return out

    # -- bookkeeping ---------------------------------------------------------
    def _check_compatible(self, other):
        if not isinstance(other, TruncatedSeries):
            raise UsageError("expected a TruncatedSeries")
        if self.ring != other.ring or self.order != other.order:
            raise UsageError(
                f"ring/order mismatch: ({self.ring},{self.order}) vs "
                f"({other.ring},{other.order})"
            )

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
        """The exact-ring series of a residue-ring one, each coefficient lifted
        by the CRT; a series of another ring as it is."""
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
        N = self.order
        out = [0] * (N + 1)
        for m in range(N // i + 1):
            out[m * i] = self.coeffs[m]
        return self.copy_with(out)

    def power_sums(self, weights):
        """[sum_{i>=2} w(i) a(x**i) for w in weights]; w = None means w(i) = 1.

        One sweep over i fills every sum in place, in the double or a residue
        ring.  i ascends and stops at N / val(a), past which a(x**i)
        vanishes, or in the double ring at the first i whose rescaled terms
        all underflow.  Each sum adds the terms of one i at a time, so it is
        bit-identical to adding the substituted series one by one.
        """
        return [self.copy_with(acc)
                for acc in self.ring.power_sums(self.coeffs, self.order, weights)]

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, x0, tail_bound=None):
        """Evaluate at |x0| < 1; returns (value, error_estimate).

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
        # per-term log-magnitude sum: immune to overflow of big integers
        total = 0.0
        tiny_run = 0
        for n in range(self.order + 1):
            t = self._term_float(n, x0)
            total += t
            if total != 0.0 and abs(t) < 1e-18 * abs(total):
                tiny_run += 1
                if tiny_run > 4 and n > 8:
                    break
            else:
                tiny_run = 0
        t_last = abs(self._term_float(self.order, x0))
        correction, err = self._tail_model(x0, tail_bound)
        value = total + correction
        if tail_bound is None and t_last > 0.1 * max(abs(value), 1e-300):
            raise AccuracyError(
                f"series tail has not decayed at x0={x0}: last term {t_last:.3g}"
            )
        return value, err

    def _tail_model(self, x0, tail_bound):
        N = self.order
        tN = self._term_float(N, x0)
        tN1 = self._term_float(N - 1, x0) if N >= 1 else 0.0
        if tail_bound is not None:
            return 0.0, float(tail_bound)
        if tN == 0.0:
            return 0.0, 0.0
        r = abs(tN / tN1) if tN1 else abs(x0)
        if r >= 0.9999:
            # no usable decay; refuse to model the tail
            return 0.0, abs(tN) * N
        corr = tN * r / (1.0 - r)
        return corr, 2.0 * abs(corr) + 1e-15 * abs(tN) * N

    def _term_float(self, n, x0):
        c = self.coeffs[n]
        if c == 0 or x0 == 0:
            return float(c) if n == 0 else 0.0
        t = _signed_exp(c, n * math.log(abs(x0)))
        return -t if x0 < 0 and n % 2 == 1 else t

    def to_double(self, scale=1.0):
        """This series in the double ring of the given geometric scale."""
        self._exact_only("to_double")
        return TruncatedSeries(self.coeffs, self.order, DoubleRing(scale))


def _log_abs(c):
    """log|c| of a nonzero int or Fraction, free of overflow for big ones.

    An int has ``numerator`` and ``denominator`` too, so neither needs a
    Fraction built; exact-ring coefficients are never floats.
    """
    return math.log(abs(c.numerator)) - (
        math.log(c.denominator) if c.denominator != 1 else 0.0
    )


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
        raise AccuracyError(
            f"|value| = e^{mag:.1f} passes the double range; "
            "in the double ring, pass a geometric scale such as rho") from None


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
        self.order = order
        self.caps = tuple(caps)
        self.basis = basis

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
        return self.copy_with({
            (r, 0) if v == 0 else (0, r): one * w
            for r, w in weights.items() if r <= self.caps[v]
        })

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
        dp = [
            (beta, s.copy_with([_whole(c * sum(beta)) for c in s.coeffs]))
            for beta, s in self.terms.items() if beta != _UNMARKED
        ]
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
