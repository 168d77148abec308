"""Truncated formal power series over exact-rational and double-precision rings.

Everything in this package that manipulates generating functions goes through
the two classes here:

``TruncatedSeries``
    a(x) = sum_{n<=N} a_n x^n with scalar coefficients.  The exact ring keeps
    Python ints / Fractions (Fractions are auto-normalised, so coefficient-wise
    equality is canonical); the double ring keeps a numpy float64 vector and
    supports an internal geometric rescaling ``scale`` (stored[n] equals the
    true coefficient times scale**n) so that series whose coefficients grow
    like rho**-n stay inside float range at large truncation orders.

``MarkedSeries``
    the same structure with coefficients that are dense polynomials in one or
    two marking variables (``MarkPoly``).  Marked series are exact-only.  A
    marking variable either lives in the monomial basis ('u' mode, exponent
    records a count of marked nodes) or in the nilpotent basis ('eps' mode,
    the stored polynomial is f(1+eps) truncated at a fixed eps-degree, which
    computes all u-derivatives at u=1 of bounded order in one pass).

Multiplication is plain O(N^2) convolution; the orders used here (N <= ~1600)
do not justify anything fancier.  All values are immutable after construction
and all operations are pure, so instances are safe to share across workers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import AccuracyError, DomainError, UsageError

EXACT = "exact"
DOUBLE = "double"


def _comb_signed(i: int, r: int):
    """Generalised binomial C(i, r) for integer i of either sign (exact int)."""
    num = 1
    for t in range(r):
        num *= i - t
    return num // math.factorial(r)


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------

class TruncatedSeries:
    __slots__ = ("coeffs", "order", "ring", "scale")

    def __init__(self, coeffs, order=None, ring=EXACT, scale=1.0):
        if order is None:
            order = len(coeffs) - 1
        if ring == DOUBLE:
            arr = np.zeros(order + 1)
            arr[: min(len(coeffs), order + 1)] = [
                float(c) for c in coeffs[: order + 1]
            ]
            self.coeffs = arr
            self.coeffs.setflags(write=False)
        elif ring == EXACT:
            if scale != 1.0:
                raise UsageError("exact ring does not support rescaling")
            cs = list(coeffs[: order + 1])
            cs += [0] * (order + 1 - len(cs))
            self.coeffs = cs
        else:
            raise UsageError(f"unknown ring {ring!r}")
        self.order = order
        self.ring = ring
        self.scale = float(scale)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, order, ring=EXACT, scale=1.0):
        return cls([0], order, ring, scale)

    @classmethod
    def one(cls, order, ring=EXACT, scale=1.0):
        return cls([1], order, ring, scale)

    @classmethod
    def x(cls, order, ring=EXACT, scale=1.0):
        s = scale if ring == DOUBLE else 1
        return cls([0, s], order, ring, scale)

    def copy_with(self, coeffs):
        out = object.__new__(TruncatedSeries)
        if self.ring == DOUBLE:
            arr = np.asarray(coeffs, dtype=float)
            arr.setflags(write=False)
            out.coeffs = arr
        else:
            out.coeffs = list(coeffs)
        out.order = self.order
        out.ring = self.ring
        out.scale = self.scale
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
        if self.ring == DOUBLE and self.scale != other.scale:
            raise UsageError("scale mismatch between double-ring series")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.ring != other.ring or self.order != other.order:
            return False
        if self.ring == DOUBLE:
            return self.scale == other.scale and bool(
                np.array_equal(self.coeffs, other.coeffs)
            )
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in list(self.coeffs[:5]))
        return f"TruncatedSeries([{head}, ...], order={self.order}, ring={self.ring})"

    def __getitem__(self, n):
        return self.coeffs[n]

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        self._check_compatible(other)
        if self.ring == DOUBLE:
            return self.copy_with(self.coeffs + other.coeffs)
        return self.copy_with([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_compatible(other)
        if self.ring == DOUBLE:
            return self.copy_with(self.coeffs - other.coeffs)
        return self.copy_with([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            N = self.order
            if self.ring == DOUBLE:
                return self.copy_with(np.convolve(self.coeffs, other.coeffs)[: N + 1])
            a, b = self.coeffs, other.coeffs
            out = [0] * (N + 1)
            for i, ai in enumerate(a):
                if ai:
                    for j in range(N + 1 - i):
                        bj = b[j]
                        if bj:
                            out[i + j] += ai * bj
            return self.copy_with(out)
        # scalar
        if self.ring == DOUBLE:
            return self.copy_with(self.coeffs * float(other))
        return self.copy_with([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def scalar_div(self, q):
        if self.ring == DOUBLE:
            return self.copy_with(self.coeffs / float(q))
        return self.copy_with([Fraction(c, q) if c else 0 for c in self.coeffs])

    def shift(self, k=1):
        """Multiply by x**k (true coefficients; scale handled for double)."""
        N = self.order
        if self.ring == DOUBLE:
            out = np.zeros(N + 1)
            out[k:] = self.coeffs[: N + 1 - k] * self.scale**k
            return self.copy_with(out)
        return self.copy_with([0] * k + list(self.coeffs[: N + 1 - k]))

    def exp(self):
        """exp(a) for a with zero constant term, via e' = a'e coefficient solve."""
        if not self._is_zero_const():
            raise DomainError("exp requires zero constant term")
        N = self.order
        a = self.coeffs
        if self.ring == DOUBLE:
            e = np.zeros(N + 1)
            e[0] = 1.0
            na = np.arange(N + 1) * a
            for n in range(1, N + 1):
                e[n] = np.dot(na[1 : n + 1], e[n - 1 :: -1][: n]) / n
            return self.copy_with(e)
        e = [0] * (N + 1)
        e[0] = Fraction(1) if any(isinstance(c, Fraction) for c in a) else 1
        for n in range(1, N + 1):
            tot = 0
            for m in range(1, n + 1):
                am = a[m]
                if am:
                    tot += m * am * e[n - m]
            e[n] = Fraction(tot, n) if tot else 0
        return self.copy_with(e)

    def substitute_power(self, i):
        """a(x) -> a(x**i)."""
        if i < 1:
            raise UsageError("substitute_power requires i >= 1")
        if i == 1:
            return self
        N = self.order
        if self.ring == DOUBLE:
            out = np.zeros(N + 1)
            m = np.arange(N // i + 1)
            # stored[n] = a_n scale^n, so a(x^i) stored at mi needs scale^(mi-m)
            out[m * i] = self.coeffs[m] * self.scale ** (m * (i - 1))
            return self.copy_with(out)
        out = [0] * (N + 1)
        for m in range(N // i + 1):
            out[m * i] = self.coeffs[m]
        return self.copy_with(out)

    def power_sums(self, weights):
        """[sum_{i>=2} w(i) a(x**i) for w in weights]; w = None means w(i) = 1.

        One sweep over i fills every sum in place.  i ascends and stops at
        N / val(a), past which a(x**i) vanishes, or in the double ring at the
        first i whose rescaled terms all underflow.  Each term is the one
        ``substitute_power`` forms, so a sum is bit-identical to adding the
        substituted series one by one.
        """
        N, c = self.order, self.coeffs
        double = self.ring == DOUBLE
        sums = [np.zeros(N + 1) if double else [0] * (N + 1) for _ in weights]
        val = next((m for m, cm in enumerate(c) if cm), N + 1)  # valuation
        for i in range(2, N // max(val, 1) + 1):
            M = N // i
            if double:
                t = c[: M + 1] * self.scale ** (np.arange(M + 1) * (i - 1))
                if not t.any():
                    break
                for acc, w in zip(sums, weights):
                    acc[::i] += t if w is None else t * float(w(i))
            else:
                for acc, w in zip(sums, weights):
                    wi = 1 if w is None else w(i)
                    for m in range(val, M + 1):
                        if c[m]:
                            acc[m * i] += wi * c[m]
        return [self.copy_with(acc) for acc in sums]

    def polya_exponent(self):
        """sum_{i>=1} a(x**i)/i, defined when the constant term vanishes."""
        if not self._is_zero_const():
            raise DomainError("polya_exponent requires zero constant term")
        acc = self
        for i in range(2, self.order + 1):
            sub = self.substitute_power(i)
            if not any(sub.coeffs):
                break
            acc = acc + sub.scalar_div(i)
        return acc

    def _is_zero_const(self):
        c0 = self.coeffs[0]
        return c0 == 0

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, x0, tail_bound=None):
        """Evaluate at |x0| < 1; returns (value, error_estimate).

        The partial sum gets a geometric tail correction t_N * r/(1-r) built
        from the last retained terms (exact for a truly geometric tail).  The
        returned error is a conservative multiple of that correction plus
        float rounding.  When the last term has not decayed at all the series
        is useless at x0 and an AccuracyError is raised.
        """
        if abs(x0) >= 1:
            raise DomainError("evaluate requires |x0| < 1")
        if x0 == 0:
            return float(self.coeffs[0]), 0.0
        if self.ring == DOUBLE:
            z = x0 / self.scale
            powers = z ** np.arange(self.order + 1)
            total = float((self.coeffs * powers).sum())
        else:
            # per-term log-magnitude sum: immune to overflow of big integers
            total = 0.0
            tiny_run = 0
            for n, c in enumerate(self.coeffs):
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
        if self.ring == DOUBLE:
            return float(c) * (x0 / self.scale) ** n
        sign = 1.0 if c > 0 else -1.0
        if x0 < 0 and n % 2 == 1:
            sign = -sign
        mag = _log_abs(c) + n * math.log(abs(x0))
        return sign * math.exp(mag) if mag > -745.0 else 0.0

    # -- serialization -------------------------------------------------------
    def to_json(self):
        if self.ring != EXACT:
            raise UsageError("only exact series serialize to JSON")
        pairs = []
        for c in self.coeffs:
            f = Fraction(c)
            pairs.append([str(f.numerator), str(f.denominator)])
        return json.dumps({"order": self.order, "ring": self.ring, "coeffs": pairs})

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        coeffs = []
        for num, den in obj["coeffs"]:
            f = Fraction(int(num), int(den))
            coeffs.append(int(f) if f.denominator == 1 else f)
        return cls(coeffs, obj["order"], obj["ring"])

    def to_double(self, scale=1.0):
        """Exact -> double conversion dividing out the given geometric scale."""
        if self.ring == DOUBLE:
            return self
        out = np.zeros(self.order + 1)
        ls = math.log(scale)
        for n, c in enumerate(self.coeffs):
            if c:
                f = Fraction(c)
                out[n] = _signed_exp(f, n * ls)
        return TruncatedSeries(out, self.order, DOUBLE, scale)


def _log_abs(c):
    f = Fraction(c)
    return math.log(abs(f.numerator)) - (
        math.log(f.denominator) if f.denominator != 1 else 0.0
    )


def _signed_exp(f, extra_log):
    if f == 0:
        return 0.0
    mag = _log_abs(f) + extra_log
    if mag < -745.0:
        return 0.0
    return math.exp(mag) if f.numerator > 0 else -math.exp(mag)


# ---------------------------------------------------------------------------
# marking polynomials
# ---------------------------------------------------------------------------

class MarkSpec:
    """Shape shared by all coefficients of one MarkedSeries.

    caps[v] bounds the stored degree in variable v; modes[v] is 'u' for the
    monomial basis or 'eps' for the nilpotent basis around u=1.
    """

    __slots__ = ("caps", "modes")

    def __init__(self, caps, modes):
        caps = tuple(caps)
        modes = tuple(modes)
        if len(caps) != len(modes) or len(caps) not in (1, 2):
            raise UsageError("MarkSpec supports 1 or 2 marking variables")
        for m in modes:
            if m not in ("u", "eps"):
                raise UsageError(f"unknown mark mode {m!r}")
        self.caps = caps
        self.modes = modes

    @property
    def nvars(self):
        return len(self.caps)

    def __eq__(self, other):
        return (
            isinstance(other, MarkSpec)
            and self.caps == other.caps
            and self.modes == other.modes
        )

    def __repr__(self):
        return f"MarkSpec(caps={self.caps}, modes={self.modes})"


class MarkPoly:
    """Dense polynomial in one or two marking variables, exact coefficients."""

    __slots__ = ("spec", "c")

    def __init__(self, spec, c):
        self.spec = spec
        self.c = c  # tuple (1 var) or tuple of tuples (2 vars), len caps+1

    @classmethod
    def zero(cls, spec):
        if spec.nvars == 1:
            return cls(spec, (0,) * (spec.caps[0] + 1))
        row = (0,) * (spec.caps[1] + 1)
        return cls(spec, tuple(row for _ in range(spec.caps[0] + 1)))

    @classmethod
    def const(cls, spec, value):
        z = cls.zero(spec)
        return z._set00(value)

    @classmethod
    def var(cls, spec, v=0, power=1):
        """The monomial u_v**power expressed in variable v's configured basis."""
        out = cls.zero(spec)
        if spec.modes[v] == "u":
            mono = {power: 1}
        else:
            # u^power at u = 1+eps: sum_r C(power, r) eps^r
            mono = {r: _comb_signed(power, r) for r in range(spec.caps[v] + 1)}
        return out._from_monomials(v, mono)

    def _set00(self, value):
        if self.spec.nvars == 1:
            c = list(self.c)
            c[0] = c[0] + value
            return MarkPoly(self.spec, tuple(c))
        rows = [list(r) for r in self.c]
        rows[0][0] = rows[0][0] + value
        return MarkPoly(self.spec, tuple(tuple(r) for r in rows))

    def _from_monomials(self, v, mono):
        if self.spec.nvars == 1:
            c = [0] * (self.spec.caps[0] + 1)
            for j, val in mono.items():
                if 0 <= j <= self.spec.caps[0]:
                    c[j] = val
            return MarkPoly(self.spec, tuple(c))
        c = [[0] * (self.spec.caps[1] + 1) for _ in range(self.spec.caps[0] + 1)]
        for j, val in mono.items():
            if v == 0:
                if 0 <= j <= self.spec.caps[0]:
                    c[j][0] = val
            else:
                if 0 <= j <= self.spec.caps[1]:
                    c[0][j] = val
        return MarkPoly(self.spec, tuple(tuple(r) for r in c))

    def is_zero(self):
        if self.spec.nvars == 1:
            return not any(self.c)
        return not any(any(r) for r in self.c)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, MarkPoly):
            return self.spec == other.spec and all(
                a == b for a, b in zip(_flat(self.c), _flat(other.c))
            )
        return NotImplemented

    def __add__(self, other):
        if self.spec.nvars == 1:
            return MarkPoly(self.spec, tuple(a + b for a, b in zip(self.c, other.c)))
        return MarkPoly(
            self.spec,
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.c, other.c)
            ),
        )

    def __sub__(self, other):
        if self.spec.nvars == 1:
            return MarkPoly(self.spec, tuple(a - b for a, b in zip(self.c, other.c)))
        return MarkPoly(
            self.spec,
            tuple(
                tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.c, other.c)
            ),
        )

    def __mul__(self, other):
        if not isinstance(other, MarkPoly):
            if self.spec.nvars == 1:
                return MarkPoly(self.spec, tuple(a * other for a in self.c))
            return MarkPoly(
                self.spec, tuple(tuple(a * other for a in r) for r in self.c)
            )
        # iterate nonzero monomials only; these polynomials are usually sparse
        U = self.spec.caps[0]
        if self.spec.nvars == 1:
            out = [0] * (U + 1)
            a_mon = [(i, v) for i, v in enumerate(self.c) if v]
            b_mon = [(j, v) for j, v in enumerate(other.c) if v]
            for i, av in a_mon:
                for j, bv in b_mon:
                    if i + j <= U:
                        out[i + j] += av * bv
            return MarkPoly(self.spec, tuple(out))
        V = self.spec.caps[1]
        out = [[0] * (V + 1) for _ in range(U + 1)]
        a_mon = [(i, j, v) for i, row in enumerate(self.c) for j, v in enumerate(row) if v]
        b_mon = [(i, j, v) for i, row in enumerate(other.c) for j, v in enumerate(row) if v]
        for i1, j1, av in a_mon:
            for i2, j2, bv in b_mon:
                if i1 + i2 <= U and j1 + j2 <= V:
                    out[i1 + i2][j1 + j2] += av * bv
        return MarkPoly(self.spec, tuple(tuple(r) for r in out))

    __rmul__ = __mul__

    def scalar_div(self, q):
        if self.spec.nvars == 1:
            return MarkPoly(
                self.spec, tuple(Fraction(a, q) if a else 0 for a in self.c)
            )
        return MarkPoly(
            self.spec,
            tuple(tuple(Fraction(a, q) if a else 0 for a in r) for r in self.c),
        )

    def power_map(self, i):
        """Image of the polynomial under every mark u -> u**i."""
        spec = self.spec
        if spec.nvars == 1:
            return MarkPoly(spec, tuple(MarkPoly._power_map_1d(spec, self.c, 0, i)))
        # map rows (var 0), then columns (var 1)
        rows = [MarkPoly._power_map_1d(spec, r, 1, i) for r in self.c]
        # rows[k] is the var-1 image of row k; now distribute row index k through var 0
        out = MarkPoly.zero(spec)
        for k, row in enumerate(rows):
            if not any(row):
                continue
            shape0 = MarkPoly._index_image(spec, 0, k, i)
            add = [[0] * (spec.caps[1] + 1) for _ in range(spec.caps[0] + 1)]
            for pos0, w0 in shape0.items():
                for j, val in enumerate(row):
                    if val:
                        add[pos0][j] += w0 * val
            out = out + MarkPoly(spec, tuple(tuple(r) for r in add))
        return out

    @staticmethod
    def _power_map_1d(spec, c, v, i):
        """Image of the coefficient list c of variable v under u -> u**i."""
        out = [0] * (spec.caps[v] + 1)
        for k, val in enumerate(c):
            if val:
                for pos, w in MarkPoly._index_image(spec, v, k, i).items():
                    out[pos] += w * val
        return out

    @staticmethod
    def _index_image(spec, v, k, i):
        """Where basis element #k of variable v goes under u -> u**i."""
        cap = spec.caps[v]
        if spec.modes[v] == "u":
            return {k * i: 1} if k * i <= cap else {}
        # eps basis: element is eps^k = (u-1)^k; u -> u^i sends
        # eps -> (1+eps)^i - 1, so eps^k -> ((1+eps)^i - 1)^k truncated.
        base = [0] * (cap + 1)
        for r in range(1, cap + 1):
            base[r] = _comb_signed(i, r)
        # ((1+eps)^i - 1)^k by repeated truncated multiplication
        acc = [0] * (cap + 1)
        acc[0] = 1
        for _ in range(k):
            nxt = [0] * (cap + 1)
            for a, va in enumerate(acc):
                if va:
                    for b in range(cap - a + 1):
                        if base[b]:
                            nxt[a + b] += va * base[b]
            acc = nxt
        return {pos: w for pos, w in enumerate(acc) if w}

    # -- extraction ----------------------------------------------------------
    def at_one(self):
        """Value with every mark set to 1 (eps = 0)."""
        if self.spec.nvars == 1:
            if self.spec.modes[0] == "u":
                return sum(self.c)
            return self.c[0]
        tot = 0
        for i, row in enumerate(self.c):
            if self.spec.modes[0] == "eps" and i > 0:
                continue
            for j, val in enumerate(row):
                if self.spec.modes[1] == "eps" and j > 0:
                    continue
                tot += val
        return tot

    def coefficient(self, *idx):
        if self.spec.nvars == 1:
            return self.c[idx[0]]
        return self.c[idx[0]][idx[1]]

    def monomials(self):
        """Iterate (exponents, value) over nonzero entries."""
        if self.spec.nvars == 1:
            for j, v in enumerate(self.c):
                if v:
                    yield (j,), v
        else:
            for i, row in enumerate(self.c):
                for j, v in enumerate(row):
                    if v:
                        yield (i, j), v


def _flat(c):
    if c and isinstance(c[0], tuple):
        for r in c:
            yield from r
    else:
        yield from c


# ---------------------------------------------------------------------------
# marked series
# ---------------------------------------------------------------------------

class MarkedSeries:
    """Series in x with MarkPoly coefficients (exact ring only)."""

    __slots__ = ("coeffs", "order", "spec")

    def __init__(self, coeffs, order, spec):
        cs = list(coeffs[: order + 1])
        zero = MarkPoly.zero(spec)
        cs += [zero] * (order + 1 - len(cs))
        self.coeffs = cs
        self.order = order
        self.spec = spec

    @classmethod
    def zero(cls, order, spec):
        return cls([], order, spec)

    @classmethod
    def from_scalar_series(cls, s, spec):
        if s.ring != EXACT:
            raise UsageError("marked series are exact-only")
        return cls(
            [MarkPoly.const(spec, c) if c else MarkPoly.zero(spec) for c in s.coeffs],
            s.order,
            spec,
        )

    def copy_with(self, coeffs):
        out = object.__new__(MarkedSeries)
        out.coeffs = list(coeffs)
        out.order = self.order
        out.spec = self.spec
        return out

    def _check(self, other):
        if self.order != other.order or self.spec != other.spec:
            raise UsageError("marked series order/spec mismatch")

    def __add__(self, other):
        self._check(other)
        return self.copy_with([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return self.copy_with([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, MarkedSeries):
            self._check(other)
            N = self.order
            zero = MarkPoly.zero(self.spec)
            out = [zero] * (N + 1)
            for i, ai in enumerate(self.coeffs):
                if ai:
                    for j in range(N + 1 - i):
                        bj = other.coeffs[j]
                        if bj:
                            out[i + j] = out[i + j] + ai * bj
            return self.copy_with(out)
        return self.copy_with([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def shift(self, k=1):
        zero = MarkPoly.zero(self.spec)
        return self.copy_with([zero] * k + self.coeffs[: self.order + 1 - k])

    def exp(self):
        if self.coeffs[0]:
            raise DomainError("exp requires zero constant term")
        N = self.order
        zero = MarkPoly.zero(self.spec)
        e = [zero] * (N + 1)
        e[0] = MarkPoly.const(self.spec, 1)
        for n in range(1, N + 1):
            tot = zero
            for m in range(1, n + 1):
                am = self.coeffs[m]
                if am:
                    t = am * e[n - m]
                    tot = tot + (t * m)
            e[n] = tot.scalar_div(n) if tot else zero
        return self.copy_with(e)

    def substitute_power(self, i):
        """x -> x**i together with every mark u -> u**i."""
        if i < 1:
            raise UsageError("substitute_power requires i >= 1")
        if i == 1:
            return self
        N = self.order
        zero = MarkPoly.zero(self.spec)
        out = [zero] * (N + 1)
        for m in range(N // i + 1):
            c = self.coeffs[m]
            if c:
                out[m * i] = c.power_map(i)
        return self.copy_with(out)

    def polya_exponent(self):
        if self.coeffs[0]:
            raise DomainError("polya_exponent requires zero constant term")
        acc = self
        for i in range(2, self.order + 1):
            sub = self.substitute_power(i)
            if not any(sub.coeffs):
                break
            acc = acc + sub.scalar_div(i)
        return acc

    def scalar_div(self, q):
        return self.copy_with([c.scalar_div(q) if c else c for c in self.coeffs])

    def at_one(self):
        """Collapse every mark to 1, giving a scalar TruncatedSeries."""
        return TruncatedSeries([c.at_one() for c in self.coeffs], self.order, EXACT)

    def __getitem__(self, n):
        return self.coeffs[n]
