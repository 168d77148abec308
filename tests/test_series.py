import math
import operator
import random
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaprofile import series
from polyaprofile.enumeration import tree_series
from polyaprofile.errors import AccuracyError, DomainError, UsageError
from polyaprofile.series import (
    EXACT,
    DoubleRing,
    MarkedSeries,
    ResidueRing,
    TruncatedSeries,
    _log_abs,
    _signed_exp,
)


def S(coeffs, order=None, **kw):
    return TruncatedSeries(coeffs, order, **kw)


def power_sum(a, w):
    """sum_{i>=2} w[i] a(x**i) for an exact a, adding the substituted series
    one by one (a test oracle)."""
    terms = (a.substitute_power(i) * w[i] for i in range(2, a.order + 1))
    return sum(terms, TruncatedSeries.zero(a.order))


def at_one(s):
    """Collapse every mark of a marked series to 1 (eps = 0), giving a scalar
    exact-ring series (a test oracle)."""
    zero = TruncatedSeries.zero(s.order, s.ring)
    if s.basis == "u":
        return sum(s.terms.values(), zero).lift()
    return s.terms.get((0, 0), zero).lift()


# ---------------------------------------------------------------------------
# add / mul
# ---------------------------------------------------------------------------

def test_binomial_square():
    a = S([1, 1], 2)
    assert (a * a).coeffs == [1, 2, 1]


def test_multiplicative_identity():
    a = S([3, Fraction(1, 2), 7], 2)
    one = TruncatedSeries.one(2)
    assert (a * one).coeffs == a.coeffs


def test_factorial_times_geometric_coefficient():
    # (sum n! x^n)(sum x^n): coefficient of x^3 is 6+2+1+1 = 10
    a = S([factorial(n) for n in range(4)], 3)
    b = S([1, 1, 1, 1], 3)
    assert (a * b)[3] == 10


def test_mismatch_errors():
    with pytest.raises(UsageError):
        S([1], 2) + S([1], 3)
    with pytest.raises(UsageError):
        S([1], 2) * TruncatedSeries([1], 2, ring=DoubleRing(1.0))


# ---------------------------------------------------------------------------
# exp
# ---------------------------------------------------------------------------

def test_exp_zero():
    assert TruncatedSeries.zero(4).exp().coeffs == [1, 0, 0, 0, 0]


def test_exp_x():
    e = S([0, 1], 3).exp()
    assert e.coeffs == [1, 1, Fraction(1, 2), Fraction(1, 6)]


def test_exp_x_plus_x2():
    e = S([0, 1, 1, 0], 3).exp()
    assert e[3] == Fraction(7, 6)


def test_exp_requires_zero_constant():
    with pytest.raises(DomainError):
        S([1, 1], 3).exp()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
)
def test_exp_is_ring_homomorphism(aa, bb):
    N = 6
    a = S([0] + aa + [0, 0], N)
    b = S([0] + bb + [0, 0], N)
    assert (a + b).exp() == a.exp() * b.exp()


# ---------------------------------------------------------------------------
# substitute_power / power_sum
# ---------------------------------------------------------------------------

def test_substitute_power_basic():
    a = S([0, 1, 1], 4)
    assert a.substitute_power(2).coeffs == [0, 0, 1, 0, 1]


def test_substitute_power_identity():
    a = S([2, 3, 5], 2)
    assert a.substitute_power(1) is a


def test_substitute_power_truncates():
    a = S([1, 1, 1, 1], 3)
    assert a.substitute_power(3).coeffs == [1, 0, 0, 1]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_substitute_power_composes(cs, i, j):
    a = S(cs + [0] * 10, 12)
    assert a.substitute_power(i).substitute_power(j) == a.substitute_power(i * j)


@pytest.mark.parametrize(
    "cs", [[0, 0, 3, -1, 0, 5, 2], [4, 1], [0] * 13, [0] * 7 + [1]]
)
def test_power_sums_match_adding_substituted_series(cs):
    a = S(cs, 12)
    weights = ([1] * 13, list(range(13)), list(range(-1, 12)))  # 1, i and i - 1
    want = [power_sum(a, w) for w in weights]
    # exact: the substituted series added, constant terms and all
    assert [a.power_sum(EXACT.weights(w)) for w in weights] == want
    # residues: the exact sums modulo each prime
    ring = ResidueRing(12, 1 << 80)
    r = S(cs, 12, ring=ring)
    assert [r.power_sum(ring.weights(w)) for w in weights] == [
        S(s.coeffs, 12, ring=ring) for s in want]
    # double ring: bit-identical to adding the rescaled substituted terms one
    # i at a time (stored a_m scale^m moves to mi as a_m scale^(mi)), and
    # close to the exact sums
    scale = 0.5
    d = a.to_double(scale)
    for w, exact in zip(weights, want):
        got = d.power_sum(d.ring.weights(w))
        terms = np.zeros(13)
        for i in range(2, 13):
            m = np.arange(12 // i + 1)
            terms[m * i] += d.coeffs[m] * scale ** (m * (i - 1)) * w[i]
        assert got.coeffs.tobytes() == terms.tobytes()
        assert np.allclose(got.coeffs, exact.to_double(scale).coeffs, rtol=1e-13, atol=0)


def loop_power_sums(ring, c, N, weights):
    """sum_{i>=2} w(i) a(x**i) for stored coefficients c, by a loop over i
    (a test oracle): each i adds its block of terms in place, and the double
    ring stops at the first i whose rescaled terms all underflow."""
    double = isinstance(ring, DoubleRing)
    sums = [np.zeros(c.shape) for _ in weights]
    val = next(iter(np.flatnonzero(c if double else c.any(axis=0))), N + 1)
    for i in range(2, N // max(val, 1) + 1):
        M = N // i
        if double:
            t = c[: M + 1] * ring.scale ** (np.arange(M + 1) * (i - 1))
            if not t.any():
                break
        else:
            t = c[:, : M + 1]
        for acc, w in zip(sums, weights):
            if w is None:
                acc[..., ::i] += t
            else:
                acc[..., ::i] += t * (float(w(i)) if double else ring.residues([w(i)]))
    return sums if double else [acc % ring.p for acc in sums]


RHO = 0.3383218568992077


def _with_valuation(values, N, where, draw, rng):
    """values with every coefficient below the drawn valuation, and about a
    fifth of those past it, set to zero."""
    val = {"0": 0, "1": 1, "k": draw(st.integers(0, N)),
           "above N/2": draw(st.integers(N // 2 + 1, N)), "zero": N + 1}[where]
    zero = rng.random(N + 1) < 0.2
    zero[: val + 1] = np.arange(min(val + 1, N + 1)) < val
    values[..., zero] = 0
    return values


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 12, 400, 1600]),
    st.sampled_from([0.5, RHO, 1.0]),
    st.sampled_from(["0", "1", "k", "above N/2", "zero"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_power_sums_are_the_loop_over_i_bit_for_bit(N, scale, where, seed, data):
    # the plan adds each entry's terms in ascending i like the loop, so every
    # double-ring sum has the loop's bits, underflowed blocks and all; residue
    # sums are exact, so the bytes agree in any order
    rng = np.random.default_rng(seed)

    def power_sums(ring, c, weights):
        return [ring.power_sum(c, ring.weights([w(i) if w else 1 for i in range(N + 1)]), 2, N)
                for w in weights]

    weights = (None, lambda i: i, lambda i: i - 1)
    # magnitudes from the subnormal range to 1e300
    c = rng.standard_normal(N + 1) * 10.0 ** rng.uniform(-320, 300, N + 1)
    c = _with_valuation(c, N, where, data.draw, rng)
    ring = DoubleRing(scale)
    for g, want in zip(power_sums(ring, c, weights), loop_power_sums(ring, c, N, weights)):
        assert g.tobytes() == want.tobytes()

    residue = ResidueRing(N, 1 << 80)
    c = rng.integers(0, residue.p, (len(residue.primes), N + 1)).astype(float)
    c = _with_valuation(c, N, where, data.draw, rng)
    weights += (lambda i: (1 << 45) + i, lambda i: (1 << 60) + i)  # the last past 2^53
    for g, want in zip(power_sums(residue, c, weights), loop_power_sums(residue, c, N, weights)):
        assert g.tobytes() == want.tobytes()


def test_substitution_plan_lists_every_term_in_ascending_i():
    from polyaprofile.series import _substitution_plan

    N = 12
    src, tgt, i, ends = _substitution_plan(N)
    assert _substitution_plan(N)[0] is src  # built once per order
    want = [(m, m * j, j) for j in range(1, N + 1) for m in range(N // j + 1)]
    assert list(zip(src.tolist(), tgt.tolist(), i.tolist())) == want
    assert ends.tolist() == [sum(N // j + 1 for j in range(1, top + 1)) for top in range(N + 1)]
    with pytest.raises(ValueError, match="read-only"):
        src[0] = 1
    # order 0 has no i in 1..N; order 1 has i = 1 alone, both of its terms
    assert [len(arr) for arr in _substitution_plan(0)] == [0, 0, 0, 1]
    assert [arr.tolist() for arr in _substitution_plan(1)] == [[0, 1], [0, 1], [1, 1], [0, 2]]


def polya_exponent(a):
    """sum_{i>=1} a(x^i)/i, term by term (a test oracle)."""
    acc = a
    for i in range(2, a.order + 1):
        acc = acc + a.substitute_power(i).scalar_div(i)
    return acc


def test_polya_exponent_of_x():
    p = polya_exponent(S([0, 1], 3))
    assert p.coeffs == [0, 1, Fraction(1, 2), Fraction(1, 3)]


def test_tree_function_fixed_point():
    # y(x) = x exp(sum_i y(x^i)/i), coefficient-wise up to order 20
    y = tree_series(20)
    again = polya_exponent(y).exp().shift(1)
    assert again == y


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_geometric():
    a = S([1] * 31, 30)
    v, err = a.evaluate(0.5)
    assert abs(v - 2.0) <= max(err, 1e-12)


def test_evaluate_tree_series_at_zero():
    assert tree_series(50).evaluate(0.0) == (0.0, 0.0)


def test_evaluate_near_radius_flags_slow_tail():
    # at x0 = rho the tail decays like n^{-1/2}; the estimate must not
    # pretend otherwise: value + err stays an honest window around 1
    y = tree_series(400)
    v, err = y.evaluate(0.3383219)
    assert v < 1.0
    assert abs(1.0 - v) < 0.08
    assert err > 0


def test_evaluate_outside_unit_disk_rejected():
    with pytest.raises(DomainError):
        tree_series(10).evaluate(1.5)


def test_evaluate_divergent_point_raises_accuracy():
    with pytest.raises(AccuracyError):
        tree_series(60).evaluate(0.9)
    # a term past the double range (3^1000 / 2^10 = e^1091.6)
    with pytest.raises(AccuracyError, match="double range"):
        S([0] * 10 + [3**1000], 10).evaluate(0.5)


def _log_abs_of_fraction(c):
    # log|c| as computed through Fraction(c) for every coefficient
    f = Fraction(c)
    return math.log(abs(f.numerator)) - (math.log(f.denominator) if f.denominator != 1 else 0.0)


def test_log_abs_matches_the_fraction_route():
    rng = random.Random(10)
    values = []
    for bits in range(1, 5001):
        c = rng.getrandbits(bits) | 1 << (bits - 1)
        values += [c, -c]
    for bits in (1, 40, 700, 1100, 3000):
        num = rng.getrandbits(bits) | 1
        den = rng.getrandbits(bits + 7) | 1 << (bits + 6)
        values += [Fraction(num, den), Fraction(-num, den), Fraction(den, num)]
    for c in values:
        log_abs = _log_abs_of_fraction(c)
        assert _log_abs(c).hex() == log_abs.hex()
        # to_double's conversion, once with c as it is stored and once as the
        # Fraction it used to build: in range, near underflow and below it
        for extra in (2.5 - log_abs, -744.0 - log_abs, -800.0 - log_abs):
            assert _signed_exp(c, extra).hex() == _signed_exp(Fraction(c), extra).hex()


def test_signed_exp_past_the_double_range_raises_accuracy_error():
    c = 3**700  # log c = 769.0
    top = math.log(sys.float_info.max) - math.log(c)
    assert _signed_exp(c, top - 1e-9) == pytest.approx(sys.float_info.max, rel=1e-8)
    assert _signed_exp(-c, top - 1e-9) == pytest.approx(-sys.float_info.max, rel=1e-8)
    for value in (c, -c, Fraction(c, 7)):
        with pytest.raises(AccuracyError, match="double range"):
            _signed_exp(value, 0.0)


# ---------------------------------------------------------------------------
# evaluate against the per-term route it replaced
# ---------------------------------------------------------------------------

def _term_float(self, n, x0):
    c = self.coeffs[n]
    if c == 0 or x0 == 0:
        return float(c) if n == 0 else 0.0
    t = _signed_exp(c, n * math.log(abs(x0)))
    return -t if x0 < 0 and n % 2 == 1 else t


def _tail_model(self, x0):
    N = self.order
    tN = _term_float(self, N, x0)
    tN1 = _term_float(self, N - 1, x0) if N >= 1 else 0.0
    if tN == 0.0:
        return 0.0, 0.0
    r = abs(tN / tN1) if tN1 else abs(x0)
    if r >= 0.9999:  # no usable decay; refuse to model the tail
        return 0.0, abs(tN) * N
    corr = tN * r / (1.0 - r)
    return corr, 2.0 * abs(corr) + 1e-15 * abs(tN) * N


def loop_evaluate(self, x0):
    """``TruncatedSeries.evaluate`` forming every term from its coefficient
    afresh through ``_signed_exp`` (a test oracle)."""
    self._exact_only("evaluate")
    if abs(x0) >= 1:
        raise DomainError("evaluate requires |x0| < 1")
    if x0 == 0:
        return float(self.coeffs[0]), 0.0
    # per-term log-magnitude sum: immune to overflow of big integers
    total = 0.0
    tiny_run = 0
    for n in range(self.order + 1):
        t = _term_float(self, n, x0)
        total += t
        if total != 0.0 and abs(t) < 1e-18 * abs(total):
            tiny_run += 1
            if tiny_run > 4 and n > 8:
                break
        else:
            tiny_run = 0
    t_last = abs(_term_float(self, self.order, x0))
    correction, err = _tail_model(self, x0)
    value = total + correction
    if t_last > 0.1 * max(abs(value), 1e-300):
        raise AccuracyError(f"series tail has not decayed at x0={x0}: last term {t_last:.3g}")
    return value, err


def _outcome(evaluate, s, x0):
    """(value, error) of evaluate(s, x0) as float.hex, or the type and message it raised."""
    try:
        value, err = evaluate(s, x0)
    except Exception as exc:
        return type(exc), str(exc)
    return value.hex(), err.hex()


def _assert_evaluate_is_the_loop(s, points):
    for x0 in points:
        assert _outcome(TruncatedSeries.evaluate, s, x0) == _outcome(loop_evaluate, s, x0), x0


_COEFF = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-(1 << 200), 1 << 200),
    st.fractions(-1000, 1000, max_denominator=10**6),
    st.sampled_from([3**1000, -(3**1000), Fraction(1, 3**1000)]),
)
# a coefficient or a run of zeros, joined and cut to orders 0..60
_COEFFS = st.lists(st.one_of(_COEFF.map(lambda c: [c]), st.integers(1, 12).map(lambda k: [0] * k)),
                   min_size=1, max_size=40).map(lambda blocks: sum(blocks, [])[:61])
_POINT = st.one_of(
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.95, 1.0, exclude_max=True),
    st.floats(-1.0, -0.95, exclude_min=True),
    st.sampled_from([1e-300, -1e-300, 5e-324, -5e-324, 1e-30, -1e-7]),
)


@settings(max_examples=300, deadline=None)
@given(coeffs=_COEFFS, points=st.lists(_POINT, min_size=1, max_size=8))
def test_evaluate_is_the_per_term_loop_bit_for_bit(coeffs, points):
    # one series, many points: every point after the first reads its table
    _assert_evaluate_is_the_loop(S(coeffs), points)


def test_evaluate_is_the_per_term_loop_past_the_double_range():
    # 3**1000 x**10 at 0.5 is e^1091.7: both routes raise the same message
    s = S([0] * 10 + [3**1000], 10)
    assert _outcome(TruncatedSeries.evaluate, s, 0.5)[1].startswith("|value| = e^1091.7")
    _assert_evaluate_is_the_loop(s, [0.5, -0.5, 1e-100])


@pytest.mark.parametrize("N", [400, 3200])
def test_evaluate_is_the_per_term_loop_on_the_constants_grids(N):
    # the powers of rho read by C and C_d, and the rungs of the ladder for b;
    # at N = 3200 the terms of y past rho leave the double range
    from polyaprofile.constants import APPROX_RADIUS, compute_rho

    rho = compute_rho(N)[0]
    y = tree_series(N)
    rungs = [rho * (1.0 - 2.0**-j) for j in range(3, 40)]
    _assert_evaluate_is_the_loop(y, [rho**i for i in range(2, 201)] + rungs)
    _assert_evaluate_is_the_loop(y, [APPROX_RADIUS, 0.34, 0.2, -0.3])


def test_series_made_from_an_evaluated_series_evaluate_as_their_own():
    # the table belongs to one series: sums, products, shifts and copies of
    # an evaluated series build their own
    a = S([0, 1, -2, Fraction(3, 7), 5, 0, -8, 13], 7)
    b = S([1, 0, 4, -1, 0, 2, 0, 9], 7)
    points = [0.3, -0.45, 0.05]
    _assert_evaluate_is_the_loop(a, points)
    _assert_evaluate_is_the_loop(b, points)
    made = [a + b, a - b, a * b, a * 3, a.shift(2), a.copy_with([c * 2 for c in a.coeffs]),
            a.copy_with(b.coeffs)]
    for s in made:
        _assert_evaluate_is_the_loop(s, points)


# ---------------------------------------------------------------------------
# double ring
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=6, max_size=6),
    st.lists(st.integers(-1000, 1000), min_size=6, max_size=6),
)
def test_double_matches_exact(aa, bb):
    N = 10
    ea = S(aa + [0] * 5, N)
    eb = S(bb + [0] * 5, N)
    da = TruncatedSeries(aa + [0] * 5, N, ring=DoubleRing(1.0))
    db = TruncatedSeries(bb + [0] * 5, N, ring=DoubleRing(1.0))
    prod_exact = (ea * eb).coeffs
    prod_double = (da * db).coeffs
    for pe, pd in zip(prod_exact, prod_double):
        assert abs(pd - pe) <= 1e-12 * max(1.0, abs(pe))


def test_unscaled_double_conversion_is_float_rounding():
    # at scale 1 every coefficient is float(c), so small ints are exact and a
    # product that cancels keeps its small value
    coeffs = [-193, 9, Fraction(1, 3), Fraction(-(3**700), 3**699), 2**60 + 1, 0]
    got = TruncatedSeries(coeffs, 5, ring=DoubleRing(1.0)).coeffs
    assert list(got) == [float(c) for c in coeffs]
    aa, bb = [0, 0, 0, -193, -99, -26], [0, 0, 0, 355, 400, -253]
    da = TruncatedSeries(aa + [0] * 5, 10, ring=DoubleRing(1.0))
    db = TruncatedSeries(bb + [0] * 5, 10, ring=DoubleRing(1.0))
    assert list((da * db).coeffs) == [float(c) for c in (S(aa + [0] * 5, 10) * S(bb + [0] * 5, 10)).coeffs]
    for value in (3**700, -(3**700), Fraction(3**700, 7)):
        with pytest.raises(AccuracyError, match="double range"):
            TruncatedSeries([0, value], 1, ring=DoubleRing(1.0))


def test_scaled_double_substitute_and_mul():
    scale = 0.25
    e = tree_series(40)
    d = e.to_double(scale)
    ones = [1] * 41
    for s, ds in ((e * e, d * d), (power_sum(e, ones), d.power_sum(d.ring.weights(ones)))):
        for n in (0, 5, 17, 40):
            want = float(s[n]) * scale**n
            assert abs(ds[n] - want) <= 1e-10 * max(abs(want), 1.0)


_EXACT_ONLY = {
    "exp": lambda s: s.exp(),
    "shift": lambda s: s.shift(1),
    "scalar_div": lambda s: s.scalar_div(3),
    "substitute_power": lambda s: s.substitute_power(2),
    "evaluate": lambda s: s.evaluate(0.1),
    "to_double": lambda s: s.to_double(0.5),
}


@pytest.mark.parametrize("op,ring", [
    *((op, "double") for op in _EXACT_ONLY),
    ("evaluate", "residue"),
    ("to_double", "residue"),
    ("add_across_scales", "double"),
    ("marked", "double"),
])
def test_rings_refuse_what_they_do_not_define(op, ring):
    rings = {"exact": EXACT, "double": DoubleRing(0.5),
             "residue": ResidueRing(10, 1 << 40)}
    s = S([0, 1, 2], 10, ring=rings[ring])
    if op in _EXACT_ONLY:
        with pytest.raises(UsageError, match="exact ring only"):
            _EXACT_ONLY[op](s)
    elif op == "marked":
        with pytest.raises(UsageError, match="exact or modulo primes"):
            MarkedSeries.lift(s, (1, 0), "u")
    else:
        # one scale is one ring, whichever object holds it; two scales are two
        assert (s + S([0, 1, 2], 10, ring=DoubleRing(0.5)))[2] == 2 * s[2]
        with pytest.raises(UsageError, match="mismatch"):
            s + S([0, 1, 2], 10, ring=DoubleRing(0.25))


# ---------------------------------------------------------------------------
# marked series
# ---------------------------------------------------------------------------

def test_marked_polya_exponent_example():
    # a = u x at order 2: polya gives u x + u^2 x^2 / 2
    a = MarkedSeries({(1, 0): S([0, 1], 2)}, 2, (2, 0), "u")
    p = a.polya_exponent()
    assert p[1] == {(1, 0): 1}
    assert p[2] == {(2, 0): Fraction(1, 2)}


def test_marked_collapse_at_one_matches_tree_series():
    from polyaprofile.profile import level_degree_series

    for d, k in ((1, 0), (2, 1), (3, 2)):
        s = level_degree_series(d, k, 12, mode="full")
        assert at_one(s) == tree_series(12)


def test_marked_u_degree_bounded_by_n():
    from polyaprofile.profile import level_degree_series

    s = level_degree_series(1, 1, 8, mode="full")
    for n in range(s.order + 1):
        for j, _ in s[n]:
            assert j <= n


def test_eps_mode_tracks_negative_powers():
    one = MarkedSeries.lift(TruncatedSeries.one(0), (3, 0), "eps")
    inv = one.mark(-1)
    # (1+eps)^{-1} = 1 - eps + eps^2 - eps^3
    assert inv[0] == {(0, 0): 1, (1, 0): -1, (2, 0): 1, (3, 0): -1}
    # u -> u^2 sends it to (1+eps)^{-2} = 1 - 2eps + 3eps^2 - 4eps^3
    assert inv.substitute_power(2)[0] == {(0, 0): 1, (1, 0): -2, (2, 0): 3, (3, 0): -4}


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 8), basis=st.sampled_from(["u", "eps"]), caps=st.sampled_from(
    [(1, 0), (3, 0), (1, 1), (2, 1)]), residue=st.booleans(), data=st.data())
def test_marked_exp_and_polya_exponent_are_their_definitions(N, basis, caps, residue, data):
    # exp(p) = sum_j p^j / j! and polya(p) = sum_i p(x^i, u^i) / i, formed by
    # products, substitutions and divisions, equal the Euler-operator and
    # plan-wide passes at every x**n up to the order, in either ring; the
    # terms of p start at drawn valuations, so products of valuations adding
    # up to exactly N occur
    ring = ResidueRing(N, 1 << 80, signed=True) if residue else EXACT
    terms = {}
    for a in range(caps[0] + 1):
        for b in range(caps[1] + 1):
            val = data.draw(st.integers(1, N + 1))
            cs = data.draw(st.lists(st.integers(-9, 9), min_size=N + 1 - val, max_size=N + 1 - val))
            terms[(a, b)] = S([0] * val + cs, N, ring=ring)
    p = MarkedSeries(terms, N, caps, basis)
    assert p.ring is ring
    term = total = p.one_like()
    for j in range(1, N + 1):
        term = (term * p).scalar_div(j)
        total = total + term
    assert p.exp().terms == total.terms
    polya = p
    for i in range(2, N + 1):
        polya = polya + p.substitute_power(i).scalar_div(i)
    assert p.polya_exponent().terms == polya.terms


# ---------------------------------------------------------------------------
# residue ring
# ---------------------------------------------------------------------------

def _canonical(series):
    """Every stored residue is an integer in [0, p) for its row's prime p."""
    c, p = series.coeffs, series.ring.p
    return bool(((c >= 0) & (c < p) & (c == np.floor(c))).all())


def test_residue_ring_arithmetic_matches_the_exact_ring():
    N, bound = 400, 1 << 1500
    ring = ResidueRing(N, bound)
    rng = random.Random(5)
    a, b = ([rng.getrandbits(600) for _ in range(N + 1)] for _ in range(2))
    ea, eb = S(a, N), S(b, N)
    ra, rb = S(a, N, ring=ring), S(b, N, ring=ring)
    weights = ([1] * (N + 1), list(range(-1, N)), [(1 << 45) + i for i in range(N + 1)])
    pairs = [
        (ra + rb, ea + eb), ((ra + rb) - rb, ea), (ra * rb, ea * eb), (ra * 12345, ea * 12345),
        *((rb.power_sum(ring.weights(w)), power_sum(eb, w)) for w in weights),
    ]
    for got, want in pairs:
        assert _canonical(got)
        assert got.lift() == want
    assert [rb[n] for n in (0, 7, N)] == [b[0], b[7], b[N]]


def _residue_pairs(ring, N, valuations, rng, top):
    """(a, val(a), b, val(b)) of residue arrays starting at the given
    valuations; with ``top`` every nonzero residue is p - 1 or p - 2."""
    shape = (len(ring.primes), N + 1)

    def residues(v):
        if top:
            c = ring.p - 1 - rng.integers(0, 2, shape)
        else:
            c = np.floor(rng.random(shape) * ring.p)
        c[:, :v] = 0
        if v <= N:
            c[:, v] = np.maximum(c[:, v], 1)
        return c

    return [(residues(va), va, residues(vb), vb) for va, vb in valuations]


def _exact_sum(ring, pairs, N):
    """sum a b over residue pairs by ``ExactRing.mul_sum``, reduced modulo each
    prime: each column of residues is lifted to the int in [0, M) that it is
    modulo every prime, M their product (a test oracle)."""
    def ints(c):
        return [sum(map(operator.mul, col, ring.basis)) % ring.modulus
                for col in c.astype(np.int64).T.tolist()]

    total = EXACT.mul_sum([(ints(a), va, ints(b), vb) for a, va, b, vb in pairs], N)
    return np.array([[c % p for c in total] for p in ring.primes], dtype=float)


@settings(max_examples=50, deadline=None)
@given(N=st.integers(1, 2 * series._PACKED_MAX_ORDER + 80), bits=st.integers(1, 60),
       top=st.booleans(), seed=st.integers(0, 2**32), data=st.data())
def test_sums_of_products_are_the_exact_sum_modulo_each_prime(N, bits, top, seed, data):
    # the residues start at drawn valuations (so a group's windows are cut at
    # the least sum of them, and a pair may lie past the order), m runs from
    # the empty list to past one group (room / (n + 1) pairs at the window
    # order n <= 160) and N lies on both sides of the crossover; with ``top``
    # the sums reach the bound
    ring = ResidueRing(N, 1 << bits)
    group = ring._room() // (min(N, series._PACKED_MAX_ORDER) + 1)
    m = data.draw(st.integers(0, min(group + 2, 56)), label="m")
    valuations = []
    for _ in range(m):
        va = data.draw(st.integers(0, N), label="val(a)")
        valuations.append((va, data.draw(st.integers(0, N + 1 - va), label="val(b)")))
    pairs = _residue_pairs(ring, N, valuations, np.random.default_rng(seed), top)
    assert ring.mul_sum(pairs, N).tobytes() == _exact_sum(ring, pairs, N).tobytes()


def test_sum_past_one_group_is_the_exact_sum():
    # more pairs than one group holds at the largest grouped window order,
    # every residue p - 1 or p - 2: the sum of the groups is the exact sum of
    # products modulo each prime
    N = series._PACKED_MAX_ORDER
    ring = ResidueRing(N, 1 << 30)
    m = ring._room() // (N + 1) + 3
    pairs = _residue_pairs(ring, N, [(0, 0)] * m, np.random.default_rng(3), top=True)
    assert ring.mul_sum(pairs, N).tobytes() == _exact_sum(ring, pairs, N).tobytes()


def test_mul_sum_packs_two_or_more_pairs_up_to_the_crossover(monkeypatch):
    # the groups follow the number of pairs within the order and the window
    # order N - low, low the least sum of valuations, and so does the kernel:
    # (size, low, kernel) per group, a lone pair past the crossover being a
    # short product and every other group one np.correlate per prime
    groups, kernels = [], []

    def counted(self, group, N, low, original=ResidueRing._group_product):
        out = original(self, group, N, low)
        groups.append((len(group), low, kernels.pop()))
        return out

    def kernel(name):
        original = getattr(series, name)
        return lambda *args: kernels.append(name) or original(*args)

    monkeypatch.setattr(ResidueRing, "_group_product", counted)
    for name in ("_short_product", "_kronecker_sum"):
        monkeypatch.setattr(series, name, kernel(name))
    edge = series._PACKED_MAX_ORDER
    ring = ResidueRing(edge + 1, 1 << 20)
    full = ring._room() // (edge + 1)
    rng = np.random.default_rng(1)
    short, grouped = "_short_product", "_kronecker_sum"
    cases = [
        (edge, [], []),
        (edge, [(0, 0)], [(1, 0, grouped)]),
        (edge + 1, [(0, 0)], [(1, 0, short)]),
        (edge + 1, [(0, 1)], [(1, 1, grouped)]),
        (edge, [(0, 0), (3, 1)], [(2, 0, grouped)]),
        (edge + 1, [(0, 0), (3, 1)], [(1, 0, short), (1, 4, grouped)]),
        (edge + 1, [(1, 0), (0, 2)], [(2, 1, grouped)]),
        (edge, [(0, 0), (edge, 1)], [(1, 0, grouped)]),  # the second lies past the order
        (edge, [(0, 0)] * (full + 1), [(full, 0, grouped), (1, 0, grouped)]),
    ]
    for N, valuations, want in cases:
        groups.clear()
        ring.mul_sum(_residue_pairs(ring, N, valuations, rng, top=False), N)
        assert groups == want and not kernels


def _short_product_orders(top=420):
    """Window orders at the crossover and at the edges of the short product's
    output blocks, up to ``top``: n + 1 a multiple of the block, one more or
    one less, and 161 + 48j, one more or one less."""
    block, edge = series._SHORT_BLOCK, series._PACKED_MAX_ORDER
    orders = {edge, edge + 1}
    for j in range(top // block + 1):
        for n in (block * j - 1, edge + 1 + block * j):
            orders.update((n - 1, n, n + 1))
    return sorted(n for n in orders if 1 <= n <= top)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.sampled_from(_short_product_orders()), st.integers(1, 420)),
       va=st.integers(0, 30), vb=st.integers(0, 30), declared=st.booleans(),
       bits=st.integers(1, 200), top=st.booleans(), seed=st.integers(0, 2**32))
def test_single_products_are_the_exact_product_modulo_each_prime(n, va, vb, declared, bits, top,
                                                                 seed):
    # one pair on both sides of the crossover and at the block edges: at
    # window order n when its valuations are passed (``declared``), at N when
    # they are passed as 0, as ``mul`` passes them; with ``top`` every residue
    # is p - 1 or p - 2, so the sums reach their bound
    N = n + va + vb
    ring = ResidueRing(N, 1 << bits)
    ((a, _, b, _),) = _residue_pairs(ring, N, [(va, vb)], np.random.default_rng(seed), top)
    pairs = [(a, va, b, vb) if declared else (a, 0, b, 0)]
    assert ring.mul_sum(pairs, N).tobytes() == _exact_sum(ring, pairs, N).tobytes()


def test_residue_add_and_sub_equal_the_float_remainder():
    # add and sub reduce by one conditional step of p; % is the oracle
    ring = ResidueRing(400, 1 << 1500)
    rng = np.random.default_rng(7)
    shape = (len(ring.primes), 401)
    a, b = (np.floor(rng.random(shape) * ring.p) for _ in range(2))
    # 0, 1 and p - 1 on either side, in every pairing: 1 + (p - 1) is p
    ends = np.hstack([np.zeros_like(ring.p), np.ones_like(ring.p), ring.p - 1])
    a[:, :9] = np.repeat(ends, 3, axis=1)
    b[:, :9] = np.tile(ends, 3)
    for got, want in ((ring.add(a, b), (a + b) % ring.p), (ring.sub(a, b), (a - b) % ring.p)):
        assert got.tobytes() == want.tobytes()


def test_residue_reduction_equals_the_float_remainder():
    # mul, scalar_mul and power_sum reduce integers below 2^53 through an
    # int64 %; the float64 % of the same array is the oracle
    ring = ResidueRing(400, 1 << 1500)
    rng = np.random.default_rng(11)
    x = np.floor(rng.random((len(ring.primes), 401)) * 2.0**53)
    k = np.floor(rng.random(ring.p.shape) * (2.0**53 // ring.p))
    x[:, :5] = np.hstack([np.zeros_like(ring.p), ring.p - 1, ring.p, k * ring.p,
                          np.full_like(ring.p, 2.0**53 - 1)])
    assert ring._reduce(x).tobytes() == (x % ring.p).tobytes()


_BIG = st.integers(-(10**40), 10**40)


@settings(max_examples=60, deadline=None)
@given(cs=st.lists(_BIG, min_size=1, max_size=40), q=st.integers(1, 10**5),
       k=st.integers(0, 45), i=st.integers(1, 45), seed=st.integers(0, 2**32))
def test_residue_operations_are_the_exact_ones_modulo_each_prime(cs, q, k, i, seed):
    # each residue operation, against the exact ring's result taken modulo
    # each prime; a Fraction's residue is its numerator over its denominator
    N = len(cs) - 1
    bound = 10**45 * math.factorial(N + 1)
    ring = ResidueRing(N, bound, signed=True)
    e, r = S(cs, N), S(cs, N, ring=ring)

    def modulo_primes(series):
        return np.array([[c.numerator * pow(c.denominator, -1, p) % p
                          for c in map(Fraction, series.coeffs)] for p in ring.primes],
                        dtype=float)

    def same(got, want):
        assert _canonical(got) and got.coeffs.tobytes() == modulo_primes(want).tobytes()

    same(r.scalar_div(q), e.scalar_div(q))
    same(r.shift(k), e.shift(k))
    same(r.substitute_power(i), e.substitute_power(i))
    a = [0, *(c % 201 - 100 for c in cs[1:])]  # small: exact exp grows fast
    same(S(a, N, ring=ring).exp(), S(a, N).exp())
    rng = random.Random(seed)
    fracs = [Fraction(c, rng.randrange(1, 3 * N + 4)) for c in cs]
    assert ring.weights(fracs).tobytes() == modulo_primes(S(fracs, N)).tobytes()
    # sums of products, from the valuations on, and substitution sums
    vals = [min(rng.randrange(N + 2), e.valuation()) for _ in range(4)]
    shifted = [e.shift(v) for v in vals]
    pairs = [(shifted[0], shifted[1]), (shifted[2], shifted[3]), (e, e)]
    want = sum((s * t for s, t in pairs), S([0], N))
    got = ring.mul_sum([(S(s.coeffs, N, ring=ring).coeffs, s.valuation(),
                         S(t.coeffs, N, ring=ring).coeffs, t.valuation()) for s, t in pairs], N)
    same(r.copy_with(got), want)
    # substitution sums of a series with a nonzero constant term, for one i,
    # i = 1 alone and ranges from 1 and from 2, in all three rings, against
    # the substituted series added one by one
    b = S([cs[0] % 201 - 100 or 1, *a[1:]], N)
    weights = [0] + [Fraction(rng.randrange(-9, 10), j) for j in range(1, N + 1)]
    double = DoubleRing(0.5)
    for lo, hi in ((i, i), (1, 1), (1, N), (2, max(N // 2, 2))):
        if hi > N or lo > N:
            continue
        want = sum((b.substitute_power(j) * weights[j] for j in range(lo, hi + 1)), S([0], N))
        assert S(EXACT.power_sum(b.coeffs, weights, lo, hi), N) == want
        same(r.copy_with(ring.power_sum(S(b.coeffs, N, ring=ring).coeffs, ring.weights(weights),
                                        lo, hi)), want)
        got = double.power_sum(b.to_double(0.5).coeffs, double.weights(weights), lo, hi)
        assert np.allclose(got, want.to_double(0.5).coeffs, rtol=1e-12, atol=1e-9)
    # the signed lift gives back every coefficient of magnitude up to the bound
    assert r.lift() == e
    assert S([bound, -bound], 1, ring=ring).lift() == S([bound, -bound], 1)


def test_residue_lifts_refuse_values_past_the_bound():
    bound = 10**30
    signed, unsigned = ResidueRing(10, bound, signed=True), ResidueRing(10, bound)
    for ring, value in ((signed, bound + 1), (signed, -bound - 1), (unsigned, bound + 1),
                        (unsigned, -1)):
        with pytest.raises(AccuracyError, match="above the bound"):
            S([0, value], 10, ring=ring)[1]
    assert S([0, -bound], 10, ring=signed)[1] == -bound


def _primes_by_trial_division(n, bound):
    """The largest primes p < 2^20 with p > n and (n + 1)(p - 1)^2 <= 2^53,
    largest first, down to the first whose running product exceeds bound."""
    out, product = [], 1
    for p in range(min((1 << 20) - 1, math.isqrt((1 << 53) // (n + 1)) + 1), n, -1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            out.append(p)
            product *= p
            if product > bound:
                return out
    raise AssertionError("no primes left")


@pytest.mark.parametrize("N, bound, signed", [
    (0, 1, False), (1, 0, True), (12, 1 << 80, False), (30, 10**40, True),
    (400, 1 << 1500, False), (400, 3 << 700, True), (9000, 1 << 200, False),
])
def test_residue_ring_takes_its_primes_from_its_order_and_bound(N, bound, signed):
    ring = ResidueRing(N, bound, signed)
    assert ring.primes == tuple(_primes_by_trial_division(N, bound << 20))
    assert min(ring.primes) > N  # every m <= N is invertible
    assert (N + 1) * (max(ring.primes) - 1) ** 2 <= 2**53  # float64 dot sums are exact
    assert math.prod(ring.primes) > bound << 20  # a spare 2^20 of margin
    assert math.prod(ring.primes) > (2 * bound + 1 if signed else bound)  # the CRT's range


@pytest.mark.parametrize("N", [30, 400])
def test_profile_rings_keep_their_bounds_and_primes(N):
    # the derivative pass's ring and the ring of each marked builder: each
    # bound as the profile module documents it, its primes those of the
    # smallest product past 2^20 times it
    from polyaprofile import profile
    from polyaprofile.profile import (
        TOTAL, level_degree_series, mixed_degree_series, two_level_series)
    y_N = tree_series(N)[N]
    eps = [y_N * math.comb(N, j) for j in (1, 2, 3)]
    rings = [(profile._residue_ring(N), N * N * y_N, False),
             (level_degree_series(1, 0, N).ring, y_N, False),
             (two_level_series(1, 0, 0, N).ring, y_N, False),
             (two_level_series(TOTAL, 0, 0, N, "tightness").ring, math.comb(N + 4, 4) * y_N, True)]
    for j in (1, 2, 3):
        rings += [(level_degree_series(1, 0, N, "moments", j).ring, eps[j - 1], False),
                  (two_level_series(1, 0, 0, N, "moments", j).ring,
                   eps[j - 1] * math.comb(N, j), False),
                  (mixed_degree_series(1, 2, 0, N, "moments", j).ring,
                   eps[j - 1] * math.comb(N, j), False)]
    for ring, bound, signed in rings:
        assert (ring.bound, ring.signed) == (bound, signed)
        assert ring.primes == tuple(_primes_by_trial_division(N, bound << 20))


def test_residue_inverses_and_division_refuse_a_multiple_of_a_prime():
    ring = ResidueRing(10, 1 << 60)
    inv = ring.inverses(50)
    assert all(inv[j, q] * q % p == 1 for j, p in enumerate(ring.primes) for q in range(1, 51))
    assert ring.inverses(10) is inv  # built once
    with pytest.raises(UsageError, match="smallest prime"):
        ring.inverses(min(ring.primes))
    with pytest.raises(UsageError, match="positive ints"):
        S([0, 1], 10, ring=ring).scalar_div(0)


def test_residue_ring_refuses_what_it_cannot_do_exactly():
    ring = ResidueRing(400, 1 << 100)
    with pytest.raises(UsageError, match="too large"):
        S([1], 10**6, ring=ring)  # (N + 1)(p - 1)^2 > 2^53
    with pytest.raises(UsageError, match="exact ring only"):
        S([0, 1], 10, ring=ring).evaluate(0.1)
    with pytest.raises(TypeError):
        S([Fraction(1, 2)], 10, ring=ring)
