import math
import random
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaprofile.enumeration import _build_primes, tree_series
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
    """sum_{i>=2} w(i) a(x**i) for an exact a, adding the substituted series
    one by one (a test oracle); w = None means w(i) = 1."""
    terms = (a.substitute_power(i) * (w(i) if w else 1) for i in range(2, a.order + 1))
    return sum(terms, TruncatedSeries.zero(a.order))


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
# substitute_power / power_sums
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
    weights = (None, lambda i: i, lambda i: i - 1)
    want = [power_sum(a, w) for w in weights]
    # residues: the exact sums modulo each prime
    ring = ResidueRing(_build_primes(12, 1 << 80), 1 << 80)
    assert S(cs, 12, ring=ring).power_sums(weights) == [S(s.coeffs, 12, ring=ring) for s in want]
    # double ring: bit-identical to adding the rescaled substituted terms one
    # i at a time (stored a_m scale^m moves to mi as a_m scale^(mi)), and
    # close to the exact sums
    scale = 0.5
    d = a.to_double(scale)
    for got, w, exact in zip(d.power_sums(weights), weights, want):
        terms = np.zeros(13)
        for i in range(2, 13):
            m = np.arange(12 // i + 1)
            terms[m * i] += d.coeffs[m] * scale ** (m * (i - 1)) * (w(i) if w else 1)
        assert got.coeffs.tobytes() == terms.tobytes()
        assert np.allclose(got.coeffs, exact.to_double(scale).coeffs, rtol=1e-13, atol=0)


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


def test_scaled_double_substitute_and_mul():
    scale = 0.25
    e = tree_series(40)
    d = e.to_double(scale)
    for s, ds in ((e * e, d * d), (power_sum(e, None), d.power_sums((None,))[0])):
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
    *((op, ring) for op in _EXACT_ONLY for ring in ("double", "residue")),
    ("power_sums", "exact"),
    ("add_across_scales", "double"),
])
def test_rings_refuse_what_they_do_not_define(op, ring):
    rings = {"exact": EXACT, "double": DoubleRing(0.5),
             "residue": ResidueRing(_build_primes(10, 1 << 40), 1 << 40)}
    s = S([0, 1, 2], 10, ring=rings[ring])
    if op in _EXACT_ONLY:
        with pytest.raises(UsageError, match="exact ring only"):
            _EXACT_ONLY[op](s)
    elif op == "power_sums":
        with pytest.raises(UsageError, match="double and residue rings only"):
            s.power_sums((None,))
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
        assert s.at_one() == tree_series(12)


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


# ---------------------------------------------------------------------------
# residue ring
# ---------------------------------------------------------------------------

def _canonical(series):
    """Every stored residue is an integer in [0, p) for its row's prime p."""
    c, p = series.coeffs, series.ring.p
    return bool(((c >= 0) & (c < p) & (c == np.floor(c))).all())


def test_residue_ring_arithmetic_matches_the_exact_ring():
    N, bound = 400, 1 << 1500
    ring = ResidueRing(_build_primes(N, bound), bound)
    rng = random.Random(5)
    a, b = ([rng.getrandbits(600) for _ in range(N + 1)] for _ in range(2))
    ea, eb = S(a, N), S(b, N)
    ra, rb = S(a, N, ring=ring), S(b, N, ring=ring)
    weights = (None, lambda i: i - 1, lambda i: (1 << 45) + i)
    pairs = [
        (ra + rb, ea + eb), ((ra + rb) - rb, ea), (ra * rb, ea * eb), (ra * 12345, ea * 12345),
        *zip(rb.power_sums(weights), (power_sum(eb, w) for w in weights)),
    ]
    for got, want in pairs:
        assert _canonical(got)
        assert got.lift() == want
    assert [rb[n] for n in (0, 7, N)] == [b[0], b[7], b[N]]


def test_residue_ring_refuses_what_it_cannot_do_exactly():
    ring = ResidueRing(_build_primes(400, 1 << 100), 1 << 100)
    with pytest.raises(UsageError, match="too large"):
        S([1], 10**6, ring=ring)  # (N + 1)(p - 1)^2 > 2^53
    with pytest.raises(UsageError, match="exceed the bound"):
        ResidueRing(ring.primes[:2], 1 << 100)
    with pytest.raises(UsageError, match="exact ring only"):
        S([0, 1], 10, ring=ring).exp()
    with pytest.raises(TypeError):
        S([Fraction(1, 2)], 10, ring=ring)
