import hashlib
from dataclasses import astuple
from fractions import Fraction
from math import prod, sqrt

import numpy as np
import pytest

from polyaprofile.enumeration import (
    degree_series,
    enumerate_trees_exhaustive,
    multiset_cap_series,
    tree_series,
)
from polyaprofile import profile
from polyaprofile.errors import AccuracyError, UsageError
from polyaprofile.profile import (
    TOTAL,
    MomentTable,
    exact_distribution,
    factorial_moments_from_marked,
    finite_covariance,
    gamma_series,
    gamma_series_progression,
    joint_distribution,
    level_degree_series,
    level_difference_moment,
    level_mean,
    mixed_degree_series,
    mixed_gamma_series,
    mixed_moment_from_marked,
    second_factorial_series,
    two_level_series,
)
from polyaprofile.sampling import PolyaTree, extract_profile
from polyaprofile.series import EXACT, DoubleRing, TruncatedSeries

RHO = 0.3383218568992077


def brute_profiles(n):
    return [
        extract_profile(PolyaTree.from_shape(s), d_max=n)
        for s in enumerate_trees_exhaustive(n)
    ]


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_distribution_examples():
    d = exact_distribution(3, 1, 1)
    assert d.probs == {0: Fraction(1, 2), 2: Fraction(1, 2)}
    d = exact_distribution(2, 1, 1)
    assert d.probs == {1: Fraction(1, 1)}


def test_distribution_sums_to_one_and_support():
    for n in (4, 6, 8):
        for k in (0, 1, 3):
            dist = exact_distribution(n, 2, k)
            assert sum(dist.probs.values()) == 1
            assert all(0 <= l <= n for l in dist.probs)


def test_level_zero_has_at_most_one_node():
    for n in (3, 5, 7):
        for d in (1, 2, 3):
            dist = exact_distribution(n, d, 0)
            assert set(dist.probs) <= {0, 1}


def test_root_degree_distribution_matches_enumeration():
    for n in range(2, 9):
        trees = enumerate_trees_exhaustive(n)
        y_n = len(trees)
        for d in (1, 2, 3):
            dist = exact_distribution(n, d, 0)
            brute = sum(1 for s in trees if len(s) == d - 1)
            assert dist.probs.get(1, Fraction(0)) == Fraction(brute, y_n)


def test_requires_order_at_least_n():
    series = level_degree_series(1, 1, 6, mode="full")
    with pytest.raises(UsageError):
        exact_distribution(8, 1, 1, series=series, N=6)


def test_mean_zero_beyond_height():
    # no level k >= n in a tree of size n
    for n in (3, 5):
        g = gamma_series(1, n, 8)
        assert g[n] == 0


# ---------------------------------------------------------------------------
# gamma route vs distribution route
# ---------------------------------------------------------------------------

def test_gamma_matches_distribution_means_small():
    y = tree_series(12)
    for d in (1, 2, 3):
        for k in (0, 1, 2, 4):
            g = gamma_series(d, k, 12)
            for n in range(1, 13):
                dist = exact_distribution(n, d, k, N=12)
                assert dist.mean() == Fraction(g[n], y[n])


def test_eps_route_matches_gamma_and_second_factorial():
    y = tree_series(10)
    for d in (1, 2):
        for k in (1, 3):
            moments = [
                factorial_moments_from_marked(n, d, k, order=2, N=10)
                for n in range(1, 11)
            ]
            g = gamma_series(d, k, 10)
            g2 = second_factorial_series(d, k, 10)
            for n in range(1, 11):
                assert moments[n - 1][1] == Fraction(g[n], y[n])
                assert moments[n - 1][2] == Fraction(g2[n], y[n])


def test_gamma_level_sum_is_degree_series():
    # sum_k gamma_k^{(d)} = D^{(d)} coefficient-wise
    N = 30
    for d in (1, 2, 3):
        D = degree_series(d, N).D
        total = [0] * (N + 1)
        for k, g in gamma_series_progression(d, N, N):
            for n in range(N + 1):
                total[n] += g[n]
        assert total == list(D.coeffs)


@pytest.mark.parametrize("x0,N,k_max", [(0.25, 80, 8), (0.3, 200, 6)])
def test_gamma_normalized_stabilizes_at_interior_point(x0, N, k_max):
    # gamma_k(x)/y(x)^{k+d} approaches a limit geometrically; N is chosen so
    # the truncation tail (amplified by y^{-k}) stays below the signal
    y = tree_series(N)
    yv, _ = y.evaluate(x0)
    d = 2
    vals = []
    for k, g in gamma_series_progression(d, k_max, N):
        gv, _ = g.evaluate(x0)
        vals.append(gv / yv ** (k + d))
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert diffs[-1] < diffs[3] < diffs[1]
    assert diffs[-1] / diffs[-3] < 0.5


def test_second_factorial_vanishes_beyond_height():
    # no level k >= n in a size-n tree: gamma and gamma2 coefficients vanish
    for n in (3, 5):
        g = gamma_series(1, n, 8)
        g2 = second_factorial_series(1, n, 8)
        assert g[n] == 0 and g2[n] == 0


# ---------------------------------------------------------------------------
# mixed moments and variance
# ---------------------------------------------------------------------------

def test_mixed_gamma_initial_is_zero():
    g = mixed_gamma_series(1, 2, 0, 8)
    assert all(c == 0 for c in g.coeffs)


def test_mixed_requires_distinct_degrees():
    with pytest.raises(UsageError):
        mixed_gamma_series(2, 2, 1, 8)


def test_mixed_moment_nonnegative():
    y = tree_series(12)
    for k in (1, 2):
        g = mixed_gamma_series(1, 2, k, 12)
        for n in range(1, 13):
            assert Fraction(g[n], y[n]) >= 0


def test_mixed_and_second_factorial_match_brute_force():
    for n in range(2, 9):
        profiles = brute_profiles(n)
        y_n = len(profiles)
        for k in (0, 1, 2):
            for d1, d2 in ((1, 2), (1, 3), (2, 3)):
                g = mixed_gamma_series(d1, d2, k, n)
                want = Fraction(
                    sum(p.degree_count(d1, k) * p.degree_count(d2, k) for p in profiles),
                    y_n,
                )
                assert Fraction(g[n], y_n) == want
            for d in (1, 2):
                g2 = second_factorial_series(d, k, n)
                want = Fraction(
                    sum(
                        p.degree_count(d, k) * (p.degree_count(d, k) - 1)
                        for p in profiles
                    ),
                    y_n,
                )
                assert Fraction(g2[n], y_n) == want


@pytest.mark.parametrize("call", [
    lambda: level_mean(1, 1600, 5, ring="double"),
    lambda: finite_covariance(1, 2, 1000, 5, ring="double"),
], ids=["level_mean", "finite_covariance"])
def test_unscaled_double_ring_past_the_float_range_raises_accuracy_error(call):
    # y_n passes the largest double at n = 665: with the default scale 1.0,
    # the double ring cannot hold it and tells the caller to pass a scale
    with pytest.raises(AccuracyError, match="double range"):
        call()


def test_variance_nonnegative():
    for n in (6, 10):
        for k in (1, 2, 3):
            tab = finite_covariance(1, 1, n, k)
            assert tab.var1 >= 0


def test_covariance_diagonal_equals_variance():
    tab = finite_covariance(2, 2, 8, 1)
    assert tab.covariance == tab.var1 == tab.var2
    assert tab.correlation == 1.0 or tab.correlation is None


def test_covariance_brute_force():
    for n in (6, 8):
        profiles = brute_profiles(n)
        y_n = len(profiles)
        for k in (1, 2):
            tab = finite_covariance(1, 2, n, k)
            e1 = Fraction(sum(p.degree_count(1, k) for p in profiles), y_n)
            e2 = Fraction(sum(p.degree_count(2, k) for p in profiles), y_n)
            e12 = Fraction(
                sum(p.degree_count(1, k) * p.degree_count(2, k) for p in profiles), y_n
            )
            assert tab.covariance == e12 - e1 * e2


def test_degenerate_correlation_reported_as_none():
    # at k=0 the degree-4 count in tiny trees is constant zero
    tab = finite_covariance(1, 4, 3, 0)
    assert tab.correlation is None


# ---------------------------------------------------------------------------
# two-level series
# ---------------------------------------------------------------------------

def test_two_level_marginals_collapse():
    N = 8
    d, k, h = 2, 2, 1
    s = two_level_series(d, k, h, N, mode="full")
    # u1 = 1 leaves the level-(k+h) marking: marginalize and compare
    for n in range(1, N + 1):
        joint = joint_distribution(n, d, k, h, series=s, N=N)
        m2 = {}
        m1 = {}
        for (l1, l2), p in joint.items():
            m2[l2] = m2.get(l2, Fraction(0)) + p
            m1[l1] = m1.get(l1, Fraction(0)) + p
        d2 = exact_distribution(n, d, k + h, N=N)
        d1 = exact_distribution(n, d, k, N=N)
        assert m2 == {l: p for l, p in d2.probs.items()}
        assert m1 == {l: p for l, p in d1.probs.items()}


def test_two_level_joint_matches_enumeration_n4():
    joint = joint_distribution(4, 1, 1, 1)
    assert joint == {
        (0, 0): Fraction(1, 4),
        (0, 2): Fraction(1, 4),
        (1, 1): Fraction(1, 4),
        (3, 0): Fraction(1, 4),
    }


def test_two_level_mixed_moment_route():
    for n in (5, 7):
        profiles = brute_profiles(n)
        y_n = len(profiles)
        for (k, h) in ((1, 1), (0, 2)):
            got = mixed_moment_from_marked(n, 1, k, h, N=n)
            want = Fraction(
                sum(p.degree_count(1, k) * p.degree_count(1, k + h) for p in profiles),
                y_n,
            )
            assert got == want


def test_fourth_difference_moment_matches_brute_force():
    for n in (5, 8):
        profiles = brute_profiles(n)
        y_n = len(profiles)
        for (r, h) in ((0, 1), (1, 1), (1, 2)):
            got = level_difference_moment(n, r, h, power=4)
            want = Fraction(
                sum((p.total(r) - p.total(r + h)) ** 4 for p in profiles), y_n
            )
            assert got == want
            got2 = level_difference_moment(n, r, h, power=2)
            want2 = Fraction(
                sum((p.total(r) - p.total(r + h)) ** 2 for p in profiles), y_n
            )
            assert got2 == want2


def test_mixed_degree_eps_route_matches_gamma_route():
    # two fully independent routes to E[X^{(d1)}(k) X^{(d2)}(k)]
    from polyaprofile.profile import mixed_degree_moment_from_marked

    N = 20
    y = tree_series(N)
    for d1, d2 in ((1, 2), (2, 3)):
        for k in (0, 1, 3):
            g = mixed_gamma_series(d1, d2, k, N)
            for n in (5, 12, 20):
                assert mixed_degree_moment_from_marked(n, d1, d2, k, N=N) == Fraction(
                    g[n], y[n]
                )


def test_mixed_degree_joint_law_matches_enumeration():
    from polyaprofile.profile import mixed_degree_series

    N = 7
    y = tree_series(N)
    s = mixed_degree_series(1, 2, 1, N, mode="full")
    for n in (4, 6, 7):
        profiles = brute_profiles(n)
        brute = {}
        for p in profiles:
            key = (p.degree_count(1, 1), p.degree_count(2, 1))
            brute[key] = brute.get(key, 0) + 1
        got = s[n]
        assert got == brute


def test_total_profile_distribution():
    # d=TOTAL marks every node on the level
    s = level_degree_series(TOTAL, 1, 6, mode="full")
    y = tree_series(6)
    for n in (3, 5, 6):
        profiles = brute_profiles(n)
        brute = {}
        for p in profiles:
            c = p.total(1)
            brute[c] = brute.get(c, 0) + 1
        got = {l: v for (l, _), v in s[n].items()}
        assert got == brute


def test_marked_series_coefficients_are_ints():
    # the level step keeps whole coefficients as ints, never as Fractions
    for s in (
        level_degree_series(1, 3, 20, mode="full"),
        level_degree_series(TOTAL, 2, 20, mode="full"),
        level_degree_series(2, 3, 20, mode="moments", order=3),
        two_level_series(TOTAL, 2, 1, 20, mode="tightness"),
        two_level_series(1, 1, 2, 20, mode="tightness"),
    ):
        for n in range(s.order + 1):
            assert all(type(v) is int for v in s[n].values())


@pytest.mark.parametrize("call", [
    lambda: level_degree_series(0, 1, 6),
    lambda: level_degree_series(1, -1, 6, mode="moments"),
    lambda: two_level_series(0, 1, 1, 6),
    lambda: two_level_series(1, 1, -1, 6, mode="tightness"),
    lambda: mixed_degree_series(1, 2, -1, 6, mode="moments"),
], ids=["d0", "k-1", "two-d0", "two-h-1", "mixed-k-1"])
def test_marked_route_rejects_bad_level_or_degree(call):
    with pytest.raises(UsageError, match="degrees d >= 1"):
        call()


@pytest.mark.parametrize("call", [
    lambda: finite_covariance(1, 2, 10, -1),
    lambda: gamma_series(1, -1, 10),
    lambda: level_mean(1, 10, -1),
    lambda: gamma_series(0, 2, 10),
], ids=["finite_covariance", "gamma_series", "level_mean", "degree-0"])
def test_derivative_route_rejects_bad_level_or_degree(call):
    with pytest.raises(UsageError, match="degrees d >= 1"):
        call()


def test_double_ring_moments_match_exact():
    n, k = 60, 5
    exact = finite_covariance(1, 2, n, k, ring="exact")
    dbl = finite_covariance(1, 2, n, k, ring="double", scale=RHO)
    for attr in ("mean1", "mean2", "mixed", "var1", "var2", "covariance"):
        e = float(getattr(exact, attr))
        g = getattr(dbl, attr)
        assert abs(g - e) <= 1e-10 * max(1.0, abs(e))


# ---------------------------------------------------------------------------
# one derivative-recurrence pass
# ---------------------------------------------------------------------------

def _series_products(monkeypatch, fn):
    """Number of series-by-series products while fn() runs."""
    count = 0
    mul = TruncatedSeries.__mul__

    def counting_mul(self, other):
        nonlocal count
        count += isinstance(other, TruncatedSeries)
        return mul(self, other)

    with monkeypatch.context() as m:
        m.setattr(TruncatedSeries, "__mul__", counting_mul)
        fn()
    return count


def test_unknown_ring_is_a_usage_error():
    with pytest.raises(UsageError):
        gamma_series(1, 2, 10, ring="float")
    with pytest.raises(UsageError):
        finite_covariance(1, 2, 10, 2, ring="float")


def test_covariance_pass_costs_eight_products_per_level(monkeypatch):
    # per level: gamma 1 + gamma2 2 per degree, mixed 2; set-up (k = 0) excluded
    n, k = 60, 5
    setup = _series_products(monkeypatch, lambda: finite_covariance(1, 2, n, 0))
    total = _series_products(monkeypatch, lambda: finite_covariance(1, 2, n, k))
    assert total - setup <= 8 * k
    # the mean alone steps only gamma: one product per level
    assert _series_products(monkeypatch, lambda: gamma_series(1, k, n)) == k


def _bits(v):
    return v.hex() if isinstance(v, float) else v


@pytest.mark.parametrize("ring,scale", [("exact", 1.0), ("double", RHO)])
@pytest.mark.parametrize("d1,d2", [(1, 2), (3, 2), (2, 2)])
def test_covariance_table_matches_separate_series(ring, scale, d1, d2):
    n, k = 60, 5
    y = tree_series(n) if ring == "exact" else tree_series(n).to_double(scale)

    def ratio(series):
        return series[n] / y[n] if ring == "double" else Fraction(series[n], y[n])

    m1, m2 = (ratio(gamma_series(d, k, n, ring, scale)) for d in (d1, d2))
    f1, f2 = (ratio(second_factorial_series(d, k, n, ring, scale)) for d in (d1, d2))
    if d1 == d2:
        mixed = f1 + m1
    else:
        mixed = ratio(mixed_gamma_series(d1, d2, k, n, ring, scale))
    var1, var2 = f1 + m1 - m1 * m1, f2 + m2 - m2 * m2
    cov = var1 if d1 == d2 else mixed - m1 * m2
    want = MomentTable(
        n=n, d1=d1, d2=d2, k=k, mean1=m1, mean2=m2,
        second_factorial1=f1, second_factorial2=f2, mixed=mixed,
        var1=var1, var2=var2, covariance=cov,
        correlation=float(cov) / sqrt(float(var1) * float(var2)),
    )
    got = finite_covariance(d1, d2, n, k, ring=ring, scale=scale)
    assert [_bits(v) for v in astuple(got)] == [_bits(v) for v in astuple(want)]


def _double_substitute_power(s, i):
    """s(x**i) for s in a double ring: a_m scale^m, stored at m, moves to mi,
    where it is stored as a_m scale^(mi)."""
    m = np.arange(s.order // i + 1)
    out = np.zeros(s.order + 1)
    out[m * i] = s.coeffs[m] * s.ring.scale ** (m * (i - 1))
    return s.copy_with(out)


def _double_pass(degrees, k_max, N):
    """Per level k = 0..k_max: (gamma_k, gamma2_k) per degree and mixed_k of
    the first two degrees in the double ring at scale RHO, by the recurrences
    written out with substitutions and series adds over every i <= N."""
    y = tree_series(N).to_double(RHO)
    zero = TruncatedSeries.zero(N, y.ring)

    def sub_sum(g, w):
        acc = zero
        for i in range(2, N + 1):
            acc = acc + _double_substitute_power(g, i) * w(i)
        return acc

    g = [gamma_series(d, 0, N, "double", RHO) for d in degrees]
    f = [zero] * len(degrees)
    mixed = zero
    levels = [(g, f, mixed)]
    for _ in range(k_max):
        S = [gj + sub_sum(gj, lambda i: 1) for gj in g]
        f = [y * (Sj * Sj + fj + sub_sum(fj, lambda i: i) + sub_sum(gj, lambda i: i - 1))
             for Sj, fj, gj in zip(S, f, g)]
        mixed = y * (S[0] * S[1] + mixed + sub_sum(mixed, lambda i: i))
        g = [y * Sj for Sj in S]
        levels.append((g, f, mixed))
    return levels


def test_double_ring_pass_matches_term_by_term_recurrence():
    # at N = 800 the rescaled terms of g(x^i) underflow to 0 for large i,
    # where the pass stops, and it must agree bit for bit
    N, k = 800, 4
    (g1, g2), (f1, _), mixed = _double_pass((1, 2), k, N)[k]
    got = (
        gamma_series(1, k, N, "double", RHO),
        gamma_series(2, k, N, "double", RHO),
        second_factorial_series(1, k, N, "double", RHO),
        mixed_gamma_series(1, 2, k, N, "double", RHO),
    )
    for series, want in zip(got, (g1, g2, f1, mixed)):
        assert series.coeffs.tobytes() == want.coeffs.tobytes()


# ---------------------------------------------------------------------------
# the exact pass in residues, against the big-integer recurrences
# ---------------------------------------------------------------------------

def _exact_pass(degrees, k_max, N):
    """Per level k = 0..k_max: (gamma_k, gamma2_k) per degree and mixed_k of
    the first two degrees, by the recurrences in Python ints (the oracle)."""
    y = list(tree_series(N).coeffs)

    def mul(a, b):
        out = [0] * (N + 1)
        for i, ai in enumerate(a):
            for j in range(N + 1 - i):
                out[i + j] += ai * b[j]
        return out

    def sub_sum(a, w):  # sum_{i>=2} w(i) a(x^i)
        out = [0] * (N + 1)
        for i in range(2, N + 1):
            for m in range(N // i + 1):
                out[m * i] += w(i) * a[m]
        return out

    def add(*series):
        return [sum(cs) for cs in zip(*series)]

    g = [y if d is TOTAL else [int(c) for c in multiset_cap_series(d, N).coeffs]
         for d in degrees]
    f = [[0] * (N + 1) for _ in degrees]
    mixed = [0] * (N + 1)
    levels = [(g, f, mixed)]
    for _ in range(k_max):
        S = [add(gj, sub_sum(gj, lambda i: 1)) for gj in g]
        f = [mul(y, add(mul(Sj, Sj), fj, sub_sum(fj, lambda i: i), sub_sum(gj, lambda i: i - 1)))
             for Sj, fj, gj in zip(S, f, g)]
        mixed = mul(y, add(mul(S[0], S[1]), mixed, sub_sum(mixed, lambda i: i)))
        g = [mul(y, Sj) for Sj in S]
        levels.append((g, f, mixed))
    return levels


@pytest.mark.parametrize("N", [1, 2, 13, 60, 120])
@pytest.mark.parametrize("d1,d2", [(1, 2), (3, TOTAL)])
def test_residue_pass_matches_the_big_integer_recurrences(N, d1, d2):
    levels = _exact_pass((d1, d2), 6, N)
    progression = [list(g.coeffs) for _, g in gamma_series_progression(d1, 6, N)]
    assert progression == [g[0] for g, _, _ in levels]
    for k, (g, f, mixed) in enumerate(levels):
        for j, d in enumerate((d1, d2)):
            assert list(gamma_series(d, k, N).coeffs) == g[j]
            assert list(second_factorial_series(d, k, N).coeffs) == f[j]
        lifted = mixed_gamma_series(d1, d2, k, N)
        assert lifted.ring is EXACT and list(lifted.coeffs) == mixed


def test_covariance_at_400_is_unchanged():
    # sha256 of the table's rationals as computed by the big-integer pass
    tab = finite_covariance(1, 2, 400, 20)
    fields = (tab.mean1, tab.mean2, tab.second_factorial1, tab.second_factorial2,
              tab.mixed, tab.var1, tab.var2, tab.covariance)
    digest = hashlib.sha256("\n".join(map(str, fields)).encode()).hexdigest()
    assert digest == "835e703badbd8f8496824e4f08666fbbc8fb1362adfbee53a9ef364b7cb991f3"
    assert tab.correlation.hex() == "0x1.c21693113feb9p-2"


def test_double_ring_bits_are_unchanged():
    # sha256 of the converted tree series and of the double-ring table at
    # (1, 2, 1600, 40), as the ring computed them before it owned its format
    for N, scale, digest in (
        (400, RHO, "9e324de438899438bce12e097653faccb3f5599c09b4c62154300309282ac188"),
        (1600, RHO, "3094b9fa99bc25d86942b138a12feb01f96b994405111f270ceb91044f0fe4d6"),
        (100, 1.0, "26098c4e7f4ab70f0b28ea825722a4ae1c4826a3bab08890f93d161e177a6e13"),
    ):
        coeffs = tree_series(N).to_double(scale).coeffs
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest
    tab = finite_covariance(1, 2, 1600, 40, ring="double", scale=RHO)
    fields = [v.hex() for v in astuple(tab) if isinstance(v, float)]
    assert len(fields) == 9  # the eight moments and the correlation
    digest = hashlib.sha256("\n".join(fields).encode()).hexdigest()
    assert digest == "1002ed335087515fcbc16eb7547bc2e725cbb56c6b727bc467c73c4573cae550"


@pytest.mark.parametrize("N", [1, 2, 400, 1600])
def test_residue_primes_lift_every_pass_coefficient(N):
    ring = profile._residue_ring(N)
    assert ring is profile._residue_ring(N)  # chosen once per order
    assert ring.bound == N * N * tree_series(N)[N]
    assert prod(ring.primes) > ring.bound << 20  # one spare prime's worth of margin
    assert len(set(ring.primes)) == len(ring.primes) and min(ring.primes) > N
    assert (N + 1) * (max(ring.primes) - 1) ** 2 <= 2**53  # convolution sums exact in float64


def test_residue_lifting_above_the_bound_raises():
    N = 13
    y = TruncatedSeries(tree_series(N).coeffs, N, profile._residue_ring(N))
    assert [y[n] for n in range(N + 1)] == list(tree_series(N).coeffs)
    forged = y.coeffs.copy()
    forged[0, N] = (forged[0, N] + 1) % y.ring.primes[0]
    with pytest.raises(AccuracyError, match="above the bound"):
        y.copy_with(forged)[N]
    with pytest.raises(AccuracyError, match="above the bound"):
        TruncatedSeries([0, y.ring.bound + 1], N, y.ring).lift()


def test_mean_of_an_empty_level_steps_no_series(monkeypatch):
    assert _series_products(monkeypatch, lambda: level_mean(1, 50, 60)) == 0
    assert level_mean(1, 50, 60) == 0 == level_mean(1, 50, 50)
    assert level_mean(1, 50, 49) > 0
    assert level_mean(2, 50, 60, ring="double", scale=RHO).hex() == "0x0.0p+0"
    with pytest.raises(UsageError, match="degrees d >= 1"):
        level_mean(0, 50, 60)


# ---------------------------------------------------------------------------
# levels past the tree height
# ---------------------------------------------------------------------------

def _series_bits(series):
    return series.coeffs.tobytes() if isinstance(series.ring, DoubleRing) else list(series.coeffs)


@pytest.mark.parametrize("ring,scale", [("exact", 1.0), ("double", RHO)])
@pytest.mark.parametrize("d1,d2", [(1, 2), (2, 2), (3, TOTAL)])
@pytest.mark.parametrize("n", [5, 12])
def test_levels_past_the_height_match_the_stepped_pass(monkeypatch, n, d1, d2, ring, scale):
    # a size-n tree has no level k >= n: the pass yields those levels and
    # finite_covariance returns their table without a series product, and
    # both must equal stepping through every level; level n - 1 holds only
    # the leaf that ends a path, which degree 1 and TOTAL count
    if ring == "exact":
        levels = [([TruncatedSeries(s, n) for s in g], [TruncatedSeries(s, n) for s in f],
                   TruncatedSeries(mixed, n))
                  for g, f, mixed in _exact_pass((d1, d2), n + 3, n)]
        y = tree_series(n)
    else:
        levels = _double_pass((d1, d2), n + 3, n)
        y = tree_series(n).to_double(scale)

    def ratio(series):
        return series[n] / y[n] if ring == "double" else Fraction(series[n], y[n])

    for k in range(n - 1, n + 4):
        g, f, mixed = levels[k]
        for j, d in enumerate((d1, d2)):
            assert _series_bits(gamma_series(d, k, n, ring, scale)) == _series_bits(g[j])
            got = second_factorial_series(d, k, n, ring, scale)
            assert _series_bits(got) == _series_bits(f[j])
        m1, m2, f1, f2 = (ratio(s) for s in (*g, *f))
        var1, var2 = f1 + m1 - m1 * m1, f2 + m2 - m2 * m2
        if d1 == d2:
            mix, cov = f1 + m1, var1
        else:
            got = mixed_gamma_series(d1, d2, k, n, ring, scale)
            assert _series_bits(got) == _series_bits(mixed)
            mix = ratio(mixed)
            cov = mix - m1 * m2
        corr = float(cov) / sqrt(float(var1) * float(var2)) if var1 > 0 and var2 > 0 else None
        assert corr is None or k < n
        want = MomentTable(
            n=n, d1=d1, d2=d2, k=k, mean1=m1, mean2=m2,
            second_factorial1=f1, second_factorial2=f2, mixed=mix,
            var1=var1, var2=var2, covariance=cov, correlation=corr,
        )
        got = finite_covariance(d1, d2, n, k, ring=ring, scale=scale)
        assert [(_bits(v), isinstance(v, Fraction)) for v in astuple(got)] == [
            (_bits(v), isinstance(v, Fraction)) for v in astuple(want)]
    table = lambda: finite_covariance(d1, d2, n, n + 3, ring=ring, scale=scale)
    assert _series_products(monkeypatch, table) == 0
    # the pass itself steps only the levels below the height
    every_level = lambda: second_factorial_series(d1, n + 3, n, ring, scale)
    assert _series_products(monkeypatch, every_level) == _series_products(
        monkeypatch, lambda: second_factorial_series(d1, n - 1, n, ring, scale))
