import hashlib
import time
from dataclasses import astuple
from types import SimpleNamespace
from fractions import Fraction
from math import inf, nan, prod, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyaprofile.enumeration import (
    degree_series,
    enumerate_trees_exhaustive,
    multiset_cap_series,
    tree_series,
)
from polyaprofile import limits, profile, series
from polyaprofile.acceptance import _brute_profiles as brute_profiles
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
    level_of,
    mixed_degree_moment_from_marked,
    mixed_degree_series,
    mixed_gamma_series,
    mixed_moment_from_marked,
    scaled_level_mean,
    second_factorial_series,
    two_level_series,
)
from polyaprofile.series import (
    EXACT, DoubleRing, PointSeries, ResidueRing, TruncatedSeries, root_primes)
from u_basis import generic_levels, u_basis_route

RHO = 0.3383218568992077


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
        exact_distribution(8, 1, 1, series=series)


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
            series = level_degree_series(d, k, 12)
            for n in range(1, 13):
                dist = exact_distribution(n, d, k, series=series)
                assert dist.mean() == Fraction(g[n], y[n])


def test_eps_route_matches_gamma_and_second_factorial():
    y = tree_series(10)
    for d in (1, 2):
        for k in (1, 3):
            moments = [factorial_moments_from_marked(n, d, k, order=2) for n in range(1, 11)]
            g = gamma_series(d, k, 10)
            g2 = second_factorial_series(d, k, 10)
            for n in range(1, 11):
                assert moments[n - 1][1] == Fraction(g[n], y[n])
                assert moments[n - 1][2] == Fraction(g2[n], y[n])


def test_gamma_level_sum_is_degree_series():
    # sum_k gamma_k^{(d)} = D^{(d)} coefficient-wise
    N = 30
    for d in (1, 2, 3):
        D = degree_series(d, N)
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
        joint = joint_distribution(n, d, k, h, series=s)
        m2 = {}
        m1 = {}
        for (l1, l2), p in joint.items():
            m2[l2] = m2.get(l2, Fraction(0)) + p
            m1[l1] = m1.get(l1, Fraction(0)) + p
        d2 = exact_distribution(n, d, k + h, series=level_degree_series(d, k + h, N))
        d1 = exact_distribution(n, d, k, series=level_degree_series(d, k, N))
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
            got = mixed_moment_from_marked(n, 1, k, h)
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


def _repr_sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_tightness_moment_at_100_is_pinned():
    # E(L(10) - L(20))^4 at n = 100; over h^2 n it is the tightness ratio
    got = level_difference_moment(100, 10, 10)
    assert type(got) is Fraction
    assert got == Fraction(310123145476308577114703462541171354339946778949,
                           51384328351659326880337136395054298255277970)
    assert round(float(got / (10**2 * 100)), 5) == 0.60354


def test_tightness_moment_at_400_is_pinned():
    # E(L(20) - L(40))^4 at n = 400, by the sha256 of its repr
    got = level_difference_moment(400, 20, 20)
    assert _repr_sha256(got) == "868d1a060371c7d76f6b9e789c8d279b0f85295a6b82eb0b12996937e916894f"
    assert round(float(got / (20**2 * 400)), 4) == 0.5562


def test_small_tightness_moment_is_pinned():
    # E(L(2) - L(4))^4 at n = 10, read through the signed marking
    assert level_difference_moment(10, 2, 2) == Fraction(79663, 719)


def test_small_mixed_degree_moment_is_pinned():
    # E[X^{(1)}(2) X^{(2)}(2)] at n = 9, through the two-mark eps basis
    assert mixed_degree_moment_from_marked(9, 1, 2, 2) == Fraction(95, 143)


def test_total_joint_law_at_30_is_pinned():
    # P(L(3) = l1, L(5) = l2) at n = 30, by the sha256 of its sorted items
    probs = joint_distribution(30, None, 3, 2)
    assert _repr_sha256(sorted(probs.items())) == (
        "48ef870df771f58ea476111477a399d26ea931b1c5e674f4a4116bde429614af")


def test_distribution_at_200_is_pinned():
    # P(L^{(1)}(14) = l) at n = 200, by the sha256 of its repr
    got = exact_distribution(200, 1, 14)
    assert _repr_sha256(got) == "56f38fa16b3851d1d486dc1a8ea5ea9eb74b3e0dc8a3c3c2a1c3c09a99a076f8"


def test_total_joint_law_at_60_is_pinned():
    # P(L(3) = l1, L(5) = l2) at n = 60, by the sha256 of its sorted items
    probs = joint_distribution(60, None, 3, 2)
    assert _repr_sha256(sorted(probs.items())) == (
        "6ceed5c15143bffd4b952f8cd221955ba560d49a9a79d0c71db83dc8bb21499c")


def test_mixed_degree_eps_route_matches_gamma_route():
    # two fully independent routes to E[X^{(d1)}(k) X^{(d2)}(k)]
    from polyaprofile.profile import mixed_degree_moment_from_marked

    N = 20
    y = tree_series(N)
    for d1, d2 in ((1, 2), (2, 3)):
        for k in (0, 1, 3):
            g = mixed_gamma_series(d1, d2, k, N)
            for n in (5, 12, 20):
                assert mixed_degree_moment_from_marked(n, d1, d2, k) == Fraction(
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


def _over_exact(fn):
    """fn() with every marked series built over EXACT: the big-integer route."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(profile, "_marked_ring", lambda *args: EXACT)
        return fn()


_DEGREES = st.sampled_from([1, 2, 3, 4, TOTAL])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), extra=st.integers(0, 3), d=_DEGREES, d2=_DEGREES,
       k=st.integers(0, 5), h=st.integers(0, 3), order=st.integers(1, 3))
def test_residue_marked_route_is_the_big_integer_route(n, extra, d, d2, k, h, order):
    # the eps-basis series over a residue ring, lifted at every x**m, and the
    # moments read from them equal the same code over EXACT; the full-mode
    # series, read at roots of unity, give at every x**m the law that the
    # u basis gives over EXACT (``u_basis``), and so do the laws read from
    # them; the series are of order N >= n and the laws are read at n
    N = n + extra
    moments = [
        lambda: level_degree_series(d, k, N, "moments", order),
        lambda: two_level_series(d, k, h, N, "moments", order),
        lambda: two_level_series(d, k, h, N, "tightness"),
    ]
    laws = [
        lambda: level_degree_series(d, k, N, "full"),
        lambda: two_level_series(d, k, h, N, "full"),
    ]
    if TOTAL not in (d, d2) and d != d2:
        moments.append(lambda: mixed_degree_series(d, d2, k, N, "moments", order))
        laws.append(lambda: mixed_degree_series(d, d2, k, N, "full"))
    for build in moments:
        got = build()
        assert isinstance(got.ring, ResidueRing)
        assert _coefficients(got) == _over_exact(lambda: _coefficients(build()))
    for build in laws:
        got = build()
        assert isinstance(got, PointSeries)
        assert _coefficients(got) == _over_u_basis(lambda: _coefficients(build()), exact=True)
    for read in (lambda: exact_distribution(n, d, k, series=level_degree_series(d, k, N)),
                 lambda: joint_distribution(n, d, k, h, series=two_level_series(d, k, h, N))):
        assert read() == _over_u_basis(read, exact=True)
    reads = [
        lambda: factorial_moments_from_marked(n, d, k, order),
        lambda: mixed_moment_from_marked(n, d, k, h),
        lambda: [level_difference_moment(n, k, h, power) for power in (1, 2, 3, 4)],
    ]
    if TOTAL not in (d, d2) and d != d2:
        reads.append(lambda: mixed_degree_moment_from_marked(n, d, d2, k))
    for read in reads:
        assert read() == _over_exact(read)


def _over_u_basis(fn, exact=False):
    """fn() with every full-mode series built in the u basis (``u_basis``)."""
    with u_basis_route(exact):
        return fn()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["one", "two", "mixed"]), d=_DEGREES, d2=st.integers(1, 4),
       N=st.integers(1, 30), k=st.integers(0, 5), h=st.integers(0, 3))
@example(kind="one", d=TOTAL, d2=1, N=30, k=5, h=0)
@example(kind="two", d=3, d2=1, N=30, k=3, h=2)
@example(kind="two", d=4, d2=1, N=30, k=2, h=0)
@example(kind="mixed", d=2, d2=4, N=30, k=4, h=0)
def test_laws_at_roots_of_unity_are_the_u_basis_laws(kind, d, d2, N, k, h):
    # every [x^m] of the one-level, two-level and mixed-degree series of the
    # full mode, m <= N, read by the inverse DFT, is the law the u basis steps
    # to (over a residue ring, the former route): one mark and two, degrees
    # 1 to 4 and the total profile, h = 0 (both marks on one level) and h > 0
    if kind == "mixed" and d in (TOTAL, d2):
        d = d2 % 4 + 1
    build = {
        "one": lambda: level_degree_series(d, k, N),
        "two": lambda: two_level_series(d, k, h, N),
        "mixed": lambda: mixed_degree_series(d, d2, k, N),
    }[kind]
    got = build()
    assert isinstance(got, PointSeries) and got.ring.M > N
    assert _coefficients(got) == _over_u_basis(lambda: _coefficients(build()))


def test_point_constants_hold_one_x_column():
    # mark() and one_like() are constant in x and hold one x column, not
    # N + 1 (a whole x axis per point cost 233 MB at joint_distribution(400,
    # 1, 0, 0)); shift widens it, so the degree-1 cap series x Z_0 = x is x
    # at every point, and sums add a constant to x^0 alone
    N = 12
    ring = profile._law_ring(N)
    y = PointSeries.lift(tree_series(N), ring)
    P, M = len(ring.residue.primes), ring.M
    assert y.one_like().values.shape == (P, 1, 1, 1)
    assert y.mark().values.shape == (P, M, 1, 1)
    assert y.mark(v=1).values.shape == (P, 1, M, 1)
    x = PointSeries.lift(TruncatedSeries([0, 1] + [0] * (N - 1), N, EXACT), ring)
    cap = multiset_cap_series(1, N, base=y)
    assert cap.values.shape == x.values.shape
    assert np.array_equal(cap.values, x.values)
    one = PointSeries.lift(TruncatedSeries.one(N, EXACT), ring)
    assert np.array_equal((y + y.one_like()).values, (y + one).values)
    assert np.array_equal((y.one_like() - y).values, (one - y).values)
    # exp and the Polya exponent take a constant to a constant
    zero = y.mark() - y.mark()
    assert zero.polya_exponent().values.shape == (P, M, 1, 1)
    assert np.array_equal(zero.exp().values, np.ones((P, M, 1, 1)))


def test_a_corrupted_residue_lifts_out_of_range():
    # one residue of one point off by one moves every count of that prime
    # (the inverse DFT mixes the points), and the CRT lifts the counts past
    # the bound y_N: AccuracyError, not a wrong law
    s = level_degree_series(1, 3, 14)
    law = s[14]
    values = s.values.copy()
    values[0, 5, 0, 14] = (values[0, 5, 0, 14] + 1) % s.ring.residue.primes[0]
    with pytest.raises(AccuracyError, match="above the bound"):
        s.copy_with(values)[14]
    assert s[14] == law


def test_laws_past_the_prime_range_are_refused():
    # the primes p = 1 (mod M) below 2^20 thin out as M grows: a large M
    # runs out of them, and a law whose M = N + 1 does is a UsageError
    # (exit 2) before anything is built; N = 990 is the first such order
    with pytest.raises(UsageError, match="do not pass a bound"):
        root_primes(6000, 1 << 9000)
    assert len(root_primes(6000, 1 << 200)) == 11
    with pytest.raises(UsageError, match=r"p = 1 \(mod 991\)"):
        exact_distribution(990, 1, 10)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["one", "two", "tightness", "mixed"]), d=_DEGREES,
       N=st.integers(1, 24), k=st.integers(0, 6), h=st.integers(0, 4), order=st.integers(1, 3),
       exact=st.booleans())
def test_eps_levels_read_y_over_x_and_equal_the_generic_exp(kind, d, N, k, h, order, exact):
    # in the eps basis the level step takes exp of the unmarked exponent as
    # y / x from the count table: every level equals the one the generic
    # exp builds, over a residue ring and over EXACT, and no scalar exp runs
    progression = {
        "one": lambda: profile.level_series_progression(d, k, N, "moments", order),
        "two": lambda: profile.two_level_series_progression(d, k, h, N, "moments", order),
        "tightness": lambda: profile.two_level_series_progression(d, k, h, N, "tightness"),
        "mixed": lambda: [(k, mixed_degree_series(1, 2, k, N, "moments", order))],
    }[kind]
    steps = {"one": k, "two": k + h, "tightness": k + h, "mixed": min(k, N)}[kind]
    calls = []
    with pytest.MonkeyPatch.context() as m:
        if exact:
            m.setattr(profile, "_marked_ring", lambda *args: EXACT)
        for ring in (ResidueRing, type(EXACT)):
            def counted(self, a, original=ring.exp):
                calls.append(self)
                return original(self, a)
            m.setattr(ring, "exp", counted)
        got = [(j, s.ring, _coefficients(s)) for j, s in progression()]
        assert calls == []
        m.setattr(profile, "_marked_levels", generic_levels)
        want = [(j, s.ring, _coefficients(s)) for j, s in progression()]
        assert len(calls) == steps
    assert got == want
    assert all((ring is EXACT) == exact for _, ring, _ in got)


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


def _coefficients(series):
    return [series[n] for n in range(series.order + 1)]


@pytest.mark.parametrize("d", [1, 2, TOTAL], ids=["d1", "d2", "total"])
def test_marked_series_past_the_order_are_the_series_at_the_order(d):
    # no tree of size <= N reaches level N, so from level N on every mark has
    # vanished; the progressions step every level and are the oracle
    N = 9
    unmarked = [{(0, 0): v} if v else {} for v in tree_series(N).coeffs]
    for mode in ("full", "moments"):
        at_order = _coefficients(level_degree_series(d, N, N, mode))
        assert at_order == unmarked
        for k in (N + 1, N + 6):
            stepped = profile._last(profile.level_series_progression(d, k, N, mode))[1]
            assert _coefficients(level_degree_series(d, k, N, mode)) == _coefficients(stepped)
    for mode in ("full", "moments", "tightness"):
        for k, h in ((3, N + 1), (3, N + 6), (N + 1, 2), (N + 7, N + 1), (N + 1, 0)):
            stepped = profile._last(profile.two_level_series_progression(d, k, h, N, mode))[1]
            got = _coefficients(two_level_series(d, k, h, N, mode))
            assert got == _coefficients(stepped)
            assert got == _coefficients(two_level_series(d, min(k, N), min(h, N), N, mode))
    if d is not TOTAL:
        for mode in ("full", "moments"):
            for k in (N, N + 1, N + 6):
                assert _coefficients(mixed_degree_series(3 - d, d, k, N, mode)) == unmarked


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


def test_level_of_refuses_a_level_past_the_float_range():
    assert [level_of(kappa, n) for kappa, n in ((1.0, 400), (0.5, 5), (0.0, 9))] == [20, 1, 0]
    assert level_of(1e308, 1) == int(1e308)
    for kappa in (1e308, inf, nan):
        with pytest.raises(UsageError, match="passes the float range"):
            level_of(kappa, 5)
    with pytest.raises(UsageError, match="passes the float range"):
        scaled_level_mean(1, 400, 1e308, RHO)


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
    # (1, 2, 1600, 40), as the ring computed them before it owned its format;
    # at scale 1 each coefficient converts with float(), correctly rounded
    for N, scale, digest in (
        (400, RHO, "9e324de438899438bce12e097653faccb3f5599c09b4c62154300309282ac188"),
        (1600, RHO, "3094b9fa99bc25d86942b138a12feb01f96b994405111f270ceb91044f0fe4d6"),
        (100, 1.0, "1097539ce4d724a644c55671e112bd9ad1fd31dd79271e6d3efbdea4897e7d1b"),
    ):
        coeffs = tree_series(N).to_double(scale).coeffs
        assert hashlib.sha256(coeffs.tobytes()).hexdigest() == digest
    assert list(tree_series(100).to_double(1.0).coeffs) == [float(c) for c in tree_series(100).coeffs]
    tab = finite_covariance(1, 2, 1600, 40, ring="double", scale=RHO)
    fields = [v.hex() for v in astuple(tab) if isinstance(v, float)]
    assert len(fields) == 9  # the eight moments and the correlation
    digest = hashlib.sha256("\n".join(fields).encode()).hexdigest()
    assert digest == "1002ed335087515fcbc16eb7547bc2e725cbb56c6b727bc467c73c4573cae550"


def test_double_ring_pass_series_are_unchanged():
    # sha256 of g and f (degrees 1 and 2) and mixed at levels 1, 20 and 40 of
    # the (1, 2, 1600, 40) double-ring pass: a rewrite can move the series
    # while the table digest above, read at level 40 only, stays put
    reads = [(1600, k) for k in (1, 20, 40)]
    levels = profile._levels_at((1, 2), reads, "double", RHO, second=True, mixed=True)[2]
    digests = {level.k: hashlib.sha256(b"".join(
        s.coeffs.tobytes() for s in (*level.g, *level.f, level.mixed))).hexdigest()
        for level in levels}
    assert digests == {
        1: "8037f18aba6d34da1f316cbfcb44aa8ccf16a5da2ee2801bb456eb6f3953a669",
        20: "057eed0b8b9ea185743eea9f343fd4bd5d8956e22a656265eb052e83ecd399d4",
        40: "f50c6001f118ffc5a29a086566d5d4a14dcf7c3833996ef87d551ec22b264300",
    }


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
    # a reader past the height does not step the pass either
    past = lambda: second_factorial_series(d1, n + 3, n, ring, scale)
    assert _series_products(monkeypatch, past) == 0


@pytest.mark.parametrize("reader", [
    lambda: gamma_series(1, 10**6, 30),
    lambda: second_factorial_series(1, 10**6, 30),
    lambda: mixed_gamma_series(1, 2, 10**6, 30),
], ids=["gamma", "second_factorial", "mixed"])
def test_series_readers_far_past_the_height_step_nothing(monkeypatch, reader):
    # stepping the N - 1 levels below the height and then one zero level per
    # k took about 1 s at k = 10**6 (2-CPU host); the zero series is read
    # without stepping, in milliseconds
    assert _series_products(monkeypatch, reader) == 0
    start = time.monotonic()
    series = reader()
    assert time.monotonic() - start < 0.5
    assert series.order == 30 and not any(series[m] for m in range(31))


# ---------------------------------------------------------------------------
# one pass for a list of sizes
# ---------------------------------------------------------------------------

def _table_bits(table):
    return [(_bits(v), type(v)) for v in astuple(table)]


@pytest.mark.parametrize("d1,d2,reads,ring,scale", [
    # kappa from 0.5 to 2, sizes not squares, a repeated read and reads past the height
    (1, 2, [(1600, 40), (400, 20), (777, 55), (401, 10), (900, 15), (900, 15), (50, 60)],
     "double", RHO),
    (2, 2, [(300, 17), (500, 11), (300, 17), (120, 130)], "double", 0.3),
    (TOTAL, 2, [(250, 8), (630, 25), (630, 50), (630, 630)], "double", RHO),
    (3, 1, [(90, 19), (700, 13), (200, 7)], "double", RHO),
    (1, 2, [(60, 5), (45, 7), (61, 60), (60, 5), (30, 12)], "exact", 1.0),
    (TOTAL, 3, [(40, 3), (25, 6), (40, 40)], "exact", 1.0),
    (2, 2, [(50, 4), (35, 4)], "exact", 1.0),
], ids=["1-2", "2-2-scale-0.3", "total-2", "3-1", "exact-1-2", "exact-total-3", "exact-2-2"])
def test_shared_reads_equal_single_reads(d1, d2, reads, ring, scale):
    # a pass at the largest n gives each smaller n the bits (or the rationals)
    # of a pass of its own: the products and substitution sums do not depend
    # on the arrays' length (np.convolve and np.bincount add in the same order)
    shared = profile.finite_covariances(d1, d2, reads, ring, scale)
    single = [finite_covariance(d1, d2, n, k, ring, scale) for n, k in reads]
    assert [_table_bits(t) for t in shared] == [_table_bits(t) for t in single]
    for d in (d1, d2):
        shared = profile.level_means(d, reads, ring, scale)
        assert [_bits(m) for m in shared] == [_bits(level_mean(d, n, k, ring, scale))
                                              for n, k in reads]


def test_auto_report_reads_like_a_pass_per_size(monkeypatch):
    # sizes up to 200 run in the exact ring under "auto", the others in the
    # double ring: one pass each
    sizes = (100, 150, 400, 120)
    want = []
    for n in sizes:
        tab = finite_covariance(1, 2, n, level_of(1.0, n), "exact" if n <= 200 else "double", RHO)
        want.append((n, 1.0 - tab.correlation, sqrt(n) * (1.0 - tab.correlation)))
    passes = 0
    levels_at = profile._levels_at

    def counting(*args, **kwargs):
        nonlocal passes
        passes += 1
        return levels_at(*args, **kwargs)

    monkeypatch.setattr(profile, "_levels_at", counting)
    rows = limits.correlation_convergence_report(1, 2, 1.0, sizes, SimpleNamespace(rho=RHO))
    assert passes == 2
    assert [[_bits(v) for v in row] for row in rows] == [[_bits(v) for v in row] for row in want]


@pytest.mark.parametrize("d,kappa,ns", [
    (1, 1.0, (400, 900, 1600)), (2, 0.5, (1600, 100, 350)), (TOTAL, 2.0, (50, 901)),
])
def test_limit_mean_reads_like_a_pass_per_size(monkeypatch, d, kappa, ns):
    # the shared pass gives scaled_level_mean's bits at each size
    reads = [(n, level_of(kappa, n)) for n in ns]
    means = profile.level_means(d, reads, ring="double", scale=RHO)
    assert [(m / sqrt(n)).hex() for n, m in zip(ns, means)] == [
        scaled_level_mean(d, n, kappa, RHO).hex() for n in ns]
    cs = SimpleNamespace(rho=RHO)
    got = limits.eval_limit_mean(d, kappa, cs, ns)
    shared = profile.level_means
    monkeypatch.setattr(profile, "level_means", lambda d, reads, ring, scale: [
        shared(d, [read], ring, scale)[0] for read in reads])
    single = limits.eval_limit_mean(d, kappa, cs, ns)
    assert (got.value.hex(), got.quadrature_error.hex()) == (
        single.value.hex(), single.quadrature_error.hex())


def _cold_products(monkeypatch, fn):
    """_series_products of fn() with no pass inputs kept from earlier calls."""
    profile._tree_series_rings.cache_clear()
    profile._gamma0.cache_clear()
    return _series_products(monkeypatch, fn)


def test_report_steps_only_the_products_of_its_largest_table(monkeypatch):
    cs = SimpleNamespace(rho=RHO)
    report = _cold_products(monkeypatch, lambda: limits.correlation_convergence_report(
        1, 2, 1.0, (400, 900, 1600), cs, ring="double"))
    largest = _cold_products(
        monkeypatch, lambda: finite_covariance(1, 2, 1600, 40, ring="double", scale=RHO))
    smaller = _cold_products(monkeypatch, lambda: [
        finite_covariance(1, 2, n, k, ring="double", scale=RHO) for n, k in ((400, 20), (900, 30))])
    assert report == largest and smaller > 0


def test_pass_inputs_are_converted_once_and_kept_read_only(monkeypatch):
    conversions = 0
    signed_exp = series._signed_exp

    def counting(c, extra_log):
        nonlocal conversions
        conversions += 1
        return signed_exp(c, extra_log)

    monkeypatch.setattr(series, "_signed_exp", counting)
    table = lambda: finite_covariance(3, TOTAL, 500, 22, ring="double", scale=RHO)
    profile._tree_series_rings.cache_clear()
    profile._gamma0.cache_clear()
    first = table()
    assert conversions > 0
    conversions = 0
    assert _table_bits(table()) == _table_bits(first)
    assert conversions == 0
    # the kept arrays refuse writes, and tree_series still builds a new series
    y_exact, y = profile._tree_series_rings(500, "double", RHO)
    kept = (y, profile._gamma0(3, 500, "double", RHO), profile._tree_series_rings(60, "exact", 1.0)[1],
            profile._gamma0(2, 60, "exact", 1.0))
    for s in kept:
        with pytest.raises(ValueError, match="read-only"):
            s.coeffs[..., 1] = 1
    assert tree_series(500) is not tree_series(500) and tree_series(500) is not y_exact
