import hashlib
import math

import numpy as np
import pytest

from polyaprofile import limits
from polyaprofile.errors import UsageError
from polyaprofile.limits import (
    correlation_convergence_report,
    cov_bracket,
    eval_cov_limit,
    eval_limit_mean,
    eval_psi,
    eval_var_limit,
    limit_mean,
)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------

def test_psi_at_zero(constants_400):
    ev = eval_psi(0.0, 1, 1.0, constants_400)
    assert ev.value == 1.0 + 0.0j
    assert ev.quadrature_error < 1e-6


def test_psi_conjugate_symmetry(constants_400):
    for t in (0.5, 1.0, 2.0):
        zp = eval_psi(t, 1, 1.0, constants_400)
        zm = eval_psi(-t, 1, 1.0, constants_400)
        assert abs(zp.value.conjugate() - zm.value) <= 1e-12


def test_psi_modulus_bounded(constants_400):
    for t in np.linspace(-5.0, 5.0, 21):
        ev = eval_psi(float(t), 1, 1.0, constants_400)
        assert abs(ev.value) <= 1.0 + 1e-9
        assert ev.quadrature_error < 1e-6


def test_psi_node_doubling_within_reported_error(constants_400):
    for t, kappa, d in ((0.5, 1.0, 1), (1.5, 0.5, 2), (3.0, 2.0, 1)):
        ev = eval_psi(t, d, kappa, constants_400, nodes=150)
        ev2 = eval_psi(t, d, kappa, constants_400, nodes=300)
        assert abs(ev.value - ev2.value) <= max(ev.quadrature_error, 1e-12)


def test_psi_derivatives_match_moment_formulas(constants_400):
    # psi'(0) = i * limit mean; psi''(0) = -(variance limit + mean^2)
    cs = constants_400
    h = 1e-4
    vp = eval_psi(h, 1, 1.0, cs).value
    vm = eval_psi(-h, 1, 1.0, cs).value
    mean = (vp - vm).imag / (2 * h)
    assert abs(mean - limit_mean(1, 1.0, cs)) < 1e-6
    second = -((vp - 2.0 + vm).real) / h**2
    want = eval_var_limit(1, 1.0, cs).value + limit_mean(1, 1.0, cs) ** 2
    assert abs(second - want) < 1e-5


def test_psi_bits_are_unchanged(constants_400):
    # sha256 over float.hex of value and quadrature error, recorded while
    # every call still rebuilt its Gauss-Legendre rules
    parts = []
    for d in (1, 2):
        for kappa in (0.5, 1.0):
            for t in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.5, -3.5, 5.0, -5.0):
                ev = eval_psi(t, d, kappa, constants_400)
                parts += [ev.value.real.hex(), ev.value.imag.hex(), ev.quadrature_error.hex()]
    digest = hashlib.sha256(",".join(parts).encode()).hexdigest()
    assert digest == "2de6fa22fcd373f904f71fc488335bcf13dbe044d63224439da00d7e85bcc1c1"


def test_psi_rule_is_built_once_per_node_count(constants_400, monkeypatch):
    # a node count no other test asks for; the cache is emptied anyway, so a
    # repeated run of this test counts the same builds
    limits._unit_rule.cache_clear()
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(nodes):
        built.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    for t in np.linspace(-3.0, 3.0, 10):
        eval_psi(float(t), 1, 1.0, constants_400, nodes=137)
    assert sorted(built) == [137, 274]
    for nodes in (137, 274):
        for arr in limits._unit_rule(nodes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5


def test_psi_requires_positive_kappa(constants_400):
    with pytest.raises(UsageError):
        eval_psi(1.0, 1, 0.0, constants_400)


def test_psi_decays_at_large_t(constants_400):
    # the limit law is continuous: |psi| must decay, not plateau
    vals = [abs(eval_psi(t, 1, 1.0, constants_400).value) for t in (5.0, 20.0, 100.0)]
    assert vals[0] < 0.9
    assert vals[1] < 0.1
    assert vals[2] < 0.01


# ---------------------------------------------------------------------------
# covariance / variance limits
# ---------------------------------------------------------------------------

def test_cov_limit_vanishes_at_kappa_zero(constants_400):
    # level 0 holds one root: cross moments of distinct degrees carry no n-term
    assert eval_cov_limit(1, 2, 0.0, constants_400).value == 0.0


def test_cov_limit_decays_at_large_kappa(constants_400):
    peak = max(
        abs(eval_cov_limit(1, 2, k, constants_400).value)
        for k in np.linspace(0.05, 3.0, 30)
    )
    far = abs(eval_cov_limit(1, 2, 10.0, constants_400).value)
    assert far <= 1e-10 * peak


def test_cov_limit_symmetric(constants_400):
    a = eval_cov_limit(1, 2, 1.0, constants_400).value
    b = eval_cov_limit(2, 1, 1.0, constants_400).value
    assert a == b


def test_var_limit_is_diagonal_cov(constants_400):
    assert (
        eval_var_limit(2, 1.0, constants_400).value
        == eval_cov_limit(2, 2, 1.0, constants_400).value
    )


def test_var_limit_nonnegative_on_grid(constants_400):
    for kappa in np.linspace(0.0, 3.0, 31):
        assert eval_var_limit(1, float(kappa), constants_400).value >= 0.0


def test_bracket_small_kappa_expansion(constants_400):
    # bracket = (1/(b^2 rho)) (z/2 - 7 z^2/16 + O(z^3)), z = kappa^2 b^2 rho
    b, rho = constants_400.b, constants_400.rho
    for kappa in (1e-3, 2e-3):
        z = kappa * kappa * b * b * rho
        want = (z / 2.0 - 7.0 * z * z / 16.0) / (b * b * rho)
        # absolute 1e-15 covers cancellation noise in the exponential differences
        assert abs(cov_bracket(kappa, b, rho) - want) <= want * z * z + 1e-15


def test_finite_n_covariance_approaches_limit(constants_400):
    # |cov/n - limit| decreases along n = 100, 400, 1600 at (d1,d2,kappa)=(1,2,1)
    from polyaprofile.profile import finite_covariance

    cs = constants_400
    limit = eval_cov_limit(1, 2, 1.0, cs).value
    gaps = []
    for n in (100, 400, 1600):
        k = int(math.isqrt(n))
        tab = finite_covariance(1, 2, n, k, ring="double", scale=cs.rho)
        gaps.append(abs(tab.covariance / n - limit))
    assert gaps[0] > gaps[1] > gaps[2]


def test_finite_n_variance_approaches_limit_at_sqrt_rate(constants_400):
    # the variance carries a large O(sqrt(n)) term (the +E[X] summand), so
    # var/n reaches its limit only like 1/sqrt(n): measured gaps halve per 4x
    # n (0.99 of the limit at n=400); asserted as a rate, not a window
    from polyaprofile.profile import finite_covariance

    cs = constants_400
    limit = eval_var_limit(1, 1.0, cs).value
    gaps = []
    for n in (100, 400, 1600):
        k = int(math.isqrt(n))
        tab = finite_covariance(1, 1, n, k, ring="double", scale=cs.rho)
        gaps.append(abs(tab.var1 / n - limit))
    assert gaps[0] > gaps[1] > gaps[2]
    for a, b in zip(gaps, gaps[1:]):
        assert 0.35 <= b / a <= 0.65  # ~0.5 per quadrupling of n


# ---------------------------------------------------------------------------
# limit mean
# ---------------------------------------------------------------------------

def test_limit_mean_positive_and_close_to_closed_form(constants_400):
    for d in (1, 2):
        for kappa in (0.5, 1.0):
            ev = eval_limit_mean(d, kappa, constants_400, n_values=(400, 900, 1600))
            assert ev.value > 0
            closed = limit_mean(d, kappa, constants_400)
            assert abs(ev.value - closed) / closed < 0.005


def test_limit_mean_kappa_zero_degenerates(constants_400):
    # level 0 holds one root; normalized by sqrt(n) the mean tends to 0
    for d in (2, 3):
        ev = eval_limit_mean(d, 1e-9, constants_400, n_values=(400, 1600))
        assert abs(ev.value) < 1e-3


def test_limit_mean_needs_two_points(constants_400):
    with pytest.raises(UsageError):
        eval_limit_mean(1, 1.0, constants_400, n_values=(400,))


# ---------------------------------------------------------------------------
# correlation convergence
# ---------------------------------------------------------------------------

def test_psi_close_to_empirical_characteristic_function(constants_400):
    # corroboration beyond the structural checks: the quadrature value sits
    # near the finite-n empirical characteristic function of l_n^{(1)}(1)
    from polyaprofile.enumeration import count_trees
    from polyaprofile.sampling import MonteCarloSpec, monte_carlo

    spec = MonteCarloSpec(
        n=400, degrees=(1,), kappas=(1.0,), t_values=(0.5, 1.0),
        samples=3000, seed=2024,
    )
    r = monte_carlo(spec, table=count_trees(400))
    for t in (0.5, 1.0):
        z, se = r.char_function(1, 1.0, t)
        psi = eval_psi(t, 1, 1.0, constants_400).value
        assert abs(z - psi) <= 0.05


def test_correlation_report_shape_and_signs(constants_400):
    rows = correlation_convergence_report(
        1, 2, 1.0, (100, 400), constants=constants_400
    )
    assert [r[0] for r in rows] == [100, 400]
    for n, one_minus, scaled in rows:
        assert 0 < one_minus < 1
        assert abs(scaled - math.sqrt(n) * one_minus) < 1e-12


def test_correlation_symmetric_in_degrees(constants_400):
    a = correlation_convergence_report(1, 2, 1.0, (100,), constants=constants_400)
    b = correlation_convergence_report(2, 1, 1.0, (100,), constants=constants_400)
    assert abs(a[0][1] - b[0][1]) < 1e-12


def test_exact_and_double_rings_agree_in_report(constants_400):
    a = correlation_convergence_report(
        1, 2, 1.0, (100,), constants=constants_400, ring="exact"
    )
    b = correlation_convergence_report(
        1, 2, 1.0, (100,), constants=constants_400, ring="double"
    )
    assert abs(a[0][1] - b[0][1]) < 1e-10
