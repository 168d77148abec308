import hashlib
import math

import pytest

from polyaprofile.constants import (
    b_from_functional_equation,
    c_d_rho_ladder,
    compute_b,
    compute_C,
    compute_constants,
    compute_rho,
)
from polyaprofile.enumeration import degree_series, tree_series
from polyaprofile.errors import UsageError

RHO_REF = 0.3383219      # 7-digit reference value
B_REF = 2.6811266        # reference value (the last digits are soft)
C_REF = 7.7581604


def test_rho_reproduction(constants_400):
    assert abs(constants_400.rho - RHO_REF) <= 1e-5
    assert constants_400.err["rho"] < 1e-10


def test_rho_bracket_monotonicity():
    y = tree_series(200)
    lo, _ = y.evaluate(0.2)
    hi, _ = y.evaluate(0.45, tail_bound=float("inf"))
    assert lo - 1.0 < 0.0 < hi - 1.0


def test_rho_independent_of_order():
    values = {}
    for N in (200, 400, 800):
        values[N], err = compute_rho(N)
        assert err < 1e-10
    assert abs(values[200] - values[400]) <= 1e-12
    assert abs(values[400] - values[800]) <= 1e-12


def test_rho_requires_minimum_order():
    with pytest.raises(UsageError):
        compute_rho(50)


@pytest.mark.parametrize("degrees", [(0,), (1, -2)], ids=["0", "1,-2"])
def test_constants_reject_degrees_below_one(degrees):
    with pytest.raises(UsageError, match="degrees must be >= 1"):
        compute_constants(400, degrees=degrees)


def test_b_reproduction(constants_400):
    assert abs(constants_400.b - B_REF) <= 1e-2


def test_b_ladder_agrees_with_functional_equation(constants_400):
    rho = constants_400.rho
    b_fun = b_from_functional_equation(rho, 400)
    # closed form reproduces the reference to ~1e-6; ladder to its error bar
    assert abs(b_fun - B_REF) <= 5e-6
    b_lad, err = compute_b(rho, 400)
    assert abs(b_lad - b_fun) <= max(3 * err, 5e-3)


def test_b_ladder_stabilizes_monotonically(constants_400):
    # f(x_j) = (1-y)^2/(rho-x) increases toward b^2 along the ladder
    _, _, f = compute_b(constants_400.rho, 400, return_diag=True)
    js = sorted(f)
    vals = [f[j] for j in js]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < constants_400.b**2 * 1.05


def test_b_consistency_with_count_asymptotics(constants_400):
    # y_n ~ (b sqrt(rho) / (2 sqrt(pi))) n^{-3/2} rho^{-n} within 3% at n=200
    cs = constants_400
    y200 = tree_series(200)[200]
    approx = (
        cs.b * math.sqrt(cs.rho) / (2 * math.sqrt(math.pi))
        * math.exp(-1.5 * math.log(200) - 200 * math.log(cs.rho))
    )
    assert abs(approx / float(y200) - 1.0) <= 0.03


def test_asymptotic_error_decreases(constants_400):
    cs = constants_400
    y = tree_series(200)
    rels = []
    for n in (50, 100, 200):
        approx = (
            cs.b * math.sqrt(cs.rho) / (2 * math.sqrt(math.pi))
            * math.exp(-1.5 * math.log(n) - n * math.log(cs.rho))
        )
        rels.append(abs(approx / float(y[n]) - 1.0))
    assert rels[0] > rels[1] > rels[2]


def test_C_reproduction(constants_400):
    assert abs(constants_400.C - C_REF) <= 1e-3


def test_C_partial_sums_increase(constants_400):
    C, err, partials = compute_C(constants_400.rho, 400, return_partials=True)
    # all summands are >= 0 (strictly positive until they underflow)
    assert all(a <= b for a, b in zip(partials, partials[1:]))
    assert all(a < b for a, b in zip(partials[:10], partials[1:11]))
    # tail beyond i=40 is below 1e-14: the i=40 term itself bounds it
    assert partials[-1] - partials[-2] < 1e-14


def test_Cd_converges_to_C(constants_400):
    cs = compute_constants(400, degrees=range(1, 11))
    ks = []
    for d in range(1, 11):
        gap = abs(cs.Cd[d] - cs.C)
        ks.append(gap / (d * cs.rho**d))
    # |C_d - C| <= K d rho^d for a fitted K: the normalized gaps stay bounded
    assert max(ks) < 50.0
    gaps = [abs(cs.Cd[d] - cs.C) for d in range(1, 11)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_mu_d_partition_of_unity(constants_400):
    cs = compute_constants(400, degrees=range(1, 21))
    total = sum(cs.mu_d[d] for d in range(1, 21))
    assert 0.999 <= total <= 1.001


def test_mu_d_against_exact_density(constants_400):
    cs = constants_400
    y200 = tree_series(200)[200]
    for d in (1, 2, 3):
        D = degree_series(d, 200).D
        dens = D[200] / (200 * y200)
        assert abs(float(dens) / cs.mu_d[d] - 1.0) <= 0.05


def test_mu1_matches_leaf_constant(constants_400):
    # classical constant: asymptotic leaf fraction 0.4381562356...
    assert abs(constants_400.mu_d[1] - 0.4381562356) < 1e-8


def test_cd_ladder_cross_check(constants_400):
    cs = constants_400
    for d in (1, 2, 3):
        lad = c_d_rho_ladder(d, cs.rho, 400) / cs.rho**d
        assert abs(lad / cs.Cd[d] - 1.0) < 5e-3


def test_constants_deterministic(constants_400):
    again = compute_constants(400, degrees=(1, 2, 3))
    assert (again.rho, again.b, again.C) == (
        constants_400.rho,
        constants_400.b,
        constants_400.C,
    )
    assert again.Cd == constants_400.Cd


def test_constants_stable_under_doubling(constants_400):
    cs2 = compute_constants(800, degrees=(1, 2, 3))
    assert abs(cs2.rho - constants_400.rho) <= max(constants_400.err["rho"], 1e-12)
    assert abs(cs2.b - constants_400.b) <= max(constants_400.err["b"], 1e-3)
    assert abs(cs2.C - constants_400.C) <= max(constants_400.err["C"], 1e-9)


def test_constants_bits_are_unchanged():
    # sha256 over float.hex of every constant, recorded before the exact-ring
    # evaluation stopped converting each coefficient to a Fraction
    cs = compute_constants(400, degrees=range(1, 11))
    fields = [cs.rho, cs.b, cs.C]
    fields += [cs.Cd[d] for d in range(1, 11)] + [cs.mu_d[d] for d in range(1, 11)]
    digest = hashlib.sha256(",".join(v.hex() for v in fields).encode()).hexdigest()
    assert digest == "0a0f54a08d73ba3723ea9d11666c7a45df5e84e94f416f9f0e1b1e1683c13e37"
