import builtins
import functools
import hashlib
import math
import operator
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaprofile import constants as constants_mod
from polyaprofile import series as series_mod
from polyaprofile.constants import (
    _half_b2rho,
    _ladder_points,
    _on_powers,
    _richardson,
    _y,
    c_d_rho_solve,
    compute_b,
    compute_C,
    compute_constants,
    compute_rho,
)
from polyaprofile.enumeration import degree_series, tree_series
from polyaprofile.errors import AccuracyError, UsageError
from polyaprofile.series import TruncatedSeries

RHO_REF = 0.3383219      # 7-digit reference value
B_REF = 2.6811266        # reference value (the last digits are soft)
C_REF = 7.7581604


def b_from_functional_equation(rho, N):
    """Closed-form b = sqrt(2 (1 + rho E'(rho)) / rho) from the singular system
    (a test oracle for compute_b): independent of the ladder, good to ~1e-12
    at N >= 200."""
    return math.sqrt(2.0 * _half_b2rho(rho, N) / rho)


def c_d_rho_ladder(d, rho, N):
    """C^{(d)}(rho) by extrapolating (1-y) D^{(d)} / y^d along the rho ladder
    (a test oracle for c_d_rho_solve; it loses accuracy as y^-d grows with d)."""
    pts = _ladder_points(_y(N), rho)
    if len(pts) < 3:
        raise AccuracyError("not enough ladder rungs for C_d; increase N")
    D = degree_series(d, N)
    return _richardson(*[(1.0 - v) * D.evaluate(x)[0] / v**d for x, v in pts[-3:]])[0]


def test_rho_reproduction(constants_400):
    assert abs(constants_400.rho - RHO_REF) <= 1e-5
    assert constants_400.err["rho"] < 1e-10


def test_rho_bracket_monotonicity():
    # past rho the series diverges; its positive terms up to x^10 bound it below
    y = tree_series(200)
    lo, _ = y.evaluate(0.2)
    hi = sum(float(y[n]) * 0.45**n for n in range(11))
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
    rho = constants_400.rho
    vals = [(1.0 - v) ** 2 / (rho - x) for x, v in _ladder_points(tree_series(400), rho)]
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
    rho = constants_400.rho
    C, err = compute_C(rho, 400)
    y = tree_series(400)
    partials = [1.0 / rho - 1.0]
    for i in range(2, 201):
        v, _ = y.evaluate(rho**i)
        term = (v / rho**i - 1.0) / i
        partials.append(partials[-1] + term)
        if term < 1e-14 and i >= 40:
            break
    assert C == math.exp(partials[-1])
    # all summands are >= 0 (strictly positive until they underflow)
    assert all(a <= b for a, b in zip(partials, partials[1:]))
    assert all(a < b for a, b in zip(partials[:10], partials[1:11]))
    # tail beyond i=40 is below 1e-14: the i=40 term itself bounds it
    assert partials[-1] - partials[-2] < 1e-14


def test_constants_hold_at_orders_past_the_double_range(constants_400):
    # past rho the terms of y leave the double range from N ~ 2500 on, so no
    # evaluation may go there
    cs = compute_constants(3200, degrees=(1, 2, 3))
    assert abs(cs.rho - constants_400.rho) <= 1e-12
    assert abs(cs.C - constants_400.C) <= 1e-12


def test_constants_evaluate_each_series_once_per_point(monkeypatch):
    # one table of y on the powers of rho serves C and every C_d, and E'(rho)
    # serves both b and the mu_d divisor
    seen = Counter()
    evaluate = TruncatedSeries.evaluate

    def counting(self, x0, *args, **kwargs):
        seen[(self.order, tuple(self.coeffs), x0)] += 1
        return evaluate(self, x0, *args, **kwargs)

    monkeypatch.setattr(TruncatedSeries, "evaluate", counting)
    compute_constants(400, degrees=range(1, 11))
    assert sum(seen.values()) > 0
    assert {key[2]: n for key, n in seen.items() if n > 1} == {}


def test_constants_take_each_log_magnitude_once_per_series(monkeypatch):
    # each evaluated series builds its table of log|y_n| once: four series of
    # 400 nonzero coefficients, where forming every term afresh took ~13 450
    calls = []
    log_abs = series_mod._log_abs
    monkeypatch.setattr(series_mod, "_log_abs", lambda c: calls.append(c) or log_abs(c))
    compute_constants(400, degrees=range(1, 11))
    assert 0 < len(calls) <= 2500


def test_constants_share_one_table_of_y(monkeypatch):
    # the constants read one y per N (constants._y), so compute_rho, compute_b
    # and compute_constants read one table of log|y_n|, kept for the next
    # call: a first call builds the tables of y and y' (400 entries each), a
    # repeated one only that of y'; each took 1 600 calls when every step
    # built its own y.  The public tree_series still hands out a new series
    assert tree_series(400) is not tree_series(400)
    constants_mod._y.cache_clear()
    calls = []
    log_abs = series_mod._log_abs
    monkeypatch.setattr(series_mod, "_log_abs", lambda c: calls.append(c) or log_abs(c))
    compute_constants(400, degrees=range(1, 11))
    first = len(calls)
    compute_constants(400, degrees=range(1, 11))
    assert 0 < first <= 850 and 0 < len(calls) - first <= 450


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
        D = degree_series(d, 200)
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


def test_constants_keep_the_order_and_repeats_of_their_degrees(constants_400):
    # every C_d comes from one pass over the distinct degrees; the dicts keep
    # the order of the degrees as given, and no degrees give none
    cs = compute_constants(400, degrees=(3, 1, 3))
    assert list(cs.Cd) == list(cs.mu_d) == [3, 1]
    assert [k for k in cs.err if k.startswith("C_")] == ["C_3", "C_1"]
    assert cs.Cd == {d: constants_400.Cd[d] for d in (3, 1)}
    assert compute_constants(400, degrees=()).Cd == {}


def test_constants_deterministic(constants_400):
    # a plain value: every field, the error estimates included, repeats
    assert compute_constants(400, degrees=(1, 2, 3)) == constants_400


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


def _compensated_sum(items, start=0):
    """builtin sum() from CPython 3.12 on: a float total takes float items with
    Neumaier's compensated addition, anything else with plain +."""
    total, comp = start, 0.0
    for x in items:
        if type(total) is float and type(x) is float:
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + comp if comp and math.isfinite(comp) else total


def test_constants_bits_hold_under_compensated_sum(monkeypatch):
    # the pinned digest must not depend on which Python's sum() is installed
    assert _compensated_sum([1e100, 1.0, -1e100]) == 1.0  # plain adds give 0.0
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    test_constants_bits_are_unchanged()


def test_constants_bits_are_unchanged_past_the_double_range():
    # at N = 3200 the terms of y past rho leave the double range, and the
    # tail model reads terms N and N - 1 there; the digest covers every
    # constant and every error entry, recorded before the exact-ring
    # evaluation read a table of log-magnitudes
    cs = compute_constants(3200, degrees=range(1, 11))
    fields = [cs.rho, cs.b, cs.C]
    fields += [cs.Cd[d] for d in range(1, 11)] + [cs.mu_d[d] for d in range(1, 11)]
    fields += cs.err.values()
    digest = hashlib.sha256(",".join(v.hex() for v in fields).encode()).hexdigest()
    assert digest == "753ca5a20819404913f89f7318a456d30bc204657e314387214cfb4edfab1c0f"


# ---------------------------------------------------------------------------
# the array pass of c_d_rho_solve against the scalar loop it replaced
# ---------------------------------------------------------------------------

def _plain_sum(items):
    """builtin sum() up to Python 3.11: 0 plus each item in turn, uncompensated."""
    return functools.reduce(operator.add, items, 0)


def _cycle_index_values(d, svals):
    """Z_d at numeric s_r values via Z_m = (1/m) sum_r s_r Z_{m-r}."""
    Z = [1.0] + [0.0] * d
    for m in range(1, d + 1):
        Z[m] = _plain_sum(svals[r] * Z[m - r] for r in range(1, m + 1)) / m
    return Z[d]


def loop_c_d_rho_solve(d, rho, yvals):
    """C^{(d)}(rho) of one degree by the scalar loop (a test oracle), with the
    uncompensated sums the constants were pinned with."""
    M = len(yvals) - 1
    g = [0.0] * (M + 1)
    for m in range(1, M + 1):
        if rho**m < 1e-280:
            break
        sv = [0.0] * max(d, 1)
        for r in range(1, d):
            mr = m * r
            sv[r] = yvals[mr] if mr <= M else 0.0
        g[m] = rho**m * _cycle_index_values(d - 1, sv)
    total = g[1]
    for level in range(200):
        gam = _plain_sum(g[i] for i in range(2, M + 1))
        total += gam
        if gam < 1e-17 and level > 3:
            break
        ng = [0.0] * (M + 1)
        for m in range(2, M + 1):
            acc = g[m]
            im = 2 * m
            i = 2
            while im <= M:
                acc += g[im]
                i += 1
                im = i * m
            ng[m] = yvals[m] * acc
        g = ng
    return total


_DEGREE_SETS = [(), (1,), (7,), (3, 1, 3), tuple(range(1, 21))]


def _assert_solve_is_the_loop(degrees, rho, yvals):
    got = c_d_rho_solve(degrees, rho, yvals)
    assert list(got) == sorted(set(degrees))
    assert all(type(v) is float for v in got.values())
    assert {d: v.hex() for d, v in got.items()} == {
        d: loop_c_d_rho_solve(d, rho, yvals).hex() for d in got}


@settings(max_examples=60, deadline=None)
@given(rho=st.floats(0.25, 0.45), M=st.sampled_from([2, 3, 50, 200]),
       degrees=st.sampled_from(_DEGREE_SETS), data=st.data())
def test_c_d_rho_solve_is_the_scalar_loop_bit_for_bit(rho, M, degrees, data):
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    yvals = [0.0, 1.0] + data.draw(st.lists(inner, min_size=M - 1, max_size=M - 1))
    _assert_solve_is_the_loop(degrees, rho, yvals)


@pytest.mark.parametrize("N", [300, 400, 800])
def test_c_d_rho_solve_is_the_scalar_loop_on_the_constants_grid(N):
    rho, _ = compute_rho(N)
    yvals = [0.0, 1.0] + [v for _, _, v, _ in _on_powers(tree_series(N), rho)]
    for degrees in _DEGREE_SETS:
        _assert_solve_is_the_loop(degrees, rho, yvals)
