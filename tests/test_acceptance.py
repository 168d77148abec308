"""Acceptance criteria at full size, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion, or use the CLI: `polyaprofile verify`.

Criterion 6 is expected to fail at its stated 15% tolerance: the exact
finite-size gap of the covariance at n = 400 is 20.4% (4.08/sqrt(n)) and
about 3.94/sqrt(n) from n = 1600 on, so the window is unreachable at that n (see the module
docstring of polyaprofile.acceptance and notes in the README).  The test
asserts the criterion as stated rather than loosening it.
"""

from dataclasses import replace

import pytest

from polyaprofile import acceptance, profile


def _check(ctx, fn):
    result = fn(ctx)
    print()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_01_constants_reproduction(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_1)


def test_criterion_02_counting_oracle(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_2)


def test_criterion_03_exact_profile_oracle(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_3)


def test_criterion_04_internal_consistency(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_4)


def test_criterion_05_degree_density(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_5)


def test_criterion_06_covariance_limit(acceptance_ctx):
    # Known red at the stated tolerance; asserted faithfully.
    _check(acceptance_ctx, acceptance.criterion_6)


def test_criterion_07_correlation_convergence(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_7)


def test_criterion_08_sampler_uniformity(acceptance_ctx):
    # the line pins the seeded sample_shape stream at full size
    assert _check(acceptance_ctx, acceptance.criterion_8).line() == (
        "CRITERION  8 [PASS] sampler uniformity: n=5: chi2=10.6 dof=8 p=0.2228; "
        "n=6: chi2=12.8 dof=19 p=0.8493; n=7: chi2=40.2 dof=47 p=0.7481")


def test_criterion_09_weak_convergence(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_9)


def test_criterion_10_tightness(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_10)


def test_criterion_11_determinism(acceptance_ctx):
    _check(acceptance_ctx, acceptance.criterion_11)


# ---------------------------------------------------------------------------
# quick-mode report lines of the exact criteria, and criterion 3's failures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("criterion, line", [
    (acceptance.criterion_3, "CRITERION  3 [PASS] exact-profile oracle: "
        "360 exact equalities (n<=6 d<=3 k<=4 h<=2)"),
    (acceptance.criterion_4, "CRITERION  4 [PASS] internal consistency: "
        "768 exact (n<=16, d<=3) mean/level-sum/normalisation identities"),
], ids=["criterion-3", "criterion-4"])
def test_quick_exact_criteria_lines_are_pinned(criterion, line):
    # integers only, so the line is the same on every host
    assert criterion(acceptance.AcceptanceContext(quick=True)).line() == line


def _criterion_3_with(monkeypatch, name, wrong):
    """The quick criterion 3 line with profile.<name> replaced by wrong(original)."""
    monkeypatch.setattr(profile, name, wrong(getattr(profile, name)))
    return acceptance.criterion_3(acceptance.AcceptanceContext(quick=True)).line()


def test_criterion_3_fails_on_a_wrong_level_law(monkeypatch):
    def wrong(exact_distribution):
        def shifted(n, d, k, **kw):
            dist = exact_distribution(n, d, k, **kw)
            if (n, d, k) != (5, 2, 1):
                return dist
            return replace(dist, probs={l + 1: p for l, p in dist.probs.items()})
        return shifted

    assert _criterion_3_with(monkeypatch, "exact_distribution", wrong) == (
        "CRITERION  3 [FAIL] exact-profile oracle: distribution mismatch at n=5 d=2 k=1")


def test_criterion_3_fails_on_a_wrong_mixed_moment(monkeypatch):
    def wrong(mixed_gamma_series):
        def bumped(d1, d2, k, N):
            coeffs = [mixed_gamma_series(d1, d2, k, N)[n] for n in range(N + 1)]
            if (d1, d2, k) == (1, 2, 1):
                coeffs[4] += 1
            return coeffs
        return bumped

    assert _criterion_3_with(monkeypatch, "mixed_gamma_series", wrong) == (
        "CRITERION  3 [FAIL] exact-profile oracle: mixed moment mismatch n=4 d=(1,2) k=1")


def test_criterion_3_fails_on_a_wrong_joint_law(monkeypatch):
    def wrong(joint_distribution):
        def shifted(n, d, k, h, **kw):
            joint = joint_distribution(n, d, k, h, **kw)
            if (n, d, k, h) != (5, 1, 1, 1):
                return joint
            return {(a, b + 1): p for (a, b), p in joint.items()}
        return shifted

    assert _criterion_3_with(monkeypatch, "joint_distribution", wrong) == (
        "CRITERION  3 [FAIL] exact-profile oracle: joint mismatch n=5 d=1 k=1 h=1")
