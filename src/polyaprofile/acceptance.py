"""Acceptance criteria: one callable per criterion, shared by tests and `verify`.

Each criterion checks a quantitative statement at a fixed tolerance and
returns a CriterionResult; `run_acceptance` executes all of them and the CLI
renders the pass/fail table.  Quick mode shrinks sizes and sample counts
(criteria 1-5 keep their tolerances at reduced sizes; 6-10 run as smoke
variants) so a full quick pass stays well under ten minutes.

Known red: criterion 6 demands the exact finite-n covariance at n = 400
within 15% of its limit value.  The finite-size gap of that covariance is
~4.1/sqrt(n) (20.5% at n = 400, shrinking to 10% at n = 1600), so the 15%
window is not attainable at n = 400 by any correct implementation; the
criterion is evaluated as stated and reports the measured gap.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import constants as const_mod
from . import limits as limits_mod
from . import profile as profile_mod
from . import sampling as sampling_mod
from .enumeration import (
    count_trees,
    degree_series,
    enumerate_trees_exhaustive,
    tree_series,
)
from .errors import UsageError

DEFAULT_SEED = 20240801

RHO_TARGET = 0.3383219
B_TARGET = 2.681
C_TARGET = 7.758


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"CRITERION {self.number:2d} [{status}] {self.name}: {self.details}"


class AcceptanceContext:
    """Shared heavy artifacts (constants, Monte Carlo runs); tables come from count_trees."""

    def __init__(self, quick=False, seed=DEFAULT_SEED, cache_dir=None, threads=1):
        self.quick = quick
        self.seed = seed
        self.cache_dir = cache_dir
        self.threads = threads
        self.N = 300 if quick else 400
        self._constants = None
        self._mc = {}

    @property
    def constants(self):
        if self._constants is None:
            self._constants = const_mod.compute_constants(self.N, degrees=(1, 2, 3))
        return self._constants

    def table(self, n):
        return count_trees(n, cache_dir=self.cache_dir)

    def mc(self, tag, spec):
        if tag not in self._mc:
            self._mc[tag] = sampling_mod.monte_carlo(
                spec, table=self.table(spec.n), threads=self.threads
            )
        return self._mc[tag]


def _result(number, name, t0, passed, details):
    return CriterionResult(number, name, bool(passed), details, time.monotonic() - t0)


# ---------------------------------------------------------------------------
# criterion 1: constants reproduction
# ---------------------------------------------------------------------------

def criterion_1(ctx):
    t0 = time.monotonic()
    cs = ctx.constants
    d_rho = abs(cs.rho - RHO_TARGET)
    d_b = abs(cs.b - B_TARGET)
    d_C = abs(cs.C - C_TARGET)
    elapsed = cs.err.get("elapsed_s", 0.0)
    ok = d_rho <= 1e-5 and d_b <= 1e-2 and d_C <= 1e-3 and elapsed < 30.0
    details = (
        f"rho={cs.rho!r} (|d|={d_rho:.2e}<=1e-5) b={cs.b!r} (|d|={d_b:.2e}<=1e-2) "
        f"C={cs.C!r} (|d|={d_C:.2e}<=1e-3) runtime<30s: {elapsed < 30.0} N={ctx.N}"
    )
    return _result(1, "constants reproduction", t0, ok, details)


# ---------------------------------------------------------------------------
# criterion 2: counting oracle
# ---------------------------------------------------------------------------

def criterion_2(ctx):
    t0 = time.monotonic()
    table = ctx.table(200)
    ok = True
    notes = []
    for n in range(1, 9):
        cnt = len(enumerate_trees_exhaustive(n))
        if cnt != table.y[n]:
            ok = False
            notes.append(f"n={n}: exhaustive {cnt} != recurrence {table.y[n]}")
    cs = ctx.constants
    for n, tol in ((100, 0.05), (200, 0.03)):
        approx = (
            cs.b
            * math.sqrt(cs.rho)
            / (2.0 * math.sqrt(math.pi))
            * math.exp(-1.5 * math.log(n) - n * math.log(cs.rho))
        )
        rel = abs(approx / float(table.y[n]) - 1.0)
        notes.append(f"n={n}: asymptotic rel err {rel:.4f} (tol {tol})")
        ok = ok and rel <= tol
    return _result(2, "counting oracle", t0, ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# criterion 3: exact-profile oracle (brute force equality)
# ---------------------------------------------------------------------------

def _brute_profiles(n):
    shapes = enumerate_trees_exhaustive(n)
    return [
        sampling_mod.extract_profile(sampling_mod.PolyaTree.from_shape(s), d_max=n)
        for s in shapes
    ]


def criterion_3(ctx):
    t0 = time.monotonic()
    n_max = 6 if ctx.quick else 8
    d_max = 3 if ctx.quick else 4
    k_max = 4 if ctx.quick else 7
    h_max = 2 if ctx.quick else 3
    profiles = {n: _brute_profiles(n) for n in range(1, n_max + 1)}
    ys = {n: len(profiles[n]) for n in profiles}
    checked = 0
    # one-level distributions
    for d in range(1, d_max + 1):
        for k, series in profile_mod.level_series_progression(d, k_max, n_max):
            for n in range(1, n_max + 1):
                dist = profile_mod.exact_distribution(n, d, k, series=series, N=n_max)
                brute = {}
                for p in profiles[n]:
                    c = p.degree_count(d, k)
                    brute[c] = brute.get(c, 0) + 1
                bdist = {c: Fraction(v, ys[n]) for c, v in brute.items()}
                full = {l: dist.probs.get(l, Fraction(0)) for l in set(dist.probs) | set(bdist)}
                if any(full[l] != bdist.get(l, Fraction(0)) for l in full):
                    return _result(
                        3, "exact-profile oracle", t0, False,
                        f"distribution mismatch at n={n} d={d} k={k}",
                    )
                checked += 1
    # mixed moments
    for d1 in range(1, d_max + 1):
        for d2 in range(d1 + 1, d_max + 1):
            for k in range(k_max + 1):
                series = profile_mod.mixed_gamma_series(d1, d2, k, n_max)
                for n in range(1, n_max + 1):
                    got = Fraction(series[n], ys[n])
                    want = Fraction(
                        sum(p.degree_count(d1, k) * p.degree_count(d2, k) for p in profiles[n]),
                        ys[n],
                    )
                    if got != want:
                        return _result(
                            3, "exact-profile oracle", t0, False,
                            f"mixed moment mismatch n={n} d=({d1},{d2}) k={k}",
                        )
                    checked += 1
    # two-level joint distributions
    for d in range(1, d_max + 1):
        for h in range(1, h_max + 1):
            prog = profile_mod.two_level_series_progression(
                d, k_max, h, n_max, mode="full"
            )
            for k, series in prog:
                for n in range(1, n_max + 1):
                    joint = profile_mod.joint_distribution(n, d, k, h, series=series, N=n_max)
                    brute = {}
                    for p in profiles[n]:
                        key = (p.degree_count(d, k), p.degree_count(d, k + h))
                        brute[key] = brute.get(key, 0) + 1
                    bjoint = {key: Fraction(v, ys[n]) for key, v in brute.items()}
                    keys = set(joint) | set(bjoint)
                    if any(
                        joint.get(key, Fraction(0)) != bjoint.get(key, Fraction(0))
                        for key in keys
                    ):
                        return _result(
                            3, "exact-profile oracle", t0, False,
                            f"joint mismatch n={n} d={d} k={k} h={h}",
                        )
                    checked += 1
    return _result(
        3, "exact-profile oracle", t0, True,
        f"{checked} exact equalities (n<={n_max} d<={d_max} k<={k_max} h<={h_max})",
    )


# ---------------------------------------------------------------------------
# criterion 4: internal consistency of the exact machinery
# ---------------------------------------------------------------------------

def criterion_4(ctx):
    t0 = time.monotonic()
    N = 16 if ctx.quick else 30
    d_max = 3 if ctx.quick else 4
    y = tree_series(N)
    checked = 0
    for d in range(1, d_max + 1):
        means_from_dist = {}
        dist_prog = profile_mod.level_series_progression(d, N - 1, N)
        gamma_prog = profile_mod.gamma_series_progression(d, N - 1, N)
        D = degree_series(d, N).D
        for (k, series), (_, gamma) in zip(dist_prog, gamma_prog):
            for n in range(1, N + 1):
                dist = profile_mod.exact_distribution(n, d, k, series=series, N=N)
                m_dist = dist.mean()  # probabilities sum to 1 checked inside
                m_gamma = Fraction(gamma[n], y[n])
                if m_dist != m_gamma:
                    return _result(
                        4, "internal consistency", t0, False,
                        f"mean mismatch n={n} d={d} k={k}",
                    )
                means_from_dist.setdefault(n, Fraction(0))
                means_from_dist[n] += m_dist
                checked += 1
        for n in range(1, N + 1):
            want = Fraction(D[n], y[n])
            if means_from_dist[n] != want:
                return _result(
                    4, "internal consistency", t0, False,
                    f"level-sum mismatch n={n} d={d}: {means_from_dist[n]} != {want}",
                )
    return _result(
        4, "internal consistency", t0, True,
        f"{checked} exact (n<={N}, d<={d_max}) mean/level-sum/normalisation identities",
    )


# ---------------------------------------------------------------------------
# criterion 5: degree density vs mu_d
# ---------------------------------------------------------------------------

def criterion_5(ctx):
    t0 = time.monotonic()
    n = 120 if ctx.quick else 200
    cs = ctx.constants
    table = ctx.table(max(n, 200) if not ctx.quick else n)
    ok = True
    notes = []
    for d in (1, 2, 3):
        D = degree_series(d, n).D
        dens = D[n] / (n * table.y[n])
        rel = abs(float(dens) / cs.mu_d[d] - 1.0)
        notes.append(f"d={d}: density={float(dens):.6f} mu={cs.mu_d[d]:.6f} rel={rel:.4f}")
        ok = ok and rel <= 0.05
    return _result(5, "degree density", t0, ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# criterion 6: covariance limit (known red at the stated 15%)
# ---------------------------------------------------------------------------

def criterion_6(ctx):
    t0 = time.monotonic()
    cs = ctx.constants
    limit = limits_mod.eval_cov_limit(1, 2, 1.0, cs).value
    ns = (100, 256) if ctx.quick else (100, 400)
    ring = "double" if ctx.quick else "exact"
    gaps = {}
    covs = {}
    for n in ns:
        k = int(math.isqrt(n))
        tab = profile_mod.finite_covariance(
            1, 2, n, k,
            ring=ring, scale=cs.rho if ring == "double" else 1.0,
        )
        covs[n] = float(tab.covariance) / n
        gaps[n] = abs(covs[n] - limit)
    elapsed = time.monotonic() - t0
    shrinks = gaps[ns[0]] > gaps[ns[1]]
    details = (
        f"limit={limit:.6f} "
        + " ".join(f"cov/n(n={n})={covs[n]:.6f} gap={gaps[n]:.6f}" for n in ns)
        + f"; gap shrinks: {shrinks}; runtime<300s: {elapsed < 300}"
    )
    if ctx.quick:
        ok = shrinks and covs[ns[1]] > 0 and elapsed < 300
        return _result(6, "covariance limit (smoke)", t0, ok, details)
    rel = gaps[400] / abs(limit)
    ok = rel <= 0.15 and shrinks and elapsed < 300
    details += f"; rel gap at n=400 = {rel:.3f} (required <= 0.15)"
    return _result(6, "covariance limit", t0, ok, details)


# ---------------------------------------------------------------------------
# criterion 7: correlation convergence speed
# ---------------------------------------------------------------------------

def criterion_7(ctx):
    t0 = time.monotonic()
    ns = (100, 400) if ctx.quick else (400, 1600)
    rows = limits_mod.correlation_convergence_report(
        1, 2, 1.0, ns, constants=ctx.constants, ring="double"
    )
    v1, v2 = rows[0][2], rows[1][2]
    ratio = v2 / v1
    ok = 0.5 <= ratio <= 2.0
    details = (
        " ".join(f"sqrt(n)(1-corr)(n={n})={v:.4f}" for n, _, v in rows)
        + f"; ratio={ratio:.3f} in [0.5, 2]"
    )
    return _result(7, "correlation convergence", t0, ok, details)


# ---------------------------------------------------------------------------
# criterion 8: sampler uniformity
# ---------------------------------------------------------------------------

def criterion_8(ctx):
    t0 = time.monotonic()
    sizes = (5, 6) if ctx.quick else (5, 6, 7)
    samples = 20000 if ctx.quick else 100000
    ok = True
    notes = []
    for i, n in enumerate(sizes):
        table = ctx.table(max(n, 7))
        rng = sampling_mod.derive_rng(ctx.seed, 800 + i)
        counts = sampling_mod.sample_class_counts(n, samples, rng, table=table)
        classes = table.y[n]
        stat, dof, p = sampling_mod.chi_square_uniform(counts, classes, samples)
        notes.append(f"n={n}: chi2={stat:.1f} dof={dof} p={p:.4f}")
        ok = ok and p >= 1e-3
    return _result(8, "sampler uniformity", t0, ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# criterion 9: weak-convergence evidence
# ---------------------------------------------------------------------------

def _mean_spec(ctx, n, samples, seed_offset):
    return sampling_mod.MonteCarloSpec(
        n=n,
        degrees=(1,),
        kappas=(0.5, 1.0),
        t_values=(0.5, 1.0),
        samples=samples,
        seed=ctx.seed + seed_offset,
        tightness_grid=profile_mod.level_grid_for(n),
    )


def criterion_9(ctx):
    t0 = time.monotonic()
    cs = ctx.constants
    notes = []
    ok = True
    n_a = 400 if ctx.quick else 1600
    mc_a = ctx.mc("mc_a", _mean_spec(ctx, n_a, 1500 if ctx.quick else 4000, 910))
    for kappa in (0.5, 1.0):
        est, se = mc_a.mean(1, kappa)
        exact = profile_mod.scaled_level_mean(1, n_a, kappa, cs.rho)
        dev = abs(est - exact)
        ok = ok and dev <= 3.0 * se
        notes.append(
            f"mean(kappa={kappa}, n={n_a}): mc={est:.5f} exact={exact:.5f} |d|/se={dev / se:.2f}"
        )
    if not ctx.quick:
        mc_b = ctx.mc("mc_b", _mean_spec(ctx, 6400, 1500, 920))
        for t in (0.5, 1.0):
            z_a, _ = mc_a.char_function(1, 1.0, t)
            z_b, _ = mc_b.char_function(1, 1.0, t)
            diff = abs(z_a - z_b)
            ok = ok and diff <= 0.05
            notes.append(f"ecf(t={t}): |phi_1600-phi_6400|={diff:.4f} (<=0.05)")
    # psi structural properties
    psi0 = limits_mod.eval_psi(0.0, 1, 1.0, cs)
    ok = ok and abs(psi0.value - 1.0) <= 1e-9 and psi0.quadrature_error < 1e-6
    notes.append(
        f"|psi(0)-1|={abs(psi0.value - 1.0):.1e} quad err={psi0.quadrature_error:.1e}"
    )
    sym_ok = True
    bound_ok = True
    for t in (0.5, 1.0, 2.0, 3.5, 5.0):
        zp = limits_mod.eval_psi(t, 1, 1.0, cs)
        zm = limits_mod.eval_psi(-t, 1, 1.0, cs)
        sym_ok = sym_ok and abs(zp.value.conjugate() - zm.value) <= 1e-9
        bound_ok = bound_ok and abs(zp.value) <= 1.0 + 1e-9
        ok = ok and zp.quadrature_error < 1e-6
    ok = ok and sym_ok and bound_ok
    notes.append(f"psi conj-symmetry: {sym_ok}; |psi|<=1: {bound_ok}")
    return _result(9, "weak-convergence evidence", t0, ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# criterion 10: tightness evidence
# ---------------------------------------------------------------------------

def criterion_10(ctx):
    t0 = time.monotonic()
    notes = []
    ok = True
    if ctx.quick:
        ns_samples = ((100, 4000), (400, 4000))
    else:
        ns_samples = ((100, 20000), (400, 20000), (1600, 4000))
    maxima = {}
    for i, (n, s) in enumerate(ns_samples):
        if n == 1600:
            # same run criterion 9 uses, so the shared cache is deterministic
            # no matter which criterion executes first
            mc = ctx.mc("mc_a", _mean_spec(ctx, 1600, 4000, 910))
        else:
            spec = sampling_mod.MonteCarloSpec(
                n=n,
                degrees=(1,),
                kappas=(1.0,),
                samples=s,
                seed=ctx.seed + 100 + i,
                tightness_grid=profile_mod.level_grid_for(n),
            )
            mc = ctx.mc(f"mc_t{n}", spec)
        est, se, r, h = mc.tightness_max()
        maxima[n] = est
        notes.append(f"n={n}: max ratio={est:.3f} at (r={r},h={h})")
    spread = max(maxima.values()) / min(maxima.values())
    ok = ok and spread <= 2.0
    notes.append(f"largest/smallest={spread:.3f} (<=2)")
    # exact 4th-moment oracle vs Monte Carlo at small n
    n_o = 16 if ctx.quick else 30
    r_o, h_o = (2, 2) if ctx.quick else (3, 2)
    exact = float(profile_mod.level_difference_moment(n_o, r_o, h_o, power=4))
    spec = sampling_mod.MonteCarloSpec(
        n=n_o,
        degrees=(1,),
        kappas=(1.0,),
        samples=20000 if ctx.quick else 40000,
        seed=ctx.seed + 140,
        tightness_grid=((r_o,), (h_o,)),
    )
    mc = ctx.mc("mc_oracle", spec)
    est, se = mc.tightness_ratio(r_o, h_o)
    est_raw = est * (h_o * h_o * n_o)
    se_raw = se * (h_o * h_o * n_o)
    dev = abs(est_raw - exact)
    ok = ok and dev <= 3.0 * se_raw
    notes.append(
        f"exact E(L({r_o})-L({r_o + h_o}))^4 at n={n_o}: {exact:.4f} vs mc {est_raw:.4f} "
        f"(|d|/se={dev / se_raw:.2f})"
    )
    return _result(10, "tightness evidence", t0, ok, "; ".join(notes))


# ---------------------------------------------------------------------------
# criterion 11: determinism of verify --quick
# ---------------------------------------------------------------------------

def criterion_11(ctx):
    t0 = time.monotonic()
    if ctx.quick:
        # non-recursive self-check: a stochastic run and the constants
        # pipeline are bit-identical when repeated
        spec = sampling_mod.MonteCarloSpec(
            n=100, degrees=(1, 2), kappas=(1.0,), samples=400, seed=ctx.seed + 7,
            tightness_grid=profile_mod.level_grid_for(100),
        )
        a = sampling_mod.monte_carlo(spec, table=ctx.table(100), threads=1)
        b = sampling_mod.monte_carlo(spec, table=ctx.table(100), threads=ctx.threads)
        same_mc = a.sums == b.sums and a.count == b.count
        c1 = const_mod.compute_constants(200, degrees=(1,))
        c2 = const_mod.compute_constants(200, degrees=(1,))
        same_const = (c1.rho, c1.b, c1.C, c1.Cd) == (c2.rho, c2.b, c2.C, c2.Cd)
        ok = same_mc and same_const
        return _result(
            11, "determinism (self-check)", t0, ok,
            f"monte carlo bit-identical: {same_mc}; constants bit-identical: {same_const}",
        )
    sub1 = run_acceptance(quick=True, seed=ctx.seed, cache_dir=ctx.cache_dir, threads=1)
    sub2 = run_acceptance(quick=True, seed=ctx.seed, cache_dir=ctx.cache_dir, threads=1)
    r1 = render_report(sub1, header=False)
    r2 = render_report(sub2, header=False)
    elapsed = time.monotonic() - t0
    quick_time = max(sum(r.elapsed for r in sub1), sum(r.elapsed for r in sub2))
    quick_green = all(r.passed for r in sub1)
    ok = (r1 == r2) and quick_time < 600.0 and quick_green
    return _result(
        11, "determinism of verify --quick", t0, ok,
        f"byte-reproducible: {r1 == r2}; quick pass green: {quick_green}; "
        f"quick runtime {quick_time:.0f}s < 600s",
    )


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_acceptance(quick=False, seed=DEFAULT_SEED, cache_dir=None, threads=1,
                   numbers=None):
    known = set(range(1, len(CRITERIA) + 1))
    if numbers is not None and not (numbers and set(numbers) <= known):
        raise UsageError(f"criteria are numbered 1..{len(CRITERIA)}, got {sorted(numbers)}")
    ctx = AcceptanceContext(quick=quick, seed=seed, cache_dir=cache_dir, threads=threads)
    results = []
    for fn in CRITERIA:
        number = int(fn.__name__.split("_")[1])
        if numbers is not None and number not in numbers:
            continue
        results.append(fn(ctx))
    return results


def render_report(results, header=True, timestamp=None, extra_header=()):
    lines = []
    if header:
        lines.append("# polyaprofile acceptance report")
        lines.extend(f"# {item}" for item in extra_header)
        if timestamp is not None:
            lines.append(f"# generated: {timestamp}")
    lines.extend(r.line() for r in results)
    n_pass = sum(r.passed for r in results)
    lines.append(f"TOTAL: {n_pass}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"
