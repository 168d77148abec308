"""The three polyaprofile benchmark workloads.

A workload has a one-line ``WHY`` (the reason it is in the benchmark), a
``setup`` (the lazy set-up its calls need, timed as ``setup_s``), the
``units`` of one round of the timed phase and a ``check`` of the outputs of
all rounds, run outside the timed phase.  A unit is a short piece of work
(0.3 to 6 s) that is timed on its own; each belongs to path ``a`` or ``b``,
and the two path times are reported apart so that a gain on one path cannot
hide a loss on the other.  Rounds repeat until the run's seconds are used.

Every public-API call goes through ``Ops.call``.  An operation fails when it
raises or when its output fails a check.  Program functions are looked up on
their module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from polyaprofile import constants, enumeration, limits, profile, sampling

CACHE_SIZES = (1600, 6400)  # count tables the montecarlo workload loads from disk
CACHE_MARKER = "filled"

# criterion 1's tolerances on the singularity constants
RHO_TARGET, RHO_TOL = 0.3383219, 1e-5
B_TARGET, B_TOL = 2.681, 1e-2
C_TARGET, C_TOL = 7.758, 1e-3

# E[(L(3) - L(5))^4] at n = 30 over all levels, from the full joint law
# profile.joint_distribution(30, None, 3, 2) (a route independent of the
# tightness marking that level_difference_moment uses; 13 s to recompute).
LEVEL_DIFFERENCE_30_3_2_P4 = Fraction(100193270351751, 354426847597)


class Ops:
    """Counts attempted and failed operations; a failed one never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.errors = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the failure is counted and reported
            self.fail(label, repr(exc))
            return None

    def verify(self, label, predicate, what):
        """Fail ``label`` unless ``predicate()`` is true; raising counts as false."""
        try:
            ok = bool(predicate())
        except Exception as exc:  # e.g. the checked output is missing
            ok, what = False, f"{what}: {exc!r}"
        if not ok:
            self.fail(label, what)

    def fail(self, label, what):
        self.failed.add(label)
        self.errors.append(f"{label}: {what}")


def ensure_count_cache(cache_dir):
    """Build every count table the benchmark loads, once; returns "hit" or "built"."""
    marker = cache_dir / CACHE_MARKER
    if marker.is_file():
        return "hit"
    cache_dir.mkdir(parents=True, exist_ok=True)
    for n in CACHE_SIZES:
        enumeration.count_trees(n, cache_dir=str(cache_dir))
    marker.write_text("count tables built for n = %s\n" % ", ".join(map(str, CACHE_SIZES)))
    return "built"


def count_table_problem(y, n_max, rng, extra_rows=4):
    """None when y[0..n_max] satisfies the Euler recurrence on the rows checked.

    The divisor sums s_k = sum_{d|k} d y_d are recomputed here from y, so
    nothing the loader derived is trusted.  Rows: the last one and
    ``extra_rows`` drawn from ``rng``.
    """
    if len(y) != n_max + 1 or y[0] != 0 or y[1] != 1:
        return f"malformed table of {len(y)} rows"
    s = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dy = d * y[d]
        for m in range(d, n_max + 1, d):
            s[m] += dy
    rows = {n_max} | {rng.randrange(2, n_max) for _ in range(extra_rows)}
    for m in sorted(rows):
        if (m - 1) * y[m] != sum(s[k] * y[m - k] for k in range(1, m)):
            return f"Euler recurrence fails at row {m}"
    return None


def canonical(value):
    """A form whose == is bit-for-bit equality of a workload output."""
    if isinstance(value, constants.ConstantsSet):
        return (value.rho, value.b, value.C, value.Cd, value.mu_d)  # err holds a wall time
    if isinstance(value, sampling.MonteCarloResult):
        return (value.count, value.sums)
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def same_outputs(a, b):
    return a.keys() == b.keys() and all(canonical(a[k]) == canonical(b[k]) for k in a)


class Workload:
    """Interface of a workload; see the module docstring."""

    WHY = ""
    # True when every round draws new inputs: a unit's time is then the mean
    # over rounds (the expected cost of one round's inputs), else the median
    FRESH_INPUTS = False
    TRACE_ROUNDS = 1  # rounds in the traced run

    def setup(self, ops):
        """The lazy set-up the timed calls need."""

    def check_setup(self, ops):
        """Check what set-up loaded; outside the timed set-up."""

    def units(self, ops, round_index, tag):
        """The units of one round: a list of (unit name, path, thunk)."""
        raise NotImplementedError

    def figures(self, unit_s):
        """The workload's named figures from per-unit seconds: name -> (value, unit)."""
        raise NotImplementedError

    def check(self, ops, rounds):
        """Check every round's outputs ({unit name: output} per round)."""
        raise NotImplementedError

    def check_repeats(self, ops, rounds):
        """Rounds of the same inputs must reproduce the first round's outputs exactly."""
        first = rounds[0]
        for i, outputs in enumerate(rounds[1:], start=1):
            ops.verify(f"round{i}.outputs", lambda: same_outputs(first, outputs),
                       "a repeated round gave different outputs")


class MonteCarlo(Workload):
    WHY = ("criterion 9's Monte Carlo at two sizes: the big-integer selection walk dominates "
           "n = 6400, tree emission and profile extraction dominate n = 1600")
    TREES = {1600: 15, 6400: 10}  # trees per round
    PATHS = {1600: "a", 6400: "b"}
    SEED_STRIDE = 100003  # round r of seed s samples with MonteCarloSpec.seed = s * stride + r
    FRESH_INPUTS = True
    TRACE_ROUNDS = 4

    def __init__(self, seed, cache_dir):
        self.seed = seed
        self.cache_dir = cache_dir
        self.tables = {}
        self.specs = {
            n: sampling.MonteCarloSpec(
                n=n, degrees=(1, 2), kappas=(0.5, 1.0), t_values=(0.5, 1.0),
                samples=trees, seed=0, tightness_grid=profile.level_grid_for(n),
            )
            for n, trees in self.TREES.items()
        }

    def spec(self, n, round_index):
        return replace(self.specs[n], seed=self.seed * self.SEED_STRIDE + round_index)

    def setup(self, ops):
        for n in self.TREES:
            self.tables[n] = ops.call(
                f"setup.count_trees.n{n}", enumeration.count_trees, n, cache_dir=str(self.cache_dir)
            )

    def check_setup(self, ops):
        rng = random.Random(self.seed)
        for n, table in self.tables.items():
            ops.verify(f"setup.count_trees.n{n}",
                       lambda: count_table_problem(table.y, n, rng) is None,
                       f"count table n={n} fails the Euler recurrence check")

    def _unit(self, ops, n, round_index, tag):
        spec = self.spec(n, round_index)
        return lambda: ops.call(f"{tag}.mc_n{n}", lambda: sampling.monte_carlo(
            spec, table=self.tables[n], threads=1))

    def units(self, ops, round_index, tag):
        return [(f"mc_n{n}", self.PATHS[n], self._unit(ops, n, round_index, tag))
                for n in self.TREES]

    def figures(self, unit_s):
        return {f"mc_n{n}.trees_per_s": (trees / unit_s[f"mc_n{n}"], "1/s")
                for n, trees in self.TREES.items()}

    def check(self, ops, rounds):
        for i, outputs in enumerate(rounds):
            for n, trees in self.TREES.items():
                ops.verify(f"round{i}.mc_n{n}", lambda: outputs[f"mc_n{n}"].count == trees,
                           f"count != samples ({trees})")
        # the same inputs must give the same outputs: rerun round 0 at n = 1600, untimed
        again = self._unit(ops, 1600, 0, "recheck")()
        ops.verify("recheck.mc_n1600", lambda: canonical(again) == canonical(rounds[0]["mc_n1600"]),
                   "a rerun of round 0 gave different outputs")
        rho = ops.call("check.compute_rho", constants.compute_rho, 400)
        rho = rho[0] if rho else None

        def merged():  # every round's n = 1600 trees as one Monte Carlo result
            parts = [outputs["mc_n1600"] for outputs in rounds]
            sums = {key: sum(p.sums[key] for p in parts) for key in parts[0].sums}
            count = sum(p.count for p in parts)
            return sampling.MonteCarloResult(replace(parts[0].spec, samples=count), count, sums)

        for kappa in (0.5, 1.0):
            exact = ops.call(f"check.scaled_level_mean.{kappa}", profile.scaled_level_mean,
                             1, 1600, kappa, rho)

            def within_4se():
                est, se = merged().mean(1, kappa)
                return abs(est - exact) <= 4.0 * se

            ops.verify("rounds.mc_n1600", within_4se, f"d=1 kappa={kappa} mean off by > 4 se")


class Exact(Workload):
    WHY = ("exact-rational queries on both routes: derivative-recurrence covariance at n = 400 "
           "and the marked series; only here do exact series and profile dominate")
    SERIES_ORDERS = (400, 100, 60, 30)
    MARKED = (  # (unit name, profile function, args, kwargs)
        ("factorial_moments", "factorial_moments_from_marked", (100, 1, 10), {"order": 2}),
        ("mixed_moment", "mixed_degree_moment_from_marked", (60, 1, 2, 6), {}),
        ("level_difference", "level_difference_moment", (30, 3, 2), {"power": 4}),
        ("distribution", "exact_distribution", (30, 1, 3), {}),
    )

    def __init__(self, seed, cache_dir):
        # the seed only orders the marked queries; it never changes the work
        self.marked = list(self.MARKED)
        random.Random(seed).shuffle(self.marked)

    def setup(self, ops):
        for N in self.SERIES_ORDERS:
            ops.call(f"setup.tree_series.N{N}", enumeration.tree_series, N)

    def units(self, ops, round_index, tag):
        def marked(name, fn, args, kwargs):
            return lambda: ops.call(f"{tag}.{name}", lambda: getattr(profile, fn)(*args, **kwargs))

        cov = ("cov", "a", lambda: ops.call(f"{tag}.cov",
                                            lambda: profile.finite_covariance(1, 2, 400, 20)))
        return [cov] + [(name, "b", marked(name, fn, args, kwargs))
                        for name, fn, args, kwargs in self.marked]

    def figures(self, unit_s):
        return {"exact.cov_s": (unit_s["cov"], "s"),
                "exact.marked_s": (sum(unit_s[name] for name, *_ in self.MARKED), "s")}

    def check(self, ops, rounds):
        self.check_repeats(ops, rounds)
        r = rounds[0]

        def ratio(series, n):
            return Fraction(series[n], enumeration.tree_series(n)[n])

        g_100 = ops.call("check.gamma_series.n100", profile.gamma_series, 1, 10, 100)
        f_100 = ops.call("check.second_factorial_series.n100",
                         profile.second_factorial_series, 1, 10, 100)
        ops.verify("round0.factorial_moments",
                   lambda: r["factorial_moments"] == [1, ratio(g_100, 100), ratio(f_100, 100)],
                   "marked factorial moments differ from the derivative route")
        mixed = ops.call("check.mixed_gamma_series", profile.mixed_gamma_series, 1, 2, 6, 60)
        ops.verify("round0.mixed_moment", lambda: r["mixed_moment"] == ratio(mixed, 60),
                   "marked mixed moment differs from mixed_gamma_series")
        ops.verify("round0.level_difference",
                   lambda: r["level_difference"] == LEVEL_DIFFERENCE_30_3_2_P4,
                   "E(L(3)-L(5))^4 at n=30 differs from the joint-law value")
        g_30 = ops.call("check.gamma_series.n30", profile.gamma_series, 1, 3, 30)
        f_30 = ops.call("check.second_factorial_series.n30",
                        profile.second_factorial_series, 1, 3, 30)
        ops.verify("round0.distribution",
                   lambda: (r["distribution"].mean(), r["distribution"].second_factorial())
                   == (ratio(g_30, 30), ratio(f_30, 30)),
                   "distribution moments differ from the derivative route")
        double = ops.call("check.finite_covariance.double", profile.finite_covariance,
                          1, 2, 400, 20, ring="double", scale=constants.APPROX_RADIUS)
        ops.verify("round0.cov",
                   lambda: abs(float(r["cov"].covariance) - double.covariance)
                   <= 1e-9 * abs(float(r["cov"].covariance)),
                   "exact covariance differs from the double ring by > 1e-9 relative")


class Asymptotics(Workload):
    WHY = ("the numeric side: constants, psi quadrature and double-ring series; the only "
           "workload using constants and limits, with a cold count build in set-up")
    SERIES_ORDERS = (400, 900, 1600)
    CONSTANTS_REPEATS = 8  # one compute_constants call is too short to time steadily
    PSI_POINTS = 20  # psi is evaluated at 0 and at +-t for this many seeded t

    def __init__(self, seed, cache_dir):
        # the seed only places psi's t points; every point costs the same quadrature
        rng = random.Random(seed)
        ts = sorted(rng.uniform(0.25, 5.0) for _ in range(self.PSI_POINTS))
        self.t_grid = (0.0, *ts, *(-t for t in ts))
        self.cs = None

    def setup(self, ops):
        for N in self.SERIES_ORDERS:
            ops.call(f"setup.tree_series.N{N}", enumeration.tree_series, N)

    def units(self, ops, round_index, tag):
        def constants_unit():
            out = [ops.call(f"{tag}.constants.{i}", lambda: constants.compute_constants(
                400, degrees=range(1, 11))) for i in range(self.CONSTANTS_REPEATS)]
            self.cs = out[0]  # the later units of this round use this round's constants
            return out

        return [
            ("constants", "b", constants_unit),
            ("corr", "a", lambda: ops.call(f"{tag}.corr", lambda: limits.correlation_convergence_report(
                1, 2, 1.0, self.SERIES_ORDERS, constants=self.cs, ring="double"))),
            ("means", "a", lambda: ops.call(f"{tag}.means", lambda: limits.eval_limit_mean(
                1, 1.0, self.cs))),
            ("psi", "b", lambda: [ops.call(f"{tag}.psi.{i}", lambda: limits.eval_psi(t, 1, 1.0, self.cs))
                                  for i, t in enumerate(self.t_grid)]),
        ]

    def figures(self, unit_s):
        return {
            "asym.constants_s": (unit_s["constants"] / self.CONSTANTS_REPEATS, "s"),
            "asym.corr_s": (unit_s["corr"], "s"),
            "asym.means_s": (unit_s["means"], "s"),
            "asym.psi_per_s": (len(self.t_grid) / unit_s["psi"], "1/s"),
        }

    def check(self, ops, rounds):
        self.check_repeats(ops, rounds)
        r = rounds[0]
        css = r["constants"]
        cs = css[0]
        ops.verify("round0.constants.0",
                   lambda: abs(cs.rho - RHO_TARGET) <= RHO_TOL and abs(cs.b - B_TARGET) <= B_TOL
                   and abs(cs.C - C_TARGET) <= C_TOL,
                   "rho, b or C outside criterion 1's tolerances")
        for i, other in enumerate(css[1:], start=1):
            ops.verify(f"round0.constants.{i}", lambda: canonical(other) == canonical(cs),
                       "compute_constants is not reproducible")
        psi = dict(zip(self.t_grid, r["psi"]))
        labels = {t: f"round0.psi.{i}" for i, t in enumerate(self.t_grid)}
        ops.verify(labels[0.0], lambda: abs(psi[0.0].value - 1.0) <= 1e-9, "|psi(0) - 1| > 1e-9")
        for t, ev in psi.items():
            ops.verify(labels[t], lambda: abs(ev.value) <= 1.0 + 1e-9 and ev.quadrature_error < 1e-6,
                       f"|psi({t})| > 1 or quadrature error >= 1e-6")
            if t > 0:
                ops.verify(labels[t], lambda: abs(ev.value.conjugate() - psi[-t].value) <= 1e-9,
                           f"psi(-{t}) is not conj(psi({t}))")

        def corr_ratio_ok():
            v = [row[2] for row in r["corr"]]
            return all(0.5 <= b / a <= 2.0 for a, b in zip(v, v[1:]))

        ops.verify("round0.corr", corr_ratio_ok, "sqrt(n)(1-corr) ratio outside [0.5, 2]")

        def mean_ok():
            closed = limits.limit_mean(1, 1.0, cs)
            return abs(r["means"].value - closed) / closed < 0.005

        ops.verify("round0.means", mean_ok, "extrapolated limit mean off the closed form by >= 0.5%")


WORKLOADS = {"montecarlo": MonteCarlo, "exact": Exact, "asymptotics": Asymptotics}
