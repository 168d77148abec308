"""Uniform random generation of unlabelled rooted trees and profile statistics.

The sampler is the classical recursive decomposition driven by the
Euler-transform identity

    (n-1) y_n = sum_{j d <= n-1} d y_d y_{n-jd}:

pick (j, d) with probability d y_d y_{n-jd} / ((n-1) y_n), sample a tree T'
of size n - jd and one tree D of size d, and attach j identical copies of D
to the root of T'.  Induction gives a uniform isomorphism class of size n.

One walk emits the tree flat, as preorder lists ``parent``, ``child_count``
and ``level`` in the order :meth:`PolyaTree.from_shape` gives.  Picking
(j, d) appends j leaves at once when d = 1, else the root of D and a frame
for it; a filled frame's subtree is the block from its root to the end of
the lists, and its j - 1 copies are that block appended again with parent
indices offset.  Draws thus follow the preorder of the recursion.

Selection draws an exact integer R uniform in [0, (n-1) y_n) and returns the
pair whose interval of cumulative big-integer weights holds R; the walk is
ordered j = 1, d descending, which covers the probability mass in
O(sqrt(n)) expected steps.  R is drawn inline: ``getrandbits(k)``, k the
bit length of the total, until below the total.  That is the body of
``Random._randbelow_with_getrandbits``, which ``rng.randrange(total)``
runs on Python 3.10 to 3.13, so seeded streams are those of ``randrange``.
Sizes n <= 64 bisect a precomputed table of cumulative weights.  Larger
sizes walk a float guide first (Denise & Zimmermann, TCS 218, 1999): the
weights rescaled by c^n with c = rho,

    d y_d y_{n-jd} c^n = g_d fy_{n-jd} c^{(j-1)d},   fy_k = y_k c^k,  g_d = d fy_d,

summed in double precision and compared with u = R / ((n-1) y_n), which
Python rounds correctly.  Each rescaled weight is within a relative 1e-12
of its exact value at n = 6400, so the float sums are within about 1e-11
of the exact ones, relative to the total.  The guide returns a pair only
when u lies more than ``_BAND`` (1e-9 of the total) inside both ends of the
pair's float interval; then R lies inside the exact interval too.
Otherwise the exact big-integer walk decides, for the same R.  The band
changes speed, never results: every draw gives the pair the exact walk
gives, and uniformity stays exact.

Profile statistics use the planted degree convention (degree = 1 + number of
children, root included) and level 0 at the root, matching the exact series
in :mod:`polyaprofile.profile`.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .enumeration import CountTable, canonical_shape, count_trees
from .errors import UsageError

_MEMO_CUTOFF = 64  # sizes with a precomputed cumulative selection table
_RHO = 0.3383218568992077  # float weights are rescaled by rho^n: y_k rho^k = Theta(k^-1.5)
_BAND = 1e-9  # guard band of the float guide, relative to the weight total
# Monte Carlo runs split into this many seeded streams, merged in a fixed
# order, so results do not depend on the thread count; another count would
# change every seeded result.
_CHUNKS = 16


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyaTree:
    """Flat tree: parent[i] < i for i >= 1, parent[0] = -1."""

    parent: tuple
    child_count: tuple

    @property
    def n(self):
        return len(self.parent)

    @classmethod
    def from_shape(cls, shape):
        parent = [-1]
        child_count = [len(shape)]
        stack = [(c, 0) for c in reversed(shape)]
        while stack:
            t, p = stack.pop()
            idx = len(parent)
            parent.append(p)
            child_count.append(len(t))
            stack.extend((c, idx) for c in reversed(t))
        return cls(tuple(parent), tuple(child_count))

    def levels(self):
        """level[i] = distance from the root (parents precede children)."""
        lev = [0] * self.n
        par = self.parent
        for i in range(1, self.n):
            lev[i] = lev[par[i]] + 1
        return np.asarray(lev, dtype=np.int64)

    def degrees(self):
        return np.asarray(self.child_count, dtype=np.int64) + 1


@dataclass(frozen=True)
class ProfileSample:
    """Per-level totals and per-degree counts for one tree."""

    n: int
    level_counts: np.ndarray          # L(k), k = 0..height
    degree_level_counts: np.ndarray   # [d-1, k] for d = 1..d_max
    d_max: int

    @property
    def height(self):
        return len(self.level_counts) - 1

    def total(self, k):
        return int(self.level_counts[k]) if 0 <= k <= self.height else 0

    def degree_count(self, d, k):
        if 1 <= d <= self.d_max and 0 <= k <= self.height:
            return int(self.degree_level_counts[d - 1, k])
        return 0


def extract_profile(tree, d_max):
    """BFS level decomposition with per-degree counts (degree = children + 1)."""
    return _profile(tree.levels(), tree.child_count, d_max)


def _profile(level, child_count, d_max):
    lev = np.asarray(level, dtype=np.int64)
    deg = np.asarray(child_count, dtype=np.int64) + 1
    height = int(lev.max()) if len(lev) else 0
    level_counts = np.bincount(lev, minlength=height + 1)
    dl = np.zeros((d_max, height + 1), dtype=np.int64)
    mask = deg <= d_max
    if mask.any():
        flat = (deg[mask] - 1) * (height + 1) + lev[mask]
        counts = np.bincount(flat, minlength=d_max * (height + 1))
        dl = counts.reshape(d_max, height + 1)
    return ProfileSample(len(lev), level_counts, dl, d_max)


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

class TreeSampler:
    """Exact-size uniform sampler over isomorphism classes."""

    def __init__(self, table: CountTable):
        self.table = table
        self.y = table.y
        # float guide, c = _RHO: fy[k] = y_k c^k, g[d] = d y_d c^d, cpow[m] = c^m
        log_c = math.log(_RHO)
        fy = [0.0] + [math.exp(math.log(v) + k * log_c)
                      for k, v in enumerate(table.y[1:], 1)]
        self._fy = fy
        self._g = [d * f for d, f in enumerate(fy)]
        self._cpow = [_RHO ** m for m in range(table.n_max + 1)]
        # per size, filled on first use: the total (n-1) y_n, its bit length,
        # and for n <= _MEMO_CUTOFF the cumulative selection table
        self._totals = [None] * (table.n_max + 1)
        self._bits = [0] * (table.n_max + 1)
        self._tables = [None] * (_MEMO_CUTOFF + 1)

    def _weights(self, n):
        """(j, d, d y_d y_{n-jd}) in walk order: j ascending, d descending."""
        y = self.y
        for j in range(1, n):
            for d in range((n - 1) // j, 0, -1):
                yield j, d, d * y[d] * y[n - j * d]

    def _total(self, n):
        total = self._totals[n] = (n - 1) * self.y[n]
        self._bits[n] = total.bit_length()
        return total

    def _selection_table(self, n):
        """(cumulative weights, pairs) of size n <= _MEMO_CUTOFF."""
        cums, pairs, acc = [], [], 0
        for j, d, w in self._weights(n):
            acc += w
            cums.append(acc)
            pairs.append((j, d))
        tab = self._tables[n] = (cums, pairs)
        return tab

    def _walk_exact(self, n, R):
        """The pair whose interval of exact cumulative weights holds R."""
        acc = 0
        for j, d, w in self._weights(n):
            acc += w
            if R < acc:
                return j, d
        raise AssertionError("selection walk exhausted the weight total")

    def _choose(self, n, R):
        """The pair for draw R at a size n > _MEMO_CUTOFF: float guide, exact fallback."""
        fy, g, cpow = self._fy, self._g, self._cpow
        scale = (n - 1) * fy[n]          # the total, rescaled by c^n
        target = R / (self._totals[n] or self._total(n)) * scale
        band = _BAND * scale
        acc = 0.0
        for d in range(n - 1, 0, -1):    # j = 1, where c^((j-1)d) = 1
            prev = acc
            acc += g[d] * fy[n - d]
            if target < acc:
                if target - prev > band and acc - target > band:
                    return 1, d
                return self._walk_exact(n, R)
        for j in range(2, n):
            for d in range((n - 1) // j, 0, -1):
                prev = acc
                acc += g[d] * fy[n - j * d] * cpow[(j - 1) * d]
                if target < acc:
                    if target - prev > band and acc - target > band:
                        return j, d
                    return self._walk_exact(n, R)
        return self._walk_exact(n, R)

    def sample_flat(self, n, rng):
        """Preorder (parent, child_count, level) lists of a uniform tree of n nodes."""
        if n < 1 or n > self.table.n_max:
            raise UsageError(f"size {n} outside the count table (<= {self.table.n_max})")
        getrandbits = rng.getrandbits
        totals, bits, tables, choose = self._totals, self._bits, self._tables, self._choose
        parent, count, level = [-1], [0], [0]
        stack = [[0, n, 1]]  # frame: [root index, size left to fill, copies wanted]
        while stack:
            r, m, copies = frame = stack[-1]
            if m == 1:  # subtree done: it is the block parent[r:], copied copies - 1 times
                stack.pop()
                if copies > 1:
                    size, p, par = len(parent) - r, parent[r], parent[r + 1:]
                    count += count[r:] * (copies - 1)
                    level += level[r:] * (copies - 1)
                    for off in range(size, size * copies, size):
                        parent.append(p)
                        parent += [q + off for q in par]
                continue
            total = totals[m] or self._total(m)
            k = bits[m]
            R = getrandbits(k)  # rng.randrange(total), inline
            while R >= total:
                R = getrandbits(k)
            if m <= _MEMO_CUTOFF:
                cums, pairs = tables[m] or self._selection_table(m)
                j, d = pairs[bisect_right(cums, R)]
            else:
                j, d = choose(m, R)
            frame[1] = m - j * d
            count[r] += j
            lv = level[r] + 1
            if d == 1:
                parent += [r] * j
                count += [0] * j
                level += [lv] * j
            else:
                stack.append([len(parent), d, j])
                parent.append(r)
                count.append(0)
                level.append(lv)
        return parent, count, level

    def sample_shape(self, n, rng):
        """Nested-tuple tree of exactly n nodes, uniform over classes."""
        parent, _, _ = self.sample_flat(n, rng)
        kids = [[] for _ in parent]  # filled last child first, since children follow parents
        for i in range(n - 1, 0, -1):
            kids[parent[i]].append(tuple(reversed(kids[i])))
        return tuple(reversed(kids[0]))

    def sample_tree(self, n, rng):
        parent, count, _ = self.sample_flat(n, rng)
        return PolyaTree(tuple(parent), tuple(count))


# n_max -> the sampler of the last count table of that size seen.  A kept
# sampler's per-size totals fill as walks reach them, up to about the size of
# the table itself (4 MB at n = 6400).
_SAMPLERS = {}


def _sampler_for(table):
    """The TreeSampler of this count table: its float guide and small-size
    tables are built once, not on every call, and an unequal table gets its own."""
    sampler = _SAMPLERS.get(table.n_max)
    if sampler is None or sampler.table != table:
        sampler = _SAMPLERS[table.n_max] = TreeSampler(table)
    return sampler


def derive_rng(seed, stream_index):
    """Independent deterministic stream for (seed, worker index)."""
    digest = hashlib.sha256(f"{seed}:{stream_index}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloSpec:
    n: int
    degrees: tuple = (1, 2)
    kappas: tuple = (0.5, 1.0)
    t_values: tuple = ()
    samples: int = 1000
    seed: int = 0
    tightness_grid: tuple = ()  # ((r...), (h...)) or () to skip

    def level_of(self, kappa):
        return int(kappa * math.sqrt(self.n))


class _Accumulator:
    def __init__(self, spec):
        self.spec = spec
        self.count = 0
        g = {}
        for d in spec.degrees:
            for kap in spec.kappas:
                g[("m", d, kap)] = 0.0
                g[("m2", d, kap)] = 0.0
                for t in spec.t_values:
                    g[("cos", d, kap, t)] = 0.0
                    g[("sin", d, kap, t)] = 0.0
        for i, d1 in enumerate(spec.degrees):
            for d2 in spec.degrees[i + 1 :]:
                for kap in spec.kappas:
                    g[("xy", d1, d2, kap)] = 0.0
        if spec.tightness_grid:
            rs, hs = spec.tightness_grid
            for r in rs:
                for h in hs:
                    g[("t4", r, h)] = 0.0
                    g[("t8", r, h)] = 0.0
        self.g = g

    def add_tree(self, profile):
        spec = self.spec
        g = self.g
        self.count += 1
        sq = math.sqrt(spec.n)
        for kap in spec.kappas:
            k = spec.level_of(kap)
            vals = {}
            for d in spec.degrees:
                v = profile.degree_count(d, k) / sq
                vals[d] = v
                g[("m", d, kap)] += v
                g[("m2", d, kap)] += v * v
                for t in spec.t_values:
                    g[("cos", d, kap, t)] += math.cos(t * v)
                    g[("sin", d, kap, t)] += math.sin(t * v)
            for i, d1 in enumerate(spec.degrees):
                for d2 in spec.degrees[i + 1 :]:
                    g[("xy", d1, d2, kap)] += vals[d1] * vals[d2]
        if spec.tightness_grid:
            rs, hs = spec.tightness_grid
            for r in rs:
                for h in hs:
                    delta = profile.total(r) - profile.total(r + h)
                    w = float(delta) ** 4
                    g[("t4", r, h)] += w
                    g[("t8", r, h)] += w * w

    def merge(self, other):
        self.count += other.count
        for key, v in other.g.items():
            self.g[key] += v


@dataclass(frozen=True)
class MonteCarloResult:
    spec: MonteCarloSpec
    count: int
    sums: dict = field(repr=False)

    def _mean_se(self, key_m, key_m2):
        S = self.count
        m = self.sums[key_m] / S
        var = max(self.sums[key_m2] / S - m * m, 0.0)
        return m, math.sqrt(var / S)

    def mean(self, d, kappa):
        """(estimate, stderr) of E l_n^{(d)}(kappa)."""
        return self._mean_se(("m", d, kappa), ("m2", d, kappa))

    def variance(self, d, kappa):
        S = self.count
        m = self.sums[("m", d, kappa)] / S
        return max(self.sums[("m2", d, kappa)] / S - m * m, 0.0)

    def covariance(self, d1, d2, kappa):
        S = self.count
        m1 = self.sums[("m", d1, kappa)] / S
        m2 = self.sums[("m", d2, kappa)] / S
        return self.sums[("xy", d1, d2, kappa)] / S - m1 * m2

    def char_function(self, d, kappa, t):
        """(complex estimate, stderr) of E exp(i t l_n^{(d)}(kappa))."""
        S = self.count
        re = self.sums[("cos", d, kappa, t)] / S
        im = self.sums[("sin", d, kappa, t)] / S
        # each component bounded by 1; conservative componentwise stderr
        se = math.sqrt((1.0 - re * re) / S) + math.sqrt((1.0 - im * im) / S)
        return complex(re, im), se

    def tightness_ratio(self, r, h):
        """(estimate, stderr) of E(L(r) - L(r+h))^4 / (h^2 n)."""
        S = self.count
        m, se = self._mean_se(("t4", r, h), ("t8", r, h))
        scale = h * h * self.spec.n
        return m / scale, se / scale

    def tightness_max(self):
        rs, hs = self.spec.tightness_grid
        best = None
        for r in rs:
            for h in hs:
                est, se = self.tightness_ratio(r, h)
                if best is None or est > best[0]:
                    best = (est, se, r, h)
        return best

    def rows(self):
        """Flat rows for CSV output: one per estimated quantity."""

        def row(kind, estimate, stderr, d="", kappa="", t="", r="", h=""):
            return {"kind": kind, "n": self.spec.n, "d": d, "kappa": kappa, "t": t,
                    "r": r, "h": h, "estimate": estimate, "stderr": stderr,
                    "samples": self.count}

        out = []
        for d in self.spec.degrees:
            for kap in self.spec.kappas:
                out.append(row("mean", *self.mean(d, kap), d=d, kappa=kap))
                for t in self.spec.t_values:
                    z, se = self.char_function(d, kap, t)
                    out.append(row("ecf_re", z.real, se, d=d, kappa=kap, t=t))
                    out.append(row("ecf_im", z.imag, se, d=d, kappa=kap, t=t))
        if self.spec.tightness_grid:
            rs, hs = self.spec.tightness_grid
            for r in rs:
                for h in hs:
                    out.append(row("tightness", *self.tightness_ratio(r, h), r=r, h=h))
        return out


def _chunk_sizes(total, chunks):
    base = total // chunks
    sizes = [base + (1 if c < total % chunks else 0) for c in range(chunks)]
    return [s for s in sizes if s > 0]


def _run_chunk(sampler, spec, chunk_index, chunk_size):
    rng = derive_rng(spec.seed, chunk_index)
    acc = _Accumulator(spec)
    d_max = max(spec.degrees, default=1)
    for _ in range(chunk_size):
        _, count, level = sampler.sample_flat(spec.n, rng)
        acc.add_tree(_profile(level, count, d_max))
    return acc


_FORK_STATE = {}


def _forked_chunk(args):
    chunk_index, chunk_size = args
    return _run_chunk(_FORK_STATE["sampler"], _FORK_STATE["spec"], chunk_index, chunk_size)


def monte_carlo(spec, table=None, threads=1, cache_dir=None):
    """Run the experiment; deterministic for a fixed seed and any thread count.

    Work is split into ``_CHUNKS`` independent streams derived from
    (seed, chunk index); results are merged in chunk order, so the estimates
    do not depend on how chunks are scheduled.
    """
    if spec.samples < 1:
        raise UsageError("samples must be >= 1")
    if any(d < 1 for d in spec.degrees):
        raise UsageError(f"degrees must be >= 1, got {spec.degrees}")
    if not all(math.isfinite(k) and k >= 0 for k in spec.kappas):
        raise UsageError(f"kappas must be finite and >= 0, got {spec.kappas}")
    if not all(math.isfinite(t) for t in spec.t_values):
        raise UsageError(f"t values must be finite, got {spec.t_values}")
    # a repeated value would share its sums with its twin and count every tree twice
    for name, values in (("degrees", spec.degrees), ("kappas", spec.kappas),
                         ("t values", spec.t_values)):
        if len(set(values)) < len(values):
            raise UsageError(f"{name} must be distinct, got {values}")
    if table is None:
        table = count_trees(spec.n, cache_dir=cache_dir)
    sampler = _sampler_for(table)
    chunks = list(enumerate(_chunk_sizes(spec.samples, _CHUNKS)))
    parts = None
    if threads > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is not None:
            _FORK_STATE["sampler"] = sampler
            _FORK_STATE["spec"] = spec
            try:
                with ctx.Pool(min(threads, len(chunks))) as pool:
                    parts = pool.map(_forked_chunk, chunks)
            finally:
                _FORK_STATE.clear()
    if parts is None:
        parts = [_run_chunk(sampler, spec, idx, size) for idx, size in chunks]
    total = _Accumulator(spec)
    for part in parts:
        total.merge(part)
    return MonteCarloResult(spec, total.count, total.g)


# ---------------------------------------------------------------------------
# uniformity diagnostics
# ---------------------------------------------------------------------------

def sample_class_counts(n, samples, rng, table=None):
    """Histogram of canonical isomorphism classes over many samples."""
    if table is None:
        table = count_trees(n)
    sampler = _sampler_for(table)
    counts = {}
    for _ in range(samples):
        key = canonical_shape(sampler.sample_shape(n, rng))
        counts[key] = counts.get(key, 0) + 1
    return counts


def chi_square_uniform(counts, n_classes, samples):
    """(statistic, dof, p_value) against the uniform distribution."""
    from scipy.stats import chi2

    expected = samples / n_classes
    stat = sum((c - expected) ** 2 for c in counts.values()) / expected
    stat += expected * (n_classes - len(counts))  # classes never observed
    dof = n_classes - 1
    return stat, dof, float(chi2.sf(stat, dof))
