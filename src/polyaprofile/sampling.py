"""Uniform random generation of unlabelled rooted trees and profile statistics.

The sampler is the classical recursive decomposition driven by the
Euler-transform identity

    (n-1) y_n = sum_{j d <= n-1} d y_d y_{n-jd}:

pick (j, d) with probability d y_d y_{n-jd} / ((n-1) y_n), sample a tree T'
of size n - jd and one tree D of size d, and attach j identical copies of D
to the root of T'.  Induction gives a uniform isomorphism class of size n.

One walk emits the tree as its :class:`PolyaTree` record: the preorder lists
``child_count`` and ``level``, in the order :meth:`PolyaTree.from_shape`
gives.  Picking (j, d) appends j leaves at once when d = 1 and stays on the
current frame; else it appends the root of D and suspends the current frame
on a stack until D is filled.  A filled frame's subtree is the block from
its root to the end of the lists, and its j - 1 copies are that block
appended again: copies are siblings, so their levels and child counts repeat
unchanged.  Draws thus follow the preorder of the recursion.  The profile
reads the two lists as they are; parents, where asked for, are derived from
the levels (node i's parent is the last node before it one level up).

Two draws are made without a table.  A size-2 remainder and a subtree with
d = 2 both have the weight total (2-1) y_2 = 1, so R is 0 after the same
``getrandbits(1)`` rejections that ``randrange(1)`` makes, and the pair is
always (1, 1): one more leaf, or a root with one leaf for each of the j
copies.  The draw is still made, so the stream stays the same.

Selection draws an exact integer R uniform in [0, (n-1) y_n) and returns the
pair whose interval of cumulative big-integer weights holds R; the walk is
ordered j = 1, d descending, which covers the probability mass in
O(sqrt(n)) expected steps.  R is drawn inline: ``getrandbits(k)``, k the
bit length of the total, until below the total.  That is the body of
``Random._randbelow_with_getrandbits``, which ``rng.randrange(total)``
runs on Python 3.10 to 3.13, so seeded streams are those of ``randrange``.
Sizes 3 to 64 bisect a table of cumulative weights that each sampler builds
once, with the total and its bit length.  Larger sizes walk a float guide
first (Denise & Zimmermann, TCS 218, 1999): the weights rescaled by c^n
with c = rho,

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
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .constants import APPROX_RADIUS as _RHO
from .enumeration import CountTable, canonical_shape
from .errors import UsageError
from .profile import level_of
from .series import DoubleRing, TruncatedSeries

_MEMO_CUTOFF = 64  # sizes with a precomputed selection table
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
    """Preorder tree: node i has child_count[i] children and lies on level[i]."""

    child_count: list
    level: list

    @property
    def n(self):
        return len(self.level)

    @property
    def parent(self):
        """parent[i] < i for i >= 1, parent[0] = -1: node i's parent is the last
        node before it one level up."""
        level = self.level
        parent, last = [-1], [0] * len(level)  # last[l]: the latest node on level l
        for i in range(1, len(level)):
            lv = level[i]
            parent.append(last[lv - 1])
            last[lv] = i
        return parent

    @classmethod
    def from_shape(cls, shape):
        child_count, level = [len(shape)], [0]
        stack = [(c, 1) for c in reversed(shape)]
        while stack:
            t, lv = stack.pop()
            child_count.append(len(t))
            level.append(lv)
            stack.extend((c, lv + 1) for c in reversed(t))
        return cls(child_count, level)


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
    """Per-level counts, and per level the counts of each degree (children + 1) <= d_max."""
    lev = np.asarray(tree.level, dtype=np.int64)
    deg = np.asarray(tree.child_count, dtype=np.int64) + 1
    height = int(lev.max()) if len(lev) else 0
    level_counts = np.bincount(lev, minlength=height + 1)
    mask = deg <= d_max
    flat = (deg[mask] - 1) * (height + 1) + lev[mask]
    dl = np.bincount(flat, minlength=d_max * (height + 1)).reshape(d_max, height + 1)
    return ProfileSample(len(lev), level_counts, dl, d_max)


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

class TreeSampler:
    """Exact-size uniform sampler over isomorphism classes."""

    def __init__(self, table: CountTable):
        self.table = table
        self.y = table.y
        # float guide at c = _RHO, where y_k c^k = Theta(k^-1.5):
        # fy[k] = y_k c^k, g[d] = d y_d c^d, cpow[m] = c^m
        fy = TruncatedSeries(table.y, table.n_max, DoubleRing(_RHO)).coeffs.tolist()
        self._fy = fy
        self._g = [d * f for d, f in enumerate(fy)]
        self._cpow = [_RHO ** m for m in range(table.n_max + 1)]
        # per size, filled on first use: the total (n-1) y_n and its bit length
        self._totals = [None] * (table.n_max + 1)
        self._bits = [0] * (table.n_max + 1)
        # per size 3 <= m <= _MEMO_CUTOFF: (total, bits, cumulative weights,
        # pairs); the walk draws size 2 without a table
        self._small = [None] * (min(_MEMO_CUTOFF, table.n_max) + 1)
        for m in range(3, len(self._small)):
            cums = list(accumulate(w for _, _, w in self._weights(m)))
            pairs = [(j, d) for j, d, _ in self._weights(m)]
            self._small[m] = (self._total(m), self._bits[m], cums, pairs)

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

    def _walk(self, n, rng):
        """Preorder (child_count, level) lists of a uniform tree of n nodes."""
        if n < 1 or n > self.table.n_max:
            raise UsageError(f"size {n} outside the count table (<= {self.table.n_max})")
        getrandbits = rng.getrandbits
        small, totals, bits, choose = self._small, self._totals, self._bits, self._choose
        cutoff = _MEMO_CUTOFF
        count, level = [0], [0]
        stack = []  # the frames waiting on a subtree, as tuples of the four below
        r, m, copies, lv = 0, n, 1, 1  # root index, size left to fill, copies wanted, child level
        while True:
            if m > 2:
                # R is rng.randrange(total), inline
                if m <= cutoff:
                    total, k, cums, pairs = small[m]
                    R = getrandbits(k)
                    while R >= total:
                        R = getrandbits(k)
                    j, d = pairs[bisect_right(cums, R)]
                else:
                    total = totals[m] or self._total(m)
                    k = bits[m]
                    R = getrandbits(k)
                    while R >= total:
                        R = getrandbits(k)
                    j, d = choose(m, R)
                count[r] += j
                m -= j * d
                if d == 1:
                    count += [0] * j
                    level += [lv] * j
                elif d == 2:  # the subtree's size-2 draw, made here: root and one leaf
                    while getrandbits(1):
                        pass
                    count += [1, 0] * j
                    level += [lv, lv + 1] * j
                else:
                    stack.append((r, m, copies, lv))
                    r, m, copies = len(count), d, j
                    count.append(0)
                    level.append(lv)
                    lv += 1
                continue
            if m == 2:  # a size-2 remainder: its one draw, then one leaf
                while getrandbits(1):
                    pass
                count[r] += 1
                count.append(0)
                level.append(lv)
            if copies > 1:  # the subtree is the block from r on; its copies follow it
                count += count[r:] * (copies - 1)
                level += level[r:] * (copies - 1)
            if not stack:
                return count, level
            r, m, copies, lv = stack.pop()

    def sample_tree(self, n, rng):
        """A uniform tree of exactly n nodes, as the walk emits it."""
        return PolyaTree(*self._walk(n, rng))

    def sample_shape(self, n, rng):
        """Nested-tuple tree of exactly n nodes, uniform over classes."""
        parent = self.sample_tree(n, rng).parent
        kids = [[] for _ in parent]  # filled last child first, since children follow parents
        for i in range(n - 1, 0, -1):
            kids[parent[i]].append(tuple(reversed(kids[i])))
        return tuple(reversed(kids[0]))


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
    """A Monte Carlo run's parameters, refused on construction unless valid."""

    n: int
    degrees: tuple = (1, 2)
    kappas: tuple = (0.5, 1.0)
    t_values: tuple = ()
    samples: int = 1000
    seed: int = 0
    tightness_grid: tuple = ()  # ((r...), (h...)) or () to skip

    def __post_init__(self):
        if self.n < 1:
            raise UsageError(f"a Monte Carlo run needs a size n >= 1, got {self.n}")
        if self.samples < 1:
            raise UsageError("samples must be >= 1")
        if any(d < 1 for d in self.degrees):
            raise UsageError(f"degrees must be >= 1, got {self.degrees}")
        if not all(math.isfinite(k) and k >= 0 for k in self.kappas):
            raise UsageError(f"kappas must be finite and >= 0, got {self.kappas}")
        if not all(math.isfinite(t) for t in self.t_values):
            raise UsageError(f"t values must be finite, got {self.t_values}")
        # a repeated value would share its sums with its twin and count every tree twice
        for name, values in (("degrees", self.degrees), ("kappas", self.kappas),
                             ("t values", self.t_values)):
            if len(set(values)) < len(values):
                raise UsageError(f"{name} must be distinct, got {values}")
        for kap in self.kappas:  # a level past the float range stops here
            level_of(kap, self.n)


class _Accumulator:
    def __init__(self, spec):
        self.spec = spec
        self.count = 0
        self.levels = [(kap, level_of(kap, spec.n)) for kap in spec.kappas]
        self.g = defaultdict(float)  # every sum starts at 0.0 on its first add

    def add_tree(self, profile):
        spec = self.spec
        g = self.g
        self.count += 1
        sq = math.sqrt(spec.n)
        for kap, k in self.levels:
            for d in spec.degrees:
                v = profile.degree_count(d, k) / sq
                g[("m", d, kap)] += v
                g[("m2", d, kap)] += v * v
                for t in spec.t_values:
                    g[("cos", d, kap, t)] += math.cos(t * v)
                    g[("sin", d, kap, t)] += math.sin(t * v)
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
        acc.add_tree(extract_profile(sampler.sample_tree(spec.n, rng), d_max))
    return acc


_FORK_STATE = {}


def _forked_chunk(args):
    chunk_index, chunk_size = args
    return _run_chunk(_FORK_STATE["sampler"], _FORK_STATE["spec"], chunk_index, chunk_size)


def monte_carlo(spec, table, threads=1):
    """Run the experiment on trees drawn from ``table``; deterministic for a
    fixed seed and any thread count.

    Work is split into ``_CHUNKS`` independent streams derived from
    (seed, chunk index); results are merged in chunk order, so the estimates
    do not depend on how chunks are scheduled.
    """
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
    return MonteCarloResult(spec, total.count, dict(total.g))


# ---------------------------------------------------------------------------
# uniformity diagnostics
# ---------------------------------------------------------------------------

def sample_class_counts(n, samples, rng, table):
    """Histogram of canonical isomorphism classes over many samples."""
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
