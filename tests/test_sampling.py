import math
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyaprofile import sampling
from polyaprofile.enumeration import (
    CountTable,
    canonical_shape,
    count_trees,
    degree_series,
    tree_series,
)
from polyaprofile.errors import UsageError
from polyaprofile.profile import level_grid_for
from polyaprofile.sampling import (
    MonteCarloSpec,
    PolyaTree,
    TreeSampler,
    chi_square_uniform,
    derive_rng,
    extract_profile,
    monte_carlo,
    sample_class_counts,
)

TABLE_64 = count_trees(64)


def test_size_one_and_two_deterministic():
    s = TreeSampler(TABLE_64)
    rng = derive_rng(0, 0)
    t1 = s.sample_tree(1, rng)
    assert t1.parent == (-1,) and t1.child_count == (0,)
    for _ in range(5):
        t2 = s.sample_tree(2, rng)
        assert t2.parent == (-1, 0)


def test_size_outside_table_rejected():
    s = TreeSampler(TABLE_64)
    with pytest.raises(UsageError):
        s.sample_tree(65, derive_rng(0, 0))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10**6))
def test_exact_size_and_wellformed(n, seed):
    s = TreeSampler(TABLE_64)
    tree = s.sample_tree(n, derive_rng(seed, 0))
    assert tree.n == n
    # parent indices form a forest rooted at 0 with parents preceding children
    assert tree.parent[0] == -1
    assert all(0 <= tree.parent[i] < i for i in range(1, n))
    # child counts consistent with parents
    counts = [0] * n
    for i in range(1, n):
        counts[tree.parent[i]] += 1
    assert counts == list(tree.child_count)


def test_same_seed_same_stream():
    s = TreeSampler(TABLE_64)
    a = [s.sample_shape(20, derive_rng(123, 5)) for _ in range(10)]
    b = [s.sample_shape(20, derive_rng(123, 5)) for _ in range(10)]
    assert a == b
    c = [s.sample_shape(20, derive_rng(124, 5)) for _ in range(10)]
    assert a != c


def test_profile_single_node():
    prof = extract_profile(PolyaTree.from_shape(()), d_max=3)
    assert prof.total(0) == 1
    assert prof.degree_count(1, 0) == 1


def test_profile_path_of_three():
    prof = extract_profile(PolyaTree.from_shape((((),),)), d_max=3)
    assert prof.degree_count(2, 0) == 1
    assert prof.degree_count(2, 1) == 1
    assert prof.degree_count(1, 2) == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6))
def test_profile_partitions_nodes(n, seed):
    s = TreeSampler(TABLE_64)
    tree = s.sample_tree(n, derive_rng(seed, 1))
    prof = extract_profile(tree, d_max=n)
    assert int(prof.level_counts.sum()) == n
    # per level, degree counts partition the level total (d_max = n covers all)
    for k in range(prof.height + 1):
        assert int(prof.degree_level_counts[:, k].sum()) == prof.total(k)


def test_chi_square_uniformity_n5():
    table = count_trees(7)
    rng = derive_rng(31337, 0)
    counts = sample_class_counts(5, 20000, rng, table)
    assert len(counts) == table.y[5] == 9
    stat, dof, p = chi_square_uniform(counts, 9, 20000)
    assert p >= 1e-3


def test_chi_square_detects_bias():
    # a deliberately skewed histogram must fail the same test
    counts = {i: 1000 + (500 if i == 0 else 0) for i in range(9)}
    stat, dof, p = chi_square_uniform(counts, 9, sum(counts.values()))
    assert p < 1e-3


def test_canonical_key_identifies_isomorphic_presentations():
    a = (((),), ())           # root with children: path-2 and leaf
    b = ((), ((),))           # same multiset, different order
    assert canonical_shape(a) == canonical_shape(b)


# ---------------------------------------------------------------------------
# selection walk above the precomputed tables (n > 64)
# ---------------------------------------------------------------------------

def _exact_cumulative(y, n):
    """Cumulative weights d y_d y_{n-jd} and their pairs, j ascending, d descending."""
    cums, pairs, acc = [], [], 0
    for j in range(1, n):
        for d in range((n - 1) // j, 0, -1):
            acc += d * y[d] * y[n - j * d]
            cums.append(acc)
            pairs.append((j, d))
    return cums, pairs


def _inline_draw(sampler, n, rng):
    """R as the flat walk draws it, from the sampler's per-size total and bit length."""
    total = sampler._totals[n] or sampler._total(n)
    R = rng.getrandbits(sampler._bits[n])
    while R >= total:
        R = rng.getrandbits(sampler._bits[n])
    return R


@pytest.mark.parametrize("n", [65, 200, 1600])
def test_float_guided_choose_matches_exact_walk(n, cache_dir):
    table = count_trees(n, cache_dir=cache_dir)
    s = TreeSampler(table)
    cums, pairs = _exact_cumulative(table.y, n)
    for seed in range(400):
        a, b = derive_rng(seed, n), derive_rng(seed, n)
        for _ in range(3):
            R = b.randrange(cums[-1])
            assert _inline_draw(s, n, a) == R
            assert s._choose(n, R) == pairs[bisect_right(cums, R)]
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize("n", [65, 200])
def test_float_guided_choose_at_interval_boundaries(n, table_400):
    # R at and just below every interval boundary: the float guide must defer
    # to the exact walk wherever it cannot separate neighbouring intervals
    s = TreeSampler(table_400)
    cums, pairs = _exact_cumulative(table_400.y, n)
    draws = [R for A in cums[:-1] for R in (A - 1, A)] + [0, cums[-1] - 1]
    got = [s._choose(n, R) for R in draws]
    assert got == [pairs[bisect_right(cums, R)] for R in draws]


def test_forced_exact_fallback_keeps_shapes(monkeypatch, table_400):
    s = TreeSampler(table_400)
    expected = [s.sample_shape(300, derive_rng(seed, 0)) for seed in range(5)]
    big_walks, fallbacks = [], []
    choose, walk_exact = TreeSampler._choose, TreeSampler._walk_exact

    def counting_choose(self, n, R):
        if n > sampling._MEMO_CUTOFF:
            big_walks.append(n)
        return choose(self, n, R)

    def counting_walk_exact(self, n, R):
        fallbacks.append(n)
        return walk_exact(self, n, R)

    monkeypatch.setattr(sampling, "_BAND", 0.5)  # no interval can clear the band
    monkeypatch.setattr(TreeSampler, "_choose", counting_choose)
    monkeypatch.setattr(TreeSampler, "_walk_exact", counting_walk_exact)
    forced = [s.sample_shape(300, derive_rng(seed, 0)) for seed in range(5)]
    assert forced == expected
    assert big_walks and fallbacks == big_walks


# ---------------------------------------------------------------------------
# the flat walk against the nested-frame sampler it replaced
# ---------------------------------------------------------------------------

class _NestedSampler:
    """Oracle: nested tuples built frame by frame, rng.randrange draws, and
    selection by the exact cumulative walk at every size."""

    def __init__(self, y):
        self.y = y

    def _choose(self, n, rng):
        y = self.y
        R = rng.randrange((n - 1) * y[n])
        acc = 0
        for j in range(1, n):
            for d in range((n - 1) // j, 0, -1):
                acc += d * y[d] * y[n - j * d]
                if R < acc:
                    return j, d
        raise AssertionError("selection walk exhausted the weight total")

    def sample_shape(self, n, rng):
        # frame: [remaining, children, pending_copies]; the recursive chain
        # T(n) = T(n - jd) + j copies of D(d) always attaches to the same
        # root, so a frame collects subtree samples until remaining == 1.
        stack = [[n, [], 0]]
        done = None
        while stack:
            frame = stack[-1]
            if done is not None:
                frame[1].extend([done] * frame[2])
                done = None
            if frame[0] == 1:
                done = tuple(frame[1])
                stack.pop()
                continue
            j, d = self._choose(frame[0], rng)
            frame[0] -= j * d
            frame[2] = j
            stack.append([d, [], 0])
        return done


@pytest.mark.parametrize("band", [None, 0.5], ids=["guided", "forced_exact"])
@pytest.mark.parametrize("n, seeds", [(65, 200), (400, 40), (1600, 8)])
def test_flat_walk_matches_nested_oracle(n, seeds, band, monkeypatch, cache_dir):
    table = count_trees(n, cache_dir=cache_dir)
    s, oracle = TreeSampler(table), _NestedSampler(table.y)
    fallbacks = []
    if band is not None:  # every walk above the tables falls back to the exact walk
        walk_exact = TreeSampler._walk_exact
        monkeypatch.setattr(sampling, "_BAND", band)
        monkeypatch.setattr(TreeSampler, "_walk_exact",
                            lambda self, m, R: fallbacks.append(m) or walk_exact(self, m, R))
    for seed in range(seeds):
        a, b = derive_rng(seed, n), derive_rng(seed, n)
        tree = s.sample_tree(n, a)
        expected = PolyaTree.from_shape(oracle.sample_shape(n, b))
        assert tree.parent == expected.parent
        assert tree.child_count == expected.child_count
        assert (tree.levels() == expected.levels()).all()
        assert s.sample_flat(n, derive_rng(seed, n))[2] == expected.levels().tolist()
        assert a.getstate() == b.getstate()
        a, b = derive_rng(seed, n), derive_rng(seed, n)
        assert s.sample_shape(n, a) == oracle.sample_shape(n, b)
        assert a.getstate() == b.getstate()
    assert (len(fallbacks) > 0) == (band is not None)


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_matches_oracle_and_extract_profile(threads, table_400):
    n = 300
    spec = MonteCarloSpec(n=n, degrees=(1, 2, 3), kappas=(0.5, 1.0), t_values=(0.5, 1.0),
                          samples=40, seed=17, tightness_grid=level_grid_for(n))
    oracle = _NestedSampler(table_400.y)
    expected = sampling._Accumulator(spec)
    for idx, size in enumerate(sampling._chunk_sizes(spec.samples, sampling._CHUNKS)):
        rng = derive_rng(spec.seed, idx)
        part = sampling._Accumulator(spec)
        for _ in range(size):
            tree = PolyaTree.from_shape(oracle.sample_shape(n, rng))
            part.add_tree(extract_profile(tree, 3))
        expected.merge(part)
    got = monte_carlo(spec, table=table_400, threads=threads)
    assert got.count == expected.count == 40
    assert got.sums == expected.g


# ---------------------------------------------------------------------------
# monte carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_deterministic_and_chunk_invariant():
    spec = MonteCarloSpec(
        n=50, degrees=(1, 2), kappas=(0.5, 1.0), t_values=(0.5,),
        samples=300, seed=99, tightness_grid=level_grid_for(50),
    )
    r1 = monte_carlo(spec, table=TABLE_64)
    r2 = monte_carlo(spec, table=TABLE_64)
    assert r1.sums == r2.sums and r1.count == r2.count == 300


def test_monte_carlo_threads_do_not_change_results():
    spec = MonteCarloSpec(n=40, degrees=(1,), kappas=(1.0,), samples=240, seed=5)
    r1 = monte_carlo(spec, table=TABLE_64, threads=1)
    r4 = monte_carlo(spec, table=TABLE_64, threads=4)
    assert r1.sums == r4.sums


def test_one_sampler_per_count_table(monkeypatch):
    built = []
    init = TreeSampler.__init__

    def counting_init(self, table):
        built.append(table)
        init(self, table)

    monkeypatch.setattr(TreeSampler, "__init__", counting_init)
    monkeypatch.setattr(sampling, "_SAMPLERS", {})
    spec = MonteCarloSpec(n=50, degrees=(1,), kappas=(1.0,), samples=32, seed=8)
    first = monte_carlo(spec, table=TABLE_64)
    # an equal table (count_trees builds a new one per call) reuses the sampler
    again = monte_carlo(spec, table=count_trees(64))
    sample_class_counts(50, 3, derive_rng(0, 0), table=TABLE_64)
    assert built == [TABLE_64] and first.sums == again.sums
    # a table that differs gets a sampler of its own, never the cached one
    forged = CountTable(64, TABLE_64.y[:-1] + (TABLE_64.y[-1] + 1,))
    assert sampling._sampler_for(forged).table is forged
    assert sampling._sampler_for(TABLE_64).table == TABLE_64
    assert built == [TABLE_64, forged, TABLE_64]


def test_char_function_at_zero_is_one():
    spec = MonteCarloSpec(
        n=30, degrees=(1,), kappas=(1.0,), t_values=(0.0, 0.7), samples=200, seed=3
    )
    r = monte_carlo(spec, table=TABLE_64)
    z, _ = r.char_function(1, 1.0, 0.0)
    assert z == 1.0 + 0.0j
    z2, _ = r.char_function(1, 1.0, 0.7)
    assert abs(z2) <= 1.0


def test_degree_total_bookkeeping_matches_exact(table_400):
    # E X_n^{(d)} at n = 200 within 3 standard errors of d_n^{(d)}/y_n, over
    # the 4000 trees monte_carlo draws for seed 77: 16 streams of 250 trees
    n, samples = 200, 4000
    sampler = TreeSampler(table_400)
    tot = [0, 0, 0]
    tot2 = [0, 0, 0]
    for stream in range(16):
        rng = derive_rng(77, stream)
        for _ in range(samples // 16):
            counts = extract_profile(sampler.sample_tree(n, rng), 3).degree_level_counts
            for d in (1, 2, 3):
                x = int(counts[d - 1].sum())
                tot[d - 1] += x
                tot2[d - 1] += x * x
    y_n = tree_series(n)[n]
    for d in (1, 2, 3):
        est = tot[d - 1] / samples
        se = math.sqrt(max(tot2[d - 1] / samples - est * est, 0.0) / samples)
        exact = float(Fraction(degree_series(d, n).D[n], y_n))
        assert abs(est - exact) <= 3.0 * se


def test_sampled_level_law_matches_exact_distribution():
    # beyond the enumerable range: the empirical law of L_12^{(1)}(2) must
    # match the exact series distribution (chi-square over its support)
    from scipy.stats import chi2

    from polyaprofile.profile import exact_distribution

    n, d, k, S = 12, 1, 2, 20000
    dist = exact_distribution(n, d, k)
    s = TreeSampler(TABLE_64)
    rng = derive_rng(4242, 0)
    observed = {}
    for _ in range(S):
        prof = extract_profile(s.sample_tree(n, rng), d_max=d)
        c = prof.degree_count(d, k)
        observed[c] = observed.get(c, 0) + 1
    # pool cells with tiny expectation into the largest-count cell
    stat = 0.0
    dof = -1
    pooled_obs = 0
    pooled_exp = 0.0
    for l, p in sorted(dist.probs.items()):
        e = float(p) * S
        o = observed.pop(l, 0)
        if e < 10.0:
            pooled_obs += o
            pooled_exp += e
            continue
        stat += (o - e) ** 2 / e
        dof += 1
    if pooled_exp > 0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        dof += 1
    assert not observed  # nothing outside the exact support
    assert float(chi2.sf(stat, dof)) >= 1e-3


def test_mean_matches_exact_small_n():
    # exact series mean at n = 50 within 3 standard errors
    from polyaprofile.profile import level_mean

    n, kappa = 50, 1.0
    k = int(kappa * math.sqrt(n))
    spec = MonteCarloSpec(n=n, degrees=(1,), kappas=(kappa,), samples=6000, seed=11)
    r = monte_carlo(spec, table=TABLE_64)
    est, se = r.mean(1, kappa)
    exact = float(level_mean(1, n, k)) / math.sqrt(n)
    assert abs(est - exact) <= 3.0 * se
