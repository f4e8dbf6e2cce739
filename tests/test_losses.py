"""Loss tests.  The group-fidelity loss is checked against a test-local
discrete-rank oracle (sorting and exact DCG arithmetic, no sigmoids), the
blocked smoothed-rank node against the dense pair-matrix node it replaced
and a per-pair oracle with exact row sums, correlations against numpy's
corrcoef, and the fused loss and gradient against the tape."""

import math
import sys
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairod import losses
from fairod.dataset import LabeledDataset, pv_groups
from fairod.detector import AEConfig, init_params, score
from fairod.losses import (
    VARIANTS,
    BaseScoreSet,
    DegenerateInputWarning,
    LossWeights,
    TotalLossSpec,
    _pairwise_rank_graph,
    _pairwise_ranks,
    idcg_group,
    loss_base,
    loss_gf,
    loss_gf_corr,
    loss_sp,
    pearson_abs_corr,
    smooth_rank,
    total_loss,
)
from fairod.numgrad import (
    NumericalOverflowError,
    as_var,
    eval_loss_grad_components,
    finite_diff_grad,
    leaf,
    tape_loss_grad_components,
)
from fairod.training import _slice_base


def groups_of(pv):
    return {int(g): np.flatnonzero(pv == g) for g in np.unique(pv)}


def discrete_gf_oracle(scores, base_norm, groups):
    """Group-fidelity loss with hard indicator ranks; assumes distinct
    scores inside each group."""
    total = 0.0
    for g in sorted(groups):
        idx = groups[g]
        s = scores[idx]
        rel = 2.0 ** base_norm[idx] - 1.0
        idcg = sum(r / math.log2(1 + j)
                   for j, r in enumerate(sorted(rel, reverse=True), start=1))
        if idcg == 0.0:
            continue
        dcg = 0.0
        for i in range(len(s)):
            rank = 1 + int(np.sum(s > s[i]))
            dcg += rel[i] / (math.log2(1 + rank) * idcg)
        total += 1.0 - dcg
    return total


def spaced_unit_scores(rng, n, gap=0.1):
    """Random ordering of equally spaced values, standardized to unit scale
    but only if that keeps the minimum gap at or above `gap`."""
    raw = rng.permutation(n).astype(float) * gap
    std = raw.std()
    if gap / std >= gap:  # small n: standardizing widens gaps
        raw = (raw - raw.mean()) / std
    assert np.diff(np.sort(raw)).min() >= gap - 1e-12
    return raw


# -- pearson ------------------------------------------------------------------------


def test_pearson_self_correlation_is_one():
    u = np.array([1.0, 2.0, 3.0, 7.0])
    assert pearson_abs_corr(u, u) == pytest.approx(1.0, rel=1e-6)


def test_pearson_orthogonal_zero():
    u = np.array([1.0, -1.0, 1.0, -1.0])
    v = np.array([1.0, 1.0, -1.0, -1.0])
    assert pearson_abs_corr(u, v) == 0.0


def test_pearson_perfect_anticorrelation():
    assert pearson_abs_corr(np.array([1.0, 2, 3]), np.array([3.0, 2, 1])) == pytest.approx(1.0, rel=1e-6)


def test_pearson_length_mismatch():
    with pytest.raises(ValueError):
        pearson_abs_corr(np.ones(3), np.ones(4))


def test_pearson_constant_input_warns_and_returns_zero():
    with pytest.warns(DegenerateInputWarning):
        assert pearson_abs_corr(np.ones(4), np.array([1.0, 2, 3, 4])) == 0.0


def test_pearson_matches_numpy_oracle(rng):
    for _ in range(20):
        u = rng.normal(size=30)
        v = rng.normal(size=30)
        want = abs(np.corrcoef(u, v)[0, 1])
        assert pearson_abs_corr(u, v) == pytest.approx(want, abs=1e-6)


@given(st.integers(0, 10 ** 6))
def test_pearson_in_unit_interval(seed):
    r = np.random.default_rng(seed)
    u, v = r.normal(size=8), r.normal(size=8)
    assert 0.0 <= pearson_abs_corr(u, v) <= 1.0


# -- loss_sp ------------------------------------------------------------------------


def test_loss_sp_indicator_scores():
    pv = np.array([0, 0, 0, 1, 1])
    scores = pv.astype(float)
    assert loss_sp(scores, pv) == pytest.approx(1.0, rel=1e-6)


def test_loss_sp_paired_groups_uncorrelated(rng):
    # identical score multiset in both groups: correlation vanishes
    s_half = rng.exponential(1.0, 40)
    scores = np.concatenate([s_half, s_half])
    pv = np.array([0] * 40 + [1] * 40)
    assert loss_sp(scores, pv) < 0.05


def test_loss_sp_three_valued_sums_one_hot_terms(rng):
    pv = np.array([0] * 10 + [1] * 10 + [2] * 10)
    scores = rng.normal(size=30)
    want = sum(abs(np.corrcoef(scores, (pv == g).astype(float))[0, 1]) for g in (0, 1, 2))
    assert loss_sp(scores, pv) == pytest.approx(want, abs=1e-6)


def test_loss_sp_single_group_degenerate():
    with pytest.warns(DegenerateInputWarning):
        assert loss_sp(np.array([1.0, 2, 3]), np.array([0, 0, 0])) == 0.0


def test_loss_sp_constant_scores_degenerate():
    with pytest.warns(DegenerateInputWarning):
        assert loss_sp(np.ones(4), np.array([0, 0, 1, 1])) == 0.0


@given(st.floats(0.1, 50.0), st.floats(-5.0, 5.0), st.integers(0, 10 ** 6))
def test_loss_sp_affine_invariant(a, b, seed):
    r = np.random.default_rng(seed)
    scores = r.normal(size=24)
    pv = (r.uniform(size=24) < 0.3).astype(int)
    if len(np.unique(pv)) < 2:
        pv[:2] = [0, 1]
    # the 1e-8 denominator guard shifts the value by O(eps/std) under
    # rescaling, so exact invariance holds only to ~1e-8, not machine eps
    assert loss_sp(a * scores + b, pv) == pytest.approx(loss_sp(scores, pv), abs=1e-7)


@given(st.integers(0, 10 ** 6))
def test_loss_sp_group_relabel_symmetric(seed):
    r = np.random.default_rng(seed)
    scores = r.normal(size=16)
    pv = np.array([0] * 9 + [1] * 7)
    assert loss_sp(scores, pv) == pytest.approx(loss_sp(scores, 1 - pv), abs=1e-12)


# -- smooth ranks ---------------------------------------------------------------------


def test_smooth_rank_all_equal():
    s = np.full(5, 3.3)
    for i in range(5):
        assert smooth_rank(s, i) == pytest.approx(1 + (5 - 1) / 2, abs=1e-12)


def test_smooth_rank_top_item_sharp():
    s = np.array([0.0, 0.5, 1.0, 2.5])
    assert smooth_rank(s, 3, c=100.0) == pytest.approx(1.0, abs=1e-3)


def test_smooth_rank_single_member():
    assert smooth_rank(np.array([4.2]), 0) == pytest.approx(1.0, abs=1e-12)


def test_smooth_rank_matches_discrete_when_sharp(rng):
    s = spaced_unit_scores(rng, 12)
    for i in range(12):
        discrete = 1 + int(np.sum(s > s[i]))
        assert smooth_rank(s, i, c=200.0) == pytest.approx(discrete, abs=5e-3)


# -- the smoothed-rank node against its oracles -----------------------------------------


def dense_rank_node(s, c):
    """The dense smoothed-rank node the blocked one replaced: one (n,n)
    pair matrix.  Returns the ranks and the pullback of an upstream g."""
    sig = s[None, :] - s[:, None]  # [i,k] = s_k - s_i
    sig *= 0.5 * c
    np.tanh(sig, out=sig)
    sig *= 0.5
    sig += 0.5
    ranks = sig.sum(axis=1) + 0.5

    def vjp(g):
        d = 1.0 - sig
        d *= sig
        d *= c
        return g @ d - g * d.sum(axis=1)

    return ranks, vjp


def exact_rank_node(s, c):
    """Every pair evaluated on its own, in the overflow-free exponential
    form (no tanh, no antisymmetry), each row summed with math.fsum.
    ranks_i = 0.5 + sum_k sigma(z_ik) and, D being symmetric, the pullback
    is out_k = sum_i (g_i - g_k) D_ik, with z_ik = c (s_k - s_i) and
    D = c sigma(z) (1 - sigma(z)) = c e / (1 + e)^2, e = exp(-|z|)."""
    def row(i):
        z = c * (s - s[i])
        e = np.exp(-np.abs(z))
        return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)), c * e / (1.0 + e) ** 2

    ranks = np.array([0.5 + math.fsum(row(i)[0]) for i in range(s.size)])

    def vjp(g):
        return np.array([math.fsum((g - g[k]) * row(k)[1]) for k in range(s.size)])

    return ranks, vjp


def blocked_rank_node(s, c):
    """The program's node, with its pullback taken through the tape."""
    su = leaf(s, "s")
    node = _pairwise_rank_graph(su, c)

    def vjp(g):
        (node * as_var(g)).sum().backward()
        return su.grad

    return node.value, vjp


def unit_scores(rng, n):
    """Unit-scaled scores with some exact ties, as the loss feeds the node."""
    s = np.round(rng.normal(size=n), 2)
    return (s - s.mean()) / s.std() if n > 1 and s.std() > 0 else s


def assert_vjp_close(got, want, g, c):
    # relative to the result, with one unsaturated pair's weight (c/4) max|g|
    # as the floor: a saturated pair's D lies below the rounding of 1 - t^2
    scale = np.abs(want).max() + 0.25 * c * np.abs(g).max()
    assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 2000])
def test_rank_node_matches_dense_and_exact_oracles(n):
    rng = np.random.default_rng(n)
    s, g, c = unit_scores(rng, n), rng.normal(size=n), 50.0
    ranks, vjp = blocked_rank_node(s, c)
    got = vjp(g)
    for oracle in (dense_rank_node, exact_rank_node):
        want_ranks, want_vjp = oracle(s.copy(), c)
        assert np.abs(ranks - want_ranks).max() <= 2e-15 * n
        assert_vjp_close(got, want_vjp(g), g, c)


@pytest.mark.parametrize("n", [65, 129, 200])
def test_rank_vjp_matches_central_differences_across_blocks(n):
    rng = np.random.default_rng(n)
    s, g, c, h = unit_scores(rng, n) * 0.2, rng.normal(size=n), 50.0, 1e-6
    _, vjp = blocked_rank_node(s, c)
    got = vjp(g)
    directions = [np.eye(n)[j] for j in (0, 63, 64, n - 1)] + [rng.normal(size=n)]
    for v in directions:
        up = blocked_rank_node(s + h * v, c)[0] @ g
        down = blocked_rank_node(s - h * v, c)[0] @ g
        fd = (up - down) / (2.0 * h)
        assert got @ v == pytest.approx(fd, rel=1e-6, abs=1e-6)


@given(st.integers(1, 200), st.integers(0, 10 ** 6))
def test_rank_node_is_permutation_equivariant(n, seed):
    rng = np.random.default_rng(seed)
    s, g, c = unit_scores(rng, n), rng.normal(size=n), 50.0
    p = rng.permutation(n)
    ranks, vjp = blocked_rank_node(s, c)
    ranks_p, vjp_p = blocked_rank_node(s[p], c)
    assert np.abs(ranks_p - ranks[p]).max() <= 2e-15 * n
    assert_vjp_close(vjp_p(g[p]), vjp(g)[p], g, c)


def test_rank_node_memory_is_linear_in_group_size():
    # one forward pass and VJP at n = 4000; a (n,n) float64 matrix alone is 122 MiB
    rng = np.random.default_rng(0)
    n = 4000
    s, g = unit_scores(rng, n), rng.normal(size=n)
    tracemalloc.start()
    try:
        blocked_rank_node(s, 50.0)[1](g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_rank_node_memory_stays_linear_on_threads(cpus, monkeypatch):
    monkeypatch.setattr(losses, "_cpu_count", lambda: cpus)
    test_rank_node_memory_is_linear_in_group_size()


# -- the smoothed-rank blocks on threads -------------------------------------------------


@contextmanager
def cpus_seen(k):
    """The rank pool sizes itself as if the process could run on k CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(losses, "_cpu_count", lambda: k)
        yield


THREADED_ROWS = losses._RANK_SERIAL_BLOCKS * losses._RANK_BLOCK  # more rows than this


@given(st.one_of(st.integers(1, 1100),
                 st.sampled_from([THREADED_ROWS + d for d in (-64, -63, 0, 1, 64, 65)])),
       st.integers(0, 10 ** 6))
def test_rank_node_bits_do_not_depend_on_the_worker_count(n, seed):
    rng = np.random.default_rng(seed)
    s, g = unit_scores(rng, n), rng.normal(size=n)
    outs = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches, more task orders
    try:
        for k in (1, 2, 3, 5):
            with cpus_seen(k):
                ranks, vjp = _pairwise_ranks(s, 50.0)
                outs.append((ranks.tobytes(), vjp(g).tobytes()))
    finally:
        sys.setswitchinterval(switch)
    assert outs[1:] == outs[:1] * 3


def test_threaded_rank_blocks_keep_the_callers_errstate():
    n = THREADED_ROWS + losses._RANK_BLOCK
    s = np.linspace(-1.0, 1.0, n)
    s[n // 2] = np.inf  # its own pair is inf - inf
    with cpus_seen(2), np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        _pairwise_ranks(s, 50.0)


# -- binned smoothed ranks against the exact path ----------------------------------------


BINNED_ROWS = losses._BINNED_MIN_ROWS  # the smallest group the fused pass may bin
GF_TOL = 1e-3  # binned gf term vs the tape's, absolute, for one group (its term lies in [0, 1))


def cosine(a, b):
    return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))


def heavy_tailed_scores(rng, n, df, outlier):
    """Non-negative scores with Student-t tails, and optionally one row a
    million times the largest, as a diverging reconstruction error would be."""
    s = np.abs(rng.standard_t(df, size=n))
    if outlier:
        s[rng.integers(n)] = 1e6 * s.max()
    return s


@given(st.one_of(st.integers(BINNED_ROWS - 100, 2 * BINNED_ROWS),
                 st.sampled_from([BINNED_ROWS - 1, BINNED_ROWS])),
       st.sampled_from([1.0, 2.0, 3.0, 10.0]), st.booleans(), st.integers(0, 10 ** 6))
def test_fused_gf_term_tracks_the_exact_path_on_both_sides_of_the_binned_rule(
        n, df, outlier, seed):
    rng = np.random.default_rng(seed)
    scores = heavy_tailed_scores(rng, n, df, outlier)
    groups = {0: np.arange(n)}
    base = make_base(scores * rng.lognormal(sigma=0.5, size=n), groups)
    c = 50.0
    value, grad = losses._loss_gf_vjp(scores, base, groups, c)
    s = leaf(scores, "s")
    term = losses.loss_gf_graph(s, base, groups, c)
    term.backward()
    su = losses._unit_scale_vjp(scores)[0]
    g = rng.normal(size=n)
    ranks, vjp = losses._group_ranks(su, c)
    exact_ranks, exact_vjp = _pairwise_ranks(su, c)
    if losses._rank_bins(su, c) == 0:
        assert value == term.value
        assert ranks.tobytes() == exact_ranks.tobytes()
        assert vjp(g).tobytes() == exact_vjp(g).tobytes()
        return
    assert n >= BINNED_ROWS
    assert abs(value - term.value) <= GF_TOL
    assert cosine(grad, s.grad) >= 0.9999
    assert cosine(vjp(g), exact_vjp(g)) >= 0.9999
    # deterministic, and equivariant under a permutation of the group
    again_ranks, again_vjp = losses._group_ranks(su, c)
    assert again_ranks.tobytes() == ranks.tobytes()
    assert again_vjp(g).tobytes() == vjp(g).tobytes()
    p = rng.permutation(n)
    ranks_p, vjp_p = losses._group_ranks(su[p], c)
    assert np.abs(ranks_p - ranks[p]).max() <= 1e-12 * np.abs(ranks).max()
    assert np.abs(vjp_p(g[p]) - vjp(g)[p]).max() <= 1e-12 * np.abs(vjp(g)).max()


@pytest.mark.parametrize("outlier, binned", [(False, True), (True, False)])
def test_an_extreme_outlier_sends_a_large_group_to_the_exact_path(outlier, binned):
    # one row at 10^6 times the rest stretches a 1200-row group's unit-scaled
    # range to about sqrt(1200): 32768 bins, dearer than its 1.44M pairs
    rng = np.random.default_rng(5)
    su = losses._unit_scale_vjp(heavy_tailed_scores(rng, 1200, 3.0, outlier))[0]
    bins = losses._rank_bins(su, 50.0)
    assert (bins > 0) == binned
    if outlier:
        assert np.ptp(su) > 34.0
        assert losses._group_ranks(su, 50.0)[0].tobytes() == \
            _pairwise_ranks(su, 50.0)[0].tobytes()


@given(st.integers(1, 64), st.floats(0.0, 1e6), st.floats(1e-3, 1e4), st.integers(0, 10 ** 6))
def test_no_minibatch_group_is_binned(n, spread, c, seed):
    s = np.random.default_rng(seed).normal(size=n) * spread
    assert losses._rank_bins(s, c) == 0


def test_minibatch_fit_of_a_large_group_never_bins(monkeypatch):
    from fairod.training import TrainConfig, fit_base, fit_fairod

    rng = np.random.default_rng(3)
    pv = np.array([0] * 2 * BINNED_ROWS + [1] * 100)
    ds = LabeledDataset(features=rng.normal(size=(pv.size, 2)), pv=pv, labels=None)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=2, seed=1))

    def refuse(*args):
        raise AssertionError("a minibatch group was binned")

    monkeypatch.setattr(losses, "_binned_ranks", refuse)
    fit = fit_fairod(ds, base, TrainConfig(epochs=1, seed=1, batch_size=64))
    assert np.all(np.isfinite(fit.scores))
    with pytest.raises(AssertionError, match="binned"):  # the full batch does bin it
        fit_fairod(ds, base, TrainConfig(epochs=1, seed=1))


def test_zero_range_large_group_ranks_exactly():
    n, c = 2 * BINNED_ROWS, 50.0
    s = np.full(n, 0.25)
    g = np.random.default_rng(0).normal(size=n)
    assert losses._rank_bins(s, c) == 0
    ranks, vjp = losses._group_ranks(s, c)
    assert np.all(ranks == 0.5 + 0.5 * n)
    assert vjp(g).tobytes() == _pairwise_ranks(s, c)[1](g).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_unit_scores_of_a_large_group_fail_as_loss_gf(bad, monkeypatch, rng):
    n = 2 * BINNED_ROWS
    s = rng.normal(size=n)
    s[7] = bad
    assert losses._rank_bins(s, 50.0) == 0  # the exact path's failure, not OverflowError
    real = losses._unit_scale_vjp

    def poisoned(x):
        su, pullback = real(x)
        if su.size == n:
            su = su.copy()
            su[7] = bad
        return su, pullback

    monkeypatch.setattr(losses, "_unit_scale_vjp", poisoned)
    X = rng.normal(size=(n + 50, 3))
    pv = np.array([0] * n + [1] * 50)
    base = BaseScoreSet.from_scores(rng.exponential(size=pv.size), groups_of(pv))
    spec = TotalLossSpec(variant="fairod", weights=LossWeights(0.5, 0.1), pv=pv, base=base)
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericalOverflowError, match="^loss_gf: non-finite"):
        eval_loss_grad_components(perturbed_params(rng, 3), X, spec)


def untruncated_binned_ranks(s, c, points):
    """`losses._binned_ranks` with whole kernels: the same linear binning at
    c * step = _BIN_STEP, but tanh(c d / 2) and 1 - tanh^2(c d / 2) at every
    offset of the grid, correlated by real FFTs of length 2 * points, which
    no offset wraps around."""
    n, size = s.size, 2 * points
    lo, scale = s.min(), c / losses._BIN_STEP
    pos = (s - lo) * scale + 0.5 * ((points - 1) - (s.max() - lo) * scale)
    left = np.minimum(pos.astype(np.intp), points - 2)
    right_w = pos - left
    left_w = 1.0 - right_w

    def spread(a, b):
        return np.fft.rfft(np.bincount(left, a, points) + np.bincount(left + 1, b, points), size)

    def gather(spectrum):
        grid = np.fft.irfft(spectrum, size)
        return grid[left] * left_w + grid[left + 1] * right_w

    # slot j holds offset -j, slot size - j offset j; slot `points` is never read
    t = np.tanh(np.r_[0:points, 0, 1 - points:0] * (-0.5 * losses._BIN_STEP))
    weights = spread(left_w, right_w)
    ranks = gather(weights * np.fft.rfft(t)) * 0.5 + (0.5 + 0.5 * n)

    def vjp(g):
        k = np.fft.rfft(1.0 - t * t)
        return (0.25 * c) * (gather(spread(g * left_w, g * right_w) * k) - g * gather(weights * k))

    return ranks, vjp


def grid_points(s, c):
    """Points of the grid at c * step = _BIN_STEP that covers s."""
    return math.ceil(c * float(np.ptp(s)) / losses._BIN_STEP) + 1


@given(st.integers(BINNED_ROWS, 4000), st.sampled_from([1.0, 2.0, 3.0, 10.0]), st.booleans(),
       st.integers(0, 10 ** 6))
def test_binned_kernel_truncation_adds_only_rounding(n, df, outlier, seed):
    # measured: ranks within 7e-12, the VJP within 1e-15 of its largest entry;
    # with half of _KERNEL_REACH the ranks differ by 9e-7
    rng = np.random.default_rng(seed)
    su = losses._unit_scale_vjp(heavy_tailed_scores(rng, n, df, outlier))[0]
    points, g = grid_points(su, 50.0), rng.normal(size=n)
    ranks, vjp = losses._binned_ranks(su, 50.0, points)
    want_ranks, want_vjp = untruncated_binned_ranks(su, 50.0, points)
    assert np.abs(ranks - want_ranks).max() <= 1e-9
    want = want_vjp(g)
    assert np.abs(vjp(g) - want).max() <= 1e-12 * np.abs(want).max()


@given(st.integers(BINNED_ROWS, 3000), st.sampled_from([1.0, 3.0, 10.0]), st.integers(0, 10 ** 6))
def test_binned_ranks_of_mirrored_scores_are_mirrored(n, df, seed):
    # sum_k tanh(c (s_j - s_k) / 2) = -sum_k tanh(c (s_k - s_j) / 2): the
    # exact ranks of -s are n + 1 minus those of s, and the centred grid
    # keeps that up to rounding
    rng = np.random.default_rng(seed)
    su = losses._unit_scale_vjp(heavy_tailed_scores(rng, n, df, False))[0]
    points, g = grid_points(su, 50.0), rng.normal(size=n)
    ranks, vjp = losses._binned_ranks(su, 50.0, points)
    mirror_ranks, mirror_vjp = losses._binned_ranks(-su, 50.0, points)
    assert np.abs(mirror_ranks - (n + 1 - ranks)).max() <= 1e-9
    want = vjp(g)
    assert np.abs(mirror_vjp(g) - want).max() <= 1e-12 * np.abs(want).max()


def parent_rank_bins(s, c):
    """The rule that picked the binned groups when the grid was a power of two."""
    n = s.size
    if n < losses._BINNED_MIN_ROWS:
        return 0
    need = c * float(s.max() - s.min()) / losses._BIN_STEP + 1.0
    if not 1.0 < need <= losses._BINNED_MAX_BINS:
        return 0
    bins = 1 << math.ceil(math.log2(need))
    return bins if bins * losses._PAIRS_PER_BIN < n * n else 0


@given(st.one_of(st.integers(1, 6000), st.sampled_from(
           [BINNED_ROWS - 1, BINNED_ROWS, 1279, 1280, 1810, 1811, 2559, 2560])),
       st.one_of(st.floats(0.0, 2.0 * losses._BINNED_MAX_BINS),
                 st.sampled_from([1.0, 2.0, 2.0 ** 14, 2.0 ** 15, 2.0 ** 16, 2.0 ** 17, np.inf])),
       st.floats(1e-3, 1e4), st.sampled_from([-1, 0, 1]), st.integers(0, 10 ** 6))
def test_binned_groups_are_the_ones_the_power_of_two_rule_picked(n, need, c, ulp, seed):
    # scores whose grid needs about `need` points, moved by an ulp around
    # the rule's boundaries; the boundaries in n are where bins * 50 = n^2
    span = (need - 1.0) * losses._BIN_STEP / c
    if ulp:
        span = np.nextafter(span, ulp * np.inf)
    s = np.random.default_rng(seed).uniform(size=n) * span
    if n > 1:
        s[:2] = 0.0, span
    with np.errstate(invalid="ignore"):
        points = losses._rank_bins(s, c)
        assert (points != 0) == (parent_rank_bins(s, c) != 0)
    if points:  # the grid covers the scores
        steps = c * float(np.ptp(s)) / losses._BIN_STEP
        assert points - 2 < steps <= points - 1


def test_binned_ranks_are_the_same_bits_with_a_cold_and_a_warm_spectrum_cache(monkeypatch):
    monkeypatch.setattr(losses, "_spectra", {})
    rng = np.random.default_rng(4)
    su = losses._unit_scale_vjp(heavy_tailed_scores(rng, 2000, 3.0, False))[0]
    g = rng.normal(size=su.size)
    points = losses._rank_bins(su, 50.0)
    outs = []
    for _ in range(2):
        ranks, vjp = losses._binned_ranks(su, 50.0, points)
        outs.append((ranks.tobytes(), vjp(g).tobytes()))
    assert len(losses._spectra) == 1
    assert outs[1] == outs[0]


def test_spectrum_cache_stays_under_its_bound_at_every_fft_length(monkeypatch):
    # one entry per power of two from the smallest grid (2 points) to the
    # cap: 2^9 ... 2^18 at _KERNEL_REACH = 430
    monkeypatch.setattr(losses, "_spectra", {})
    s = np.random.default_rng(5).uniform(size=BINNED_ROWS)
    reach = losses._KERNEL_REACH
    sizes = []
    for points in [2] + [(1 << k) - reach for k in range(10, 19)] + [losses._BINNED_MAX_BINS]:
        losses._binned_ranks(s, (points - 1) * losses._BIN_STEP, points)[1](s)
        sizes.append(1 << (points + reach - 1).bit_length())
    assert sorted(losses._spectra) == sorted(set(sizes)) == [1 << k for k in range(9, 19)]
    cached = sum(a.nbytes for spectra in losses._spectra.values() for a in spectra)
    assert cached < 8 * 2 ** 20


def test_binned_rank_memory_at_the_grid_cap():
    rng = np.random.default_rng(0)
    n = 4000
    s, g = unit_scores(rng, n), rng.normal(size=n)
    tracemalloc.start()
    try:
        losses._binned_ranks(s, 50.0, losses._BINNED_MAX_BINS)[1](g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# -- idcg ---------------------------------------------------------------------------


def test_idcg_single_member_full_relevance():
    assert idcg_group(np.array([1.0])) == pytest.approx(1.0, abs=1e-12)


def test_idcg_all_zero_warns():
    with pytest.warns(DegenerateInputWarning):
        assert idcg_group(np.zeros(3)) == 0.0


def test_idcg_two_members():
    assert idcg_group(np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert idcg_group(np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-12)


def test_idcg_is_max_over_orderings(rng):
    import itertools
    vals = rng.uniform(size=5)
    idcg = idcg_group(vals)
    gains = 2.0 ** vals - 1.0
    best = max(sum(g / math.log2(1 + j) for j, g in enumerate(perm, start=1))
               for perm in itertools.permutations(gains))
    assert idcg == pytest.approx(best, abs=1e-12)


# -- loss_gf -------------------------------------------------------------------------


def make_base(scores, groups):
    return BaseScoreSet.from_scores(scores, groups)


def test_loss_gf_monotone_transform_near_zero():
    pv = np.array([0] * 6 + [1] * 7)
    groups = groups_of(pv)
    base_scores = np.concatenate([np.linspace(0, 5, 6), np.linspace(0.2, 5.2, 7)])
    base = make_base(base_scores, groups)
    for transform in (lambda s: 2.0 * s + 3.0, lambda s: np.sqrt(s + 1.0)):
        model = transform(base_scores)
        for g, idx in groups.items():
            solo = loss_gf(model, base, {g: idx}, c=100.0)
            assert solo < 0.02
        assert loss_gf(model, base, groups, c=100.0) < 0.04


def test_loss_gf_reversed_order_large():
    groups = {0: np.arange(5)}
    base_scores = np.array([4.0, 3.0, 2.0, 1.0, 0.0])
    base = make_base(base_scores, groups)
    model = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    value = loss_gf(model, base, groups)
    oracle = discrete_gf_oracle(model, base.normalized, groups)
    assert value > 0.2
    assert value == pytest.approx(oracle, abs=0.02)


def test_loss_gf_single_member_groups_zero():
    groups = {0: np.array([0]), 1: np.array([1])}
    # the member at the global minimum normalizes to relevance 0: degenerate
    with pytest.warns(DegenerateInputWarning):
        base = make_base(np.array([3.0, 1.0]), groups)
    with pytest.warns(DegenerateInputWarning):
        assert loss_gf(np.array([0.4, 0.9]), base, groups) == pytest.approx(0.0, abs=1e-9)


def test_loss_gf_degenerate_group_contributes_zero():
    # group 1 members all sit at the global minimum: zero relevance everywhere
    groups = {0: np.array([0, 1]), 1: np.array([2, 3])}
    model = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.warns(DegenerateInputWarning):
        base = make_base(np.array([5.0, 1.0, 0.0, 0.0]), groups)
    with pytest.warns(DegenerateInputWarning):
        value = loss_gf(model, base, groups)
    only_group0 = loss_gf(model, base, {0: groups[0]})
    assert value == pytest.approx(only_group0, abs=1e-12)


def test_loss_gf_matches_discrete_oracle_on_random_sets(rng):
    # the c=50 smoothing stays within 0.02 of the hard-rank computation
    worst = 0.0
    for _ in range(50):
        sizes = [int(rng.integers(3, 31)) for _ in range(int(rng.integers(1, 3)))]
        idx, groups, start = [], {}, 0
        for g, n in enumerate(sizes):
            groups[g] = np.arange(start, start + n)
            start += n
        scores = np.concatenate([spaced_unit_scores(rng, n) for n in sizes])
        base = make_base(rng.uniform(size=start), groups)
        got = loss_gf(scores, base, groups, c=50.0)
        want = discrete_gf_oracle(scores, base.normalized, groups)
        worst = max(worst, abs(got - want))
    assert worst < 0.02


def test_loss_gf_never_meaningfully_negative(rng):
    for _ in range(20):
        pv = np.array([0] * 10 + [1] * 6)
        groups = groups_of(pv)
        base = make_base(rng.exponential(1.0, 16), groups)
        assert loss_gf(rng.normal(size=16), base, groups) > -0.05


# -- loss_gf_corr ----------------------------------------------------------------------


def test_loss_gf_corr_perfect_alignment():
    pv = np.array([0] * 5 + [1] * 5)
    groups = groups_of(pv)
    base_scores = np.arange(10.0)
    base = make_base(base_scores, groups)
    assert loss_gf_corr(base_scores, base, groups) == pytest.approx(-2.0, rel=1e-6)


def test_loss_gf_corr_independent_scores_small(rng):
    groups = {0: np.arange(50)}
    base = make_base(rng.normal(size=50), groups)
    value = loss_gf_corr(rng.permutation(base.raw), base, groups)
    assert -0.2 < value <= 0.0


def test_loss_gf_corr_constant_group_warns():
    groups = {0: np.arange(3), 1: np.arange(3, 6)}
    base = make_base(np.array([1.0, 2.0, 3.0, 4.0, 4.0, 4.0]), groups)
    with pytest.warns(DegenerateInputWarning):
        value = loss_gf_corr(np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]), base, groups)
    assert value == pytest.approx(-1.0, rel=1e-6)


# -- total loss ---------------------------------------------------------------------------


def setup_net(rng, n=12, d=4):
    X = rng.normal(size=(n, d))
    pv = np.array([0] * (n - n // 3) + [1] * (n // 3))
    groups = groups_of(pv)
    params = init_params(AEConfig(d, 2, seed=7))
    base = make_base(score(params, X), groups)
    return X, pv, groups, params, base


def test_total_loss_alpha_one_equals_base(rng):
    X, pv, groups, params, base = setup_net(rng)
    w = LossWeights(alpha=1.0, gamma=0.0)
    assert total_loss(params, X, pv, base, w, "fairod", groups) == loss_base(params, X)


def test_total_loss_components_sum(rng):
    X, pv, groups, params, base = setup_net(rng)
    s = score(params, X)
    for variant, gf_fn in (("fairod", lambda: loss_gf(s, base, groups)),
                           ("fairod_c", lambda: loss_gf_corr(s, base, groups))):
        w = LossWeights(alpha=0.5, gamma=0.1)
        want = 0.5 * loss_base(params, X) + 0.5 * loss_sp(s, pv) + 0.1 * gf_fn()
        assert total_loss(params, X, pv, base, w, variant, groups) == pytest.approx(want, abs=1e-12)


def test_fairod_l_equals_fairod_gamma_zero(rng):
    X, pv, groups, params, base = setup_net(rng)
    w = LossWeights(alpha=0.3, gamma=0.0)
    a = total_loss(params, X, pv, base, w, "fairod", groups)
    b = total_loss(params, X, pv, None, w, "fairod_l", groups)
    assert a == b


def test_total_loss_missing_base_rejected():
    w = LossWeights(alpha=0.5, gamma=0.5)
    with pytest.raises(ValueError, match="base"):
        TotalLossSpec(variant="fairod", weights=w, pv=np.array([0, 1]))


def test_zero_net_zero_input_base_loss_and_grads_zero():
    params = init_params(AEConfig(3, 2, seed=0))
    for k in params.to_dict():
        getattr(params, k)[:] = 0.0
    spec = TotalLossSpec(variant="base_only", weights=LossWeights(1.0, 0.0))
    loss, grads = eval_loss_grad_components(params.to_dict(), np.zeros((4, 3)), spec)[:2]
    assert loss == 0.0
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())


def test_gradients_match_finite_differences_all_variants(rng):
    X, pv, groups, params, base = setup_net(rng, n=10)
    for variant in ("base_only", "fairod", "fairod_l", "fairod_c"):
        spec = TotalLossSpec(variant=variant, weights=LossWeights(0.5, 0.1),
                             pv=pv, base=base, groups=groups)
        _, got = eval_loss_grad_components(params.to_dict(), X, spec)[:2]
        want = finite_diff_grad(params.to_dict(), X, spec)
        for k in got:
            denom = np.maximum(np.abs(want[k]), 1e-8)
            assert np.max(np.abs(got[k] - want[k]) / denom) < 1e-4


# -- the fused loss and gradient against the tape oracle ---------------------------------


def assert_fused_matches_tape(params, X, spec):
    """Same loss and component bits as the tape; each gradient array within
    1e-10 of the tape's, relative to that array's largest entry.  A term
    whose gradient vanishes in exact arithmetic (|corr| of two rows, a
    saturated sigmoid rank) leaves both paths with rounding of O(1)
    contributions, hence the 1e-6 floor under that entry."""
    loss, grads, comps = eval_loss_grad_components(params, X, spec)
    t_loss, t_grads, t_comps = tape_loss_grad_components(params, X, spec)
    assert loss == t_loss and comps == t_comps
    assert grads.keys() == t_grads.keys()
    for k, want in t_grads.items():
        assert grads[k].shape == want.shape and np.all(np.isfinite(grads[k]))
        assert np.abs(grads[k] - want).max() <= 1e-10 * max(np.abs(want).max(), 1e-6), k


def batch_spec(variant, weights, pv, base, rows):
    """A spec for the batch `rows`, built the way the training loop builds it."""
    pv_b = pv[rows]
    groups_b = pv_groups(pv_b)
    return TotalLossSpec(variant=variant, weights=weights,
                         pv=None if variant == "base_only" else pv_b,
                         base=_slice_base(base, rows, groups_b), groups=groups_b)


def perturbed_params(rng, d):
    p = init_params(AEConfig(d, 2, seed=int(rng.integers(1000)))).to_dict()
    return {k: v + rng.normal(scale=0.3, size=v.shape) for k, v in p.items()}


@given(st.integers(0, 10 ** 6), st.sampled_from(VARIANTS), st.booleans(),
       st.sampled_from([0.0, 0.01, 0.5, 1.0]), st.sampled_from([0.0, 0.1, 1.0]))
def test_fused_loss_and_grad_match_the_tape(seed, variant, sliced, alpha, gamma):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 200)), int(rng.integers(1, 5))
    X = rng.normal(size=(n, d))
    pv = rng.integers(0, int(rng.integers(2, 4)), size=n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        base = BaseScoreSet.from_scores(rng.exponential(size=n), groups_of(pv))
        rows = rng.permutation(n)[:64] if sliced else slice(None)
        spec = batch_spec(variant, LossWeights(alpha, gamma), pv, base, rows)
    assert_fused_matches_tape(perturbed_params(rng, d), X[rows], spec)


@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_grad_on_batch_missing_a_group_or_with_a_singleton(variant, rng):
    X = rng.normal(size=(40, 3))
    pv = np.array([0] * 30 + [1] * 10)
    base = BaseScoreSet.from_scores(rng.exponential(size=40), groups_of(pv))
    params = perturbed_params(rng, 3)
    for rows in (np.arange(8, 24), np.r_[0:15, 35]):  # group 1 absent; group 1 one row
        spec = batch_spec(variant, LossWeights(0.5, 0.5), pv, base, rows)
        assert_fused_matches_tape(params, X[rows], spec)


def test_fused_loss_names_the_non_finite_term(rng):
    X, pv, groups, params, base = setup_net(rng)
    spec = TotalLossSpec(variant="fairod", weights=LossWeights(0.5, 0.1),
                         pv=pv, base=base, groups=groups)
    huge = {k: v * 1e200 for k, v in params.to_dict().items()}
    with np.errstate(all="ignore"), pytest.raises(NumericalOverflowError, match="loss_base"):
        eval_loss_grad_components(huge, X, spec)


@pytest.mark.parametrize("key", ["W_enc1", "b_dec1", "b_out"])
def test_fused_loss_names_the_non_finite_gradient_array(key, monkeypatch, rng):
    # the six gradient arrays pass one finiteness test; a failure names the
    # first array, in parameter order, that holds a non-finite value
    real = losses.score_and_pullback

    def poisoned(params, X):
        scores, pullback = real(params, X)

        def poisoned_pullback(g):
            grads = pullback(g)
            grads[key].flat[-1] = np.nan
            grads["b_out"][0] = np.inf
            return grads
        return scores, poisoned_pullback

    monkeypatch.setattr(losses, "score_and_pullback", poisoned)
    spec = TotalLossSpec(variant="base_only", weights=LossWeights(1.0, 0.0))
    with pytest.raises(NumericalOverflowError, match=rf"'grad\[{key}\]'"):
        eval_loss_grad_components(perturbed_params(rng, 3), rng.normal(size=(20, 3)), spec)


def test_loss_weight_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=1.5, gamma=0.0)
    with pytest.raises(ValueError):
        LossWeights(alpha=0.5, gamma=-0.1)
    with pytest.raises(ValueError):
        LossWeights(alpha=0.5, gamma=0.1, c=0.0)


def test_losses_deterministic(rng):
    X, pv, groups, params, base = setup_net(rng)
    w = LossWeights(alpha=0.2, gamma=0.4)
    v1 = total_loss(params, X, pv, base, w, "fairod", groups)
    v2 = total_loss(params, X, pv, base, w, "fairod", groups)
    assert v1 == v2
