"""The kept rank workspaces against the allocating passes they replaced.

`allocating_pairwise_ranks` and `allocating_binned_ranks` are the exact and
binned smoothed-rank passes as they were before `losses` kept per-thread
buffers, copied verbatim: every pass allocated its tanh blocks, grids and
spectra afresh.  The program's passes must give the same bytes, for ranks
and VJPs, in any order of forward passes and VJPs, on any thread."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fairod import losses
from fairod.dataset import group_view, make_synth1, standardize
from fairod.detector import init_params, score
from fairod.losses import (_BIN_STEP, _BINNED_MAX_BINS, _KERNEL_REACH, _RANK_BLOCK,
                           _kernel_spectra)


def allocating_pairwise_ranks(s: np.ndarray, c: float):
    """Smooth within-group ranks: 0.5 + sum_k sigma(c (s_k - s_i)).

    The self pair contributes sigma(0) = 0.5 exactly, so adding 0.5 equals
    counting the self term as 1, keeping every rank >= 1.

    Returns the ranks and their vector-Jacobian product, with no (n,n)
    matrix.  With h = (c/2) s and t_ik = tanh(h_k - h_i),
    sigma(c (s_k - s_i)) = (1 + t_ik)/2, so ranks = 0.5 + n/2 + sum_k t_ik/2.
    t is antisymmetric, so each row block [a, b) forms only the pairs
    k >= a: their row sums go to rows a:b and the column sums of the part
    k >= b are subtracted from rows b:.  A group of at most _RANK_BLOCK
    rows is a single block.

    The pullback of an upstream u is u @ D - u * D.sum(axis=1) with
    D = c sigma (1 - sigma) = (c/4)(1 - T), T = t*t.  D is symmetric, so
    it equals (c/4)(sum(u) - T u - u (n - T.sum(axis=1))).  The VJP
    recomputes every block but the forward pass's last one (at most
    _RANK_BLOCK x _RANK_BLOCK, the whole matrix of a one-block group)
    rather than keeping n^2/2 values alive.

    Each block is dropped before the next is formed, so the pass holds one
    block of at most _RANK_BLOCK * n pair values at a time.
    """
    n = s.size
    h = (0.5 * c) * s
    starts = range(0, n, _RANK_BLOCK)

    def block(a):
        b = min(a + _RANK_BLOCK, n)
        t = h[a:] - h[a:b, None]  # [i - a, k - a] = h_k - h_i
        np.tanh(t, out=t)
        return b, t

    tsum = np.zeros(n)
    for a in starts:
        b, t = block(a)
        tsum[a:b] += t.sum(axis=1)
        if b < n:
            tsum[b:] -= t[:, b - a:].sum(axis=0)
        else:
            last = t  # the final block itself, which the VJP reuses
        del t
    ranks = tsum * 0.5 + (0.5 + 0.5 * n)

    def vjp(g):
        tg = np.zeros(n)
        tsq = np.zeros(n)
        for a in starts[::-1]:
            if a == starts[-1]:
                b, t = n, np.square(last)
            else:
                b, t = block(a)
                np.square(t, out=t)
            tg[a:b] += t @ g[a:]
            tsq[a:b] += t.sum(axis=1)
            if b < n:
                tg[b:] += g[a:b] @ t[:, b - a:]
                tsq[b:] += t[:, b - a:].sum(axis=0)
            del t
        return (0.25 * c) * (g.sum() - tg - g * (n - tsq))

    return ranks, vjp


def allocating_binned_ranks(s: np.ndarray, c: float, points: int):
    """`_pairwise_ranks` approximated on a grid of `points` points centred
    on [min s, max s], with c times the grid step equal to _BIN_STEP; the
    grid must cover the scores, so points >= c (max s - min s) / _BIN_STEP
    + 1 (`_rank_bins` gives the smallest such).  O(n + L log L) time and
    O(L) memory, L the smallest power of two of at least points +
    _KERNEL_REACH.

    Each score is split linearly between its two neighbouring grid points
    (linear binning), each sum over k becomes a sum over the grid weights,
    and the grid result is interpolated back linearly at each score.  This
    is the binned kernel density estimate (Silverman 1982, Applied
    Statistics AS 176).

    The forward pass sums tanh(c d / 2) over the weights.  It splits the
    kernel into sign(d), a prefix sum over the grid, and the remainder
    tanh - sign, which falls below 2^-60 beyond _KERNEL_REACH offsets and
    is correlated by real FFTs of length L (no wrap-around reaches a
    nonzero kernel slot).  The VJP correlates the g-weighted and the plain
    weights with D(d) = (c/4)(1 - tanh^2(c d / 2)), as short:
    out_j = sum_i g_i D(s_j - s_i) - g_j sum_k D(s_k - s_j), whose self
    terms cancel.  The kernels do not depend on c or on the scores, so
    their spectra are cached per L (`_kernel_spectra`): five FFTs a pass.
    Ties add no error of their own in the forward pass: tied scores share
    their weights, and both parts of the kernel are odd.  The centred grid
    bins -s as the mirror image of s, so, as for the exact ranks, the
    ranks of -s are n + 1 minus those of s (up to rounding).
    """
    n = s.size
    size = 1 << (points + _KERNEL_REACH - 1).bit_length()
    remainder, sech2 = _kernel_spectra(size)
    lo, scale = s.min(), c / _BIN_STEP
    pos = (s - lo) * scale + 0.5 * ((points - 1) - (s.max() - lo) * scale)
    left = np.minimum(pos.astype(np.intp), points - 2)
    right_w = pos - left
    left_w = 1.0 - right_w

    def spread(weights_left, weights_right):  # onto the grid
        return (np.bincount(left, weights_left, points)
                + np.bincount(left + 1, weights_right, points))

    def gather(grid):  # grid values interpolated at s
        return grid[left] * left_w + grid[left + 1] * right_w

    weights = spread(left_w, right_w)
    spectrum = np.fft.rfft(weights, size)
    # the weights become the grid's sign sums, in place so that no spare
    # grid is held across the FFTs: sum_p w_p sign(p - m) = sum_{p > m} w_p
    # - sum_{p < m} w_p = total + w_m - 2 sum_{p <= m} w_p
    below = np.cumsum(weights)
    weights += below[-1]
    below *= 2.0
    weights -= below
    del below
    weights += np.fft.irfft(spectrum * remainder, size)[:points]
    ranks = gather(weights) * 0.5 + (0.5 + 0.5 * n)

    def vjp(g):
        gw = np.fft.rfft(spread(g * left_w, g * right_w), size)
        gw *= sech2
        return (0.25 * c) * (gather(np.fft.irfft(gw, size))
                             - g * gather(np.fft.irfft(spectrum * sech2, size)))

    return ranks, vjp


def unit_scores(rng, n):
    s = rng.normal(size=n)
    return (s - s.mean()) / s.std() if n > 1 else s


def grid_case(rng, n, size):
    """Unit-scaled heavy-tailed scores, a c and a point count whose binned
    pass runs FFTs of length `size`: the grid of `points` points just covers
    the scores, with `points` at most _BINNED_MAX_BINS."""
    s = losses._unit_scale_vjp(np.abs(rng.standard_t(3.0, size=n)))[0]
    points = min(size - _KERNEL_REACH, _BINNED_MAX_BINS)
    c = (points - 1) * _BIN_STEP / float(np.ptp(s)) * (1.0 - 1e-12)
    assert 1 << (points + _KERNEL_REACH - 1).bit_length() == size
    return s, c, points


def assert_same_bits(got, want, g):
    """Equal rank bytes, and equal VJP bytes at g on a first and a second
    call of each VJP."""
    assert got[0].tobytes() == want[0].tobytes()
    want_g = want[1](g).tobytes()
    assert got[1](g).tobytes() == want_g
    assert got[1](g).tobytes() == want_g


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 400, 1023, 1024, 1500])
def test_exact_ranks_and_vjp_are_the_allocating_bits(n):
    rng = np.random.default_rng(n)
    s, g = unit_scores(rng, n), rng.normal(size=n)
    assert_same_bits(losses._pairwise_ranks(s, 50.0), allocating_pairwise_ranks(s, 50.0), g)


@pytest.mark.parametrize("size", [1 << k for k in range(10, 16)] + [1 << 18])
def test_binned_ranks_and_vjp_are_the_allocating_bits(size):
    rng = np.random.default_rng(size)
    s, c, points = grid_case(rng, 2000, size)
    got = losses._binned_ranks(s, c, points)
    assert losses._workspace.size == size
    assert_same_bits(got, allocating_binned_ranks(s, c, points), rng.normal(size=s.size))


@pytest.mark.parametrize("owner_first", [True, False])
def test_exact_vjps_after_later_forward_passes_recompute_their_blocks(owner_first):
    # the tape's order: every forward pass, then the VJPs, last pass first;
    # the later passes overwrite the first pass's blocks in the scratch
    rng = np.random.default_rng(7)
    cases = [(unit_scores(rng, n), rng.normal(size=n)) for n in (400, 300, 130)]
    passes = [losses._pairwise_ranks(s, 50.0) for s, _ in cases]
    order = [2, 1, 0] if owner_first else [0, 1, 2]
    for step, i in enumerate(order):
        s, g = cases[i]
        ranks, vjp = passes[i]
        want_ranks, want_vjp = allocating_pairwise_ranks(s, 50.0)
        assert ranks.tobytes() == want_ranks.tobytes()
        assert vjp(g).tobytes() == want_vjp(g).tobytes()
        # only the last pass's VJP gives the scratch up; a stale VJP leaves
        # the last pass's claim in place
        assert (losses._workspace.owner is None) == (2 in order[:step + 1])


def test_binned_passes_at_two_fft_lengths_interleaved():
    rng = np.random.default_rng(8)
    cases = [grid_case(rng, n, size) for n, size in ((1500, 1 << 13), (2500, 1 << 15))]
    gs = [rng.normal(size=case[0].size) for case in cases]
    passes = [losses._binned_ranks(*case) for case in cases]
    assert losses._workspace.size == 1 << 15
    for i, size in ((0, 1 << 13), (1, 1 << 15), (0, 1 << 13)):
        want_ranks, want_vjp = allocating_binned_ranks(*cases[i])
        assert passes[i][0].tobytes() == want_ranks.tobytes()
        assert passes[i][1](gs[i]).tobytes() == want_vjp(gs[i]).tobytes()
        assert losses._workspace.size == size  # the VJP took the buffers to its length


def test_threads_ranking_at_once_give_the_serial_bits():
    # more threads than the two CPUs the suite is timed on, switching often;
    # each ranks one exact and one binned group, at its own FFT length
    rng = np.random.default_rng(9)
    work = [[(unit_scores(rng, n), 50.0, None), grid_case(rng, 1500, 1 << k)]
            for n, k in ((400, 12), (700, 13), (130, 14), (1000, 15))]

    def rank(case):
        s, c, points = case
        return losses._pairwise_ranks(s, c) if points is None else losses._binned_ranks(s, c, points)

    def oracle(case):
        s, c, points = case
        return (allocating_pairwise_ranks(s, c) if points is None
                else allocating_binned_ranks(s, c, points))

    gs = [[rng.normal(size=case[0].size) for case in cases] for cases in work]
    serial = [[(r.tobytes(), vjp(g).tobytes()) for (r, vjp), g in zip(map(oracle, cases), g_)]
              for cases, g_ in zip(work, gs)]
    start = threading.Barrier(len(work), timeout=60)
    results, sizes = [[] for _ in work], [None] * len(work)

    def run(k):
        start.wait()
        for _ in range(4):
            passes = [rank(case) for case in work[k]]  # both forward passes, then both VJPs
            results[k].append([(r.tobytes(), vjp(g).tobytes()) for (r, vjp), g in zip(passes, gs[k])])
        sizes[k] = losses._workspace.size

    threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(len(work)):
        assert results[k] == [serial[k]] * 4
    assert sizes == [1 << k for k in (12, 13, 14, 15)]


def kept_bytes():
    ws = losses._workspace
    return sum(a.nbytes for a in (ws.grids, ws.spectra, ws.triangle) if a is not None)


def test_kept_buffers_hold_one_fft_length_and_one_triangle_per_thread():
    largest = 1 << 18  # the FFT length of the 2^17-point cap
    fft = 2 * largest * 8 + 2 * (largest // 2 + 1) * 16
    rows = losses._BINNED_MIN_ROWS - 1  # the largest group the scratch serves
    triangle = 8 * sum(-(-min(_RANK_BLOCK, rows - a) * (rows - a) // 8) * 8
                       for a in range(0, rows, _RANK_BLOCK))
    assert triangle < 4.3 * 2 ** 20 and fft <= 8 * 2 ** 20 + 32
    kept = []

    def rank_everything():
        s = np.random.default_rng(10).uniform(size=losses._BINNED_MIN_ROWS)
        for k in range(9, 19):
            points = min((1 << k) - _KERNEL_REACH, _BINNED_MAX_BINS)
            losses._binned_ranks(s, (points - 1) * _BIN_STEP, points)[1](s)
        for n in range(1, losses._BINNED_MIN_ROWS + 1):
            losses._pairwise_ranks(s[:n], 50.0)
        kept.append(kept_bytes())

    other = threading.Thread(target=rank_everything)
    other.start()
    other.join()
    rank_everything()
    assert kept == [fft + triangle] * 2


def largest_stretch(call, prefixes):
    """Run call() and return the most traced memory that any stretch between
    two profiler events (calls and returns) held above its start, over the
    stretches inside functions whose qualified names start with one of
    `prefixes`.  An array allocated there raises its stretch by its size."""
    state = {"depth": 0, "start": 0, "largest": 0}

    def profile(frame, event, arg):
        if state["depth"]:
            state["largest"] = max(state["largest"],
                                   tracemalloc.get_traced_memory()[1] - state["start"])
        code = frame.f_code
        if (event in ("call", "return") and code.co_filename == losses.__file__
                and code.co_qualname.startswith(prefixes)):
            state["depth"] += 1 if event == "call" else -1
        tracemalloc.reset_peak()
        state["start"] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return state["largest"]


def test_a_second_full_batch_step_allocates_no_grid_or_tanh_block():
    ds = standardize(make_synth1(2000, 400, 120, seed=1))
    groups = group_view(ds)
    base = losses.BaseScoreSet.from_scores(score(init_params(ds.d, 2), ds.features), groups)
    spec = losses.TotalLossSpec(variant="fairod", weights=losses.LossWeights(0.01, 0.1),
                                pv=ds.pv, base=base, groups=groups)
    params = init_params(ds.d, 1)
    scores = score(params, ds.features)
    sizes = {}
    for g, idx in groups.items():
        points = losses._rank_bins(losses._unit_scale_vjp(scores[idx])[0], 50.0)
        sizes[idx.size] = 1 << (points + _KERNEL_REACH - 1).bit_length() if points else 0
    assert sizes[2000] and not sizes[400]  # one binned group, one exact group of 7 blocks
    params = params.to_dict()
    spec.loss_and_grad(params, ds.features)

    def step():
        spec.loss_and_grad(params, ds.features)
    # an FFT-length grid or spectrum is at least size * 8 bytes; the exact
    # group's first tanh block 64 * 400 * 8
    assert largest_stretch(step, ("_binned_ranks", "_fft_buffers")) < sizes[2000] * 8
    assert largest_stretch(step, ("_pairwise_ranks", "_triangle")) < _RANK_BLOCK * 400 * 8
