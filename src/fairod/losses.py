"""Training objectives: reconstruction loss, statistical-parity correlation
loss, the listwise group-fidelity loss with sigmoid-smoothed ranks, its
correlation-based ablation, and the composite total loss.

`TotalLossSpec.terms` states the objective once: which terms a variant
sums, with which weights, in which order, under which names.  Both
evaluators loop over that list.  Training calls
`TotalLossSpec.loss_and_grad`: one numpy pass per term over the score
vector, each with a hand-written vector-Jacobian product (closed-form
|Pearson| derivatives, the smoothed-rank pullback), chained through the
detector's pullback.  The public value functions and
`TotalLossSpec.components` build the same terms on the `numgrad` tape with
the same operations in the same order; the tape's gradient is the oracle
the fused one is tested against.

The tape, `total_loss` and `smooth_rank` always rank exactly
(`_pairwise_ranks`).  The fused pass does too, except for a group of at
least _BINNED_MIN_ROWS rows whose binned ranks (`_binned_ranks`) are
predicted cheaper than the exact ones (`_rank_bins` states the rule and
its measured constants).  Below that size, every minibatch group among
them, both paths give the same loss bits.  Above it the binned gf term is
within 1e-3 per group of the exact one and its gradient has a cosine of
at least 0.9999 with the exact gradient (tested on heavy-tailed inputs;
at the models the full-batch synth1 fit returns for seeds 1-10, within
5e-5 relative and above 0.99999997).  The binned pass keeps the spectra of its
two kernels between calls, one pair per FFT length (`_kernel_spectra`, at
most 8 MiB); they depend on nothing else, so a cold and a warm cache give
the same bits, and a forked grid cell inherits its parent's.

Each thread also keeps workspaces (`_workspace`), so that a repeated
full-batch epoch allocates no grid-length array and no tanh block: the
binned pass's two grids and two spectra for the last FFT length it ran
(at most 8 MiB, at the grid cap), and a triangle scratch for the tanh
blocks of an exact group of _RANK_BLOCK + 1 to _BINNED_MIN_ROWS - 1 rows
(at most about 4.2 MiB).  No result depends on the order of calls.  The
binned VJP forms everything it reads from the forward pass in that pass,
and uses the buffers only as scratch.  An exact VJP squares the forward
pass's blocks in place only while that pass still owns the scratch; after
a later forward pass took it, as the tape's does for every group before
any VJP, it recomputes them, with the same bits.

Two epsilons appear throughout: EPS_DENOM (1e-8) guards correlation/scale
denominators, and EPS_VAR (1e-16) is added under square roots so gradients
stay finite when a variance hits zero.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import GroupView, pv_groups
from .detector import AutoencoderParams, score_and_pullback, score_graph
from .numgrad import _LN2, NumericalOverflowError, Var, _assert_finite, as_var, eval_loss

EPS_DENOM = 1e-8
EPS_VAR = 1e-16

VARIANTS = ("fairod", "fairod_l", "fairod_c", "base_only")


class DegenerateInputWarning(UserWarning):
    """Constant scores, single-group pv, or an all-zero-relevance group."""


def _warn(msg: str) -> None:
    warnings.warn(msg, DegenerateInputWarning, stacklevel=3)


@dataclass(frozen=True)
class LossWeights:
    """alpha balances reconstruction vs parity; gamma scales group fidelity;
    c is the sigmoid sharpness used by the smoothed ranks."""

    alpha: float
    gamma: float
    c: float = 50.0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0,1], got {self.alpha}")
        if not (0.0 <= self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (0.0 < self.c < math.inf):
            raise ValueError(f"c must be finite and > 0, got {self.c}")


# -- base scores -------------------------------------------------------------------


def idcg_group(base_scores_in_group: np.ndarray) -> float:
    """Best attainable DCG: gains 2^s - 1 sorted descending, discounts
    log2(1+j) with j starting at 1.  Scores must already be in [0,1]."""
    s = np.sort(np.asarray(base_scores_in_group, dtype=np.float64))[::-1]
    if s.size == 0:
        raise ValueError("idcg_group needs a nonempty group")
    gains = np.exp2(s) - 1.0
    value = float(np.sum(gains / np.log2(1.0 + np.arange(1, s.size + 1))))
    if value == 0.0:
        _warn("idcg_group: all-zero relevances, group is degenerate")
    return value


@dataclass
class BaseScoreSet:
    """Frozen base-detector scores with the derived quantities the
    group-fidelity loss needs: min-max bounds, normalized scores in [0,1],
    gains 2^s-1, and the per-group ideal DCG (computed once, up front)."""

    raw: np.ndarray
    lo: float
    hi: float
    normalized: np.ndarray
    relevance: np.ndarray
    idcg: dict[int, float]

    @classmethod
    def from_scores(cls, scores: np.ndarray, groups: GroupView) -> "BaseScoreSet":
        raw = np.asarray(scores, dtype=np.float64)
        lo, hi = float(raw.min()), float(raw.max())
        span = hi - lo
        normalized = (raw - lo) / span if span > 0.0 else np.zeros_like(raw)
        relevance = np.exp2(normalized) - 1.0
        idcg = {g: idcg_group(normalized[idx]) for g, idx in groups.items()}
        return cls(raw=raw, lo=lo, hi=hi, normalized=normalized,
                   relevance=relevance, idcg=idcg)


# -- correlation pieces ---------------------------------------------------------------


def _pearson_abs_graph(u: Var, v: np.ndarray) -> Var:
    """|corr(u, v)| with v constant; denominators are epsilon-guarded."""
    v = np.asarray(v, dtype=np.float64)
    vm = v - v.mean()
    std_v = float(np.sqrt(vm.dot(vm) / v.size + EPS_VAR))
    mu = u.mean()
    centered = u - mu
    var_u = (centered * centered).mean()
    std_u = (var_u + EPS_VAR).sqrt()
    cov = (centered * as_var(vm)).mean()
    return (cov / (std_u * std_v + EPS_DENOM)).abs()


def _pearson_abs_vjp(u: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """`_pearson_abs_graph`'s value and its gradient in u, in numpy."""
    n = u.size
    vm = v - v.mean()
    std_v = float(np.sqrt(vm.dot(vm) / v.size + EPS_VAR))
    centered = u - u.sum() * (1.0 / n)
    std_u = np.sqrt((centered * centered).sum() * (1.0 / n) + EPS_VAR)
    denom = std_u * std_v + EPS_DENOM
    r = (centered * vm).sum() * (1.0 / n) / denom
    # d r / d centered = (vm - r std_v centered / std_u) / (n denom); the
    # mean's pullback then removes the gradient's own mean
    g = (np.sign(r) / (n * denom)) * (vm - (r * std_v / std_u) * centered)
    return float(np.abs(r)), g - g.sum() * (1.0 / n)


def pearson_abs_corr(u: np.ndarray, v: np.ndarray) -> float:
    """Absolute Pearson correlation, clipped to [0,1]; degenerate inputs
    (either side constant) return 0 with a warning."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("pearson_abs_corr needs two equal-length vectors")
    if u.size < 2:
        raise ValueError("pearson_abs_corr needs length >= 2")
    if np.ptp(u) == 0.0 or np.ptp(v) == 0.0:
        _warn("pearson_abs_corr: constant input, correlation undefined; returning 0")
    return float(min(_pearson_abs_graph(as_var(u), v).value, 1.0))


def _sp_terms(groups: GroupView, n: int) -> list[np.ndarray]:
    """Indicator targets over n rows for the parity loss: the larger id's
    membership when there are two groups, one column per group otherwise."""
    ids = sorted(groups)
    if len(ids) < 2:
        return []
    targets = []
    for g in ids[1:] if len(ids) == 2 else ids:
        t = np.zeros(n)
        t[groups[g]] = 1.0
        targets.append(t)
    return targets


def loss_sp_graph(scores: Var, groups: GroupView) -> Var:
    terms = _sp_terms(groups, scores.shape[0])
    if not terms:
        return as_var(0.0)
    total = _pearson_abs_graph(scores, terms[0])
    for t in terms[1:]:
        total = total + _pearson_abs_graph(scores, t)
    return total


def _loss_sp_vjp(scores: np.ndarray, groups: GroupView) -> tuple[float, np.ndarray]:
    value, grad = 0.0, np.zeros_like(scores)
    for t in _sp_terms(groups, scores.size):
        v, g = _pearson_abs_vjp(scores, t)
        value += v
        grad += g
    return float(value), grad


def loss_sp(scores: np.ndarray, pv: np.ndarray) -> float:
    """Statistical-parity loss: |corr(scores, group indicator)|, summed over
    one-hot columns when pv takes more than two values."""
    scores = np.asarray(scores, dtype=np.float64)
    groups = pv_groups(np.asarray(pv))
    if len(groups) < 2:
        _warn("loss_sp: single-group pv, parity is undefined; returning 0")
        return 0.0
    if np.ptp(scores) == 0.0:
        _warn("loss_sp: constant scores; returning 0")
    return float(loss_sp_graph(as_var(scores), groups).value)


# -- smoothed ranks and group fidelity ---------------------------------------------------


# Rows per block of the smoothed-rank pair computation: a block holds at
# most _RANK_BLOCK * n pair values.  From _BINNED_MIN_ROWS rows up the exact
# pass holds one block at a time, which bounds the rank term's memory;
# below, a thread's triangle scratch keeps every block of its last pass.
_RANK_BLOCK = 64

# The fused pass ranks a group of at least _BINNED_MIN_ROWS rows on a grid
# (`_binned_ranks`, c * (grid step) = _BIN_STEP) when the grid costs less
# than the pairs: bins * _PAIRS_PER_BIN < n^2, bins the power of two at or
# above the grid's points, at most _BINNED_MAX_BINS.  Measured on a 2-CPU
# box, forward pass and VJP at c = 50 (median of 15-21): the exact pass
# takes 3.5-5.7 ns per pair from 1024 rows up (2.6-3.3 ns below 1024, where
# the VJP reuses the forward pass's blocks).  The binned pass runs FFTs of
# length L, the power of two at or above points + _KERNEL_REACH: in kept
# buffers, at 2000 rows it takes 0.27 ms at L = 4096, 0.45 ms at 8192,
# 0.8 ms at 16384, 2.3 ms at 32768, 3.3 ms at 65536, 11 ms at 131072 and
# 25 ms at the cap, 2^17 points and L = 2^18 (50-95 ns per point of L).
# A 2000-row synth1 group (5300-18100 points, L 8192-32768) takes
# 0.45-1.5 ms.  Its peak memory at 2^17 points is the 8 MiB of buffers its
# thread keeps (`_fft_buffers`) plus 0.1 MiB at 2000 rows and 6 MiB at
# 10^5, and the 4 MiB of kernel spectra the first call at that L keeps.
# At _BIN_STEP = 0.1 the rank error on recorded synth1 fits (2000 rows,
# ranges 11-31) was at most 0.28, and the gf term's relative error on
# heavy-tailed test inputs at most 4e-4; both grow as _BIN_STEP squared.
# Per bin the binned pass costs about 50-95 ns, so a break-even near 10-20
# pairs per bin would bin more groups;
# _PAIRS_PER_BIN stays at the 50 measured for the earlier length-2 bins
# pass on purpose, so that the same groups are binned, and re-tuning it is
# a change of its own.  Below
# _BINNED_MIN_ROWS the exact pass costs at most about 3 ms, and every group
# there stays exact, every minibatch group among them.
_BINNED_MIN_ROWS = 1024
_BIN_STEP = 0.1
_PAIRS_PER_BIN = 50
_BINNED_MAX_BINS = 1 << 17

# Grid offsets d past which both binned kernels lie below 2^-60:
# |tanh(x) - sign(x)| <= 2 exp(-2|x|) and 1 - tanh^2(x) <= 4 exp(-2|x|),
# with 2|x| = _BIN_STEP |d|, and 4 exp(-62 ln 2) = 2^-60.  430 at 0.1.
_KERNEL_REACH = math.ceil(62.0 * math.log(2.0) / _BIN_STEP)
_spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # `_kernel_spectra`, by FFT length


class _Workspace(threading.local):
    """One thread's kept rank buffers, so that a repeated pass allocates no
    grid-length array and no tanh block.  `grids` (two grids of `size`
    values) and `spectra` (two spectra of size // 2 + 1) serve the binned
    pass at the last FFT length it ran; `triangle` holds the tanh blocks of
    the last exact pass of _RANK_BLOCK + 1 to _BINNED_MIN_ROWS - 1 rows, and
    `owner` that pass's token."""

    size = 0
    grids = spectra = None
    triangle = np.empty(0)
    owner = None


_workspace = _Workspace()


def _triangle(n: int) -> list[np.ndarray]:
    """One view per _RANK_BLOCK-row block of an n-row exact pass into this
    thread's triangle scratch, grown to fit.  Each block starts at a
    multiple of 8 values (64 bytes) and has the shape and strides of a block
    allocated on its own."""
    shapes = [(min(a + _RANK_BLOCK, n) - a, n - a) for a in range(0, n, _RANK_BLOCK)]
    offsets = [0]
    for rows, cols in shapes:
        offsets.append(offsets[-1] + -(-rows * cols // 8) * 8)
    if _workspace.triangle.size < offsets[-1]:
        _workspace.triangle = np.empty(offsets[-1])
    tri = _workspace.triangle
    return [tri[o:o + rows * cols].reshape(rows, cols)
            for o, (rows, cols) in zip(offsets, shapes)]


def _pairwise_ranks(s: np.ndarray, c: float):
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
    it equals (c/4)(sum(u) - T u - u (n - T.sum(axis=1))).

    Where the blocks live depends on n.  A one-block group keeps its block,
    which the VJP squares into a new array.  Between _RANK_BLOCK and
    _BINNED_MIN_ROWS rows the forward pass writes every block into this
    thread's triangle scratch (`_triangle`, at most about 4.2 MiB) and
    takes it with a fresh token; a VJP that still holds the token squares
    the blocks in place, and one whose scratch a later pass took (the tape
    runs every group's forward pass before any VJP) recomputes them, with
    the same bits.  From _BINNED_MIN_ROWS rows up the pass holds one block
    of at most _RANK_BLOCK * n pair values at a time, and the VJP
    recomputes every block but the last.
    """
    n = s.size
    h = (0.5 * c) * s
    starts = range(0, n, _RANK_BLOCK)
    blocks = _triangle(n) if _RANK_BLOCK < n < _BINNED_MIN_ROWS else None
    if blocks is not None:
        token = _workspace.owner = object()

    def block(a, out=None):
        b = min(a + _RANK_BLOCK, n)
        # [i - a, k - a] = h_k - h_i
        t = h[a:] - h[a:b, None] if out is None else np.subtract(h[a:], h[a:b, None], out=out)
        np.tanh(t, out=t)
        return b, t

    tsum = np.zeros(n)
    for a in starts:
        b, t = block(a) if blocks is None else block(a, blocks[a // _RANK_BLOCK])
        tsum[a:b] += t.sum(axis=1)
        if b < n:
            tsum[b:] -= t[:, b - a:].sum(axis=0)
        else:
            last = t  # the final block itself, which the VJP reuses
        del t
    ranks = tsum * 0.5 + (0.5 + 0.5 * n)

    def vjp(g):
        own = blocks is not None and _workspace.owner is token
        if own:
            _workspace.owner = None  # its tanh blocks are squared below
        tg = np.zeros(n)
        tsq = np.zeros(n)
        for a in starts[::-1]:
            if a == starts[-1] and blocks is None:
                b, t = n, np.square(last)
            elif own:
                t = blocks[a // _RANK_BLOCK]
                b = a + t.shape[0]
                np.square(t, out=t)
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


def _kernel_spectra(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectra, for circular convolutions of length `size`, of the two
    kernels `_binned_ranks` correlates the grid weights with, at offsets d
    below _KERNEL_REACH (zero beyond): the forward pass's tanh(x) - sign(x)
    and the VJP's 1 - tanh^2(x), with x = _BIN_STEP d / 2.  Both are
    written through e = exp(-2|x|), as -sign(x) 2e / (1 + e) and
    4e / (1 + e)^2, so their tails do not cancel against 1.
    Computed once per size and kept: at most one entry per power of two."""
    spectra = _spectra.get(size)
    if spectra is None:
        e = np.exp(-_BIN_STEP * np.arange(1, _KERNEL_REACH))  # at |d| = 1 .. _KERNEL_REACH - 1
        remainder, sech2 = np.zeros(size), np.zeros(size)
        # slot j holds offset -j and slot size - j offset j, as a convolution
        # reads them
        remainder[1:_KERNEL_REACH] = 2.0 * e / (1.0 + e)
        remainder[:-_KERNEL_REACH:-1] = -remainder[1:_KERNEL_REACH]
        sech2[0] = 1.0
        sech2[1:_KERNEL_REACH] = 4.0 * e / ((1.0 + e) * (1.0 + e))
        sech2[:-_KERNEL_REACH:-1] = sech2[1:_KERNEL_REACH]
        spectra = (np.fft.rfft(remainder), np.fft.rfft(sech2))
        for a in spectra:
            a.flags.writeable = False
        _spectra[size] = spectra
    return spectra


def _binned_ranks(s: np.ndarray, c: float, points: int):
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
    The grids and spectra are this thread's kept buffers (`_fft_buffers`).
    The VJP's self term, the plain weights correlated with D, is formed in
    the forward pass, so the VJP reads nothing a later pass overwrites.
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

    def spread(grids, weights_left, weights_right):
        """Onto grids[0], zero past the grid's points, with grids[1] as
        scratch: the bits of two np.bincount calls summed."""
        grid, spare = grids
        grid.fill(0.0)
        spare[:points] = 0.0
        np.add.at(grid, left, weights_left)
        np.add.at(spare, left + 1, weights_right)
        grid[:points] += spare[:points]
        return grid

    def gather(grid):  # grid values interpolated at s
        return grid[left] * left_w + grid[left + 1] * right_w

    grids, (spectrum, product) = _fft_buffers(size)
    np.fft.rfft(spread(grids, left_w, right_w), out=spectrum)
    # the weights become the grid's sign sums, in place: sum_p w_p sign(p - m)
    # = sum_{p > m} w_p - sum_{p < m} w_p = total + w_m - 2 sum_{p <= m} w_p
    weights, spare = grids[0, :points], grids[1]
    below = np.cumsum(weights, out=spare[:points])
    weights += below[-1]
    below *= 2.0
    weights -= below
    np.fft.irfft(np.multiply(spectrum, remainder, out=product), size, out=spare)
    weights += spare[:points]
    ranks = gather(weights) * 0.5 + (0.5 + 0.5 * n)
    np.fft.irfft(np.multiply(spectrum, sech2, out=product), size, out=spare)
    self_sums = gather(spare)

    def vjp(g):
        grids, (gw, _) = _fft_buffers(size)
        np.fft.rfft(spread(grids, g * left_w, g * right_w), out=gw)
        gw *= sech2
        out = np.fft.irfft(gw, size, out=grids[1])
        return (0.25 * c) * (gather(out) - g * self_sums)

    return ranks, vjp


def _fft_buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two grids of `size` values and two spectra of
    size // 2 + 1, allocated again only when the FFT length changes: at
    most 8 MiB, at the cap's L = 2^18."""
    ws = _workspace
    if ws.size != size:
        # the old length's buffers go first, and a failed allocation leaves
        # no length behind
        ws.size, ws.grids, ws.spectra = 0, None, None
        ws.grids = np.empty((2, size))
        ws.spectra = np.empty((2, size // 2 + 1), dtype=complex)
        ws.size = size
    return ws.grids, ws.spectra


def _rank_bins(s: np.ndarray, c: float) -> int:
    """The number of grid points `_binned_ranks` would rank s on, or 0
    where the exact `_pairwise_ranks` is the one to run."""
    n = s.size
    if n < _BINNED_MIN_ROWS:
        return 0
    # grid steps across the range at c * step = _BIN_STEP; a zero range
    # (all ties) is ranked exactly, and a NaN or infinite one fails on the
    # exact path as it does for any other group
    steps = c * float(s.max() - s.min()) / _BIN_STEP
    need = steps + 1.0
    if not 1.0 < need <= _BINNED_MAX_BINS:
        return 0
    # priced at the power of two at or above the grid, as it was measured
    if (1 << math.ceil(math.log2(need))) * _PAIRS_PER_BIN >= n * n:
        return 0
    return math.ceil(steps) + 1


def _group_ranks(s: np.ndarray, c: float):
    """The fused pass's smoothed ranks of one group and their VJP: binned
    where `_rank_bins` picks a grid, exact otherwise."""
    points = _rank_bins(s, c)
    return _binned_ranks(s, c, points) if points else _pairwise_ranks(s, c)


def _pairwise_rank_graph(su: Var, c: float) -> Var:
    """`_pairwise_ranks` as one tape node."""
    ranks, vjp = _pairwise_ranks(su.value, c)
    return Var(ranks, (su,), (vjp,), "pairwise_rank")


def smooth_rank(scores_in_group: np.ndarray, i: int, c: float = 50.0) -> float:
    """Sigmoid-smoothed rank of item i among its group's raw scores
    (1 = top).  No rescaling happens here; loss_gf standardizes scores
    before using these ranks."""
    s = np.asarray(scores_in_group, dtype=np.float64)
    return float(_pairwise_ranks(s, c)[0][i])


def _unit_scale_graph(sub_scores: Var) -> Var:
    """Center and scale a group's scores to unit spread inside the loss, so
    the sigmoid sharpness c acts on a known scale."""
    centered = sub_scores - sub_scores.mean()
    std = ((centered * centered).mean() + EPS_VAR).sqrt()
    return centered / (std + EPS_DENOM)


def _unit_scale_vjp(x: np.ndarray):
    """`_unit_scale_graph` in numpy: the scaled scores and their pullback."""
    n = x.size
    centered = x - x.sum() * (1.0 / n)
    std = np.sqrt((centered * centered).sum() * (1.0 / n) + EPS_VAR)
    scale = std + EPS_DENOM

    def pullback(g: np.ndarray) -> np.ndarray:
        gc = g / scale - centered * ((g @ centered) / (scale * scale * std * n))
        return gc - gc.sum() * (1.0 / n)

    return centered / scale, pullback


def _loss_gf_vjp(scores: np.ndarray, base: BaseScoreSet, groups: GroupView,
                 c: float) -> tuple[float, np.ndarray]:
    value, grad = 0.0, np.zeros_like(scores)
    for g in sorted(groups):
        idx = groups[g]
        idcg = base.idcg[g]
        if idcg <= 0.0:
            continue
        rel = base.relevance[idx]
        su, unit_pullback = _unit_scale_vjp(scores[idx])
        ranks, rank_pullback = _group_ranks(su, c)
        denom = np.log(ranks + 1.0) * (1.0 / _LN2) * idcg
        value += 1.0 - (rel / denom).sum()
        g_ranks = rel / (denom * denom) * (idcg / _LN2) / (ranks + 1.0)
        grad[idx] += unit_pullback(rank_pullback(g_ranks))
    return float(value), grad


def loss_gf_graph(scores: Var, base: BaseScoreSet, groups: GroupView,
                  c: float = 50.0, warn_degenerate: bool = False) -> Var:
    total = as_var(0.0)
    for g in sorted(groups):
        idx = groups[g]
        idcg = base.idcg[g]
        if idcg <= 0.0:
            if warn_degenerate:
                _warn(f"loss_gf: group {g} has all-zero relevances; contributes 0")
            continue
        rel = base.relevance[idx]
        su = _unit_scale_graph(scores.take_rows(idx))
        ranks = _pairwise_rank_graph(su, c)
        dcg = (as_var(rel) / ((ranks + 1.0).log2() * idcg)).sum()
        total = total + (1.0 - dcg)
    return total


def loss_gf(scores: np.ndarray, base: BaseScoreSet, groups: GroupView,
            c: float = 50.0) -> float:
    """Listwise group-fidelity loss: per group, one minus the smooth-rank
    DCG of the model's ordering against base relevances, normalized by the
    group's ideal DCG."""
    return float(loss_gf_graph(as_var(np.asarray(scores, dtype=np.float64)),
                               base, groups, c, warn_degenerate=True).value)


def loss_gf_corr_graph(scores: Var, base: BaseScoreSet, groups: GroupView,
                       warn_degenerate: bool = False) -> Var:
    total = as_var(0.0)
    for g in sorted(groups):
        idx = groups[g]
        if idx.size < 2 or np.ptp(base.raw[idx]) == 0.0:
            if warn_degenerate:
                _warn(f"loss_gf_corr: group {g} is degenerate; contributes 0")
            continue
        sub = scores.take_rows(idx)
        total = total - _pearson_abs_graph(sub, base.raw[idx])
    return total


def _loss_gf_corr_vjp(scores: np.ndarray, base: BaseScoreSet, groups: GroupView
                      ) -> tuple[float, np.ndarray]:
    value, grad = 0.0, np.zeros_like(scores)
    for g in sorted(groups):
        idx = groups[g]
        if idx.size < 2 or np.ptp(base.raw[idx]) == 0.0:
            continue
        v, gu = _pearson_abs_vjp(scores[idx], base.raw[idx])
        value -= v
        grad[idx] -= gu
    return float(value), grad


def loss_gf_corr(scores: np.ndarray, base: BaseScoreSet, groups: GroupView) -> float:
    """Correlation ablation of the fidelity loss: negated |corr| between
    model and base scores inside each group (so minimizing aligns them)."""
    return float(loss_gf_corr_graph(as_var(np.asarray(scores, dtype=np.float64)),
                                    base, groups, warn_degenerate=True).value)


# -- composite ---------------------------------------------------------------------------


def needs_base(variant: str, weights: LossWeights) -> bool:
    """Whether the objective has the group-fidelity term, which reads base scores."""
    return variant in ("fairod", "fairod_c") and weights.gamma > 0.0


@dataclass
class TotalLossSpec:
    """Description of one composite loss, consumable by numgrad.  Without
    `groups`, the groups are the distinct values of pv."""

    variant: str
    weights: LossWeights
    pv: np.ndarray | None = None
    base: BaseScoreSet | None = None
    groups: GroupView | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if needs_base(self.variant, self.weights) and self.base is None:
            raise ValueError(f"variant '{self.variant}' requires base scores")
        if self.variant != "base_only" and self.pv is None:
            raise ValueError(f"variant '{self.variant}' requires pv")
        if self.groups is None and self.pv is not None:
            self.groups = pv_groups(self.pv)

    def terms(self) -> list[tuple]:
        """The objective alpha L_base + (1 - alpha) L_sp + gamma L_gf (L_base
        alone for `base_only`), stated once for both evaluators: (name, comps
        key, weight, tape term, fused term) per term the total sums, in
        summation order.  The tape term maps the scores Var to a Var; the
        fused term maps the scores to the value and its gradient in them.  A
        term whose weight is exactly 0 is left out, not multiplied by 0,
        which keeps alpha=1/gamma=0 runs bit-identical to base-only runs.
        Errors carry the name of the term, or of the first term when the
        scores themselves fail."""
        w, groups, base = self.weights, self.groups, self.base
        terms = [("loss_base", "base", 1.0 if self.variant == "base_only" else w.alpha,
                  Var.sum, lambda s: (s.sum(), np.ones_like(s)))]
        if self.variant != "base_only":
            terms.append(("loss_sp", "sp", 1.0 - w.alpha,
                          lambda s: loss_sp_graph(s, groups),
                          lambda s: _loss_sp_vjp(s, groups)))
        if needs_base(self.variant, w):
            if self.variant == "fairod":
                terms.append(("loss_gf", "gf", w.gamma,
                              lambda s: loss_gf_graph(s, base, groups, w.c),
                              lambda s: _loss_gf_vjp(s, base, groups, w.c)))
            else:
                terms.append(("loss_gf_corr", "gf", w.gamma,
                              lambda s: loss_gf_corr_graph(s, base, groups),
                              lambda s: _loss_gf_corr_vjp(s, base, groups)))
        return [t for t in terms if t[2] != 0.0]

    def components(self, param_vars: dict[str, Var], batch: np.ndarray
                   ) -> tuple[Var, dict[str, float]]:
        """Total loss Var of `terms` on the tape, plus the raw (unweighted)
        term values.  A term left out records 0.0, except L_base: the
        trace reads it at any alpha."""
        terms = self.terms()
        name, total = terms[0][0], None
        try:
            scores = score_graph(param_vars, batch)
            comps = {"base": float(scores.sum().value), "sp": 0.0, "gf": 0.0}
            for name, key, weight, tape_term, _ in terms:
                term = tape_term(scores)
                comps[key] = float(term.value)
                total = term * weight if total is None else total + term * weight
        except NumericalOverflowError as e:
            raise NumericalOverflowError(f"{name}: {e}") from None
        comps["total"] = float(total.value)
        return total, comps

    def loss_and_grad(self, params: dict[str, np.ndarray], batch: np.ndarray
                      ) -> tuple[float, dict[str, np.ndarray], dict[str, float]]:
        """Total loss of `terms`, its gradient in each parameter array, and
        the raw term values, without the tape: the same loss and component
        bits as `components`."""
        terms = self.terms()
        scores, pullback = score_and_pullback(params, np.asarray(batch, dtype=np.float64))
        comps = {"base": float(scores.sum()), "sp": 0.0, "gf": 0.0}
        if not math.isfinite(comps["base"]):  # scores are >= 0: finite iff every score is
            raise NumericalOverflowError(f"{terms[0][0]}: non-finite scores")
        total = g = None
        for name, key, weight, _, fused_term in terms:
            value, grad = fused_term(scores)  # grad is a fresh array, scaled in place
            if not math.isfinite(value + grad.sum()):
                raise NumericalOverflowError(f"{name}: non-finite value or gradient")
            comps[key] = float(value)
            grad *= weight
            if total is None:
                total, g = value * weight, grad
            else:
                total += value * weight
                g += grad
        comps["total"] = float(total)
        grads = pullback(g)
        # one sum over all six arrays; the arrays are named only on failure
        if not math.isfinite(np.concatenate([v.ravel() for v in grads.values()]).sum()):
            for k, v in grads.items():
                _assert_finite(v, f"grad[{k}]")
        return float(total), grads, comps


def loss_base(params: AutoencoderParams, batch: np.ndarray) -> float:
    """Reconstruction objective: sum over rows of squared reconstruction error."""
    spec = TotalLossSpec(variant="base_only", weights=LossWeights(alpha=1.0, gamma=0.0))
    return eval_loss(params.to_dict(), np.asarray(batch, dtype=np.float64), spec)


def total_loss(params: AutoencoderParams, batch: np.ndarray, pv: np.ndarray | None,
               base: BaseScoreSet | None, weights: LossWeights, variant: str,
               groups: GroupView | None = None) -> float:
    """Composite objective value for any variant; see TotalLossSpec.
    Without `groups`, the groups are the distinct values of pv."""
    spec = TotalLossSpec(variant=variant, weights=weights, pv=pv, base=base, groups=groups)
    return eval_loss(params.to_dict(), np.asarray(batch, dtype=np.float64), spec)
