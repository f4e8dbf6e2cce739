"""Training objectives: reconstruction loss, statistical-parity correlation
loss, the listwise group-fidelity loss with sigmoid-smoothed ranks, its
correlation-based ablation, and the composite total loss.

Every public value function evaluates the exact same graph the gradient
path uses, so values and gradients cannot drift apart.  Two epsilons appear
throughout: EPS_DENOM (1e-8) guards correlation/scale denominators, and
EPS_VAR (1e-16) is added under square roots so gradients stay finite when a
variance hits zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import GroupView
from .detector import AutoencoderParams, score_graph
from .numgrad import NumericalOverflowError, Var, as_var, eval_loss

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
            raise ValueError("alpha must be in [0,1]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        if self.c <= 0.0:
            raise ValueError("c must be > 0")


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


def _sp_terms(pv: np.ndarray) -> list[np.ndarray]:
    """Indicator targets for the parity loss: pv itself when binary,
    one one-hot column per group value otherwise."""
    pv = np.asarray(pv)
    values = np.unique(pv)
    if values.size < 2:
        return []
    if values.size == 2:
        return [(pv == values.max()).astype(np.float64)]
    return [(pv == g).astype(np.float64) for g in values]


def loss_sp_graph(scores: Var, pv: np.ndarray) -> Var:
    terms = _sp_terms(pv)
    if not terms:
        return as_var(0.0)
    total = _pearson_abs_graph(scores, terms[0])
    for t in terms[1:]:
        total = total + _pearson_abs_graph(scores, t)
    return total


def loss_sp(scores: np.ndarray, pv: np.ndarray) -> float:
    """Statistical-parity loss: |corr(scores, group indicator)|, summed over
    one-hot columns when pv takes more than two values."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.unique(pv).size < 2:
        _warn("loss_sp: single-group pv, parity is undefined; returning 0")
        return 0.0
    if np.ptp(scores) == 0.0:
        _warn("loss_sp: constant scores; returning 0")
    return float(loss_sp_graph(as_var(scores), pv).value)


# -- smoothed ranks and group fidelity ---------------------------------------------------


# Rows per block of the smoothed-rank pair computation: a block holds at
# most _RANK_BLOCK * n pair values, which bounds the rank term's memory.
_RANK_BLOCK = 64


def _pairwise_rank_graph(su: Var, c: float) -> Var:
    """Smooth within-group ranks: 0.5 + sum_k sigma(c (s_k - s_i)).

    The self pair contributes sigma(0) = 0.5 exactly, so adding 0.5 equals
    counting the self term as 1, keeping every rank >= 1.

    One tape node with a hand-written vector-Jacobian product, and no
    (n,n) matrix.  With h = (c/2) s and t_ik = tanh(h_k - h_i),
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
    """
    s = su.value
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
        b, last = block(a)  # after the loop: the final block, which the VJP reuses
        tsum[a:b] += last.sum(axis=1)
        if b < n:
            tsum[b:] -= last[:, b - a:].sum(axis=0)
    ranks = tsum * 0.5 + (0.5 + 0.5 * n)

    def vjp(g):
        tg = np.zeros(n)
        tsq = np.zeros(n)
        for a in reversed(starts):
            if a == starts[-1]:
                b, t = n, np.square(last)
            else:
                b, t = block(a)
                np.square(t, out=t)
            tg[a:b] += t @ g[a:]
            tsq[a:b] += t.sum(axis=1)
            if b < n:
                right = t[:, b - a:]
                tg[b:] += g[a:b] @ right
                tsq[b:] += right.sum(axis=0)
        return (0.25 * c) * (g.sum() - tg - g * (n - tsq))

    return Var(ranks, (su,), (vjp,), "pairwise_rank")


def smooth_rank(scores_in_group: np.ndarray, i: int, c: float = 50.0) -> float:
    """Sigmoid-smoothed rank of item i among its group's raw scores
    (1 = top).  No rescaling happens here; loss_gf standardizes scores
    before using these ranks."""
    s = np.asarray(scores_in_group, dtype=np.float64)
    ranks = _pairwise_rank_graph(as_var(s), c).value
    return float(ranks[i])


def _unit_scale_graph(sub_scores: Var) -> Var:
    """Center and scale a group's scores to unit spread inside the loss, so
    the sigmoid sharpness c acts on a known scale."""
    centered = sub_scores - sub_scores.mean()
    std = ((centered * centered).mean() + EPS_VAR).sqrt()
    return centered / (std + EPS_DENOM)


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


def loss_gf_corr(scores: np.ndarray, base: BaseScoreSet, groups: GroupView) -> float:
    """Correlation ablation of the fidelity loss: negated |corr| between
    model and base scores inside each group (so minimizing aligns them)."""
    return float(loss_gf_corr_graph(as_var(np.asarray(scores, dtype=np.float64)),
                                    base, groups, warn_degenerate=True).value)


# -- composite ---------------------------------------------------------------------------


@dataclass
class TotalLossSpec:
    """Description of one composite loss, consumable by numgrad."""

    variant: str
    weights: LossWeights
    pv: np.ndarray | None = None
    base: BaseScoreSet | None = None
    groups: GroupView | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.variant in ("fairod", "fairod_c") and self.weights.gamma > 0.0 and self.base is None:
            raise ValueError(f"variant '{self.variant}' requires base scores")
        if self.variant != "base_only" and self.pv is None:
            raise ValueError(f"variant '{self.variant}' requires pv")

    def components(self, param_vars: dict[str, Var], batch: np.ndarray
                   ) -> tuple[Var, dict[str, float]]:
        """Total loss Var plus the raw (unweighted) component values.
        Terms whose weight is exactly zero are skipped, not multiplied by 0,
        which keeps alpha=1/gamma=0 runs bit-identical to base-only runs.
        Skipped components are recorded as 0.0."""
        w = self.weights
        comps = {"base": 0.0, "sp": 0.0, "gf": 0.0}

        def named(term: str, fn):
            try:
                return fn()
            except NumericalOverflowError as e:
                raise NumericalOverflowError(f"{term}: {e}") from None

        scores = named("loss_base", lambda: score_graph(param_vars, batch))
        l_base = scores.sum()
        comps["base"] = float(l_base.value)
        if self.variant == "base_only":
            comps["total"] = float(l_base.value)
            return l_base, comps

        # alpha in [0,1], so at least one of the first two terms is present
        terms = []
        if w.alpha > 0.0:
            terms.append(l_base * w.alpha)
        if w.alpha < 1.0:
            sp = named("loss_sp", lambda: loss_sp_graph(scores, self.pv))
            comps["sp"] = float(sp.value)
            terms.append(sp * (1.0 - w.alpha))
        if w.gamma > 0.0 and self.variant in ("fairod", "fairod_c"):
            if self.variant == "fairod":
                gf = named("loss_gf", lambda: loss_gf_graph(scores, self.base, self.groups, w.c))
            else:
                gf = named("loss_gf_corr", lambda: loss_gf_corr_graph(scores, self.base, self.groups))
            comps["gf"] = float(gf.value)
            terms.append(gf * w.gamma)
        total = sum(terms[1:], terms[0])
        comps["total"] = float(total.value)
        return total, comps


def loss_base(params: AutoencoderParams, batch: np.ndarray) -> float:
    """Reconstruction objective: sum over rows of squared reconstruction error."""
    spec = TotalLossSpec(variant="base_only", weights=LossWeights(alpha=1.0, gamma=0.0))
    return eval_loss(params.to_dict(), np.asarray(batch, dtype=np.float64), spec)


def total_loss(params: AutoencoderParams, batch: np.ndarray, pv: np.ndarray | None,
               base: BaseScoreSet | None, weights: LossWeights, variant: str,
               groups: GroupView | None = None) -> float:
    """Composite objective value for any variant; see TotalLossSpec.
    Without `groups`, the groups are the distinct values of pv."""
    if groups is None and pv is not None:
        groups = {int(g): np.flatnonzero(pv == g) for g in np.unique(pv)}
    spec = TotalLossSpec(variant=variant, weights=weights, pv=pv, base=base, groups=groups)
    return eval_loss(params.to_dict(), np.asarray(batch, dtype=np.float64), spec)
