"""Two-phase training: fit a plain reconstruction detector first, then a
fairness-regularized one against its frozen scores.  Includes the alpha x
gamma grid and Pareto model selection on (Fairness, GroupFidelity).

Everything is deterministic: (dataset, config) fixes the result bit for
bit.  Scoring a trained model needs only its parameters, so group
membership can never leak into scores at evaluation time.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import repeat

import numpy as np

from .dataset import GroupView, LabeledDataset, group_view, pv_groups
from .detector import AutoencoderParams, init_params, score
from .evalmetrics import ScoreSet, fairness_metric, group_fidelity
from .losses import VARIANTS, BaseScoreSet, LossWeights, TotalLossSpec, idcg_group, needs_base
from .numgrad import adam_step, eval_loss_grad_components, init_adam

ALPHA_GRID = (0.01, 0.5, 0.9)
GAMMA_GRID = (0.01, 0.1, 1.0)


class TrainingError(RuntimeError):
    """Fit aborted; message carries epoch and offending loss term."""


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.01
    gamma: float = 0.1
    c: float = 50.0
    lr: float = 0.01
    epochs: int = 1000
    batch_size: int | None = None  # None trains full-batch
    flag_fraction: float = 0.05
    seed: int = 0
    variant: str = "fairod"

    def __post_init__(self):
        LossWeights(alpha=self.alpha, gamma=self.gamma, c=self.c)  # range checks
        if not (0.0 < self.flag_fraction < 1.0):
            raise ValueError("flag_fraction must be in (0,1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0.0 < self.lr < np.inf):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 or None")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def weights(self) -> LossWeights:
        return LossWeights(alpha=self.alpha, gamma=self.gamma, c=self.c)


TRACE_KEYS = ("base", "sp", "gf", "total")


@dataclass
class FitResult:
    params: AutoencoderParams
    trace: dict[str, list[float]]
    scores: np.ndarray | None
    config: TrainConfig

    def to_json(self) -> str:
        doc = {
            "params": self.params.to_json_dict(),
            "trace": {k: list(v) for k, v in self.trace.items()},
            "config": asdict(self.config),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        doc = json.loads(text)
        return cls(
            params=AutoencoderParams.from_json_dict(doc["params"]),
            trace={k: list(v) for k, v in doc["trace"].items()},
            scores=None,
            config=TrainConfig(**doc["config"]),
        )

    def rescore(self, ds: LabeledDataset) -> np.ndarray:
        """Score a dataset with the trained parameters (no group input)."""
        return score(self.params, ds.features)


def _slice_base(base: BaseScoreSet, rows: np.ndarray | slice,
                groups_in_batch: GroupView) -> BaseScoreSet:
    """Restrict precomputed base scores to a batch, keeping the global
    normalization bounds but recomputing per-group ideal gains."""
    normalized = base.normalized[rows]
    return BaseScoreSet(
        raw=base.raw[rows],
        lo=base.lo,
        hi=base.hi,
        normalized=normalized,
        relevance=base.relevance[rows],
        idcg={g: idcg_group(normalized[idx]) for g, idx in groups_in_batch.items()},
    )


def _run_fit(ds: LabeledDataset, cfg: TrainConfig,
             base_set: BaseScoreSet | None) -> FitResult:
    X = ds.features
    init = init_params(ds.d, cfg.seed).to_dict()
    # the six arrays are views of one vector, which Adam updates in place
    theta = np.concatenate([a.ravel() for a in init.values()])
    params, start = {}, 0
    for k, a in init.items():
        params[k] = theta[start:start + a.size].reshape(a.shape)
        start += a.size
    adam = init_adam(theta, lr=cfg.lr)
    pv = ds.pv if cfg.variant != "base_only" else None
    trace: dict[str, list[float]] = {k: [] for k in TRACE_KEYS}
    rng = np.random.default_rng(cfg.seed)
    batch_size = cfg.batch_size or ds.n
    # a full batch is all rows in row order with no draw from rng: its
    # spec, built once, holds the dataset's groups and base_set as they are
    full_spec = None if cfg.batch_size is not None else TotalLossSpec(
        variant=cfg.variant, weights=cfg.weights, pv=pv, base=base_set,
        groups=None if pv is None else group_view(ds))

    for epoch in range(cfg.epochs):
        order = None if full_spec is not None else rng.permutation(ds.n)
        sums = {k: 0.0 for k in TRACE_KEYS}
        for start in range(0, ds.n, batch_size):
            if order is None:
                X_b, spec = X, full_spec
            else:
                rows = order[start:start + batch_size]
                X_b = X[rows]
                pv_b = None if pv is None else pv[rows]
                groups_b = None if pv_b is None else pv_groups(pv_b)
                base_b = None if base_set is None else _slice_base(base_set, rows, groups_b)
                spec = TotalLossSpec(variant=cfg.variant, weights=cfg.weights, pv=pv_b,
                                     base=base_b, groups=groups_b)
            try:
                _, grads, comps = eval_loss_grad_components(params, X_b, spec)
            except FloatingPointError as e:
                raise TrainingError(
                    f"{cfg.variant} fit diverged at epoch {epoch}: {e}") from e
            # the row weight is formed before multiplying: for a single batch
            # it is exactly 1.0, so a full-batch trace holds its terms bit for bit
            for k in TRACE_KEYS:
                sums[k] += comps[k] * (X_b.shape[0] / ds.n)
            adam_step(adam, theta, np.concatenate([grads[k].ravel() for k in params]))
        for k in TRACE_KEYS:
            trace[k].append(sums[k])

    trained = AutoencoderParams(**params)
    scores = score(trained, X)
    if not np.all(np.isfinite(scores)):
        raise TrainingError(f"{cfg.variant} fit produced non-finite scores")
    return FitResult(params=trained, trace=trace, scores=scores, config=cfg)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map(fn, workers: int, *iterables) -> list:
    """fn over the zipped iterables, results in input order.  Above one
    worker the calls run in a process pool of that many workers, and the
    first call that raises, in input order, raises here as it would in
    the loop."""
    if workers <= 1:
        return list(map(fn, *iterables))
    # the default pool on Linux forks all its workers at once, as copies of
    # this process (numpy loaded, caches warm), so callers ask for no more
    # workers than calls
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *iterables))


def fit_base(ds: LabeledDataset, cfg: TrainConfig) -> FitResult:
    """Train on reconstruction error alone.  Group labels are never read."""
    return _run_fit(ds, replace(cfg, variant="base_only"), None)


def fit_base_multi_seed(ds: LabeledDataset, cfg: TrainConfig, n_seeds: int = 5) -> FitResult:
    """Refit under n_seeds consecutive seeds, keep the lowest final
    reconstruction loss; ties go to the smallest seed.  The restarts run
    in parallel, one per usable CPU, with the same result as one by one."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    configs = [replace(cfg, seed=cfg.seed + offset) for offset in range(n_seeds)]
    fits = _map(fit_base, min(n_seeds, _usable_cpus()), repeat(ds), configs)
    # min keeps the first of equal keys, and fits are in seed order
    return min(fits, key=lambda fit: fit.trace["base"][-1])


def fit_fairod(ds: LabeledDataset, base: FitResult, cfg: TrainConfig) -> FitResult:
    """Train a fresh detector under cfg.variant against the frozen base
    scores.  Base relevances and ideal gains are computed once up front."""
    if cfg.variant == "base_only":
        return fit_base(ds, cfg)
    base_scores = base.scores if base.scores is not None else base.rescore(ds)
    if base_scores.shape != (ds.n,):
        raise ValueError("base scores do not cover this dataset")
    base_set = None
    if needs_base(cfg.variant, cfg.weights):
        base_set = BaseScoreSet.from_scores(base_scores, group_view(ds))
    return _run_fit(ds, cfg, base_set)


# -- grid and selection -------------------------------------------------------------------


@dataclass
class GridResult:
    config: TrainConfig
    fit: FitResult | None
    fairness: float | None
    group_fidelity: float | None
    error: str | None = None


def unsupervised_metrics(fit: FitResult, ds: LabeledDataset,
                         base_scores: np.ndarray) -> tuple[float | None, float | None]:
    """Label-free selection metrics: flag-rate parity and rank fidelity."""
    groups = group_view(ds)
    ss = ScoreSet.from_scores(fit.scores, ds.pv, fit.config.flag_fraction)
    base_set = BaseScoreSet.from_scores(base_scores, groups)
    return fairness_metric(ss.flags, ds.pv), group_fidelity(ss, base_set, groups)


def _grid_cell(ds: LabeledDataset, base: FitResult, cfg: TrainConfig) -> GridResult:
    try:
        fit = fit_fairod(ds, base, cfg)
        fairness, gf = unsupervised_metrics(fit, ds, base.scores)
        return GridResult(config=cfg, fit=fit, fairness=fairness, group_fidelity=gf)
    except (TrainingError, FloatingPointError, ValueError) as e:
        return GridResult(config=cfg, fit=None, fairness=None, group_fidelity=None,
                          error=f"{type(e).__name__}: {e}")


def grid_search(ds: LabeledDataset, base: FitResult,
                grid: dict[str, list[float]] | None = None,
                cfg_common: TrainConfig | None = None,
                jobs: int = 1) -> list[GridResult]:
    """One fit per (alpha, gamma) cell.  A failing cell is recorded with its
    error and the rest of the grid still runs.  Results keep grid order
    regardless of jobs."""
    grid = grid or {}
    alphas = list(grid.get("alpha", ALPHA_GRID))
    gammas = list(grid.get("gamma", GAMMA_GRID))
    if not alphas or not gammas:
        raise ValueError("grid must have at least one alpha and one gamma")
    cfg_common = cfg_common or TrainConfig()
    if base.scores is None:
        base = replace(base, scores=base.rescore(ds))
    configs = [replace(cfg_common, alpha=a, gamma=g) for a in alphas for g in gammas]
    return _map(_grid_cell, min(jobs, len(configs)), repeat(ds), repeat(base), configs)


def pareto_select(results: list[GridResult]) -> GridResult:
    """Among usable cells, keep the Pareto frontier in (Fairness,
    GroupFidelity) maximizing both, then take the point nearest (1,1);
    ties fall to higher Fairness, then lower alpha, then lower gamma."""
    usable = [r for r in results
              if r.error is None and r.fairness is not None and r.group_fidelity is not None]
    if not usable:
        raise ValueError("no usable grid results to select from")

    def dominated(r):
        return any(
            q.fairness >= r.fairness and q.group_fidelity >= r.group_fidelity
            and (q.fairness > r.fairness or q.group_fidelity > r.group_fidelity)
            for q in usable)

    frontier = [r for r in usable if not dominated(r)]

    def key(r):
        dist = ((1.0 - r.fairness) ** 2 + (1.0 - r.group_fidelity) ** 2) ** 0.5
        return (dist, -r.fairness, r.config.alpha, r.config.gamma)

    return min(frontier, key=key)
