"""Flagging rule and evaluation measures: flag-rate parity, rank fidelity
against a base detector, top-k agreement, and per-group precision measures.

Degenerate quantities (zero flag rates, zero positives, all-zero
relevances) are reported as None plus a note, never silently dropped and
never a crash.  Ties are always broken by ascending row index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import GroupView, LabeledDataset, group_view
from .losses import BaseScoreSet, idcg_group


def ceil_frac(f: float, n: int) -> int:
    """ceil(f*n) guarded against float artifacts like 0.05*100 = 5.0000...01;
    at least 1 for f > 0 and n >= 1, however small f*n is, as ceil(f*n) is."""
    k = int(math.ceil(round(f * n, 9)))
    return max(k, 1) if f > 0.0 and n >= 1 else k


def _rank_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score, ties by ascending row index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def _top_flags(order: np.ndarray, f: float) -> np.ndarray:
    """Boolean flags for the first ceil(f*N) rows of a ranking."""
    if not (0.0 < f < 1.0):
        raise ValueError("flag fraction f must be in (0,1)")
    flags = np.zeros(order.size, dtype=bool)
    flags[order[:ceil_frac(f, order.size)]] = True
    return flags


def flag_top_fraction(scores: np.ndarray, f: float) -> np.ndarray:
    """Boolean flags for the global top ceil(f*N) rows by score."""
    return _top_flags(_rank_order(scores), f)


@dataclass
class ScoreSet:
    """Scores plus everything rank-derived: flags for the top ceil(f*N),
    the global ranking, and each group's internal ranking.  All three read
    one sort; a group's ranking is the global one filtered to its rows,
    which keeps ties in ascending row order."""

    scores: np.ndarray
    f: float
    flags: np.ndarray
    order: np.ndarray
    group_orders: dict[int, np.ndarray]

    @classmethod
    def from_scores(cls, scores: np.ndarray, pv: np.ndarray, f: float) -> "ScoreSet":
        scores = np.asarray(scores, dtype=np.float64)
        pv = np.asarray(pv)
        order = _rank_order(scores)
        ranked_pv = pv[order]
        group_orders = {int(g): order[ranked_pv == g] for g in np.unique(pv)}
        return cls(scores=scores, f=f, flags=_top_flags(order, f), order=order,
                   group_orders=group_orders)


def fairness_metric(flags: np.ndarray, pv: np.ndarray) -> float | None:
    """min over groups of flag rate divided by max flag rate: 1 = parity,
    0 = one group never flagged; None when no group is flagged at all."""
    flags = np.asarray(flags, dtype=bool)
    pv = np.asarray(pv)
    values = np.unique(pv)
    if values.size < 2:
        raise ValueError("fairness_metric needs at least two groups")
    rates = np.array([flags[pv == g].mean() for g in values])
    if np.all(rates == 0.0):
        return None
    return float(rates.min() / rates.max())


def ndcg_group(scores: np.ndarray, base_scores_norm: np.ndarray,
               group_rows: np.ndarray) -> float | None:
    """Hard-rank NDCG of the model's within-group ordering against gains
    2^s-1 from normalized base scores.  Ranks count members scoring at or
    above each item, so tied items share the deeper rank.  Returns None for
    an all-zero-relevance group."""
    rows = np.asarray(group_rows)
    if rows.size == 0:
        raise ValueError("ndcg_group needs a nonempty group")
    s = np.asarray(scores, dtype=np.float64)[rows]
    rel = np.exp2(np.asarray(base_scores_norm, dtype=np.float64)[rows]) - 1.0
    idcg = idcg_group(np.asarray(base_scores_norm)[rows])
    if idcg == 0.0:
        return None
    sorted_s = np.sort(s)
    ranks = s.size - np.searchsorted(sorted_s, s, side="left")
    dcg = float(np.sum(rel / np.log2(1.0 + ranks)))
    return dcg / idcg


def harmonic_mean(values: list[float], literal: bool = False) -> float:
    """Standard harmonic mean n/sum(1/x); literal=True drops the factor n,
    giving the reciprocal-sum variant."""
    if any(v == 0.0 for v in values):
        return 0.0
    s = sum(1.0 / v for v in values)
    return (1.0 if literal else float(len(values))) / s


def _fidelity(ndcgs: list[float | None]) -> float | None:
    """Harmonic mean of per-group NDCG; None if any group is degenerate."""
    return None if any(v is None for v in ndcgs) else harmonic_mean(ndcgs)


def group_fidelity(scoreset: ScoreSet, base: BaseScoreSet, groups: GroupView) -> float | None:
    """Harmonic mean of per-group NDCG between the model ranking and base
    relevances; None if any group is degenerate."""
    if len(groups) < 2:
        raise ValueError("group_fidelity needs two or more groups")
    return _fidelity([ndcg_group(scoreset.scores, base.normalized, groups[g])
                      for g in sorted(groups)])


def _topk_jaccard(order_a: np.ndarray, order_b: np.ndarray, k: int) -> float:
    n = order_a.size
    if order_b.size != n:
        raise ValueError("score sets cover different datasets")
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}]")
    top_a = set(order_a[:k].tolist())
    top_b = set(order_b[:k].tolist())
    return len(top_a & top_b) / len(top_a | top_b)


def topk_rank_agreement(scoreset_a: ScoreSet, scoreset_b: ScoreSet, k: int) -> float:
    """Jaccard similarity of the two top-k index sets."""
    return _topk_jaccard(scoreset_a.order, scoreset_b.order, k)


def _ranked_ap(ranked: np.ndarray) -> float | None:
    """Average precision of labels already in rank order."""
    if ranked.sum() == 0:
        return None
    hits = np.cumsum(ranked)
    ranks = np.arange(1, ranked.size + 1)
    return float(np.mean((hits / ranks)[ranked == 1]))


def average_precision(scores_in_group: np.ndarray, labels_in_group: np.ndarray) -> float | None:
    """Mean over positives of precision at each positive's rank (descending
    scores, ties by index).  None when the group has no positives."""
    s = np.asarray(scores_in_group, dtype=np.float64)
    y = np.asarray(labels_in_group)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    return _ranked_ap(y[_rank_order(s)])


def _group_ap(scoreset: ScoreSet, labels: np.ndarray) -> dict[int, float | None]:
    return {g: _ranked_ap(labels[ranked]) for g, ranked in sorted(scoreset.group_orders.items())}


def _ratio(per_group: dict[int, float | None], what: str) -> float | None:
    """Group 0's value over group 1's; None when either is None or the
    minority value is zero (ratio undefined, reported not crashed)."""
    if 0 not in per_group or 1 not in per_group:
        raise ValueError(f"{what} needs groups 0 and 1")
    if per_group[0] is None or per_group[1] is None or per_group[1] == 0.0:
        return None
    return per_group[0] / per_group[1]


def ap_ratio(scoreset: ScoreSet, ds: LabeledDataset) -> float | None:
    """Majority AP over minority AP; ideal is 1.  None if a group lacks positives."""
    if ds.labels is None:
        raise ValueError("ap_ratio requires labels")
    return _ratio(_group_ap(scoreset, ds.labels), "ap_ratio")


def p_at_k(scoreset: ScoreSet, ds: LabeledDataset, f: float) -> dict[int, float]:
    """Precision over each group's own top ceil(f*N_v) ranked members."""
    if ds.labels is None:
        raise ValueError("p_at_k requires labels")
    out = {}
    for g, ranked in sorted(scoreset.group_orders.items()):
        k_v = ceil_frac(f, ranked.size)
        out[g] = float(ds.labels[ranked[:k_v]].sum() / k_v)
    return out


def p_at_k_ratio(scoreset: ScoreSet, ds: LabeledDataset, f: float) -> float | None:
    """Ratio of group precisions at their own top fractions; None when the
    minority precision is zero."""
    return _ratio(p_at_k(scoreset, ds, f), "p_at_k_ratio")


# -- report ------------------------------------------------------------------------------


def _real(v) -> str:
    return "" if v is None else repr(float(v))


def _count(v) -> str:
    return "" if v is None else str(v)


# Each report field is declared once here; JSON and CSV are derived from these.
# Per-group fields are dicts keyed by group id, written as `<column>_<g>` in CSV.
_SCALAR_FIELDS = ("fairness", "group_fidelity", "topk_agreement", "ap_ratio",
                  "p_at_k_ratio", "flag_fraction")
_GROUP_FIELDS = (  # (attribute, CSV column, CSV cell)
    ("ndcg", "ndcg", _real), ("ap", "ap", _real), ("p_at_k", "p_at_k", _real),
    ("flag_rates", "flag_rate", _real), ("base_rates", "base_rate", _real),
    ("group_sizes", "n", _count),
)


@dataclass
class EvalReport:
    """Every metric for one (model scores, dataset, base scores) triple.
    None everywhere means 'degenerate or unavailable'; the notes say why."""

    fairness: float | None
    group_fidelity: float | None
    ndcg: dict[int, float | None]
    topk_agreement: float | None
    ap: dict[int, float | None]
    ap_ratio: float | None
    p_at_k: dict[int, float | None]
    p_at_k_ratio: float | None
    flag_rates: dict[int, float]
    base_rates: dict[int, float | None]
    group_sizes: dict[int, int]
    flag_fraction: float
    config: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in _SCALAR_FIELDS}
        for name, _, _ in _GROUP_FIELDS:
            doc[name] = {str(g): v for g, v in getattr(self, name).items()}
        return doc | {"config": self.config, "notes": self.notes}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EvalReport":
        per_group = {name: {int(g): v for g, v in doc[name].items()}
                     for name, _, _ in _GROUP_FIELDS}
        return cls(**{name: doc[name] for name in _SCALAR_FIELDS}, **per_group,
                   config=doc.get("config", {}), notes=doc.get("notes", []))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls.from_json_dict(json.loads(text))

    @staticmethod
    def csv_header(group_ids: list[int]) -> list[str]:
        return list(_SCALAR_FIELDS) + [f"{column}_{g}" for g in group_ids
                                       for _, column, _ in _GROUP_FIELDS]

    def to_csv_row(self, group_ids: list[int]) -> list[str]:
        return [_real(getattr(self, name)) for name in _SCALAR_FIELDS] + [
            cell(getattr(self, name).get(g)) for g in group_ids
            for name, _, cell in _GROUP_FIELDS]


def build_report(scores: np.ndarray, ds: LabeledDataset, f: float,
                 base: BaseScoreSet | None = None,
                 config: dict | None = None) -> EvalReport:
    """Assemble all metrics.  Rank-fidelity measures (NDCG, GroupFidelity,
    top-k agreement) need `base`; supervised measures need ds.labels; both
    degrade to None with a note when their inputs are missing.  The scores
    are ranked once; flags, group rankings, AP and P@k all read that ranking."""
    scores = np.asarray(scores, dtype=np.float64)
    if base is not None and base.raw.size != ds.n:
        raise ValueError("score sets cover different datasets")
    groups = group_view(ds)
    gids = sorted(groups)
    ss = ScoreSet.from_scores(scores, ds.pv, f)
    notes: list[str] = []

    fairness = fairness_metric(ss.flags, ds.pv)
    if fairness is None:
        notes.append("fairness degenerate: no group has any flags")
    flag_rates = {g: float(ss.flags[idx].mean()) for g, idx in groups.items()}

    ndcg: dict[int, float | None] = {g: None for g in gids}
    gf = None
    topk = None
    if base is not None:
        for g in gids:
            ndcg[g] = ndcg_group(scores, base.normalized, groups[g])
            if ndcg[g] is None:
                notes.append(f"ndcg degenerate for group {g}: all-zero relevances")
        gf = _fidelity([ndcg[g] for g in gids])
        topk = _topk_jaccard(ss.order, _rank_order(base.raw), ceil_frac(f, ds.n))
    else:
        notes.append("rank-fidelity metrics skipped: no base scores supplied")

    ap: dict[int, float | None] = {g: None for g in gids}
    apr = None
    patk: dict[int, float | None] = {g: None for g in gids}
    patkr = None
    base_rates: dict[int, float | None] = {g: None for g in gids}
    if ds.labels is not None:
        ap = _group_ap(ss, ds.labels)
        for g in gids:
            if ap[g] is None:
                notes.append(f"average precision degenerate for group {g}: no positives")
            base_rates[g] = float(ds.labels[groups[g]].mean())
        if set(gids) >= {0, 1}:
            apr = _ratio(ap, "ap_ratio")
            patk = p_at_k(ss, ds, f)
            patkr = _ratio(patk, "p_at_k_ratio")
            if patkr is None:
                notes.append("p_at_k_ratio degenerate: minority precision is zero")
    else:
        notes.append("supervised metrics skipped: dataset has no labels")

    return EvalReport(
        fairness=fairness, group_fidelity=gf, ndcg=ndcg, topk_agreement=topk,
        ap=ap, ap_ratio=apr, p_at_k=patk, p_at_k_ratio=patkr,
        flag_rates=flag_rates, base_rates=base_rates,
        group_sizes={g: int(idx.size) for g, idx in groups.items()},
        flag_fraction=f, config=config or {}, notes=notes,
    )
