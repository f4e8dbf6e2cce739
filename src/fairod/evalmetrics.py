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
    """ceil(f*n) guarded against float artifacts like 0.05*100 = 5.0000...01."""
    return int(math.ceil(round(f * n, 9)))


def _rank_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by descending score, ties by ascending row index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.lexsort((np.arange(scores.size), -scores))


def flag_top_fraction(scores: np.ndarray, f: float) -> np.ndarray:
    """Boolean flags for the global top ceil(f*N) rows by score."""
    if not (0.0 < f < 1.0):
        raise ValueError("flag fraction f must be in (0,1)")
    scores = np.asarray(scores, dtype=np.float64)
    k = ceil_frac(f, scores.size)
    flags = np.zeros(scores.size, dtype=bool)
    flags[_rank_order(scores)[:k]] = True
    return flags


@dataclass
class ScoreSet:
    """Scores plus everything rank-derived: flags for the top ceil(f*N),
    the global ranking, and each group's internal ranking."""

    scores: np.ndarray
    f: float
    flags: np.ndarray
    order: np.ndarray
    group_orders: dict[int, np.ndarray]

    @classmethod
    def from_scores(cls, scores: np.ndarray, pv: np.ndarray, f: float) -> "ScoreSet":
        scores = np.asarray(scores, dtype=np.float64)
        flags = flag_top_fraction(scores, f)
        order = _rank_order(scores)
        group_orders = {}
        for g in np.unique(np.asarray(pv)):
            idx = np.flatnonzero(pv == g)
            group_orders[int(g)] = idx[_rank_order(scores[idx])]
        return cls(scores=scores, f=f, flags=flags, order=order, group_orders=group_orders)


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


def group_fidelity(scoreset: ScoreSet, base: BaseScoreSet, groups: GroupView) -> float | None:
    """Harmonic mean of per-group NDCG between the model ranking and base
    relevances; None as soon as any group is degenerate."""
    if len(groups) < 2:
        raise ValueError("group_fidelity needs two or more groups")
    ndcgs = []
    for g in sorted(groups):
        value = ndcg_group(scoreset.scores, base.normalized, groups[g])
        if value is None:
            return None
        ndcgs.append(value)
    return harmonic_mean(ndcgs)


def topk_rank_agreement(scoreset_a: ScoreSet, scoreset_b: ScoreSet, k: int) -> float:
    """Jaccard similarity of the two top-k index sets."""
    n = scoreset_a.scores.size
    if scoreset_b.scores.size != n:
        raise ValueError("score sets cover different datasets")
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}]")
    top_a = set(scoreset_a.order[:k].tolist())
    top_b = set(scoreset_b.order[:k].tolist())
    return len(top_a & top_b) / len(top_a | top_b)


def average_precision(scores_in_group: np.ndarray, labels_in_group: np.ndarray) -> float | None:
    """Mean over positives of precision at each positive's rank (descending
    scores, ties by index).  None when the group has no positives."""
    s = np.asarray(scores_in_group, dtype=np.float64)
    y = np.asarray(labels_in_group)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if y.sum() == 0:
        return None
    ranked = y[_rank_order(s)]
    hits = np.cumsum(ranked)
    ranks = np.arange(1, s.size + 1)
    return float(np.mean((hits / ranks)[ranked == 1]))


def ap_ratio(scoreset: ScoreSet, ds: LabeledDataset) -> float | None:
    """Majority AP over minority AP; ideal is 1.  None if a group lacks positives."""
    if ds.labels is None:
        raise ValueError("ap_ratio requires labels")
    view = group_view(ds)
    if 0 not in view or 1 not in view:
        raise ValueError("ap_ratio needs groups 0 and 1")
    ap_a = average_precision(scoreset.scores[view[0]], ds.labels[view[0]])
    ap_b = average_precision(scoreset.scores[view[1]], ds.labels[view[1]])
    if ap_a is None or ap_b is None:
        return None
    return ap_a / ap_b


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
    minority precision is zero (ratio undefined, reported not crashed)."""
    per_group = p_at_k(scoreset, ds, f)
    if 0 not in per_group or 1 not in per_group:
        raise ValueError("p_at_k_ratio needs groups 0 and 1")
    if per_group[1] == 0.0:
        return None
    return per_group[0] / per_group[1]


# -- report ------------------------------------------------------------------------------


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
        def keyed(d):
            return {str(k): v for k, v in d.items()}

        return {
            "fairness": self.fairness,
            "group_fidelity": self.group_fidelity,
            "ndcg": keyed(self.ndcg),
            "topk_agreement": self.topk_agreement,
            "ap": keyed(self.ap),
            "ap_ratio": self.ap_ratio,
            "p_at_k": keyed(self.p_at_k),
            "p_at_k_ratio": self.p_at_k_ratio,
            "flag_rates": keyed(self.flag_rates),
            "base_rates": keyed(self.base_rates),
            "group_sizes": keyed(self.group_sizes),
            "flag_fraction": self.flag_fraction,
            "config": self.config,
            "notes": self.notes,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EvalReport":
        def unkeyed(d):
            return {int(k): v for k, v in d.items()}

        return cls(
            fairness=doc["fairness"],
            group_fidelity=doc["group_fidelity"],
            ndcg=unkeyed(doc["ndcg"]),
            topk_agreement=doc["topk_agreement"],
            ap=unkeyed(doc["ap"]),
            ap_ratio=doc["ap_ratio"],
            p_at_k=unkeyed(doc["p_at_k"]),
            p_at_k_ratio=doc["p_at_k_ratio"],
            flag_rates=unkeyed(doc["flag_rates"]),
            base_rates=unkeyed(doc["base_rates"]),
            group_sizes=unkeyed(doc["group_sizes"]),
            flag_fraction=doc["flag_fraction"],
            config=doc.get("config", {}),
            notes=doc.get("notes", []),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls.from_json_dict(json.loads(text))

    @staticmethod
    def csv_header(group_ids: list[int]) -> list[str]:
        cols = ["fairness", "group_fidelity", "topk_agreement", "ap_ratio",
                "p_at_k_ratio", "flag_fraction"]
        for g in group_ids:
            cols += [f"ndcg_{g}", f"ap_{g}", f"p_at_k_{g}", f"flag_rate_{g}",
                     f"base_rate_{g}", f"n_{g}"]
        return cols

    def to_csv_row(self, group_ids: list[int]) -> list[str]:
        def cell(v):
            return "" if v is None else repr(float(v))

        row = [cell(self.fairness), cell(self.group_fidelity), cell(self.topk_agreement),
               cell(self.ap_ratio), cell(self.p_at_k_ratio), cell(self.flag_fraction)]
        for g in group_ids:
            row += [cell(self.ndcg.get(g)), cell(self.ap.get(g)),
                    cell(self.p_at_k.get(g)), cell(self.flag_rates.get(g)),
                    cell(self.base_rates.get(g)),
                    "" if g not in self.group_sizes else str(self.group_sizes[g])]
        return row


def build_report(scores: np.ndarray, ds: LabeledDataset, f: float,
                 base: BaseScoreSet | None = None,
                 base_scores: np.ndarray | None = None,
                 config: dict | None = None) -> EvalReport:
    """Assemble all metrics.  Rank-fidelity measures (NDCG, GroupFidelity,
    top-k agreement) need `base`; supervised measures need ds.labels; both
    degrade to None with a note when their inputs are missing."""
    scores = np.asarray(scores, dtype=np.float64)
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
        gf = group_fidelity(ss, base, groups)
        if base_scores is None:
            base_scores = base.raw
        base_ss = ScoreSet.from_scores(np.asarray(base_scores, dtype=np.float64), ds.pv, f)
        topk = topk_rank_agreement(ss, base_ss, ceil_frac(f, ds.n))
    else:
        notes.append("rank-fidelity metrics skipped: no base scores supplied")

    ap: dict[int, float | None] = {g: None for g in gids}
    apr = None
    patk: dict[int, float | None] = {g: None for g in gids}
    patkr = None
    base_rates: dict[int, float | None] = {g: None for g in gids}
    if ds.labels is not None:
        for g in gids:
            ap[g] = average_precision(scores[groups[g]], ds.labels[groups[g]])
            if ap[g] is None:
                notes.append(f"average precision degenerate for group {g}: no positives")
            base_rates[g] = float(ds.labels[groups[g]].mean())
        if set(gids) >= {0, 1}:
            apr = ap_ratio(ss, ds)
            patk = dict(p_at_k(ss, ds, f))
            patkr = p_at_k_ratio(ss, ds, f)
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
