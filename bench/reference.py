"""Independent NumPy references the benchmark checks the program against.

Nothing here imports `fairod`: every quantity is recomputed from plain
arrays (model parameters, features, group ids, scores) so that a fault in
the program cannot hide in a shared helper.  `check_reference.py` checks
these functions against brute force on tiny hand-made inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

EPS_DENOM = 1e-8
EPS_VAR = 1e-16


# -- autoencoder ----------------------------------------------------------------------


def ae_scores(params: dict, X: np.ndarray) -> np.ndarray:
    """Squared reconstruction error of the tanh autoencoder d -> m -> m -> d."""
    X = np.asarray(X, dtype=np.float64)
    h1 = np.tanh(X @ params["W_enc1"] + params["b_enc1"])
    h2 = np.tanh(h1 @ params["W_dec1"] + params["b_dec1"])
    resid = X - (h2 @ params["W_out"] + params["b_out"])
    return (resid * resid).sum(axis=1)


def standardize(X: np.ndarray) -> np.ndarray:
    """Column-wise (x - mean) / std; constant columns become zeros."""
    X = np.asarray(X, dtype=np.float64)
    std = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(std > 0.0, std, 1.0)


# -- objective pieces -----------------------------------------------------------------


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def pearson_abs(u: np.ndarray, v: np.ndarray) -> float:
    """|corr(u, v)| with the program's documented epsilon guards."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    cu, cv = u - u.mean(), v - v.mean()
    std_u = math.sqrt(float(np.mean(cu * cu)) + EPS_VAR)
    std_v = math.sqrt(float(np.mean(cv * cv)) + EPS_VAR)
    return abs(float(np.mean(cu * cv)) / (std_u * std_v + EPS_DENOM))


def parity_target(pv: np.ndarray) -> np.ndarray:
    """Indicator of the higher id of a two-group attribute, which the parity
    term correlates the scores with."""
    values = np.unique(pv)
    if values.size != 2:
        raise ValueError("the reference covers two-group attributes only")
    return (pv == values.max()).astype(np.float64)


def smooth_ranks(s: np.ndarray, c: float) -> np.ndarray:
    """0.5 + sum_k sigma(c (s_k - s_i)): the self pair adds 0.5, so ranks >= 1."""
    s = np.asarray(s, dtype=np.float64)
    return 0.5 + sigmoid(c * (s[None, :] - s[:, None])).sum(axis=1)


def unit_scale(s: np.ndarray) -> np.ndarray:
    centered = s - s.mean()
    return centered / (math.sqrt(float(np.mean(centered * centered)) + EPS_VAR) + EPS_DENOM)


def ideal_dcg(norm: np.ndarray) -> float:
    """Gains 2^s - 1 sorted descending, discounted by log2(1 + j), j from 1."""
    gains = np.sort(np.exp2(np.asarray(norm, dtype=np.float64)) - 1.0)[::-1]
    return float(np.sum(gains / np.log2(np.arange(2, gains.size + 2))))


def min_max(base_raw: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(base_raw)), float(np.max(base_raw))
    return (base_raw - lo) / (hi - lo) if hi > lo else np.zeros_like(base_raw)


def objective(scores: np.ndarray, pv: np.ndarray, variant: str, alpha: float,
              gamma: float, c: float, base_norm: np.ndarray | None = None,
              base_raw: np.ndarray | None = None) -> float:
    """Composite FairOD objective for given per-row scores.

    alpha * sum(s) + (1 - alpha) * sum |corr(s, indicator)| + gamma * GF, where
    GF is sum_g (1 - smooth-rank NDCG_g) for `fairod` (sigmoid ranks of the
    unit-scaled group scores against gains 2^base_norm - 1) and
    -sum_g |corr(s_g, base_raw_g)| for `fairod_c`.  Terms with weight 0 are
    left out; `base_only` is sum(s).
    """
    scores = np.asarray(scores, dtype=np.float64)
    l_base = float(np.sum(scores))
    if variant == "base_only":
        return l_base
    total = 0.0
    if alpha > 0.0:
        total += alpha * l_base
    if alpha < 1.0:
        total += (1.0 - alpha) * pearson_abs(scores, parity_target(pv))
    if gamma > 0.0 and variant in ("fairod", "fairod_c"):
        gf = 0.0
        for g in np.unique(pv):
            idx = np.flatnonzero(pv == g)
            if variant == "fairod":
                idcg = ideal_dcg(base_norm[idx])
                if idcg <= 0.0:
                    continue
                ranks = smooth_ranks(unit_scale(scores[idx]), c)
                rel = np.exp2(base_norm[idx]) - 1.0
                gf += 1.0 - float(np.sum(rel / (np.log2(ranks + 1.0) * idcg)))
            elif idx.size >= 2 and np.ptp(base_raw[idx]) > 0.0:
                gf -= pearson_abs(scores[idx], base_raw[idx])
        total += gamma * gf
    return total


def central_diff(f, params: dict, h: float = 1e-6) -> dict:
    """(f(p + h e_j) - f(p - h e_j)) / 2h for every entry of every array."""
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    grads = {}
    for key, arr in work.items():
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = f(work)
            flat[j] = orig - h
            down = f(work)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h)
        grads[key] = g
    return grads


# -- evaluation metrics -----------------------------------------------------------------


def flag_count(f: float, n: int) -> int:
    """ceil(f * n) with f read as the decimal it was written as."""
    return math.ceil(Fraction(repr(f)) * n)


def top_flags(scores: np.ndarray, f: float) -> np.ndarray:
    """Flags for the ceil(f*n) highest scores; equal scores go to the lower row index."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    flags = np.zeros(scores.size, dtype=bool)
    flags[order[:flag_count(f, scores.size)]] = True
    return flags


def flag_rate_ratio(flags: np.ndarray, pv: np.ndarray) -> float:
    """min over groups of the flag rate divided by the max flag rate."""
    rates = [Fraction(int(flags[pv == g].sum()), int((pv == g).sum())) for g in np.unique(pv)]
    return float(min(rates) / max(rates))


def hard_ranks(s: np.ndarray) -> np.ndarray:
    """rank_i = #{k : s_k >= s_i}, so tied items share the deeper rank."""
    values, inverse, counts = np.unique(np.asarray(s, dtype=np.float64),
                                        return_inverse=True, return_counts=True)
    at_or_above = np.cumsum(counts[::-1])[::-1]
    return at_or_above[inverse]


def ndcg(scores_g: np.ndarray, base_norm_g: np.ndarray) -> float:
    rel = np.exp2(base_norm_g) - 1.0
    return float(np.sum(rel / np.log2(1.0 + hard_ranks(scores_g)))) / ideal_dcg(base_norm_g)


def group_fidelity(scores: np.ndarray, base_raw: np.ndarray, pv: np.ndarray) -> float:
    """Harmonic mean over groups of hard-rank NDCG against min-max base gains."""
    norm = min_max(np.asarray(base_raw, dtype=np.float64))
    values = [ndcg(scores[pv == g], norm[pv == g]) for g in np.unique(pv)]
    return len(values) / sum(1.0 / v for v in values)


# -- claim checking ---------------------------------------------------------------------


def population_count(max_n: int) -> int:
    """8-cell tables with 2 <= total <= max_n and both groups nonempty:
    C(n+7,7) compositions, minus the C(n+3,3) with either group empty."""
    return sum(comb(n + 7, 7) - 2 * comb(n + 3, 3) for n in range(2, max_n + 1))


def _rates(cells: list[int]) -> dict:
    """Exact rates of a (pv, y, o) table in pv-major cell order."""
    def c(v, y, o):
        return cells[v * 4 + y * 2 + o]

    out = {"n": sum(cells)}
    for v in (0, 1):
        size = sum(cells[v * 4:v * 4 + 4])
        flagged = c(v, 0, 1) + c(v, 1, 1)
        out[v] = {
            "size": size,
            "flagged": flagged,
            "positives": c(v, 1, 0) + c(v, 1, 1),
            "base": Fraction(c(v, 1, 0) + c(v, 1, 1), size),
            "flag_rate": Fraction(flagged, size),
            "precision": Fraction(c(v, 1, 1), flagged) if flagged else None,
        }
    flagged = out[0]["flagged"] + out[1]["flagged"]
    out["effective"] = flagged > 0 and (
        Fraction(c(0, 1, 1) + c(1, 1, 1), flagged)
        > Fraction(out[0]["positives"] + out[1]["positives"], out["n"]))
    out["parity"] = out[0]["flag_rate"] == out[1]["flag_rate"]
    return out


def witness_problems(claim: str, cells: list[int]) -> list[str]:
    """Why a premise-necessity witness does not show what it claims; [] if it does.

    claim1: effective, parity dropped, both groups flagged, and no group's
    precision beats its base rate.  claim2: effective with parity, ratio
    preservation dropped, and some group's precision equals its base rate.
    """
    if not (sum(cells[:4]) and sum(cells[4:])):
        return ["a group is empty"]
    r = _rates(cells)
    problems = []
    if not r["effective"]:
        problems.append("not effective")
    precisions = [r[v]["precision"] for v in (0, 1)]
    if claim == "claim1":
        if r["parity"]:
            problems.append("parity holds, so it was not dropped")
        if None in precisions:
            problems.append("a group has no flags")
        elif any(p > r[v]["base"] for v, p in enumerate(precisions)):
            problems.append("a group's precision beats its base rate")
    else:
        if not r["parity"]:
            problems.append("parity fails")
        defined = None not in precisions and r[0]["positives"] and r[1]["positives"]
        if defined and precisions[0] / precisions[1] == r[0]["base"] / r[1]["base"]:
            problems.append("ratio is preserved, so it was not dropped")
        if not any(p is not None and p == r[v]["base"] for v, p in enumerate(precisions)):
            problems.append("no group's precision equals its base rate")
    return problems
