"""Brute-force checks of the benchmark's references on tiny hand-made inputs.

    python3 -m pytest -q bench/check_reference.py

Kept out of the repository's test suite on purpose (the file name does not
match test_*.py): these test the benchmark, not the program.
"""

import itertools
import math
import statistics

import numpy as np
import pytest

import reference as ref


def sig(z):
    return 1.0 / (1.0 + math.exp(-z))


def tiny_params(rng, d=3, m=2):
    return {"W_enc1": rng.normal(size=(d, m)), "b_enc1": rng.normal(size=m),
            "W_dec1": rng.normal(size=(m, m)), "b_dec1": rng.normal(size=m),
            "W_out": rng.normal(size=(m, d)), "b_out": rng.normal(size=d)}


def test_ae_scores_match_row_by_row_loop():
    rng = np.random.default_rng(0)
    p = tiny_params(rng)
    X = rng.normal(size=(5, 3))
    for i, x in enumerate(X):
        h1 = [math.tanh(sum(x[a] * p["W_enc1"][a, j] for a in range(3)) + p["b_enc1"][j])
              for j in range(2)]
        h2 = [math.tanh(sum(h1[a] * p["W_dec1"][a, j] for a in range(2)) + p["b_dec1"][j])
              for j in range(2)]
        out = [sum(h2[a] * p["W_out"][a, j] for a in range(2)) + p["b_out"][j] for j in range(3)]
        want = sum((x[j] - out[j]) ** 2 for j in range(3))
        assert ref.ae_scores(p, X)[i] == pytest.approx(want, rel=1e-12)


def test_standardize_and_min_max():
    X = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
    got = ref.standardize(X)
    assert got[:, 1].tolist() == [0.0, 0.0, 0.0]
    sd = statistics.pstdev([1.0, 3.0, 5.0])
    assert got[:, 0] == pytest.approx([-2 / sd, 0.0, 2 / sd])
    assert ref.min_max(np.array([2.0, 4.0, 3.0])).tolist() == [0.0, 1.0, 0.5]
    assert ref.min_max(np.array([7.0, 7.0])).tolist() == [0.0, 0.0]


def test_pearson_matches_statistics_correlation():
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=30), rng.normal(size=30)
    assert ref.pearson_abs(u, v) == pytest.approx(abs(statistics.correlation(u, v)), rel=1e-6)
    assert ref.pearson_abs(u, np.ones(30)) == 0.0


def test_parity_target():
    assert ref.parity_target(np.array([0, 1, 0])).tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        ref.parity_target(np.array([0, 1, 2]))


def test_smooth_ranks_match_double_loop():
    s = np.array([0.3, -1.2, 0.3, 2.0, 0.01])
    for c in (1.0, 50.0):
        want = [sum(sig(c * (s[k] - s[i])) for k in range(s.size) if k != i) + 1.0
                for i in range(s.size)]
        assert ref.smooth_ranks(s, c) == pytest.approx(want, rel=1e-12)


def test_sigmoid_is_stable_at_extremes():
    assert ref.sigmoid(np.array([-800.0, 0.0, 800.0])).tolist() == [0.0, 0.5, 1.0]


def test_hard_ranks_share_the_deeper_rank_on_ties():
    s = np.array([3.0, 1.0, 3.0, 2.0, 1.0, 5.0])
    want = [sum(1 for b in s if b >= a) for a in s]
    assert ref.hard_ranks(s).tolist() == want == [3, 6, 3, 4, 6, 1]


@pytest.mark.parametrize("f,n,k", [(0.05, 100, 5), (0.05, 2400, 120), (0.1, 3, 1),
                                   (0.3, 10, 3), (0.05, 200000, 10000)])
def test_flag_count_is_exact_ceiling(f, n, k):
    assert ref.flag_count(f, n) == k


def test_top_flags_break_ties_by_row_index():
    s = np.array([1.0, 4.0, 4.0, 2.0, 4.0, 0.0, 3.0])
    for f in (0.1, 0.3, 0.5, 0.9):
        k = math.ceil(round(f * s.size, 9))
        chosen = sorted(range(s.size), key=lambda i: (-s[i], i))[:k]
        assert np.flatnonzero(ref.top_flags(s, f)).tolist() == sorted(chosen)


def test_flag_rate_ratio_by_hand():
    flags = np.array([1, 0, 0, 0, 1, 1, 0, 0], dtype=bool)
    pv = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert ref.flag_rate_ratio(flags, pv) == 0.5  # 1/4 against 2/4


def brute_ndcg(scores, norm):
    rel = [2.0 ** b - 1.0 for b in norm]
    dcg = sum(r / math.log2(1 + sum(1 for t in scores if t >= s)) for s, r in zip(scores, rel))
    idcg = sum(r / math.log2(1 + j) for j, r in enumerate(sorted(rel, reverse=True), start=1))
    return dcg / idcg


def test_ndcg_and_group_fidelity_match_brute_force():
    scores = np.array([0.9, 0.1, 0.5, 0.5, 0.3, 0.8, 0.2, 0.2])
    base = np.array([4.0, 1.0, 3.0, 2.0, 0.0, 2.5, 3.5, 1.0])
    pv = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    norm = (base - base.min()) / (base.max() - base.min())
    parts = [brute_ndcg(scores[pv == g].tolist(), norm[pv == g].tolist()) for g in (0, 1)]
    assert ref.ndcg(scores[:4], norm[:4]) == pytest.approx(parts[0], rel=1e-12)
    assert ref.group_fidelity(scores, base, pv) == pytest.approx(
        2 / (1 / parts[0] + 1 / parts[1]), rel=1e-12)
    assert ref.ndcg(base[:4], norm[:4]) == pytest.approx(1.0)


def loop_objective(scores, pv, variant, alpha, gamma, c, norm, raw):
    """The objective in plain Python floats, term by term."""
    s = [float(x) for x in scores]

    def pearson(u, v):
        mu, mv = sum(u) / len(u), sum(v) / len(v)
        cov = sum((a - mu) * (b - mv) for a, b in zip(u, v)) / len(u)
        su = math.sqrt(sum((a - mu) ** 2 for a in u) / len(u) + 1e-16)
        sv = math.sqrt(sum((b - mv) ** 2 for b in v) / len(v) + 1e-16)
        return abs(cov / (su * sv + 1e-8))

    if variant == "base_only":
        return sum(s)
    total = alpha * sum(s) + (1 - alpha) * pearson(s, [float(g == max(pv)) for g in pv])
    if variant == "fairod_l":
        return total
    gf = 0.0
    for g in sorted(set(pv)):
        idx = [i for i in range(len(s)) if pv[i] == g]
        sub = [s[i] for i in idx]
        if variant == "fairod_c":
            gf -= pearson(sub, [raw[i] for i in idx])
            continue
        mu = sum(sub) / len(sub)
        sd = math.sqrt(sum((a - mu) ** 2 for a in sub) / len(sub) + 1e-16) + 1e-8
        unit = [(a - mu) / sd for a in sub]
        rel = [2.0 ** norm[i] - 1.0 for i in idx]
        idcg = sum(r / math.log2(1 + j) for j, r in enumerate(sorted(rel, reverse=True), 1))
        dcg = 0.0
        for a, r in zip(unit, rel):
            rank = 1.0 + sum(sig(c * (b - a)) for b in unit) - 0.5
            dcg += r / (math.log2(rank + 1.0) * idcg)
        gf += 1.0 - dcg
    return total + gamma * gf


@pytest.mark.parametrize("variant", ["base_only", "fairod", "fairod_l", "fairod_c"])
def test_objective_matches_loop(variant):
    rng = np.random.default_rng(2)
    scores = rng.exponential(size=9)
    pv = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
    raw = rng.exponential(size=9)
    norm = ref.min_max(raw)
    got = ref.objective(scores, pv, variant, 0.3, 0.7, 5.0, base_norm=norm, base_raw=raw)
    want = loop_objective(scores, pv.tolist(), variant, 0.3, 0.7, 5.0, norm, raw)
    assert got == pytest.approx(want, rel=1e-12)


def test_central_diff_matches_analytic_gradient():
    def f(p):
        return float(np.sum(p["a"] ** 3) + np.exp(p["b"]).sum() * p["a"][0, 1])

    p = {"a": np.array([[0.5, -1.0], [2.0, 0.25]]), "b": np.array([0.1, -0.3])}
    g = ref.central_diff(f, p)
    e = np.exp(p["b"]).sum()
    want_a = 3 * p["a"] ** 2
    want_a[0, 1] += e
    assert g["a"] == pytest.approx(want_a, rel=1e-8)
    assert g["b"] == pytest.approx(np.exp(p["b"]) * p["a"][0, 1], rel=1e-8)
    assert p["a"][0, 1] == -1.0  # inputs are left untouched


def brute_population_count(max_n):
    total = 0
    for cells in itertools.product(range(max_n + 1), repeat=8):
        n = sum(cells)
        if 2 <= n <= max_n and sum(cells[:4]) and sum(cells[4:]):
            total += 1
    return total


def test_population_count_matches_enumeration():
    assert ref.population_count(2) == 16
    for max_n in (2, 3):
        assert ref.population_count(max_n) == brute_population_count(max_n)
    assert ref.population_count(14) == 313651


def test_witnesses_by_hand():
    # claim1: flags concentrate in the high-base-rate group, so the detector
    # is effective overall although neither group's precision beats its base.
    assert ref.witness_problems("claim1", [0, 0, 1, 1, 3, 1, 0, 0]) == []
    assert "a group's precision beats its base rate" in ref.witness_problems(
        "claim1", [1, 0, 0, 1, 3, 1, 0, 0])
    assert "parity holds, so it was not dropped" in ref.witness_problems(
        "claim1", [1, 0, 0, 1, 1, 0, 0, 1])
    # claim2: parity and effectiveness hold, b's precision equals its base rate.
    assert ref.witness_problems("claim2", [1, 0, 0, 1, 1, 1, 1, 1]) == []
    assert "ratio is preserved, so it was not dropped" in ref.witness_problems(
        "claim2", [1, 0, 0, 1, 1, 0, 0, 1])
    assert ref.witness_problems("claim2", [0, 0, 0, 0, 1, 1, 1, 1]) == ["a group is empty"]
