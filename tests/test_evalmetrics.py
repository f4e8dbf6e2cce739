import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairod import evalmetrics
from fairod.dataset import LabeledDataset, group_view
from fairod.evalmetrics import (
    EvalReport,
    ScoreSet,
    _rank_order,
    ap_ratio,
    average_precision,
    build_report,
    ceil_frac,
    fairness_metric,
    flag_top_fraction,
    group_fidelity,
    harmonic_mean,
    ndcg_group,
    p_at_k,
    p_at_k_ratio,
    topk_rank_agreement,
)
from fairod.losses import BaseScoreSet, DegenerateInputWarning


def make_ds(scores_n, pv, labels=None):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(len(pv), 2))
    return LabeledDataset(
        features=X,
        pv=np.asarray(pv, dtype=np.int64),
        labels=None if labels is None else np.asarray(labels, dtype=np.int64),
    )


# -- flagging ---------------------------------------------------------------------------


def test_ceil_frac_guards_float_artifacts():
    assert ceil_frac(0.05, 100) == 5
    assert ceil_frac(0.05, 2400) == 120
    assert ceil_frac(0.051, 100) == 6
    assert ceil_frac(1 / 3, 3) == 1
    # f*n below the 9-digit rounding still means ceil(f*n) = 1
    assert ceil_frac(1e-12, 360) == 1
    assert ceil_frac(1e-12, 1) == 1
    assert ceil_frac(0.5, 0) == 0


def test_flag_top_fraction_count_and_membership():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=100)
    flags = flag_top_fraction(scores, 0.05)
    assert flags.sum() == 5
    assert set(np.flatnonzero(flags)) == set(np.argsort(-scores)[:5])


def test_flag_top_fraction_ties_ascending_index():
    scores = np.array([1.0, 1.0, 1.0, 0.0, 2.0])
    flags = flag_top_fraction(scores, 0.5)  # k = 3
    assert list(np.flatnonzero(flags)) == [0, 1, 4]


def test_flag_top_fraction_domain():
    s = np.ones(10)
    for f in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            flag_top_fraction(s, f)


@given(st.integers(2, 80), st.floats(0.01, 0.99), st.integers(0, 2**32 - 1))
def test_flag_count_invariant(n, f, seed):
    scores = np.random.default_rng(seed).normal(size=n)
    flags = flag_top_fraction(scores, f)
    assert flags.sum() == ceil_frac(f, n)
    if flags.all() or not flags.any():
        return
    assert scores[flags].min() >= scores[~flags].max()


def test_scoreset_group_orders_are_descending_permutations():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=30)
    pv = rng.integers(0, 2, size=30)
    ss = ScoreSet.from_scores(scores, pv, 0.1)
    for g, order in ss.group_orders.items():
        assert set(order) == set(np.flatnonzero(pv == g))
        ranked = scores[order]
        assert np.all(np.diff(ranked) <= 0)


# -- fairness ---------------------------------------------------------------------------


def test_fairness_metric_values():
    pv = np.array([0] * 100 + [1] * 100)
    flags = np.zeros(200, dtype=bool)
    flags[:5] = True
    flags[100:105] = True
    assert fairness_metric(flags, pv) == pytest.approx(1.0)
    flags = np.zeros(200, dtype=bool)
    flags[:6] = True
    flags[100:102] = True
    assert fairness_metric(flags, pv) == pytest.approx(2 / 6)


def test_fairness_metric_degenerate_cases():
    pv = np.array([0] * 10 + [1] * 10)
    flags = np.zeros(20, dtype=bool)
    assert fairness_metric(flags, pv) is None
    flags[0] = True
    assert fairness_metric(flags, pv) == 0.0
    with pytest.raises(ValueError):
        fairness_metric(flags, np.zeros(20, dtype=int))


def test_fairness_metric_group_relabel_symmetry():
    rng = np.random.default_rng(11)
    pv = rng.integers(0, 2, size=60)
    flags = rng.random(60) < 0.2
    if not flags.any():
        flags[0] = True
    assert fairness_metric(flags, pv) == pytest.approx(fairness_metric(flags, 1 - pv))


def test_fairness_metric_multigroup_min_over_max():
    pv = np.array([0] * 10 + [1] * 10 + [2] * 10)
    flags = np.zeros(30, dtype=bool)
    flags[:4] = True     # rate 0.4
    flags[10:12] = True  # rate 0.2
    flags[20:21] = True  # rate 0.1
    assert fairness_metric(flags, pv) == pytest.approx(0.25)


def test_random_flagging_precision_matches_base_rate_floor():
    # flagging ceil(0.05*N) rows uniformly at random makes precision a
    # hypergeometric average whose mean is the base rate; over 200 trials the
    # mean precision must land inside the 99% normal interval around it
    rng = np.random.default_rng(99)
    n, positives = 400, 40
    labels = np.zeros(n, dtype=np.int64)
    labels[:positives] = 1
    k = ceil_frac(0.05, n)
    precisions = []
    for _ in range(200):
        flags = flag_top_fraction(rng.normal(size=n), 0.05)
        assert flags.sum() == k
        precisions.append(labels[flags].mean())
    p = positives / n
    var_hits = k * p * (1 - p) * (n - k) / (n - 1)
    margin = 2.576 * math.sqrt(var_hits / k**2 / 200)
    assert abs(np.mean(precisions) - p) < margin


# -- rank fidelity ------------------------------------------------------------------------


def test_ndcg_group_perfect_order_is_one():
    base_norm = np.array([1.0, 0.5, 0.0])
    scores = np.array([9.0, 5.0, 1.0])
    assert ndcg_group(scores, base_norm, np.arange(3)) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_group_reversed_three_member():
    base_norm = np.array([1.0, 0.5, 0.0])
    scores = np.array([1.0, 5.0, 9.0])
    got = ndcg_group(scores, base_norm, np.arange(3))
    assert got == pytest.approx(0.6035960689055047, abs=1e-9)


def test_ndcg_group_tied_scores_share_deeper_rank():
    base_norm = np.array([1.0, 0.5])
    scores = np.array([2.0, 2.0])
    rel = [2**1 - 1, 2**0.5 - 1]
    idcg = rel[0] / math.log2(2) + rel[1] / math.log2(3)
    dcg = (rel[0] + rel[1]) / math.log2(3)
    assert ndcg_group(scores, base_norm, np.arange(2)) == pytest.approx(dcg / idcg)


def test_ndcg_group_all_zero_relevance_is_degenerate():
    with pytest.warns(DegenerateInputWarning):
        assert ndcg_group(np.array([1.0, 2.0]), np.zeros(2), np.arange(2)) is None
    with pytest.raises(ValueError):
        ndcg_group(np.array([1.0]), np.array([1.0]), np.array([], dtype=int))


def test_ndcg_group_single_member_is_one():
    assert ndcg_group(np.array([5.0, 1.0]), np.array([0.3, 0.9]), np.array([0])) == 1.0


def test_ndcg_group_monotone_transform_invariant():
    rng = np.random.default_rng(5)
    base_norm = rng.random(20)
    scores = rng.normal(size=20)
    rows = np.arange(20)
    a = ndcg_group(scores, base_norm, rows)
    b = ndcg_group(np.exp(scores) * 3 + 1, base_norm, rows)
    assert a == pytest.approx(b, abs=1e-12)


def test_harmonic_mean_conventions():
    assert harmonic_mean([1.0, 0.5]) == pytest.approx(2 / 3)
    assert harmonic_mean([1.0, 0.1]) == pytest.approx(0.18181818181818182)
    assert harmonic_mean([1.0, 0.5], literal=True) == pytest.approx(1 / 3)
    assert harmonic_mean([0.8, 0.0]) == 0.0


def test_group_fidelity_perfect_and_degenerate():
    rng = np.random.default_rng(8)
    pv = np.array([0] * 6 + [1] * 6)
    groups = {0: np.arange(6), 1: np.arange(6, 12)}
    base_raw = rng.random(12)
    base = BaseScoreSet.from_scores(base_raw, groups)
    ss = ScoreSet.from_scores(base_raw, pv, 0.25)
    assert group_fidelity(ss, base, groups) == pytest.approx(1.0, abs=1e-12)

    # matches the harmonic mean of the per-group values
    other = ScoreSet.from_scores(rng.normal(size=12), pv, 0.25)
    per_group = [ndcg_group(other.scores, base.normalized, groups[g]) for g in (0, 1)]
    assert group_fidelity(other, base, groups) == pytest.approx(harmonic_mean(per_group))

    # one group pinned at the global minimum: all-zero relevance, degenerate
    flat = np.concatenate([np.zeros(6), rng.random(6) + 0.5])
    with pytest.warns(DegenerateInputWarning):
        base2 = BaseScoreSet.from_scores(flat, groups)
    with pytest.warns(DegenerateInputWarning):
        assert group_fidelity(ss, base2, groups) is None
    with pytest.raises(ValueError):
        group_fidelity(ss, base, {0: np.arange(12)})


def test_topk_rank_agreement_cases():
    pv = np.zeros(4, dtype=int)
    a = ScoreSet.from_scores(np.array([4.0, 3.0, 2.0, 1.0]), pv, 0.5)
    b = ScoreSet.from_scores(np.array([4.0, 3.0, 2.0, 1.0]), pv, 0.5)
    c = ScoreSet.from_scores(np.array([1.0, 2.0, 3.0, 4.0]), pv, 0.5)
    d = ScoreSet.from_scores(np.array([3.0, 4.0, 1.0, 2.0]), pv, 0.5)
    assert topk_rank_agreement(a, b, 2) == 1.0
    assert topk_rank_agreement(a, c, 2) == 0.0
    assert topk_rank_agreement(a, d, 2) == 1.0  # same set {0,1}, order ignored
    assert topk_rank_agreement(a, c, 3) == pytest.approx(2 / 4)
    assert topk_rank_agreement(a, c, 4) == 1.0  # k = N covers everything
    with pytest.raises(ValueError):
        topk_rank_agreement(a, b, 5)
    with pytest.raises(ValueError):
        topk_rank_agreement(a, ScoreSet.from_scores(np.ones(3), np.zeros(3, int), 0.5), 2)


# -- supervised metrics -------------------------------------------------------------------


def test_average_precision_examples():
    assert average_precision(np.array([4.0, 3, 2, 1]), np.array([1, 0, 1, 0])) == pytest.approx(5 / 6)
    assert average_precision(np.array([4.0, 3, 2, 1]), np.array([0, 1, 0, 0])) == pytest.approx(0.5)
    assert average_precision(np.array([4.0, 3, 2, 1]), np.array([1, 1, 0, 0])) == 1.0
    assert average_precision(np.array([4.0, 3, 2, 1]), np.array([0, 0, 0, 0])) is None


def test_average_precision_ties_by_index():
    scores = np.zeros(2)
    assert average_precision(scores, np.array([1, 0])) == 1.0
    assert average_precision(scores, np.array([0, 1])) == 0.5


def test_average_precision_matches_sklearn_on_tie_free_data():
    sk = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        scores = rng.permutation(n).astype(np.float64)  # unique, tie-free
        labels = (rng.random(n) < 0.3).astype(np.int64)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        ours = average_precision(scores, labels)
        ref = sk.average_precision_score(labels, scores)
        assert ours == pytest.approx(ref, abs=1e-12)


def test_ap_ratio_perfect_detector_is_one():
    pv = np.array([0] * 8 + [1] * 8)
    labels = np.array([1, 1, 0, 0, 0, 0, 0, 0] * 2)
    ds = make_ds(16, pv, labels)
    scores = labels * 10.0 + np.arange(16) * 0.01
    ss = ScoreSet.from_scores(scores, pv, 0.25)
    assert ap_ratio(ss, ds) == pytest.approx(1.0)


def test_ap_ratio_inverts_under_group_swap():
    rng = np.random.default_rng(17)
    pv = np.array([0] * 10 + [1] * 10)
    labels = np.array([1, 1, 0, 0, 0, 1, 0, 0, 0, 0] * 2)
    scores = rng.normal(size=20)
    ds = make_ds(20, pv, labels)
    swapped = make_ds(20, 1 - pv, labels)
    ss = ScoreSet.from_scores(scores, pv, 0.2)
    ss_sw = ScoreSet.from_scores(scores, 1 - pv, 0.2)
    assert ap_ratio(ss, ds) == pytest.approx(1.0 / ap_ratio(ss_sw, swapped))


def test_ap_ratio_degenerate_and_errors():
    pv = np.array([0] * 4 + [1] * 4)
    ds = make_ds(8, pv, [1, 0, 0, 0, 0, 0, 0, 0])
    ss = ScoreSet.from_scores(np.arange(8.0), pv, 0.25)
    assert ap_ratio(ss, ds) is None
    with pytest.raises(ValueError):
        ap_ratio(ss, make_ds(8, pv))


def test_p_at_k_per_group_counts():
    pv = np.array([0] * 40 + [1] * 20)
    labels = np.zeros(60, dtype=np.int64)
    scores = np.zeros(60)
    # group 0: top-2 (k = ceil(0.05*40) = 2) holds one hit
    scores[[3, 7]] = [9.0, 8.0]
    labels[3] = 1
    # group 1: top-1 (k = ceil(0.05*20) = 1) holds its hit
    scores[45] = 9.0
    labels[45] = 1
    ds = make_ds(60, pv, labels)
    ss = ScoreSet.from_scores(scores, pv, 0.05)
    got = p_at_k(ss, ds, 0.05)
    assert got == {0: 0.5, 1: 1.0}
    assert p_at_k_ratio(ss, ds, 0.05) == pytest.approx(0.5)


def test_p_at_k_ratio_zero_minority_precision_is_degenerate():
    pv = np.array([0] * 40 + [1] * 20)
    labels = np.zeros(60, dtype=np.int64)
    labels[3] = 1
    scores = np.zeros(60)
    scores[3] = 9.0
    ds = make_ds(60, pv, labels)
    ss = ScoreSet.from_scores(scores, pv, 0.05)
    assert p_at_k_ratio(ss, ds, 0.05) is None


# -- report -------------------------------------------------------------------------------


def full_report_fixture():
    rng = np.random.default_rng(13)
    pv = np.array([0] * 30 + [1] * 30)
    labels = (rng.random(60) < 0.2).astype(np.int64)
    labels[0] = labels[30] = 1
    ds = make_ds(60, pv, labels)
    base_scores = rng.random(60) + labels
    base = BaseScoreSet.from_scores(base_scores, group_view(ds))
    scores = base_scores + rng.normal(scale=0.05, size=60)
    return scores, ds, base, base_scores


def test_build_report_full_inputs():
    scores, ds, base, base_scores = full_report_fixture()
    rep = build_report(scores, ds, 0.1, base=base,
                       config={"variant": "fairod"})
    assert rep.fairness is not None and 0.0 <= rep.fairness <= 1.0
    assert rep.group_fidelity is not None and 0.0 < rep.group_fidelity <= 1.0
    assert rep.topk_agreement is not None
    assert all(rep.ndcg[g] is not None for g in (0, 1))
    assert all(rep.ap[g] is not None for g in (0, 1))
    assert rep.ap_ratio is not None and rep.p_at_k_ratio is not None
    assert rep.group_sizes == {0: 30, 1: 30}
    assert rep.flag_fraction == 0.1
    assert rep.config == {"variant": "fairod"}
    assert sum(rep.flag_rates[g] * rep.group_sizes[g] for g in (0, 1)) == 6
    for wrong_size in (base_scores[:-1], np.append(base_scores, 0.5)):
        with pytest.raises(ValueError, match="different datasets"):
            build_report(scores, ds, 0.1, base=BaseScoreSet.from_scores(wrong_size, {}))


def test_build_report_tiny_flag_fraction_flags_one_row():
    rng = np.random.default_rng(4)
    pv = np.array([0] * 50 + [1] * 50)
    labels = (rng.random(100) < 0.3).astype(np.int64)
    ds = make_ds(100, pv, labels)
    scores = rng.random(100)
    base = BaseScoreSet.from_scores(rng.random(100), group_view(ds))
    rep = build_report(scores, ds, 1e-12, base=base)
    assert sum(rep.flag_rates[g] * rep.group_sizes[g] for g in (0, 1)) == 1
    assert all(math.isfinite(v) for v in rep.p_at_k.values())
    assert rep.topk_agreement is not None


def test_build_report_without_base_or_labels_degrades_with_notes():
    scores, ds, base, base_scores = full_report_fixture()
    rep = build_report(scores, ds, 0.1)
    assert rep.group_fidelity is None and rep.topk_agreement is None
    assert any("base" in n for n in rep.notes)

    unlabeled = LabeledDataset(features=ds.features, pv=ds.pv, labels=None)
    rep2 = build_report(scores, unlabeled, 0.1, base=base)
    assert rep2.ap_ratio is None and rep2.p_at_k_ratio is None
    assert rep2.group_fidelity is not None
    assert any("labels" in n for n in rep2.notes)


def test_eval_report_json_round_trip():
    scores, ds, base, base_scores = full_report_fixture()
    rep = build_report(scores, ds, 0.1, base=base)
    back = EvalReport.from_json(rep.to_json())
    assert back == rep
    doc = json.loads(rep.to_json())
    assert set(doc["ndcg"]) == {"0", "1"}
    assert set(doc) == {"fairness", "group_fidelity", "ndcg", "topk_agreement", "ap",
                        "ap_ratio", "p_at_k", "p_at_k_ratio", "flag_rates", "base_rates",
                        "group_sizes", "flag_fraction", "config", "notes"}

    bare = build_report(scores, LabeledDataset(features=ds.features, pv=ds.pv), 0.1)
    assert bare.ap_ratio is None and bare.ndcg == {0: None, 1: None}
    assert EvalReport.from_json(bare.to_json()) == bare

    pv3 = np.where(np.arange(ds.n) % 7 == 0, 2, ds.pv)
    ds3 = make_ds(ds.n, pv3, ds.labels)
    base3 = BaseScoreSet.from_scores(base_scores, group_view(ds3))
    rep3 = build_report(scores, ds3, 0.1, base=base3)
    back3 = EvalReport.from_json(rep3.to_json())
    assert back3 == rep3
    assert set(back3.ndcg) == set(back3.group_sizes) == {0, 1, 2}


def test_eval_report_json_preserves_degenerate_none():
    rep = build_report(np.arange(8.0), make_ds(8, [0] * 4 + [1] * 4), 0.2)
    back = EvalReport.from_json(rep.to_json())
    assert back.group_fidelity is None
    assert back == rep


def test_eval_report_csv_row_matches_header():
    scores, ds, base, base_scores = full_report_fixture()
    rep = build_report(scores, ds, 0.1, base=base)
    header = EvalReport.csv_header([0, 1])
    row = rep.to_csv_row([0, 1])
    assert len(header) == len(row)
    lookup = dict(zip(header, row))
    assert float(lookup["fairness"]) == rep.fairness
    assert lookup["n_0"] == "30"
    assert lookup["flag_rate_1"] == repr(rep.flag_rates[1])
    assert EvalReport.csv_header([0, 1, 2]) == [
        "fairness", "group_fidelity", "topk_agreement", "ap_ratio", "p_at_k_ratio",
        "flag_fraction",
        "ndcg_0", "ap_0", "p_at_k_0", "flag_rate_0", "base_rate_0", "n_0",
        "ndcg_1", "ap_1", "p_at_k_1", "flag_rate_1", "base_rate_1", "n_1",
        "ndcg_2", "ap_2", "p_at_k_2", "flag_rate_2", "base_rate_2", "n_2",
    ]
    # a group the report does not hold gets empty cells
    assert rep.to_csv_row([0, 1, 2]) == row + [""] * 6

    bare = build_report(scores, LabeledDataset(features=ds.features, pv=ds.pv), 0.1)
    row2 = bare.to_csv_row([0, 1])
    assert row2[dict(zip(header, range(len(header))))["ap_ratio"]] == ""


def test_report_ranks_each_vector_once_and_scores_each_group_once(monkeypatch):
    calls = Counter()
    for name in ("_rank_order", "ndcg_group"):
        def counted(*args, _fn=getattr(evalmetrics, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evalmetrics, name, counted)
    scores, ds, base, base_scores = full_report_fixture()
    ScoreSet.from_scores(scores, ds.pv, 0.1)
    assert calls == {"_rank_order": 1}
    calls.clear()
    build_report(scores, ds, 0.1, base=base)
    # one sort each for the model and the base scores, one NDCG per group
    assert calls == {"_rank_order": 2, "ndcg_group": 2}


@given(st.data())
def test_report_matches_per_group_definitions_under_heavy_ties(data):
    n_groups = data.draw(st.integers(2, 3))
    n = data.draw(st.integers(n_groups, 150))
    levels = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4,
                                         unique=True)))

    def column(hi):
        return np.array(data.draw(st.lists(st.integers(0, hi), min_size=n, max_size=n)))

    scores = levels[column(levels.size - 1)]
    base_raw = levels[column(levels.size - 1)]
    pv = column(n_groups - 1)
    pv[:n_groups] = np.arange(n_groups)
    labels = column(1)
    f = data.draw(st.floats(0.01, 0.99))
    ds = make_ds(n, pv, labels)
    groups = group_view(ds)

    ss = ScoreSet.from_scores(scores, pv, f)
    assert np.array_equal(ss.flags, flag_top_fraction(scores, f))
    assert sorted(ss.group_orders) == sorted(groups)
    for g, rows in groups.items():
        assert np.array_equal(ss.group_orders[g], rows[_rank_order(scores[rows])])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        base = BaseScoreSet.from_scores(base_raw, groups)
        rep = build_report(scores, ds, f, base=base)
        ndcg = {g: ndcg_group(scores, base.normalized, rows) for g, rows in groups.items()}
    assert rep.ndcg == ndcg
    values = [ndcg[g] for g in sorted(groups)]
    assert rep.group_fidelity == (None if None in values else harmonic_mean(values))
    ap = {g: average_precision(scores[rows], labels[rows]) for g, rows in groups.items()}
    assert rep.ap == ap
    assert rep.ap_ratio == (None if None in (ap[0], ap[1]) else ap[0] / ap[1])
    precision = {}
    for g, rows in groups.items():
        k = ceil_frac(f, rows.size)
        precision[g] = float(labels[rows[_rank_order(scores[rows])][:k]].sum() / k)
    assert rep.p_at_k == precision
    assert rep.p_at_k_ratio == (None if precision[1] == 0.0 else precision[0] / precision[1])
