from dataclasses import replace

import numpy as np
import pytest

from fairod.dataset import LabeledDataset, group_view, make_synth1, standardize
from fairod.detector import AEConfig, init_params
from fairod.evalmetrics import ScoreSet, fairness_metric
from fairod.losses import BaseScoreSet, TotalLossSpec
from fairod.numgrad import eval_loss_grad_components
from fairod.training import (
    ALPHA_GRID,
    GAMMA_GRID,
    FitResult,
    GridResult,
    TrainConfig,
    TrainingError,
    fit_base,
    fit_base_multi_seed,
    fit_fairod,
    grid_search,
    pareto_select,
    unsupervised_metrics,
)


def tiny_ds(n=24, d=2, seed=0, with_labels=True):
    rng = np.random.default_rng(seed)
    pv = np.array([0] * (2 * n // 3) + [1] * (n - 2 * n // 3), dtype=np.int64)
    X = rng.normal(size=(n, d)) + pv[:, None] * 0.5
    labels = (rng.random(n) < 0.2).astype(np.int64) if with_labels else None
    return LabeledDataset(features=X, pv=pv, labels=labels)


def small_synth1(seed=3):
    return standardize(make_synth1(500, 100, 30, seed=seed))


def params_equal(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in a.to_dict())


# -- config -----------------------------------------------------------------------------


def test_train_config_validation():
    TrainConfig()  # defaults are valid
    for bad in (dict(alpha=-0.1), dict(alpha=1.1), dict(gamma=-1.0), dict(c=0.0),
                dict(flag_fraction=0.0), dict(flag_fraction=1.0), dict(epochs=0),
                dict(lr=0.0), dict(batch_size=0), dict(variant="nope")):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_train_config_default_grid_constants():
    assert ALPHA_GRID == (0.01, 0.5, 0.9)
    assert GAMMA_GRID == (0.01, 0.1, 1.0)


# -- fit_base ---------------------------------------------------------------------------


def test_fit_base_trace_and_result_shape():
    ds = tiny_ds()
    cfg = TrainConfig(variant="base_only", epochs=30, seed=1)
    fit = fit_base(ds, cfg)
    assert all(len(fit.trace[k]) == 30 for k in ("base", "sp", "gf", "total"))
    assert fit.trace["base"] == fit.trace["total"]  # only term in play
    assert fit.trace["sp"] == [0.0] * 30 and fit.trace["gf"] == [0.0] * 30
    assert fit.scores.shape == (ds.n,) and np.all(np.isfinite(fit.scores))
    assert np.all(fit.scores >= 0.0)
    assert fit.config.variant == "base_only"


def test_fit_base_loss_decreases():
    ds = tiny_ds(n=40)
    fit = fit_base(ds, TrainConfig(variant="base_only", epochs=60, seed=0))
    assert fit.trace["base"][-1] < fit.trace["base"][0]


def test_fit_base_last_half_non_increasing_within_jitter():
    fit = fit_base(small_synth1(), TrainConfig(variant="base_only", lr=0.01, epochs=400, seed=0))
    half = fit.trace["base"][200:]
    assert all(half[i + 1] <= half[i] * 1.05 for i in range(len(half) - 1))


def test_fit_base_separates_outliers_on_synth1():
    ds = small_synth1()
    fit = fit_base(ds, TrainConfig(variant="base_only", lr=0.01, epochs=400, seed=0))
    assert fit.scores[ds.labels == 1].mean() > fit.scores[ds.labels == 0].mean()


def test_fit_base_deterministic():
    ds = tiny_ds()
    cfg = TrainConfig(variant="base_only", epochs=25, seed=9)
    a, b = fit_base(ds, cfg), fit_base(ds, cfg)
    assert params_equal(a.params, b.params)
    assert np.array_equal(a.scores, b.scores)
    assert a.trace == b.trace


def test_fit_base_ignores_pv_and_labels():
    ds = tiny_ds(n=30, seed=2)
    scrambled = LabeledDataset(features=ds.features,
                               pv=np.ascontiguousarray(ds.pv[::-1]), labels=None)
    cfg = TrainConfig(variant="base_only", epochs=25, seed=5)
    a, b = fit_base(ds, cfg), fit_base(scrambled, cfg)
    assert params_equal(a.params, b.params)
    assert np.array_equal(a.scores, b.scores)


def test_fit_abort_carries_epoch_diagnostics(monkeypatch):
    from fairod import training
    from fairod.numgrad import NumericalOverflowError

    real = training.eval_loss_grad_components
    calls = {"n": 0}

    def explode(params, batch, spec):
        if calls["n"] == 3:
            raise NumericalOverflowError("non-finite values produced by 'loss_base'")
        calls["n"] += 1
        return real(params, batch, spec)

    monkeypatch.setattr(training, "eval_loss_grad_components", explode)
    with pytest.raises(TrainingError, match="epoch 3.*loss_base"):
        fit_base(tiny_ds(), TrainConfig(variant="base_only", epochs=10, seed=0))


# -- fit_fairod -------------------------------------------------------------------------


def test_fit_fairod_base_only_variant_matches_fit_base():
    ds = tiny_ds()
    cfg = TrainConfig(variant="base_only", epochs=20, seed=3)
    direct = fit_base(ds, cfg)
    via = fit_fairod(ds, direct, cfg)
    assert params_equal(direct.params, via.params)
    assert via.trace == direct.trace


def test_fit_fairod_alpha_one_gamma_zero_equals_base_trajectory():
    ds = tiny_ds(n=30, seed=4)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=20, seed=6))
    fo = fit_fairod(ds, base, TrainConfig(alpha=1.0, gamma=0.0, epochs=20, seed=6))
    assert params_equal(base.params, fo.params)
    assert fo.trace["base"] == base.trace["base"]
    assert np.array_equal(fo.scores, base.scores)


def test_fit_fairod_gamma_zero_equals_fairod_l():
    ds = tiny_ds(n=30, seed=4)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=15, seed=2))
    fo = fit_fairod(ds, base, TrainConfig(alpha=0.3, gamma=0.0, epochs=15, seed=2))
    fl = fit_fairod(ds, base, TrainConfig(alpha=0.3, gamma=5.0, epochs=15, seed=2,
                                          variant="fairod_l"))
    assert params_equal(fo.params, fl.params)


def test_fit_fairod_deterministic_and_fresh_init():
    ds = tiny_ds(n=30, seed=1)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=20, seed=7))
    cfg = TrainConfig(alpha=0.5, gamma=0.1, epochs=20, seed=7)
    a, b = fit_fairod(ds, base, cfg), fit_fairod(ds, base, cfg)
    assert params_equal(a.params, b.params) and np.array_equal(a.scores, b.scores)
    assert not params_equal(a.params, base.params)  # different loss, same init


def test_fit_fairod_variants_produce_expected_trace_components():
    ds = tiny_ds(n=30, seed=5)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=1))
    fo = fit_fairod(ds, base, TrainConfig(alpha=0.5, gamma=0.2, epochs=10, seed=1))
    assert any(v != 0.0 for v in fo.trace["sp"])
    assert any(v != 0.0 for v in fo.trace["gf"])
    fc = fit_fairod(ds, base, TrainConfig(alpha=0.5, gamma=0.2, epochs=10, seed=1,
                                          variant="fairod_c"))
    assert any(v < 0.0 for v in fc.trace["gf"])  # correlation reward is negative


def test_fit_fairod_base_scores_must_cover_dataset():
    ds = tiny_ds(n=30)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=5, seed=0))
    short = FitResult(params=base.params, trace=base.trace,
                      scores=base.scores[:10], config=base.config)
    with pytest.raises(ValueError):
        fit_fairod(ds, short, TrainConfig(alpha=0.5, gamma=0.1, epochs=5, seed=0))


def test_fit_fairod_rescores_base_from_params_when_needed():
    ds = tiny_ds(n=30, seed=8)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=4))
    stripped = FitResult(params=base.params, trace=base.trace, scores=None,
                         config=base.config)
    cfg = TrainConfig(alpha=0.5, gamma=0.1, epochs=10, seed=4)
    assert params_equal(fit_fairod(ds, base, cfg).params,
                        fit_fairod(ds, stripped, cfg).params)


def test_fairod_improves_fairness_over_base_on_synth1():
    ds = small_synth1()
    base = fit_base(ds, TrainConfig(variant="base_only", lr=0.05, epochs=400, seed=0))
    fo = fit_fairod(ds, base, TrainConfig(alpha=0.01, gamma=0.1, lr=0.05, epochs=400, seed=0))
    base_fair = fairness_metric(
        ScoreSet.from_scores(base.scores, ds.pv, 0.05).flags, ds.pv)
    fair, _ = unsupervised_metrics(fo, ds, base.scores)
    assert fair >= base_fair


def test_fairod_l_sp_component_converges_on_synth1():
    ds = small_synth1()
    base = fit_base(ds, TrainConfig(variant="base_only", lr=0.05, epochs=400, seed=0))
    fl = fit_fairod(ds, base, TrainConfig(alpha=0.01, gamma=0.1, lr=0.05, epochs=800,
                                          seed=0, variant="fairod_l"))
    assert fl.trace["sp"][-1] < 0.05


def test_treatment_parity_scores_ignore_pv():
    ds = tiny_ds(n=30, seed=6)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=15, seed=3))
    fo = fit_fairod(ds, base, TrainConfig(alpha=0.3, gamma=0.5, epochs=15, seed=3))
    rng = np.random.default_rng(0)
    permuted = LabeledDataset(features=ds.features, pv=rng.permutation(ds.pv),
                              labels=ds.labels)
    assert np.array_equal(fo.rescore(ds), fo.rescore(permuted))
    assert np.array_equal(fo.rescore(ds), fo.scores)


# -- batching ---------------------------------------------------------------------------


def test_minibatch_mode_runs_and_is_deterministic():
    ds = tiny_ds(n=40, seed=3)
    cfg = TrainConfig(variant="base_only", epochs=12, seed=2, batch_size=16)
    a, b = fit_base(ds, cfg), fit_base(ds, cfg)
    assert params_equal(a.params, b.params)
    assert all(len(a.trace[k]) == 12 for k in a.trace)
    full = fit_base(ds, TrainConfig(variant="base_only", epochs=12, seed=2))
    assert not params_equal(a.params, full.params)


def test_minibatch_fairod_runs():
    ds = tiny_ds(n=40, seed=9)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=1))
    fo = fit_fairod(ds, base, TrainConfig(alpha=0.5, gamma=0.5, epochs=10, seed=1,
                                          batch_size=16))
    assert np.all(np.isfinite(fo.scores))
    assert any(v != 0.0 for v in fo.trace["gf"])


def test_batch_covering_all_rows_matches_full_batch():
    # one shuffled batch sums the same terms as the full batch in another order
    ds = tiny_ds(n=40, seed=9)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=1))
    for variant in ("base_only", "fairod", "fairod_l", "fairod_c"):
        cfg = TrainConfig(variant=variant, alpha=0.5, gamma=0.5, epochs=10, seed=1)
        full = fit_fairod(ds, base, cfg)
        for batch_size in (ds.n, ds.n + 7):
            one = fit_fairod(ds, base, replace(cfg, batch_size=batch_size))
            for k, v in full.params.to_dict().items():
                np.testing.assert_allclose(getattr(one.params, k), v, rtol=1e-9, atol=0.0)
            for k, v in full.trace.items():
                np.testing.assert_allclose(one.trace[k], v, rtol=1e-9, atol=0.0)


def test_full_batch_trace_holds_batch_terms_exactly():
    # the trace averages batches by row weight; with one batch the weight is
    # exactly 1.0, so the first epoch's entries are the initial loss terms
    ds = tiny_ds(n=40, seed=9)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=1))
    base_set = BaseScoreSet.from_scores(base.scores, group_view(ds))
    for seed in range(5):
        params = init_params(AEConfig.for_dim(ds.d, seed=seed)).to_dict()
        for variant in ("base_only", "fairod", "fairod_l", "fairod_c"):
            cfg = TrainConfig(variant=variant, alpha=0.5, gamma=0.5, epochs=1, seed=seed)
            fit = fit_fairod(ds, base, cfg)
            spec = TotalLossSpec(variant=variant, weights=cfg.weights, pv=ds.pv,
                                 base=base_set, groups=group_view(ds))
            comps = eval_loss_grad_components(params, ds.features, spec)[2]
            assert {k: v[0] for k, v in fit.trace.items()} == {k: comps[k] for k in fit.trace}


# -- multi-seed base ----------------------------------------------------------------------


def test_fit_base_multi_seed_picks_lowest_final_loss():
    ds = tiny_ds(n=36, seed=11)
    cfg = TrainConfig(variant="base_only", epochs=25, seed=10)
    best = fit_base_multi_seed(ds, cfg, n_seeds=4)
    singles = [fit_base(ds, TrainConfig(variant="base_only", epochs=25, seed=10 + k))
               for k in range(4)]
    finals = [f.trace["base"][-1] for f in singles]
    expect = singles[int(np.argmin(finals))]
    assert best.config.seed == expect.config.seed
    assert params_equal(best.params, expect.params)
    with pytest.raises(ValueError):
        fit_base_multi_seed(ds, cfg, n_seeds=0)


# -- grid and selection -------------------------------------------------------------------


def test_grid_search_default_is_nine_cells_in_order():
    ds = tiny_ds(n=24, seed=5)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=5, seed=0))
    cells = grid_search(ds, base, cfg_common=TrainConfig(epochs=5, seed=0))
    assert len(cells) == 9
    assert [(c.config.alpha, c.config.gamma) for c in cells] == [
        (a, g) for a in ALPHA_GRID for g in GAMMA_GRID]
    assert all(c.error is None and c.fit is not None for c in cells)


def test_grid_search_single_cell_reduces_to_fit_fairod():
    ds = tiny_ds(n=24, seed=5)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=8, seed=1))
    cfg = TrainConfig(epochs=8, seed=1)
    cells = grid_search(ds, base, grid={"alpha": [0.5], "gamma": [0.1]}, cfg_common=cfg)
    direct = fit_fairod(ds, base, TrainConfig(alpha=0.5, gamma=0.1, epochs=8, seed=1))
    assert len(cells) == 1
    assert params_equal(cells[0].fit.params, direct.params)


def test_grid_search_captures_per_cell_errors(monkeypatch):
    from fairod import training

    real = training.fit_fairod

    def sometimes(ds, base, cfg):
        if cfg.alpha == 0.9:
            raise training.TrainingError("fit diverged at epoch 0")
        return real(ds, base, cfg)

    monkeypatch.setattr(training, "fit_fairod", sometimes)
    ds = tiny_ds(n=24, seed=5)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=5, seed=0))
    cells = grid_search(ds, base, grid={"alpha": [0.1, 0.9], "gamma": [0.1]},
                        cfg_common=TrainConfig(epochs=5, seed=0))
    assert cells[0].error is None and cells[0].fit is not None
    assert cells[1].error is not None and cells[1].fit is None
    assert "TrainingError" in cells[1].error


def test_grid_search_propagates_programming_errors(monkeypatch):
    from fairod import training

    def broken(ds, base, cfg):
        raise TypeError("fit_fairod() got an unexpected keyword argument")

    monkeypatch.setattr(training, "fit_fairod", broken)
    ds = tiny_ds(n=24, seed=5)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=5, seed=0))
    with pytest.raises(TypeError, match="unexpected keyword"):
        grid_search(ds, base, grid={"alpha": [0.1], "gamma": [0.1]},
                    cfg_common=TrainConfig(epochs=5, seed=0))


def test_grid_search_parallel_matches_serial():
    ds = tiny_ds(n=24, seed=7)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=6, seed=2))
    grid = {"alpha": [0.1, 0.9], "gamma": [0.5]}
    cfg = TrainConfig(epochs=6, seed=2)
    serial = grid_search(ds, base, grid=grid, cfg_common=cfg, jobs=1)
    parallel = grid_search(ds, base, grid=grid, cfg_common=cfg, jobs=2)
    assert [c.config for c in serial] == [c.config for c in parallel]
    for s, p in zip(serial, parallel):
        assert params_equal(s.fit.params, p.fit.params)
        assert s.fairness == p.fairness and s.group_fidelity == p.group_fidelity


def test_grid_search_pool_has_no_more_workers_than_cells(monkeypatch):
    from fairod import training

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(training, "ProcessPoolExecutor", SerialPool)
    ds = tiny_ds(n=24, seed=7)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=4, seed=2))
    grid = {"alpha": [0.1, 0.9], "gamma": [0.5]}
    cfg = TrainConfig(epochs=4, seed=2)
    pooled = grid_search(ds, base, grid=grid, cfg_common=cfg, jobs=64)
    assert started == [2]
    serial = grid_search(ds, base, grid=grid, cfg_common=cfg, jobs=1)
    assert [c.config for c in pooled] == [c.config for c in serial]
    for s, p in zip(serial, pooled):
        assert params_equal(s.fit.params, p.fit.params)
        assert s.fairness == p.fairness and s.group_fidelity == p.group_fidelity


def test_grid_search_empty_axis_rejected():
    ds = tiny_ds()
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=3, seed=0))
    with pytest.raises(ValueError):
        grid_search(ds, base, grid={"alpha": [], "gamma": [0.1]})


def cell(fairness, gf, alpha=0.5, gamma=0.1, error=None):
    cfg = TrainConfig(alpha=alpha, gamma=gamma, epochs=1, seed=0)
    return GridResult(config=cfg, fit=None, fairness=fairness, group_fidelity=gf,
                      error=error)


def test_pareto_select_examples():
    only = cell(0.7, 0.7)
    assert pareto_select([only]) is only
    picked = pareto_select([cell(0.9, 0.9), cell(0.99, 0.5), cell(0.5, 0.99)])
    assert (picked.fairness, picked.group_fidelity) == (0.9, 0.9)
    dominated = cell(0.8, 0.8)
    assert pareto_select([cell(0.9, 0.9), dominated]).fairness == 0.9


def test_pareto_select_tie_breaks():
    # equidistant from (1,1): higher fairness wins
    a, b = cell(0.9, 0.8), cell(0.8, 0.9)
    assert pareto_select([b, a]) is a
    # identical metrics: lower alpha, then lower gamma
    lo_a = cell(0.9, 0.9, alpha=0.01, gamma=0.5)
    hi_a = cell(0.9, 0.9, alpha=0.5, gamma=0.01)
    assert pareto_select([hi_a, lo_a]) is lo_a
    lo_g = cell(0.9, 0.9, alpha=0.5, gamma=0.01)
    hi_g = cell(0.9, 0.9, alpha=0.5, gamma=0.5)
    assert pareto_select([hi_g, lo_g]) is lo_g


def test_pareto_select_skips_unusable_cells():
    bad = cell(None, None, error="TrainingError: boom")
    degenerate = cell(None, None)
    ok = cell(0.6, 0.6)
    assert pareto_select([bad, degenerate, ok]) is ok
    with pytest.raises(ValueError):
        pareto_select([bad, degenerate])
    with pytest.raises(ValueError):
        pareto_select([])


def test_unsupervised_metrics_match_direct_computation():
    ds = tiny_ds(n=30, seed=12)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=0))
    fo = fit_fairod(ds, base, TrainConfig(alpha=0.5, gamma=0.1, epochs=10, seed=0))
    fair, gf = unsupervised_metrics(fo, ds, base.scores)
    ss = ScoreSet.from_scores(fo.scores, ds.pv, fo.config.flag_fraction)
    assert fair == fairness_metric(ss.flags, ds.pv)
    assert 0.0 < gf <= 1.0


# -- serialization ------------------------------------------------------------------------


def test_fit_result_json_round_trip():
    ds = tiny_ds(n=30, seed=13)
    fit = fit_base(ds, TrainConfig(variant="base_only", epochs=8, seed=3))
    back = FitResult.from_json(fit.to_json())
    assert params_equal(fit.params, back.params)
    assert back.trace == fit.trace
    assert back.config == fit.config
    assert back.scores is None
    assert np.array_equal(back.rescore(ds), fit.scores)
