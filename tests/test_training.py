import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fairod.dataset import LabeledDataset, group_view, make_synth1, standardize
from fairod.detector import init_params
from fairod.evalmetrics import ScoreSet, fairness_metric
from fairod.losses import VARIANTS, BaseScoreSet, TotalLossSpec
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


@st.composite
def random_ds(draw, min_groups=2):
    """Up to 30 rows of 1-3 features; pv has min_groups to 4 values, each
    held by at least 2 rows in shuffled positions."""
    n_groups = draw(st.integers(min_groups, 4))
    n = draw(st.integers(2 * n_groups, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pv = np.concatenate([np.repeat(np.arange(n_groups), 2),
                         rng.integers(0, n_groups, n - 2 * n_groups)])
    pv = rng.permutation(pv)
    X = rng.normal(size=(n, draw(st.integers(1, 3)))) + 0.5 * pv[:, None]
    return LabeledDataset(features=X, pv=pv).validate()


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
    for key in ("alpha", "gamma", "c", "lr"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{key} must be"):
                TrainConfig(**{key: value})


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


def test_fit_base_with_non_finite_scores_raises():
    # one step at lr 1e200 leaves finite weights whose scores overflow
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match="base_only fit produced non-finite scores"):
        fit_base(tiny_ds(), TrainConfig(lr=1e200, epochs=1))


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


@given(random_ds(min_groups=3), st.sampled_from(("fairod", "fairod_l", "fairod_c")),
       st.integers(0, 2 ** 32 - 1))
def test_treatment_parity_holds_for_multi_valued_pv(ds, variant, seed):
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=3, seed=seed))
    fit = fit_fairod(ds, base, TrainConfig(variant=variant, alpha=0.3, gamma=0.5,
                                           epochs=3, seed=seed))
    permuted = replace(ds, pv=np.random.default_rng(seed).permutation(ds.pv))
    assert np.array_equal(fit.rescore(ds), fit.rescore(permuted))


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


def test_minibatches_missing_a_group_or_with_a_singleton_train_finitely():
    ds = tiny_ds(n=24, seed=4)  # 16 rows of group 0, 8 of group 1
    order = np.random.default_rng(6).permutation(ds.n)  # the first epoch's batches
    minority = [int(ds.pv[order[i:i + 3]].sum()) for i in range(0, ds.n, 3)]
    assert 0 in minority and 1 in minority
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=1))
    for variant in ("fairod", "fairod_l", "fairod_c"):
        fit = fit_fairod(ds, base, TrainConfig(variant=variant, alpha=0.5, gamma=0.5,
                                               epochs=5, seed=6, batch_size=3))
        assert np.all(np.isfinite(fit.scores))
        assert all(np.all(np.isfinite(v)) for v in fit.trace.values())


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


@given(random_ds(), st.sampled_from(VARIANTS), st.integers(0, 7), st.integers(0, 2 ** 32 - 1))
def test_batch_covering_all_rows_matches_full_batch_on_random_inputs(ds, variant, extra,
                                                                      seed):
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=3, seed=seed))
    cfg = TrainConfig(variant=variant, alpha=0.5, gamma=0.5, epochs=5, seed=seed)
    full = fit_fairod(ds, base, cfg)
    one = fit_fairod(ds, base, replace(cfg, batch_size=ds.n + extra))
    for k, v in full.params.to_dict().items():
        assert_allclose(getattr(one.params, k), v, rtol=1e-9, atol=0.0)
    # a term that cancels to about 0 (a group of two ranked perfectly) is
    # rounding noise in either order, hence the absolute tolerance
    for k, v in full.trace.items():
        assert_allclose(one.trace[k], v, rtol=1e-9, atol=1e-12)


def test_full_batch_trace_holds_batch_terms_exactly():
    # the trace averages batches by row weight; with one batch the weight is
    # exactly 1.0, so the first epoch's entries are the initial loss terms
    ds = tiny_ds(n=40, seed=9)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=10, seed=1))
    base_set = BaseScoreSet.from_scores(base.scores, group_view(ds))
    for seed in range(5):
        params = init_params(ds.d, seed).to_dict()
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


def serial_restarts(ds, cfg, n_seeds):
    """The restarts one by one: the reference for the pooled ones."""
    best = None
    for offset in range(n_seeds):
        fit = fit_base(ds, replace(cfg, seed=cfg.seed + offset))
        if best is None or fit.trace["base"][-1] < best.trace["base"][-1]:
            best = fit
    return best


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n_seeds", [1, 2, 5])
def test_pooled_restarts_match_the_serial_loop(monkeypatch, n_seeds, cpus):
    usable_cpus(monkeypatch, cpus)
    ds = tiny_ds(n=36, seed=11)
    cfg = TrainConfig(variant="base_only", epochs=25, seed=10)  # seeds 10, 11, 12 win
    want = serial_restarts(ds, cfg, n_seeds)
    got = fit_base_multi_seed(ds, cfg, n_seeds=n_seeds)
    assert got.config.seed == want.config.seed
    assert got.to_json() == want.to_json()
    assert got.scores.tobytes() == want.scores.tobytes()


# final reconstruction loss per seed; other seeds diverge
STUB_FINAL_LOSS = {10: 0.5, 11: 0.25, 12: 0.25, 13: 0.25}


def stub_restart(ds, cfg):
    """A module-level stand-in for fit_base, so a forked worker can run it."""
    if cfg.seed not in STUB_FINAL_LOSS:
        raise TrainingError(f"base_only fit diverged at epoch 0: seed {cfg.seed}")
    return FitResult(params=init_params(ds.d, cfg.seed),
                     trace={"base": [1.0, STUB_FINAL_LOSS[cfg.seed]]}, scores=None, config=cfg)


@pytest.mark.parametrize("cpus", [1, 2])
def test_fit_base_multi_seed_ties_go_to_the_smallest_seed(monkeypatch, cpus):
    from fairod import training

    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(training, "fit_base", stub_restart)
    ds = tiny_ds()
    assert fit_base_multi_seed(ds, TrainConfig(seed=10), n_seeds=4).config.seed == 11
    assert fit_base_multi_seed(ds, TrainConfig(seed=12), n_seeds=2).config.seed == 12


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_diverging_restart_in_seed_order_raises(monkeypatch, cpus):
    from fairod import training

    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(training, "fit_base", stub_restart)
    # seeds 14 and 15 both diverge; the serial loop stops at 14
    with pytest.raises(TrainingError) as err:
        fit_base_multi_seed(tiny_ds(), TrainConfig(seed=10), n_seeds=6)
    assert type(err.value) is TrainingError
    assert str(err.value) == "base_only fit diverged at epoch 0: seed 14"


def test_diverging_restarts_raise_in_the_pool_as_in_the_loop(monkeypatch):
    ds, cfg = tiny_ds(), TrainConfig(lr=1e200, epochs=1, seed=3)
    raised = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        with np.errstate(over="ignore"), pytest.raises(TrainingError) as err:
            fit_base_multi_seed(ds, cfg, n_seeds=2)
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1] == (TrainingError, "base_only fit produced non-finite scores")


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


def test_grid_search_rescores_a_base_loaded_without_scores():
    ds = tiny_ds(n=24, seed=5)
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=5, seed=0))
    loaded = FitResult.from_json(base.to_json())
    assert loaded.scores is None
    grid = {"alpha": [0.1, 0.9], "gamma": [0.1]}
    cfg = TrainConfig(epochs=5, seed=0)
    want = grid_search(ds, base, grid=grid, cfg_common=cfg)
    got = grid_search(ds, loaded, grid=grid, cfg_common=cfg)
    for a, b in zip(want, got, strict=True):
        assert a.config == b.config and a.error is None and b.error is None
        assert params_equal(a.fit.params, b.fit.params)
        assert (a.fairness, a.group_fidelity) == (b.fairness, b.group_fidelity)


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


def test_full_batch_fit_is_the_same_bits_with_a_cold_and_a_warm_spectrum_cache(monkeypatch):
    from fairod import losses

    monkeypatch.setattr(losses, "_spectra", {})
    ds = standardize(make_synth1(2 * losses._BINNED_MIN_ROWS, 400, 60, seed=2))
    base = fit_base(ds, TrainConfig(variant="base_only", lr=0.05, epochs=5, seed=2))
    cfg = TrainConfig(lr=0.05, epochs=5, seed=2)
    cold = fit_fairod(ds, base, cfg)
    assert losses._spectra  # the large group was ranked on a grid
    assert fit_fairod(ds, base, cfg).to_json() == cold.to_json()


def _cached_fft_lengths():
    from fairod import losses
    return sorted(losses._spectra)


def test_grid_cells_match_serial_after_a_warm_cache_fit(monkeypatch):
    from fairod import losses

    monkeypatch.setattr(losses, "_spectra", {})
    ds = tiny_ds(n=3 * losses._BINNED_MIN_ROWS // 2 + 60, seed=8)  # a group of 1064 rows, binned
    base = fit_base(ds, TrainConfig(variant="base_only", epochs=3, seed=2))
    cfg = TrainConfig(epochs=3, seed=2)
    fit_fairod(ds, base, cfg)
    warm = _cached_fft_lengths()
    assert warm
    # forked cells start with the parent's cache
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(1, mp_context=fork) as pool:
        assert pool.submit(_cached_fft_lengths).result(timeout=120) == warm
    grid = {"alpha": [0.1, 0.9], "gamma": [0.5]}
    parallel = grid_search(ds, base, grid=grid, cfg_common=cfg, jobs=2)
    serial = grid_search(ds, base, grid=grid, cfg_common=cfg, jobs=1)
    for s, p in zip(serial, parallel):
        assert s.error is None and p.error is None
        assert s.fit.to_json() == p.fit.to_json()
        assert s.fit.scores.tobytes() == p.fit.scores.tobytes()
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
    base_cfg = TrainConfig(variant="base_only", epochs=4, seed=2)
    # base restarts: one worker per seed up to the usable CPUs, no pool for one of either
    for cpus, n_seeds, workers in [(2, 5, [2]), (8, 3, [3]), (2, 1, []), (1, 5, [])]:
        usable_cpus(monkeypatch, cpus)
        started.clear()
        fit_base_multi_seed(ds, base_cfg, n_seeds=n_seeds)
        assert started == workers
    # without an affinity call the CPU count stands in, and an unknown count is one CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, workers in [(3, [3]), (None, [])]:
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        started.clear()
        fit_base_multi_seed(ds, base_cfg, n_seeds=5)
        assert started == workers

    base = fit_base(ds, base_cfg)
    grid = {"alpha": [0.1, 0.9], "gamma": [0.5]}
    cfg = TrainConfig(epochs=4, seed=2)
    started.clear()
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
