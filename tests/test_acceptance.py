"""Acceptance suite: one test per shipped criterion, at its stated
tolerance, printed as one pass/fail line each under pytest -v.

The heavy artifacts (Synth1/Synth2 base detectors, the default 3x3 grid,
the three-seed ablation) are built once per session and shared.  Training
protocol used throughout the end-to-end criteria: features standardized,
lr=0.05 with 500 epochs for base models and grid cells (the ablation legs
use lr=0.02 with 2000 epochs, where the rank-fidelity term needs the
longer horizon); all thresholds are recomputed from live runs, never
hard-coded from a previous session."""

import time
from dataclasses import replace

import numpy as np
import pytest

from test_losses import discrete_gf_oracle, spaced_unit_scores

from fairod import cli
from fairod.claimcheck import tables, verify_claim1, verify_claim2
from fairod.dataset import make_synth1, make_synth2, standardize
from fairod.detector import init_params
from fairod.evalmetrics import (
    ScoreSet,
    ap_ratio,
    average_precision,
    ceil_frac,
    fairness_metric,
    flag_top_fraction,
    harmonic_mean,
    ndcg_group,
)
from fairod.losses import BaseScoreSet, LossWeights, TotalLossSpec, idcg_group, loss_gf, loss_sp
from fairod.numgrad import eval_loss_grad_components, finite_diff_grad
from fairod.training import (
    TrainConfig,
    fit_base_multi_seed,
    fit_fairod,
    grid_search,
    pareto_select,
    unsupervised_metrics,
)

E2E = dict(lr=0.05, epochs=500, seed=7)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def synth1_main():
    ds, secs = timed(lambda: standardize(make_synth1(2000, 400, 120, seed=7)))
    return ds, secs


@pytest.fixture(scope="session")
def base_main(synth1_main):
    ds, _ = synth1_main
    fit, secs = timed(fit_base_multi_seed, ds, TrainConfig(**E2E), n_seeds=5)
    return fit, secs


@pytest.fixture(scope="session")
def grid_main(synth1_main, base_main):
    ds, _ = synth1_main
    base, _ = base_main
    results, secs = timed(grid_search, ds, base, cfg_common=TrainConfig(**E2E))
    return results, pareto_select(results), secs


@pytest.fixture(scope="session")
def synth2_pack():
    ds = standardize(make_synth2(2000, 400, 120, seed=7))
    base = fit_base_multi_seed(ds, TrainConfig(**E2E), n_seeds=5)
    fairod = fit_fairod(ds, base, TrainConfig(alpha=0.01, gamma=0.1, **E2E))
    return ds, base, fairod


@pytest.fixture(scope="session")
def ablation_pack():
    """Per training seed: base detector plus the three loss variants at the
    shared ablation configuration."""
    ds = standardize(make_synth1(2000, 400, 120, seed=4))
    runs = {}
    for seed in (7, 8, 9):
        base = fit_base_multi_seed(
            ds, TrainConfig(lr=0.05, epochs=500, seed=seed), n_seeds=5)
        cfg = TrainConfig(alpha=0.01, gamma=1.0, lr=0.02, epochs=2000, seed=seed)
        fits = {v: fit_fairod(ds, base, replace(cfg, variant=v))
                for v in ("fairod", "fairod_l", "fairod_c")}
        runs[seed] = (base, fits)
    return ds, runs


# -- criterion 1: gradient exactness --------------------------------------------------------


def test_ac1_gradient_exactness():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for variant in ("base_only", "fairod", "fairod_l", "fairod_c"):
        for case in range(20):
            n = int(rng.integers(6, 17))
            d = int(rng.integers(2, 11))
            X = rng.normal(size=(n, d))
            pv = rng.permutation(np.arange(n) % 2)
            groups = {g: np.flatnonzero(pv == g) for g in (0, 1)}
            params = init_params(d, 100 * case)
            base = BaseScoreSet.from_scores(rng.random(n) + 0.1, groups)
            weights = LossWeights(alpha=float(rng.uniform(0.05, 0.95)),
                                  gamma=float(rng.uniform(0.05, 1.0)))
            spec = TotalLossSpec(variant=variant, weights=weights, pv=pv,
                                 base=base, groups=groups)
            _, got = eval_loss_grad_components(params.to_dict(), X, spec)[:2]
            want = finite_diff_grad(params.to_dict(), X, spec, h=1e-5)
            for k in got:
                denom = np.maximum(np.abs(want[k]), 1e-8)
                worst = max(worst, float(np.max(np.abs(got[k] - want[k]) / denom)))
    elapsed = time.perf_counter() - t0
    print(f"\nAC1: worst relative gradient error {worst:.3g} over 80 instances "
          f"({elapsed:.1f}s)")
    assert worst < 1e-4
    assert elapsed < 10.0


# -- criterion 2: exhaustive claim verification ----------------------------------------------


def test_ac2_claim_verification():
    t0 = time.perf_counter()
    v1 = verify_claim1(10)
    v2 = verify_claim2(10)
    elapsed = time.perf_counter() - t0
    print(f"\nAC2: {v1.populations_checked} populations per claim, "
          f"witnesses at n={v1.witness['population']['n']} and "
          f"n={v2.witness['population']['n']} ({elapsed:.1f}s)")
    for v in (v1, v2):
        assert v.holds and v.counterexamples == []
        assert v.witness is not None
        assert v.premise_counts["premises_met"] > 0
    assert elapsed < 60.0


# -- criterion 3: Synth1 end to end ----------------------------------------------------------


def test_ac3_synth1_end_to_end(synth1_main, base_main, grid_main):
    ds, ds_secs = synth1_main
    base, base_secs = base_main
    results, selected, grid_secs = grid_main
    base_fairness, _ = unsupervised_metrics(base, ds, base.scores)
    total = ds_secs + base_secs + grid_secs
    print(f"\nAC3: selected (alpha={selected.config.alpha}, "
          f"gamma={selected.config.gamma}) fairness={selected.fairness:.3f} "
          f"group_fidelity={selected.group_fidelity:.3f}; "
          f"base fairness={base_fairness:.3f}; runtime {total:.0f}s")
    assert ds.n == 2400
    assert len(results) == 9
    assert selected.fairness >= 0.85
    assert selected.group_fidelity >= 0.85
    assert base_fairness <= 0.6
    assert total < 300.0


# -- criterion 4: detection trade-off on Synth1 and Synth2 -----------------------------------


def _detection_stats(scores, base_scores, ds, f=0.05):
    ap = average_precision(scores, ds.labels)
    apr = ap_ratio(ScoreSet.from_scores(scores, ds.pv, f), ds)
    base_ap = average_precision(base_scores, ds.labels)
    base_apr = ap_ratio(ScoreSet.from_scores(base_scores, ds.pv, f), ds)
    return ap, apr, base_ap, base_apr


def test_ac4_detection_tradeoff(synth1_main, base_main, grid_main, synth2_pack):
    ds1, _ = synth1_main
    base1, _ = base_main
    results, _, _ = grid_main
    cell = next(r for r in results
                if r.config.alpha == 0.01 and r.config.gamma == 0.1)
    for tag, (ds, base_scores, scores) in {
        "synth1": (ds1, base1.scores, cell.fit.scores),
        "synth2": (synth2_pack[0], synth2_pack[1].scores, synth2_pack[2].scores),
    }.items():
        ap, apr, base_ap, base_apr = _detection_stats(scores, base_scores, ds)
        print(f"\nAC4 {tag}: AP {ap:.3f} vs base {base_ap:.3f}; "
              f"AP-ratio {apr:.3f} vs base {base_apr:.3f}")
        assert ap >= 0.8 * base_ap
        assert abs(apr - 1.0) < abs(base_apr - 1.0)


# -- criterion 5: ablation directions, 3-seed majority vote ----------------------------------


def test_ac5_ablation_directions(ablation_pack):
    ds, runs = ablation_pack
    votes = {"gf_drop": 0, "l_fair": 0, "c_fair": 0}
    for seed, (base, fits) in runs.items():
        fair = {}
        gf = {}
        for v, fit in fits.items():
            fair[v], gf[v] = unsupervised_metrics(fit, ds, base.scores)
        base_fair, _ = unsupervised_metrics(base, ds, base.scores)
        votes["gf_drop"] += gf["fairod_l"] < gf["fairod"]
        votes["l_fair"] += fair["fairod_l"] >= 0.85
        votes["c_fair"] += fair["fairod_c"] >= base_fair
        print(f"\nAC5 seed {seed}: gf fairod={gf['fairod']:.3f} "
              f"fairod_l={gf['fairod_l']:.3f}; fairness fairod_l={fair['fairod_l']:.3f} "
              f"fairod_c={fair['fairod_c']:.3f} base={base_fair:.3f}")
    print(f"AC5 votes (of 3): {votes}")
    assert all(v >= 2 for v in votes.values())


# -- criterion 6: labeled metric examples -----------------------------------------------------


def test_ac6_metric_unit_examples():
    """Representative re-assertions of the short labeled examples; the full
    battery lives in the per-module suites that run in this same session."""
    # top-fraction flagging
    assert ceil_frac(0.05, 100) == 5
    assert ceil_frac(0.05, 2400) == 120
    assert ceil_frac(1 / 3, 3) == 1
    assert int(flag_top_fraction(np.arange(2400, dtype=float), 0.05).sum()) == 120
    # flag-rate parity
    flags = np.array([1, 1, 0, 0, 1, 0, 0, 0])
    pv = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert fairness_metric(flags, pv) == pytest.approx(0.5)
    assert fairness_metric(np.ones(8, dtype=int), pv) == pytest.approx(1.0)
    # rank fidelity against a worst-case 3-member group
    scores = np.array([1.0, 2.0, 3.0])
    base_norm = np.array([1.0, 0.5, 0.0])
    assert ndcg_group(scores, base_norm, np.arange(3), idcg_group(base_norm)) == pytest.approx(
        0.6035960689055047, abs=1e-9)
    assert ndcg_group(scores, base_norm[::-1], np.arange(3), idcg_group(base_norm)) == 1.0
    # harmonic mean conventions
    assert harmonic_mean([1.0, 0.5]) == pytest.approx(2 / 3)
    assert harmonic_mean([1.0, 0.5], literal=True) == pytest.approx(1 / 3)
    # precision measures
    assert average_precision(np.array([0.9, 0.8, 0.7, 0.6]),
                             np.array([1, 0, 1, 0])) == pytest.approx((1 + 2 / 3) / 2)
    assert average_precision(np.array([0.9, 0.8]), np.array([0, 0])) is None
    # parity loss on group-separable vs group-blind scores
    s = np.array([1.0, 1.0, 0.0, 0.0])
    g = np.array([0, 0, 1, 1])
    assert loss_sp(s, g) == pytest.approx(1.0)
    assert loss_sp(np.array([1.0, 0.0, 1.0, 0.0]), g) == pytest.approx(0.0)
    # finite-population enumeration size
    assert len(tables(2)) == 16


# -- criterion 7: smoothing fidelity ----------------------------------------------------------


def test_ac7_smoothing_fidelity():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(8, 30))
        scores = spaced_unit_scores(rng, n)
        pv = rng.permutation(np.arange(n) % 2)
        groups = {g: np.flatnonzero(pv == g) for g in (0, 1)}
        base = BaseScoreSet.from_scores(rng.random(n) + 0.1, groups)
        got = loss_gf(scores, base, groups)
        want = discrete_gf_oracle(scores, base.normalized, groups)
        worst = max(worst, abs(got - want))
    print(f"\nAC7: worst smooth-vs-discrete gap {worst:.4f} over 50 sets")
    assert worst < 0.02


# -- criterion 8: manifest replay determinism -------------------------------------------------


def test_ac8_manifest_replay_determinism(tmp_path):
    def run(*args):
        assert cli.main([str(a) for a in args]) == 0

    run("synth", "synth1", "--major", 120, "--minor", 30, "--outliers", 10,
        "--seed", 5, "--out", tmp_path / "data")
    data = tmp_path / "data" / "dataset.csv"
    run("train", "--data", data, "--variant", "base", "--seed", 2, "--epochs", 30,
        "--lr", 0.05, "--standardize", "--base-seeds", 2, "--out", tmp_path / "base")
    run("eval", "--data", data, "--model", tmp_path / "base" / "fit.json",
        "--standardize", "--out", tmp_path / "eval")
    replayed = 0
    for stage, artifacts in [("data", ["dataset.csv"]), ("base", ["fit.json"]),
                             ("eval", ["report.json", "report.csv"])]:
        out = tmp_path / f"{stage}_replay"
        run("replay", "--manifest", tmp_path / stage / "manifest.json", "--out", out)
        for name in artifacts:
            assert ((out / name).read_bytes()
                    == (tmp_path / stage / name).read_bytes()), (stage, name)
            replayed += 1
        first = (tmp_path / stage / "manifest.json").read_text()
        again = (out / "manifest.json").read_text()
        strip = lambda text: [ln for ln in text.splitlines()
                              if '"started_at"' not in ln and '"finished_at"' not in ln]
        assert strip(first) == strip(again)
    print(f"\nAC8: {replayed} artifacts byte-identical across synth/train/eval replays")


# -- criterion 9: treatment parity ------------------------------------------------------------


def test_ac9_treatment_parity(synth1_main, base_main, grid_main):
    ds, _ = synth1_main
    _, selected, _ = grid_main
    base, _ = base_main
    rng = np.random.default_rng(3)
    shuffled = replace(ds, pv=rng.permutation(ds.pv))
    for tag, fit in (("base", base), ("selected fairod", selected.fit)):
        assert np.array_equal(fit.rescore(shuffled), fit.rescore(ds)), tag
        assert np.array_equal(fit.rescore(ds), fit.scores), tag
    print("\nAC9: pv permutation changed no score bit for base and selected models")
