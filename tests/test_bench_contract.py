"""The benchmark under bench/ wraps program functions by name and calls a
few of them directly; these checks fail when a rename or signature change
would break it."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from tracer import PATCHES, Tracer  # noqa: E402

from fairod import losses, numgrad  # noqa: E402
from fairod.detector import init_params  # noqa: E402


def test_tracer_installs_and_uninstalls_every_patch():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in PATCHES]
    tracer = Tracer()
    try:
        tracer.install()  # KeyError if a patched name no longer exists
    finally:
        tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _, _ in PATCHES] == originals


def _problem(rng):
    X = rng.normal(size=(12, 3))
    pv = np.array([0, 0, 0, 1] * 3)
    params = init_params(3, 0)
    groups = {int(g): np.flatnonzero(pv == g) for g in np.unique(pv)}
    base = losses.BaseScoreSet.from_scores(rng.normal(size=12), groups)
    return X, pv, groups, params, base


def test_loss_grad_components_returns_three_parts(rng):
    X, pv, groups, params, base = _problem(rng)
    spec = losses.TotalLossSpec(variant="fairod", weights=losses.LossWeights(0.5, 0.1),
                                pv=pv, base=base, groups=groups)
    out = numgrad.eval_loss_grad_components(params.to_dict(), X, spec)
    assert len(out) == 3
    loss, grads, comps = out
    assert set(grads) == set(params.to_dict()) and comps["total"] == loss


def test_total_loss_without_groups(rng):
    X, pv, groups, params, base = _problem(rng)
    w = losses.LossWeights(0.5, 0.1)
    got = losses.total_loss(params, X, pv, base, w, "fairod")
    assert np.isfinite(got)
    assert got == losses.total_loss(params, X, pv, base, w, "fairod", groups)


def test_base_score_set_by_keyword_and_spec_without_activation(rng):
    # bench/workloads.py builds per-batch base sets field by field, lo and hi
    # included, and specs without naming an activation
    X, pv, groups, params, base = _problem(rng)
    rows = np.arange(6)
    norm = base.normalized[rows]
    batch_base = losses.BaseScoreSet(
        raw=base.raw[rows], lo=base.lo, hi=base.hi, normalized=norm,
        relevance=np.exp2(norm) - 1.0,
        idcg={int(g): losses.idcg_group(norm[pv[rows] == g]) for g in np.unique(pv[rows])})
    spec = losses.TotalLossSpec(variant="fairod", weights=losses.LossWeights(0.5, 0.1),
                                pv=pv[rows], base=batch_base,
                                groups={int(g): np.flatnonzero(pv[rows] == g)
                                        for g in np.unique(pv[rows])})
    loss, _, comps = numgrad.eval_loss_grad_components(params.to_dict(), X[rows], spec)
    assert np.isfinite(loss) and comps["gf"] > 0.0
