"""The benchmark's three workloads.

Each workload has a set-up (untimed by `wall_s`, timed as `setup_s`), a
round (the timed part, repeated whole until the run length is used up),
and output checks that recompute results with `reference` instead of
trusting the program.  A round records (work, seconds) for each stage it
has: optimizer steps of its fits, rows through `eval` and `replay`, and
populations checked by `claims`.

The program is always reached through module attributes (`training.fit_fairod`,
`cli.main`) so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference as ref
from fairod import cli, dataset, evalmetrics, losses, numgrad, training

FLAG_FRACTION = 0.05
ALPHA, GAMMA, C, LR = 0.01, 0.1, 50.0, 0.05
CLAIMS_MAX_N = 14
REL_TOL = 1e-9          # program vs reference on the same formula, different summation order
GRAD_REL_TOL = 1e-5     # tape gradient vs central differences (h = 1e-6) of the reference


@dataclass
class Round:
    """One timed round: its wall time, the operations it attempted and the
    ones that failed, (work, seconds) per rate metric, and what to check."""

    wall_s: float
    ops: int
    failed: int = 0
    work: dict[str, tuple[float, float]] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    digest: str = ""


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _trace_problems(tag: str, trace: list[float]) -> list[str]:
    if not all(math.isfinite(v) for v in trace):
        return [f"{tag}: loss trace has non-finite values"]
    if not trace[-1] < trace[0]:
        return [f"{tag}: loss did not decrease ({trace[0]:.6g} -> {trace[-1]:.6g})"]
    return []


def _base_set_for_batch(base_raw: np.ndarray, rows: np.ndarray, pv_b: np.ndarray):
    """The program's base-score container for one minibatch, filled from the
    reference: global min-max normalization, per-batch ideal DCG."""
    norm = ref.min_max(base_raw)[rows]
    return losses.BaseScoreSet(
        raw=base_raw[rows], lo=float(base_raw.min()), hi=float(base_raw.max()),
        normalized=norm, relevance=np.exp2(norm) - 1.0,
        idcg={int(g): ref.ideal_dcg(norm[pv_b == g]) for g in np.unique(pv_b)})


class FullBatch:
    """synth1-fullbatch-fairod: one AC3 grid cell, full batch."""

    name = "synth1-fullbatch-fairod"
    ops_per_round = 3

    def setup(self, seed: int, workdir: Path):
        ds = dataset.standardize(dataset.make_synth1(2000, 400, 120, seed=seed))
        cfg = training.TrainConfig(alpha=ALPHA, gamma=GAMMA, c=C, lr=LR, epochs=500, seed=seed)
        base = training.fit_base_multi_seed(ds, cfg, n_seeds=5)
        return {"ds": ds, "cfg": cfg, "base": base, "seed": seed}

    def round(self, st, rdir: Path) -> Round:
        ds, base, cfg = st["ds"], st["base"], st["cfg"]
        t0 = time.perf_counter()
        fit = training.fit_fairod(ds, base, cfg)
        t1 = time.perf_counter()
        fairness, gf = training.unsupervised_metrics(fit, ds, base.scores)
        base_set = losses.BaseScoreSet.from_scores(base.scores, dataset.group_view(ds))
        report = evalmetrics.build_report(fit.scores, ds, FLAG_FRACTION, base=base_set)
        t2 = time.perf_counter()
        return Round(wall_s=t2 - t0, ops=self.ops_per_round,
                     work={"train_steps_per_s": (cfg.epochs, t1 - t0)},
                     outputs={"fit": fit, "fairness": fairness, "gf": gf, "report": report},
                     digest=_digest(fit.scores))

    def step(self, st, last: Round):
        ds = st["ds"]
        spec = losses.TotalLossSpec(
            variant="fairod", weights=st["cfg"].weights, pv=ds.pv,
            base=losses.BaseScoreSet.from_scores(st["base"].scores, dataset.group_view(ds)),
            groups=dataset.group_view(ds))
        return last.outputs["fit"].params.to_dict(), ds.features, spec

    def check(self, st, first: Round) -> list[str]:
        ds, base, out = st["ds"], st["base"], first.outputs
        fit, pv = out["fit"], ds.pv
        params = fit.params.to_dict()
        problems = []
        scores = ref.ae_scores(params, ds.features)
        if not np.allclose(scores, fit.scores, rtol=REL_TOL, atol=0.0):
            problems.append("fit scores differ from the reference forward pass")
        fairness = ref.flag_rate_ratio(ref.top_flags(scores, FLAG_FRACTION), pv)
        gf = ref.group_fidelity(scores, base.scores, pv)
        for tag, (want, got) in {"fairness": (fairness, out["fairness"]),
                                 "group fidelity": (gf, out["gf"]),
                                 "report fairness": (fairness, out["report"].fairness),
                                 "report group fidelity": (gf, out["report"].group_fidelity)
                                 }.items():
            if got is None or not _close(want, got):
                problems.append(f"{tag}: program {got} vs reference {want}")
        # Reported, not checked: whether this one cell beats the base detector's
        # flag-rate ratio depends on the seed, and a check that fails on some
        # seeds would make `correct` depend on the seed (see the README).
        base_fairness = ref.flag_rate_ratio(ref.top_flags(base.scores, FLAG_FRACTION), pv)
        cfg = st["cfg"]
        want_obj = ref.objective(scores, pv, "fairod", cfg.alpha, cfg.gamma, cfg.c,
                                 base_norm=ref.min_max(base.scores))
        got_obj = losses.total_loss(
            fit.params, ds.features, pv,
            losses.BaseScoreSet.from_scores(base.scores, dataset.group_view(ds)),
            cfg.weights, "fairod")
        if not _close(want_obj, got_obj):
            problems.append(f"objective: program {got_obj!r} vs reference {want_obj!r}")
        shuffled = replace(ds, pv=np.random.default_rng(st["seed"]).permutation(pv))
        if fit.rescore(shuffled).tobytes() != fit.scores.tobytes():
            problems.append("scores changed when pv was permuted")
        problems += _trace_problems("fairod", fit.trace["total"])
        st["facts"] = {"fairness": fairness, "group_fidelity": gf,
                       "base_fairness": base_fairness, "objective": want_obj}
        return problems


class Minibatch:
    """synth2-minibatch-variants: all four variants with 64-row batches."""

    name = "synth2-minibatch-variants"
    variants = ("base_only", "fairod", "fairod_l", "fairod_c")
    batch_size = 64
    epochs = 25
    ops_per_round = 4

    def setup(self, seed: int, workdir: Path):
        ds = dataset.standardize(dataset.make_synth2(2000, 400, 120, seed=seed))
        base_cfg = training.TrainConfig(lr=LR, epochs=500, seed=seed)
        base = training.fit_base_multi_seed(ds, base_cfg, n_seeds=5)
        cfg = training.TrainConfig(alpha=ALPHA, gamma=GAMMA, c=C, lr=LR, epochs=self.epochs,
                                   batch_size=self.batch_size, seed=seed)
        return {"ds": ds, "cfg": cfg, "base": base, "seed": seed}

    def round(self, st, rdir: Path) -> Round:
        ds, base, cfg = st["ds"], st["base"], st["cfg"]
        fits = {}
        t0 = time.perf_counter()
        for v in self.variants:
            fits[v] = training.fit_fairod(ds, base, replace(cfg, variant=v))
        wall = time.perf_counter() - t0
        steps = len(self.variants) * cfg.epochs * math.ceil(ds.n / cfg.batch_size)
        return Round(wall_s=wall, ops=self.ops_per_round,
                     work={"train_steps_per_s": (steps, wall)}, outputs={"fits": fits},
                     digest=_digest(*(f.scores for f in fits.values())))

    def _batch(self, st, variant: str):
        ds, cfg = st["ds"], st["cfg"]
        rows = np.random.default_rng(st["seed"]).permutation(ds.n)[:cfg.batch_size]
        pv_b = ds.pv[rows]
        groups_b = {int(g): np.flatnonzero(pv_b == g) for g in np.unique(pv_b)}
        needs_base = variant in ("fairod", "fairod_c")
        spec = losses.TotalLossSpec(
            variant=variant, weights=cfg.weights,
            pv=None if variant == "base_only" else pv_b,
            base=_base_set_for_batch(st["base"].scores, rows, pv_b) if needs_base else None,
            groups=None if variant == "base_only" else groups_b)
        return rows, pv_b, spec

    def step(self, st, last: Round):
        rows, _, spec = self._batch(st, "fairod")
        return last.outputs["fits"]["fairod"].params.to_dict(), st["ds"].features[rows], spec

    def check(self, st, first: Round) -> list[str]:
        ds, cfg, base_raw = st["ds"], st["cfg"], st["base"].scores
        problems = []
        for v, fit in first.outputs["fits"].items():
            rows, pv_b, spec = self._batch(st, v)
            X_b = ds.features[rows]
            params = fit.params.to_dict()
            loss, grads, _ = numgrad.eval_loss_grad_components(params, X_b, spec)
            norm_b, raw_b = ref.min_max(base_raw)[rows], base_raw[rows]

            def objective(p, v=v):
                return ref.objective(ref.ae_scores(p, X_b), pv_b, v, cfg.alpha, cfg.gamma,
                                     cfg.c, base_norm=norm_b, base_raw=raw_b)

            if not _close(objective(params), loss):
                problems.append(f"{v}: batch loss {loss!r} vs reference {objective(params)!r}")
            fd = ref.central_diff(objective, params)
            g = np.concatenate([grads[k].ravel() for k in params])
            g_ref = np.concatenate([fd[k].ravel() for k in params])
            err = float(np.linalg.norm(g - g_ref) / max(np.linalg.norm(g_ref), 1e-12))
            if not err <= GRAD_REL_TOL:
                problems.append(f"{v}: gradient differs from central differences by {err:.2e}")
            problems += _trace_problems(v, fit.trace["total"])
        return problems


class CliEval:
    """cli-eval-claims: eval, replay and claims through `fairod.cli.main`."""

    name = "cli-eval-claims"
    n_major, n_minor, n_outliers = 160_000, 40_000, 10_000
    train_epochs = 5
    ops_per_round = 3

    @staticmethod
    def _cli(argv: list[str]) -> int:
        with contextlib.redirect_stdout(sys.stderr):
            return cli.main(argv)

    def setup(self, seed: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        raw = dataset.make_synth2(self.n_major, self.n_minor, self.n_outliers, seed=seed)
        data = workdir / "data.csv"
        dataset.save_csv(raw, data)
        common = ["--data", str(data), "--seed", str(seed), "--lr", str(LR),
                  "--epochs", str(self.train_epochs), "--standardize"]
        rc = self._cli(["train", *common, "--variant", "base", "--base-seeds", "1",
                        "--out", str(workdir / "base")])
        rc = rc or self._cli(["train", *common, "--variant", "fairod_l",
                              "--base", str(workdir / "base" / "fit.json"),
                              "--out", str(workdir / "model")])
        if rc:
            raise RuntimeError(f"set-up training exited {rc}")
        return {"data": data, "ds": dataset.standardize(raw), "seed": seed,
                "base": workdir / "base" / "fit.json", "model": workdir / "model" / "fit.json"}

    def round(self, st, rdir: Path) -> Round:
        rdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        rcs = [self._cli(["eval", "--data", str(st["data"]), "--model", str(st["model"]),
                          "--base", str(st["base"]), "--standardize",
                          "--verify-treatment-parity", "--out", str(rdir / "eval")])]
        rcs.append(self._cli(["replay", "--manifest", str(rdir / "eval" / "manifest.json"),
                              "--out", str(rdir / "replay")]))
        t1 = time.perf_counter()
        rcs.append(self._cli(["claims", "--max-n", str(CLAIMS_MAX_N),
                              "--out", str(rdir / "claims")]))
        t2 = time.perf_counter()
        claims_path = rdir / "claims" / "claims.json"
        claims = json.loads(claims_path.read_text()) if claims_path.exists() else {}
        pops = sum(v["populations_checked"] for v in claims.values())
        report = rdir / "eval" / "report.json"
        digest = hashlib.sha256(report.read_bytes() if report.exists() else b"").hexdigest()
        return Round(wall_s=t2 - t0, ops=self.ops_per_round, failed=sum(rc != 0 for rc in rcs),
                     work={"eval_rows_per_s": (2 * (self.n_major + self.n_minor), t1 - t0),
                           "claims_populations_per_s": (pops, t2 - t1)},
                     outputs={"dir": rdir, "claims": claims}, digest=digest)

    def _base_and_model(self, st):
        return (training.FitResult.from_json(Path(st["base"]).read_text()),
                training.FitResult.from_json(Path(st["model"]).read_text()))

    def step(self, st, last: Round):
        ds = st["ds"]
        spec = losses.TotalLossSpec(variant="fairod_l", weights=losses.LossWeights(ALPHA, GAMMA, C),
                                    pv=ds.pv, groups=dataset.group_view(ds))
        return self._base_and_model(st)[1].params.to_dict(), ds.features, spec

    def check(self, st, first: Round) -> list[str]:
        rdir = first.outputs["dir"]
        missing = [f"{sub}/{name}" for sub in ("eval", "replay")
                   for name in ("report.json", "report.csv", "manifest.json")
                   if not (rdir / sub / name).exists()]
        if missing:
            return [f"commands wrote no {', '.join(missing)}"]
        return (self._check_report(st, rdir) + self._check_replay(rdir)
                + self._check_claims(first.outputs["claims"]))

    def _check_report(self, st, rdir: Path) -> list[str]:
        with open(st["data"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        fcols = [j for j, h in enumerate(header) if h not in ("pv", "label")]
        X = ref.standardize(np.array([[float(r[j]) for j in fcols] for r in body]))
        tokens = [r[header.index("pv")] for r in body]
        majority = max(set(tokens), key=tokens.count)
        pv = np.array([0 if t == majority else 1 for t in tokens])
        labels = np.array([int(r[header.index("label")]) for r in body])
        arrays = {}
        for tag in ("model", "base"):
            doc = json.loads(Path(st[tag]).read_text())["params"]["arrays"]
            arrays[tag] = {k: np.array(e["data"], dtype=np.float64).reshape(e["shape"])
                           for k, e in doc.items()}
        scores = ref.ae_scores(arrays["model"], X)
        base_scores = ref.ae_scores(arrays["base"], X)
        flags = ref.top_flags(scores, FLAG_FRACTION)
        norm = ref.min_max(base_scores)
        want = {"fairness": ref.flag_rate_ratio(flags, pv),
                "group_fidelity": ref.group_fidelity(scores, base_scores, pv)}
        for g in (0, 1):
            m = pv == g
            want[f"flag_rates.{g}"] = float(flags[m].mean())
            want[f"base_rates.{g}"] = float(labels[m].mean())
            want[f"group_sizes.{g}"] = int(m.sum())
            want[f"ndcg.{g}"] = ref.ndcg(scores[m], norm[m])
        report = json.loads((rdir / "eval" / "report.json").read_text())
        problems = []
        for key, value in want.items():
            got = report
            for part in key.split("."):
                got = got[part]
            if got is None or not _close(value, got):
                problems.append(f"report {key}: program {got} vs reference {value}")
        if not any("treatment parity verified" in n for n in report["notes"]):
            problems.append("report does not record the treatment-parity check")
        return problems

    @staticmethod
    def _check_replay(rdir: Path) -> list[str]:
        problems = []
        for name in ("report.json", "report.csv"):
            if (rdir / "eval" / name).read_bytes() != (rdir / "replay" / name).read_bytes():
                problems.append(f"replay {name} is not byte-identical")
        manifests = []
        for sub in ("eval", "replay"):
            doc = json.loads((rdir / sub / "manifest.json").read_text())
            manifests.append({k: v for k, v in doc.items() if k not in ("started_at", "finished_at")})
        if manifests[0] != manifests[1]:
            problems.append("replay manifest differs beyond its timestamps")
        return problems

    @staticmethod
    def _check_claims(claims: dict) -> list[str]:
        problems = []
        want = ref.population_count(CLAIMS_MAX_N)
        for name in ("claim1", "claim2"):
            v = claims.get(name)
            if v is None:
                problems.append(f"{name}: no verdict")
                continue
            if v["populations_checked"] != want:
                problems.append(f"{name}: {v['populations_checked']} populations, closed form {want}")
            if v["counterexamples"] or not v["holds"]:
                problems.append(f"{name}: counterexamples reported")
            if v["witness"] is None:
                problems.append(f"{name}: no witness")
            else:
                problems += [f"{name} witness: {p}" for p in
                             ref.witness_problems(name, v["witness"]["population"]["cells"])]
        return problems


WORKLOADS = {w.name: w for w in (FullBatch(), Minibatch(), CliEval())}
