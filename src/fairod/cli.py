"""Batch command-line front end.

Subcommands: synth, train, eval, grid, ablate, claims, replay.  Every
command resolves its configuration (CLI flags > flat key=value config file
> defaults), runs a pure executor, and writes a manifest.json next to its
outputs recording the command, the fully materialized config, input and
output paths, the seed, and the toolkit version.  `replay --manifest M`
re-runs the recorded command into a fresh directory; outputs are
byte-identical apart from the manifest timestamps.

Exit codes: 0 success, 1 usage, 2 data/schema, 3 numerical failure,
4 claim counterexample found.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .claimcheck import verify_claim1, verify_claim2
from .dataset import (
    DataError,
    GroupView,
    LabeledDataset,
    group_view,
    load_csv,
    make_synth1,
    make_synth2,
    save_csv,
    standardize,
)
from .evalmetrics import EvalReport, build_report
from .losses import BaseScoreSet
from .numgrad import NumericalOverflowError
from .training import (
    ALPHA_GRID,
    GAMMA_GRID,
    FitResult,
    TrainConfig,
    TrainingError,
    fit_base_multi_seed,
    fit_fairod,
    grid_search,
    pareto_select,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_COUNTEREXAMPLE = 4


class UsageError(Exception):
    """Bad flags, bad flag values, or inconsistent flag combinations."""


# -- config resolution --------------------------------------------------------------------


def _as_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {raw!r}")


def _as_batch_size(raw: str) -> int | None:
    low = raw.strip().lower()
    return None if low in ("none", "") else int(raw)


def _as_spread(raw: str) -> float | None:
    low = raw.strip().lower()
    return None if low in ("none", "") else float(raw)


def _as_synth_name(raw: str) -> str:
    if raw not in ("synth1", "synth2"):
        raise UsageError(f"unknown generator {raw!r} (known: synth1, synth2)")
    return raw


def _as_float_list(raw: str) -> tuple[float, ...]:
    vals = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    if not vals:
        raise UsageError(f"empty value list: {raw!r}")
    return vals


def _as_fraction(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise UsageError(f"flag_fraction must be in (0,1), got {raw!r}")
    return value


# Every config key is defined once: the config-file line `key = value` and the
# flag `--key` (with `_` written as `-`) share its parser and its default.
# A replayed manifest's values go through the same parsers, `seed` included.
_PARSERS = {
    "variant": str, "alpha": float, "gamma": float, "c": float, "lr": float,
    "epochs": int, "batch_size": _as_batch_size, "flag_fraction": _as_fraction,
    "standardize": _as_bool, "verify_treatment_parity": _as_bool, "base_seeds": int,
    "alpha_grid": _as_float_list, "gamma_grid": _as_float_list, "jobs": int, "max_n": int,
    "seed": int,
    # synth has flags of its own (see build_parser); these parse its manifests
    "name": _as_synth_name, "major": int, "minor": int, "outliers": int, "x1_std": _as_spread,
}
_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)} | {
    "standardize": False, "verify_treatment_parity": False, "base_seeds": 5,
    "alpha_grid": ALPHA_GRID, "gamma_grid": GAMMA_GRID, "jobs": 1, "max_n": 10,
}
_HELP = {
    "variant": "base (or base_only), fairod, fairod_l or fairod_c",
    "c": "rank-smoothing sharpness",
    "standardize": "center/scale features before use",
    "verify_treatment_parity": "assert scores ignore the pv column",
    "base_seeds": "restarts for the base variant (default 5)",
}
_FIT_KEYS = ("c", "lr", "epochs", "batch_size", "flag_fraction", "standardize")
_KEYS = {
    "train": ("variant", "alpha", "gamma") + _FIT_KEYS + ("base_seeds",),
    "eval": ("flag_fraction", "standardize", "verify_treatment_parity"),
    "grid": ("alpha_grid", "gamma_grid") + _FIT_KEYS + ("jobs",),
    "ablate": ("alpha", "gamma") + _FIT_KEYS,
    "claims": ("max_n",),
}
_SYNTH_KEYS = ("name", "major", "minor", "outliers", "x1_std")
_SEEDED = ("synth", "train", "grid", "ablate")  # commands whose config records --seed
_INPUTS = {"train": ("data",), "eval": ("data", "model"), "grid": ("data", "base"),
           "ablate": ("data", "base")}  # inputs an executor cannot run without


def _read_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' comments and blank lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read config file {path}: {e}") from e
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, val = body.split("=", 1)
        entries[key.strip()] = val.strip()
    return entries


def _parse_value(key: str, raw: str):
    """A config value from its config-file spelling, through the parser its
    flag uses; config-file lines and replayed manifests both come here."""
    try:
        return _PARSERS[key](raw)
    except ValueError as e:
        raise UsageError(f"bad value for config key {key!r}: {e}") from e


def _manifest_text(value) -> str:
    """A manifest config value in its config-file spelling."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _resolve_config(ns: argparse.Namespace) -> dict:
    """Materialize the command's keys: defaults, then file entries, then set flags."""
    keys = _KEYS[ns.command]
    resolved = {k: _DEFAULTS[k] for k in keys}
    for key, raw in (_read_config_file(ns.config) if ns.config else {}).items():
        if key not in keys:
            raise UsageError(f"unknown config key {key!r} (known: "
                             f"{', '.join(sorted(keys))})")
        resolved[key] = _parse_value(key, raw)
    for key in keys:
        if getattr(ns, key) is not None:
            resolved[key] = getattr(ns, key)
    if ns.command in _SEEDED:
        resolved["seed"] = ns.seed
    return resolved


# -- manifest and file helpers ------------------------------------------------------------


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict,
                    outputs: dict, seed: int | None, started: str) -> None:
    doc = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in sorted(config.items())},
        "inputs": {k: str(Path(v).resolve()) for k, v in sorted(inputs.items())},
        "outputs": dict(sorted(outputs.items())),
        "seed": seed,
        "version": __version__,
        "started_at": started,
        "finished_at": _utcnow(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _prepare_out(out_dir: str | Path) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(path: str, do_standardize: bool) -> LabeledDataset:
    try:
        ds = load_csv(path)
    except OSError as e:
        raise DataError(f"cannot read dataset {path}: {e}") from e
    except ValueError as e:
        raise DataError(f"bad dataset {path}: {e}") from e
    return standardize(ds) if do_standardize else ds


def _groups(ds: LabeledDataset, path: str) -> GroupView:
    """The pv groups of a dataset that fairness is measured on."""
    groups = group_view(ds)
    if len(groups) < 2:
        raise DataError(f"dataset {path} has {len(groups)} pv group; "
                        "fairness needs at least 2")
    return groups


def _load_fit(path: str) -> FitResult:
    try:
        return FitResult.from_json(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise DataError(f"cannot read model {path}: {e}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"bad model file {path}: {e}") from e


def _rescore(fit: FitResult, ds: LabeledDataset, origin: str) -> np.ndarray:
    try:
        scores = fit.rescore(ds)
    except ValueError as e:
        raise DataError(f"model from {origin} does not fit this dataset: {e}") from e
    if not np.all(np.isfinite(scores)):
        raise NumericalOverflowError(f"non-finite scores from model {origin}")
    return scores


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _train_config(config: dict, variant: str) -> TrainConfig:
    """TrainConfig from the keys it shares with `config`; the rest keep its defaults."""
    shared = {f.name: config[f.name] for f in fields(TrainConfig) if f.name in config}
    try:
        return TrainConfig(**shared | {"variant": variant})
    except ValueError as e:
        raise UsageError(str(e)) from e


# -- executors (pure: resolved config + inputs + out dir, write manifest) ------------------


def _exec_synth(config: dict, inputs: dict, out_dir: Path) -> int:
    started = _utcnow()
    name = config["name"]
    try:
        if name == "synth1":
            if config.get("x1_std") is not None:
                raise UsageError("--x1-std applies to synth2 only")
            ds = make_synth1(config["major"], config["minor"], config["outliers"],
                             seed=config["seed"])
        else:
            kwargs = {}
            if config.get("x1_std") is not None:
                kwargs["x1_std"] = config["x1_std"]
            ds = make_synth2(config["major"], config["minor"], config["outliers"],
                             seed=config["seed"], **kwargs)
    except (ValueError, DataError) as e:
        raise UsageError(f"invalid generator counts: {e}") from e
    save_csv(ds, out_dir / "dataset.csv")
    _write_manifest(out_dir, "synth", config, inputs, {"dataset": "dataset.csv"},
                    config["seed"], started)
    print(f"wrote {ds.n}-row {name} dataset to {out_dir / 'dataset.csv'}")
    return EXIT_OK


def _exec_train(config: dict, inputs: dict, out_dir: Path) -> int:
    started = _utcnow()
    variant = "base_only" if config["variant"] == "base" else config["variant"]
    if variant not in ("base_only", "fairod", "fairod_l", "fairod_c"):
        raise UsageError(f"unknown variant {config['variant']!r}")
    if variant != "base_only" and "base" not in inputs:
        raise UsageError(f"--base is required for variant {variant}")
    ds = _load_dataset(inputs["data"], config["standardize"])
    cfg = _train_config(config, variant)
    if variant == "base_only":
        if config["base_seeds"] < 1:
            raise UsageError("base_seeds must be >= 1")
        fit = fit_base_multi_seed(ds, cfg, n_seeds=config["base_seeds"])
    else:
        base = _load_fit(inputs["base"])
        try:
            fit = fit_fairod(ds, base, cfg)
        except ValueError as e:
            raise DataError(str(e)) from e
    (out_dir / "fit.json").write_text(fit.to_json(), encoding="utf-8")
    _write_manifest(out_dir, "train", config, inputs, {"fit": "fit.json"},
                    config["seed"], started)
    print(f"trained {variant} for {cfg.epochs} epochs; "
          f"final loss {fit.trace['total'][-1]:.6g}; wrote {out_dir / 'fit.json'}")
    return EXIT_OK


def _exec_eval(config: dict, inputs: dict, out_dir: Path) -> int:
    started = _utcnow()
    ds = _load_dataset(inputs["data"], config["standardize"])
    groups = _groups(ds, inputs["data"])
    model = _load_fit(inputs["model"])
    scores = _rescore(model, ds, inputs["model"])
    if "base" in inputs:
        base_scores = _rescore(_load_fit(inputs["base"]), ds, inputs["base"])
    else:
        base_scores = scores
    base_set = BaseScoreSet.from_scores(base_scores, groups)
    report = build_report(scores, ds, config["flag_fraction"], base=base_set,
                          config={"model": str(inputs["model"]),
                                  "base": str(inputs.get("base", inputs["model"]))})
    if config["verify_treatment_parity"]:
        shuffled = replace(ds, pv=np.random.default_rng(0).permutation(ds.pv))
        if not np.array_equal(model.rescore(shuffled), scores):
            raise NumericalOverflowError(
                "treatment parity violated: scores changed under pv permutation")
        report.notes.append("treatment parity verified: pv permutation left every "
                            "score bit unchanged")
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    gids = sorted(groups)
    _write_csv(out_dir / "report.csv", EvalReport.csv_header(gids),
               [report.to_csv_row(gids)])
    _write_manifest(out_dir, "eval", config, inputs,
                    {"report_json": "report.json", "report_csv": "report.csv"},
                    None, started)
    fairness = "n/a" if report.fairness is None else f"{report.fairness:.4f}"
    gf = "n/a" if report.group_fidelity is None else f"{report.group_fidelity:.4f}"
    print(f"fairness {fairness}, group fidelity {gf}; wrote {out_dir / 'report.json'}")
    return EXIT_OK


def _exec_grid(config: dict, inputs: dict, out_dir: Path) -> int:
    started = _utcnow()
    if config["jobs"] < 1:
        raise UsageError("jobs must be >= 1")
    ds = _load_dataset(inputs["data"], config["standardize"])
    _groups(ds, inputs["data"])  # every cell's selection metrics need two groups
    base = _load_fit(inputs["base"])
    base = replace(base, scores=_rescore(base, ds, inputs["base"]))
    cfg_common = _train_config(config, "fairod")
    results = grid_search(ds, base,
                          grid={"alpha": list(config["alpha_grid"]),
                                "gamma": list(config["gamma_grid"])},
                          cfg_common=cfg_common, jobs=config["jobs"])
    try:
        selected = pareto_select(results)
    except ValueError as e:
        raise TrainingError(f"no usable grid cell: {e}") from e

    def cell(v):
        return "" if v is None else repr(float(v))

    rows = [[repr(float(res.config.alpha)), repr(float(res.config.gamma)),
             res.config.variant, cell(res.fairness), cell(res.group_fidelity),
             res.error or "", "1" if res is selected else "0"] for res in results]
    _write_csv(out_dir / "grid.csv",
               ["alpha", "gamma", "variant", "fairness", "group_fidelity",
                "error", "selected"], rows)
    (out_dir / "selected.json").write_text(selected.fit.to_json(), encoding="utf-8")
    _write_manifest(out_dir, "grid", config, inputs,
                    {"grid_csv": "grid.csv", "selected_fit": "selected.json"},
                    config["seed"], started)
    print(f"grid of {len(rows)} cells; selected alpha={selected.config.alpha} "
          f"gamma={selected.config.gamma} (fairness {selected.fairness:.4f}, "
          f"group fidelity {selected.group_fidelity:.4f})")
    return EXIT_OK


ABLATION_VARIANTS = ("fairod", "fairod_l", "fairod_c", "base")


def _exec_ablate(config: dict, inputs: dict, out_dir: Path) -> int:
    started = _utcnow()
    ds = _load_dataset(inputs["data"], config["standardize"])
    groups = _groups(ds, inputs["data"])
    base = _load_fit(inputs["base"])
    base_scores = _rescore(base, ds, inputs["base"])
    base_set = BaseScoreSet.from_scores(base_scores, groups)
    cfg = _train_config(config, "fairod")
    gids = sorted(groups)
    rows = []
    for variant in ABLATION_VARIANTS:
        if variant == "base":
            scores = base_scores
        else:
            fit = fit_fairod(ds, base, replace(cfg, variant=variant))
            scores = fit.scores
        report = build_report(scores, ds, config["flag_fraction"], base=base_set,
                              config={"variant": variant})
        rows.append([variant] + report.to_csv_row(gids))
    _write_csv(out_dir / "ablation.csv", ["variant"] + EvalReport.csv_header(gids), rows)
    _write_manifest(out_dir, "ablate", config, inputs, {"ablation": "ablation.csv"},
                    config["seed"], started)
    print(f"wrote {len(rows)}-variant comparison to {out_dir / 'ablation.csv'}")
    return EXIT_OK


def _exec_claims(config: dict, inputs: dict, out_dir: Path) -> int:
    started = _utcnow()
    try:
        v1 = verify_claim1(config["max_n"])
        v2 = verify_claim2(config["max_n"])
    except ValueError as e:
        raise UsageError(str(e)) from e
    doc = {"claim1": v1.to_json_dict(), "claim2": v2.to_json_dict()}
    (out_dir / "claims.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "claims", config, inputs, {"claims": "claims.json"},
                    None, started)
    for v in (v1, v2):
        state = "no counterexample" if v.holds else f"{len(v.counterexamples)} counterexamples"
        print(f"{v.claim}: {state} over {v.populations_checked} populations "
              f"(N <= {v.max_n})")
    return EXIT_OK if v1.holds and v2.holds else EXIT_COUNTEREXAMPLE


_EXECUTORS = {
    "synth": _exec_synth,
    "train": _exec_train,
    "eval": _exec_eval,
    "grid": _exec_grid,
    "ablate": _exec_ablate,
    "claims": _exec_claims,
}


def _exec_replay(manifest_path: str, out_dir: Path) -> int:
    try:
        doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        command = doc["command"]
        config = dict(doc["config"])
        inputs = dict(doc["inputs"])
    except OSError as e:
        raise DataError(f"cannot read manifest {manifest_path}: {e}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"bad manifest {manifest_path}: {e}") from e
    if command not in _EXECUTORS:
        raise DataError(f"manifest names unknown command {command!r}")
    keys = set(_KEYS.get(command, _SYNTH_KEYS)) | ({"seed"} if command in _SEEDED else set())
    if set(config) != keys:
        raise DataError(f"bad manifest {manifest_path}: {command} config has keys "
                        f"{sorted(config)}, expected {sorted(keys)}")
    needed = _INPUTS.get(command, ())
    if command == "train" and config["variant"] not in ("base", "base_only"):
        needed += ("base",)  # the fairod variants train against a base model
    missing = [k for k in needed if k not in inputs]
    if missing:
        raise DataError(f"bad manifest {manifest_path}: {command} inputs lack "
                        f"{', '.join(missing)}")
    config = {k: _parse_value(k, _manifest_text(v)) if k in _PARSERS else v
              for k, v in config.items()}
    print(f"replaying {command} into {out_dir}")
    return _EXECUTORS[command](config, inputs, out_dir)


# -- argument parsing ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_out(p):
    p.add_argument("--out", required=True, help="output directory")


def _add_config_flags(p, command: str) -> None:
    """One flag per config key of `command`, unset (None) unless given."""
    for key in _KEYS[command]:
        parse = _PARSERS[key]
        kind = ({"action": "store_const", "const": True} if parse is _as_bool
                else {"type": parse})
        p.add_argument("--" + key.replace("_", "-"), default=None, help=_HELP.get(key),
                       **kind)
    p.add_argument("--config", default=None, help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairod",
                     description="fairness-aware outlier detection toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p.add_argument("name", choices=["synth1", "synth2"])
    p.add_argument("--major", type=int, required=True, help="majority-group inliers")
    p.add_argument("--minor", type=int, required=True, help="minority-group inliers")
    p.add_argument("--outliers", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x1-std", type=float, default=None,
                   help="first-feature spread for synth2")
    _add_out(p)

    p = sub.add_parser("train", help="fit a detector and write FitResult JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--base", default=None, help="base FitResult JSON (fairod variants)")
    p.add_argument("--seed", type=int, required=True)
    _add_config_flags(p, "train")
    _add_out(p)

    p = sub.add_parser("eval", help="score a dataset and write an evaluation report")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="FitResult JSON to evaluate")
    p.add_argument("--base", default=None,
                   help="reference FitResult JSON (defaults to the model itself)")
    _add_config_flags(p, "eval")
    _add_out(p)

    p = sub.add_parser("grid", help="hyperparameter grid search with Pareto selection")
    p.add_argument("--data", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_config_flags(p, "grid")
    _add_out(p)

    p = sub.add_parser("ablate", help="compare fairod, fairod_l, fairod_c, base")
    p.add_argument("--data", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_config_flags(p, "ablate")
    _add_out(p)

    p = sub.add_parser("claims", help="exhaustively verify both finite-population claims")
    _add_config_flags(p, "claims")
    _add_out(p)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)
    _add_out(p)

    return parser


def _abs_paths(pairs: dict) -> dict:
    """Executors see one canonical spelling of each input path, so a replay
    from the manifest reproduces path-bearing outputs byte for byte."""
    return {k: str(Path(v).resolve()) for k, v in pairs.items() if v}


def _dispatch(ns: argparse.Namespace) -> int:
    out_dir = _prepare_out(ns.out)
    if ns.command == "replay":
        return _exec_replay(ns.manifest, out_dir)
    if ns.command == "synth":
        config = {k: getattr(ns, k) for k in _SYNTH_KEYS + ("seed",)}
    else:
        config = _resolve_config(ns)
    inputs = _abs_paths({k: getattr(ns, k, None) for k in ("data", "model", "base")})
    return _EXECUTORS[ns.command](config, inputs, out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return _dispatch(ns)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, NumericalOverflowError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
