"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root: the program is imported from ./src.  With
--trace 0 the run sets up three times (setup_s is the median), repeats whole
rounds of the timed part until --seconds have passed (wall_s is the median
round), and checks the outputs; it prints every end-to-end metric of
BENCHMARK.json.  With --trace 1 it sets up once, runs one plain and one
traced round, and prints every per-layer metric: the stage rates of the
plain round, the span totals of the traced set-up and round, and the
tracing overhead.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, whatever the caller's environment says.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

SETUPS = 3
STAGE_RATES = ("train_steps_per_s", "eval_rows_per_s", "claims_populations_per_s")
WORK_DIR = Path(".bench_work")
OUT_DIR = Path(".bench_out")


def environment() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_env": BLAS_ENV}


def e2e_metrics(setup_times, rounds, rss_mib) -> dict[str, float]:
    return {"setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "peak_rss_mib": rss_mib}


def stage_rates(plain) -> dict[str, float]:
    """Work over seconds per stage of an untraced round; 0 where the
    workload's round has no such stage."""
    return {key: (plain.work[key][0] / plain.work[key][1] if key in plain.work else 0.0)
            for key in STAGE_RATES}


def layer_metrics(tracer, plain, overhead_pct: float, step_peak_mib: float) -> dict[str, float]:
    t = tracer.totals()

    def incl(name):
        return t.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    cli_spans = [n for n in t if n.startswith("cli.")]
    return {
        **stage_rates(plain),
        "numgrad.backward_s": incl("numgrad.backward"),
        "numgrad.backward_calls": calls("numgrad.backward"),
        "numgrad.vars_created": tracer.counts["numgrad.vars_created"],
        "numgrad.adam_s": incl("numgrad.adam"),
        "numgrad.adam_calls": calls("numgrad.adam"),
        "numgrad.loss_and_grad_self_s": self_s("numgrad.loss_and_grad"),
        "detector.score_graph_s": incl("detector.score_graph"),
        "detector.score_s": incl("detector.score"),
        "detector.rows_scored": tracer.counts["detector.rows_scored"],
        "losses.gf_s": incl("losses.gf"),
        "losses.gf_calls": calls("losses.gf"),
        "losses.sp_s": incl("losses.sp"),
        "losses.gf_corr_s": incl("losses.gf_corr"),
        "losses.components_self_s": self_s("losses.components"),
        "losses.base_set_s": incl("losses.base_set"),
        "training.loop_self_s": self_s("training.loop"),
        "training.slice_base_s": incl("training.slice_base"),
        "training.step_peak_mib": step_peak_mib,
        "training.fit_s": incl("training.fit"),
        "training.fits": calls("training.loop"),
        "training.unsup_metrics_s": incl("training.unsup_metrics"),
        "evalmetrics.build_report_s": incl("evalmetrics.build_report"),
        "evalmetrics.scoreset_s": incl("evalmetrics.scoreset"),
        "dataset.load_csv_s": incl("dataset.load_csv"),
        "dataset.rows_parsed": tracer.counts["dataset.rows_parsed"],
        "dataset.save_csv_s": incl("dataset.save_csv"),
        "dataset.synth_s": incl("dataset.synth"),
        "dataset.standardize_s": incl("dataset.standardize"),
        "claimcheck.verify_s": incl("claimcheck.verify"),
        "claimcheck.populations_checked": tracer.counts["claimcheck.populations_checked"],
        "cli.command_s": sum(incl(n) for n in cli_spans),
        "cli.self_s": sum(self_s(n) for n in cli_spans),
        "cli.eval_s": incl("cli.eval"),
        "cli.replay_s": incl("cli.replay"),
        "cli.claims_s": incl("cli.claims"),
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": overhead_pct,
    }


def step_peak(workload, state, last) -> float:
    """tracemalloc peak of one loss-and-gradient evaluation, in MiB."""
    from fairod import numgrad

    params, X, spec = workload.step(state, last)
    tracemalloc.start()
    try:
        numgrad.eval_loss_grad_components(params, X, spec)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from tracer import Tracer

    setup_times, rounds = [], []
    tracer = Tracer() if trace else None

    for i in range(1 if trace else SETUPS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        state = workload.setup(seed, work / f"setup{i}")
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        if i:
            shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)

    if trace:
        rounds.append(workload.round(state, work / "round0"))
        tracer.install()
        rounds.append(workload.round(state, work / "round1"))
        tracer.uninstall()
    else:
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            rounds.append(workload.round(state, work / f"round{len(rounds)}"))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(state, rounds[0])
    problems += [f"round {i} output differs from round 0"
                 for i, r in enumerate(rounds) if r.digest != rounds[0].digest]
    result = {"correct": not problems,
              "attempted": sum(r.ops for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "round_walls": [r.wall_s for r in rounds], "problems": problems,
              "facts": state.get("facts", {})}
    if trace:
        overhead = 100.0 * (rounds[1].wall_s / rounds[0].wall_s - 1.0)
        result["metrics"] = layer_metrics(tracer, rounds[0], overhead,
                                          step_peak(workload, state, rounds[-1]))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload.name}-seed{seed}.json")
    else:
        result["metrics"] = e2e_metrics(setup_times, rounds, rss_mib)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path, src = Path("BENCHMARK.json"), Path("src")
    if not (spec_path.is_file() and (src / "fairod" / "__init__.py").is_file()):
        print("run from the repository root: BENCHMARK.json and src/fairod are needed",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src.resolve()))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    for msg in result["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "round_walls": result["round_walls"], "facts": result["facts"],
                      "problems": result["problems"]}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
