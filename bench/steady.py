"""Steadiness of the benchmark: run every workload repeatedly, summarize,
and compare two sets of runs against the bounds in BENCHMARK.json.

    python3 bench/steady.py run --out set1.json
    python3 bench/steady.py compare set1.json set2.json

`run` starts `bench/run.py` for every workload of BENCHMARK.json with seeds
1 to 10, one process at a time, from the repository root, with the run
length from BENCHMARK.json, and records per metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
plus nproc, the Python and numpy versions and the BLAS thread settings.
A set is steady when every end-to-end spread is within its bound;
`compare` also requires that no median of the second set is worse than
the first by more than its bound and that the share of failed operations
is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def run_set(spec: dict) -> dict:
    doc = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                raise SystemExit(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            info = json.loads(lines[-2])
            doc.setdefault("env", info["env"])
            results.append(json.loads(lines[-1]))
            results[-1]["info"] = info
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
                file=sys.stderr)
        doc["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "failed_shares": sorted({r["failed"] / r["attempted"] for r in results}),
            "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results])
                        for m in spec["end_to_end"]},
            "runs": [{"seed": r["info"]["seed"], "round_walls": r["info"]["round_walls"],
                      "facts": r["info"]["facts"]} for r in results],
        }
    return doc


def verdicts(spec: dict, first: dict, second: dict | None = None) -> list[str]:
    """Lines of the form 'ok|FAIL workload metric ...'."""
    lines = []
    for name, w in first["workloads"].items():
        lines.append(f"{'ok' if w['correct'] else 'FAIL'} {name} correct; "
                     f"failed shares {w['failed_shares']}")
        for m in spec["end_to_end"]:
            s = w["metrics"][m["name"]]
            bound = m["bound"]
            within = s["spread"] <= bound
            lines.append(f"{'ok' if within else 'FAIL'} {name} {m['name']}: median "
                         f"{s['median']:.6g} {m['unit']}, spread {s['spread']:.4f} "
                         f"(bound {bound}, a third {bound / 3:.4f})")
            if second is None or name not in second["workloads"]:
                continue
            s2 = second["workloads"][name]["metrics"][m["name"]]
            change = (s2["median"] - s["median"]) / s["median"]
            worse = change if m["better"] == "lower" else -change
            lines.append(f"{'ok' if worse <= bound else 'FAIL'} {name} {m['name']}: second "
                         f"median {s2['median']:.6g}, {100 * worse:+.2f}% worse (bound {bound})")
        if second is not None and name in second["workloads"]:
            same = w["failed_shares"] == second["workloads"][name]["failed_shares"]
            lines.append(f"{'ok' if same else 'FAIL'} {name} failed share equal in both sets")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("run").add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.cmd == "run":
        doc = run_set(spec)
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        lines = verdicts(spec, doc)
    else:
        first, second = (json.loads(Path(f).read_text()) for f in (args.first, args.second))
        lines = verdicts(spec, first, second)
    print("\n".join(lines))
    return 0 if all(line.startswith("ok") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
