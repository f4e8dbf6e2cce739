"""A fixed corpus of CLI runs, for checking that a change to the toolkit
leaves every artifact byte-identical.

    python3 tests/cli_corpus.py run --src OLD/src --out /tmp/corpus
    mv /tmp/corpus /tmp/corpus-old
    python3 tests/cli_corpus.py run --src NEW/src --out /tmp/corpus
    python3 tests/cli_corpus.py compare /tmp/corpus-old /tmp/corpus

Both sides must write to the same --out path, because reports and manifests
record absolute input paths.  `run` executes each command as
`python -m fairod.cli` with PYTHONPATH set to the given src tree and records
its exit code and stderr in corpus.json.  `compare` fails when a file differs
byte for byte, when a manifest differs in more than its timestamps, or when
an exit code differs.  It prints stderr that differs without failing on it,
since a change may reword an error message on purpose.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

TIMESTAMPS = ("started_at", "finished_at")


def commands(out: Path) -> list[tuple[str, list[str]]]:
    """(step name, CLI arguments) in run order; step S writes to out/S."""
    data = str(out / "synth1" / "dataset.csv")
    base = str(out / "base" / "fit.json")
    fit = ["--data", data, "--seed", "3", "--epochs", "30", "--lr", "0.05", "--standardize"]
    base_1200 = str(out / "base-1200" / "fit.json")
    fit_1200 = ["--data", str(out / "synth1-1200" / "dataset.csv"), "--seed", "4",
                "--epochs", "20", "--lr", "0.05", "--standardize"]
    steps = [
        ("synth1", ["synth", "synth1", "--major", "300", "--minor", "60", "--outliers", "20",
                    "--seed", "7"]),
        ("synth2", ["synth", "synth2", "--major", "200", "--minor", "50", "--outliers", "12",
                    "--seed", "8", "--x1-std", "1.2"]),
        # 3200 rows: three full blocks of dataset._SAVE_ROWS and a part
        ("synth2-3200", ["synth", "synth2", "--major", "2500", "--minor", "700",
                         "--outliers", "90", "--seed", "9"]),
        ("base", ["train", *fit, "--variant", "base", "--base-seeds", "2"]),
    ]
    for variant in ("fairod", "fairod_l", "fairod_c"):
        train = ["train", *fit, "--variant", variant, "--base", base]
        steps += [(variant, train), (variant + "-batch64", train + ["--batch-size", "64"])]
    steps += [
        ("eval", ["eval", "--data", data, "--model", str(out / "fairod" / "fit.json"),
                  "--base", base, "--standardize", "--verify-treatment-parity"]),
        ("eval-flag02", ["eval", "--data", data, "--model", base, "--flag-fraction", "0.2"]),
        ("grid", ["grid", *fit, "--base", base]),
        ("grid-jobs2", ["grid", *fit, "--base", base, "--jobs", "2"]),
        ("ablate", ["ablate", *fit, "--base", base]),
        ("claims", ["claims", "--max-n", "6"]),
        ("replay-eval", ["replay", "--manifest", str(out / "eval" / "manifest.json")]),
        ("replay-train", ["replay", "--manifest", str(out / "fairod" / "manifest.json")]),
        ("replay-synth", ["replay", "--manifest", str(out / "synth2" / "manifest.json")]),
        ("error-no-base", ["train", *fit, "--variant", "fairod"]),
        ("error-synth9", ["synth", "synth9", "--major", "10", "--minor", "5", "--outliers", "2",
                          "--seed", "1"]),
        ("error-width", ["train", "--data", str(out / "wide.csv"), "--variant", "fairod",
                         "--base", base, "--seed", "1", "--epochs", "2"]),
        # synth1's CSV has no quotes, so NumPy parses it; these three go
        # through csv.reader: a quoted pv token, a ragged row, and a
        # quote-free file whose `1_80.5` only float() reads
        ("eval-quoted", ["eval", "--data", str(out / "quoted.csv"), "--model", base]),
        ("error-ragged", ["eval", "--data", str(out / "ragged.csv"), "--model", base]),
        ("eval-underscore", ["eval", "--data", str(out / "underscore.csv"), "--model", base]),
        # a 1200-row majority group, which full-batch training ranks on a
        # grid (losses._rank_bins), in the grid's forked cells too
        ("synth1-1200", ["synth", "synth1", "--major", "1200", "--minor", "80", "--outliers",
                         "30", "--seed", "11"]),
        ("base-1200", ["train", *fit_1200, "--variant", "base", "--base-seeds", "1"]),
        ("fairod-1200", ["train", *fit_1200, "--variant", "fairod", "--base", base_1200]),
        ("grid-1200-jobs2", ["grid", *fit_1200, "--base", base_1200, "--jobs", "2",
                             "--alpha-grid", "0.01,0.5", "--gamma-grid", "0.1,1"]),
        # one row at (1000, -1000) among standard normal rows stretches the
        # 1200-row group's unit-scaled scores to a range of about 34.7: too
        # many bins, so training ranks the group exactly
        ("fairod-outlier", ["train", "--data", str(out / "outlier.csv"), "--seed", "5",
                            "--epochs", "20", "--lr", "0.05", "--standardize",
                            "--variant", "fairod", "--base", base_1200]),
    ]
    return [(name, argv + ["--out", str(out / name)]) for name, argv in steps]


def outlier_csv() -> str:
    """1200 rows of group a and 80 of group b, two standard normal features,
    and the first row at (1000, -1000)."""
    rng = random.Random(13)
    lines = ["f_0,f_1,pv"]
    for i in range(1280):
        x = (1000.0, -1000.0) if i == 0 else (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        lines.append(f"{x[0]:.6f},{x[1]:.6f},{'a' if i < 1200 else 'b'}")
    return "\n".join(lines) + "\n"


def run(src: Path, out: Path) -> int:
    if out.exists():
        sys.exit(f"{out} exists; give a fresh --out path")
    out.mkdir(parents=True)
    (out / "wide.csv").write_text("f_0,f_1,f_2,pv\n1,2,3,a\n4,5,6,b\n2,1,0,a\n3,2,2,b\n")
    (out / "quoted.csv").write_text('f_0,f_1,pv,label\n180.5,1.25,"x, y",0\n150,0.5,z,0\n'
                                    '171,9.5,"x, y",1\n155.75,0.125,z,0\n160,12,"x, y",0\n'
                                    '149,2.5,z,1\n')
    (out / "underscore.csv").write_text("f_0,f_1,pv,label\n1_80.5,1.25,x,0\n150,0.5,z,0\n"
                                        "171,9.5,x,1\n155.75,0.125,z,0\n160,12,x,0\n"
                                        "149,2.5,z,1\n")
    (out / "ragged.csv").write_text("f_0,f_1,pv\n180,1,a\n150,2,b\n170\n155,3,b\n")
    (out / "outlier.csv").write_text(outlier_csv())
    env = os.environ | {"PYTHONPATH": str(src.resolve())}
    log = []
    for name, argv in commands(out.resolve()):
        proc = subprocess.run([sys.executable, "-m", "fairod.cli", *argv], env=env,
                              capture_output=True, text=True)
        log.append({"step": name, "argv": argv, "exit": proc.returncode,
                    "stderr": proc.stderr})
        print(f"{name}: exit {proc.returncode}")
    (out / "corpus.json").write_text(json.dumps(log, indent=2) + "\n")
    return 0


def compare(a: Path, b: Path) -> int:
    files = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    problems = []
    for rel in files:
        if not ((a / rel).is_file() and (b / rel).is_file()):
            problems.append(f"{rel}: only in {a if (a / rel).is_file() else b}")
        elif rel.name == "manifest.json":
            docs = [json.loads((root / rel).read_text()) for root in (a, b)]
            for doc in docs:
                for key in TIMESTAMPS:
                    doc.pop(key, None)
            if docs[0] != docs[1]:
                problems.append(f"{rel}: manifests differ beyond their timestamps")
        elif rel == Path("corpus.json"):
            logs = [json.loads((root / rel).read_text()) for root in (a, b)]
            if [s["step"] for s in logs[0]] != [s["step"] for s in logs[1]]:
                problems.append("corpus.json: the two runs ran different steps")
                continue
            for old, new in zip(*logs):
                if old["exit"] != new["exit"]:
                    problems.append(f"{old['step']}: exit {old['exit']} vs {new['exit']}")
                if old["stderr"] != new["stderr"]:
                    print(f"{old['step']}: stderr differs\n  - {old['stderr'].strip()}\n"
                          f"  + {new['stderr'].strip()}")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            problems.append(f"{rel}: bytes differ")
    for problem in problems:
        print(problem)
    print(f"compared {len(files)} files: {len(problems)} differences")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run", help="run the corpus against one src tree")
    p.add_argument("--src", type=Path, required=True, help="the tree's src directory")
    p.add_argument("--out", type=Path, required=True, help="fresh output directory")
    p = sub.add_parser("compare", help="compare two runs written to the same --out path")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    ns = parser.parse_args()
    return run(ns.src, ns.out) if ns.action == "run" else compare(ns.a, ns.b)


if __name__ == "__main__":
    sys.exit(main())
