"""List the statements of `src/fairod` that neither Tier-1 nor the benchmark
workloads run.

    python3 tests/line_trace.py

It starts a line tracer (`sys.settrace` and `threading.settrace`) before
`fairod` is imported, runs Tier-1 in this process through `pytest.main`,
then runs each workload of `bench/workloads.py` once, set-up and one round
at seed 1.  The workloads' output checks are not run: they recompute
results through the program (`losses.total_loss`, the tape), so code that
only a check reaches would count as run.  Then it prints
`file:line: source` for each statement that no traced line belongs to, and
their count.  Definitions, imports, annotated class fields and docstrings
are not listed.

Only this process is traced: the forked workers of a `grid --jobs 2` run
and the `python -m fairod.cli` subprocesses of the CLI tests record
nothing, so a statement that only they run would be listed.  On 2 CPUs the
whole run takes about 2 minutes, against 1-1.5 for plain Tier-1.

Standard library and the package only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "fairod"
_PREFIX = str(PKG) + "/"

hits: set[tuple[str, int]] = set()


def _trace_lines(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    """Line-trace the package's frames only; every other frame runs untraced."""
    return _trace_lines if frame.f_code.co_filename.startswith(_PREFIX) else None


def run_traced() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        import pytest

        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
        import workloads

        for workload in workloads.WORKLOADS.values():
            print(f"running {workload.name}: set-up and one round, seed 1", flush=True)
            with tempfile.TemporaryDirectory() as tmp:
                state = workload.setup(1, Path(tmp) / "setup")
                workload.round(state, Path(tmp) / "round")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import fairod

    if Path(fairod.__file__).resolve().parent != PKG:
        sys.exit(f"fairod was imported from {fairod.__file__}, not from {PKG}")
    return int(code)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of a simple statement, or of a compound statement's header."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(stmt.lineno, body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _is_docstring(stmt: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and stmt is parent.body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def unrun(path: Path) -> list[int]:
    """The first line of each listed statement of `path` that no hit reaches."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    ran = {line for name, line in hits if name == str(path)}

    out = []
    for parent in ast.walk(tree):
        for stmt in ast.iter_child_nodes(parent):
            if not isinstance(stmt, ast.stmt):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.AnnAssign) and isinstance(parent, ast.ClassDef):
                continue
            if _is_docstring(stmt, parent) or not ran.isdisjoint(_own_lines(stmt)):
                continue
            out.append(stmt.lineno)
    return sorted(out)


def main() -> int:
    code = run_traced()
    count = 0
    for path in sorted(PKG.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno in unrun(path):
            print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
            count += 1
    print(f"{count} statements of src/fairod ran in no traced test or workload")
    return code


if __name__ == "__main__":
    sys.exit(main())
