"""Every function, class and method defined in src/ has a caller in src/ or
bench/, except the definitions that tests compare against.  The check is a
scan of syntax trees: a definition counts as used when its name is read as
a `Name`, an `Attribute` or an import alias outside its own body.  A `Name`
that is only assigned or declared (a class field, say) is not a read.

A name scan cannot tell apart methods that share a name (such as
`to_json` on two classes): one caller keeps them all."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(ROOT.glob("src/**/*.py"))
BENCH = sorted(ROOT.glob("bench/**/*.py"))

# Definitions that only tests read: value-only losses, metric definitions
# and the gradient oracle that the fast paths are checked against.
TEST_ONLY = {
    "flag_top_fraction", "topk_rank_agreement", "average_precision", "ap_ratio", "p_at_k_ratio",
    "pearson_abs_corr", "smooth_rank", "loss_sp", "loss_gf", "loss_gf_corr", "loss_base",
    "tape_loss_grad_components", "finite_diff_grad",
}


def definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level functions and classes, and the methods of those classes
    (dunder methods are called by Python, not by name)."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [m for m in node.body if isinstance(m, ast.FunctionDef)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return found


def references(node: ast.AST) -> Counter:
    """How often each name is read under `node`."""
    seen = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            seen[n.id] += 1
        elif isinstance(n, ast.Attribute):
            seen[n.attr] += 1
        elif isinstance(n, ast.alias):
            seen[n.name.split(".")[-1]] += 1
    return seen


def uncalled(defining: list[str], calling: list[str]) -> list[str]:
    """Names of the definitions in `defining` that no code in `defining` or
    `calling` reads outside their own body."""
    trees = [ast.parse(text) for text in defining]
    total = sum((references(node) for node in trees + [ast.parse(t) for t in calling]),
                Counter())
    return sorted(d.name for tree in trees for d in definitions(tree)
                  if total[d.name] == references(d)[d.name])


def test_scan_finds_uncalled_definitions():
    lib = ("class Box:\n"
           "    alone: int = 0\n"  # a field that shares a function's name
           "    def __init__(self):\n"
           "        self.size = 0\n"
           "    def grow(self):\n"
           "        return self.grow()\n"
           "    def used(self):\n"
           "        return 1\n"
           "def helper():\n"
           "    return Box().used()\n"
           "def alone():\n"
           "    return alone()\n")
    caller = "from lib import helper as h\nh()\n"
    assert uncalled([lib], [caller]) == ["alone", "grow"]


def test_src_has_no_uncalled_definitions():
    def read(paths):
        return [path.read_text(encoding="utf-8") for path in paths]
    found = uncalled(read(SRC), read(BENCH))
    assert sorted(set(found) - TEST_ONLY) == []
    assert sorted(TEST_ONLY - set(found)) == []  # an allowlisted name gained a caller
