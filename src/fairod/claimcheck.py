"""Exhaustive finite-population checks of two impossibility statements about
flagging under statistical parity.

Claim 1: strict detection effectiveness P(Y=1|O=1) > P(Y=1) plus exact
flag-rate parity imply some group's precision strictly beats its base rate.

Claim 2: adding exact preservation of the cross-group precision ratio to
those premises forces every group's precision above its base rate.

Populations are 8-cell contingency tables over (group, label, flag); all
probability comparisons are integer cross-multiplications, so there is no
floating point anywhere in the claim logic.  Enumerating every table up to
a size cap is the whole proof check: a claim holds on the enumerated space
iff no counterexample is listed.

Each predicate is written once, with `&`, `|` and `==` over count
accessors, so it evaluates one `FinitePopulation` to a bool or every table
of one size (`_Columns`, 8 int64 columns) to a bool array.  Products stay
below N^4 <= 14^4, so int64 cannot overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MAX_N = 14

# cell order: (pv, y, o) with pv major; a = group 0, b = group 1
CELLS = tuple((pv, y, o) for pv in (0, 1) for y in (0, 1) for o in (0, 1))
GROUPS = (0, 1)


class _Counts:
    """Count accessors over `counts`, 8 values in CELLS order: ints for one
    table, or int64 columns with one row per table."""

    counts: tuple

    def count(self, pv: int, y: int, o: int):
        return self.counts[pv * 4 + y * 2 + o]

    @property
    def n(self):
        return sum(self.counts)

    def group_size(self, v: int):
        return sum(self.counts[v * 4: v * 4 + 4])

    def flagged(self, v: int):
        return self.count(v, 0, 1) + self.count(v, 1, 1)

    def positives(self, v: int):
        return self.count(v, 1, 0) + self.count(v, 1, 1)

    def flagged_positives(self, v: int):
        return self.count(v, 1, 1)

    @property
    def total_flagged(self):
        return self.flagged(0) + self.flagged(1)

    @property
    def total_positives(self):
        return self.positives(0) + self.positives(1)

    @property
    def total_flagged_positives(self):
        return self.flagged_positives(0) + self.flagged_positives(1)


@dataclass(frozen=True)
class FinitePopulation(_Counts):
    """Counts per (pv, y, o) cell, in CELLS order."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != 8 or any(c < 0 for c in self.counts):
            raise ValueError("counts must be 8 nonnegative integers")
        if self.group_size(0) == 0 or self.group_size(1) == 0:
            raise ValueError("both groups must be nonempty")

    def rates(self) -> dict[str, str]:
        """Human-readable exact rates for reports; never used in checks."""
        out = {}
        for v, name in zip(GROUPS, "ab"):
            out[f"base_rate_{name}"] = str(Fraction(self.positives(v), self.group_size(v)))
            out[f"flag_rate_{name}"] = str(Fraction(self.flagged(v), self.group_size(v)))
            out[f"precision_{name}"] = (
                str(Fraction(self.flagged_positives(v), self.flagged(v)))
                if self.flagged(v) else "undefined")
        return out

    def to_dict(self) -> dict:
        return {"cells": list(self.counts), "n": self.n, "rates": self.rates()}


class _Columns(_Counts):
    """Every row of a (rows, 8) table array at once: each accessor returns
    an int64 column and each predicate a bool column."""

    def __init__(self, table: np.ndarray):
        self.counts = tuple(column.astype(np.int64) for column in table.T)


def tables(n: int) -> np.ndarray:
    """All 8-cell tables with total n and both groups nonempty, as one
    (rows, 8) int8 array in lexicographic order of the counts.  Claims
    depend only on cell counts, so this covers every distinct population of
    size n up to within-group row permutation."""
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N} (table count grows as n^7)")
    if n < 2:
        raise ValueError("n must be at least 2 so both groups can be nonempty")
    # Fix the cells one at a time: each prefix row with `rest` left to place
    # becomes rest + 1 consecutive rows whose next cell runs 0..rest, so rows
    # stay in lexicographic order; the last cell takes what is left.  Once
    # group a's four cells are fixed, prefixes that leave a group empty go.
    # int8 holds every count (MAX_N < 128) and keeps each block near 1 MB at
    # n = 14: freeing 7 MB int64 tables left the allocator holding memory
    # that later commands in the same process grew on top of.
    prefix = np.zeros((1, 0), dtype=np.int8)
    rest = np.array([n])
    for cells in range(1, 8):
        reps = rest + 1
        parent = np.repeat(np.arange(len(rest)), reps)
        cell = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps)
        prefix = np.column_stack([prefix[parent], cell.astype(np.int8)])
        rest = rest[parent] - cell
        if cells == 4:
            keep = (rest > 0) & (rest < n)
            prefix, rest = prefix[keep], rest[keep]
    return np.column_stack([prefix, rest.astype(np.int8)])


# -- exact premise and conclusion predicates ----------------------------------------------
# `x ^ True` negates both a bool and a bool array; `~True` is -2.


def sp_holds(pop: _Counts):
    """Exact flag-rate parity: f_a/N_a == f_b/N_b as rationals."""
    return pop.flagged(0) * pop.group_size(1) == pop.flagged(1) * pop.group_size(0)


def effectiveness_holds(pop: _Counts):
    """Strict P(Y=1|O=1) > P(Y=1); false when nothing is flagged."""
    f = pop.total_flagged
    return (f > 0) & (pop.total_flagged_positives * pop.n > pop.total_positives * f)


def group_beats_base_rate(pop: _Counts, v: int):
    """Strict precision > base rate for group v; false when undefined."""
    f_v = pop.flagged(v)
    return (f_v > 0) & (pop.flagged_positives(v) * pop.group_size(v) > pop.positives(v) * f_v)


def group_precision_equals_base_rate(pop: _Counts, v: int):
    f_v = pop.flagged(v)
    return (f_v > 0) & (pop.flagged_positives(v) * pop.group_size(v) == pop.positives(v) * f_v)


def ratio_preserved(pop: _Counts):
    """Exact precision_a/precision_b == base_a/base_b by cross-multiplying
    pf_a/f_a * p_b/N_b == pf_b/f_b * p_a/N_a; requires every quantity
    involved to be defined (flags and positives in both groups)."""
    defined = ((pop.flagged(0) > 0) & (pop.positives(0) > 0)
               & (pop.flagged(1) > 0) & (pop.positives(1) > 0))
    lhs = pop.flagged_positives(0) * pop.positives(1) * pop.flagged(1) * pop.group_size(0)
    rhs = pop.flagged_positives(1) * pop.positives(0) * pop.flagged(0) * pop.group_size(1)
    return defined & (lhs == rhs)


# -- verdicts -----------------------------------------------------------------------------


@dataclass
class ClaimVerdict:
    claim: str
    max_n: int
    populations_checked: int
    premise_counts: dict[str, int]
    counterexamples: list[dict] = field(default_factory=list)
    witness: dict | None = None

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "max_n": self.max_n,
            "populations_checked": self.populations_checked,
            "premise_counts": dict(self.premise_counts),
            "holds": self.holds,
            "counterexamples": list(self.counterexamples),
            "witness": self.witness,
        }


def _claim1_conclusion(pop: _Counts):
    return group_beats_base_rate(pop, 0) | group_beats_base_rate(pop, 1)


def _claim2_conclusion(pop: _Counts):
    return group_beats_base_rate(pop, 0) & group_beats_base_rate(pop, 1)


# Per claim: the premises as (count key, predicate) in funnel order, where a
# table is counted under the first premise it fails; the conclusion; and the
# premise whose failures may supply the witness, with the witness test and
# what the witness records.
_CLAIMS = {
    "claim1": (
        (("effectiveness_failed", effectiveness_holds), ("sp_failed", sp_holds)),
        _claim1_conclusion,
        "sp_failed",
        lambda pop: (_claim1_conclusion(pop) ^ True) & (pop.flagged(0) > 0) & (pop.flagged(1) > 0),
        {"dropped_premise": "statistical_parity",
         "note": "effective yet no flagged group beats its base rate"},
    ),
    "claim2": (
        (("effectiveness_failed", effectiveness_holds), ("sp_failed", sp_holds),
         ("ratio_failed", ratio_preserved)),
        _claim2_conclusion,
        "ratio_failed",
        lambda pop: (group_precision_equals_base_rate(pop, 0)
                     | group_precision_equals_base_rate(pop, 1)),
        {"dropped_premise": "ratio_preservation",
         "note": "parity and effectiveness alone leave one group's precision stuck "
                 "at its base rate"},
    ),
}


def _population(row: np.ndarray) -> dict:
    return FinitePopulation(tuple(row.tolist())).to_dict()


def _verify(claim: str, max_n: int) -> ClaimVerdict:
    if not (2 <= max_n <= MAX_N):
        raise ValueError(f"max_n must be in [2, {MAX_N}]")
    premises, conclusion, witness_key, witness_test, record = _CLAIMS[claim]
    counts = {"checked": 0} | {key: 0 for key, _ in premises} | {"premises_met": 0}
    counterexamples: list[dict] = []
    witness = None
    for n in range(2, max_n + 1):
        table = tables(n)
        pops = _Columns(table)
        counts["checked"] += len(table)
        alive = np.ones(len(table), dtype=bool)
        for key, holds in premises:
            met = holds(pops)
            failed = alive & ~met
            counts[key] += int(np.count_nonzero(failed))
            if witness is None and key == witness_key:
                hits = failed & witness_test(pops)
                if hits.any():
                    witness = record | {"population": _population(table[np.argmax(hits)])}
            alive &= met
        counts["premises_met"] += int(np.count_nonzero(alive))
        counterexamples += [_population(row) for row in table[alive & ~conclusion(pops)]]
        del table, pops  # free this size before the next one is built
    return ClaimVerdict(claim=claim, max_n=max_n, populations_checked=counts["checked"],
                        premise_counts=counts, counterexamples=counterexamples,
                        witness=witness)


def verify_claim1(max_n: int) -> ClaimVerdict:
    """Check the exists-a-group conclusion on every population up to max_n,
    and record one premise-necessity witness: a population that keeps
    effectiveness, drops parity, and has no group beating its base rate."""
    return _verify("claim1", max_n)


def verify_claim2(max_n: int) -> ClaimVerdict:
    """Check the every-group conclusion under the extra exact-ratio premise,
    and record one premise-necessity witness: parity plus effectiveness
    without ratio preservation, where some group's precision only equals
    its base rate."""
    return _verify("claim2", max_n)
