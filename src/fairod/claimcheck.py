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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub
from typing import Iterator

MAX_N = 14

# cell order: (pv, y, o) with pv major; a = group 0, b = group 1
CELLS = tuple((pv, y, o) for pv in (0, 1) for y in (0, 1) for o in (0, 1))
GROUPS = (0, 1)


@dataclass(frozen=True)
class FinitePopulation:
    """Counts per (pv, y, o) cell, in CELLS order."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != 8 or any(c < 0 for c in self.counts):
            raise ValueError("counts must be 8 nonnegative integers")
        if self.group_size(0) == 0 or self.group_size(1) == 0:
            raise ValueError("both groups must be nonempty")

    def count(self, pv: int, y: int, o: int) -> int:
        return self.counts[pv * 4 + y * 2 + o]

    @property
    def n(self) -> int:
        return sum(self.counts)

    def group_size(self, v: int) -> int:
        return sum(self.counts[v * 4: v * 4 + 4])

    def flagged(self, v: int) -> int:
        return self.count(v, 0, 1) + self.count(v, 1, 1)

    def positives(self, v: int) -> int:
        return self.count(v, 1, 0) + self.count(v, 1, 1)

    def flagged_positives(self, v: int) -> int:
        return self.count(v, 1, 1)

    @property
    def total_flagged(self) -> int:
        return self.flagged(0) + self.flagged(1)

    @property
    def total_positives(self) -> int:
        return self.positives(0) + self.positives(1)

    @property
    def total_flagged_positives(self) -> int:
        return self.flagged_positives(0) + self.flagged_positives(1)

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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every `parts`-tuple of nonnegative ints summing to `total`, in
    lexicographic order: one tuple per nondecreasing run of partial sums."""
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def enumerate_populations(n: int) -> Iterator[FinitePopulation]:
    """All 8-cell tables with total n and both groups nonempty.  Claims
    depend only on cell counts, so this covers every distinct population of
    size n up to within-group row permutation."""
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N} (table count grows as n^7)")
    if n < 2:
        raise ValueError("n must be at least 2 so both groups can be nonempty")
    for counts in _compositions(n, 8):
        na = counts[0] + counts[1] + counts[2] + counts[3]
        if na == 0 or na == n:
            continue
        yield FinitePopulation(counts)


# -- exact premise and conclusion predicates ----------------------------------------------


def sp_holds(pop: FinitePopulation) -> bool:
    """Exact flag-rate parity: f_a/N_a == f_b/N_b as rationals."""
    return pop.flagged(0) * pop.group_size(1) == pop.flagged(1) * pop.group_size(0)


def effectiveness_holds(pop: FinitePopulation) -> bool:
    """Strict P(Y=1|O=1) > P(Y=1); false when nothing is flagged."""
    f = pop.total_flagged
    return f > 0 and pop.total_flagged_positives * pop.n > pop.total_positives * f


def group_beats_base_rate(pop: FinitePopulation, v: int) -> bool:
    """Strict precision > base rate for group v; false when undefined."""
    f_v = pop.flagged(v)
    return f_v > 0 and pop.flagged_positives(v) * pop.group_size(v) > pop.positives(v) * f_v


def group_precision_equals_base_rate(pop: FinitePopulation, v: int) -> bool:
    f_v = pop.flagged(v)
    return f_v > 0 and pop.flagged_positives(v) * pop.group_size(v) == pop.positives(v) * f_v


def ratio_preserved(pop: FinitePopulation) -> bool:
    """Exact precision_a/precision_b == base_a/base_b by cross-multiplying
    pf_a/f_a * p_b/N_b == pf_b/f_b * p_a/N_a; requires every quantity
    involved to be defined (flags and positives in both groups)."""
    if any(pop.flagged(v) == 0 or pop.positives(v) == 0 for v in GROUPS):
        return False
    lhs = pop.flagged_positives(0) * pop.positives(1) * pop.flagged(1) * pop.group_size(0)
    rhs = pop.flagged_positives(1) * pop.positives(0) * pop.flagged(0) * pop.group_size(1)
    return lhs == rhs


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


def _claim1_conclusion(pop: FinitePopulation) -> bool:
    return any(group_beats_base_rate(pop, v) for v in GROUPS)


def _claim2_conclusion(pop: FinitePopulation) -> bool:
    return all(group_beats_base_rate(pop, v) for v in GROUPS)


# Per claim: the premises as (count key, predicate) in funnel order, where a
# table is counted under the first premise it fails; the conclusion; and the
# premise whose failures may supply the witness, with the witness test and
# what the witness records.
_CLAIMS = {
    "claim1": (
        (("effectiveness_failed", effectiveness_holds), ("sp_failed", sp_holds)),
        _claim1_conclusion,
        "sp_failed",
        lambda pop: (not _claim1_conclusion(pop)
                     and all(pop.flagged(v) > 0 for v in GROUPS)),
        {"dropped_premise": "statistical_parity",
         "note": "effective yet no flagged group beats its base rate"},
    ),
    "claim2": (
        (("effectiveness_failed", effectiveness_holds), ("sp_failed", sp_holds),
         ("ratio_failed", ratio_preserved)),
        _claim2_conclusion,
        "ratio_failed",
        lambda pop: any(group_precision_equals_base_rate(pop, v) for v in GROUPS),
        {"dropped_premise": "ratio_preservation",
         "note": "parity and effectiveness alone leave one group's precision stuck "
                 "at its base rate"},
    ),
}


def _verify(claim: str, max_n: int) -> ClaimVerdict:
    if not (2 <= max_n <= MAX_N):
        raise ValueError(f"max_n must be in [2, {MAX_N}]")
    premises, conclusion, witness_key, witness_test, record = _CLAIMS[claim]
    counts = {"checked": 0} | {key: 0 for key, _ in premises} | {"premises_met": 0}
    counterexamples: list[dict] = []
    witness = None
    for n in range(2, max_n + 1):
        for pop in enumerate_populations(n):
            counts["checked"] += 1
            for key, holds in premises:
                if not holds(pop):
                    counts[key] += 1
                    if witness is None and key == witness_key and witness_test(pop):
                        witness = record | {"population": pop.to_dict()}
                    break
            else:
                counts["premises_met"] += 1
                if not conclusion(pop):
                    counterexamples.append(pop.to_dict())
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
