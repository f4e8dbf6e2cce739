"""Dataset container, CSV interchange, standardization, stratified
downsampling, and the two synthetic generators.

CSV schema: feature columns (header order preserved), a categorical `pv`
column, and an optional binary `label` column.  Floats are rendered with 17
significant digits so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class DataError(Exception):
    """Base class for dataset construction and I/O failures."""


class SchemaError(DataError):
    """Required column missing or header malformed."""


class ParseError(DataError):
    """A cell could not be parsed; message carries row and column."""


class ValidationError(DataError):
    """Dataset content violates an invariant (group sizes, label domain)."""


class CapacityError(DataError):
    """Requested subsample cannot be drawn from the available rows."""


@dataclass
class LabeledDataset:
    """Feature matrix with per-row group ids and optional outlier labels.

    pv ids are small integers with 0 = majority group a, 1 = minority b;
    ids >= 2 are allowed for multi-valued protected attributes.
    """

    features: np.ndarray
    pv: np.ndarray
    labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.pv = np.asarray(self.pv, dtype=np.int64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def validate(self) -> "LabeledDataset":
        n = self.n
        if self.pv.shape != (n,):
            raise ValidationError(f"pv length {self.pv.shape} does not match N={n}")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise ValidationError(f"labels length {self.labels.shape} does not match N={n}")
            bad = set(np.unique(self.labels)) - {0, 1}
            if bad:
                raise ValidationError(f"labels must be 0/1, found {sorted(bad)}")
        ids, counts = np.unique(self.pv, return_counts=True)
        for gid, cnt in zip(ids, counts):
            if cnt < 2:
                raise ValidationError(
                    f"group {gid} has {cnt} member(s); every group needs at least 2")
        return self


GroupView = dict[int, np.ndarray]


def group_view(ds: LabeledDataset) -> GroupView:
    """Group id -> ascending row indices; the lists partition 0..N-1."""
    return {int(g): np.flatnonzero(ds.pv == g) for g in np.unique(ds.pv)}


# -- CSV interchange -------------------------------------------------------------


def _fmt(x: float) -> str:
    return "%.17g" % x


def save_csv(ds: LabeledDataset, path) -> None:
    """Write `f_0..f_{d-1}, pv [, label]` with lossless float rendering."""
    inverse = {}
    tokens = ds.meta.get("pv_tokens")
    if tokens:
        inverse = {gid: tok for tok, gid in tokens.items()}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        header = [f"f_{j}" for j in range(ds.d)] + ["pv"]
        if ds.labels is not None:
            header.append("label")
        w.writerow(header)
        for i in range(ds.n):
            row = [_fmt(v) for v in ds.features[i]]
            row.append(inverse.get(int(ds.pv[i]), str(int(ds.pv[i]))))
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            w.writerow(row)


def _map_pv_tokens(tokens: list[str]) -> dict[str, int]:
    """Most frequent token becomes id 0; the rest follow first appearance."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for pos, t in enumerate(tokens):
        counts[t] = counts.get(t, 0) + 1
        first_seen.setdefault(t, pos)
    majority = min(counts, key=lambda t: (-counts[t], first_seen[t]))
    mapping = {majority: 0}
    for t in sorted(first_seen, key=first_seen.get):
        if t not in mapping:
            mapping[t] = len(mapping)
    return mapping


def load_csv(path) -> LabeledDataset:
    """Read a dataset CSV: a required `pv` column, an optional 0/1 `label`
    column, and every other column a feature.  pv tokens are mapped to ids
    with the most frequent token forced to 0 (majority); the mapping is
    recorded in meta["pv_tokens"].
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not valid UTF-8: {e}") from None
    if not rows:
        raise SchemaError(f"{path}: empty file, header required")
    header = rows[0]
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    if "pv" not in header:
        raise SchemaError(f"{path}: missing pv column 'pv'")
    pv_ix = header.index("pv")
    lab_ix = header.index("label") if "label" in header else None
    feat_ix = [j for j in range(len(header)) if j != pv_ix and j != lab_ix]

    feats, pv_tokens, labels = [], [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
        vals = []
        for j in feat_ix:
            try:
                vals.append(float(row[j]))
            except ValueError:
                raise ParseError(
                    f"{path}: line {line_no}, column '{header[j]}': "
                    f"non-numeric value {row[j]!r}") from None
        feats.append(vals)
        pv_tokens.append(row[pv_ix])
        if lab_ix is not None:
            tok = row[lab_ix].strip()
            if tok not in ("0", "1"):
                raise ParseError(
                    f"{path}: line {line_no}, column '{header[lab_ix]}': "
                    f"label must be 0 or 1, got {tok!r}")
            labels.append(int(tok))
    if not feats:
        raise ValidationError(f"{path}: no data rows")

    mapping = _map_pv_tokens(pv_tokens)
    ds = LabeledDataset(
        features=np.array(feats, dtype=np.float64),
        pv=np.array([mapping[t] for t in pv_tokens], dtype=np.int64),
        labels=np.array(labels, dtype=np.int64) if lab_ix is not None else None,
        meta={"pv_tokens": mapping},
    )
    return ds.validate()


# -- transforms -------------------------------------------------------------------


def standardize(ds: LabeledDataset) -> LabeledDataset:
    """Rescale each column to mean 0, std 1; constant columns go to all zeros."""
    if ds.n < 2:
        raise ValidationError("standardize needs N >= 2")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    return LabeledDataset(
        features=(ds.features - mean) / np.where(std > 0.0, std, 1.0),
        pv=ds.pv.copy(),
        labels=None if ds.labels is None else ds.labels.copy(),
        meta=dict(ds.meta),
    )


def _floor_count(rate: float, n: int) -> int:
    # guard against 0.05*2400 = 120.0000...01 style float artifacts
    return int(math.floor(rate * n + 1e-9))


def stratified_downsample(ds: LabeledDataset, group_ratio: float = 4.0,
                          outlier_rate: float = 0.05, seed: int = 0) -> LabeledDataset:
    """Largest subsample with majority:minority = group_ratio and the same
    outlier fraction inside each group (counts rounded down), drawn uniformly
    without replacement under the seed."""
    if ds.labels is None:
        raise ValidationError("stratified_downsample requires labels")
    if group_ratio <= 0 or not (0 <= outlier_rate < 1):
        raise ValidationError("group_ratio must be > 0 and outlier_rate in [0,1)")
    view = group_view(ds)
    if set(view) != {0, 1}:
        raise ValidationError("stratified_downsample expects exactly groups 0 and 1")
    pools = {}
    for g, idx in view.items():
        lab = ds.labels[idx]
        pools[g] = {"in": idx[lab == 0], "out": idx[lab == 1]}

    def feasible(n_b: int) -> tuple[int, int, int, int] | None:
        n_a = _floor_count(group_ratio, n_b)
        if n_a < 2 or n_b < 2:
            return None
        k_a, k_b = _floor_count(outlier_rate, n_a), _floor_count(outlier_rate, n_b)
        if (k_a <= len(pools[0]["out"]) and n_a - k_a <= len(pools[0]["in"])
                and k_b <= len(pools[1]["out"]) and n_b - k_b <= len(pools[1]["in"])):
            return n_a, k_a, n_b, k_b
        return None

    best = None
    for n_b in range(len(view[1]), 1, -1):
        best = feasible(n_b)
        if best:
            break
    if best is None:
        raise CapacityError(
            "cannot satisfy ratio %g with outlier rate %g: available per group "
            "(inliers, outliers) = a:(%d, %d), b:(%d, %d)"
            % (group_ratio, outlier_rate, len(pools[0]["in"]), len(pools[0]["out"]),
               len(pools[1]["in"]), len(pools[1]["out"])))
    n_a, k_a, n_b, k_b = best

    rng = np.random.default_rng(seed)
    chosen = []
    for g, n_g, k_g in ((0, n_a, k_a), (1, n_b, k_b)):
        chosen.append(rng.choice(pools[g]["out"], size=k_g, replace=False))
        chosen.append(rng.choice(pools[g]["in"], size=n_g - k_g, replace=False))
    keep = np.sort(np.concatenate(chosen))
    meta = dict(ds.meta)
    meta["downsample"] = {"group_ratio": group_ratio, "outlier_rate": outlier_rate,
                          "seed": seed, "kept": int(keep.size)}
    out = LabeledDataset(features=ds.features[keep], pv=ds.pv[keep],
                         labels=ds.labels[keep], meta=meta)
    return out.validate()


# -- synthetic generators ----------------------------------------------------------


def _split_outliers(n_major: int, n_minor: int, n_outlier: int) -> tuple[int, int]:
    """Allocate outliers proportionally so both groups share one outlier rate."""
    total = n_major + n_minor
    if n_outlier > total:
        raise ValidationError("more outliers requested than rows")
    k_a = (n_outlier * n_major) // total
    k_b = n_outlier - k_a
    if k_a > n_major or k_b > n_minor:
        raise ValidationError("outlier allocation exceeds a group size")
    return k_a, k_b


def _assemble(x1_a, x2_a, y_a, x1_b, x2_b, y_b) -> LabeledDataset:
    features = np.column_stack([np.concatenate([x1_a, x1_b]),
                                np.concatenate([x2_a, x2_b])])
    pv = np.concatenate([np.zeros(len(x1_a), dtype=np.int64),
                         np.ones(len(x1_b), dtype=np.int64)])
    labels = np.concatenate([y_a, y_b]).astype(np.int64)
    ds = LabeledDataset(features=features, pv=pv, labels=labels,
                        meta={"pv_tokens": {"a": 0, "b": 1}})
    return ds.validate()


def make_synth1(n_major: int, n_minor: int, n_outlier: int, seed: int) -> LabeledDataset:
    """Two features: x1 separates the groups (means 180 vs 150, std 10) and
    carries no label signal; x2 separates outliers (Normal(10,3)) from
    inliers (Exponential(1)).  Counts are exact; rows are laid out a-inliers,
    a-outliers, b-inliers, b-outliers."""
    k_a, k_b = _split_outliers(n_major, n_minor, n_outlier)
    rng = np.random.default_rng(seed)
    x1_a = rng.normal(180.0, 10.0, n_major)
    x1_b = rng.normal(150.0, 10.0, n_minor)

    def x2_block(n_g, k_g):
        inl = rng.exponential(1.0, n_g - k_g)
        out = rng.normal(10.0, 3.0, k_g)
        y = np.concatenate([np.zeros(n_g - k_g), np.ones(k_g)])
        return np.concatenate([inl, out]), y

    x2_a, y_a = x2_block(n_major, k_a)
    x2_b, y_b = x2_block(n_minor, k_b)
    return _assemble(x1_a, x2_a, y_a, x1_b, x2_b, y_b)


def make_synth2(n_major: int, n_minor: int, n_outlier: int, seed: int,
                x1_std: float = 1.44) -> LabeledDataset:
    """Both features carry group and label signal: inliers are Normal around
    (-1,-1) for group a and (1,1) for group b; every outlier coordinate is
    2*Exponential(1)*(1 - 2*Bernoulli(1/2)), a symmetric heavy tail.

    x1_std defaults to the literal 1.44 read as a standard deviation; pass
    1.2 to treat it as a variance instead."""
    k_a, k_b = _split_outliers(n_major, n_minor, n_outlier)
    rng = np.random.default_rng(seed)

    def heavy_tail(n_g):
        return 2.0 * rng.exponential(1.0, n_g) * (1.0 - 2.0 * rng.integers(0, 2, n_g))

    def block(n_g, k_g, mu):
        x1 = np.concatenate([rng.normal(mu, x1_std, n_g - k_g), heavy_tail(k_g)])
        x2 = np.concatenate([rng.normal(mu, 1.0, n_g - k_g), heavy_tail(k_g)])
        y = np.concatenate([np.zeros(n_g - k_g), np.ones(k_g)])
        return x1, x2, y

    x1_a, x2_a, y_a = block(n_major, k_a, -1.0)
    x1_b, x2_b, y_b = block(n_minor, k_b, 1.0)
    return _assemble(x1_a, x2_a, y_a, x1_b, x2_b, y_b)
