"""Dataset container, CSV interchange, standardization, and the two
synthetic generators.

CSV schema: feature columns (header order preserved), a categorical `pv`
column, and an optional binary `label` column.  Floats are rendered with 17
significant digits so save/load round-trips are bit-exact.

Loading: csv.reader with the csv module's default dialect defines how a file
splits, and float() how a feature cell reads; one leading byte-order mark
(U+FEFF) is dropped.  A quote-free file, such as the synthetic sets
`save_csv` writes, is parsed by one typed np.loadtxt pass straight from the
file's bytes (float64 features, string pv and label cells); with
one-character pv tokens its peak is about twice the file's size.  A file
that pass could read otherwise (quotes, a lone CR, a blank line, an
over-long line, a byte 0x1C-0x1F), and any file on which it raises
ValueError (a ragged row, a bad cell, a float spelling only float() reads
such as `1_000`), goes through csv.reader instead, which names the first
faulty line.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


class DataError(Exception):
    """Base class for dataset construction and I/O failures."""


class SchemaError(DataError):
    """Required column missing or header malformed."""


class ParseError(DataError):
    """A cell could not be parsed; message carries row and column."""


class ValidationError(DataError):
    """Dataset content violates an invariant (group sizes, label domain)."""


@dataclass
class LabeledDataset:
    """Feature matrix with per-row group ids and optional outlier labels.

    pv ids are small integers with 0 = majority group a, 1 = minority b;
    ids >= 2 are allowed for multi-valued protected attributes.
    `pv_tokens` maps each CSV pv token to its id; None when the ids are
    written as they are.
    """

    features: np.ndarray
    pv: np.ndarray
    labels: np.ndarray | None = None
    pv_tokens: dict[str, int] | None = None

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


def pv_groups(pv: np.ndarray) -> GroupView:
    """Group id -> ascending positions in pv, ids ascending; the lists
    partition 0..len(pv)-1.  A dataset and a training batch are grouped here."""
    return {int(g): np.flatnonzero(pv == g) for g in np.unique(pv)}


def group_view(ds: LabeledDataset) -> GroupView:
    """Group id -> ascending row indices of the dataset."""
    return pv_groups(ds.pv)


# -- CSV interchange -------------------------------------------------------------


def _fmt(x: float) -> str:
    return "%.17g" % x


def save_csv(ds: LabeledDataset, path) -> None:
    """Write `f_0..f_{d-1}, pv [, label]` with lossless float rendering."""
    inverse = {gid: tok for tok, gid in (ds.pv_tokens or {}).items()}
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


def _map_pv_tokens(tokens: Iterable[str]) -> dict[str, int]:
    """Most frequent token becomes id 0; the rest follow first appearance."""
    counts = Counter(tokens)
    majority = counts.most_common(1)[0][0]  # ties go to the first seen
    return {t: i for i, t in enumerate(dict.fromkeys([majority, *counts]))}


def _read_utf8(path) -> bytes:
    """The file's bytes.  Bytes that are not UTF-8 are a ParseError naming
    the line and the file offset of the first."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii():  # ASCII is UTF-8; anything else is decoded once to check
        return data
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"{path}: line {line}: not valid UTF-8: byte 0x{data[e.start]:02x} "
                         f"at file offset {e.start}: {e.reason}") from None
    return data


def _text(data: bytes) -> io.TextIOWrapper:
    """A text stream over UTF-8 `data`, line ends untranslated, without one
    leading byte-order mark (U+FEFF), as Excel and `utf-8-sig` write it."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _records(data: bytes, path, stop: int | None = None) -> list[list[str]]:
    """The first `stop` records (default all) as csv.reader splits them; a
    csv error, such as a field over csv.field_size_limit(), is a ParseError
    naming its line."""
    records: list[list[str]] = []
    with _text(data) as stream:
        try:
            for record in itertools.islice(csv.reader(stream), stop):
                records.append(record)
        except csv.Error as e:
            raise ParseError(f"{path}: line {len(records) + 1}: {e}") from None
    return records


# bytes compared at once while finding line ends, so the scan's temporaries
# stay small next to the file
_SCAN_BYTES = 1 << 20


def _data_lines(data: bytes) -> int:
    """The number of lines after the header when np.loadtxt and csv.reader
    split `data` alike, else 0.  They do when no cell is quoted, every line
    ends in LF, CRLF or the end of the file, data lines follow the header
    and none is blank, and no line could hold a field over
    csv.field_size_limit()."""
    if b'"' in data or re.search(rb"\r(?!\n)", data):
        return 0
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = [lo + np.flatnonzero(raw[lo:lo + _SCAN_BYTES] == ord("\n"))
            for lo in range(0, raw.size, _SCAN_BYTES)]
    if not data.endswith(b"\n"):
        ends.append([raw.size])
    # in UTF-8 bytes, so at least the characters
    lengths = np.diff(np.concatenate(ends), prepend=-1) - 1
    # a data line of one byte or none is blank or narrower than any valid
    # header; csv.reader names the error
    if lengths.size < 2 or lengths[1:].min() < 2 or lengths.max() > csv.field_size_limit():
        return 0
    return lengths.size - 1


def _loadtxt_body(data: bytes, header: list[str]) -> np.ndarray | None:
    """The rows after the header, parsed by one typed np.loadtxt pass into a
    structured array with one field per header column, named by its
    position: float64 for a feature, the cell string for `pv` and `label`.

    None when loadtxt might read the file otherwise than csv.reader and
    float().  They split it alike where `_data_lines` says so, and parse
    floats alike but for bytes 0x1C-0x1F, which NumPy strips as whitespace
    and float() rejects, so a file holding one is not read here.  Any
    ValueError from loadtxt, such as a row of another width or a cell
    float() might still read (`1_000`), also gives None."""
    rows = _data_lines(data)
    if not rows or any(byte in data for byte in b"\x1c\x1d\x1e\x1f"):
        return None
    dtype = np.dtype([(str(j), object if name in ("pv", "label") else np.float64)
                      for j, name in enumerate(header)])
    try:
        with _text(data) as stream:
            body = np.loadtxt(stream, delimiter=",", dtype=dtype, comments=None, skiprows=1,
                              ndmin=1)
    except ValueError:
        return None
    # loadtxt skips empty lines, which csv.reader reads as records
    return body if body.size == rows else None


def _first(tokens, ok) -> int:
    """Index of the first token that fails `ok`."""
    return next(i for i, t in enumerate(tokens) if not ok(t))


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path) -> LabeledDataset:
    """Read a dataset CSV: a required `pv` column, an optional 0/1 `label`
    column, and every other column a feature.  pv tokens are mapped to ids
    with the most frequent token forced to 0 (majority); the mapping is
    recorded in `pv_tokens`.  One leading byte-order mark is dropped.

    The dialect is the csv module's default.  A quote-free file is parsed by
    one typed np.loadtxt pass (`_loadtxt_body`); any other file, and any file
    that pass rejects or could read differently, by csv.reader, whose cells
    are then converted a column at once.  An error names the first faulty
    line as a row-by-row reader would: its width, then its feature cells in
    header order, then its label.
    """
    data = _read_utf8(path)
    records = _records(data, path, stop=1)
    body = _loadtxt_body(data, records[0]) if records else None
    if body is None:
        records = _records(data, path)
    del data  # the rest needs only the cells; a large file's bytes outweigh them
    if not records:
        raise SchemaError(f"{path}: empty file, header required")
    header = records[0]
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    if "pv" not in header:
        raise SchemaError(f"{path}: missing pv column 'pv'")
    pv_ix = header.index("pv")
    lab_ix = header.index("label") if "label" in header else None
    feat_ix = [j for j in range(len(header)) if j != pv_ix and j != lab_ix]
    if not feat_ix:
        raise SchemaError(f"{path}: no feature column besides 'pv' and 'label'")

    # columns: those of the rows before the first ragged one, whose width is `ragged`
    width = len(header)
    ragged = None
    if body is None:
        rows = records[1:]
        n = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
        if n < len(rows):
            ragged = len(rows[n])
        columns = list(np.array(rows[:n], dtype=object).reshape(n, width).T)
    else:
        n = body.size
        columns = [body[name] for name in body.dtype.names]

    faults = []  # (row, position in the row's check order, message)
    features = np.empty((n, len(feat_ix)))
    for k, j in enumerate(feat_ix):
        try:
            features[:, k] = columns[j]
        except ValueError:
            i = _first(columns[j], _is_float)
            faults.append((i, k, f"column '{header[j]}': non-numeric value {columns[j][i]!r}"))
    labels = None
    if lab_ix is not None:
        column = columns[lab_ix]
        distinct = dict.fromkeys(column)
        ids = {t: int(t.strip()) for t in distinct if t.strip() in ("0", "1")}
        if len(ids) < len(distinct):
            i = _first(column, ids.__contains__)
            faults.append((i, len(feat_ix), f"column '{header[lab_ix]}': "
                                            f"label must be 0 or 1, got {column[i].strip()!r}"))
        else:
            labels = np.fromiter(map(ids.__getitem__, column), dtype=np.int64, count=n)
    if faults:
        i, _, message = min(faults)
        raise ParseError(f"{path}: line {i + 2}, {message}")
    if ragged is not None:
        raise ParseError(f"{path}: line {n + 2}: expected {width} cells, got {ragged}")
    if n == 0:
        raise ValidationError(f"{path}: no data rows")

    mapping = _map_pv_tokens(columns[pv_ix])
    ds = LabeledDataset(
        features=features,
        pv=np.fromiter(map(mapping.__getitem__, columns[pv_ix]), dtype=np.int64, count=n),
        labels=labels,
        pv_tokens=mapping,
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
        pv_tokens=ds.pv_tokens,
    )


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
                        pv_tokens={"a": 0, "b": 1})
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
