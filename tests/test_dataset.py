"""Dataset tests: CSV round-trip, token mapping, the columnar loader and
the block writer against their row-by-row oracles, standardization, and the
synthetic generators."""

import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from fairod.dataset import (
    LabeledDataset,
    ParseError,
    SchemaError,
    ValidationError,
    _SAVE_ROWS,
    _loadtxt_body,
    _map_pv_tokens,
    group_view,
    load_csv,
    make_synth1,
    make_synth2,
    save_csv,
    standardize,
)


def test_pv_token_mapping_majority_first():
    assert _map_pv_tokens(["m", "m", "f"]) == {"m": 0, "f": 1}
    assert _map_pv_tokens(["x", "y", "y", "z", "z", "z"]) == {"z": 0, "x": 1, "y": 2}
    # frequency tie: first appearance wins the majority slot
    assert _map_pv_tokens(["p", "q", "q", "p"]) == {"p": 0, "q": 1}


def test_load_csv_maps_tokens_and_reads_features(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("f_0,f_1,pv\n1.5,2,m\n3,4,m\n5,6,f\n7,8,f\n", encoding="utf-8")
    ds = load_csv(f)
    assert ds.pv_tokens == {"m": 0, "f": 1}
    assert list(ds.pv) == [0, 0, 1, 1]
    assert ds.labels is None
    assert_allclose(ds.features, [[1.5, 2], [3, 4], [5, 6], [7, 8]])


def test_load_csv_label_column_anywhere_rest_are_features(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("label,f_0,pv,f_1\n0,1,m,2\n1,3,m,4\n0,5,f,6\n1,7,f,8\n",
                 encoding="utf-8")
    ds = load_csv(f)
    assert list(ds.labels) == [0, 1, 0, 1]
    assert_allclose(ds.features, [[1, 2], [3, 4], [5, 6], [7, 8]])
    assert ds.pv_tokens == {"m": 0, "f": 1}


def test_load_csv_missing_pv_column(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("f_0,f_1\n1,2\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="pv"):
        load_csv(f)


@pytest.mark.parametrize("text", ["pv\nm\nm\nf\nf\n", "label,pv\n0,m\n1,m\n0,f\n0,f\n"],
                         ids=["pv", "label-pv"])
def test_load_csv_without_feature_column(tmp_path, text):
    f = tmp_path / "d.csv"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match="feature column"):
        load_csv(f)


def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("f_0,pv\n1,m\noops,m\n2,f\n3,f\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3.*f_0"):
        load_csv(f)


def test_load_csv_single_member_group_rejected(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("f_0,pv\n1,m\n2,m\n3,f\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="at least 2"):
        load_csv(f)


def test_load_csv_bad_label_value(tmp_path):
    f = tmp_path / "d.csv"
    f.write_text("f_0,pv,label\n1,m,0\n2,m,2\n3,f,0\n4,f,1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="label"):
        load_csv(f)


def test_save_load_round_trip_bit_exact(tmp_path):
    ds = make_synth1(40, 10, 4, seed=99)
    p = tmp_path / "s.csv"
    save_csv(ds, p)
    back = load_csv(p)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.pv, ds.pv)
    assert np.array_equal(back.labels, ds.labels)
    assert back.pv_tokens == {"a": 0, "b": 1}
    assert standardize(back).pv_tokens == back.pv_tokens


# -- the columnar loader against the row-by-row oracle --------------------------


def oracle_map_pv_tokens(tokens: list[str]) -> dict[str, int]:
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


def oracle_load_csv(path) -> LabeledDataset:
    """The row-by-row loader: csv.reader, then one float() per cell, row by
    row, so the first faulty line raises.  One leading byte-order mark is
    dropped."""
    data, offset = path.read_bytes(), 0
    for line, raw in enumerate(data.splitlines(keepends=True), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as e:
            at = offset + e.start
            raise ParseError(f"{path}: line {line}: not valid UTF-8: byte 0x{data[at]:02x} "
                             f"at file offset {at}: {e.reason}") from None
        offset += len(raw)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = list(csv.reader(fh))
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
    if not feat_ix:
        raise SchemaError(f"{path}: no feature column besides 'pv' and 'label'")

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

    mapping = oracle_map_pv_tokens(pv_tokens)
    ds = LabeledDataset(
        features=np.array(feats, dtype=np.float64),
        pv=np.array([mapping[t] for t in pv_tokens], dtype=np.int64),
        labels=np.array(labels, dtype=np.int64) if lab_ix is not None else None,
        pv_tokens=mapping,
    )
    return ds.validate()


def outcome(load, path):
    """A loader's result as comparable bytes, or its exception type and message."""
    try:
        ds = load(path)
    except Exception as e:  # the exception type is part of the outcome
        return type(e), str(e)
    arrays = (ds.features, ds.pv, ds.labels)
    return ([None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            list(ds.pv_tokens.items()))


def assert_loads_like_oracle(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(load_csv, path)
    assert got == outcome(oracle_load_csv, path)
    return got


HEADERS = [["f_0", "pv"], ["f_0", "f_1", "pv", "label"], ["label", "f_0", "pv", "f_1"],
           ["pv", "x"]]
BAD_HEADERS = [["f_0", "f_0", "pv"], ["f_0", "label"]]
FEATURES = ["1", "-2.5", "+3", "0", "-0.0", "3.25e-3", "1E5", "+.5e-3", "5.", "%.17g" % 0.1,
            "1e500", "-1e500", "1e-400", "4.9e-324", "2.2250738585072009e-308", "inf", "-inf",
            "+Infinity", "-INF", "nan", "-nan", "NaN", "+nAn", "1_0", "1_000.5", "1e1_0", "٣"]
BAD_FEATURES = ["", "abc", "1,5", "0x1", "1 2", "1__0", "_1", "infinit", "1e"]
# float() and NumPy's float parser both strip PADS around a number; only
# NumPy's strips SEPARATORS (0x1C-0x1F), which float() rejects
PADS = ["", "", "", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u3000"]
SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f"]
LABELS = ["0", "1", " 1", "0 ", "\t1"]
BAD_LABELS = ["2", "x", "", "1,0"]
PVS = ["a", "b"]
ODD_PVS = [" a", "a ", "c", "a,b", 'q"x', "two\nlines", "cr\rlf", "", "é"]


@st.composite
def csv_texts(draw):
    """CSV texts around the loader's edges: every line ending, blank and
    whitespace-only lines, ragged rows, quoted cells holding commas, line
    breaks and doubled quotes, float spellings with signs, exponents, inf and
    nan forms, underscores, overflow and subnormals, padded with Unicode
    whitespace, padded labels and pv tokens, a header-only body, a missing
    final line break and a leading byte-order mark.  Each kind of fault is
    switched on for a third of the texts, so clean texts, which NumPy
    parses, are common too."""
    def maybe(pool, extra):
        return pool + extra if draw(st.integers(0, 2)) == 0 else pool

    header = draw(st.sampled_from(maybe(HEADERS, BAD_HEADERS)))
    pools = {"pv": maybe(PVS, ODD_PVS), "label": maybe(LABELS, BAD_LABELS)}
    floats, pads = maybe(FEATURES, BAD_FEATURES), maybe(PADS, SEPARATORS)
    features = st.builds("".join, st.tuples(*map(st.sampled_from, (pads, floats, pads))))
    shapes = maybe(["ok"] * 4, ["short", "long", "blank", "space"])
    quote_some = draw(st.integers(0, 2)) == 0
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.sampled_from(pools[name]) if name in pools else features)
               for name in header]
        shape = draw(st.sampled_from(shapes))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + ["1"]
        elif shape == "blank":
            row = []
        elif shape == "space":
            row = [draw(st.sampled_from([" ", "\t", "  "]))]
        lines.append(row)

    def cell(text):
        if any(c in text for c in ',"\r\n') or (quote_some and draw(st.booleans())):
            return '"' + text.replace('"', '""') + '"'
        return text

    endings = maybe([draw(st.sampled_from(["\n", "\r\n", "\r"]))], ["\n", "\r\n", "\r"])
    out = "".join(",".join(cell(c) for c in row) + draw(st.sampled_from(endings))
                  for row in lines)
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + (out if draw(st.booleans()) else out.rstrip("\r\n"))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "d.csv"


@settings(max_examples=400)
@given(csv_texts())
def test_load_csv_matches_row_by_row_oracle(csv_path, text):
    csv_path.write_bytes(text.encode("utf-8"))
    assert_loads_like_oracle(csv_path)


@pytest.mark.parametrize("text", [
    "x,pv\n1,a\nzz,b\n2\n",  # a bad cell on an earlier line than a ragged row
    "x,pv\n1,a\n3\nq,b\n",  # a ragged row on an earlier line than a bad cell
    "x,pv,label\n1,a,0\nz,b,7\n",  # one line, two faults: the feature comes first
    "x,y,pv,label\n1,2,a,0\n3,4,b,9\n5,q,b,0\n",  # the label's line is earlier
    "x,pv\n1\x1c,a\n2,a\n3,b\n4,b\n",  # NumPy reads 1\x1c as 1.0, float() rejects it
    "x,pv\n1,a\n2,a\n\n3,b\n4,b\n",  # a blank line
    "x,pv\r1,a\r2,a\r3,b\r4,b\r",  # lone carriage returns
    "x,pv\n1,a\r2,a\n3,b\n4,b\n",  # one lone carriage return
    "x,pv\n",
    "x,pv\n\n",
    "x,pv\r\n\r\n",
    "x,pv",
    "",
], ids=["bad-cell-before-ragged", "ragged-before-bad-cell", "feature-before-label",
        "label-line-first", "file-separator", "blank-line", "cr", "one-cr", "header-only",
        "header-blank", "header-blank-crlf", "header-no-newline", "empty"])
def test_load_csv_pinned_cases_match_oracle(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_loads_like_oracle(path)


def test_first_faulty_line_wins_over_a_later_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,pv\n1,a\nzz,b\n2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 3, column 'x': non-numeric value 'zz'"):
        load_csv(path)


def test_header_only_file_warns_nothing(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f_0,pv\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="no data rows"):
            load_csv(path)


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_field_over_csv_limit_is_parse_error(tmp_path, quoted):
    huge = "7" * (csv.field_size_limit() + 1)
    path = tmp_path / "d.csv"
    last = '"b"' if quoted else "b"
    path.write_text(f"f_0,pv\n1,a\n{huge},a\n2,b\n3,{last}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 3: field larger than field limit"):
        load_csv(path)


def test_invalid_utf8_message_matches_oracle(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"f_0,pv\n" + b"1,a\n" * 5000 + b"2,\xff\n")
    got = assert_loads_like_oracle(path)
    assert got[0] is ParseError and "not valid UTF-8" in got[1]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_invalid_utf8_message_names_the_line_and_file_offset(tmp_path, end):
    # past the first 8 KiB, where a decode chunk's position is not the file's
    path = tmp_path / "d.csv"
    head = f"f_0,pv{end}".encode() + f"1,a{end}".encode() * 5000
    path.write_bytes(head + b"\xff,a" + end.encode())
    got = assert_loads_like_oracle(path)
    assert got == (ParseError, f"{path}: line 5002: not valid UTF-8: byte 0xff at file "
                               f"offset {len(head)}: invalid start byte")
    assert len(head) == {"\n": 20_007, "\r\n": 25_008, "\r": 20_007}[end]


def test_loadtxt_body_only_for_files_it_splits_like_csv(tmp_path):
    ds = make_synth1(40, 10, 4, seed=1)
    save_csv(ds, tmp_path / "s.csv")
    data = (tmp_path / "s.csv").read_bytes()  # csv.writer ends lines in \r\n
    header = ["f_0", "f_1", "pv", "label"]
    body = _loadtxt_body(data, header)
    assert body.dtype == np.dtype([("0", "f8"), ("1", "f8"), ("2", "O"), ("3", "O")])
    assert body.shape == (50,) and body["2"][0] == "a" and body["3"][-1] == "1"
    assert np.column_stack([body["0"], body["1"]]).tobytes() == ds.features.tobytes()
    assert _loadtxt_body(data.replace(b"\r\n", b"\n"), header).shape == (50,)
    assert _loadtxt_body(data.rstrip(), header).shape == (50,)
    assert _loadtxt_body(b"\xef\xbb\xbf" + data, header).shape == (50,)
    long_line = "f_0,pv\n" + "1" * csv.field_size_limit() + "1,a\n"
    for other in ['f_0,pv\n1,"a"\n', "f_0,pv\n1,a\n\n2,b\n", "f_0,pv\n1,a\r\n\r\n",
                  "f_0,pv\r1,a\r", "f_0,pv\n1,a\r2,b\n", "f_0,pv\n", "f_0,pv\n1\n", long_line,
                  "f_0,pv\n1,a\n  \n2,b\n", "f_0,pv\n1\x1c,a\n", "f_0,pv\n1,a\x1f\n",
                  "f_0,pv\n1_0,a\n", "f_0,pv\nx,a\n", "f_0,pv\n1,a,2\n"]:
        assert _loadtxt_body(other.encode(), ["f_0", "pv"]) is None, other


@pytest.mark.parametrize("quote", ["", '"'], ids=["loadtxt", "csv-reader"])
@pytest.mark.parametrize("header", ["label,x,pv", "pv,x,label"])
def test_load_csv_drops_a_leading_byte_order_mark(tmp_path, header, quote):
    cells = {"label": "0100", "x": ["1.5", "2", "3", "4"],
             "pv": [quote + g + quote for g in "aabb"]}
    lines = [header] + [",".join(cells[k][i] for k in header.split(",")) for i in range(4)]
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode() + b"\n")
    assert_loads_like_oracle(path)
    ds = load_csv(path)
    assert ds.labels.tolist() == [0, 1, 0, 0]
    assert ds.features.tolist() == [[1.5], [2.0], [3.0], [4.0]]
    assert ds.pv_tokens == {"a": 0, "b": 1}


def test_invalid_utf8_offset_after_a_byte_order_mark_is_the_file_offset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbff_0,pv\n1,a\n\xff,a\n")  # the 0xff is byte 3 + 7 + 4
    assert assert_loads_like_oracle(path) == (
        ParseError, f"{path}: line 3: not valid UTF-8: byte 0xff at file offset 14: "
                    "invalid start byte")


def test_load_csv_peak_memory_is_bounded(tmp_path):
    path = tmp_path / "s.csv"
    save_csv(make_synth2(40_000, 10_000, 2_500, seed=1), path)  # quote-free
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        load_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


# -- the block writer against the row-by-row oracle ------------------------------


def oracle_save_csv(ds: LabeledDataset, path) -> None:
    """Write `f_0..f_{d-1}, pv [, label]` with lossless float rendering."""
    inverse = {gid: tok for tok, gid in (ds.pv_tokens or {}).items()}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        header = [f"f_{j}" for j in range(ds.d)] + ["pv"]
        if ds.labels is not None:
            header.append("label")
        w.writerow(header)
        for i in range(ds.n):
            row = ["%.17g" % v for v in ds.features[i]]
            row.append(inverse.get(int(ds.pv[i]), str(int(ds.pv[i]))))
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            w.writerow(row)


def assert_saves_like_oracle(ds: LabeledDataset, directory):
    save_csv(ds, directory / "got.csv")
    oracle_save_csv(ds, directory / "want.csv")
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"), 0.1,
               1 / 3, -2.7182818284590451]
SAVE_TOKENS = ["", ",", '"', "\r", "\n", " x", "é", "1"]


@st.composite
def datasets_to_save(draw):
    """Datasets of 0 to 3 blocks + 1 rows, block multiples and their
    neighbours included, with 1-5 features drawn from a pool of floats
    (signed zeros, subnormals, infinities, nan, the largest finite values,
    17-digit values), pv ids 0-3 written as numbers or as tokens that
    csv.writer quotes or leaves bare, and optional 0/1 labels."""
    rows = [0, 1, _SAVE_ROWS - 1, _SAVE_ROWS, _SAVE_ROWS + 1, 2 * _SAVE_ROWS,
            3 * _SAVE_ROWS, 3 * _SAVE_ROWS + 1]
    n = draw(st.sampled_from(rows) | st.integers(0, 3 * _SAVE_ROWS + 1))
    d = draw(st.integers(1, 5))
    pool = draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), min_size=1, max_size=12))
    tokens = draw(st.none() | st.lists(st.sampled_from(SAVE_TOKENS), unique=True, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return LabeledDataset(
        features=rng.choice(np.array(pool), size=(n, d)),
        pv=rng.integers(0, 4, n),
        labels=rng.integers(0, 2, n) if draw(st.booleans()) else None,
        pv_tokens=None if tokens is None else {t: i for i, t in enumerate(tokens)},
    )


@pytest.fixture(scope="module")
def save_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@settings(max_examples=100)
@given(datasets_to_save())
def test_save_csv_matches_row_by_row_oracle(save_dir, ds):
    assert_saves_like_oracle(ds, save_dir)


@pytest.mark.parametrize("n", [_SAVE_ROWS, _SAVE_ROWS + 1])
@pytest.mark.parametrize("labels", [False, True])
def test_save_csv_block_boundaries_and_empty_token_match_oracle(tmp_path, n, labels):
    rng = np.random.default_rng(n)
    ds = LabeledDataset(features=rng.normal(size=(n, 2)), pv=rng.integers(0, 3, n),
                        labels=rng.integers(0, 2, n) if labels else None,
                        pv_tokens={"": 0, "b": 1})  # id 2 is written as `2`
    assert_saves_like_oracle(ds, tmp_path)
    assert b'""' not in (tmp_path / "got.csv").read_bytes()  # empty among other fields


def test_save_csv_empty_token_alone_in_its_row_is_quoted(tmp_path):
    """With no feature and no label column, pv is the row's only field, and
    csv.writer writes an empty token as `""`."""
    ds = LabeledDataset(features=np.empty((3, 0)), pv=[0, 1, 0], pv_tokens={"": 0, "b": 1})
    assert_saves_like_oracle(ds, tmp_path)
    assert (tmp_path / "got.csv").read_bytes() == b'pv\r\n""\r\nb\r\n""\r\n'


def test_save_csv_peak_memory_is_bounded(tmp_path):
    """The writer holds one block of rows at a time, whatever the row count."""
    peaks = []
    for n_major, n_minor in ((16_000, 4_000), (64_000, 16_000)):
        ds = make_synth2(n_major, n_minor, 1_000, seed=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_csv(ds, tmp_path / f"{ds.n}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]
    assert max(peaks) < 2 * 2**20


def test_standardize_hand_example():
    ds = LabeledDataset(features=np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]),
                        pv=np.array([0, 0, 1]))
    out = standardize(ds)
    assert_allclose(out.features[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)
    assert_allclose(out.features[:, 1], [0.0, 0.0, 0.0])  # constant column


def test_standardize_needs_two_rows():
    ds = LabeledDataset(features=np.ones((1, 2)), pv=np.array([0]))
    with pytest.raises(ValidationError, match="N >= 2"):
        standardize(ds)


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    ds = LabeledDataset(features=rng.normal(5, 3, size=(50, 3)), pv=np.zeros(50, dtype=int))
    once = standardize(ds)
    twice = standardize(once)
    assert_allclose(twice.features, once.features, atol=1e-12)


def test_group_view_basic_and_partition():
    ds = LabeledDataset(features=np.zeros((3, 1)), pv=np.array([0, 1, 0]))
    view = group_view(ds)
    assert list(view[0]) == [0, 2]
    assert list(view[1]) == [1]
    all_ix = np.sort(np.concatenate(list(view.values())))
    assert np.array_equal(all_ix, np.arange(3))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_group_view_partitions_everything(pvs):
    ds = LabeledDataset(features=np.zeros((len(pvs), 1)), pv=np.array(pvs))
    view = group_view(ds)
    got = np.sort(np.concatenate(list(view.values())))
    assert np.array_equal(got, np.arange(len(pvs)))
    for g, idx in view.items():
        assert np.all(np.diff(idx) > 0)
        assert np.all(ds.pv[idx] == g)


# -- generators -------------------------------------------------------------------


def test_synth1_exact_counts():
    ds = make_synth1(2000, 400, 120, seed=3)
    view = group_view(ds)
    assert len(view[0]) == 2000 and len(view[1]) == 400
    assert int(ds.labels.sum()) == 120
    # proportional split keeps one outlier rate across groups
    assert int(ds.labels[view[0]].sum()) == 100
    assert int(ds.labels[view[1]].sum()) == 20


def test_synth1_distribution_moments():
    ds = make_synth1(2000, 400, 120, seed=3)
    view = group_view(ds)
    x1_a = ds.features[view[0], 0]
    assert abs(x1_a.mean() - 180.0) < 1.0
    x1_b = ds.features[view[1], 0]
    assert abs(x1_b.mean() - 150.0) < 1.6
    inlier_x2 = ds.features[ds.labels == 0, 1]
    assert abs(inlier_x2.mean() - 1.0) < 0.1
    outlier_x2 = ds.features[ds.labels == 1, 1]
    assert abs(outlier_x2.mean() - 10.0) < 1.0


def test_synth1_determinism():
    a = make_synth1(200, 50, 10, seed=42)
    b = make_synth1(200, 50, 10, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.pv, b.pv)
    assert np.array_equal(a.labels, b.labels)
    c = make_synth1(200, 50, 10, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_synth1_x1_carries_no_label_signal():
    # AP of a detector ranking on x1 alone sits at the outlier base rate
    ds = make_synth1(2000, 400, 120, seed=17)
    z = np.abs(ds.features[:, 0] - ds.features[:, 0].mean())
    order = np.lexsort((np.arange(ds.n), -z))
    ranked_labels = ds.labels[order]
    hits = np.cumsum(ranked_labels)
    ranks = np.arange(1, ds.n + 1)
    ap = float(np.mean((hits / ranks)[ranked_labels == 1]))
    assert abs(ap - 120 / 2400) < 0.03


def test_synth2_exact_counts_and_moments():
    ds = make_synth2(2000, 400, 120, seed=5)
    view = group_view(ds)
    assert len(view[0]) == 2000 and len(view[1]) == 400
    assert int(ds.labels.sum()) == 120
    out_x1 = ds.features[ds.labels == 1, 0]
    assert abs(out_x1.mean()) < 0.6
    inl_a_x1 = ds.features[(ds.labels == 0) & (ds.pv == 0), 0]
    assert abs(inl_a_x1.mean() + 1.0) < 0.1
    inl_b_x2 = ds.features[(ds.labels == 0) & (ds.pv == 1), 1]
    assert abs(inl_b_x2.mean() - 1.0) < 0.15


def test_synth_rejects_more_outliers_than_rows():
    with pytest.raises(ValidationError, match="more outliers requested than rows"):
        make_synth1(5, 5, 11, seed=0)


def test_synth2_determinism_and_std_override():
    a = make_synth2(100, 50, 6, seed=9)
    b = make_synth2(100, 50, 6, seed=9)
    assert np.array_equal(a.features, b.features)
    narrow = make_synth2(2000, 400, 0, seed=9, x1_std=1.2)
    wide = make_synth2(2000, 400, 0, seed=9, x1_std=1.44)
    assert narrow.features[:, 0].std() < wide.features[:, 0].std()


def test_validate_rejects_bad_labels():
    ds = LabeledDataset(features=np.zeros((4, 1)), pv=np.array([0, 0, 1, 1]),
                        labels=np.array([0, 2, 0, 1]))
    with pytest.raises(ValidationError, match="0/1"):
        ds.validate()


@pytest.mark.parametrize("pv, labels, message", [
    ([0, 0, 1], [0, 1, 0, 1], "pv length"),
    ([0, 0, 1, 1], [0, 1, 0], "labels length")])
def test_validate_rejects_mismatched_lengths(pv, labels, message):
    ds = LabeledDataset(features=np.zeros((4, 1)), pv=np.array(pv), labels=np.array(labels))
    with pytest.raises(ValidationError, match=message):
        ds.validate()
