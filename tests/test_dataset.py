"""Dataset tests: CSV round-trip, token mapping, standardization, and the
synthetic generators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fairod.dataset import (
    LabeledDataset,
    ParseError,
    SchemaError,
    ValidationError,
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


def test_standardize_hand_example():
    ds = LabeledDataset(features=np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]),
                        pv=np.array([0, 0, 1]))
    out = standardize(ds)
    assert_allclose(out.features[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)
    assert_allclose(out.features[:, 1], [0.0, 0.0, 0.0])  # constant column


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
