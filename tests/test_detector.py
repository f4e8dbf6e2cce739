"""Detector tests: sizing rule, Glorot init, forward pass, scoring."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fairod.detector import (
    AEConfig,
    AutoencoderParams,
    hidden_size_rule,
    init_params,
    score,
    score_graph,
)
from fairod.numgrad import as_var


def zero_params(d, m):
    return AutoencoderParams(
        W_enc1=np.zeros((d, m)), b_enc1=np.zeros(m),
        W_dec1=np.zeros((m, m)), b_dec1=np.zeros(m),
        W_out=np.zeros((m, d)), b_out=np.zeros(d),
    )


def test_hidden_size_rule_boundaries():
    assert hidden_size_rule(2) == 2
    assert hidden_size_rule(100) == 2
    assert hidden_size_rule(101) == 8
    assert hidden_size_rule(1549) == 8
    with pytest.raises(ValueError):
        hidden_size_rule(0)


def test_init_params_deterministic_and_glorot_bounded():
    cfg = AEConfig(input_dim=6, hidden_dim=2, seed=11)
    p1, p2 = init_params(cfg), init_params(cfg)
    for k, a in p1.to_dict().items():
        assert np.array_equal(a, p2.to_dict()[k])
    p3 = init_params(AEConfig(input_dim=6, hidden_dim=2, seed=12))
    assert not np.array_equal(p1.W_enc1, p3.W_enc1)
    assert np.all(np.abs(p1.W_enc1) <= np.sqrt(6.0 / (6 + 2)))
    assert np.all(np.abs(p1.W_dec1) <= np.sqrt(6.0 / (2 + 2)))
    assert np.all(np.abs(p1.W_out) <= np.sqrt(6.0 / (2 + 6)))
    assert np.all(p1.b_enc1 == 0) and np.all(p1.b_dec1 == 0) and np.all(p1.b_out == 0)


def test_reconstruct_zero_net_gives_zero():
    # the zero net reconstructs every row as 0, so each score is the squared norm
    p = zero_params(3, 2)
    X = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    assert_allclose(score(p, X), [5.25, 0.0])


def test_score_finite_for_finite_input(rng):
    cfg = AEConfig(input_dim=4, hidden_dim=2, seed=3)
    p = init_params(cfg)
    X = rng.normal(size=(10, 4)) * 100
    assert np.all(np.isfinite(score(p, X)))


def test_score_hand_example():
    # X=[1,1] reconstructed as [0,0] -> squared error 2
    p = zero_params(2, 2)
    assert_allclose(score(p, np.array([1.0, 1.0])), [2.0])


def test_score_nonnegative_and_zero_iff_exact(rng):
    p = init_params(AEConfig(input_dim=3, hidden_dim=2, seed=5))
    X = rng.normal(size=(20, 3))
    s = score(p, X)
    assert np.all(s >= 0)
    assert not np.any(s == 0)


def test_score_batch_matches_rowwise(rng):
    p = init_params(AEConfig(input_dim=5, hidden_dim=2, seed=9))
    X = rng.normal(size=(8, 5))
    batch = score(p, X)
    rows = np.array([score(p, X[i])[0] if score(p, X[i]).ndim else score(p, X[i])
                     for i in range(8)])
    assert_allclose(batch, rows, atol=1e-12, rtol=0)


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 300))
def test_numpy_forward_is_the_tape_forward_bit_for_bit(seed, d, n):
    # scoring runs the training forward pass; the tape's value path must see
    # the same bits
    rng = np.random.default_rng(seed)
    p = init_params(AEConfig.for_dim(d, seed=seed))
    X = rng.normal(size=(n, d)) * 3.0
    tape = {k: as_var(v) for k, v in p.to_dict().items()}
    assert score(p, X).tobytes() == score_graph(tape, X).value.tobytes()


@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 300))
def test_score_is_row_permutation_equivariant(seed, d, n):
    # each row's score reads that row alone; the tolerance allows a BLAS that
    # orders a row's sums by where the row falls in its block
    rng = np.random.default_rng(seed)
    p = init_params(AEConfig.for_dim(d, seed=seed))
    X = rng.normal(size=(n, d)) * 3.0
    perm = rng.permutation(n)
    assert_allclose(score(p, X[perm]), score(p, X)[perm], rtol=1e-12, atol=0.0)


def test_shape_mismatch_raises():
    p = zero_params(3, 2)
    with pytest.raises(ValueError):
        score(p, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        score(p, np.zeros(2))


def test_params_json_round_trip_exact(rng):
    p = init_params(AEConfig(input_dim=4, hidden_dim=2, seed=21))
    q = AutoencoderParams.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    assert q.to_json_dict() == p.to_json_dict()
    assert p.to_json_dict()["activation"] == "tanh"
    for k, a in p.to_dict().items():
        assert np.array_equal(a, q.to_dict()[k])


@given(st.integers(1, 99), st.integers(101, 2000))
def test_hidden_size_rule_property(small, large):
    assert hidden_size_rule(small) == 2
    assert hidden_size_rule(large) == 8


def test_activation_validation():
    # the detector is tanh-only; a model file naming another activation is refused
    doc = zero_params(2, 2).to_json_dict()
    doc["activation"] = "relu"
    with pytest.raises(ValueError, match="relu"):
        AutoencoderParams.from_json_dict(doc)
