"""Gradient engine tests: every analytic gradient is checked against the
central finite-difference oracle, and Adam against hand-computed steps."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fairod import numgrad
from fairod.numgrad import (
    NumericalOverflowError,
    Var,
    adam_step,
    as_var,
    eval_loss,
    eval_loss_grad_components,
    finite_diff_grad,
    init_adam,
    leaf,
)


class FnSpec:
    """Adapter turning a plain function into the loss_spec protocol."""

    def __init__(self, fn):
        self.fn = fn

    def components(self, param_vars, batch):
        return self.fn(param_vars, batch), {}


def max_rel_err(analytic, numeric):
    worst = 0.0
    for k in analytic:
        denom = np.maximum(np.abs(numeric[k]), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic[k] - numeric[k]) / denom)))
    return worst


def check_grads(params, batch, spec, tol=1e-4):
    _, got = eval_loss_grad_components(params, batch, spec)[:2]
    want = finite_diff_grad(params, batch, spec)
    assert max_rel_err(got, want) < tol


# -- individual operations ----------------------------------------------------


def test_add_mul_sub_div_grads(rng):
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4)) + 3.0}
    spec = FnSpec(lambda p, _: ((p["a"] * p["b"] + p["a"] - p["b"] / p["a"]) * 0.5).sum())
    check_grads(params, np.zeros(1), spec)


def test_broadcast_grads(rng):
    # (3,4) against (4,) and scalar: unbroadcast must sum the right axes
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4,)), "c": np.array(0.7)}
    spec = FnSpec(lambda p, _: ((p["a"] + p["b"]) * p["c"]).sum())
    check_grads(params, np.zeros(1), spec)


def test_matmul_grads(rng):
    params = {"w": rng.normal(size=(4, 2)), "u": rng.normal(size=(2, 3))}
    x = rng.normal(size=(5, 4))
    spec = FnSpec(lambda p, b: ((as_var(b) @ p["w"]) @ p["u"]).sum())
    check_grads(params, x, spec)


def test_elementwise_grads(rng):
    params = {"a": rng.normal(size=(6,))}

    def fn(p, _):
        a = p["a"]
        return (a.tanh() + (a * 0.1).exp()).sum()

    check_grads(params, np.zeros(1), FnSpec(fn))


def test_log_sqrt_abs_grads(rng):
    params = {"a": rng.uniform(0.5, 2.0, size=(5,))}

    def fn(p, _):
        a = p["a"]
        return (a.log() + a.log2() + a.sqrt() + (a - 1.3).abs()).sum()

    check_grads(params, np.zeros(1), FnSpec(fn))


def test_sum_axis_mean_reshape_take_rows_grads(rng):
    params = {"a": rng.normal(size=(4, 3))}
    idx = np.array([2, 0, 2])

    def fn(p, _):
        a = p["a"]
        rows = a.take_rows(idx)          # repeated index: grads must accumulate
        m = rows.sum(axis=1).mean()
        outer = a.reshape((12, 1)) - a.reshape((1, 12))
        return m + (outer * outer).sum() * 0.01

    check_grads(params, np.zeros(1), FnSpec(fn))


@given(st.integers(0, 2 ** 32 - 1))
def test_composite_function_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = {
        "w": rng.normal(scale=0.5, size=(3, 2)),
        "b": rng.normal(scale=0.5, size=(2,)),
    }
    x = rng.normal(size=(5, 3))

    def fn(p, batch):
        h = (as_var(batch) @ p["w"] + p["b"]).tanh()
        s = (h * h).sum(axis=1)
        centered = s - s.mean()
        var = (centered * centered).mean()
        return s.sum() * 0.1 + centered.abs().sum() / (var.sqrt() + 1e-8)

    params2 = {k: v.copy() for k, v in params.items()}
    _, got = eval_loss_grad_components(params, x, FnSpec(fn))[:2]
    want = finite_diff_grad(params2, x, FnSpec(fn))
    assert max_rel_err(got, want) < 1e-4


# -- engine behaviour ----------------------------------------------------------


def test_untouched_params_get_zero_grads(rng):
    params = {"a": rng.normal(size=(2,)), "unused": rng.normal(size=(3, 3))}
    spec = FnSpec(lambda p, _: (p["a"] * p["a"]).sum())
    _, grads = eval_loss_grad_components(params, np.zeros(1), spec)[:2]
    assert np.array_equal(grads["unused"], np.zeros((3, 3)))


def test_backward_requires_scalar():
    v = leaf(np.ones(3), "v")
    with pytest.raises(ValueError):
        (v * 2.0).backward()


def test_shared_subgraph_accumulates(rng):
    a = leaf(rng.normal(size=(3,)), "a")
    y = a * a
    out = (y + y).sum()
    out.backward()
    assert_allclose(a.grad, 4.0 * a.value, rtol=1e-12)


def test_overflow_raises_named_error():
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(NumericalOverflowError, match="exp"):
            as_var(np.array([1000.0])).exp()
        with pytest.raises(NumericalOverflowError, match="div"):
            as_var(np.array([1.0])) / as_var(np.array([0.0]))


def test_eval_is_deterministic(rng):
    params = {"w": rng.normal(size=(3, 3))}
    x = rng.normal(size=(4, 3))
    spec = FnSpec(lambda p, b: ((as_var(b) @ p["w"]).tanh()).sum())
    l1, g1 = eval_loss_grad_components(params, x, spec)[:2]
    l2, g2 = eval_loss_grad_components(params, x, spec)[:2]
    assert l1 == l2
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_eval_loss_matches_grad_path_value(rng):
    params = {"w": rng.normal(size=(3, 2))}
    x = rng.normal(size=(4, 3))

    def fn(p, b):
        y = as_var(b) @ p["w"]
        return (y * y).sum()

    spec = FnSpec(fn)
    assert eval_loss(params, x, spec) == eval_loss_grad_components(params, x, spec)[0]


def test_finite_diff_on_quadratic():
    params = {"t": np.array([3.0])}
    spec = FnSpec(lambda p, _: (p["t"] * p["t"]).sum())
    g = finite_diff_grad(params, np.zeros(1), spec, h=1e-5)
    assert_allclose(g["t"], [6.0], atol=1e-6)


def test_finite_diff_on_constant_loss():
    params = {"t": np.array([1.0, -2.0])}
    spec = FnSpec(lambda p, _: as_var(np.array(7.0)) + 0.0 * p["t"].sum())
    g = finite_diff_grad(params, np.zeros(1), spec)
    assert_allclose(g["t"], [0.0, 0.0], atol=1e-12)


# -- Adam -----------------------------------------------------------------------


def test_adam_first_step_hand_example():
    # theta=0, g=1, lr=0.1: m_hat=1, v_hat=1 -> theta1 = -0.1/(1+1e-8)
    params = {"t": np.array([0.0])}
    state = init_adam(params, lr=0.1)
    out, state = adam_step(state, params, {"t": np.array([1.0])})
    assert_allclose(out["t"], [-0.1 / (1.0 + 1e-8)], rtol=0, atol=1e-18)
    assert state.step == 1


def test_adam_two_steps_hand_example():
    # second step with g=1 again, computed by hand:
    # m2=0.19, v2=0.001999, m_hat=1, v_hat=1 -> another full -0.1/(1+1e-8)
    params = {"t": np.array([0.0])}
    g = {"t": np.array([1.0])}
    state = init_adam(params, lr=0.1)
    p1, state = adam_step(state, params, g)
    p2, state = adam_step(state, p1, g)
    m2 = 0.9 * 0.1 + 0.1 * 1.0
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    mh = m2 / (1 - 0.9 ** 2)
    vh = v2 / (1 - 0.999 ** 2)
    want = p1["t"] - 0.1 * mh / (np.sqrt(vh) + 1e-8)
    assert_allclose(p2["t"], want, rtol=1e-15)


def test_adam_deterministic_and_shape_preserving(rng):
    params = {"w": rng.normal(size=(4, 2)), "b": rng.normal(size=(2,))}
    grads = {"w": rng.normal(size=(4, 2)), "b": rng.normal(size=(2,))}
    s1 = init_adam(params, lr=0.01)
    s2 = init_adam(params, lr=0.01)
    o1, _ = adam_step(s1, params, grads)
    o2, _ = adam_step(s2, params, grads)
    for k in params:
        assert o1[k].shape == params[k].shape
        assert np.array_equal(o1[k], o2[k])


def test_adam_zero_gradient_leaves_params_and_decays_moments():
    params = {"t": np.array([2.0])}
    zero = {"t": np.array([0.0])}
    state = init_adam(params, lr=0.1)
    out, state = adam_step(state, params, zero)
    assert np.array_equal(out["t"], params["t"])
    # nonzero moments decay toward zero under zero gradients
    state.m["t"][:] = 1.0
    state.v["t"][:] = 1.0
    _, state = adam_step(state, out, zero)
    assert state.m["t"][0] == 0.9 and state.v["t"][0] == 0.999


def test_adam_constant_gradient_moves_monotonically():
    params = {"t": np.array([0.0])}
    g = {"t": np.array([1.0])}
    state = init_adam(params, lr=0.1)
    prev = params["t"][0]
    for _ in range(10):
        params, state = adam_step(state, params, g)
        assert params["t"][0] < prev
        prev = params["t"][0]


def test_adam_descends_on_quadratic():
    params = {"t": np.array([3.0])}
    state = init_adam(params, lr=0.05)
    spec = FnSpec(lambda p, _: (p["t"] * p["t"]).sum())
    for _ in range(400):
        _, g = eval_loss_grad_components(params, np.zeros(1), spec)[:2]
        params, state = adam_step(state, params, g)
    assert abs(params["t"][0]) < 1e-2
