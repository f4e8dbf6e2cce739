"""Gradient engine tests: every analytic gradient of the tape is checked
against the central finite-difference oracle, and Adam against
hand-computed steps and an array-by-array update."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fairod.numgrad import (
    ADAM_B1,
    ADAM_B2,
    ADAM_EPS,
    NumericalOverflowError,
    adam_step,
    as_var,
    eval_loss,
    finite_diff_grad,
    init_adam,
    leaf,
    tape_loss_grad_components,
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
    _, got = tape_loss_grad_components(params, batch, spec)[:2]
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
        return (a.tanh() + (a * 0.1).tanh() * a).sum()

    check_grads(params, np.zeros(1), FnSpec(fn))


def test_log_sqrt_abs_grads(rng):
    params = {"a": rng.uniform(0.5, 2.0, size=(5,))}

    def fn(p, _):
        a = p["a"]
        return (a.log() + a.log2() + a.sqrt() + (a - 1.3).abs()).sum()

    check_grads(params, np.zeros(1), FnSpec(fn))


def test_sum_axis_mean_take_rows_outer_broadcast_grads(rng):
    params = {"a": rng.normal(size=(4, 3)), "col": rng.normal(size=(12, 1)),
              "row": rng.normal(size=(1, 12))}
    idx = np.array([2, 0, 2])

    def fn(p, _):
        rows = p["a"].take_rows(idx)     # repeated index: grads must accumulate
        m = rows.sum(axis=1).mean()
        outer = p["col"] - p["row"]      # both sides broadcast to (12, 12)
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
    _, got = tape_loss_grad_components(params, x, FnSpec(fn))[:2]
    want = finite_diff_grad(params2, x, FnSpec(fn))
    assert max_rel_err(got, want) < 1e-4


# -- engine behaviour ----------------------------------------------------------


def test_untouched_params_get_zero_grads(rng):
    params = {"a": rng.normal(size=(2,)), "unused": rng.normal(size=(3, 3))}
    spec = FnSpec(lambda p, _: (p["a"] * p["a"]).sum())
    _, grads = tape_loss_grad_components(params, np.zeros(1), spec)[:2]
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
        with pytest.raises(NumericalOverflowError, match="mul"):
            as_var(np.array([1e308])) * 10.0
        with pytest.raises(NumericalOverflowError, match="div"):
            as_var(np.array([1.0])) / as_var(np.array([0.0]))


def test_eval_is_deterministic(rng):
    params = {"w": rng.normal(size=(3, 3))}
    x = rng.normal(size=(4, 3))
    spec = FnSpec(lambda p, b: ((as_var(b) @ p["w"]).tanh()).sum())
    l1, g1 = tape_loss_grad_components(params, x, spec)[:2]
    l2, g2 = tape_loss_grad_components(params, x, spec)[:2]
    assert l1 == l2
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_eval_loss_matches_grad_path_value(rng):
    params = {"w": rng.normal(size=(3, 2))}
    x = rng.normal(size=(4, 3))

    def fn(p, b):
        y = as_var(b) @ p["w"]
        return (y * y).sum()

    spec = FnSpec(fn)
    assert eval_loss(params, x, spec) == tape_loss_grad_components(params, x, spec)[0]


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
    theta = np.array([0.0])
    state = init_adam(theta, lr=0.1)
    adam_step(state, theta, np.array([1.0]))
    assert_allclose(theta, [-0.1 / (1.0 + 1e-8)], rtol=0, atol=1e-18)
    assert state.step == 1


def test_adam_two_steps_hand_example():
    # second step with g=1 again, computed by hand:
    # m2=0.19, v2=0.001999, m_hat=1, v_hat=1 -> another full -0.1/(1+1e-8)
    theta = np.array([0.0])
    g = np.array([1.0])
    state = init_adam(theta, lr=0.1)
    adam_step(state, theta, g)
    p1 = theta.copy()
    adam_step(state, theta, g)
    m2 = 0.9 * 0.1 + 0.1 * 1.0
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    mh = m2 / (1 - 0.9 ** 2)
    vh = v2 / (1 - 0.999 ** 2)
    want = p1 - 0.1 * mh / (np.sqrt(vh) + 1e-8)
    assert_allclose(theta, want, rtol=1e-15)


def test_adam_deterministic_and_shape_preserving(rng):
    theta = rng.normal(size=10)
    grad = rng.normal(size=10)
    t1, t2 = theta.copy(), theta.copy()
    adam_step(init_adam(t1, lr=0.01), t1, grad)
    adam_step(init_adam(t2, lr=0.01), t2, grad)
    assert t1.shape == theta.shape
    assert np.array_equal(t1, t2) and not np.array_equal(t1, theta)


def test_adam_zero_gradient_leaves_params_and_decays_moments():
    theta = np.array([2.0])
    zero = np.array([0.0])
    state = init_adam(theta, lr=0.1)
    adam_step(state, theta, zero)
    assert np.array_equal(theta, [2.0])
    # nonzero moments decay toward zero under zero gradients
    state.m[:] = 1.0
    state.v[:] = 1.0
    adam_step(state, theta, zero)
    assert state.m[0] == 0.9 and state.v[0] == 0.999


def test_adam_constant_gradient_moves_monotonically():
    theta = np.array([0.0])
    g = np.array([1.0])
    state = init_adam(theta, lr=0.1)
    prev = theta[0]
    for _ in range(10):
        adam_step(state, theta, g)
        assert theta[0] < prev
        prev = theta[0]


def test_adam_descends_on_quadratic():
    theta = np.array([3.0])
    params = {"t": theta}
    state = init_adam(theta, lr=0.05)
    spec = FnSpec(lambda p, _: (p["t"] * p["t"]).sum())
    for _ in range(400):
        _, g = tape_loss_grad_components(params, np.zeros(1), spec)[:2]
        adam_step(state, theta, g["t"])
    assert abs(theta[0]) < 1e-2


def per_array_adam_step(lr, t, params, grads, m, v):
    """Adam updated array by array, as the dict-keyed optimizer did."""
    out = {}
    for k, p in params.items():
        g = grads[k]
        m[k] = ADAM_B1 * m[k] + (1.0 - ADAM_B1) * g
        v[k] = ADAM_B2 * v[k] + (1.0 - ADAM_B2) * (g * g)
        m_hat = m[k] / (1.0 - ADAM_B1 ** t)
        v_hat = v[k] / (1.0 - ADAM_B2 ** t)
        out[k] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


def test_flat_adam_is_bit_identical_to_per_array_adam():
    # the detector's six arrays for d=5, m=2, gradients spanning many scales
    rng = np.random.default_rng(3)
    shapes = {"W_enc1": (5, 2), "b_enc1": (2,), "W_dec1": (2, 2), "b_dec1": (2,),
              "W_out": (2, 5), "b_out": (5,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    theta = np.concatenate([a.ravel() for a in params.values()])
    state = init_adam(theta, lr=0.05)
    for t in range(1, 5001):
        grads = {k: rng.normal(size=s) * 10.0 ** rng.integers(-6, 4)
                 for k, s in shapes.items()}
        params = per_array_adam_step(0.05, t, params, grads, m, v)
        adam_step(state, theta, np.concatenate([g.ravel() for g in grads.values()]))
    assert state.step == 5000
    assert theta.tobytes() == np.concatenate([a.ravel() for a in params.values()]).tobytes()
    assert state.m.tobytes() == np.concatenate([a.ravel() for a in m.values()]).tobytes()
    assert state.v.tobytes() == np.concatenate([a.ravel() for a in v.values()]).tobytes()


def test_adam_overflow_raises_named_error():
    theta = np.array([1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalOverflowError, match="adam_step"):
            adam_step(init_adam(theta, lr=1e308), theta, np.array([-1.0]))
