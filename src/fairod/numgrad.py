"""Reverse-mode automatic differentiation over dense float64 arrays, the
training loop's gradient entry point, and bias-corrected Adam.

A small tape-based engine in the micrograd style, vectorised with numpy:
each `Var` wraps an ndarray and remembers how to push a cotangent back to
its parents.  Training does not use it.  `eval_loss_grad_components`
returns a loss spec's fused `loss_and_grad(params, batch)`, a hand-written
forward and backward pass.  The tape is the independent check on that
pass: a spec's `components(param_vars, batch) -> (Var, dict[str, float])`
builds the scalar loss node over leaf Vars keyed like the parameter dict,
`tape_loss_grad_components` differentiates it, and `eval_loss` (the
value-only path, which `finite_diff_grad` perturbs) evaluates it.  For
`losses.TotalLossSpec` both passes loop over one statement of the
objective's terms, `TotalLossSpec.terms`, so they cannot disagree on which
terms are summed, with which weights, or in which order.  The tape keeps
only the operations those losses and the detector use.

Everything is deterministic: no randomness, accumulation order fixed by
graph construction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = float(np.log(2.0))


class NumericalOverflowError(FloatingPointError):
    """A differentiable operation produced a non-finite value."""


def _assert_finite(value: np.ndarray, name: str) -> None:
    # the sum is finite iff every element is finite (inf/nan poison the sum);
    # cheaper than isfinite().all() because no boolean temp is allocated.
    if not math.isfinite(value.sum()):
        raise NumericalOverflowError(f"non-finite values produced by '{name}'")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Var:
    """Node in the computation tape: a float64 array plus backward closures."""

    __slots__ = ("value", "grad", "name", "needs_grad", "_parents", "_vjps")

    def __init__(self, value, parents=(), vjps=(), name="const", needs_grad=None):
        self.value = np.asarray(value, dtype=np.float64)
        _assert_finite(self.value, name)
        self.grad = None
        self.name = name
        self._parents = parents
        self._vjps = vjps
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_var(other)
        a, b = self.value, other.value
        return Var(a + b, (self, other),
                   (lambda g: _unbroadcast(g, a.shape),
                    lambda g: _unbroadcast(g, b.shape)), "add")

    __radd__ = __add__

    def __sub__(self, other):
        other = as_var(other)
        a, b = self.value, other.value
        return Var(a - b, (self, other),
                   (lambda g: _unbroadcast(g, a.shape),
                    lambda g: _unbroadcast(-g, b.shape)), "sub")

    def __rsub__(self, other):
        return as_var(other) - self

    def __mul__(self, other):
        other = as_var(other)
        a, b = self.value, other.value
        return Var(a * b, (self, other),
                   (lambda g: _unbroadcast(g * b, a.shape),
                    lambda g: _unbroadcast(g * a, b.shape)), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_var(other)
        a, b = self.value, other.value
        return Var(a / b, (self, other),
                   (lambda g: _unbroadcast(g / b, a.shape),
                    lambda g: _unbroadcast(-g * a / (b * b), b.shape)), "div")

    def __matmul__(self, other):
        other = as_var(other)
        a, b = self.value, other.value
        return Var(a @ b, (self, other),
                   (lambda g: g @ b.T, lambda g: a.T @ g), "matmul")

    # -- reductions / shaping -----------------------------------------------

    def sum(self, axis=None):
        a = self.value
        if axis is None:
            return Var(np.array(a.sum()), (self,),
                       (lambda g: np.broadcast_to(g, a.shape),), "sum")
        return Var(a.sum(axis=axis), (self,),
                   (lambda g: np.broadcast_to(np.expand_dims(g, axis), a.shape),),
                   "sum_axis")

    def mean(self):
        n = self.value.size
        return self.sum() * (1.0 / n)

    def take_rows(self, idx):
        """Gather rows (leading-axis entries) at integer positions `idx`."""
        a = self.value
        idx = np.asarray(idx, dtype=np.intp)

        def vjp(g):
            out = np.zeros_like(a)
            np.add.at(out, idx, g)
            return out

        return Var(a[idx], (self,), (vjp,), "take_rows")

    # -- elementwise nonlinearities ------------------------------------------

    def tanh(self):
        t = np.tanh(self.value)
        return Var(t, (self,), (lambda g: g * (1.0 - t * t),), "tanh")

    def log(self):
        a = self.value
        return Var(np.log(a), (self,), (lambda g: g / a,), "log")

    def log2(self):
        return self.log() * (1.0 / _LN2)

    def sqrt(self):
        r = np.sqrt(self.value)
        return Var(r, (self,), (lambda g: g * 0.5 / r,), "sqrt")

    def abs(self):
        a = self.value
        # sign convention at 0 does not matter for our losses: |x| is only
        # taken of correlations, and the subgradient 0 at exactly 0 is fine.
        return Var(np.abs(a), (self,), (lambda g: g * np.sign(a),), "abs")

    # -- backward pass --------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into `.grad` of every reachable node."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.needs_grad:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            g = node.grad
            for parent, vjp in zip(node._parents, node._vjps):
                if not parent.needs_grad:
                    continue
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib


def as_var(x) -> Var:
    """Lift an array or scalar to a constant Var (no gradient flows into it)."""
    if isinstance(x, Var):
        return x
    return Var(x, needs_grad=False)


def leaf(value: np.ndarray, name: str) -> Var:
    """A differentiable leaf (parameter) node."""
    return Var(value, name=name, needs_grad=True)


# -- loss evaluation -----------------------------------------------------------

ParamDict = dict[str, np.ndarray]
GradientSet = dict[str, np.ndarray]


def eval_loss_grad_components(params: ParamDict, batch: np.ndarray, loss_spec
                              ) -> tuple[float, GradientSet, dict[str, float]]:
    """Evaluate a loss, its gradient with respect to every parameter array,
    and the spec's term breakdown, through the spec's fused `loss_and_grad`.

    Gradients come back shape-matched to `params`.  A non-finite loss term
    or gradient raises NumericalOverflowError naming it.
    """
    return loss_spec.loss_and_grad(params, batch)


def tape_loss_grad_components(params: ParamDict, batch: np.ndarray, loss_spec
                              ) -> tuple[float, GradientSet, dict[str, float]]:
    """`eval_loss_grad_components` on the tape, from the spec's `components`:
    the oracle for the fused gradients.

    Parameters the loss never touches get exact zeros.  Non-finite
    intermediates raise NumericalOverflowError naming the offending
    operation or loss term.
    """
    param_vars = {k: leaf(v, k) for k, v in params.items()}
    loss, comps = loss_spec.components(param_vars, batch)
    loss.backward()
    grads: GradientSet = {}
    for k, v in params.items():
        g = param_vars[k].grad
        grads[k] = np.zeros_like(v) if g is None else np.asarray(g, dtype=np.float64)
        _assert_finite(grads[k], f"grad[{k}]")
    return float(loss.value), grads, comps


def eval_loss(params: ParamDict, batch: np.ndarray, loss_spec) -> float:
    """Loss value only, through the same graph as eval_loss_grad_components."""
    param_vars = {k: as_var(v) for k, v in params.items()}
    return float(loss_spec.components(param_vars, batch)[0].value)


def finite_diff_grad(params: ParamDict, batch: np.ndarray, loss_spec, h: float = 1e-5) -> GradientSet:
    """Central-difference gradient (f(x+h) - f(x-h)) / 2h, entry by entry.

    Deliberately independent of the tape: only the forward value path is
    shared, so this is the oracle the analytic gradients are checked against.
    """
    grads: GradientSet = {}
    work = {k: v.copy() for k, v in params.items()}
    for key, arr in work.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            f_plus = eval_loss(work, batch, loss_spec)
            arr[ix] = orig - h
            f_minus = eval_loss(work, batch, loss_spec)
            arr[ix] = orig
            g[ix] = (f_plus - f_minus) / (2.0 * h)
            it.iternext()
        grads[key] = g
    return grads


# -- Adam ----------------------------------------------------------------------

ADAM_B1 = 0.9  # first-moment decay
ADAM_B2 = 0.999  # second-moment decay
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments over one flat parameter vector."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(theta: np.ndarray, lr: float) -> AdamState:
    return AdamState(lr=lr, m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update of the flat vector `theta` in place; mutates the state.

    theta - lr m_hat / (sqrt(v_hat) + eps), with the moments decayed first:
    every element takes the same operations in the same order as an update
    array by array, so the result is the same bits."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_B1, ADAM_B2
    state.m *= b1
    state.m += (1.0 - b1) * grad
    sq = grad * grad
    sq *= 1.0 - b2
    state.v *= b2
    state.v += sq
    den = state.v / (1.0 - b2 ** t)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    step = state.m / (1.0 - b1 ** t)
    step *= state.lr
    step /= den
    theta -= step
    _assert_finite(theta, "adam_step")
