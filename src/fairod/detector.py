"""Autoencoder base detector: sizing rule, initialization, forward pass,
and reconstruction-error scoring.  Both hidden layers are tanh; the model
file records that as `"activation": "tanh"` and no other value loads.

One numpy forward pass serves scoring and training; `score_and_pullback`
adds its hand-written backward pass over the six parameter arrays.  The
tape version, `score_graph`, computes the same values bit for bit; it
carries the value-only losses and the gradient oracle.

The arrays are (N, w) in C order, and w is 2 on the synthetic sets and
in the hidden layers up to d = 100, so a numpy op broadcast or reduced
along w runs a 2-long inner loop per row.  The fused pass therefore runs
those ops down the N rows of each column, and keeps numpy's summation
orders exactly:
- on rows of 2 cells, a bias add and the upstream gradient's per-row
  scale run through the transposed view in C order; an elementwise op
  gives the same bits in any iteration order;
- numpy sums a row (`sum(axis=1)`) from +0.0, cell after cell below 8
  cells and pairwise with eight accumulators from 8 cells on, so a score
  adds the squared residual's columns in order on rows of 2 to 7 cells,
  and rows of 8 cells or more keep `sum(axis=1)`;
- numpy sums a column (`sum(axis=0)`) from +0.0, row after row, so on
  rows of 2 cells a bias gradient is the last row of `np.add.accumulate`
  down the columns, taken in place, plus +0.0.
Other widths keep the row-major ops: from 3 cells on the column loops
gain little or lose time (the timings are at `_NARROW`), and a width-1
column sum would not match, because numpy sums it pairwise.  The six
matmuls are the tape's calls on the same operands.

The scoring path is params-only by construction: `score` accepts no group
information, so treatment parity is structural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numgrad import Var, as_var

PARAM_KEYS = ("W_enc1", "b_enc1", "W_dec1", "b_dec1", "W_out", "b_out")


def hidden_size_rule(d: int) -> int:
    """Code dimension as a function of input width: 2 up to 100 features, else 8."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2 if d <= 100 else 8


@dataclass
class AutoencoderParams:
    """Two tanh hidden layers: encode d->m, decode m->m, linear output m->d."""

    W_enc1: np.ndarray
    b_enc1: np.ndarray
    W_dec1: np.ndarray
    b_dec1: np.ndarray
    W_out: np.ndarray
    b_out: np.ndarray

    def to_dict(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in PARAM_KEYS}

    def to_json_dict(self) -> dict:
        doc = {"activation": "tanh", "arrays": {}}
        for k in PARAM_KEYS:
            a = getattr(self, k)
            doc["arrays"][k] = {"shape": list(a.shape), "data": a.ravel().tolist()}
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AutoencoderParams":
        if doc["activation"] != "tanh":
            raise ValueError(f"unsupported activation {doc['activation']!r}; "
                             "the detector is tanh-only")
        arrays = {}
        for k in PARAM_KEYS:
            entry = doc["arrays"][k]
            arrays[k] = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        return cls(**arrays)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(d: int, seed: int) -> AutoencoderParams:
    """Glorot-uniform weights, zero biases, fully determined by d and seed."""
    m = hidden_size_rule(d)
    rng = np.random.default_rng(seed)
    return AutoencoderParams(
        W_enc1=_glorot(rng, d, m),
        b_enc1=np.zeros(m),
        W_dec1=_glorot(rng, m, m),
        b_dec1=np.zeros(m),
        W_out=_glorot(rng, m, d),
        b_out=np.zeros(d),
    )


# numpy sums a row of 8 cells or more pairwise with eight accumulators, so
# only shorter rows can be summed column by column bit for bit.  On 2 CPUs
# (best of 7 timings) the column adds took 5-22 us against 39-57 us for
# `sum(axis=1)` on 2400 rows of 2-7 cells; on 64 rows they are faster up to
# 4 cells and up to 1.2 us slower from 5.
_PAIRWISE_ROW = 8

# The other long-axis ops run on rows of 2 cells only.  Timed the same way
# against the row-major ops, the transposed bias add, the transposed
# per-row scale and the accumulate-based column sum are faster at 2 cells
# on 2400 and 200k rows (2400 rows: 3.9 against 14.2 us, 5.6 against
# 11.6 us, 15.6 against 36.3 us), mixed at 3 and 4 cells and slower from 5.
# At 200k rows the bias add takes 4.0 against 1.4 ms at 8 cells and 115
# against 23 ms at 129 cells, the scale 8.5 against 2.4 ms and 608
# against 58 ms, and the accumulate 878 against 27.6 ms at 129 cells.  No
# benchmark workload has rows wider than 2 cells.
_NARROW = 2


def _row_sq_sums(R: np.ndarray) -> np.ndarray:
    """`(R * R).sum(axis=1)` bit for bit."""
    sq = R * R
    if not 1 < sq.shape[1] < _PAIRWISE_ROW:
        return sq.sum(axis=1)
    s = sq[:, 0] + sq[:, 1]
    for j in range(2, sq.shape[1]):
        s += sq[:, j]
    return s


def _col_sums(A: np.ndarray) -> np.ndarray:
    """`A.sum(axis=0)` bit for bit, overwriting A when its rows are narrow."""
    if A.shape[1] != _NARROW or len(A) == 0:
        return A.sum(axis=0)
    np.add.accumulate(A, axis=0, out=A)
    # numpy's sum starts from +0.0, so a column of -0.0 sums to +0.0
    return A[-1] + 0.0


def _layer(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W + b, as a fresh array."""
    Z = X @ W
    if Z.shape[1] == _NARROW:
        ZT = Z.T
        np.add(ZT, b[:, None], out=ZT, order="C")
    else:
        Z += b
    return Z


def _forward(params: dict[str, np.ndarray], X: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both hidden activations and the reconstruction of a batch (N,d)."""
    h1 = _layer(X, params["W_enc1"], params["b_enc1"])
    np.tanh(h1, out=h1)
    h2 = _layer(h1, params["W_dec1"], params["b_dec1"])
    np.tanh(h2, out=h2)
    return h1, h2, _layer(h2, params["W_out"], params["b_out"])


def score_and_pullback(params: dict[str, np.ndarray], X: np.ndarray):
    """Per-row squared reconstruction error of a batch (N,d), and the
    pullback that maps an upstream gradient on those scores to the
    gradient of each parameter array."""
    h1, h2, out = _forward(params, X)
    resid = np.subtract(X, out, out=out)
    scores = _row_sq_sums(resid)

    def pullback(g: np.ndarray) -> dict[str, np.ndarray]:
        if resid.shape[1] == _NARROW:
            g_out = np.empty_like(resid)
            np.multiply(resid.T, -2.0 * g, out=g_out.T, order="C")
        else:
            g_out = resid * (-2.0 * g)[:, None]
        g_h2 = (g_out @ params["W_out"].T) * (1.0 - h2 * h2)
        g_h1 = (g_h2 @ params["W_dec1"].T) * (1.0 - h1 * h1)
        # each bias sum may overwrite its array, so it follows every matmul
        # that reads that array
        return {"W_enc1": X.T @ g_h1, "b_enc1": _col_sums(g_h1),
                "W_dec1": h1.T @ g_h2, "b_dec1": _col_sums(g_h2),
                "W_out": h2.T @ g_out, "b_out": _col_sums(g_out)}

    return scores, pullback


def score_graph(param_vars: dict[str, Var], X: np.ndarray | Var) -> Var:
    """Per-row squared reconstruction error on the tape, over a batch (N,d)."""
    x = as_var(X)
    h1 = (x @ param_vars["W_enc1"] + param_vars["b_enc1"]).tanh()
    h2 = (h1 @ param_vars["W_dec1"] + param_vars["b_dec1"]).tanh()
    resid = x - (h2 @ param_vars["W_out"] + param_vars["b_out"])
    return (resid * resid).sum(axis=1)


def _as_batch(params: AutoencoderParams, X: np.ndarray) -> tuple[np.ndarray, bool]:
    """X as an (N,d) batch of the detector's width, and whether it was one row."""
    X = np.asarray(X, dtype=np.float64)
    d = params.W_enc1.shape[0]
    width = X.shape[-1] if X.ndim else 0
    if X.ndim not in (1, 2) or width != d:
        raise ValueError(f"input width {width} does not match detector input_dim {d}")
    return np.atleast_2d(X), X.ndim == 1


def score(params: AutoencoderParams, X: np.ndarray) -> np.ndarray:
    """Outlier score per row: squared L2 distance between input and reconstruction."""
    batch, row = _as_batch(params, X)
    out = score_and_pullback(params.to_dict(), batch)[0]
    return out[0] if row else out
