"""Autoencoder base detector: sizing rule, initialization, forward pass,
and reconstruction-error scoring.  Both hidden layers are tanh; the model
file records that as `"activation": "tanh"` and no other value loads.

One numpy forward pass serves scoring and training; `score_and_pullback`
adds its hand-written backward pass over the six parameter arrays.  The
tape version, `score_graph`, runs the same operations in the same order,
so its values are the same bits; it carries the value-only losses and the
gradient oracle.

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


@dataclass(frozen=True)
class AEConfig:
    input_dim: int
    hidden_dim: int
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be >= 1")

    @classmethod
    def for_dim(cls, d: int, seed: int = 0) -> "AEConfig":
        return cls(input_dim=d, hidden_dim=hidden_size_rule(d), seed=seed)


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


def init_params(cfg: AEConfig) -> AutoencoderParams:
    """Glorot-uniform weights, zero biases, fully determined by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    d, m = cfg.input_dim, cfg.hidden_dim
    return AutoencoderParams(
        W_enc1=_glorot(rng, d, m),
        b_enc1=np.zeros(m),
        W_dec1=_glorot(rng, m, m),
        b_dec1=np.zeros(m),
        W_out=_glorot(rng, m, d),
        b_out=np.zeros(d),
    )


def _forward(params: dict[str, np.ndarray], X: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both hidden activations and the reconstruction of a batch (N,d)."""
    h1 = np.tanh(X @ params["W_enc1"] + params["b_enc1"])
    h2 = np.tanh(h1 @ params["W_dec1"] + params["b_dec1"])
    return h1, h2, h2 @ params["W_out"] + params["b_out"]


def score_and_pullback(params: dict[str, np.ndarray], X: np.ndarray):
    """Per-row squared reconstruction error of a batch (N,d), and the
    pullback that maps an upstream gradient on those scores to the
    gradient of each parameter array."""
    h1, h2, out = _forward(params, X)
    resid = X - out
    scores = (resid * resid).sum(axis=1)

    def pullback(g: np.ndarray) -> dict[str, np.ndarray]:
        g_out = resid * (-2.0 * g)[:, None]
        g_h2 = (g_out @ params["W_out"].T) * (1.0 - h2 * h2)
        g_h1 = (g_h2 @ params["W_dec1"].T) * (1.0 - h1 * h1)
        return {"W_enc1": X.T @ g_h1, "b_enc1": g_h1.sum(axis=0),
                "W_dec1": h1.T @ g_h2, "b_dec1": g_h2.sum(axis=0),
                "W_out": h2.T @ g_out, "b_out": g_out.sum(axis=0)}

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
