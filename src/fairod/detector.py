"""Autoencoder base detector: sizing rule, initialization, forward pass,
and reconstruction-error scoring.  Both hidden layers are tanh; the model
file records that as `"activation": "tanh"` and no other value loads.

The scoring path is params-only by construction: neither `reconstruct` nor
`score` accepts group information, so treatment parity is structural.
"""

from __future__ import annotations

import json
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AutoencoderParams":
        return cls.from_json_dict(json.loads(text))


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


def reconstruct_graph(param_vars: dict[str, Var], X: np.ndarray | Var) -> Var:
    """Forward pass on the tape; X may be a batch (N,d) or a single row (d,)."""
    x = as_var(X)
    if x.value.ndim == 1:
        x = x.reshape((1, x.value.shape[0]))
    h1 = (x @ param_vars["W_enc1"] + param_vars["b_enc1"]).tanh()
    h2 = (h1 @ param_vars["W_dec1"] + param_vars["b_dec1"]).tanh()
    return h2 @ param_vars["W_out"] + param_vars["b_out"]


def score_graph(param_vars: dict[str, Var], X: np.ndarray | Var) -> Var:
    """Per-row squared reconstruction error on the tape."""
    x = as_var(X)
    if x.value.ndim == 1:
        x = x.reshape((1, x.value.shape[0]))
    resid = x - reconstruct_graph(param_vars, x)
    return (resid * resid).sum(axis=1)


def _check_width(params: AutoencoderParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    d = params.W_enc1.shape[0]
    width = X.shape[-1] if X.ndim else 0
    if X.ndim not in (1, 2) or width != d:
        raise ValueError(f"input width {width} does not match detector input_dim {d}")
    return X


def reconstruct(params: AutoencoderParams, X: np.ndarray) -> np.ndarray:
    """Deterministic reconstruction; accepts a row (d,) or batch (N,d)."""
    X = _check_width(params, X)
    squeeze = X.ndim == 1
    out = reconstruct_graph({k: as_var(v) for k, v in params.to_dict().items()}, X).value
    return out[0] if squeeze else out


def score(params: AutoencoderParams, X: np.ndarray) -> np.ndarray:
    """Outlier score per row: squared L2 distance between input and reconstruction."""
    X = _check_width(params, X)
    squeeze = X.ndim == 1
    out = score_graph({k: as_var(v) for k, v in params.to_dict().items()}, X).value
    return out[0] if squeeze else out
