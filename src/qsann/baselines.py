"""Classical comparison models sharing the training harness.

CSANN: softmax self-attention over linearly projected embeddings (no
residual connection, exactly one layer).  Naive: the embedding vectors
straight into the head.  Both end in the quantum model's head (``model``'s
mean pooling, sigmoid, penalties and their gradients), so this module holds
only what comes before it, and both backpropagate analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .data import EmbeddingTable
from .errors import ConfigurationError
from .model import Prediction


@dataclass
class CsannParams:
    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray
    embeddings: EmbeddingTable
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        d = self.embeddings.dim
        for name in ("w_query", "w_key", "w_value"):
            mat = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, mat)
            if mat.shape != (d, d):
                raise ConfigurationError(f"{name} must be {d}x{d}, got {mat.shape}")
        model_mod.check_head(self)


@dataclass
class NaiveParams:
    head_w: np.ndarray
    head_b: np.ndarray
    embeddings: EmbeddingTable
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        model_mod.check_head(self)


def init_csann(
    vocab_size: int, dim: int, rng: np.random.Generator | None, lam: float = 0.0,
    gamma: float = 0.0,
) -> CsannParams:
    """Fresh CSANN, its parameters drawn by ``model.init_parameters`` (zero if rng is None)."""
    square = [np.zeros((dim, dim)) for _ in range(3)]
    params = CsannParams(
        *square, np.zeros(dim), np.zeros(1), EmbeddingTable(np.zeros((vocab_size, dim))), lam, gamma
    )
    if rng is not None:
        model_mod.init_parameters(csann_param_dict(params), rng)
    return params


def init_naive(
    vocab_size: int, dim: int, rng: np.random.Generator | None, lam: float = 0.0,
    gamma: float = 0.0,
) -> NaiveParams:
    """Fresh naive model, drawn by ``model.init_parameters`` (zero if rng is None)."""
    params = NaiveParams(
        np.zeros(dim), np.zeros(1), EmbeddingTable(np.zeros((vocab_size, dim))), lam, gamma
    )
    if rng is not None:
        model_mod.init_parameters(naive_param_dict(params), rng)
    return params


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _csann_intermediates(ids, params: CsannParams):
    xs = params.embeddings.rows[ids]
    queries = xs @ params.w_query.T
    keys = xs @ params.w_key.T
    values = xs @ params.w_value.T
    attn = _softmax_rows(queries @ keys.T)
    return xs, queries, keys, values, attn, attn @ values


def csann_forward(sequence, params: CsannParams) -> Prediction:
    ids = params.embeddings.check_ids(sequence)
    ys = _csann_intermediates(ids, params)[-1]
    return model_mod.predict(params, ys.mean(axis=0))


def naive_forward(sequence, params: NaiveParams) -> Prediction:
    ids = params.embeddings.check_ids(sequence)
    return model_mod.predict(params, params.embeddings.rows[ids].mean(axis=0))


def csann_backward(sample, params: CsannParams) -> dict[str, np.ndarray]:
    ids, label = sample
    ids = params.embeddings.check_ids(ids)
    xs, queries, keys, values, attn, ys = _csann_intermediates(ids, params)
    d_w, d_b, g = model_mod.head_backward(params, ys, label)

    d_values = attn.T @ g
    beta = g @ values.T
    d_scores = attn * (beta - np.sum(attn * beta, axis=1, keepdims=True))
    d_queries = d_scores @ keys
    d_keys = d_scores.T @ queries
    d_x = d_queries @ params.w_query + d_keys @ params.w_key + d_values @ params.w_value

    return {
        "w_query": d_queries.T @ xs,
        "w_key": d_keys.T @ xs,
        "w_value": d_values.T @ xs,
        "head_w": d_w,
        "head_b": d_b,
        "embeddings": model_mod.embedding_gradient(params, ids, xs, d_x),
    }


def naive_backward(sample, params: NaiveParams) -> dict[str, np.ndarray]:
    ids, label = sample
    ids = params.embeddings.check_ids(ids)
    xs = params.embeddings.rows[ids]
    d_w, d_b, g = model_mod.head_backward(params, xs, label)
    return {
        "head_w": d_w,
        "head_b": d_b,
        "embeddings": model_mod.embedding_gradient(params, ids, xs, g),
    }


def csann_param_dict(params: CsannParams) -> dict[str, np.ndarray]:
    return {
        "w_query": params.w_query,
        "w_key": params.w_key,
        "w_value": params.w_value,
        **model_mod.head_params(params),
    }


def naive_param_dict(params: NaiveParams) -> dict[str, np.ndarray]:
    return model_mod.head_params(params)


def csann_parameter_count(dim: int) -> tuple[int, int, int]:
    qkv = 3 * dim * dim
    head = dim + 1
    return qkv, head, qkv + head


def naive_parameter_count(dim: int) -> tuple[int, int, int]:
    head = dim + 1
    return 0, head, head
