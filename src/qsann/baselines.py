"""Classical comparison models sharing the training harness.

CSANN: softmax self-attention over linearly projected embeddings (no
residual connection, exactly one layer), then the same mean pooling, sigmoid
head and regularized MSE loss as the quantum model.  Naive: mean of the
embedding vectors straight into the head.  Both backpropagate analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionMatrix
from .data import EmbeddingTable
from .errors import ConfigurationError, EmptySequenceError
from .model import Prediction, sigmoid


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
        self.head_w = np.asarray(self.head_w, dtype=np.float64)
        self.head_b = np.asarray(self.head_b, dtype=np.float64)
        if self.head_w.shape != (d,) or self.head_b.shape != (1,):
            raise ConfigurationError("head shapes disagree with embedding dimension")

    @property
    def dim(self) -> int:
        return self.embeddings.dim


@dataclass
class NaiveParams:
    head_w: np.ndarray
    head_b: np.ndarray
    embeddings: EmbeddingTable
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        self.head_w = np.asarray(self.head_w, dtype=np.float64)
        self.head_b = np.asarray(self.head_b, dtype=np.float64)
        if self.head_w.shape != (self.embeddings.dim,) or self.head_b.shape != (1,):
            raise ConfigurationError("head shapes disagree with embedding dimension")

    @property
    def dim(self) -> int:
        return self.embeddings.dim


def init_csann(
    vocab_size: int,
    dim: int,
    rng: np.random.Generator,
    lam: float = 0.0,
    gamma: float = 0.0,
    std: float = 0.01,
) -> CsannParams:
    return CsannParams(
        w_query=rng.normal(0.0, std, (dim, dim)),
        w_key=rng.normal(0.0, std, (dim, dim)),
        w_value=rng.normal(0.0, std, (dim, dim)),
        head_w=rng.normal(0.0, std, dim),
        head_b=np.zeros(1),
        embeddings=EmbeddingTable.init_gaussian(vocab_size, dim, rng, std),
        lam=lam,
        gamma=gamma,
    )


def init_naive(
    vocab_size: int,
    dim: int,
    rng: np.random.Generator,
    lam: float = 0.0,
    gamma: float = 0.0,
    std: float = 0.01,
) -> NaiveParams:
    return NaiveParams(
        head_w=rng.normal(0.0, std, dim),
        head_b=np.zeros(1),
        embeddings=EmbeddingTable.init_gaussian(vocab_size, dim, rng, std),
        lam=lam,
        gamma=gamma,
    )


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
    ys = attn @ values
    pooled = ys.mean(axis=0)
    y_hat = sigmoid(float(params.head_w @ pooled + params.head_b[0]))
    return xs, queries, keys, values, attn, ys, pooled, y_hat


def csann_forward(sequence, params: CsannParams) -> Prediction:
    ids = params.embeddings.check_ids(sequence)
    *_, attn, _, _, y_hat = _csann_intermediates(ids, params)
    return Prediction(y_hat=y_hat, label=int(y_hat >= 0.5), attention=[AttentionMatrix(attn)])


def naive_forward(sequence, params: NaiveParams) -> Prediction:
    ids = params.embeddings.check_ids(sequence)
    pooled = params.embeddings.rows[ids].mean(axis=0)
    y_hat = sigmoid(float(params.head_w @ pooled + params.head_b[0]))
    return Prediction(y_hat=y_hat, label=int(y_hat >= 0.5), attention=[])


def regularization(params, batch) -> float:
    d = params.dim
    reg = params.lam / (2.0 * d) * float(params.head_w @ params.head_w)
    if params.gamma > 0.0:
        norms = [
            float(np.sum(params.embeddings.rows[list(ids)] ** 2)) for ids, _ in batch
        ]
        reg += params.gamma / (2.0 * d) * float(np.mean(norms))
    return reg


def baseline_loss(batch, params, forward_fn) -> float:
    batch = list(batch)
    if not batch:
        raise EmptySequenceError("loss needs at least one sample")
    errors = [
        (forward_fn(ids, params).y_hat - float(label)) ** 2 for ids, label in batch
    ]
    return float(np.mean(errors)) / 2.0 + regularization(params, batch)


def csann_loss(batch, params: CsannParams) -> float:
    return baseline_loss(batch, params, csann_forward)


def naive_loss(batch, params: NaiveParams) -> float:
    return baseline_loss(batch, params, naive_forward)


def csann_backward(sample, params: CsannParams) -> dict[str, np.ndarray]:
    ids, label = sample
    ids = params.embeddings.check_ids(ids)
    xs, queries, keys, values, attn, _, pooled, y_hat = _csann_intermediates(ids, params)
    n_words, d = xs.shape
    sigma_t = (y_hat - float(label)) * y_hat * (1.0 - y_hat)

    g = np.tile(sigma_t * params.head_w / n_words, (n_words, 1))
    d_values = attn.T @ g
    beta = g @ values.T
    d_scores = attn * (beta - np.sum(attn * beta, axis=1, keepdims=True))
    d_queries = d_scores @ keys
    d_keys = d_scores.T @ queries

    d_emb = np.zeros_like(params.embeddings.rows)
    d_x = (
        d_queries @ params.w_query
        + d_keys @ params.w_key
        + d_values @ params.w_value
        + (params.gamma / d) * xs
    )
    for pos, token in enumerate(ids):
        d_emb[token] += d_x[pos]

    return {
        "w_query": d_queries.T @ xs,
        "w_key": d_keys.T @ xs,
        "w_value": d_values.T @ xs,
        "head_w": sigma_t * pooled + (params.lam / d) * params.head_w,
        "head_b": np.array([sigma_t]),
        "embeddings": d_emb,
    }


def naive_backward(sample, params: NaiveParams) -> dict[str, np.ndarray]:
    ids, label = sample
    ids = params.embeddings.check_ids(ids)
    xs = params.embeddings.rows[ids]
    n_words, d = xs.shape
    pooled = xs.mean(axis=0)
    y_hat = sigmoid(float(params.head_w @ pooled + params.head_b[0]))
    sigma_t = (y_hat - float(label)) * y_hat * (1.0 - y_hat)

    d_emb = np.zeros_like(params.embeddings.rows)
    per_word = sigma_t * params.head_w / n_words
    for pos, token in enumerate(ids):
        d_emb[token] += per_word + (params.gamma / d) * xs[pos]

    return {
        "head_w": sigma_t * pooled + (params.lam / d) * params.head_w,
        "head_b": np.array([sigma_t]),
        "embeddings": d_emb,
    }


def csann_param_dict(params: CsannParams) -> dict[str, np.ndarray]:
    return {
        "w_query": params.w_query,
        "w_key": params.w_key,
        "w_value": params.w_value,
        "head_w": params.head_w,
        "head_b": params.head_b,
        "embeddings": params.embeddings.rows,
    }


def naive_param_dict(params: NaiveParams) -> dict[str, np.ndarray]:
    return {
        "head_w": params.head_w,
        "head_b": params.head_b,
        "embeddings": params.embeddings.rows,
    }


def csann_parameter_count(dim: int) -> tuple[int, int, int]:
    qkv = 3 * dim * dim
    head = dim + 1
    return qkv, head, qkv + head


def naive_parameter_count(dim: int) -> tuple[int, int, int]:
    head = dim + 1
    return 0, head, head
