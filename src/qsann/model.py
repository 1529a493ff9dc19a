"""Full network: embedding lookup, stacked attention layers, sigmoid head.

The prediction for a token sequence is sigmoid(w . mean_s(y_s) + b) where
y_s are the outputs of the last attention layer.  The loss is half the mean
squared error against the 0/1 label plus two scaled L2 regularizers, one on
the head weights and one on the sequence's embedding vectors (batch-averaged
so the total is invariant to batch size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionMatrix,
    LayerTrace,
    ObservableSet,
    QsalLayerParams,
    layer_forward,
)
from .data import EmbeddingTable
from .errors import ConfigurationError, EmptySequenceError
from .sim import NoiseChannel


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return float(e / (1.0 + e))


@dataclass(frozen=True)
class ModelConfig:
    n_qubits: int
    enc_depth: int
    qkv_depth: int
    n_layers: int
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.n_qubits < 1 or self.enc_depth < 0 or self.qkv_depth < 0:
            raise ConfigurationError("invalid circuit geometry")
        if self.n_layers < 1:
            raise ConfigurationError("need at least one attention layer")
        if self.lam < 0 or self.gamma < 0:
            raise ConfigurationError("regularization coefficients must be >= 0")

    @property
    def embed_dim(self) -> int:
        return self.n_qubits * (self.enc_depth + 2)


@dataclass
class QsannModel:
    config: ModelConfig
    layers: list[QsalLayerParams]
    head_w: np.ndarray
    head_b: np.ndarray
    embeddings: EmbeddingTable
    observables: ObservableSet

    def __post_init__(self) -> None:
        cfg = self.config
        if len(self.layers) != cfg.n_layers:
            raise ConfigurationError("layer count disagrees with config")
        for layer in self.layers:
            if (layer.n_qubits, layer.enc_depth, layer.qkv_depth) != (
                cfg.n_qubits,
                cfg.enc_depth,
                cfg.qkv_depth,
            ):
                raise ConfigurationError("layer geometry disagrees with config")
        self.head_w = np.asarray(self.head_w, dtype=np.float64)
        self.head_b = np.asarray(self.head_b, dtype=np.float64)
        if self.head_w.shape != (cfg.embed_dim,):
            raise ConfigurationError(
                f"head weights must have dimension {cfg.embed_dim}"
            )
        if self.head_b.shape != (1,):
            raise ConfigurationError("head bias must be a single value")
        if self.embeddings.dim != cfg.embed_dim:
            raise ConfigurationError("embedding dimension disagrees with config")
        if self.observables.size != cfg.embed_dim:
            raise ConfigurationError("need one observable per embedding dimension")


@dataclass
class Prediction:
    y_hat: float
    label: int
    attention: list[AttentionMatrix]


def init_model(
    config: ModelConfig, vocab_size: int, rng: np.random.Generator, std: float = 0.01
) -> QsannModel:
    """Fresh model: angles and weights ~ N(0, std), bias zero."""
    layers = [
        QsalLayerParams.create(
            config.n_qubits, config.enc_depth, config.qkv_depth, rng, std
        )
        for _ in range(config.n_layers)
    ]
    return QsannModel(
        config=config,
        layers=layers,
        head_w=rng.normal(0.0, std, config.embed_dim),
        head_b=np.zeros(1),
        embeddings=EmbeddingTable.init_gaussian(vocab_size, config.embed_dim, rng, std),
        observables=ObservableSet.default(config.n_qubits, config.embed_dim),
    )


def layer_traces(
    ids: list[int],
    model: QsannModel,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[LayerTrace]:
    """Traces of every attention layer, first to last, for checked token ids."""
    xs = model.embeddings.rows[ids]
    traces = []
    for layer in model.layers:
        traces.append(layer_forward(xs, layer, model.observables, noise, shots, rng))
        xs = traces[-1].outputs
    return traces


def head_output(model: QsannModel, outputs: np.ndarray) -> tuple[np.ndarray, float]:
    """(pooled last-layer output, sigmoid head output)."""
    pooled = outputs.mean(axis=0)
    return pooled, sigmoid(float(model.head_w @ pooled + model.head_b[0]))


def forward(
    sequence,
    model: QsannModel,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> Prediction:
    """Predict the positive-class probability for a token-id sequence."""
    ids = model.embeddings.check_ids(sequence)
    traces = layer_traces(ids, model, noise, shots, rng)
    _, y_hat = head_output(model, traces[-1].outputs)
    return Prediction(
        y_hat=y_hat, label=int(y_hat >= 0.5), attention=[t.attention for t in traces]
    )


def regularization(model: QsannModel, batch) -> float:
    """Head-weight penalty plus batch-averaged embedding-norm penalty."""
    cfg = model.config
    d = cfg.embed_dim
    reg = cfg.lam / (2.0 * d) * float(model.head_w @ model.head_w)
    if cfg.gamma > 0.0:
        emb_norms = []
        for ids, _ in batch:
            xs = model.embeddings.rows[list(ids)]
            emb_norms.append(float(np.sum(xs * xs)))
        reg += cfg.gamma / (2.0 * d) * float(np.mean(emb_norms))
    return reg


def loss(batch, model: QsannModel, noise: NoiseChannel | None = None) -> float:
    """Mean squared error over (sequence, label) pairs plus regularization."""
    batch = list(batch)
    if not batch:
        raise EmptySequenceError("loss needs at least one sample")
    errors = [
        (forward(ids, model, noise).y_hat - float(label)) ** 2 for ids, label in batch
    ]
    return float(np.mean(errors)) / 2.0 + regularization(model, batch)


def parameter_count(model: QsannModel) -> tuple[int, int, int]:
    """(query/key/value angles, head weights incl. bias, total).

    Embedding entries are excluded: they play the role of input
    representations and could be swapped for fixed pre-trained vectors.
    """
    cfg = model.config
    qkv = cfg.n_layers * 3 * cfg.n_qubits * (cfg.qkv_depth + 2)
    head = cfg.embed_dim + 1
    return qkv, head, qkv + head
