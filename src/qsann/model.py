"""Full network: embedding lookup, stacked attention layers, sigmoid head.

The prediction for a token sequence is sigmoid(w . mean_s(y_s) + b) where
y_s are the outputs of the last attention layer.  The loss is half the mean
squared error against the 0/1 label plus two scaled L2 regularizers, one on
the head weights and one on the sequence's embedding vectors (batch-averaged
so the total is invariant to batch size).

A pass's predictions come from ``forward_many``, which evaluates it in
vocabulary space, attends it a length group and scores it a window at a time;
``layer_traces`` keeps each layer's trace for the backward pass, and
``forward`` reads one sentence's traces for its ``Prediction`` and attention.
A model's observables follow from its geometry (``ObservableSet.default``).

This head, its penalties and their gradients are defined here once for every
model kind: the functions below take any model with ``head_w``, ``head_b``,
``embeddings``, ``lam`` and ``gamma``, so the classical baselines reuse them.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .attention import (
    AttentionMatrix,
    Engine,
    LayerTrace,
    ObservableSet,
    QsalLayerParams,
    attend,
    layer_forward,
)
from .data import EmbeddingTable
from .errors import ConfigurationError, EmptySequenceError, check_field_types
from .sim import NoiseChannel

# Memory the attention engine's operator stacks may take (see ModelConfig).
ENGINE_MEMORY_BUDGET = 1 << 30
# Peak bytes per word pair (S**2) of a sentence's backward, besides 8 in each layer's trace
# (tracemalloc, yelp geometry, S = 2,000: 32.4 B at 1 layer, 40.6 at 2; csann 32.3; a pass 16.2).
PAIR_BYTES = 25
# Tokens of the consecutive sentences that forward_many batches together.
WINDOW_TOKENS = 2048
# Standard deviation of every freshly drawn parameter (see init_parameters).
INIT_STD = 0.01


def sigmoid(z):
    """Elementwise 1 / (1 + exp(-z)) as float64, each entry by the branch that cannot
    overflow: 1 / (1 + e) for z >= 0 and e / (1 + e) below, e = exp(-|z|) <= 1."""
    e = np.exp(-abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)  # the numerator: 1 where z >= 0, else e


@dataclass(frozen=True)
class ModelConfig:
    n_qubits: int
    enc_depth: int
    qkv_depth: int
    n_layers: int
    lam: float = 0.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_qubits < 1 or self.enc_depth < 0 or self.qkv_depth < 0:
            raise ConfigurationError("invalid circuit geometry")
        if self.n_layers < 1:
            raise ConfigurationError("need at least one attention layer")
        # Operators of 2**n x 2**n, counted high: each layer's trace keeps 3 (D_qkv + 2) column
        # operators, 2 per measured quantity (K = 2 + d) and a Re(M) stack of K float64 ones; a
        # build or backward adds at most 6 K + 12, the d observables fewer than K, E^dag(O) d more.
        quantities = 2 + self.embed_dim
        per_layer = 3 * (self.qkv_depth + 2) + 2 * quantities
        operators = self.n_layers * per_layer + 7 * quantities + 12 + self.embed_dim
        need = 4**self.n_qubits * (16 * operators + 8 * self.n_layers * quantities)
        if need > ENGINE_MEMORY_BUDGET:
            raise ConfigurationError(
                f"geometry needs {need} bytes for {operators} operators of 2**n x 2**n and "
                f"{self.n_layers} Re(M) stacks, over the {ENGINE_MEMORY_BUDGET}-byte budget"
            )
        ObservableSet.default(self.n_qubits, self.embed_dim)  # enough observables to measure

    @property
    def embed_dim(self) -> int:
        return self.n_qubits * (self.enc_depth + 2)


def check_head(model) -> None:
    """Store head_w and head_b as float arrays; check them and the lam/gamma penalties."""
    # real numbers only, and chained comparisons so that NaN fails them
    if not all(isinstance(x, numbers.Real) and 0 <= x < np.inf for x in (model.lam, model.gamma)):
        raise ConfigurationError("regularization coefficients must be finite and >= 0")
    model.head_w = np.asarray(model.head_w, dtype=np.float64)
    model.head_b = np.asarray(model.head_b, dtype=np.float64)
    if model.head_w.shape != (model.embeddings.dim,) or model.head_b.shape != (1,):
        raise ConfigurationError(
            f"head needs {model.embeddings.dim} weights and one bias, "
            f"got {model.head_w.shape} and {model.head_b.shape}"
        )


@dataclass
class QsannModel:
    config: ModelConfig
    layers: list[QsalLayerParams]
    head_w: np.ndarray
    head_b: np.ndarray
    embeddings: EmbeddingTable

    def __post_init__(self) -> None:
        cfg = self.config
        if len(self.layers) != cfg.n_layers:
            raise ConfigurationError("layer count disagrees with config")
        geometry = (cfg.n_qubits, cfg.enc_depth, cfg.qkv_depth)
        if any((p.n_qubits, p.enc_depth, p.qkv_depth) != geometry for p in self.layers):
            raise ConfigurationError("layer geometry disagrees with config")
        if self.embeddings.dim != cfg.embed_dim:
            raise ConfigurationError("embedding dimension disagrees with config")
        check_head(self)

    @property
    def observables(self) -> ObservableSet:
        """The value circuit's observables, fixed by the geometry and shared by its models."""
        return ObservableSet.default(self.config.n_qubits, self.config.embed_dim)

    @property
    def lam(self) -> float:
        return self.config.lam

    @property
    def gamma(self) -> float:
        return self.config.gamma


@dataclass
class Prediction:
    y_hat: float
    label: int
    attention: Sequence[AttentionMatrix] = ()  # one per layer, from ``forward`` only


def init_model(config: ModelConfig, vocab_size: int, rng: np.random.Generator | None):
    """Fresh model, its parameters drawn by ``init_parameters`` (all zero if rng is None)."""
    geometry = (config.n_qubits, config.enc_depth, config.qkv_depth)
    model = QsannModel(
        config=config,
        layers=[QsalLayerParams.create(*geometry) for _ in range(config.n_layers)],
        head_w=np.zeros(config.embed_dim),
        head_b=np.zeros(1),
        embeddings=EmbeddingTable(np.zeros((vocab_size, config.embed_dim))),
    )
    if rng is not None:
        init_parameters(model_param_dict(model), rng)
    return model


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
        traces.append(layer_forward(xs, layer, noise, shots, rng))
        xs = traces[-1].outputs
    return traces


def predict(model, pooled: np.ndarray, attention=()) -> Prediction:
    """The sigmoid head's prediction from one sentence's mean-pooled last-layer output."""
    y_hat = float(sigmoid(head_logits(model, pooled[None])[0]))
    return Prediction(y_hat=y_hat, label=int(y_hat >= 0.5), attention=attention)


def head_logits(model, pooled: np.ndarray) -> np.ndarray:
    """The head's logits of (B, d) pooled rows, each row's own dot head_w @ pooled: the
    stacked product is one dot per row, where a 2-D gemv would block rows together."""
    return (pooled[:, None, :] @ model.head_w)[:, 0] + model.head_b[0]


def head_backward(model, outputs: np.ndarray, label) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dL/dw, dL/db, dL/d outputs) of the single-sample loss, lam penalty included."""
    n_words = outputs.shape[0]
    pooled = outputs.mean(axis=0)
    y_hat = predict(model, pooled).y_hat
    sigma_t = (y_hat - float(label)) * y_hat * (1.0 - y_hat)
    d_w = sigma_t * pooled + (model.lam / model.embeddings.dim) * model.head_w
    g = np.tile(sigma_t * model.head_w / n_words, (n_words, 1))
    return d_w, np.array([sigma_t]), g


def embedding_gradient(model, ids: list[int], xs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dL/d(embedding table): each word's upstream gradient g plus its gamma penalty."""
    d_emb = np.zeros_like(model.embeddings.rows)
    np.add.at(d_emb, ids, g + model.gamma / model.embeddings.dim * xs)  # in word order
    return d_emb


def head_params(model) -> dict[str, np.ndarray]:
    """Live views of the head and embedding arrays, keyed for the optimizer."""
    return {"head_w": model.head_w, "head_b": model.head_b, "embeddings": model.embeddings.rows}


def model_param_dict(model: QsannModel) -> dict[str, np.ndarray]:
    """Live views of all trainable arrays, keyed for the optimizer."""
    params = {
        f"layer{i}.theta_{c}": getattr(layer, f"theta_{c}").values
        for i, layer in enumerate(model.layers)
        for c in "qkv"
    }
    return {**params, **head_params(model)}


def init_parameters(params: dict[str, np.ndarray], rng: np.random.Generator) -> None:
    """Draw every array from N(0, INIT_STD) in key order, head_b set to zero.

    The only code that draws parameters: each kind's initialiser and
    ``training.train`` pass it the model's optimizer dict, so the config
    seed alone decides a run's starting point.
    """
    for key, param in params.items():
        if key == "head_b":
            param[...] = 0.0
        else:
            param[...] = rng.normal(0.0, INIT_STD, param.shape)


def length_groups(lengths, limit: int) -> Iterator[dict[int, list[int]]]:
    """Windows of consecutive sequences, each of at most ``limit`` tokens but at least
    one sequence, as {length: indices of the window's sequences of that length}."""
    groups: dict[int, list[int]] = {}
    tokens = 0
    for index, length in enumerate(lengths):
        if groups and tokens + length > limit:
            yield groups
            groups, tokens = {}, 0
        groups.setdefault(length, []).append(index)
        tokens += length
    yield groups


def forward_many(
    sequences: list,
    model: QsannModel,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per window, in input order: each sequence's prediction and squared embedding norm.

    ``sequences`` is a list, read in place: a copy would grow with the pass.
    Every sequence is checked before anything is built: the range test runs
    on the pass's distinct ids, and only a pass that fails it is checked
    sentence by sentence, so that the first bad sentence raises.  Each
    layer's ``Engine`` is built once, and each distinct word of the pass is
    measured once.  A window holds consecutive sentences of at most
    WINDOW_TOKENS tokens, so memory does not grow with the pass; its
    sentences of one length run as (B, S, .) arrays through the attention
    steps, the deeper layers' measurements, the pooling and the norms, and the
    head scores the window's pooled rows at once.  With shots a window is one
    sentence, so the draws keep the per-sentence order.  Numbers and draws are
    those of ``layer_traces``, ``predict`` and a sum of each sentence's
    squared (S, d) rows.
    """
    distinct = list(set(itertools.chain.from_iterable(sequences)))  # bounded by the vocabulary
    rows = model.embeddings.rows
    in_range = not distinct or 0 <= min(distinct) and max(distinct) < len(rows)
    if not (in_range and all(map(len, sequences))):
        for sequence in sequences:
            model.embeddings.check_ids(sequence)
    if not sequences:
        return
    present = np.zeros(len(rows), dtype=bool)
    present[distinct] = True  # IndexError for an id that is no integer
    engines = [Engine(layer, noise) for layer in model.layers]
    first = engines[0].measure(rows[present])[1]
    slot = np.cumsum(present) - 1  # each present word's row of `first`
    for window in length_groups(map(len, sequences), WINDOW_TOKENS if shots is None else 1):
        start = next(iter(window.values()))[0]  # the window's first sentence opens its first group
        count = sum(map(len, window.values()))
        pooled, norms = np.empty((count, rows.shape[1])), np.empty(count)
        for members in window.values():
            ids = np.array([sequences[i] for i in members])  # (B, S)
            words = rows[ids]
            xs = attend(words, first[slot[ids]], shots, rng)[-1]
            for engine in engines[1:]:
                expectations = engine.measure(xs.reshape(-1, xs.shape[-1]))[1]
                xs = attend(xs, expectations.reshape(*ids.shape, -1), shots, rng)[-1]
            at = np.subtract(members, start)
            pooled[at] = xs.mean(axis=1)
            norms[at] = (words.reshape(len(members), -1) ** 2).sum(axis=1)
        yield sigmoid(head_logits(model, pooled)), norms


def forward(
    sequence,
    model: QsannModel,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> Prediction:
    """Predict the positive-class probability for a token-id sequence, with each
    layer's checked AttentionMatrix for export."""
    traces = layer_traces(model.embeddings.check_ids(sequence), model, noise, shots, rng)
    matrices = [AttentionMatrix(trace.coefficients) for trace in traces]
    return predict(model, traces[-1].outputs.mean(axis=0), matrices)


def regularization(model, norms) -> float:
    """Head-weight penalty plus the embedding-norm penalty averaged over a pass's squared
    sentence norms (as ``forward_many`` yields them)."""
    d = model.embeddings.dim
    reg = model.lam / (2.0 * d) * float(model.head_w @ model.head_w)
    if model.gamma > 0.0:
        reg += model.gamma / (2.0 * d) * float(np.mean(norms))
    return reg


def score(pairs, labels, model) -> tuple[int, float]:
    """(hits, half the mean squared error plus regularization) of a pass's (y_hat, norms) pairs."""
    y_hat, norms = (np.concatenate(parts) for parts in zip(*pairs))
    labels = np.array(labels, dtype=np.float64)
    errors = np.float_power(y_hat - labels, 2.0)  # libm pow, as Python's ** 2; numpy's is x * x
    hits = int(np.count_nonzero((y_hat >= 0.5) == labels))
    return hits, float(np.mean(errors)) / 2.0 + regularization(model, norms)


def loss(batch, model: QsannModel, noise: NoiseChannel | None = None) -> float:
    """Mean squared error over (sequence, label) pairs plus regularization."""
    batch = list(batch)
    if not batch:
        raise EmptySequenceError("loss needs at least one sample")
    pairs = forward_many([ids for ids, _ in batch], model, noise)
    return score(pairs, [label for _, label in batch], model)[1]


def parameter_count(model: QsannModel) -> tuple[int, int, int]:
    """(query/key/value angles, head weights incl. bias, total).

    Embedding entries are excluded: they play the role of input
    representations and could be swapped for fixed pre-trained vectors.
    """
    cfg = model.config
    qkv = cfg.n_layers * 3 * cfg.n_qubits * (cfg.qkv_depth + 2)
    head = cfg.embed_dim + 1
    return qkv, head, qkv + head
