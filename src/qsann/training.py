"""Adam optimization, the table of model kinds and the training loop they share.

Updates default to one sample at a time; larger batch sizes average the
per-sample gradients, summed into one flat vector, before one step of Adam
over flat moments.  ``train`` first redraws every parameter with
``model.init_parameters`` from the config seed, so identical (seed, config,
data) reproduce identical runs whatever model it is given.  Training stops
early once the relative spread of the epoch losses inside a trailing window
drops below a tolerance, or aborts (restoring the last finite state) if a
loss or gradient goes non-finite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import baselines, gradients, model as model_mod
from .baselines import CsannParams, NaiveParams
from .data import LabeledSequence
from .errors import ConfigurationError, EmptySequenceError, TrainingAborted, check_field_types
from .model import QsannModel
from .sim import NoiseChannel


@dataclass
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 1
    lam: float = 0.0
    gamma: float = 0.0
    seed: int = 0
    stop_window: int = 10
    stop_tol: float = 1e-4
    shuffle: bool = True
    dev_early_stop: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        # chained comparisons so that NaN fails every check
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if not (0 <= self.lam < np.inf and 0 <= self.gamma < np.inf):
            raise ConfigurationError("regularization coefficients must be finite and >= 0")
        if self.stop_window < 1 or not 0 <= self.stop_tol < np.inf:
            raise ConfigurationError("invalid stopping condition")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


@dataclass
class AdamState:
    """Adam's moments as flat vectors over ``layout``, the first step's ((key, shape), ...)."""

    step: int = 0
    layout: tuple = ()
    m: np.ndarray | None = None
    v: np.ndarray | None = None


# Adam's decay rates and denominator offset (Kingma & Ba, arXiv:1412.6980).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Copies of the embedding table training holds at most at once, checked against the memory
# budget: the table, its last good snapshot, Adam's m and v, and three gradient-sized vectors
# (adam_step's given gradient, flat gather and temporary; or a batch's sum and two samples').
TABLE_COPIES = 7


def _views(flat: np.ndarray, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of a flat vector shaped and keyed as ``params``, its arrays in order."""
    views, start = {}, 0
    for key, param in params.items():
        views[key] = flat[start : start + param.size].reshape(param.shape)
        start += param.size
    return views


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> AdamState:
    """One in-place Adam update with bias correction, as whole-vector passes over flat moments."""
    layout = tuple((key, param.shape) for key, param in params.items())
    if state.m is not None and layout != state.layout:
        raise ConfigurationError("params laid out unlike those Adam's moments were built for")
    g = np.concatenate([grads[key] for key in params], axis=None)
    if state.m is None:
        state.layout, state.m, state.v = layout, np.zeros_like(g), np.zeros_like(g)
    if not np.isfinite(g).all():
        bad = next(key for key in params if not np.isfinite(grads[key]).all())
        raise TrainingAborted(f"non-finite gradient in {bad!r}")
    state.step += 1
    correction1 = 1.0 - BETA1**state.step
    correction2 = 1.0 - BETA2**state.step
    # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, p -= lr (m / c1) / (sqrt(v / c2) + eps):
    # each operation of these expressions, rounded as they round it, in place in m, v, g and t
    t = np.multiply(g, 1.0 - BETA1)
    state.m *= BETA1
    state.m += t
    state.v *= BETA2
    state.v += np.multiply(np.multiply(g, 1.0 - BETA2, out=t), g, out=t)
    step = np.multiply(np.divide(state.m, correction1, out=g), learning_rate, out=g)
    step /= np.add(np.sqrt(np.divide(state.v, correction2, out=t), out=t), EPS, out=t)
    for param, part in zip(params.values(), _views(step, params).values()):
        param -= part
    return state


# ---------------------------------------------------------------------------
# Model kinds


@dataclass(frozen=True)
class ModelKind:
    """Everything that differs between the qsann, csann and naive models.

    The classifier head and its penalties are the same for every kind and
    live in ``model`` (``model_mod.regularization`` and friends), not here;
    so does the one parameter draw: ``init`` fills zero arrays, and ``train``
    refills them, with ``model_mod.init_parameters`` in ``params`` key order.
    Entries call through module attributes (``model_mod.forward_many``), never
    a stored function object, so wrappers installed on a module see every call.
    """

    name: str
    model_type: type
    init: Callable  # (settings, vocab_size, rng) -> fresh model, drawn unless rng is None
    settings: Callable  # model -> dict of its model_config
    set_penalties: Callable  # (model, lam, gamma) -> None
    forward: Callable  # (sequences, model, noise, shots, rng) -> (y_hat, norms) arrays in order
    backward: Callable  # (sample, model, noise) -> gradient dict
    params: Callable  # model -> live arrays, keyed as in checkpoints
    parameter_count: Callable  # model -> (qkv, head, total)


def _qsann_init(settings: dict, vocab_size: int, rng: np.random.Generator | None):
    fields = (f.name for f in dataclasses.fields(model_mod.ModelConfig))
    config = model_mod.ModelConfig(**{name: settings[name] for name in fields})
    return model_mod.init_model(config, vocab_size, rng)


def _qsann_set_penalties(model, lam: float, gamma: float) -> None:
    model.config = dataclasses.replace(model.config, lam=lam, gamma=gamma)


def _baseline_set_penalties(model, lam: float, gamma: float) -> None:
    model.lam, model.gamma = lam, gamma


def _baseline_settings(model) -> dict:
    return {"dim": model.embeddings.dim, "lam": model.lam, "gamma": model.gamma}


def _one_by_one(forward, sequences, model):
    """(y_hat, squared embedding norm) array pairs of a one-sentence forward, a sentence each."""
    for ids in sequences:
        y_hat = forward(ids, model).y_hat  # checks the ids first
        yield np.array([y_hat]), np.array([float(np.sum(model.embeddings.rows[ids] ** 2))])


MODEL_KINDS = {
    kind.name: kind
    for kind in (
        ModelKind(
            "qsann",
            QsannModel,
            init=_qsann_init,
            settings=lambda m: dataclasses.asdict(m.config),
            set_penalties=_qsann_set_penalties,
            forward=lambda seqs, m, noise, shots, rng: model_mod.forward_many(
                seqs, m, noise, shots, rng
            ),
            backward=lambda sample, m, noise: gradients.bundle_as_dict(
                gradients.backward(sample, m, noise)
            ),
            params=lambda m: model_mod.model_param_dict(m),
            parameter_count=lambda m: model_mod.parameter_count(m),
        ),
        ModelKind(
            "csann",
            CsannParams,
            init=lambda s, vocab_size, rng: baselines.init_csann(
                vocab_size, s["dim"], rng, s["lam"], s["gamma"]
            ),
            settings=_baseline_settings,
            set_penalties=_baseline_set_penalties,
            forward=lambda seqs, m, noise, shots, rng: _one_by_one(
                baselines.csann_forward, seqs, m
            ),
            backward=lambda sample, m, noise: baselines.csann_backward(sample, m),
            params=lambda m: baselines.csann_param_dict(m),
            parameter_count=lambda m: baselines.csann_parameter_count(m.embeddings.dim),
        ),
        ModelKind(
            "naive",
            NaiveParams,
            init=lambda s, vocab_size, rng: baselines.init_naive(
                vocab_size, s["dim"], rng, s["lam"], s["gamma"]
            ),
            settings=_baseline_settings,
            set_penalties=_baseline_set_penalties,
            forward=lambda seqs, m, noise, shots, rng: _one_by_one(
                baselines.naive_forward, seqs, m
            ),
            backward=lambda sample, m, noise: baselines.naive_backward(sample, m),
            params=lambda m: baselines.naive_param_dict(m),
            parameter_count=lambda m: baselines.naive_parameter_count(m.embeddings.dim),
        ),
    )
}


def kind_of(model) -> ModelKind:
    """The table entry for a model object."""
    for kind in MODEL_KINDS.values():
        if isinstance(model, kind.model_type):
            return kind
    raise ConfigurationError(f"unknown model kind {type(model).__name__}")


def _as_samples(split) -> list[tuple[list[int], int]]:
    out = []
    for item in split:
        if isinstance(item, LabeledSequence):
            out.append((item.token_ids, item.label))
        else:
            out.append((list(item[0]), item[1]))
    return out


def _scores(splits, model, noise=None, shots=None, rng=None) -> list[tuple[float, float]]:
    """(accuracy, mean loss) of each list of (ids, label) samples from one forward pass over
    all: a sentence's prediction and norm depend on it alone, so each list's slice holds the
    values, in the order, of a pass of its own."""
    if not all(splits):
        raise EmptySequenceError("cannot evaluate an empty dataset")
    pairs = kind_of(model).forward([i for s in splits for i, _ in s], model, noise, shots, rng)
    y_hat, norms = (np.concatenate(parts) for parts in zip(*pairs))
    scores = []
    for samples, end in zip(splits, np.cumsum([len(samples) for samples in splits])):
        part = slice(end - len(samples), end)
        hits, loss = model_mod.score([(y_hat[part], norms[part])], [y for _, y in samples], model)
        scores.append((hits / len(samples), loss))
    return scores


def evaluate(
    split,
    model,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """(accuracy, mean loss) of a model over labeled sequences; ``shots`` and
    ``rng`` sample the quantum model's expectations."""
    return _scores([_as_samples(split)], model, noise, shots, rng)[0]


@dataclass
class TrainResult:
    model: object
    metrics: list[dict]
    aborted: bool = False
    stopped_epoch: int | None = None


def _window_converged(losses: list[float], window: int, tol: float) -> bool:
    if len(losses) < window + 1:
        return False
    recent = losses[-(window + 1) :]
    spread = max(recent) - min(recent)
    scale = max(abs(recent[0]), 1e-12)
    return spread / scale < tol


def train(
    dataset,
    model,
    config: TrainConfig,
    noise: NoiseChannel | None = None,
) -> TrainResult:
    """Run the optimization loop; reinitializes the model from config.seed.

    ``dataset`` provides .train/.dev/.test lists of labeled sequences.
    Metrics are recorded per epoch (epoch 0 is the pre-training state).
    """
    train_samples = _as_samples(dataset.train)
    if not train_samples:
        raise EmptySequenceError("training set is empty")
    test_samples = _as_samples(dataset.test)
    dev_samples = _as_samples(dataset.dev) if dataset.dev else []

    kind = kind_of(model)
    kind.set_penalties(model, config.lam, config.gamma)
    rng = np.random.default_rng(config.seed)
    params = kind.params(model)
    model_mod.init_parameters(params, rng)
    adam = AdamState()

    splits = [samples for samples in (train_samples, dev_samples, test_samples) if samples]

    def record(epoch: int) -> dict:
        scores = iter(_scores(splits, model, noise))  # one forward pass over every split
        train_acc, train_loss = next(scores)
        row = {"epoch": epoch, "train_loss": train_loss, "train_acc": train_acc}
        if dev_samples:
            dev_acc, row["dev_loss"] = next(scores)
            row["dev_acc"] = dev_acc
        if test_samples:
            row["test_acc"] = next(scores)[0]
        return row

    stop_key = "dev_loss" if config.dev_early_stop and dev_samples else "train_loss"
    metrics = [record(0)]
    stop_losses = [metrics[0][stop_key]]
    aborted = False
    stopped_epoch = None

    for epoch in range(1, config.epochs + 1):
        last_good = np.concatenate(list(params.values()), axis=None)  # flat, as in _views
        order = (
            rng.permutation(len(train_samples))
            if config.shuffle
            else np.arange(len(train_samples))
        )
        try:
            for start in range(0, len(order), config.batch_size):
                chunk = order[start : start + config.batch_size]
                if len(chunk) == 1:
                    grads = kind.backward(train_samples[chunk[0]], model, noise)
                else:  # summed in sample order into one flat vector, then averaged
                    total = np.zeros_like(last_good)
                    for i in chunk:
                        grads = kind.backward(train_samples[i], model, noise)
                        total += np.concatenate([grads[key] for key in params], axis=None)
                    total /= len(chunk)
                    grads = _views(total, params)
                adam_step(params, grads, adam, config.learning_rate)
            metrics.append(record(epoch))
            if not np.isfinite(metrics[-1]["train_loss"]):
                raise TrainingAborted("non-finite training loss")
        except TrainingAborted:
            for param, saved in zip(params.values(), _views(last_good, params).values()):
                param[...] = saved
            aborted = True
            stopped_epoch = epoch
            break

        stop_losses.append(metrics[-1][stop_key])
        if _window_converged(stop_losses, config.stop_window, config.stop_tol):
            stopped_epoch = epoch
            break

    return TrainResult(
        model=model, metrics=metrics, aborted=aborted, stopped_epoch=stopped_epoch
    )
