"""Adam optimization, the table of model kinds and the training loop they share.

Updates default to one sample at a time; larger batch sizes average the
per-sample gradients before a single step.  ``train`` first redraws every
parameter with ``model.init_parameters`` from the config seed, so identical
(seed, config, data) reproduce identical runs whatever model it is given.
Training stops early once the relative spread of the epoch losses inside a
trailing window drops below a tolerance, or aborts (restoring the last
finite state) if a loss or gradient goes non-finite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import baselines, gradients, model as model_mod
from .baselines import CsannParams, NaiveParams
from .data import LabeledSequence
from .errors import ConfigurationError, EmptySequenceError, TrainingAborted
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


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> AdamState:
    """One in-place Adam update with bias correction."""
    for key, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise TrainingAborted(f"non-finite gradient in {key!r}")
    state.step += 1
    correction1 = 1.0 - state.beta1**state.step
    correction2 = 1.0 - state.beta2**state.step
    for key, param in params.items():
        grad = grads[key]
        if key not in state.m:
            state.m[key] = np.zeros_like(param)
            state.v[key] = np.zeros_like(param)
        state.m[key] = state.beta1 * state.m[key] + (1.0 - state.beta1) * grad
        state.v[key] = state.beta2 * state.v[key] + (1.0 - state.beta2) * grad * grad
        m_hat = state.m[key] / correction1
        v_hat = state.v[key] / correction2
        param -= learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
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
    forward: Callable  # (sequences, model, noise, shots, rng) -> Predictions, in order
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
            forward=lambda seqs, m, noise, shots, rng: (
                baselines.csann_forward(ids, m) for ids in seqs
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
            forward=lambda seqs, m, noise, shots, rng: (
                baselines.naive_forward(ids, m) for ids in seqs
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


def evaluate(
    split,
    model,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """(accuracy, mean loss) of a model over labeled sequences.

    ``shots`` and ``rng`` sample the quantum model's expectations.  The
    predictions are read as they are made, never held all at once.
    """
    samples = _as_samples(split)
    if not samples:
        raise EmptySequenceError("cannot evaluate an empty dataset")
    predictions = kind_of(model).forward([ids for ids, _ in samples], model, noise, shots, rng)
    hits = 0
    errors = []
    for (_, label), pred in zip(samples, predictions):
        hits += int(pred.label == label)
        errors.append((pred.y_hat - float(label)) ** 2)
    mean_loss = float(np.mean(errors)) / 2.0 + model_mod.regularization(model, samples)
    return hits / len(samples), mean_loss


@dataclass
class TrainResult:
    model: object
    metrics: list[dict]
    aborted: bool = False
    stopped_epoch: int | None = None


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {key: param.copy() for key, param in params.items()}


def _restore(params: dict[str, np.ndarray], snap: dict[str, np.ndarray]) -> None:
    for key, param in params.items():
        param[...] = snap[key]


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

    def record(epoch: int) -> dict:
        train_acc, train_loss = evaluate(train_samples, model, noise)
        row = {"epoch": epoch, "train_loss": train_loss, "train_acc": train_acc}
        if dev_samples:
            dev_acc, dev_loss = evaluate(dev_samples, model, noise)
            row["dev_loss"] = dev_loss
            row["dev_acc"] = dev_acc
        if test_samples:
            test_acc, _ = evaluate(test_samples, model, noise)
            row["test_acc"] = test_acc
        return row

    stop_key = "dev_loss" if config.dev_early_stop and dev_samples else "train_loss"
    metrics = [record(0)]
    stop_losses = [metrics[0][stop_key]]
    last_good = _snapshot(params)
    aborted = False
    stopped_epoch = None

    for epoch in range(1, config.epochs + 1):
        order = (
            rng.permutation(len(train_samples))
            if config.shuffle
            else np.arange(len(train_samples))
        )
        try:
            for start in range(0, len(order), config.batch_size):
                chunk = order[start : start + config.batch_size]
                grad_dicts = [kind.backward(train_samples[i], model, noise) for i in chunk]
                grads = {
                    key: sum(g[key] for g in grad_dicts) / len(grad_dicts)
                    for key in grad_dicts[0]
                }
                adam_step(params, grads, adam, config.learning_rate)
            metrics.append(record(epoch))
            if not np.isfinite(metrics[-1]["train_loss"]):
                raise TrainingAborted("non-finite training loss")
        except TrainingAborted:
            _restore(params, last_good)
            aborted = True
            stopped_epoch = epoch
            break

        last_good = _snapshot(params)
        stop_losses.append(metrics[-1][stop_key])
        if _window_converged(stop_losses, config.stop_window, config.stop_tol):
            stopped_epoch = epoch
            break

    return TrainResult(
        model=model, metrics=metrics, aborted=aborted, stopped_epoch=stopped_epoch
    )
