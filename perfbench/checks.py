"""Output checks, run outside the timed segments.

Each check returns a list of failure messages; an empty list means it passed.
The references are computed apart from the program: the Kronecker oracle in
``oracle.py`` for the forward pass and the evaluation, central finite
differences of ``model.loss`` for the backward pass.
"""

from __future__ import annotations

import numpy as np
from qsann import gradients, model as model_mod, training

import oracle

FORWARD_TOL = 1e-9
GRAD_ATOL = 1e-5
GRAD_RTOL = 1e-3
FD_STEP = 1e-5


def check_forward(model, samples, noise, noise_p) -> list[str]:
    """Predictions, attention matrices and ``evaluate`` against the oracle."""
    errors = []
    y_hats = []
    for ids, _ in samples:
        pred = model_mod.forward(ids, model, noise)
        ref_y, ref_att = oracle.forward(ids, model, noise_p)
        y_hats.append(ref_y)
        if not abs(pred.y_hat - ref_y) <= FORWARD_TOL:
            errors.append(f"forward {ids}: y_hat {pred.y_hat!r} != oracle {ref_y!r}")
        if pred.label != int(ref_y >= 0.5):
            errors.append(f"forward {ids}: label {pred.label} disagrees with oracle")
        for layer, (att, ref) in enumerate(zip(pred.attention, ref_att)):
            worst = float(np.max(np.abs(att.coefficients - ref)))
            if not worst <= FORWARD_TOL:
                errors.append(f"forward {ids}: layer {layer} attention off by {worst:.3e}")
    accuracy, mean_loss = training.evaluate(samples, model, noise)
    ref_acc = sum(int(y >= 0.5) == label for y, (_, label) in zip(y_hats, samples))
    ref_acc /= len(samples)
    ref_loss = oracle.loss(samples, y_hats, model)
    if accuracy != ref_acc:
        errors.append(f"evaluate: accuracy {accuracy!r} != oracle {ref_acc!r}")
    if not abs(mean_loss - ref_loss) <= FORWARD_TOL:
        errors.append(f"evaluate: mean loss {mean_loss!r} != oracle {ref_loss!r}")
    return errors


def _components(params, ids, rng) -> list[tuple[str, tuple]]:
    """Sampled gradient components: Q/K/V angles, head, embedding rows."""
    picks = []
    for key, arr in params.items():
        if key == "embeddings":
            continue
        count = min(arr.size, 1 if key == "head_b" else 4)
        for flat in rng.choice(arr.size, count, replace=False):
            index = np.unravel_index(int(flat), arr.shape)
            picks.append((key, tuple(int(i) for i in index)))
    rows = params["embeddings"]
    present = list(dict.fromkeys(ids))[:2]
    absent = [r for r in range(rows.shape[0]) if r not in set(ids)][:1]
    for row, count in [(r, 4) for r in present] + [(r, 2) for r in absent]:
        for col in rng.choice(rows.shape[1], count, replace=False):
            picks.append(("embeddings", (int(row), int(col))))
    return picks


def check_gradients(model, sample, noise, seed) -> list[str]:
    """``gradients.backward`` against central differences of ``model.loss``."""
    grads = gradients.bundle_as_dict(gradients.backward(sample, model, noise))
    params = gradients.model_param_dict(model)
    errors = []
    for key, index in _components(params, sample[0], np.random.default_rng(seed)):
        arr = params[key]
        orig = arr[index]
        arr[index] = orig + FD_STEP
        plus = model_mod.loss([sample], model, noise)
        arr[index] = orig - FD_STEP
        minus = model_mod.loss([sample], model, noise)
        arr[index] = orig
        numeric = (plus - minus) / (2.0 * FD_STEP)
        analytic = float(grads[key][index])
        diff = abs(analytic - numeric)
        if not (diff <= GRAD_ATOL or diff <= GRAD_RTOL * abs(numeric)):
            errors.append(
                f"gradient {key}{list(index)}: backward {analytic!r}, "
                f"finite difference {numeric!r}"
            )
    return errors


def check_training(result, epochs: int) -> list[str]:
    """The run completes its epochs and ends below its epoch-0 train loss."""
    errors = []
    if result.aborted or len(result.metrics) != epochs + 1:
        errors.append(
            f"training ran {len(result.metrics) - 1} of {epochs} epochs "
            f"(aborted={result.aborted})"
        )
    first, last = result.metrics[0]["train_loss"], result.metrics[-1]["train_loss"]
    if not last < first:
        errors.append(f"train loss did not fall: epoch 0 {first!r}, final {last!r}")
    return errors
