"""Analytic gradients of the per-sample loss.

Head gradients are closed-form; everything that flows through a quantum
expectation uses the parameter-shift rule (two circuit evaluations at
+/- pi/2), which is exact for the rotation gates used here, not a finite
difference.  The rule also covers encoder angles, which is how gradients
reach the embedding vectors: a word's embedding entries ARE the rotation
angles of its encoder circuit.

For each attention layer with inputs u, normalized coefficients a[s, j],
value vectors o[j] and upstream gradient g[s] = dL/dy[s]:

  dL/do[j]   = sum_s a[s, j] g[s]
  dL/dzk[i]  = sum_s 2 (zq[s] - zk[i]) a[s, i] (beta[s, i] - betabar[s])
  dL/dzq[s]  = -sum_i (same term)

with beta[s, j] = g[s] . o[j] and betabar[s] its a-weighted row mean: the
softmax-style Jacobian of the row normalization.  The gradient with respect
to a layer input splits into residual, value, query and key contributions;
layers are traversed last to first so stacked models backpropagate.

Shifted evaluations are batched (all parameters, both signs, all words in
one simulator call) purely for speed; results are identical to one-at-a-time
shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .attention import (
    LayerTrace,
    ObservableSet,
    QsalLayerParams,
    make_engine,
    z1_observable,
)
from .model import QsannModel
from .sim import NoiseChannel


@dataclass
class GradientBundle:
    """Gradient of the per-sample loss, shape-matched to the model."""

    d_theta: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    d_w: np.ndarray
    d_b: np.ndarray
    d_embeddings: np.ndarray


def model_param_dict(model: QsannModel) -> dict[str, np.ndarray]:
    """Live views of all trainable arrays, keyed for the optimizer."""
    params: dict[str, np.ndarray] = {}
    for i, layer in enumerate(model.layers):
        params[f"layer{i}.theta_q"] = layer.theta_q.values
        params[f"layer{i}.theta_k"] = layer.theta_k.values
        params[f"layer{i}.theta_v"] = layer.theta_v.values
    params["head_w"] = model.head_w
    params["head_b"] = model.head_b
    params["embeddings"] = model.embeddings.rows
    return params


def bundle_as_dict(bundle: GradientBundle) -> dict[str, np.ndarray]:
    grads: dict[str, np.ndarray] = {}
    for i, (dq, dk, dv) in enumerate(bundle.d_theta):
        grads[f"layer{i}.theta_q"] = dq
        grads[f"layer{i}.theta_k"] = dk
        grads[f"layer{i}.theta_v"] = dv
    grads["head_w"] = bundle.d_w
    grads["head_b"] = bundle.d_b
    grads["embeddings"] = bundle.d_embeddings
    return grads


# ---------------------------------------------------------------------------
# Shifted-evaluation helpers


def _tile_states(states: np.ndarray, reps: int) -> np.ndarray:
    return np.tile(states, (reps,) + (1,) * (states.ndim - 1))


def _theta_shift_expectations(engine, encoded, spec, theta, obs, obs_set):
    """Expectations under every single-angle +/- pi/2 shift of theta.

    Returns (z_shift, value_shift): z_shift has shape (P, 2, S) for the
    Z_1 observable, value_shift (P, 2, S, d) for the observable set; either
    is None when the corresponding output is not requested.
    """
    count = theta.shape[0]
    n_states = encoded.shape[0]
    stack = np.broadcast_to(theta, (count, 2, count)).copy()
    idx = np.arange(count)
    stack[idx, 0, idx] += np.pi / 2.0
    stack[idx, 1, idx] -= np.pi / 2.0
    angle_rows = np.repeat(stack.reshape(2 * count, count), n_states, axis=0)
    states = engine.apply(_tile_states(encoded, 2 * count), spec, angle_rows)
    z_shift = None
    if obs is not None:
        z_shift = engine.expect(states, obs).reshape(count, 2, n_states)
    value_shift = None
    if obs_set is not None:
        value_shift = engine.expect_set(states, obs_set).reshape(
            count, 2, n_states, obs_set.size
        )
    return z_shift, value_shift


def _input_shift_batch(u: np.ndarray) -> np.ndarray:
    """(S * d * 2, d) encoder-angle rows with every entry shifted both ways."""
    n_words, dim = u.shape
    stack = np.broadcast_to(u[:, None, None, :], (n_words, dim, 2, dim)).copy()
    rows = np.arange(n_words)[:, None]
    cols = np.arange(dim)[None, :]
    stack[rows, cols, 0, cols] += np.pi / 2.0
    stack[rows, cols, 1, cols] -= np.pi / 2.0
    return stack.reshape(n_words * dim * 2, dim)


def layer_backward(
    layer: QsalLayerParams,
    obs: ObservableSet,
    trace: LayerTrace,
    g: np.ndarray,
    noise: NoiseChannel | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate an upstream gradient g = dL/dy through one layer.

    Takes the layer's forward trace and returns (d_theta_q, d_theta_k,
    d_theta_v, d_u) where d_u is the gradient with respect to the layer
    inputs (residual + value + query + key parts).
    """
    u, encoded, zq, zk = trace.inputs, trace.encoded, trace.zq, trace.zk
    alpha, values = trace.attention.coefficients, trace.values
    engine = make_engine(layer.n_qubits, noise)
    z1 = z1_observable(layer.n_qubits)
    qkv_spec = layer.qkv_spec

    beta = g @ values.T
    beta_bar = np.sum(alpha * beta, axis=1)
    d_values = alpha.T @ g
    attn_term = 2.0 * (zq[:, None] - zk[None, :]) * alpha * (beta - beta_bar[:, None])
    d_zk = attn_term.sum(axis=0)
    d_zq = -attn_term.sum(axis=1)

    zq_shift, _ = _theta_shift_expectations(
        engine, encoded, qkv_spec, layer.theta_q.values, z1, None
    )
    zk_shift, _ = _theta_shift_expectations(
        engine, encoded, qkv_spec, layer.theta_k.values, z1, None
    )
    _, val_shift = _theta_shift_expectations(
        engine, encoded, qkv_spec, layer.theta_v.values, None, obs
    )
    dzq_dtheta = (zq_shift[:, 0, :] - zq_shift[:, 1, :]) / 2.0  # (P, S)
    dzk_dtheta = (zk_shift[:, 0, :] - zk_shift[:, 1, :]) / 2.0
    dval_dtheta = (val_shift[:, 0] - val_shift[:, 1]) / 2.0  # (P, S, d)
    d_theta_q = dzq_dtheta @ d_zq
    d_theta_k = dzk_dtheta @ d_zk
    d_theta_v = np.einsum("psd,sd->p", dval_dtheta, d_values)

    # Gradient with respect to the layer inputs: the encoder circuit's
    # angles are the input entries, so shift them the same way.
    n_words, dim = u.shape
    shifted_inputs = _input_shift_batch(u)
    enc_shifted = engine.prepare(shifted_inputs, layer.enc_spec)
    eq = engine.expect(
        engine.apply(enc_shifted, qkv_spec, layer.theta_q.values), z1
    ).reshape(n_words, dim, 2)
    ek = engine.expect(
        engine.apply(enc_shifted, qkv_spec, layer.theta_k.values), z1
    ).reshape(n_words, dim, 2)
    ev = engine.expect_set(
        engine.apply(enc_shifted, qkv_spec, layer.theta_v.values), obs
    ).reshape(n_words, dim, 2, obs.size)
    dzq_du = (eq[:, :, 0] - eq[:, :, 1]) / 2.0  # (S, d)
    dzk_du = (ek[:, :, 0] - ek[:, :, 1]) / 2.0
    dval_du = (ev[:, :, 0, :] - ev[:, :, 1, :]) / 2.0  # (S, d, d_obs)

    d_u = g.copy()
    d_u += np.einsum("si,sri->sr", d_values, dval_du)
    d_u += d_zq[:, None] * dzq_du
    d_u += d_zk[:, None] * dzk_du
    return d_theta_q, d_theta_k, d_theta_v, d_u


def backward(
    sample: tuple,
    model: QsannModel,
    noise: NoiseChannel | None = None,
) -> GradientBundle:
    """Gradient of the single-sample loss with respect to every parameter.

    ``sample`` is (token_ids, label); the label may be any real for testing
    the error factor, 0/1 in actual datasets.
    """
    token_ids, label = sample
    ids = model.embeddings.check_ids(token_ids)
    cfg = model.config
    traces = model_mod.layer_traces(ids, model, noise)

    n_words = len(ids)
    dim = cfg.embed_dim
    pooled, y_hat = model_mod.head_output(model, traces[-1].outputs)
    sigma_t = (y_hat - float(label)) * y_hat * (1.0 - y_hat)

    d_w = sigma_t * pooled + (cfg.lam / dim) * model.head_w
    d_b = np.array([sigma_t])
    g = np.tile(sigma_t * model.head_w / n_words, (n_words, 1))

    d_theta: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * len(model.layers)
    for layer_idx in range(len(model.layers) - 1, -1, -1):
        dq, dk, dv, g = layer_backward(
            model.layers[layer_idx], model.observables, traces[layer_idx], g, noise
        )
        d_theta[layer_idx] = (dq, dk, dv)

    xs = traces[0].inputs
    d_emb = np.zeros_like(model.embeddings.rows)
    gamma_scale = cfg.gamma / dim
    for pos, token in enumerate(ids):
        d_emb[token] += g[pos] + gamma_scale * xs[pos]
    return GradientBundle(d_theta=d_theta, d_w=d_w, d_b=d_b, d_embeddings=d_emb)
