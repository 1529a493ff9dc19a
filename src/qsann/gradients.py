"""Analytic gradients of the quantum model's per-sample loss.

Head and embedding-penalty gradients come from the head that ``model``
shares with the baselines (``head_backward``, ``embedding_gradient``);
everything that flows through a quantum expectation comes from adjoint
sweeps over the circuits' columns (``ansatz.adjoint_operator_gradients``
and ``adjoint_row_gradients``), which are exact, not finite differences.
The sweeps also cover encoder angles, which is how gradients reach the
embedding vectors: a word's embedding entries ARE the rotation angles of its
encoder circuit.

For each attention layer with inputs u, normalized coefficients a[s, j],
value vectors o[j] and upstream gradient g[s] = dL/dy[s]:

  dL/do[j]   = sum_s a[s, j] g[s]
  dL/dzk[i]  = sum_s 2 (zq[s] - zk[i]) a[s, i] (beta[s, i] - betabar[s])
  dL/dzq[s]  = -sum_i (same term)

with beta[s, j] = g[s] . o[j] and betabar[s] its a-weighted row mean: the
softmax-style Jacobian of the row normalization.  The gradient with respect
to a layer input splits into residual, value, query and key contributions;
layers are traversed last to first so stacked models backpropagate.

Measured quantity k (query/key Z_1, d values) weighs word s by its upstream
gradient w_k[s]: circuit angles sweep X = sum_k rho_k U^dag E^dag(O_k) U, one
per circuit, with rho_k = E(sum_s w_k[s] enc_s enc_s^T) of the real encoder
rows; word s's encoder angles sweep its row against sum_k w_k[s] Re(M_k), and
those of the first (RX) column, which sets only a global phase, get zero.  The
noise, the column operators, U^dag E^dag(O_k) U, Re(M_k) and each quantity's
circuit are read from the ``attention.Engine`` the forward kept in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, model as model_mod
from .ansatz import adjoint_operator_gradients, adjoint_row_gradients, real_product
from .attention import LayerTrace
from .model import QsannModel, model_param_dict  # re-exported
from .sim import NoiseChannel


@dataclass
class GradientBundle:
    """Gradient of the per-sample loss, shape-matched to the model."""

    d_theta: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    d_w: np.ndarray
    d_b: np.ndarray
    d_embeddings: np.ndarray


def bundle_as_dict(bundle: GradientBundle) -> dict[str, np.ndarray]:
    grads = {
        f"layer{i}.theta_{c}": grad
        for i, layer in enumerate(bundle.d_theta)
        for c, grad in zip("qkv", layer)
    }
    return {**grads, "head_w": bundle.d_w, "head_b": bundle.d_b, "embeddings": bundle.d_embeddings}


# ---------------------------------------------------------------------------
# Layer backward


def layer_backward(
    trace: LayerTrace, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate an upstream gradient g = dL/dy through one layer.

    Takes the layer's forward trace and returns (d_theta_q, d_theta_k,
    d_theta_v, d_u) where d_u is the gradient with respect to the layer
    inputs (residual + value + query + key parts).
    """
    u, zq, zk = trace.inputs, trace.zq, trace.zk
    alpha, values, engine = trace.coefficients, trace.values, trace.engine

    beta = g @ values.T
    beta_bar = np.sum(alpha * beta, axis=1)
    d_values = alpha.T @ g
    attn_term = 2.0 * (zq[:, None] - zk[None, :]) * alpha * (beta - beta_bar[:, None])
    d_zk = attn_term.sum(axis=0)
    d_zq = -attn_term.sum(axis=1)
    # weight of each word in each measured quantity, rows as in engine.circuits
    weights = np.vstack([d_zq, d_zk, d_values.T])

    # ENCODE_BLOCK words at a time, so that no intermediate grows with the sentence:
    # sum_s w_k[s] enc_s enc_s^T, and each word's encoder sweep (its angles are the
    # inputs) against sum_k w_k[s] Re(M_k).
    d_u, mixed = g.copy(), 0.0
    for start in range(0, len(u), attention.ENCODE_BLOCK):
        block = slice(start, start + attention.ENCODE_BLOCK)
        states = trace.encoded[block]
        mixed = mixed + (weights[:, block, None] * states).swapaxes(1, 2) @ states
        duals = (weights[:, block].T[:, None, :] @ engine.moved(states))[:, 0]
        d_u[block] += adjoint_row_gradients(engine.enc_spec, u[block], states, duals)
    rhos = engine.channel(mixed)  # rho_k, the channel applied once

    # sum_s w_k[s] <enc_s|M_k|enc_s> = Tr[E^dag(O_k) U rho_k U^dag], U the quantity's circuit
    products = real_product(rhos, engine.heisenberg)
    joints = np.stack([products[0], products[1], products[2:].sum(axis=0)])  # Q, K, the values
    d_theta = adjoint_operator_gradients(engine.qkv_spec, engine.rx, engine.ry, joints)
    return d_theta[0], d_theta[1], d_theta[2], d_u


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
    traces = model_mod.layer_traces(ids, model, noise)
    d_w, d_b, g = model_mod.head_backward(model, traces[-1].outputs, label)

    d_theta: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [None] * len(model.layers)
    for layer_idx in range(len(model.layers) - 1, -1, -1):
        dq, dk, dv, g = layer_backward(traces[layer_idx], g)
        d_theta[layer_idx] = (dq, dk, dv)

    d_emb = model_mod.embedding_gradient(model, ids, traces[0].inputs, g)
    return GradientBundle(d_theta=d_theta, d_w=d_w, d_b=d_b, d_embeddings=d_emb)
