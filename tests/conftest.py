import numpy as np
import pytest

from qsann import gradients, model as model_mod
from qsann.ansatz import AnsatzSpec, ParamVector
from qsann.attention import QsalLayerParams


def build_random_model(
    rng,
    n_qubits=2,
    enc_depth=1,
    qkv_depth=1,
    n_layers=1,
    vocab_size=5,
    lam=0.0,
    gamma=0.0,
    scale=0.4,
):
    """Model with parameters drawn wide enough to stress every chain-rule term."""
    cfg = model_mod.ModelConfig(n_qubits, enc_depth, qkv_depth, n_layers, lam, gamma)
    model = model_mod.init_model(cfg, vocab_size, rng)
    for key, arr in gradients.model_param_dict(model).items():
        arr[...] = rng.normal(0.0, scale, arr.shape)
    return model


def random_layer(rng, n=2, enc_depth=1, qkv_depth=1, std=0.5):
    """Layer whose query, key and value angles are drawn from N(0, std), in that order."""
    spec = AnsatzSpec(n, qkv_depth)
    angles = (ParamVector(spec, rng.normal(0.0, std, spec.param_count)) for _ in range(3))
    return QsalLayerParams(n, enc_depth, qkv_depth, *angles)


def finite_difference(loss_fn, params: dict, h=1e-5) -> dict:
    """Central finite differences of a scalar function over a dict of arrays."""
    grads = {}
    for key, arr in params.items():
        flat = arr.reshape(-1)
        out = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss_fn()
            flat[i] = orig - h
            minus = loss_fn()
            flat[i] = orig
            out[i] = (plus - minus) / (2.0 * h)
        grads[key] = out.reshape(arr.shape)
    return grads


def assert_grad_close(analytic: dict, numeric: dict, atol=1e-5, rtol=1e-3):
    """Per component: absolute OR relative agreement, whichever is looser."""
    for key in numeric:
        a = analytic[key].reshape(-1)
        n = numeric[key].reshape(-1)
        diff = np.abs(a - n)
        ok = (diff <= atol) | (diff <= rtol * np.abs(n))
        assert ok.all(), f"{key}: worst |diff| = {diff.max()}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
