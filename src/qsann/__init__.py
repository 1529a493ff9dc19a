"""Quantum self-attention neural network for binary text classification.

Subpackages: ``sim`` (exact state/density simulation), ``ansatz`` (circuit
topology and parameter-shift gradients), ``attention`` (the quantum
self-attention layer), ``model`` (full network and loss), ``gradients`` /
``training`` (analytic backward pass and Adam loop), ``data`` (corpora),
``baselines`` (classical comparison models), ``checkpoint`` and ``cli``.
"""

from .sim import (
    DensityMatrix,
    Gate,
    NoiseChannel,
    PauliString,
    StateVector,
    apply_channel,
    apply_gate,
    expectation,
    expectation_dm,
    init_zero_state,
)
from .ansatz import AnsatzSpec, ParamVector, build_circuit, encode_input, param_shift_grad
from .attention import (
    AttentionMatrix,
    LayerTrace,
    ObservableSet,
    QsalLayerParams,
    gpqsa_coefficients,
    layer_forward,
)
from .model import ModelConfig, Prediction, QsannModel, forward, init_model, loss, parameter_count
from .training import AdamState, TrainConfig, TrainResult, adam_step, evaluate, train

__all__ = [
    "AdamState",
    "AnsatzSpec",
    "AttentionMatrix",
    "DensityMatrix",
    "Gate",
    "LayerTrace",
    "ModelConfig",
    "NoiseChannel",
    "ObservableSet",
    "ParamVector",
    "PauliString",
    "Prediction",
    "QsalLayerParams",
    "QsannModel",
    "StateVector",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "apply_channel",
    "apply_gate",
    "build_circuit",
    "encode_input",
    "evaluate",
    "expectation",
    "expectation_dm",
    "forward",
    "gpqsa_coefficients",
    "init_model",
    "init_zero_state",
    "layer_forward",
    "loss",
    "parameter_count",
    "param_shift_grad",
    "train",
]

__version__ = "0.1.0"
