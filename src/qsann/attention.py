"""Quantum self-attention layer.

Each input vector is encoded as an n-qubit state, three circuits (query,
key, value) are run on that state, and single Pauli-Z_1 measurements of the
query/key circuits feed a Gaussian attention coefficient
exp(-(<Z_q>_s - <Z_k>_j)^2), row-normalized.  Outputs are residual:
y_s = x_s + sum_j coeff[s, j] * o_j, where o_j stacks the value circuit's
Pauli expectations.

Two evaluation engines share the layer logic: a pure statevector engine and
a density-matrix engine that inserts a single-qubit noise channel on every
qubit after the final layer of each of the four circuits (encoder, query,
key, value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, ParamVector, encode_batch, run_ansatz_batch
from .errors import ConfigurationError, EmptySequenceError
from .sim import (
    Gate,
    NoiseChannel,
    PauliString,
    apply_channel_batch,
    apply_cnot_dm_batch,
    apply_gate_dm_batch,
    apply_rotation_dm_batch,
    expectation_batch,
    expectation_dm_batch,
    zero_density_batch,
)


@dataclass
class QsalLayerParams:
    """Trainable angles of one layer plus its circuit geometry."""

    n_qubits: int
    enc_depth: int
    qkv_depth: int
    theta_q: ParamVector
    theta_k: ParamVector
    theta_v: ParamVector

    def __post_init__(self) -> None:
        expected = AnsatzSpec(self.n_qubits, self.qkv_depth)
        for name in ("theta_q", "theta_k", "theta_v"):
            vec = getattr(self, name)
            if vec.spec != expected:
                raise ConfigurationError(
                    f"{name} sized for {vec.spec}, expected {expected}"
                )

    @property
    def enc_spec(self) -> AnsatzSpec:
        return AnsatzSpec(self.n_qubits, self.enc_depth)

    @property
    def qkv_spec(self) -> AnsatzSpec:
        return AnsatzSpec(self.n_qubits, self.qkv_depth)

    @property
    def input_dim(self) -> int:
        return self.enc_spec.param_count

    @classmethod
    def create(
        cls,
        n_qubits: int,
        enc_depth: int,
        qkv_depth: int,
        rng: np.random.Generator | None = None,
        std: float = 0.01,
    ) -> "QsalLayerParams":
        spec = AnsatzSpec(n_qubits, qkv_depth)
        def draw() -> ParamVector:
            if rng is None:
                return ParamVector.zeros(spec)
            return ParamVector(spec, rng.normal(0.0, std, spec.param_count))
        return cls(n_qubits, enc_depth, qkv_depth, draw(), draw(), draw())


@dataclass(frozen=True)
class ObservableSet:
    """Ordered Pauli observables measured on the value circuit.

    The leading min(d, 3n) entries are always the singles Z_1..Z_n,
    X_1..X_n, Y_1..Y_n; any remainder comes from two-qubit pairs of equal
    letters at growing ring distance (ZZ adjacents, XX adjacents, YY
    adjacents, then distance two, ...), duplicates removed.
    """

    observables: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if not self.observables:
            raise ConfigurationError("ObservableSet must not be empty")
        n = self.observables[0].n_qubits
        for obs in self.observables:
            if obs.n_qubits != n:
                raise ConfigurationError("observables act on differing qubit counts")
        expected = _single_pauli_sequence(n)
        head = self.observables[: min(len(self.observables), 3 * n)]
        if list(head) != expected[: len(head)]:
            raise ConfigurationError(
                "first min(d, 3n) observables must be Z, X, Y singles in order"
            )

    @property
    def n_qubits(self) -> int:
        return self.observables[0].n_qubits

    @property
    def size(self) -> int:
        return len(self.observables)

    @classmethod
    def default(cls, n_qubits: int, size: int) -> "ObservableSet":
        if size < 1:
            raise ConfigurationError("observable count must be positive")
        candidates = _single_pauli_sequence(n_qubits)
        seen = {str(obs) for obs in candidates}
        for stride in range(1, n_qubits):
            for letter in ("Z", "X", "Y"):
                for i in range(n_qubits):
                    letters = ["I"] * n_qubits
                    letters[i] = letter
                    letters[(i + stride) % n_qubits] = letter
                    obs = PauliString(tuple(letters))
                    if str(obs) not in seen:
                        seen.add(str(obs))
                        candidates.append(obs)
        if size > len(candidates):
            raise ConfigurationError(
                f"cannot build {size} observables on {n_qubits} qubits "
                f"(at most {len(candidates)})"
            )
        return cls(tuple(candidates[:size]))


def _single_pauli_sequence(n_qubits: int) -> list[PauliString]:
    return [
        PauliString.single(letter, q, n_qubits)
        for letter in ("Z", "X", "Y")
        for q in range(n_qubits)
    ]


@dataclass(frozen=True)
class AttentionMatrix:
    """Row-stochastic matrix of normalized attention coefficients."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", coeff)
        if coeff.ndim != 2 or coeff.shape[0] != coeff.shape[1] or coeff.shape[0] == 0:
            raise ConfigurationError(f"expected square matrix, got {coeff.shape}")
        if np.any(coeff <= 0.0) or np.any(coeff > 1.0):
            raise ConfigurationError("attention entries must lie in (0, 1]")
        row_sums = coeff.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-10:
            raise ConfigurationError("attention rows must sum to 1")

    @property
    def size(self) -> int:
        return self.coefficients.shape[0]


# ---------------------------------------------------------------------------
# Evaluation engines


class PureEngine:
    """Statevector evaluation; states are (batch, 2**n) amplitude arrays."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits

    def prepare(self, inputs: np.ndarray, enc_spec: AnsatzSpec) -> np.ndarray:
        return encode_batch(inputs, enc_spec)

    def apply(self, states: np.ndarray, spec: AnsatzSpec, angles) -> np.ndarray:
        return run_ansatz_batch(states, spec, angles)

    def expect(self, states: np.ndarray, obs: PauliString) -> np.ndarray:
        return expectation_batch(states, obs, self.n_qubits)

    def expect_set(self, states: np.ndarray, obs_set: ObservableSet) -> np.ndarray:
        return np.stack(
            [expectation_batch(states, obs, self.n_qubits) for obs in obs_set.observables],
            axis=1,
        )


class NoisyEngine:
    """Density-matrix evaluation with a channel on every qubit after each circuit."""

    def __init__(self, n_qubits: int, channel: NoiseChannel):
        self.n_qubits = n_qubits
        self.channel = channel

    def _noisy_ansatz(self, rhos: np.ndarray, spec: AnsatzSpec, angles) -> np.ndarray:
        rhos = run_ansatz_batch(
            rhos, spec, angles, apply_rotation_dm_batch, apply_cnot_dm_batch
        )
        for q in range(self.n_qubits):
            rhos = apply_channel_batch(rhos, self.channel, q, self.n_qubits)
        return rhos

    def prepare(self, inputs: np.ndarray, enc_spec: AnsatzSpec) -> np.ndarray:
        rhos = zero_density_batch(self.n_qubits, inputs.shape[0])
        for q in range(self.n_qubits):
            rhos = apply_gate_dm_batch(rhos, Gate("H", q), self.n_qubits)
        return self._noisy_ansatz(rhos, enc_spec, inputs)

    def apply(self, states: np.ndarray, spec: AnsatzSpec, angles) -> np.ndarray:
        return self._noisy_ansatz(states, spec, angles)

    def expect(self, states: np.ndarray, obs: PauliString) -> np.ndarray:
        return np.clip(expectation_dm_batch(states, obs, self.n_qubits), -1.0, 1.0)

    def expect_set(self, states: np.ndarray, obs_set: ObservableSet) -> np.ndarray:
        return np.stack([self.expect(states, obs) for obs in obs_set.observables], axis=1)


def make_engine(n_qubits: int, noise: NoiseChannel | None):
    """Pick the evaluation backend; p = 0 short-circuits to the pure path."""
    if noise is None or noise.p == 0.0:
        return PureEngine(n_qubits)
    return NoisyEngine(n_qubits, noise)


def z1_observable(n_qubits: int) -> PauliString:
    return PauliString.single("Z", 0, n_qubits)


# ---------------------------------------------------------------------------
# Layer operations


def _check_inputs(inputs, params: QsalLayerParams) -> np.ndarray:
    xs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    if xs.shape[0] == 0:
        raise EmptySequenceError("layer received an empty input sequence")
    if xs.shape[1] != params.input_dim:
        raise ConfigurationError(
            f"input dimension must be {params.input_dim}, got {xs.shape[1]}"
        )
    return xs


def _maybe_sample(values: np.ndarray, shots, rng) -> np.ndarray:
    if shots is None:
        return values
    if shots < 1:
        raise ConfigurationError(f"shots must be at least 1, got {shots}")
    if rng is None:
        raise ConfigurationError("shot sampling needs an rng")
    p_plus = np.clip((1.0 + values) / 2.0, 0.0, 1.0)
    return 2.0 * rng.binomial(shots, p_plus) / shots - 1.0


def gpqsa_coefficients(zq, zk) -> AttentionMatrix:
    """Gaussian attention matrix from query/key projections, row-normalized."""
    zq = np.asarray(zq, dtype=np.float64)
    zk = np.asarray(zk, dtype=np.float64)
    if zq.shape != zk.shape or zq.ndim != 1:
        raise ConfigurationError("query and key projections must be equal-length vectors")
    if zq.shape[0] == 0:
        raise EmptySequenceError("attention needs at least one position")
    raw = np.exp(-((zq[:, None] - zk[None, :]) ** 2))
    return AttentionMatrix(raw / raw.sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class LayerTrace:
    """Everything one layer forward computed, as the backward pass needs it.

    ``zq``, ``zk`` and ``values`` are the (possibly shot-sampled)
    expectations the attention and the outputs were formed from.
    """

    inputs: np.ndarray  # (S, d) layer inputs
    encoded: np.ndarray  # encoder states, one per word
    zq: np.ndarray  # (S,) <Z_1> after the query circuit
    zk: np.ndarray  # (S,) <Z_1> after the key circuit
    values: np.ndarray  # (S, d) value-circuit expectations
    attention: AttentionMatrix
    outputs: np.ndarray  # (S, d) residual outputs


def layer_forward(
    inputs,
    params: QsalLayerParams,
    obs: ObservableSet,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> LayerTrace:
    """One attention layer: y_s = x_s + sum_j coeff[s, j] * o_j, with its trace.

    Encoder states are prepared once per word and reused across the three
    measurement circuits.
    """
    xs = _check_inputs(inputs, params)
    if obs.size != xs.shape[1]:
        raise ConfigurationError(
            f"need {xs.shape[1]} observables to match the input dimension, got {obs.size}"
        )
    engine = make_engine(params.n_qubits, noise)
    encoded = engine.prepare(xs, params.enc_spec)
    z1 = z1_observable(params.n_qubits)
    zq = engine.expect(engine.apply(encoded, params.qkv_spec, params.theta_q.values), z1)
    zk = engine.expect(engine.apply(encoded, params.qkv_spec, params.theta_k.values), z1)
    values = engine.expect_set(
        engine.apply(encoded, params.qkv_spec, params.theta_v.values), obs
    )
    zq = _maybe_sample(zq, shots, rng)
    zk = _maybe_sample(zk, shots, rng)
    values = _maybe_sample(values, shots, rng)
    attention = gpqsa_coefficients(zq, zk)
    outputs = xs + attention.coefficients @ values
    return LayerTrace(xs, encoded, zq, zk, values, attention, outputs)
