"""Quantum self-attention layer.

Each input vector is encoded as an n-qubit state, three circuits (query,
key, value) are run on that state, and single Pauli-Z_1 measurements of the
query/key circuits feed a Gaussian attention coefficient
exp(-(<Z_q>_s - <Z_k>_j)^2), row-normalized.  Outputs are residual:
y_s = x_s + sum_j coeff[s, j] * o_j, where o_j stacks the value circuit's
Pauli expectations.

With noise, a single-qubit channel acts on every qubit after each of the
four circuits (encoder, query, key, value).  One engine serves pure and
noisy layers in the Heisenberg picture: the circuits and channels act on
observables, and the only state simulated per word is its encoder state,
which stays pure and, up to a global phase, real.  So a word's expectation
of a Hermitian M is psi^T Re(M) psi of its real row psi.  The density-matrix
kernels in ``sim`` are the reference the tests hold it to.

A layer forward has two parts.  ``Engine(params, noise)`` is the layer
itself, built once per parameter setting: the noise, the circuits' column
operators, U^dag E^dag(O) U of the observables O that the geometry fixes
(``ObservableSet.default``) and Re(M) of the effective observables M, against
which ``Engine.measure`` measures every forward's input rows, ENCODE_BLOCK at
a time.  ``attend`` is the step from those expectations for a stack of
same-length sentences: shot sampling, attention coefficients and the
residual.  ``layer_forward`` composes the two for one sentence and keeps the
engine in its ``LayerTrace``, from which the backward pass reads everything it
needs; ``model.forward_many`` shares one engine per layer across a whole pass
and attends its sentences a length group at a time.  Coefficients stay plain
(S, S) arrays; a checked ``AttentionMatrix`` is built only for export
(``gpqsa_coefficients`` and ``model.forward``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, ParamVector, ansatz_unitaries, column_operators, encode_batch
from .errors import ConfigurationError, EmptySequenceError
from .sim import NoiseChannel, PauliString, apply_channel_every_qubit, pauli_matrix

# Rows encoded and measured at a time by Engine.measure, and swept at a time by the backward.
ENCODE_BLOCK = 64

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
                raise ConfigurationError(f"{name} sized for {vec.spec}, expected {expected}")

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
    def create(cls, n_qubits: int, enc_depth: int, qkv_depth: int) -> "QsalLayerParams":
        """A layer with all-zero angles."""
        spec = AnsatzSpec(n_qubits, qkv_depth)
        return cls(n_qubits, enc_depth, qkv_depth, *(ParamVector.zeros(spec) for _ in range(3)))


@dataclass(frozen=True)
class ObservableSet:
    """Ordered Pauli observables measured on the value circuit, built by ``default``.

    The leading min(d, 3n) entries are always the singles Z_1..Z_n,
    X_1..X_n, Y_1..Y_n; any remainder comes from two-qubit pairs of equal
    letters at growing ring distance (ZZ adjacents, XX adjacents, YY
    adjacents, then distance two, ...), duplicates removed.
    """

    observables: tuple[PauliString, ...]

    @property
    def n_qubits(self) -> int:
        return self.observables[0].n_qubits

    @property
    def size(self) -> int:
        return len(self.observables)

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        """(size, 2**n, 2**n) matrices of the observables, in order, read-only."""
        matrices = np.stack([pauli_matrix(obs) for obs in self.observables])
        matrices.flags.writeable = False
        return matrices

    def under(self, noise: NoiseChannel | None) -> np.ndarray:
        """E^dag(O) of the observables (``matrices`` if pure); the last channel's is kept."""
        if noise is None:
            return self.matrices
        if self.__dict__.get("_under", (None,))[0] != noise:
            ops = apply_channel_every_qubit(self.matrices, noise, self.n_qubits, adjoint=True)
            ops.flags.writeable = False
            self.__dict__["_under"] = (noise, ops)
        return self.__dict__["_under"][1]

    @classmethod
    @functools.lru_cache(maxsize=16)  # one set per geometry, its matrices and E^dag(O) shared
    def default(cls, n_qubits: int, size: int) -> "ObservableSet":
        if size < 1:
            raise ConfigurationError("observable count must be positive")
        candidates = [PauliString.single(p, q, n_qubits) for p in "ZXY" for q in range(n_qubits)]
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
# Evaluation engine


class Engine:
    """One layer's circuits and measured quantities, with or without noise.

    A word's expectation of O is <enc|M|enc> = enc^T Re(M) enc on its real
    encoder row, with M = E^dag(U^dag E^dag(O) U), where U is the query, key or
    value circuit and E the channel on every qubit (the identity without noise
    or at p = 0).  Nothing here depends on the words, so one engine serves
    every sentence of a pass.  It keeps the circuits' complex RX columns ``rx``
    and real later ones ``ry``, which the backward's sweep reads too.
    """

    def __init__(self, params: QsalLayerParams, noise: NoiseChannel | None = None):
        obs = ObservableSet.default(params.n_qubits, params.input_dim)
        self.n_qubits = params.n_qubits
        self.noise = noise if noise is not None and noise.p > 0.0 else None
        self.enc_spec, self.qkv_spec = params.enc_spec, params.qkv_spec
        thetas = [params.theta_q.values, params.theta_k.values, params.theta_v.values]
        # query, key, value columns: (3, 2**n, 2**n) RX, (3, D_qkv + 1, 2**n, 2**n) real ones
        self.rx, self.ry = column_operators(self.qkv_spec, thetas)
        unitaries = ansatz_unitaries(self.rx, self.ry)
        self.observed = obs.under(self.noise)  # E^dag(O), shared by the geometry's engines
        self.circuits, observables = measured_quantities(obs.size)
        u = unitaries[self.circuits]  # each measured quantity's circuit
        # (2 + d, 2**n, 2**n) U^dag E^dag(O) U of each measured quantity, and Re(M) of each, the
        # real channel on its real part, as the transpose of one contiguous (K 2**n, 2**n) stack
        self.heisenberg = u.conj().swapaxes(-1, -2) @ self.observed[observables] @ u
        real = np.ascontiguousarray(self.apply(self.heisenberg.real))
        self.measured = real.reshape(-1, 2**self.n_qubits).T

    def prepare(self, inputs: np.ndarray) -> np.ndarray:
        """Real encoder states of the input rows, (rows, 2**n)."""
        return encode_batch(inputs, self.enc_spec)

    def channel(self, rhos: np.ndarray) -> np.ndarray:
        """E(rho_k) of each state of a (K, 2**n, 2**n) stack: the channel on every
        qubit (the stack itself without noise)."""
        if self.noise is None:
            return rhos
        return apply_channel_every_qubit(rhos, self.noise, self.n_qubits)

    def apply(self, ops: np.ndarray) -> np.ndarray:
        """E^dag(A_k) of each operator of a (K, 2**n, 2**n) stack: the channel on
        every qubit in the Heisenberg picture (the stack itself without noise)."""
        if self.noise is None:
            return ops
        return apply_channel_every_qubit(ops, self.noise, self.n_qubits, adjoint=True)

    def moved(self, states: np.ndarray) -> np.ndarray:
        """(R, K, 2**n) Re(M_k) psi of each real row psi.  Each row is its own BLAS product,
        so its bits do not depend on the rows beside it (one 2-D product of all rows would)."""
        return (states[:, None, :] @ self.measured).reshape(len(states), -1, states.shape[-1])

    def expect(self, states: np.ndarray) -> np.ndarray:
        """(R, K) <psi|M_k|psi> = psi^T Re(M_k) psi of each real row for each quantity."""
        return (self.moved(states) * states[:, None, :]).sum(-1)

    def measure(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(real encoder states, clipped exact expectations) of input rows: (R, 2**n), (R, K),
        ENCODE_BLOCK rows at a time.  Each row's expectations depend on that row alone."""
        encoded = np.empty((len(inputs), 2**self.n_qubits))
        expectations = np.empty((len(inputs), len(self.circuits)))
        for start in range(0, len(inputs), ENCODE_BLOCK):
            block = slice(start, start + ENCODE_BLOCK)
            encoded[block] = states = self.prepare(inputs[block])
            expectations[block] = self.expect(states)
        return encoded, np.clip(expectations, -1.0, 1.0, out=expectations)


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


def _gaussian(zq: np.ndarray, zk: np.ndarray) -> np.ndarray:
    """(..., S, S) Gaussian coefficients of (..., S) projections, each row normalised."""
    raw = np.exp(-((zq[..., :, None] - zk[..., None, :]) ** 2))
    return raw / raw.sum(axis=-1, keepdims=True)


def gpqsa_coefficients(zq, zk) -> AttentionMatrix:
    """Gaussian attention matrix from query/key projections, row-normalized."""
    zq = np.asarray(zq, dtype=np.float64)
    zk = np.asarray(zk, dtype=np.float64)
    if zq.shape != zk.shape or zq.ndim != 1:
        raise ConfigurationError("query and key projections must be equal-length vectors")
    if zq.shape[0] == 0:
        raise EmptySequenceError("attention needs at least one position")
    return AttentionMatrix(_gaussian(zq[None], zk[None])[0])


def measured_quantities(size: int) -> tuple[list[int], list[int]]:
    """Circuit (0 query, 1 key, 2 value) and observable index of each measured quantity:
    Z_1, every set's first observable, after Q and K, then all ``size`` after V."""
    return [0, 1] + [2] * size, [0, 0] + list(range(size))


@dataclass(frozen=True)
class LayerTrace:
    """Everything one layer forward computed, as the backward pass needs it.

    ``zq``, ``zk`` and ``values`` are the (possibly shot-sampled)
    expectations the attention and the outputs were formed from.
    """

    inputs: np.ndarray  # (S, d) layer inputs
    encoded: np.ndarray  # (S, 2**n) real encoder states, global phase dropped
    engine: Engine  # what the words were measured against
    zq: np.ndarray  # (S,) <Z_1> after the query circuit
    zk: np.ndarray  # (S,) <Z_1> after the key circuit
    values: np.ndarray  # (S, d) value-circuit expectations
    coefficients: np.ndarray  # (S, S) normalised attention coefficients
    outputs: np.ndarray  # (S, d) residual outputs


def attend(
    xs: np.ndarray,
    expectations: np.ndarray,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(zq, zk, values, coefficients, outputs) of B sentences of S words from their
    (B, S, d) inputs and (B, S, 2 + d) expectations: shots sampled for every zq,
    then zk, then the values, the (B, S, S) coefficients, and the residual
    y_s = x_s + sum_j coeff[s, j] * o_j as one batched matrix product."""
    zq = _maybe_sample(expectations[..., 0], shots, rng)
    zk = _maybe_sample(expectations[..., 1], shots, rng)
    values = _maybe_sample(expectations[..., 2:], shots, rng)
    coefficients = _gaussian(zq, zk)
    return zq, zk, values, coefficients, xs + coefficients @ values


def layer_forward(
    inputs,
    params: QsalLayerParams,
    noise: NoiseChannel | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> LayerTrace:
    """One attention layer with its trace: the layer's engine, the words'
    encoder states measured against it, then the attention step."""
    xs = _check_inputs(inputs, params)
    engine = Engine(params, noise)
    encoded, expectations = engine.measure(xs)
    zq, zk, values, coefficients, outputs = attend(xs[None], expectations[None], shots, rng)
    return LayerTrace(xs, encoded, engine, zq[0], zk[0], values[0], coefficients[0], outputs[0])
