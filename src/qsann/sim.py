"""Exact simulation of small n-qubit systems.

Pure states are complex amplitude vectors of length 2**n; mixed states are
2**n x 2**n density matrices.  Convention used everywhere in this package:
qubit 0 is the most significant bit of an amplitude index, so the observable
conventionally written Z_1 acts on qubit index 0.

One kernel, ``_apply_2x2``, applies every single-qubit operation (a gate, a
rotation, the Hadamard layer, each Pauli letter of an observable): a 2x2
matrix, or one per row, contracted into one qubit of ``(batch, 2**width)``
rows; a CNOT permutes the rows' amplitudes.  A density stack is read as
``(batch, 4**n)`` rows of 2n qubits, row bits first, so M rho M^dagger is M
on qubit q and M* on qubit n + q.  The density-matrix kernels are the tests'
reference for the attention layer, which applies noise to operators with
``apply_channel_every_qubit`` instead.
The explicit Kronecker-product construction (``circuit_unitary``) is kept
only as an independent reference path for tests; ``pauli_matrix`` also
gives the layer its observable matrices.  All internal kernels operate on
batches, shape ``(batch, 2**n)`` for pure states and ``(batch, 2**n, 2**n)``
for density matrices and operators; the public single-state API wraps batch
size 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_field, check_field_types

MAX_QUBITS = 16
_TWO_PI = 2.0 * math.pi

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "X", "Y", "Z", "I")
GATE_KINDS = ROTATION_KINDS + FIXED_KINDS + ("CNOT",)

PAULI_LETTERS = ("I", "X", "Y", "Z")
NOISE_KINDS = ("depolarizing", "amplitude_damping")

_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)
_FIXED_MATRICES = {"H": _H2, "X": _X2, "Y": _Y2, "Z": _Z2, "I": _I2}


# ---------------------------------------------------------------------------
# Domain types


def _check_qubit_count(n_qubits) -> None:
    """Refuse a qubit count that is not a builtin int in [1, MAX_QUBITS]."""
    check_field("n_qubits", n_qubits, "int")
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True)
class Gate:
    """One circuit element: a fixed gate, a rotation, or a CNOT.

    ``control`` is present exactly for CNOT, ``angle`` exactly for rotation
    gates.  Angles are canonicalized into [0, 2*pi); the 2*pi wrap changes a
    rotation matrix only by a global phase, so every expectation value is
    unaffected.
    """

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kind not in GATE_KINDS:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        if self.target < 0:
            raise ConfigurationError("gate target must be non-negative")
        if (self.control is not None) != (self.kind == "CNOT"):
            raise ConfigurationError("control qubit is required iff kind is CNOT")
        if (self.angle is not None) != (self.kind in ROTATION_KINDS):
            raise ConfigurationError("angle is required iff kind is a rotation")
        if self.kind == "CNOT":
            if self.control < 0:
                raise ConfigurationError("gate control must be non-negative")
            if self.control == self.target:
                raise ConfigurationError("CNOT control and target must differ")
        if self.angle is not None:
            if not math.isfinite(self.angle):
                raise ConfigurationError(f"gate angle must be finite, got {self.angle}")
            wrapped = float(self.angle) % _TWO_PI
            if wrapped >= _TWO_PI:
                wrapped = 0.0
            object.__setattr__(self, "angle", wrapped)


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state: unit-norm complex amplitude vector of length 2**n."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_qubit_count(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (2**self.n_qubits,):
            raise ConfigurationError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not -1e-10 <= norm_sq - 1.0 <= 1e-10:  # chained, so NaN fails it
            raise ConfigurationError(f"state is not normalized: |psi|^2 = {norm_sq}")


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed n-qubit state: Hermitian, trace-one 2**n x 2**n matrix."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _check_qubit_count(self.n_qubits)
        rho = np.asarray(self.entries, dtype=np.complex128)
        object.__setattr__(self, "entries", rho)
        dim = 2**self.n_qubits
        if rho.shape != (dim, dim):
            raise ConfigurationError(f"expected {dim}x{dim} matrix, got {rho.shape}")
        if not np.allclose(rho, rho.conj().T, atol=1e-10):
            raise ConfigurationError("density matrix is not Hermitian")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-10:
            raise ConfigurationError(f"density matrix trace is {tr}, expected 1")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Pauli operators, one letter per qubit."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if not letters:
            raise ConfigurationError("PauliString needs at least one letter")
        for letter in letters:
            if letter not in PAULI_LETTERS:
                raise ConfigurationError(f"invalid Pauli letter {letter!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @classmethod
    def from_str(cls, text: str) -> "PauliString":
        return cls(tuple(text))

    @classmethod
    def single(cls, letter: str, qubit: int, n_qubits: int) -> "PauliString":
        check_field("qubit", qubit, "int")
        _check_qubit_count(n_qubits)
        if not 0 <= qubit < n_qubits:
            raise IndexError(f"qubit {qubit} out of range for {n_qubits} qubits")
        letters = ["I"] * n_qubits
        letters[qubit] = letter
        return cls(tuple(letters))

    def __str__(self) -> str:
        return "".join(self.letters)


@dataclass(frozen=True)
class NoiseChannel:
    """Single-qubit noise channel, given as a named Kraus family.

    ``target`` selects the qubit for ``apply_channel``; it may be left as
    None when the channel is broadcast to every qubit by higher-level code.
    """

    kind: str
    p: float
    target: int | None = None

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"noise level p must be in [0, 1], got {self.p}")

    def kraus_operators(self) -> list[np.ndarray]:
        p = self.p
        if self.kind == "depolarizing":
            return [
                math.sqrt(1.0 - p) * _I2,
                math.sqrt(p / 3.0) * _X2,
                math.sqrt(p / 3.0) * _Y2,
                math.sqrt(p / 3.0) * _Z2,
            ]
        damp = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=np.complex128)
        raisep = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
        return [damp, raisep]


# ---------------------------------------------------------------------------
# Batched kernels (internal).  Every array carries the batch on axis 0.


def rotation_matrix(kind: str, angle) -> np.ndarray:
    """2x2 rotation matrix; a batch of angles yields a (..., 2, 2) stack."""
    a = np.asarray(angle, dtype=np.float64)
    m = np.empty(a.shape + (2, 2), dtype=np.complex128)
    half = a / 2.0
    if kind == "RX":
        c, s = np.cos(half), np.sin(half)
        m[..., 0, 0] = c
        m[..., 0, 1] = -1j * s
        m[..., 1, 0] = -1j * s
        m[..., 1, 1] = c
    elif kind == "RY":
        c, s = np.cos(half), np.sin(half)
        m[..., 0, 0] = c
        m[..., 0, 1] = -s
        m[..., 1, 0] = s
        m[..., 1, 1] = c
    elif kind == "RZ":
        m[..., 0, 0] = np.exp(-1j * half)
        m[..., 0, 1] = 0.0
        m[..., 1, 0] = 0.0
        m[..., 1, 1] = np.exp(1j * half)
    else:
        raise ConfigurationError(f"{kind!r} is not a rotation gate")
    return m


def _apply_2x2(rows: np.ndarray, mat: np.ndarray, qubit: int, width: int) -> np.ndarray:
    """A 2x2 matrix, or one per row, on one qubit of (batch, 2**width) rows."""
    a = np.moveaxis(rows.reshape((len(rows),) + (2,) * width), 1 + qubit, -1)
    lead = a.shape
    a = a.reshape(len(rows), -1, 2)
    out = a @ mat.T if mat.ndim == 2 else np.einsum("bij,bkj->bki", mat, a)
    return np.moveaxis(out.reshape(lead), -1, 1 + qubit).reshape(len(rows), -1)


def apply_gate_batch(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """Apply one gate to a (batch, 2**n) amplitude array."""
    if gate.kind == "CNOT":
        return apply_cnot_batch(amps, gate.control, gate.target, n_qubits)
    return _apply_2x2(amps, gate_matrix(gate), gate.target, n_qubits)


def apply_rotation_batch(
    amps: np.ndarray, kind: str, qubit: int, angles, n_qubits: int
) -> np.ndarray:
    """Rotation on one qubit; ``angles`` may be scalar or one angle per row."""
    return _apply_2x2(amps, rotation_matrix(kind, angles), qubit, n_qubits)


def apply_cnot_batch(
    amps: np.ndarray, control: int, target: int, n_qubits: int
) -> np.ndarray:
    """CNOT on (batch, 2**n) rows: where the control bit is 1, swap the target bit's halves."""
    shape = (len(amps),) + (2,) * n_qubits
    sel = [slice(None)] * (1 + n_qubits)
    sel[1 + control] = slice(1, 2)  # a slice, not 1, so that the target keeps its axis
    out = amps.copy()
    out.reshape(shape)[tuple(sel)] = np.flip(amps.reshape(shape)[tuple(sel)], 1 + target)
    return out


def apply_hadamard_layer_batch(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    for q in range(n_qubits):
        amps = _apply_2x2(amps, _H2, q, n_qubits)
    return amps


def _apply_pauli(rows: np.ndarray, obs: PauliString, width: int) -> np.ndarray:
    """P on qubits 0..len(P)-1 of (batch, 2**width) rows, one letter's matrix at a time."""
    for q, letter in enumerate(obs.letters):
        if letter != "I":
            rows = _apply_2x2(rows, _FIXED_MATRICES[letter], q, width)
    return rows


def expectation_batch(amps: np.ndarray, obs: PauliString, n_qubits: int) -> np.ndarray:
    """<psi|P|psi> for every row; clipped into [-1, 1]."""
    values = np.einsum("bi,bi->b", amps.conj(), _apply_pauli(amps, obs, n_qubits)).real
    return np.clip(values, -1.0, 1.0)


# Density-matrix kernels.  A (batch, 2**n, 2**n) stack is read as (batch, 4**n) rows of 2n
# qubits, row (ket) bits first: vec(M rho M^dag) = (M (x) M*) vec(rho) (Wood, Biamonte and
# Cory, arXiv:1111.6950), so M rho M^dag is M on qubit q and M* on qubit n + q.


def _dm_conjugate_1q(
    rhos: np.ndarray, mat: np.ndarray, qubit: int, n_qubits: int
) -> np.ndarray:
    """rho -> M rho M^dagger on one qubit (M need not be unitary)."""
    t = _apply_2x2(rhos.reshape(len(rhos), -1), mat, qubit, 2 * n_qubits)
    return _apply_2x2(t, mat.conj(), n_qubits + qubit, 2 * n_qubits).reshape(rhos.shape)


def apply_gate_dm_batch(rhos: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    if gate.kind != "CNOT":
        return _dm_conjugate_1q(rhos, gate_matrix(gate), gate.target, n_qubits)
    t = apply_cnot_batch(rhos.reshape(len(rhos), -1), gate.control, gate.target, 2 * n_qubits)
    t = apply_cnot_batch(t, n_qubits + gate.control, n_qubits + gate.target, 2 * n_qubits)
    return t.reshape(rhos.shape)


def apply_rotation_dm_batch(
    rhos: np.ndarray, kind: str, qubit: int, angles, n_qubits: int
) -> np.ndarray:
    return _dm_conjugate_1q(rhos, rotation_matrix(kind, angles), qubit, n_qubits)


def apply_channel_batch(
    rhos: np.ndarray, channel: NoiseChannel, qubit: int, n_qubits: int
) -> np.ndarray:
    out = np.zeros_like(rhos)
    for kraus in channel.kraus_operators():
        out += _dm_conjugate_1q(rhos, kraus, qubit, n_qubits)
    return out


@functools.lru_cache(maxsize=None)
def _superoperator(kind: str, p: float, adjoint: bool) -> np.ndarray:
    """Read-only S[(a, b), (a', b')] = sum_K K[a', a] K*[b', b] of a channel or its adjoint,
    float64: for both channels the imaginary part is exactly 0, so a real stack stays real."""
    kraus = [k.conj().T if adjoint else k for k in NoiseChannel(kind, p).kraus_operators()]
    sup = sum(np.einsum("ca,db->abcd", k, k.conj()) for k in kraus).real.reshape(4, 4).copy()
    sup.flags.writeable = False
    return sup


@functools.lru_cache(maxsize=32)
def _channel_plan(n_qubits: int, batch: int) -> tuple[np.ndarray, ...]:
    """Read-only flat gathers of a (batch, 2**n, 2**n) stack into (pair a, batch, other pairs,
    pair b) for qubits (a, b) = (0, 1), (2, 3), ..., each from the one before, then back."""
    pairs = [[1 + q, 1 + n_qubits + q] for q in range(n_qubits)] + [[]]  # (row bit, column bit)
    index = np.arange(batch * 4**n_qubits)
    source = index.reshape([batch] + [2] * (2 * n_qubits))
    layouts = [pairs[a] + [0] + sum(pairs[:a] + pairs[a + 2 :], []) + pairs[a + 1]
               for a in range(0, n_qubits, 2)]
    flat = [source.transpose(layout).ravel() for layout in layouts] + [index]
    gathers = [flat[0]]
    for before, after in zip(flat, flat[1:]):
        inverse = np.empty_like(before)
        inverse[before] = index  # a scatter, not argsort: numpy's first sort maps its kernels
        gathers.append(inverse[after])
    for gather in gathers:
        gather.flags.writeable = False
    return tuple(gathers)


def apply_channel_every_qubit(
    ops: np.ndarray, channel: NoiseChannel, n_qubits: int, adjoint: bool = False
) -> np.ndarray:
    """``channel`` on every qubit of a (batch, 2**n, 2**n) operator stack.

    With ``adjoint``, its Heisenberg-picture adjoint A -> sum_K K^dag A K.
    Qubits are contracted 0, 1, ..., n-1 with the channel's cached 4x4
    superoperator S, two a stage, on a cached gather (``_channel_plan``):
    ``np.dot(S.T, X.reshape(4, -1))`` contracts pair a, then
    ``np.dot(Y.reshape(-1, 4), S)`` pair b.
    """
    sup = _superoperator(channel.kind, channel.p, adjoint)
    *stages, restore = _channel_plan(n_qubits, len(ops))
    t = ops
    for stage, gather in enumerate(stages):
        t = np.dot(sup.T, t.reshape(-1)[gather].reshape(4, -1))
        if 2 * stage + 1 < n_qubits:
            t = np.dot(t.reshape(-1, 4), sup)
    return t.reshape(-1)[restore].reshape(ops.shape)


def expectation_dm_batch(
    rhos: np.ndarray, obs: PauliString, n_qubits: int
) -> np.ndarray:
    """Tr[P rho] for every row (real part; exact up to float rounding)."""
    t = _apply_pauli(rhos.reshape(len(rhos), -1), obs, 2 * n_qubits)
    return np.einsum("bii->b", t.reshape(rhos.shape)).real


# ---------------------------------------------------------------------------
# Public single-state operations


def init_zero_state(n_qubits: int) -> StateVector:
    """|0...0> on ``n_qubits`` qubits."""
    _check_qubit_count(n_qubits)  # before 2**n_qubits amplitudes are allocated
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_gate_indices(gate: Gate, n_qubits: int) -> None:
    if gate.target >= n_qubits:
        raise IndexError(f"gate target {gate.target} >= {n_qubits} qubits")
    if gate.control is not None and gate.control >= n_qubits:
        raise IndexError(f"gate control {gate.control} >= {n_qubits} qubits")


def _check_observable(obs: PauliString, n_qubits: int) -> None:
    if obs.n_qubits != n_qubits:
        raise IndexError(f"observable on {obs.n_qubits} qubits but state has {n_qubits}")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return the state after one gate; the input state is left untouched."""
    return apply_circuit(state, [gate])


def apply_circuit(state: StateVector, gates) -> StateVector:
    amps = state.amplitudes[None, :]
    for gate in gates:
        _check_gate_indices(gate, state.n_qubits)
        amps = apply_gate_batch(amps, gate, state.n_qubits)
    return StateVector(state.n_qubits, amps[0])


def expectation(state: StateVector, obs: PauliString) -> float:
    """<psi|P|psi>, clamped into [-1, 1]."""
    _check_observable(obs, state.n_qubits)
    return float(expectation_batch(state.amplitudes[None, :], obs, state.n_qubits)[0])


def density_from_state(state: StateVector) -> DensityMatrix:
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(state.n_qubits, rho)


def apply_gate_dm(rho: DensityMatrix, gate: Gate) -> DensityMatrix:
    _check_gate_indices(gate, rho.n_qubits)
    out = apply_gate_dm_batch(rho.entries[None, :, :], gate, rho.n_qubits)
    return DensityMatrix(rho.n_qubits, out[0])


def apply_channel(rho: DensityMatrix, channel: NoiseChannel) -> DensityMatrix:
    """Apply a single-qubit noise channel to ``channel.target``."""
    if channel.target is None:
        raise ConfigurationError("apply_channel needs a channel with a target qubit")
    if not 0 <= channel.target < rho.n_qubits:
        raise IndexError(f"channel target {channel.target} out of range")
    out = apply_channel_batch(
        rho.entries[None, :, :], channel, channel.target, rho.n_qubits
    )
    return DensityMatrix(rho.n_qubits, out[0])


def expectation_dm(rho: DensityMatrix, obs: PauliString) -> float:
    _check_observable(obs, rho.n_qubits)
    return float(expectation_dm_batch(rho.entries[None, :, :], obs, rho.n_qubits)[0])


# ---------------------------------------------------------------------------
# Reference (Kronecker-product) path, used as an independent oracle in tests


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a single-qubit gate."""
    if gate.kind == "CNOT":
        raise ConfigurationError("CNOT has no single-qubit matrix")
    if gate.kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[gate.kind].copy()
    return rotation_matrix(gate.kind, gate.angle)


def _kron_chain(factors) -> np.ndarray:
    out = np.array([[1.0]], dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def embedded_gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary of one gate (reference construction)."""
    _check_gate_indices(gate, n_qubits)
    if gate.kind != "CNOT":
        factors = [_I2] * n_qubits
        factors[gate.target] = gate_matrix(gate)
        return _kron_chain(factors)
    p0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    p1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    keep = [_I2] * n_qubits
    keep[gate.control] = p0
    flip = [_I2] * n_qubits
    flip[gate.control] = p1
    flip[gate.target] = _X2
    return _kron_chain(keep) + _kron_chain(flip)


def circuit_unitary(gates, n_qubits: int) -> np.ndarray:
    """Product of embedded gate unitaries, first gate applied first."""
    unitary = np.eye(2**n_qubits, dtype=np.complex128)
    for gate in gates:
        unitary = embedded_gate_unitary(gate, n_qubits) @ unitary
    return unitary


def pauli_matrix(obs: PauliString) -> np.ndarray:
    return _kron_chain(_FIXED_MATRICES[letter] for letter in obs.letters)
