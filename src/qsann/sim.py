"""Exact simulation of small n-qubit systems.

Pure states are complex amplitude vectors of length 2**n; mixed states are
2**n x 2**n density matrices, used for noisy circuits.  Convention used
everywhere in this package: qubit 0 is the most significant bit of an
amplitude index, so the observable conventionally written Z_1 acts on qubit
index 0.

Gates are applied as strided index-pair updates on the amplitude array.  The
explicit Kronecker-product construction (``circuit_unitary``,
``pauli_matrix``) is kept only as an independent reference path for tests.
All internal kernels operate on batches of states, shape ``(batch, 2**n)``
for pure states and ``(batch, 2**n, 2**n)`` for density matrices; the public
single-state API wraps batch size 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MAX_QUBITS = 16
_TWO_PI = 2.0 * math.pi

ROTATION_KINDS = ("RX", "RY", "RZ")
FIXED_KINDS = ("H", "X", "Y", "Z", "I")
GATE_KINDS = ROTATION_KINDS + FIXED_KINDS + ("CNOT",)

PAULI_LETTERS = ("I", "X", "Y", "Z")

_H2 = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
_X2 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z2 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)
_FIXED_MATRICES = {"H": _H2, "X": _X2, "Y": _Y2, "Z": _Z2, "I": _I2}


# ---------------------------------------------------------------------------
# Domain types


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
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", amps)
        if not (1 <= self.n_qubits <= MAX_QUBITS):
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if amps.shape != (2**self.n_qubits,):
            raise ConfigurationError(
                f"expected {2**self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > 1e-10:
            raise ConfigurationError(f"state is not normalized: |psi|^2 = {norm_sq}")


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed n-qubit state: Hermitian, trace-one 2**n x 2**n matrix."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries, dtype=np.complex128)
        object.__setattr__(self, "entries", rho)
        if not (1 <= self.n_qubits <= MAX_QUBITS):
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
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
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(("I",) * n_qubits)

    @classmethod
    def single(cls, letter: str, qubit: int, n_qubits: int) -> "PauliString":
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
        if self.kind not in ("depolarizing", "amplitude_damping"):
            raise ConfigurationError(f"unknown noise channel kind {self.kind!r}")
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
# Batched kernels (internal).  ``arr`` always carries the batch on axis 0.


def _rotation_matrix(kind: str, angle) -> np.ndarray:
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


def _apply_2x2_on_axis(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract a 2x2 matrix (or per-batch-row stack of them) into one axis."""
    a = np.moveaxis(arr, axis, -1)
    lead = a.shape
    a = a.reshape(a.shape[0], -1, 2)
    if mat.ndim == 2:
        out = a @ mat.T
    else:
        out = np.einsum("bij,bkj->bki", mat, a)
    return np.moveaxis(out.reshape(lead), -1, axis)


def _swap_on_axes(arr: np.ndarray, control_axis: int, target_axis: int) -> np.ndarray:
    """CNOT as a basis permutation over one control/target axis pair."""
    out = arr.copy()
    sel = [slice(None)] * arr.ndim
    sel[control_axis] = 1
    s0, s1 = list(sel), list(sel)
    s0[target_axis] = 0
    s1[target_axis] = 1
    out[tuple(s0)] = arr[tuple(s1)]
    out[tuple(s1)] = arr[tuple(s0)]
    return out


def _pauli_on_axis(arr: np.ndarray, letter: str, axis: int) -> np.ndarray:
    if letter == "I":
        return arr
    out = arr.copy()
    sel = [slice(None)] * arr.ndim
    s0, s1 = list(sel), list(sel)
    s0[axis] = 0
    s1[axis] = 1
    s0, s1 = tuple(s0), tuple(s1)
    if letter == "X":
        out[s0] = arr[s1]
        out[s1] = arr[s0]
    elif letter == "Y":
        out[s0] = -1j * arr[s1]
        out[s1] = 1j * arr[s0]
    else:  # Z
        out[s1] = -arr[s1]
    return out


def zero_state_batch(n_qubits: int, batch: int) -> np.ndarray:
    amps = np.zeros((batch, 2**n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def apply_gate_batch(amps: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """Apply one gate to a (batch, 2**n) amplitude array."""
    shape = (amps.shape[0],) + (2,) * n_qubits
    a = amps.reshape(shape)
    if gate.kind == "CNOT":
        a = _swap_on_axes(a, 1 + gate.control, 1 + gate.target)
    elif gate.kind == "I":
        a = a.copy()
    else:
        mat = (
            _FIXED_MATRICES[gate.kind]
            if gate.kind in _FIXED_MATRICES
            else _rotation_matrix(gate.kind, gate.angle)
        )
        a = _apply_2x2_on_axis(a, mat, 1 + gate.target)
    return a.reshape(amps.shape[0], -1)


def apply_rotation_batch(
    amps: np.ndarray, kind: str, qubit: int, angles, n_qubits: int
) -> np.ndarray:
    """Rotation on one qubit; ``angles`` may be scalar or one angle per row."""
    shape = (amps.shape[0],) + (2,) * n_qubits
    mat = _rotation_matrix(kind, angles)
    out = _apply_2x2_on_axis(amps.reshape(shape), mat, 1 + qubit)
    return out.reshape(amps.shape[0], -1)


def apply_cnot_batch(
    amps: np.ndarray, control: int, target: int, n_qubits: int
) -> np.ndarray:
    shape = (amps.shape[0],) + (2,) * n_qubits
    out = _swap_on_axes(amps.reshape(shape), 1 + control, 1 + target)
    return out.reshape(amps.shape[0], -1)


def apply_hadamard_layer_batch(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    for q in range(n_qubits):
        shape = (amps.shape[0],) + (2,) * n_qubits
        amps = _apply_2x2_on_axis(amps.reshape(shape), _H2, 1 + q).reshape(
            amps.shape[0], -1
        )
    return amps


def expectation_batch(amps: np.ndarray, obs: PauliString, n_qubits: int) -> np.ndarray:
    """<psi|P|psi> for every row; clipped into [-1, 1]."""
    shape = (amps.shape[0],) + (2,) * n_qubits
    work = amps.reshape(shape)
    for q, letter in enumerate(obs.letters):
        work = _pauli_on_axis(work, letter, 1 + q)
    values = np.einsum("bi,bi->b", amps.conj(), work.reshape(amps.shape)).real
    return np.clip(values, -1.0, 1.0)


# Density-matrix kernels.  Row (ket) qubit axes sit at 1..n once reshaped to
# (batch, 2, ..., 2, dim); column (bra) axes at 2..n+1 once reshaped to
# (batch, dim, 2, ..., 2).


def zero_density_batch(n_qubits: int, batch: int) -> np.ndarray:
    dim = 2**n_qubits
    rhos = np.zeros((batch, dim, dim), dtype=np.complex128)
    rhos[:, 0, 0] = 1.0
    return rhos


def _dm_rows(rhos: np.ndarray, n_qubits: int) -> np.ndarray:
    batch, dim, _ = rhos.shape
    return rhos.reshape((batch,) + (2,) * n_qubits + (dim,))


def _dm_cols(rhos: np.ndarray, n_qubits: int) -> np.ndarray:
    batch, dim, _ = rhos.shape
    return rhos.reshape((batch, dim) + (2,) * n_qubits)


def _dm_conjugate_1q(
    rhos: np.ndarray, mat: np.ndarray, qubit: int, n_qubits: int
) -> np.ndarray:
    """rho -> M rho M^dagger on one qubit (M need not be unitary)."""
    batch, dim, _ = rhos.shape
    t = _apply_2x2_on_axis(_dm_rows(rhos, n_qubits), mat, 1 + qubit)
    t = t.reshape(batch, dim, dim)
    t = _apply_2x2_on_axis(_dm_cols(t, n_qubits), mat.conj(), 2 + qubit)
    return t.reshape(batch, dim, dim)


def apply_gate_dm_batch(rhos: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    batch, dim, _ = rhos.shape
    if gate.kind == "CNOT":
        t = _swap_on_axes(_dm_rows(rhos, n_qubits), 1 + gate.control, 1 + gate.target)
        t = t.reshape(batch, dim, dim)
        t = _swap_on_axes(_dm_cols(t, n_qubits), 2 + gate.control, 2 + gate.target)
        return t.reshape(batch, dim, dim)
    if gate.kind == "I":
        return rhos.copy()
    mat = (
        _FIXED_MATRICES[gate.kind]
        if gate.kind in _FIXED_MATRICES
        else _rotation_matrix(gate.kind, gate.angle)
    )
    return _dm_conjugate_1q(rhos, mat, gate.target, n_qubits)


def apply_cnot_dm_batch(
    rhos: np.ndarray, control: int, target: int, n_qubits: int
) -> np.ndarray:
    return apply_gate_dm_batch(rhos, Gate("CNOT", target, control=control), n_qubits)


def apply_rotation_dm_batch(
    rhos: np.ndarray, kind: str, qubit: int, angles, n_qubits: int
) -> np.ndarray:
    batch, dim, _ = rhos.shape
    mat = _rotation_matrix(kind, angles)
    t = _apply_2x2_on_axis(_dm_rows(rhos, n_qubits), mat, 1 + qubit)
    t = t.reshape(batch, dim, dim)
    t = _apply_2x2_on_axis(_dm_cols(t, n_qubits), mat.conj(), 2 + qubit)
    return t.reshape(batch, dim, dim)


def apply_channel_batch(
    rhos: np.ndarray, channel: NoiseChannel, qubit: int, n_qubits: int
) -> np.ndarray:
    out = np.zeros_like(rhos)
    for kraus in channel.kraus_operators():
        out += _dm_conjugate_1q(rhos, kraus, qubit, n_qubits)
    return out


def expectation_dm_batch(
    rhos: np.ndarray, obs: PauliString, n_qubits: int
) -> np.ndarray:
    """Tr[P rho] for every row (real part; exact up to float rounding)."""
    batch, dim, _ = rhos.shape
    t = _dm_rows(rhos, n_qubits)
    for q, letter in enumerate(obs.letters):
        t = _pauli_on_axis(t, letter, 1 + q)
    return np.einsum("bii->b", t.reshape(batch, dim, dim)).real


# ---------------------------------------------------------------------------
# Public single-state operations


def init_zero_state(n_qubits: int) -> StateVector:
    """|0...0> on ``n_qubits`` qubits."""
    if not isinstance(n_qubits, int) or not (1 <= n_qubits <= MAX_QUBITS):
        raise ConfigurationError(
            f"n_qubits must be an integer in [1, {MAX_QUBITS}], got {n_qubits!r}"
        )
    return StateVector(n_qubits, zero_state_batch(n_qubits, 1)[0])


def _check_gate_indices(gate: Gate, n_qubits: int) -> None:
    if gate.target >= n_qubits:
        raise IndexError(f"gate target {gate.target} >= {n_qubits} qubits")
    if gate.control is not None and gate.control >= n_qubits:
        raise IndexError(f"gate control {gate.control} >= {n_qubits} qubits")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Return the state after one gate; the input state is left untouched."""
    _check_gate_indices(gate, state.n_qubits)
    amps = apply_gate_batch(state.amplitudes[None, :], gate, state.n_qubits)
    return StateVector(state.n_qubits, amps[0])


def apply_circuit(state: StateVector, gates) -> StateVector:
    amps = state.amplitudes[None, :]
    for gate in gates:
        _check_gate_indices(gate, state.n_qubits)
        amps = apply_gate_batch(amps, gate, state.n_qubits)
    return StateVector(state.n_qubits, amps[0])


def expectation(state: StateVector, obs: PauliString) -> float:
    """<psi|P|psi>, clamped into [-1, 1]."""
    if obs.n_qubits != state.n_qubits:
        raise IndexError(
            f"observable on {obs.n_qubits} qubits but state has {state.n_qubits}"
        )
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
    if obs.n_qubits != rho.n_qubits:
        raise IndexError(
            f"observable on {obs.n_qubits} qubits but state has {rho.n_qubits}"
        )
    return float(expectation_dm_batch(rho.entries[None, :, :], obs, rho.n_qubits)[0])


# ---------------------------------------------------------------------------
# Reference (Kronecker-product) path, used as an independent oracle in tests


def gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a single-qubit gate."""
    if gate.kind == "CNOT":
        raise ConfigurationError("CNOT has no single-qubit matrix")
    if gate.kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[gate.kind].copy()
    return _rotation_matrix(gate.kind, gate.angle)


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
