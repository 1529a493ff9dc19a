"""Strongly entangling ansatz: topology, input encoding, parameter-shift rule.

The circuit is one RX column and one RY column (one angle per qubit each),
followed by ``depth`` repetitions of a CNOT ring plus another RY column, for
``n_qubits * (depth + 2)`` angles in total.  The ring uses control i ->
target (i + 1) mod n; a one-qubit ring degenerates to no entangler.

The same topology serves both as trainable query/key/value circuit and as
the data encoder, where the input vector supplies the angles after an
initial Hadamard layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .sim import (
    Gate,
    PauliString,
    StateVector,
    apply_cnot_batch,
    apply_hadamard_layer_batch,
    apply_rotation_batch,
    expectation_batch,
    zero_state_batch,
)


@dataclass(frozen=True)
class AnsatzSpec:
    """Circuit topology: qubit count and number of repeated entangling blocks."""

    n_qubits: int
    depth: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ConfigurationError("n_qubits must be positive")
        if self.depth < 0:
            raise ConfigurationError("depth must be non-negative")

    @property
    def param_count(self) -> int:
        return self.n_qubits * (self.depth + 2)


@dataclass
class ParamVector:
    """Trainable angles for one ansatz instance.

    Values are unconstrained reals; training never wraps them back into
    [0, 2*pi) since rotations are periodic and wrapping would corrupt
    optimizer momentum.
    """

    spec: AnsatzSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.spec.param_count,):
            raise ConfigurationError(
                f"expected {self.spec.param_count} angles, got {self.values.shape}"
            )

    @classmethod
    def zeros(cls, spec: AnsatzSpec) -> "ParamVector":
        return cls(spec, np.zeros(spec.param_count))


def _as_angles(params, spec: AnsatzSpec) -> np.ndarray:
    values = params.values if isinstance(params, ParamVector) else params
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (spec.param_count,):
        raise ConfigurationError(
            f"expected {spec.param_count} angles for {spec}, got shape {values.shape}"
        )
    return values


def build_circuit(spec: AnsatzSpec, params) -> list[Gate]:
    """Ordered gate list of the ansatz with the given angles."""
    angles = _as_angles(params, spec)
    n = spec.n_qubits
    gates = [Gate("RX", q, angle=angles[q]) for q in range(n)]
    gates += [Gate("RY", q, angle=angles[n + q]) for q in range(n)]
    for block in range(spec.depth):
        if n > 1:
            gates += [Gate("CNOT", (q + 1) % n, control=q) for q in range(n)]
        offset = 2 * n + block * n
        gates += [Gate("RY", q, angle=angles[offset + q]) for q in range(n)]
    return gates


def run_ansatz_batch(amps: np.ndarray, spec: AnsatzSpec, angles) -> np.ndarray:
    """Apply the ansatz to a (batch, 2**n) array.

    ``angles`` is either one vector of length param_count shared across the
    batch, or a (batch, param_count) array with one angle row per state.
    """
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape[-1] != spec.param_count:
        raise ConfigurationError(
            f"expected {spec.param_count} angles, got shape {angles.shape}"
        )
    n = spec.n_qubits
    for q in range(n):
        amps = apply_rotation_batch(amps, "RX", q, angles[..., q], n)
    for q in range(n):
        amps = apply_rotation_batch(amps, "RY", q, angles[..., n + q], n)
    for block in range(spec.depth):
        if n > 1:
            for q in range(n):
                amps = apply_cnot_batch(amps, q, (q + 1) % n, n)
        offset = 2 * n + block * n
        for q in range(n):
            amps = apply_rotation_batch(amps, "RY", q, angles[..., offset + q], n)
    return amps


def ansatz_unitaries(spec: AnsatzSpec, angles) -> np.ndarray:
    """(rows, 2**n, 2**n) unitaries of the ansatz, one per row of ``angles``.

    One ``run_ansatz_batch`` call on the basis rows: row j of block c is
    U_c|j>, the j-th column of U_c.
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    dim = 2**spec.n_qubits
    basis = np.tile(np.eye(dim, dtype=np.complex128), (angles.shape[0], 1))
    columns = run_ansatz_batch(basis, spec, np.repeat(angles, dim, axis=0))
    return columns.reshape(-1, dim, dim).transpose(0, 2, 1)


def encode_batch(inputs: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Encode rows of ``inputs`` as states: Hadamard layer, then the ansatz."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    amps = zero_state_batch(spec.n_qubits, inputs.shape[0])
    amps = apply_hadamard_layer_batch(amps, spec.n_qubits)
    return run_ansatz_batch(amps, spec, inputs)


def encode_input(x, spec: AnsatzSpec) -> StateVector:
    """Encode one input vector of length n*(depth+2) as an n-qubit state."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.param_count,):
        raise ConfigurationError(
            f"input dimension must be {spec.param_count}, got shape {x.shape}"
        )
    return StateVector(spec.n_qubits, encode_batch(x, spec)[0])


def circuit_expectation(
    state: StateVector, spec: AnsatzSpec, params, obs: PauliString
) -> float:
    """<P> after applying the ansatz to ``state``."""
    angles = _as_angles(params, spec)
    amps = run_ansatz_batch(state.amplitudes[None, :], spec, angles)
    return float(expectation_batch(amps, obs, spec.n_qubits)[0])


def param_shift_grad(
    state: StateVector, spec: AnsatzSpec, params, obs: PauliString, j: int
) -> float:
    """Exact d<P>/d(theta_j) from two evaluations shifted by +/- pi/2."""
    angles = _as_angles(params, spec)
    if not 0 <= j < spec.param_count:
        raise IndexError(f"parameter index {j} out of range")
    shifted = np.tile(angles, (2, 1))
    shifted[0, j] += np.pi / 2.0
    shifted[1, j] -= np.pi / 2.0
    amps = run_ansatz_batch(np.tile(state.amplitudes, (2, 1)), spec, shifted)
    plus, minus = expectation_batch(amps, obs, spec.n_qubits)
    return float(plus - minus) / 2.0

