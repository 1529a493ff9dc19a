"""Strongly entangling ansatz: topology, input encoding, circuit gradients.

The circuit is one RX column and one RY column (one angle per qubit each),
followed by ``depth`` repetitions of a CNOT ring (control i -> target
(i + 1) mod n; none for one qubit) plus another RY column, for
``n_qubits * (depth + 2)`` angles.  It serves as trainable query/key/value
circuit and as the data encoder, whose angles are the input vector, after
a Hadamard layer.

A column's rotations commute, so each column is one 2**n x 2**n operator,
the Kronecker product of its rotations (columns reordered by a preceding
ring), complex for RX and real for RY; a circuit's unitary is their product.  The
ring is one cached permutation table, which reorders those columns and the
encoder's rows; the gate-by-gate kernels serve only ``circuit_expectation`` and
``param_shift_grad``.
The encoder runs in closed form on real rows: RX(a)|+> = exp(-i a/2)|+> and
the later columns are real, so ``encode_batch`` drops that global phase
(``encode_input`` keeps it) and the encoder's RX angles have no gradient.

Gradients come from adjoint sweeps (Jones & Gacon, arXiv:2009.02823): with
state rho_l and observable O_l both carried to column l, the derivative by
its angle q is Im Tr[P_q rho_l O_l], P_q the column's Pauli on qubit q; as
rho_l O_l = V_l (rho U^dag O U) V_l^dag for U = W V_l, V_l columns 0..l, each
circuit carries one operator forward; the encoder's carries its real rows back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .sim import (
    Gate,
    PauliString,
    StateVector,
    apply_cnot_batch,
    apply_rotation_batch,
    expectation_batch,
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


def _columns(spec: AnsatzSpec) -> list[tuple[str, bool]]:
    """(rotation kind, ring first?) of each column; column l has angles l*n ... l*n + n - 1."""
    return [("RX", False), ("RY", False)] + [("RY", spec.n_qubits > 1)] * spec.depth


def _check_width(spec: AnsatzSpec, angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape[-1] != spec.param_count:
        raise ConfigurationError(
            f"expected {spec.param_count} angles, got shape {angles.shape}"
        )
    return angles


def build_circuit(spec: AnsatzSpec, params) -> list[Gate]:
    """Ordered gate list of the ansatz with the given angles."""
    angles = _as_angles(params, spec)
    n, gates = spec.n_qubits, []
    for column, (kind, ring) in enumerate(_columns(spec)):
        if ring:
            gates += [Gate("CNOT", (q + 1) % n, control=q) for q in range(n)]
        gates += [Gate(kind, q, angle=angles[column * n + q]) for q in range(n)]
    return gates


def run_ansatz_batch(amps: np.ndarray, spec: AnsatzSpec, angles) -> np.ndarray:
    """Apply the ansatz to a (batch, 2**n) array.

    ``angles`` is either one vector of length param_count shared across the
    batch, or a (batch, param_count) array with one angle row per state.
    """
    angles = _check_width(spec, angles)
    n = spec.n_qubits
    for column, (kind, ring) in enumerate(_columns(spec)):
        if ring:
            for q in range(n):
                amps = apply_cnot_batch(amps, q, (q + 1) % n, n)
        for q in range(n):
            amps = apply_rotation_batch(amps, kind, q, angles[..., column * n + q], n)
    return amps


@functools.lru_cache(maxsize=None)
def _column_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (order, inverse, RX phases).  order is the CNOT ring's permutation sigma,
    Ring|j> = |sigma(j)>, by bit arithmetic (qubit 0 the top bit; the identity for one qubit,
    which has no ring): (A @ Ring)[:, j] = A[:, order[j]] and (Ring psi)[i] = psi[inverse[i]].
    The phase (-i)**k of each RX column entry, k the qubits whose row and column bits differ."""
    rows = np.arange(2**n_qubits)
    order, inverse = rows.copy(), np.empty_like(rows)
    for q in range(n_qubits if n_qubits > 1 else 0):  # CNOT q -> (q + 1) mod n, in turn
        order ^= ((order >> (n_qubits - 1 - q)) & 1) << (n_qubits - 1 - (q + 1) % n_qubits)
    inverse[order] = rows  # not argsort, whose sort kernels add 256 KB of code to the RSS
    flips = sum(((rows[:, None] ^ rows) >> q) & 1 for q in range(n_qubits))
    tables = order, inverse, np.array([1, -1j, -1, 1j])[flips % 4]
    for table in tables:
        table.setflags(write=False)
    return tables


def column_operators(spec: AnsatzSpec, angles) -> tuple[np.ndarray, np.ndarray]:
    """Column operators C_l for (..., param_count) angles, qubit 0 leftmost: the complex RX
    column C_0, (..., 2**n, 2**n), and the real later ones, (..., depth + 1, 2**n, 2**n);
    the circuit's unitary is C_{L-1} ... C_1 C_0."""
    angles = _check_width(spec, angles)
    n = spec.n_qubits
    half = angles.reshape(angles.shape[:-1] + (spec.depth + 2, n)) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    # (..., L, n, 2, 2) real factors: RY's [[c, -s], [s, c]], the RX moduli [[c, s], [s, c]]
    factors = np.stack([cos, -sin, sin, cos], axis=-1).reshape(half.shape + (2, 2))
    factors[..., 0, :, 0, 1] = sin[..., 0, :]
    ops = factors[..., 0, :, :]
    for q in range(1, n):
        ops = np.einsum("...ab,...cd->...acbd", ops, factors[..., q, :, :])
        ops = ops.reshape(ops.shape[:-4] + (2 ** (q + 1), 2 ** (q + 1)))
    order, _, phases = _column_tables(n)
    ops[..., 2:, :, :] = ops[..., 2:, :, order]
    return ops[..., 0, :, :] * phases, ops[..., 1:, :, :]


def real_product(real: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """real @ ops as one float64 product with ops's (re, im) pairs: the complex product's bits."""
    return (real @ ops.view(np.float64)).view(np.complex128)


def ansatz_unitaries(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """(rows, 2**n, 2**n) unitaries of the ansatz, each row's ordered product of its
    columns as ``column_operators`` returns them: complex RX, then real products."""
    return functools.reduce(lambda u, ops: real_product(ops, u), ry.swapaxes(0, 1), rx)


@functools.lru_cache(maxsize=None)
def _generators(kind: str, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, 2**n) tables of the column Pauli P on each qubit q, R(theta) =
    exp(-i theta P / 2): row r of P_q holds phases[q, r] at column flips[q, r]."""
    rows = np.arange(2**n_qubits)
    bits = 1 << (n_qubits - 1 - np.arange(n_qubits))[:, None]  # qubit 0: top bit
    flips = rows ^ bits
    phases = np.where(rows & bits, 1j, -1j) if kind == "RY" else np.ones(flips.shape, complex)
    for table in (flips, phases):
        table.setflags(write=False)
    return flips, phases


def adjoint_operator_gradients(
    spec: AnsatzSpec, rx: np.ndarray, ry: np.ndarray, joints: np.ndarray
) -> np.ndarray:
    """(G, param_count) gradients of sum_k Tr[O_k U_g rho_k U_g^dag] by the angles of
    circuits g = 0 .. G-1, given their column operators as ``column_operators`` returns
    them and the (G, 2**n, 2**n) joints X_g = sum_{k of circuit g} rho_k U_g^dag O_k U_g."""
    diagonal = np.arange(joints.shape[-1])
    grads = np.empty((len(joints), spec.depth + 2, spec.n_qubits))
    for column, (kind, _) in enumerate(_columns(spec)):
        # Tr[P_q J] = sum_r P_q[r, r'] J[r', r], J = V_l X V_l^dag
        op = ry[:, column - 1] if column else rx  # after RX, real: float64 products
        joints = (real_product(op, joints) if column else op @ joints) @ op.conj().swapaxes(-1, -2)
        flips, phases = _generators(kind, spec.n_qubits)
        grads[:, column] = (phases * joints[:, flips, diagonal]).sum(-1).imag
    return grads.reshape(len(joints), -1)


def _ry_column(amps: np.ndarray, half_angles: np.ndarray) -> np.ndarray:
    """One RY per qubit on each row of a (rows, 2**n) array, given (rows, n) half angles:
    on the row's (2**q, 2, 2**(n - q - 1)) view, (a_0, a_1) -> cos (a_0, a_1) + sin (-a_1, a_0)."""
    rows, n = half_angles.shape
    cos = np.cos(half_angles)[:, :, None, None, None]
    sin = np.sin(half_angles)[:, :, None, None]
    signed = np.concatenate([-sin, sin], axis=-1)[..., None]
    for q in range(n):
        view = amps.reshape(rows, 2**q, 2, -1)
        amps = cos[:, q] * view + signed[:, q] * view[:, :, ::-1]
    return amps.reshape(rows, -1)


def adjoint_row_gradients(
    spec: AnsatzSpec, angles: np.ndarray, states: np.ndarray, duals: np.ndarray
) -> np.ndarray:
    """(rows, param_count) gradients of psi_s^T Re(M_s) psi_s by each row's angles, for real
    encoder rows psi_s of angle row s and duals lambda_s = Re(M_s) psi_s: an RY angle's is
    Im <lambda|Y_q|psi> = sum_r sign[q, r] lambda[r] psi[flip[q, r]].  The RX column sets only
    the global phase, so its gradients are zero and the sweep ends at the second column."""
    n, rows = spec.n_qubits, states.shape[0]
    flips, phases = _generators("RY", n)
    signs, order = phases.imag, _column_tables(n)[0]
    pair = np.concatenate([states, duals])  # undo both with one kernel call
    undo = -0.5 * np.tile(angles, (2, 1)).reshape(2 * rows, spec.depth + 2, n)
    grads = np.zeros((rows, spec.depth + 2, n))
    for column in range(spec.depth + 1, 0, -1):
        grads[:, column] = (pair[rows:, None] * signs * pair[:rows, flips]).sum(-1)
        if column > 1:
            # a C-ordered gather: pair[:, order] is F-ordered and would change the sum's order
            pair = _ry_column(pair, undo[:, column]).take(order, axis=1)
    return grads.reshape(rows, -1)


def encode_batch(inputs: np.ndarray, spec: AnsatzSpec) -> np.ndarray:
    """Encode rows of ``inputs`` as real states: Hadamard layer, then the ansatz, less its
    global phase.  RY(b) RX(a) |+> = exp(-i a / 2) RY(b) |+>, so the first two columns leave a
    real product state times exp(-i sum(a) / 2); each deeper column is the ring and real RYs."""
    inputs = _check_width(spec, np.atleast_2d(inputs))
    rows, n = inputs.shape[0], spec.n_qubits
    half = 0.5 * inputs.reshape(rows, spec.depth + 2, n)
    cos, sin = np.cos(half[:, 1]), np.sin(half[:, 1])
    qubits = np.stack([cos - sin, sin + cos], axis=-1) / np.sqrt(2.0)  # (rows, n, 2)
    amps = qubits[:, 0]
    for q in range(1, n):
        amps = (amps[:, :, None] * qubits[:, q, None, :]).reshape(rows, -1)
    inverse = _column_tables(n)[1]
    for column in range(2, spec.depth + 2):
        amps = _ry_column(amps.take(inverse, axis=1), half[:, column])
    return amps


def encode_input(x, spec: AnsatzSpec) -> StateVector:
    """Encode one input vector of length n*(depth+2) as an n-qubit state, global phase included."""
    angles = _as_angles(x, spec)
    phase = np.exp(-0.5j * angles[: spec.n_qubits].sum())  # of the first column's RX on |+>
    return StateVector(spec.n_qubits, phase * encode_batch(angles, spec)[0])


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

