import functools
import math

import numpy as np
import pytest

from qsann import ansatz
from qsann.ansatz import (
    AnsatzSpec,
    ParamVector,
    adjoint_operator_gradients,
    ansatz_unitaries,
    build_circuit,
    circuit_expectation,
    column_operators,
    encode_batch,
    encode_input,
    param_shift_grad,
    real_product,
    run_ansatz_batch,
)
from qsann.errors import ConfigurationError
from qsann.sim import (
    Gate,
    PauliString,
    apply_circuit,
    apply_cnot_batch,
    circuit_unitary,
    expectation,
    init_zero_state,
    rotation_matrix,
)

# (n, depth) of the query/key/value circuits of the geometries (4,1,1), (4,4,5), (2,1,1),
# (3,0,2) and (1,0,0) that the bit-equality checks run on
QKV_SPECS = [(4, 1), (4, 5), (2, 1), (3, 2), (1, 0)]


def ring_matrix(n):
    """The CNOT ring's real 2**n x 2**n permutation matrix, by the gate-by-gate kernel: row j
    of the result of running the ring over the identity is Ring|j>, the j-th column of Ring."""
    basis = np.eye(2**n)
    for q in range(n):
        basis = apply_cnot_batch(basis, q, (q + 1) % n, n)
    return basis.T


def complex_column_operators(spec, angles):
    """The column operators as built before the real later columns: (..., depth + 2, 2**n,
    2**n) complex Kronecker products of rotation matrices, the ring folded in by a product."""
    n = spec.n_qubits
    per_column = np.asarray(angles, dtype=np.float64).reshape(
        np.shape(angles)[:-1] + (spec.depth + 2, n)
    )
    rotations = rotation_matrix("RY", per_column)  # (..., L, n, 2, 2)
    rotations[..., 0, :, :, :] = rotation_matrix("RX", per_column[..., 0, :])
    ops = rotations[..., 0, :, :]
    for q in range(1, n):
        ops = np.einsum("...ab,...cd->...acbd", ops, rotations[..., q, :, :])
        ops = ops.reshape(ops.shape[:-4] + (2 ** (q + 1), 2 ** (q + 1)))
    if spec.depth and n > 1:
        ops[..., 2:, :, :] = ops[..., 2:, :, :] @ ring_matrix(n)
    return ops


def complex_unitaries(columns):
    """Each row's ordered product of its complex columns, as before."""
    return functools.reduce(lambda unitaries, ops: ops @ unitaries, columns.swapaxes(0, 1))


def complex_operator_gradients(spec, columns, joints):
    """The adjoint sweep over complex columns, as before."""
    diagonal = np.arange(joints.shape[-1])
    grads = np.empty((len(joints), spec.depth + 2, spec.n_qubits))
    for column, (kind, _) in enumerate(ansatz._columns(spec)):
        ops = columns[:, column]
        joints = ops @ joints @ ops.conj().swapaxes(-1, -2)
        flips, phases = ansatz._generators(kind, spec.n_qubits)
        grads[:, column] = (phases * joints[:, flips, diagonal]).sum(-1).imag
    return grads.reshape(len(joints), -1)


def random_pauli(rng, n):
    letters = tuple(rng.choice(["I", "X", "Y", "Z"]) for _ in range(n))
    if all(letter == "I" for letter in letters):
        letters = ("Z",) + letters[1:]
    return PauliString(letters)


class TestSpec:
    @pytest.mark.parametrize(
        "n,depth,count", [(4, 1, 12), (2, 1, 6), (2, 0, 4), (3, 0, 6), (4, 5, 28)]
    )
    def test_param_count(self, n, depth, count):
        assert AnsatzSpec(n, depth).param_count == count

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            AnsatzSpec(0, 1)
        with pytest.raises(ConfigurationError):
            AnsatzSpec(2, -1)

    @pytest.mark.parametrize("fields", [
        (2.5, 1), (2, 1.5), (True, 0), (2, False), (np.int64(2), 1), ("2", 1), (2, None),
    ], ids=str)
    def test_mistyped_fields_refused(self, fields):
        with pytest.raises(ConfigurationError):
            AnsatzSpec(*fields)

    def test_param_vector_length(self):
        spec = AnsatzSpec(2, 1)
        ParamVector(spec, np.zeros(6))
        with pytest.raises(ConfigurationError):
            ParamVector(spec, np.zeros(5))


class TestBuildCircuit:
    def test_structure_n4_d1(self):
        spec = AnsatzSpec(4, 1)
        gates = build_circuit(spec, np.arange(12, dtype=float))
        assert len(gates) == 16  # 4 RX + 4 RY + 4 CNOT + 4 RY
        assert [g.kind for g in gates[:4]] == ["RX"] * 4
        assert [g.kind for g in gates[4:8]] == ["RY"] * 4
        assert [(g.control, g.target) for g in gates[8:12]] == [
            (0, 1), (1, 2), (2, 3), (3, 0),
        ]
        assert [g.kind for g in gates[12:]] == ["RY"] * 4
        assert [g.angle for g in gates[:4]] == [0.0, 1.0, 2.0, 3.0]

    def test_ring_n2(self):
        gates = build_circuit(AnsatzSpec(2, 1), np.zeros(6))
        cnots = [(g.control, g.target) for g in gates if g.kind == "CNOT"]
        assert cnots == [(0, 1), (1, 0)]

    def test_depth_zero_only_rotations(self):
        gates = build_circuit(AnsatzSpec(3, 0), np.zeros(6))
        assert len(gates) == 6
        assert all(g.kind in ("RX", "RY") for g in gates)

    def test_gate_count_formula(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            depth = int(rng.integers(0, 4))
            spec = AnsatzSpec(n, depth)
            gates = build_circuit(spec, rng.uniform(0, 2 * np.pi, spec.param_count))
            assert len(gates) == 2 * n + depth * 2 * n

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            build_circuit(AnsatzSpec(2, 1), np.zeros(7))

    def test_single_qubit_ring_degenerates(self):
        gates = build_circuit(AnsatzSpec(1, 2), np.zeros(4))
        assert all(g.kind != "CNOT" for g in gates)


class TestEncodeInput:
    def test_zero_angles_give_uniform_magnitudes(self):
        spec = AnsatzSpec(2, 1)
        state = encode_input(np.zeros(6), spec)
        assert np.allclose(np.abs(state.amplitudes) ** 2, 0.25, atol=1e-12)
        # oracle: Hadamards then the gate list, via the full-matrix path
        gates = [Gate("H", 0), Gate("H", 1)] + build_circuit(spec, np.zeros(6))
        oracle = circuit_unitary(gates, 2) @ init_zero_state(2).amplitudes
        assert np.max(np.abs(state.amplitudes - oracle)) < 1e-12

    @pytest.mark.parametrize("n,enc_depth,dim", [(4, 1, 12), (4, 4, 24), (2, 1, 6)])
    def test_required_input_dimension(self, n, enc_depth, dim):
        spec = AnsatzSpec(n, enc_depth)
        assert spec.param_count == dim
        encode_input(np.zeros(dim), spec)
        with pytest.raises(ConfigurationError):
            encode_input(np.zeros(dim + 1), spec)

    def test_deterministic(self, rng):
        spec = AnsatzSpec(3, 2)
        x = rng.uniform(-4, 4, spec.param_count)
        a = encode_input(x, spec).amplitudes
        b = encode_input(x, spec).amplitudes
        assert np.array_equal(a, b)

    def test_batched_matches_gate_list(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            depth = int(rng.integers(0, 4))
            spec = AnsatzSpec(n, depth)
            angles = rng.uniform(0, 2 * np.pi, spec.param_count)
            batched = encode_input(angles, spec).amplitudes  # with the global phase
            state = init_zero_state(n)
            gates = [Gate("H", q) for q in range(n)] + build_circuit(spec, angles)
            via_gates = apply_circuit(state, gates).amplitudes
            assert np.max(np.abs(batched - via_gates)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_closed_form_matches_kronecker_oracle(self, rng, n, depth):
        # one angle row per state; build_circuit wraps angles into [0, 2 pi),
        # which would flip a rotation's sign
        spec = AnsatzSpec(n, depth)
        rows = rng.uniform(0, 2 * np.pi, (5, spec.param_count))
        # real rows times the global phase exp(-i sum(a) / 2) of the first (RX) column
        got = encode_batch(rows, spec) * np.exp(-0.5j * rows[:, :n].sum(axis=1))[:, None]
        zero = init_zero_state(n).amplitudes
        for row, state in zip(rows, got):
            gates = [Gate("H", q) for q in range(n)] + build_circuit(spec, row)
            assert np.max(np.abs(state - circuit_unitary(gates, n) @ zero)) < 1e-13

    def test_out_of_range_angles_same_expectations(self, rng):
        # gate-list angles wrap by 2*pi; only a global phase can differ
        spec = AnsatzSpec(2, 1)
        angles = rng.uniform(-8, 8, 6)
        obs = PauliString.from_str("ZI")
        batched = encode_batch(angles, spec)
        from qsann.sim import expectation_batch

        state = init_zero_state(2)
        gates = [Gate("H", 0), Gate("H", 1)] + build_circuit(spec, angles)
        via_gates = expectation(apply_circuit(state, gates), obs)
        assert expectation_batch(batched, obs, 2)[0] == pytest.approx(via_gates, abs=1e-12)


class TestParamShift:
    def test_single_ry_analytic(self):
        # RX(0) then RY(theta): <Z> = cos(theta), derivative -sin(theta)
        spec = AnsatzSpec(1, 0)
        state = init_zero_state(1)
        z = PauliString.from_str("Z")
        grad = param_shift_grad(state, spec, np.array([0.0, math.pi / 2]), z, 1)
        assert grad == pytest.approx(-1.0, abs=1e-12)

    def test_zero_angle_extremum(self):
        spec = AnsatzSpec(1, 0)
        grad = param_shift_grad(
            init_zero_state(1), spec, np.zeros(2), PauliString.from_str("Z"), 1
        )
        assert grad == pytest.approx(0.0, abs=1e-12)

    def test_index_out_of_range(self):
        spec = AnsatzSpec(1, 0)
        with pytest.raises(IndexError):
            param_shift_grad(
                init_zero_state(1), spec, np.zeros(2), PauliString.from_str("Z"), 2
            )

    def test_two_qubit_matches_finite_difference(self, rng):
        spec = AnsatzSpec(2, 1)
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        state = encode_input(rng.uniform(0, 2 * np.pi, 6), spec)
        obs = PauliString.from_str("ZI")
        h = 1e-5
        for j in range(spec.param_count):
            shift = param_shift_grad(state, spec, params, obs, j)
            plus, minus = params.copy(), params.copy()
            plus[j] += h
            minus[j] -= h
            fd = (
                circuit_expectation(state, spec, plus, obs)
                - circuit_expectation(state, spec, minus, obs)
            ) / (2 * h)
            assert shift == pytest.approx(fd, abs=1e-6)

    def test_random_instances_match_finite_difference(self, rng):
        # 50 random (spec, params, observable) triples, n <= 4, depth <= 5
        for _ in range(50):
            n = int(rng.integers(1, 5))
            depth = int(rng.integers(0, 6))
            spec = AnsatzSpec(n, depth)
            params = rng.uniform(0, 2 * np.pi, spec.param_count)
            state = encode_input(rng.uniform(0, 2 * np.pi, spec.param_count), spec)
            obs = random_pauli(rng, n)
            j = int(rng.integers(spec.param_count))
            h = 1e-5
            plus, minus = params.copy(), params.copy()
            plus[j] += h
            minus[j] -= h
            fd = (
                circuit_expectation(state, spec, plus, obs)
                - circuit_expectation(state, spec, minus, obs)
            ) / (2 * h)
            assert param_shift_grad(state, spec, params, obs, j) == pytest.approx(
                fd, abs=1e-6
            )


class TestBatchedRunner:
    def test_shared_angles_broadcast(self, rng):
        spec = AnsatzSpec(2, 2)
        angles = rng.uniform(0, 2 * np.pi, spec.param_count)
        inputs = rng.uniform(0, 2 * np.pi, (3, spec.param_count))
        batch = encode_batch(inputs, spec)
        shared = run_ansatz_batch(batch, spec, angles)
        per_row = run_ansatz_batch(batch, spec, np.tile(angles, (3, 1)))
        assert np.max(np.abs(shared - per_row)) < 1e-12

    def test_rejects_wrong_width(self):
        spec = AnsatzSpec(2, 1)
        with pytest.raises(ConfigurationError):
            run_ansatz_batch(np.zeros((1, 4), dtype=complex), spec, np.zeros(5))

    @pytest.mark.parametrize("n,depth", [(1, 0), (2, 1), (3, 2)])
    def test_unitaries_match_kronecker_oracle(self, rng, n, depth):
        spec = AnsatzSpec(n, depth)
        # build_circuit wraps angles into [0, 2 pi), which flips a rotation's sign
        angles = rng.uniform(0, 2 * np.pi, (4, spec.param_count))
        got = ansatz_unitaries(*column_operators(spec, angles))
        for row, unitary in zip(angles, got):
            want = circuit_unitary(build_circuit(spec, row), n)
            assert np.max(np.abs(unitary - want)) < 1e-12


class TestRealColumns:
    @pytest.mark.parametrize("n,depth", QKV_SPECS)
    def test_columns_equal_the_complex_columns(self, rng, n, depth):
        # values equal; an exactly-zero part of an entry may differ in sign, so angles of
        # exactly 0 (sin 0 = 0) are compared by value too
        spec = AnsatzSpec(n, depth)
        angles = rng.normal(0.0, 2.0, (3, spec.param_count))
        angles[1, ::2] = 0.0
        rx, ry = column_operators(spec, angles)
        want = complex_column_operators(spec, angles)
        assert rx.dtype == np.complex128 and ry.dtype == np.float64
        assert np.array_equal(rx, want[:, 0]) and np.array_equal(ry, want[:, 1:])
        assert np.array_equal(ansatz_unitaries(rx, ry), complex_unitaries(want))

    @pytest.mark.parametrize("n,depth", QKV_SPECS)
    def test_unitaries_and_sweep_bit_equal_to_the_complex_ones(self, rng, n, depth):
        spec = AnsatzSpec(n, depth)
        angles = rng.normal(0.0, 2.0, (3, spec.param_count))
        rx, ry = column_operators(spec, angles)
        want = complex_column_operators(spec, angles)
        assert ansatz_unitaries(rx, ry).tobytes() == complex_unitaries(want).tobytes()
        dim = 2**n
        joints = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        got = adjoint_operator_gradients(spec, rx, ry, joints)
        assert got.tobytes() == complex_operator_gradients(spec, want, joints).tobytes()

    def test_real_product_bit_equal_to_the_complex_product(self, rng):
        for shape in [(2, 2), (16, 16), (3, 16, 16), (14, 16, 16), (5, 8, 8)]:
            for _ in range(20):
                real = rng.normal(size=shape)
                ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                want = real.astype(np.complex128) @ ops
                assert real_product(real, ops).tobytes() == want.tobytes()

    def test_cached_tables_are_read_only(self):
        column_operators(AnsatzSpec(3, 1), np.zeros(9))
        for table in ansatz._column_tables(3):
            assert not table.flags.writeable


def matmul_encode(inputs, spec):
    """encode_batch with the ring as a permutation matrix product: the gathers' reference."""
    rows, n = inputs.shape[0], spec.n_qubits
    half = 0.5 * inputs.reshape(rows, spec.depth + 2, n)
    cos, sin = np.cos(half[:, 1]), np.sin(half[:, 1])
    qubits = np.stack([cos - sin, sin + cos], axis=-1) / np.sqrt(2.0)
    amps = qubits[:, 0]
    for q in range(1, n):
        amps = (amps[:, :, None] * qubits[:, q, None, :]).reshape(rows, -1)
    for column in range(2, spec.depth + 2):
        amps = ansatz._ry_column(amps @ ring_matrix(n).T, half[:, column])
    return amps


def matmul_row_gradients(spec, angles, states, duals):
    """adjoint_row_gradients with the ring as a permutation matrix product: the reference."""
    n, rows = spec.n_qubits, states.shape[0]
    flips, phases = ansatz._generators("RY", n)
    pair = np.concatenate([states, duals])
    undo = -0.5 * np.tile(angles, (2, 1)).reshape(2 * rows, spec.depth + 2, n)
    grads = np.zeros((rows, spec.depth + 2, n))
    for column in range(spec.depth + 1, 0, -1):
        grads[:, column] = (pair[rows:, None] * phases.imag * pair[:rows, flips]).sum(-1)
        if column > 1:
            pair = ansatz._ry_column(pair, undo[:, column]) @ ring_matrix(n)
    return grads.reshape(rows, -1)


class TestRingTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_read_only_permutation(self, n):
        order, inverse, _ = ansatz._column_tables(n)
        assert sorted(order) == list(range(2**n))
        assert (order[inverse] == np.arange(2**n)).all()
        assert not order.flags.writeable and not inverse.flags.writeable
        if n == 1:  # no ring on one qubit
            assert order.tolist() == [0, 1]
        else:
            assert (order == ring_matrix(n).argmax(axis=0)).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("depth", range(5))
    def test_encoder_and_sweep_bit_equal_to_the_matrix_products(self, rng, n, depth):
        spec = AnsatzSpec(n, depth)
        inputs = rng.uniform(-4, 4, (64, spec.param_count))
        states = encode_batch(inputs, spec)
        assert states.tobytes() == matmul_encode(inputs, spec).tobytes()
        duals = rng.normal(size=states.shape)
        got = ansatz.adjoint_row_gradients(spec, inputs, states, duals)
        assert got.tobytes() == matmul_row_gradients(spec, inputs, states, duals).tobytes()
