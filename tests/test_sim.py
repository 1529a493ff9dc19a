import math

import numpy as np
import pytest

from qsann.errors import ConfigurationError
from qsann.sim import (
    DensityMatrix,
    Gate,
    NoiseChannel,
    PauliString,
    StateVector,
    apply_channel,
    apply_circuit,
    apply_gate,
    apply_gate_dm,
    circuit_unitary,
    density_from_state,
    embedded_gate_unitary,
    expectation,
    expectation_dm,
    init_zero_state,
    pauli_matrix,
)


def random_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["H", "X", "Y", "Z", "RX", "RY", "RZ", "CNOT"])
        target = int(rng.integers(n_qubits))
        if kind == "CNOT":
            if n_qubits == 1:
                kind = "H"
            else:
                control = int(rng.integers(n_qubits))
                while control == target:
                    control = int(rng.integers(n_qubits))
                gates.append(Gate("CNOT", target, control=control))
                continue
        if kind in ("RX", "RY", "RZ"):
            gates.append(Gate(kind, target, angle=float(rng.uniform(0, 2 * np.pi))))
        else:
            gates.append(Gate(kind, target))
    return gates


class TestInitZeroState:
    def test_one_qubit(self):
        assert np.array_equal(init_zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(init_zero_state(2).amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [0, -1, 17])
    def test_out_of_range(self, n):
        with pytest.raises(ConfigurationError):
            init_zero_state(n)


class TestGateValidation:
    def test_control_only_for_cnot(self):
        with pytest.raises(ConfigurationError):
            Gate("H", 0, control=1)
        with pytest.raises(ConfigurationError):
            Gate("CNOT", 0)

    def test_angle_only_for_rotations(self):
        with pytest.raises(ConfigurationError):
            Gate("H", 0, angle=0.3)
        with pytest.raises(ConfigurationError):
            Gate("RX", 0)

    def test_angle_canonicalized(self):
        assert Gate("RY", 0, angle=-1.0).angle == pytest.approx(2 * math.pi - 1.0)
        assert 0.0 <= Gate("RZ", 0, angle=7.0).angle < 2 * math.pi

    def test_wrap_preserves_expectations(self):
        state = init_zero_state(1)
        z = PauliString.from_str("Z")
        for theta in (-1.3, 9.0, 0.4):
            out = apply_gate(state, Gate("RY", 0, angle=theta))
            assert expectation(out, z) == pytest.approx(math.cos(theta), abs=1e-12)

    def test_self_cnot_rejected(self):
        with pytest.raises(ConfigurationError):
            Gate("CNOT", 1, control=1)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(init_zero_state(1), Gate("H", 0))
        assert np.allclose(out.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_ry_on_zero(self):
        out = apply_gate(init_zero_state(1), Gate("RY", 0, angle=math.pi / 2))
        expected = [math.cos(math.pi / 4), math.sin(math.pi / 4)]
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_cnot_truth_table(self):
        # |10> -> |11>: qubit 0 is the most significant bit
        state = apply_gate(init_zero_state(2), Gate("X", 0))
        assert np.array_equal(state.amplitudes, [0, 0, 1, 0])
        out = apply_gate(state, Gate("CNOT", 1, control=0))
        assert np.array_equal(out.amplitudes, [0, 0, 0, 1])

    def test_index_error(self):
        with pytest.raises(IndexError):
            apply_gate(init_zero_state(1), Gate("H", 1))
        with pytest.raises(IndexError):
            apply_gate(init_zero_state(2), Gate("CNOT", 0, control=5))

    def test_norm_preserved_on_random_circuits(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            state = apply_circuit(init_zero_state(n), random_circuit(rng, n, 12))
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10

    def test_matches_kronecker_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            gates = random_circuit(rng, n, 10)
            strided = apply_circuit(init_zero_state(n), gates).amplitudes
            oracle = circuit_unitary(gates, n) @ init_zero_state(n).amplitudes
            assert np.max(np.abs(strided - oracle)) < 1e-10


class TestExpectation:
    def test_zero_state_z(self):
        assert expectation(init_zero_state(1), PauliString.from_str("Z")) == 1.0

    def test_plus_state_z(self):
        plus = apply_gate(init_zero_state(1), Gate("H", 0))
        assert expectation(plus, PauliString.from_str("Z")) == pytest.approx(0.0, abs=1e-12)

    def test_ry_rotation_cosine(self):
        # independent 2x2 oracle for <Z> after RY(1.0)
        theta = 1.0
        ry = np.array(
            [[math.cos(theta / 2), -math.sin(theta / 2)],
             [math.sin(theta / 2), math.cos(theta / 2)]]
        )
        psi = ry @ np.array([1.0, 0.0])
        oracle = psi @ np.diag([1.0, -1.0]) @ psi
        out = apply_gate(init_zero_state(1), Gate("RY", 0, angle=theta))
        value = expectation(out, PauliString.from_str("Z"))
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(0.540302, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(IndexError):
            expectation(init_zero_state(2), PauliString.from_str("Z"))

    def test_matches_matrix_oracle(self, rng):
        letters = ["I", "X", "Y", "Z"]
        for _ in range(15):
            n = int(rng.integers(1, 4))
            state = apply_circuit(init_zero_state(n), random_circuit(rng, n, 8))
            obs = PauliString(tuple(rng.choice(letters) for _ in range(n)))
            direct = expectation(state, obs)
            psi = state.amplitudes
            oracle = np.real(psi.conj() @ pauli_matrix(obs) @ psi)
            assert direct == pytest.approx(oracle, abs=1e-10)


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ConfigurationError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_length_enforced(self):
        with pytest.raises(ConfigurationError):
            StateVector(2, np.array([1.0, 0.0]))


class TestDensityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ConfigurationError):
            DensityMatrix(1, np.array([[0.5, 0.5], [0.1, 0.5]]))
        with pytest.raises(ConfigurationError):
            DensityMatrix(1, np.eye(2))

    def test_pure_state_z(self):
        rho = density_from_state(init_zero_state(1))
        assert expectation_dm(rho, PauliString.from_str("Z")) == pytest.approx(1.0)

    def test_maximally_mixed_z(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        assert expectation_dm(rho, PauliString.from_str("Z")) == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        with pytest.raises(IndexError):
            expectation_dm(rho, PauliString.from_str("ZZ"))
        with pytest.raises(IndexError):
            PauliString.single("Z", 3, 2)

    def test_pure_density_agrees_with_statevector(self, rng):
        letters = ["I", "X", "Y", "Z"]
        for _ in range(10):
            n = int(rng.integers(1, 4))
            state = apply_circuit(init_zero_state(n), random_circuit(rng, n, 8))
            obs = PauliString(tuple(rng.choice(letters) for _ in range(n)))
            assert expectation_dm(density_from_state(state), obs) == pytest.approx(
                expectation(state, obs), abs=1e-10
            )

    def test_noiseless_circuit_matches_outer_product(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            gates = random_circuit(rng, n, 8)
            state = apply_circuit(init_zero_state(n), gates)
            rho = density_from_state(init_zero_state(n))
            for gate in gates:
                rho = apply_gate_dm(rho, gate)
            outer = np.outer(state.amplitudes, state.amplitudes.conj())
            assert np.max(np.abs(rho.entries - outer)) < 1e-10


class TestNoiseChannels:
    def test_p_out_of_range(self):
        with pytest.raises(ConfigurationError):
            NoiseChannel("depolarizing", 1.5)
        with pytest.raises(ConfigurationError):
            NoiseChannel("amplitude_damping", -0.1)

    def test_kraus_completeness(self):
        for kind in ("depolarizing", "amplitude_damping"):
            for p in (0.0, 0.01, 0.3, 1.0):
                ops = NoiseChannel(kind, p).kraus_operators()
                total = sum(k.conj().T @ k for k in ops)
                assert np.max(np.abs(total - np.eye(2))) < 1e-12

    def test_depolarizing_z_scaling_oracle(self):
        # term-by-term 2x2 arithmetic: (1-p) rho + p/3 (XrhoX + YrhoY + ZrhoZ)
        p = 0.1
        rho = density_from_state(init_zero_state(1))
        channel = NoiseChannel("depolarizing", p, target=0)
        out = apply_channel(rho, channel)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        oracle = (1 - p) * rho.entries + p / 3 * (
            x @ rho.entries @ x + y @ rho.entries @ y + z @ rho.entries @ z
        )
        assert np.max(np.abs(out.entries - oracle)) < 1e-12
        assert expectation_dm(out, PauliString.from_str("Z")) == pytest.approx(
            1 - 4 * p / 3, abs=1e-12
        )
        assert expectation_dm(out, PauliString.from_str("Z")) == pytest.approx(
            0.866667, abs=1e-6
        )

    def test_amplitude_damping_on_excited_state(self):
        p = 0.2
        excited = apply_gate(init_zero_state(1), Gate("X", 0))
        rho = density_from_state(excited)
        out = apply_channel(rho, NoiseChannel("amplitude_damping", p, target=0))
        e0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
        e1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
        oracle = e0 @ rho.entries @ e0.conj().T + e1 @ rho.entries @ e1.conj().T
        assert np.max(np.abs(out.entries - oracle)) < 1e-12
        assert expectation_dm(out, PauliString.from_str("Z")) == pytest.approx(-0.6)

    def test_p_zero_is_identity(self, rng):
        state = apply_circuit(init_zero_state(1), random_circuit(rng, 1, 5))
        rho = density_from_state(state)
        for kind in ("depolarizing", "amplitude_damping"):
            out = apply_channel(rho, NoiseChannel(kind, 0.0, target=0))
            assert np.max(np.abs(out.entries - rho.entries)) == 0.0

    def test_depolarizing_three_quarters_fully_mixes(self, rng):
        state = apply_circuit(init_zero_state(1), random_circuit(rng, 1, 6))
        rho = density_from_state(state)
        out = apply_channel(rho, NoiseChannel("depolarizing", 0.75, target=0))
        assert np.max(np.abs(out.entries - np.eye(2) / 2)) < 1e-10

    def test_trace_hermiticity_and_psd_preserved(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 3))
            state = apply_circuit(init_zero_state(n), random_circuit(rng, n, 6))
            rho = density_from_state(state)
            kind = rng.choice(["depolarizing", "amplitude_damping"])
            p = float(rng.uniform(0, 1))
            out = apply_channel(rho, NoiseChannel(kind, p, target=int(rng.integers(n))))
            assert abs(np.trace(out.entries) - 1.0) < 1e-10
            assert np.max(np.abs(out.entries - out.entries.conj().T)) < 1e-10
            assert np.linalg.eigvalsh(out.entries).min() >= -1e-8

    def test_target_required_and_in_range(self):
        rho = density_from_state(init_zero_state(1))
        with pytest.raises(ConfigurationError):
            apply_channel(rho, NoiseChannel("depolarizing", 0.1))
        with pytest.raises(IndexError):
            apply_channel(rho, NoiseChannel("depolarizing", 0.1, target=3))


class TestOracleHelpers:
    def test_embedded_cnot_any_orientation(self):
        # control below target and above target both permute correctly
        u = embedded_gate_unitary(Gate("CNOT", 0, control=1), 2)
        basis = np.eye(4)
        # |01> (index 1) -> |11> (index 3)
        assert np.allclose(u @ basis[1], basis[3])
        assert np.allclose(u @ basis[3], basis[1])
        assert np.allclose(u @ basis[0], basis[0])
