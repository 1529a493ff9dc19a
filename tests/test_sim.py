import itertools
import math

import numpy as np
import pytest

from qsann.errors import ConfigurationError
from qsann.sim import (
    FIXED_KINDS,
    MAX_QUBITS,
    PAULI_LETTERS,
    ROTATION_KINDS,
    DensityMatrix,
    Gate,
    NoiseChannel,
    PauliString,
    StateVector,
    apply_channel,
    apply_channel_batch,
    apply_channel_every_qubit,
    apply_circuit,
    apply_gate,
    apply_gate_dm,
    apply_gate_dm_batch,
    apply_rotation_dm_batch,
    circuit_unitary,
    density_from_state,
    embedded_gate_unitary,
    expectation,
    expectation_dm,
    expectation_dm_batch,
    init_zero_state,
    pauli_matrix,
)
from qsann.sim import _channel_plan, _superoperator


def transposed_channel_every_qubit(ops, channel, n, adjoint=False):
    """The every-qubit channel as it was kernelled before the cached gathers: each qubit's
    (row bit, column bit) pair brought last by transposes, contracted 0, 1, ..., n-1."""
    sup = _superoperator(channel.kind, channel.p, adjoint)
    bits = ops.shape[:1] + (2,) * 2 * n
    pairs = [0] + [1 + (q + 1) % n + side * n for q in range(n) for side in (0, 1)]
    t = ops.reshape(bits).transpose(pairs)  # pairs of qubits 1, ..., n-1, 0
    for _ in range(n):
        t = np.dot(t.reshape(-1, 4), sup).reshape(len(ops), 4, -1).swapaxes(1, 2)
    rows_cols = [0] + [2 * ((q - 1) % n) + side for side in (1, 2) for q in range(n)]
    return t.reshape(bits).transpose(rows_cols).reshape(ops.shape)


def argsort_channel_plan(n, batch):
    """The channel's gathers as first built, each layout inverted by ``np.argsort``."""
    pairs = [[1 + q, 1 + n + q] for q in range(n)] + [[]]
    source = np.arange(batch * 4**n).reshape([batch] + [2] * (2 * n))
    layouts = [pairs[a] + [0] + sum(pairs[:a] + pairs[a + 2 :], []) + pairs[a + 1]
               for a in range(0, n, 2)]
    flat = [source.transpose(layout).ravel() for layout in layouts] + [source.ravel()]
    return [flat[0]] + [np.argsort(before)[after] for before, after in zip(flat, flat[1:])]


def embed(op, qubit, n):
    """A 2x2 operator on one qubit of n, as its 2**n x 2**n Kronecker product."""
    return np.kron(np.kron(np.eye(2**qubit), op), np.eye(2 ** (n - qubit - 1)))


def random_stack(rng, batch, dim):
    """Complex (batch, dim, dim) matrices, neither Hermitian nor of unit trace."""
    return rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))


def every_gate(rng, n):
    """Each fixed gate and rotation on each qubit, and a CNOT on each ordered qubit pair."""
    for q in range(n):
        yield from (Gate(kind, q) for kind in FIXED_KINDS)
        angles = rng.uniform(0, 2 * np.pi, len(ROTATION_KINDS))
        yield from (Gate(kind, q, angle=float(a)) for kind, a in zip(ROTATION_KINDS, angles))
        yield from (Gate("CNOT", q, control=c) for c in range(n) if c != q)


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


# counts outside [1, 16], and values that are not a builtin int
BAD_QUBIT_COUNTS = [0, -1, 17, True, 1.0, np.int64(1)]


class TestInitZeroState:
    def test_one_qubit(self):
        assert np.array_equal(init_zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(init_zero_state(2).amplitudes, [1, 0, 0, 0])

    @pytest.mark.parametrize("n", BAD_QUBIT_COUNTS, ids=repr)
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

    @pytest.mark.parametrize("args,kwargs", [
        (("H", 1.5), {}), (("H", True), {}), (("H", np.int64(0)), {}), ((0, 0), {}),
        (("CNOT", 0), {"control": 1.0}), (("RX", 0), {"angle": math.nan}),
        (("RX", 0), {"angle": math.inf}), (("RX", 0), {"angle": -math.inf}),
        (("RX", 0), {"angle": "x"}), (("RX", 0), {"angle": np.float32(0.5)}),
    ], ids=str)
    def test_mistyped_or_non_finite_fields_refused(self, args, kwargs):
        with pytest.raises(ConfigurationError):
            Gate(*args, **kwargs)

    def test_numpy_float64_and_str_accepted(self):
        assert Gate(np.str_("RX"), 0, angle=np.float64(0.5)).angle == 0.5


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

    @pytest.mark.parametrize("amps", [[math.nan, 1.0], [math.nan, 0.0], [1.0, math.nan * 1j],
                                      [math.inf, 0.0]], ids=str)
    def test_non_finite_amplitudes_refused(self, amps):
        with pytest.raises(ConfigurationError):
            StateVector(1, np.array(amps))

    def test_length_enforced(self):
        with pytest.raises(ConfigurationError):
            StateVector(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("n", BAD_QUBIT_COUNTS, ids=repr)
    @pytest.mark.parametrize("cls,entries",
                             [(StateVector, [1, 0]), (DensityMatrix, np.eye(2) / 2)],
                             ids=["state", "density"])
    def test_qubit_count_refused(self, cls, entries, n):
        with pytest.raises(ConfigurationError, match="n_qubits must be"):
            cls(n, entries)


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

    @pytest.mark.parametrize("qubit,n", [(0.0, 2), (True, 2), (np.int64(0), 2), (0, 2.0),
                                         (0, 0), (0, MAX_QUBITS + 1)], ids=repr)
    def test_single_refuses_a_non_int_or_a_count_out_of_range(self, qubit, n):
        with pytest.raises(ConfigurationError):
            PauliString.single("Z", qubit, n)

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

    @pytest.mark.parametrize("fields", [
        ("depolarizing", "x"), ("depolarizing", True), ("depolarizing", np.float32(0.1)),
        ("depolarizing", math.nan), ("depolarizing", 0.1, 0.5), ("depolarizing", 0.1, True),
        ("depolarizing", 0.1, np.int64(0)), (None, 0.1),
    ], ids=str)
    def test_mistyped_fields_refused(self, fields):
        with pytest.raises(ConfigurationError):
            NoiseChannel(*fields)

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

    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_qubit_kernel_matches_kraus_sums(self, rng, kind, n):
        # against the per-qubit Kraus kernel, and <E^dag(A), rho> = <A, E(rho)>
        dim = 2**n
        channel = NoiseChannel(kind, float(rng.uniform(0.05, 1.0)))
        ops = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        want = ops
        for q in range(n):
            # the Kraus kernel itself against sum_K K rho K^dag, K embedded by Kronecker products
            embedded = [embed(k, q, n) for k in channel.kraus_operators()]
            kraus_sum = sum(k @ want @ k.conj().T for k in embedded)
            want = apply_channel_batch(want, channel, q, n)
            assert np.max(np.abs(want - kraus_sum)) < 1e-12
        assert np.max(np.abs(apply_channel_every_qubit(ops, channel, n) - want)) < 1e-12
        adjoint = apply_channel_every_qubit(ops, channel, n, adjoint=True)
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho_out = apply_channel_every_qubit(rho[None], channel, n)[0]
        for a, a_adj in zip(ops, adjoint):
            assert abs(np.trace(a_adj @ rho) - np.trace(a @ rho_out)) < 1e-10

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("p", [0.05, 0.5, 1.0])
    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    def test_every_qubit_kernel_bit_equal_to_tensordot_form(self, rng, kind, p, adjoint):
        # the interleaved per-qubit dots against a tensordot per qubit over the row and
        # column axes of the (batch, 2**q, 2, 2**(n-q-1)) x 2 view, to the bit
        channel = NoiseChannel(kind, p)
        kraus = channel.kraus_operators()
        if adjoint:
            kraus = [k.conj().T for k in kraus]
        sup = sum(np.einsum("ca,db->cdab", k, k.conj()) for k in kraus)
        for n in range(1, 7):
            dim = 2**n
            ops = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
            want = ops
            for q in range(n):
                lo, hi = 2**q, dim >> (q + 1)
                t = np.tensordot(want.reshape(3, lo, 2, hi, lo, 2, hi), sup, ([2, 5], [2, 3]))
                want = np.moveaxis(t, (5, 6), (2, 5)).reshape(3, dim, dim)
            assert np.array_equal(apply_channel_every_qubit(ops, channel, n, adjoint), want)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind,p", [("depolarizing", 0.1), ("amplitude_damping", 0.2)])
    def test_gathered_kernel_bit_equal_to_the_transposed_one(self, rng, kind, p, adjoint):
        # the cached gathers and two-sided dots against the transpose kernel they replaced,
        # real and complex stacks, contiguous or not, n = 1-6, three batch sizes
        channel = NoiseChannel(kind, p)
        for n in range(1, 7):
            for batch in (1, 3, 14):
                real = rng.normal(size=(batch, 2**n, 2**n))
                for ops in (real, real + 1j * rng.normal(size=real.shape), real.swapaxes(1, 2)):
                    got = apply_channel_every_qubit(ops, channel, n, adjoint)
                    want = transposed_channel_every_qubit(ops, channel, n, adjoint)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_gather_plans_equal_an_argsort_construction(self):
        for n in range(1, 6):
            for batch in (1, 3, 14):
                plan, want = _channel_plan(n, batch), argsort_channel_plan(n, batch)
                assert len(plan) == len(want)
                assert all(np.array_equal(a, b) for a, b in zip(plan, want))

    def test_gather_plans_are_read_only(self):
        channel = NoiseChannel("depolarizing", 0.1)
        apply_channel_every_qubit(np.eye(8)[None], channel, 3)
        plan = _channel_plan(3, 1)
        assert len(plan) == 3  # pairs (0, 1) and (2,), then rows and columns restored
        for gather in plan:
            assert not gather.flags.writeable
            assert np.array_equal(np.sort(gather), np.arange(64))

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    def test_real_stack_stays_real_with_the_complex_results_bits(self, rng, kind, adjoint):
        # both channels' superoperators are real, so a real stack is kernelled as float64
        channel = NoiseChannel(kind, 0.2)
        for n in range(1, 5):
            dim = 2**n
            ops = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
            real = apply_channel_every_qubit(np.ascontiguousarray(ops.real), channel, n, adjoint)
            full = apply_channel_every_qubit(ops, channel, n, adjoint)
            assert real.dtype == np.float64
            assert real.tobytes() == np.ascontiguousarray(full.real).tobytes()

    def test_target_required_and_in_range(self):
        rho = density_from_state(init_zero_state(1))
        with pytest.raises(ConfigurationError):
            apply_channel(rho, NoiseChannel("depolarizing", 0.1))
        with pytest.raises(IndexError):
            apply_channel(rho, NoiseChannel("depolarizing", 0.1, target=3))


class TestDensityKernelsAgainstKronecker:
    """Each density kernel against U rho U^dag or Tr[P rho] with Kronecker-product operators."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_gate_on_every_qubit(self, rng, n):
        rhos = random_stack(rng, 3, 2**n)
        for gate in every_gate(rng, n):
            u = embedded_gate_unitary(gate, n)
            got = apply_gate_dm_batch(rhos, gate, n)
            assert np.max(np.abs(got - u @ rhos @ u.conj().T)) < 1e-12, gate

    @pytest.mark.parametrize("kind", ROTATION_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rotation_with_one_angle_per_row(self, rng, n, kind):
        rhos = random_stack(rng, 3, 2**n)
        angles = rng.uniform(0, 2 * np.pi, 3)
        for q in range(n):
            got = apply_rotation_dm_batch(rhos, kind, q, angles, n)
            for rho, out, angle in zip(rhos, got, angles):
                u = embedded_gate_unitary(Gate(kind, q, angle=float(angle)), n)
                assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_expectation_on_every_pauli_string(self, rng, n):
        rhos = random_stack(rng, 3, 2**n)
        for letters in itertools.product(PAULI_LETTERS, repeat=n):
            obs = PauliString(letters)
            want = np.trace(pauli_matrix(obs) @ rhos, axis1=1, axis2=2).real
            assert np.max(np.abs(expectation_dm_batch(rhos, obs, n) - want)) < 1e-12, obs


class TestOracleHelpers:
    def test_embedded_cnot_any_orientation(self):
        # control below target and above target both permute correctly
        u = embedded_gate_unitary(Gate("CNOT", 0, control=1), 2)
        basis = np.eye(4)
        # |01> (index 1) -> |11> (index 3)
        assert np.allclose(u @ basis[1], basis[3])
        assert np.allclose(u @ basis[3], basis[1])
        assert np.allclose(u @ basis[0], basis[0])
