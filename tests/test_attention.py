import copy

import numpy as np
import pytest

from conftest import random_layer
from qsann.ansatz import AnsatzSpec, ParamVector, build_circuit
from qsann.attention import (
    ENCODE_BLOCK,
    AttentionMatrix,
    Engine,
    ObservableSet,
    QsalLayerParams,
    attend,
    gpqsa_coefficients,
    layer_forward,
)
from qsann.errors import ConfigurationError, EmptySequenceError
from qsann.gradients import layer_backward
from qsann.sim import (
    Gate,
    NoiseChannel,
    PauliString,
    apply_channel_batch,
    apply_channel_every_qubit,
    apply_gate_dm_batch,
    apply_rotation_dm_batch,
    circuit_unitary,
    expectation_dm_batch,
    init_zero_state,
    pauli_matrix,
)


def zero_layer(n=2, enc_depth=1, qkv_depth=1):
    return QsalLayerParams.create(n, enc_depth, qkv_depth)


class TestLayerParams:
    def test_sizes(self):
        layer = zero_layer(2, 1, 1)
        assert layer.input_dim == 6
        assert layer.theta_q.values.shape == (6,)

    def test_mismatched_vectors_rejected(self):
        good = ParamVector(AnsatzSpec(2, 1), np.zeros(6))
        bad = ParamVector(AnsatzSpec(2, 2), np.zeros(8))
        with pytest.raises(ConfigurationError):
            QsalLayerParams(2, 1, 1, good, good, bad)


class TestObservableSet:
    def test_default_singles_order_n2(self):
        obs = ObservableSet.default(2, 6)
        assert [str(o) for o in obs.observables] == ["ZI", "IZ", "XI", "IX", "YI", "IY"]

    def test_default_pairs_n4_d24(self):
        obs = ObservableSet.default(4, 24)
        names = [str(o) for o in obs.observables]
        assert names[:12] == [
            "ZIII", "IZII", "IIZI", "IIIZ",
            "XIII", "IXII", "IIXI", "IIIX",
            "YIII", "IYII", "IIYI", "IIIY",
        ]
        assert names[12:16] == ["ZZII", "IZZI", "IIZZ", "ZIIZ"]
        assert names[16:20] == ["XXII", "IXXI", "IIXX", "XIIX"]
        assert names[20:24] == ["YYII", "IYYI", "IIYY", "YIIY"]

    def test_default_pairs_deduplicate_n2(self):
        obs = ObservableSet.default(2, 8)
        names = [str(o) for o in obs.observables]
        assert names == ["ZI", "IZ", "XI", "IX", "YI", "IY", "ZZ", "XX"]

    def test_too_many_requested(self):
        with pytest.raises(ConfigurationError):
            ObservableSet.default(1, 4)



class TestObservablesUnderNoise:
    def test_each_channel_matches_a_fresh_kernel_and_is_read_only(self):
        obs = ObservableSet.default(3, 9)
        for channel in (
            NoiseChannel("depolarizing", 0.1),
            NoiseChannel("depolarizing", 0.2),
            NoiseChannel("amplitude_damping", 0.1),
        ):
            held = obs.under(channel)
            assert not held.flags.writeable
            fresh = apply_channel_every_qubit(obs.matrices, channel, 3, adjoint=True)
            assert np.array_equal(held, fresh)
            assert obs.under(channel) is held

    def test_default_set_is_shared_and_alternating_channels_stay_exact(self):
        obs = ObservableSet.default(2, 6)
        assert ObservableSet.default(2, 6) is obs
        assert ObservableSet.default(2, 5) is not obs
        assert not obs.matrices.flags.writeable
        channels = [NoiseChannel("depolarizing", 0.1), NoiseChannel("amplitude_damping", 0.2)]
        for channel in channels * 3:  # models of one geometry, trained with different noise
            fresh = apply_channel_every_qubit(obs.matrices, channel, 2, adjoint=True)
            assert np.array_equal(obs.under(channel), fresh)
        assert obs.under(None) is obs.matrices

    def test_engines_share_the_held_stack_and_pure_reads_the_matrices(self, rng):
        obs = ObservableSet.default(2, 6)
        noise = NoiseChannel("depolarizing", 0.1)
        first = Engine(random_layer(rng), noise)
        assert Engine(random_layer(rng), noise).observed is first.observed
        assert first.observed is obs.under(noise)
        for pure in (None, NoiseChannel("amplitude_damping", 0.0)):
            assert Engine(random_layer(rng), pure).observed is obs.matrices


@pytest.mark.parametrize(
    "noise",
    [None, NoiseChannel("depolarizing", 0.1), NoiseChannel("amplitude_damping", 0.2)],
    ids=["pure", "depolarizing", "amplitude_damping"],
)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_measure_is_row_independent(rng, n, noise):
    # a pass measures its distinct words together and a training step each sentence alone,
    # with the same bits: a row's must not depend on the rows measured with it
    layer = random_layer(rng, n, 1, 1, std=0.8)
    engine = Engine(layer, noise)
    rows = rng.uniform(-4, 4, (ENCODE_BLOCK, layer.input_dim))
    states, full = engine.measure(rows)
    for size in (1, 7):
        for start in range(0, len(rows), size):
            block = slice(start, start + size)
            got_states, got = engine.measure(rows[block])
            assert np.array_equal(got_states, states[block])
            assert np.array_equal(got, full[block]), (size, start)


class TestQueryKey:
    def test_zero_parameters_give_zero_projection(self):
        # theta = 0, x = 0: the state stays an equal superposition, <Z_1> = 0
        trace = layer_forward(np.zeros((3, 6)), zero_layer())
        assert np.allclose(trace.zq, 0.0, atol=1e-12)
        assert np.allclose(trace.zk, 0.0, atol=1e-12)

    def test_matches_full_matrix_oracle(self, rng):
        layer = random_layer(rng)
        x = rng.uniform(-1, 1, 6)
        zq = layer_forward(x, layer).zq
        gates = [Gate("H", 0), Gate("H", 1)] + build_circuit(layer.enc_spec, x)
        psi = circuit_unitary(gates, 2) @ init_zero_state(2).amplitudes
        uq = circuit_unitary(build_circuit(layer.qkv_spec, layer.theta_q.values), 2)
        z1 = pauli_matrix(PauliString.from_str("ZI"))
        oracle = np.real(psi.conj() @ uq.conj().T @ z1 @ uq @ psi)
        assert zq[0] == pytest.approx(oracle, abs=1e-10)

    def test_bounded(self, rng):
        layer = random_layer(rng)
        trace = layer_forward(rng.uniform(-6, 6, (100, 6)), layer)
        assert np.all(np.abs(trace.zq) <= 1.0) and np.all(np.abs(trace.zk) <= 1.0)

    def test_identical_inputs_identical_outputs(self, rng):
        layer = random_layer(rng)
        trace = layer_forward(np.tile(rng.uniform(-1, 1, 6), (4, 1)), layer)
        assert np.all(trace.zq == trace.zq[0]) and np.all(trace.zk == trace.zk[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            layer_forward(np.zeros((2, 5)), zero_layer())


class TestValues:
    def test_output_dimension_n4(self, rng):
        layer = random_layer(rng, n=4)
        values = layer_forward(rng.uniform(-1, 1, 12), layer).values
        assert values.shape == (1, 12)

    def test_entries_bounded(self, rng):
        layer = random_layer(rng)
        values = layer_forward(rng.uniform(-6, 6, (50, 6)), layer).values
        assert np.all(np.abs(values) <= 1.0)

    def test_zero_angles_z_entries_vanish(self):
        values = layer_forward(np.zeros(6), zero_layer()).values
        assert np.allclose(values[0, :2], 0.0, atol=1e-12)  # Z singles on |+..+>


class TestGpqsa:
    def test_equal_projections_uniform(self):
        attn = gpqsa_coefficients(np.array([0.3, 0.3]), np.array([0.3, 0.3]))
        assert np.allclose(attn.coefficients, 0.5)

    def test_unit_distance_ratio(self):
        # raw coefficients 1 and e^-1; check the normalized ratio
        attn = gpqsa_coefficients(np.array([0.0]), np.array([0.0]))
        assert attn.coefficients[0, 0] == 1.0
        att2 = gpqsa_coefficients(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        expected = np.exp(-1.0)
        assert att2.coefficients[0, 1] / att2.coefficients[0, 0] == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.367879, abs=1e-6)

    def test_single_position(self):
        attn = gpqsa_coefficients(np.array([0.7]), np.array([-0.2]))
        assert attn.coefficients.tolist() == [[1.0]]

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            gpqsa_coefficients(np.array([]), np.array([]))

    def test_rows_stochastic_and_positive(self, rng):
        for _ in range(200):
            s = int(rng.integers(1, 9))
            attn = gpqsa_coefficients(rng.uniform(-1, 1, s), rng.uniform(-1, 1, s))
            coeff = attn.coefficients
            assert np.max(np.abs(coeff.sum(axis=1) - 1.0)) < 1e-10
            assert np.all(coeff > 0.0) and np.all(coeff <= 1.0)


    def test_same_bits_as_the_checked_construction(self, rng):
        for s in (1, 2, 12, 200):
            zq, zk = rng.uniform(-1, 1, s), rng.uniform(-1, 1, s)
            raw = np.exp(-((zq[:, None] - zk[None, :]) ** 2))
            want = AttentionMatrix(raw / raw.sum(axis=1, keepdims=True))
            got = gpqsa_coefficients(zq, zk)
            assert type(got) is AttentionMatrix
            assert got.coefficients.dtype == want.coefficients.dtype
            assert np.array_equal(got.coefficients, want.coefficients)

    def test_underflowed_entries_still_refused(self):
        # far outside the expectations' range exp(-d^2) underflows to zero
        with pytest.raises(ConfigurationError):
            gpqsa_coefficients(np.array([0.0, 0.0]), np.array([0.0, 40.0]))


class TestAttentionMatrixType:
    def test_rejects_bad_rows(self):
        with pytest.raises(ConfigurationError):
            AttentionMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            AttentionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))  # zero entry
        with pytest.raises(ConfigurationError):
            AttentionMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))  # outside (0, 1]
        with pytest.raises(ConfigurationError):
            AttentionMatrix(np.array([[0.5, 0.5]]))  # not square


class TestLayerForward:
    def test_single_word_residual(self, rng):
        layer = random_layer(rng)
        x = rng.uniform(-1, 1, 6)
        trace = layer_forward(x, layer)
        assert trace.coefficients.tolist() == [[1.0]]
        assert np.allclose(trace.outputs[0], x + trace.values[0], atol=1e-12)

    def test_shapes(self, rng):
        layer = random_layer(rng)
        trace = layer_forward(rng.uniform(-1, 1, (5, 6)), layer)
        assert trace.outputs.shape == (5, 6)
        assert trace.coefficients.shape == (5, 5)

    def test_output_bound(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-3, 3, (6, 6))
        outputs = layer_forward(xs, layer).outputs
        assert np.all(np.abs(outputs) <= np.abs(xs) + 1.0 + 1e-12)

    def test_permutation_equivariance(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (4, 6))
        perm = rng.permutation(4)
        a = layer_forward(xs, layer)
        b = layer_forward(xs[perm], layer)
        assert np.allclose(b.outputs, a.outputs[perm], atol=1e-12)
        assert np.allclose(
            b.coefficients,
            a.coefficients[np.ix_(perm, perm)],
            atol=1e-12,
        )

    def test_deterministic(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (3, 6))
        out_a = layer_forward(xs, layer).outputs
        out_b = layer_forward(xs, layer).outputs
        assert np.array_equal(out_a, out_b)

    def test_residual_identity_with_zero_values(self, rng, monkeypatch):
        # forcing the measured expectations to zero must give y = x exactly
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (3, 6))
        monkeypatch.setattr(
            Engine,
            "expect",
            lambda self, states: np.zeros((len(states), len(self.circuits))),
        )
        assert np.array_equal(layer_forward(xs, layer).outputs, xs)

    def test_empty_sequence(self):
        with pytest.raises(EmptySequenceError):
            layer_forward(np.zeros((0, 6)), zero_layer())


class TestNoisyLayer:
    def test_p_zero_short_circuits_to_pure(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (3, 6))
        clean = layer_forward(xs, layer).outputs
        zeroed = layer_forward(xs, layer, noise=NoiseChannel("depolarizing", 0.0))
        assert np.array_equal(clean, zeroed.outputs)

    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping"])
    def test_noise_changes_outputs(self, rng, kind):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (3, 6))
        clean = layer_forward(xs, layer).outputs
        noisy = layer_forward(xs, layer, noise=NoiseChannel(kind, 0.2)).outputs
        assert np.max(np.abs(noisy - clean)) > 1e-3

    def test_noisy_rows_still_stochastic(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (4, 6))
        for kind in ("depolarizing", "amplitude_damping"):
            trace = layer_forward(xs, layer, noise=NoiseChannel(kind, 0.75))
            assert np.max(np.abs(trace.coefficients.sum(axis=1) - 1.0)) < 1e-10
            assert np.all(np.isfinite(trace.outputs))

    def test_pure_and_noisy_agree_without_noise(self, rng):
        # density matrices with a p=0 channel applied against the pure layer
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (3, 6))
        zq, zk, values = dm_expectations(xs, layer, obs, NoiseChannel("depolarizing", 0.0))
        trace = layer_forward(xs, layer)
        assert np.allclose(values, trace.values, atol=1e-10)
        assert np.allclose(zq, trace.zq, atol=1e-10) and np.allclose(zk, trace.zk, atol=1e-10)

    def test_depolarizing_shrinks_projections(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (3, 6))
        zq_clean = layer_forward(xs, layer).zq
        zq_noisy = layer_forward(xs, layer, noise=NoiseChannel("depolarizing", 0.75)).zq
        assert np.max(np.abs(zq_noisy)) <= np.max(np.abs(zq_clean)) + 1e-12


class TestShotSampling:
    def test_sampled_layer_runs_and_differs(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (3, 6))
        exact = layer_forward(xs, layer).outputs
        sampled = layer_forward(xs, layer, shots=64, rng=np.random.default_rng(0))
        assert np.max(np.abs(sampled.coefficients.sum(axis=1) - 1.0)) < 1e-10
        assert not np.array_equal(exact, sampled.outputs)

    def test_sampled_expectation(self, rng):
        # many shots converge on the exact expectations; a seed fixes the draw
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (2, 6))
        exact = layer_forward(xs, layer)
        est = layer_forward(xs, layer, shots=200_000, rng=rng)
        for name in ("zq", "zk", "values"):
            assert np.allclose(getattr(est, name), getattr(exact, name), atol=0.01)
        same = layer_forward(xs, layer, shots=100, rng=np.random.default_rng(3))
        again = layer_forward(xs, layer, shots=100, rng=np.random.default_rng(3))
        assert np.array_equal(same.outputs, again.outputs)

    def test_draw_order_is_query_key_values(self, rng):
        # the rng stream, and so `qsann eval --shots` output, depends on this order
        xs = rng.uniform(-1, 1, (1, 4, 6))
        expectations = rng.uniform(-1, 1, (1, 4, 8))
        zq, zk, values, coefficients, outputs = attend(
            xs, expectations, 64, np.random.default_rng(3)
        )
        ref = np.random.default_rng(3)

        def draw(exact):
            return 2.0 * ref.binomial(64, np.clip((1.0 + exact) / 2.0, 0.0, 1.0)) / 64 - 1.0

        assert np.array_equal(zq[0], draw(expectations[0, :, 0]))
        assert np.array_equal(zk[0], draw(expectations[0, :, 1]))
        assert np.array_equal(values[0], draw(expectations[0, :, 2:]))
        assert np.array_equal(coefficients[0], gpqsa_coefficients(zq[0], zk[0]).coefficients)
        assert np.array_equal(outputs[0], xs[0] + coefficients[0] @ values[0])

    def test_stacked_sentences_attend_as_each_alone(self, rng):
        # exact expectations: a stack of B sentences gives each sentence's own bits
        for b, s in ((1, 1), (5, 1), (3, 4), (7, 12)):
            xs = rng.uniform(-1, 1, (b, s, 6))
            expectations = rng.uniform(-1, 1, (b, s, 8))
            *_, coefficients, outputs = attend(xs, expectations)
            assert type(coefficients) is np.ndarray and coefficients.shape == (b, s, s)
            for i in range(b):
                *_, alone, out = attend(xs[i : i + 1], expectations[i : i + 1])
                assert np.array_equal(coefficients[i], alone[0])
                assert np.array_equal(outputs[i], out[0])
                want = gpqsa_coefficients(expectations[i, :, 0], expectations[i, :, 1])
                assert np.array_equal(coefficients[i], want.coefficients)

    def test_shots_need_rng(self, rng):
        with pytest.raises(ConfigurationError):
            layer_forward(np.zeros((1, 6)), random_layer(rng), shots=16)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shots_below_one_rejected(self, rng, shots):
        with pytest.raises(ConfigurationError):
            layer_forward(np.zeros((1, 6)), random_layer(rng), shots=shots, rng=rng)


# ---------------------------------------------------------------------------
# Density-matrix reference: each word's state evolves as a 2**n x 2**n matrix
# through the Hadamard layer, the encoder, the query/key/value circuits and a
# channel on every qubit after each circuit, as a noisy device would run it.


def zero_density_batch(n_qubits, batch):
    """A stack of |0...0><0...0| density matrices."""
    dim = 2**n_qubits
    rhos = np.zeros((batch, dim, dim), dtype=np.complex128)
    rhos[:, 0, 0] = 1.0
    return rhos


def _dm_ansatz(rhos, spec, angles, noise):
    n = spec.n_qubits
    angles = np.broadcast_to(angles, (rhos.shape[0], spec.param_count))
    for q in range(n):
        rhos = apply_rotation_dm_batch(rhos, "RX", q, angles[:, q], n)
    for q in range(n):
        rhos = apply_rotation_dm_batch(rhos, "RY", q, angles[:, n + q], n)
    for block in range(spec.depth):
        if n > 1:
            for q in range(n):
                rhos = apply_gate_dm_batch(rhos, Gate("CNOT", (q + 1) % n, control=q), n)
        for q in range(n):
            rhos = apply_rotation_dm_batch(rhos, "RY", q, angles[:, (2 + block) * n + q], n)
    for q in range(n):
        rhos = apply_channel_batch(rhos, noise, q, n)
    return rhos


def dm_expectations(xs, layer, obs, noise):
    """(zq, zk, values) of every word, from density matrices."""
    n = layer.n_qubits
    xs = np.atleast_2d(xs)
    rhos = zero_density_batch(n, xs.shape[0])
    for q in range(n):
        rhos = apply_gate_dm_batch(rhos, Gate("H", q), n)
    encoded = _dm_ansatz(rhos, layer.enc_spec, xs, noise)
    measured = []
    for theta, observables in [
        (layer.theta_q, obs.observables[:1]),
        (layer.theta_k, obs.observables[:1]),
        (layer.theta_v, obs.observables),
    ]:
        rhos = _dm_ansatz(encoded, layer.qkv_spec, theta.values, noise)
        measured.append(
            np.stack([expectation_dm_batch(rhos, o, n) for o in observables], axis=1)
        )
    return measured[0][:, 0], measured[1][:, 0], measured[2]


def reference_backward(xs, layer, obs, g, noise):
    """layer_backward's four gradients by parameter shift through the reference."""
    zq, zk, values = dm_expectations(xs, layer, obs, noise)
    alpha = gpqsa_coefficients(zq, zk).coefficients
    beta = g @ values.T
    term = 2.0 * (zq[:, None] - zk[None, :]) * alpha * (beta - (alpha * beta).sum(1)[:, None])
    upstream = (-term.sum(axis=1), term.sum(axis=0), alpha.T @ g)  # d_zq, d_zk, d_values

    def per_word(shift_xs=xs, shift_layer=layer):
        got = dm_expectations(shift_xs, shift_layer, obs, noise)
        return sum((w * e).reshape(len(xs), -1).sum(axis=1) for w, e in zip(upstream, got))

    d_theta = []
    for name in ("theta_q", "theta_k", "theta_v"):
        grad = np.zeros(layer.qkv_spec.param_count)
        for j in range(grad.size):
            sides = []
            for sign in (1.0, -1.0):
                shifted = copy.deepcopy(layer)
                getattr(shifted, name).values[j] += sign * np.pi / 2.0
                sides.append(per_word(shift_layer=shifted).sum())
            grad[j] = (sides[0] - sides[1]) / 2.0
        d_theta.append(grad)
    d_u = g.copy()
    for r in range(xs.shape[1]):
        plus, minus = xs.copy(), xs.copy()
        plus[:, r] += np.pi / 2.0
        minus[:, r] -= np.pi / 2.0
        d_u[:, r] += (per_word(plus) - per_word(minus)) / 2.0
    return (*d_theta, d_u)


NOISE_GRID = [
    (kind, p, n)
    for kind in ("depolarizing", "amplitude_damping")
    for p in (0.0, 0.01, 0.1, 1.0)
    for n in (1, 2, 4)
]


@pytest.mark.parametrize("kind,p,n", NOISE_GRID)
class TestDensityMatrixReference:
    def case(self, kind, p, n):
        rng = np.random.default_rng(int(1000 * p) + 10 * n + len(kind))
        layer = random_layer(rng, n, 1, 1, std=0.8)
        obs = ObservableSet.default(n, layer.input_dim)
        xs = rng.uniform(-2, 2, (3, layer.input_dim))
        return layer, obs, xs, NoiseChannel(kind, p), rng

    def test_forward(self, kind, p, n):
        layer, obs, xs, noise, _ = self.case(kind, p, n)
        trace = layer_forward(xs, layer, noise)
        zq, zk, values = dm_expectations(xs, layer, obs, noise)
        assert np.max(np.abs(trace.zq - zq)) < 1e-12
        assert np.max(np.abs(trace.zk - zk)) < 1e-12
        assert np.max(np.abs(trace.values - values)) < 1e-12
        attention = gpqsa_coefficients(zq, zk).coefficients
        assert np.max(np.abs(trace.coefficients - attention)) < 1e-12
        assert np.max(np.abs(trace.outputs - (xs + attention @ values))) < 1e-12

    def test_backward(self, kind, p, n):
        layer, obs, xs, noise, rng = self.case(kind, p, n)
        g = rng.normal(size=xs.shape)
        trace = layer_forward(xs, layer, noise)
        got = layer_backward(trace, g)
        want = reference_backward(xs, layer, obs, g, noise)
        for name, a, b in zip(("theta_q", "theta_k", "theta_v", "u"), got, want):
            assert np.max(np.abs(a - b)) < 1e-12, name
