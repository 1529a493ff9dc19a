import numpy as np
import pytest

from qsann.ansatz import AnsatzSpec, ParamVector, build_circuit
from qsann.attention import (
    AttentionMatrix,
    NoisyEngine,
    ObservableSet,
    PureEngine,
    QsalLayerParams,
    gpqsa_coefficients,
    layer_forward,
    make_engine,
)
from qsann.errors import ConfigurationError, EmptySequenceError
from qsann.sim import (
    Gate,
    NoiseChannel,
    PauliString,
    circuit_unitary,
    init_zero_state,
    pauli_matrix,
)


def zero_layer(n=2, enc_depth=1, qkv_depth=1):
    return QsalLayerParams.create(n, enc_depth, qkv_depth)


def random_layer(rng, n=2, enc_depth=1, qkv_depth=1):
    return QsalLayerParams.create(n, enc_depth, qkv_depth, rng=rng, std=0.5)


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

    def test_wrong_head_rejected(self):
        with pytest.raises(ConfigurationError):
            ObservableSet((PauliString.from_str("XI"), PauliString.from_str("IZ")))


def traced(inputs, layer, **kwargs):
    obs = ObservableSet.default(layer.n_qubits, layer.input_dim)
    return layer_forward(inputs, layer, obs, **kwargs)


class TestQueryKey:
    def test_zero_parameters_give_zero_projection(self):
        # theta = 0, x = 0: the state stays an equal superposition, <Z_1> = 0
        trace = traced(np.zeros((3, 6)), zero_layer())
        assert np.allclose(trace.zq, 0.0, atol=1e-12)
        assert np.allclose(trace.zk, 0.0, atol=1e-12)

    def test_matches_full_matrix_oracle(self, rng):
        layer = random_layer(rng)
        x = rng.uniform(-1, 1, 6)
        zq = traced(x, layer).zq
        gates = [Gate("H", 0), Gate("H", 1)] + build_circuit(layer.enc_spec, x)
        psi = circuit_unitary(gates, 2) @ init_zero_state(2).amplitudes
        uq = circuit_unitary(build_circuit(layer.qkv_spec, layer.theta_q.values), 2)
        z1 = pauli_matrix(PauliString.from_str("ZI"))
        oracle = np.real(psi.conj() @ uq.conj().T @ z1 @ uq @ psi)
        assert zq[0] == pytest.approx(oracle, abs=1e-10)

    def test_bounded(self, rng):
        layer = random_layer(rng)
        trace = traced(rng.uniform(-6, 6, (100, 6)), layer)
        assert np.all(np.abs(trace.zq) <= 1.0) and np.all(np.abs(trace.zk) <= 1.0)

    def test_identical_inputs_identical_outputs(self, rng):
        layer = random_layer(rng)
        trace = traced(np.tile(rng.uniform(-1, 1, 6), (4, 1)), layer)
        assert np.all(trace.zq == trace.zq[0]) and np.all(trace.zk == trace.zk[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            traced(np.zeros((2, 5)), zero_layer())


class TestValues:
    def test_output_dimension_n4(self, rng):
        layer = random_layer(rng, n=4)
        values = traced(rng.uniform(-1, 1, 12), layer).values
        assert values.shape == (1, 12)

    def test_entries_bounded(self, rng):
        layer = random_layer(rng)
        values = traced(rng.uniform(-6, 6, (50, 6)), layer).values
        assert np.all(np.abs(values) <= 1.0)

    def test_zero_angles_z_entries_vanish(self):
        values = traced(np.zeros(6), zero_layer()).values
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


class TestAttentionMatrixType:
    def test_rejects_bad_rows(self):
        with pytest.raises(ConfigurationError):
            AttentionMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]))
        with pytest.raises(ConfigurationError):
            AttentionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))  # zero entry


class TestLayerForward:
    def test_single_word_residual(self, rng):
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        x = rng.uniform(-1, 1, 6)
        trace = layer_forward(x, layer, obs)
        assert trace.attention.coefficients.tolist() == [[1.0]]
        assert np.allclose(trace.outputs[0], x + trace.values[0], atol=1e-12)

    def test_shapes(self, rng):
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        trace = layer_forward(rng.uniform(-1, 1, (5, 6)), layer, obs)
        assert trace.outputs.shape == (5, 6)
        assert trace.attention.coefficients.shape == (5, 5)

    def test_output_bound(self, rng):
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-3, 3, (6, 6))
        outputs = layer_forward(xs, layer, obs).outputs
        assert np.all(np.abs(outputs) <= np.abs(xs) + 1.0 + 1e-12)

    def test_permutation_equivariance(self, rng):
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (4, 6))
        perm = rng.permutation(4)
        a = layer_forward(xs, layer, obs)
        b = layer_forward(xs[perm], layer, obs)
        assert np.allclose(b.outputs, a.outputs[perm], atol=1e-12)
        assert np.allclose(
            b.attention.coefficients,
            a.attention.coefficients[np.ix_(perm, perm)],
            atol=1e-12,
        )

    def test_deterministic(self, rng):
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (3, 6))
        out_a = layer_forward(xs, layer, obs).outputs
        out_b = layer_forward(xs, layer, obs).outputs
        assert np.array_equal(out_a, out_b)

    def test_residual_identity_with_zero_values(self, rng, monkeypatch):
        # forcing the measured value vectors to zero must give y = x exactly
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (3, 6))
        monkeypatch.setattr(
            PureEngine,
            "expect_set",
            lambda self, states, obs_set: np.zeros((states.shape[0], obs_set.size)),
        )
        assert np.array_equal(layer_forward(xs, layer, obs).outputs, xs)

    def test_observable_count_must_match(self, rng):
        layer = random_layer(rng)
        with pytest.raises(ConfigurationError):
            layer_forward(np.zeros((2, 6)), layer, ObservableSet.default(2, 5))

    def test_empty_sequence(self):
        with pytest.raises(EmptySequenceError):
            layer_forward(np.zeros((0, 6)), zero_layer(), ObservableSet.default(2, 6))


class TestNoisyLayer:
    def test_p_zero_short_circuits_to_pure(self, rng):
        assert isinstance(make_engine(2, NoiseChannel("depolarizing", 0.0)), PureEngine)
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (3, 6))
        clean = layer_forward(xs, layer, obs).outputs
        zeroed = layer_forward(xs, layer, obs, noise=NoiseChannel("depolarizing", 0.0))
        assert np.array_equal(clean, zeroed.outputs)

    def test_noisy_engine_selected(self):
        assert isinstance(
            make_engine(2, NoiseChannel("amplitude_damping", 0.2)), NoisyEngine
        )

    def test_noisy_rows_still_stochastic(self, rng):
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (4, 6))
        for kind in ("depolarizing", "amplitude_damping"):
            trace = layer_forward(xs, layer, obs, noise=NoiseChannel(kind, 0.75))
            assert np.max(np.abs(trace.attention.coefficients.sum(axis=1) - 1.0)) < 1e-10
            assert np.all(np.isfinite(trace.outputs))

    def test_pure_and_noisy_agree_without_noise(self, rng):
        # density-matrix engine with a p=0 channel object forced in
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (3, 6))
        engine = NoisyEngine(2, NoiseChannel("depolarizing", 0.0))
        encoded = engine.prepare(xs, layer.enc_spec)
        values = engine.expect_set(
            engine.apply(encoded, layer.qkv_spec, layer.theta_v.values), obs
        )
        assert np.allclose(values, layer_forward(xs, layer, obs).values, atol=1e-10)

    def test_depolarizing_shrinks_projections(self, rng):
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (3, 6))
        zq_clean = traced(xs, layer).zq
        zq_noisy = traced(xs, layer, noise=NoiseChannel("depolarizing", 0.75)).zq
        assert np.max(np.abs(zq_noisy)) <= np.max(np.abs(zq_clean)) + 1e-12


class TestShotSampling:
    def test_sampled_layer_runs_and_differs(self, rng):
        layer = random_layer(rng)
        obs = ObservableSet.default(2, 6)
        xs = rng.uniform(-1, 1, (3, 6))
        exact = layer_forward(xs, layer, obs).outputs
        sampled = layer_forward(xs, layer, obs, shots=64, rng=np.random.default_rng(0))
        assert np.max(np.abs(sampled.attention.coefficients.sum(axis=1) - 1.0)) < 1e-10
        assert not np.array_equal(exact, sampled.outputs)

    def test_sampled_expectation(self, rng):
        # many shots converge on the exact expectations; a seed fixes the draw
        layer = random_layer(rng)
        xs = rng.uniform(-1, 1, (2, 6))
        exact = traced(xs, layer)
        est = traced(xs, layer, shots=200_000, rng=rng)
        for name in ("zq", "zk", "values"):
            assert np.allclose(getattr(est, name), getattr(exact, name), atol=0.01)
        same = traced(xs, layer, shots=100, rng=np.random.default_rng(3))
        again = traced(xs, layer, shots=100, rng=np.random.default_rng(3))
        assert np.array_equal(same.outputs, again.outputs)

    def test_shots_need_rng(self, rng):
        with pytest.raises(ConfigurationError):
            traced(np.zeros((1, 6)), random_layer(rng), shots=16)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shots_below_one_rejected(self, rng, shots):
        with pytest.raises(ConfigurationError):
            traced(np.zeros((1, 6)), random_layer(rng), shots=shots, rng=rng)
