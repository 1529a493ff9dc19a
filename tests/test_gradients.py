import functools
import tracemalloc

import numpy as np
import pytest

from conftest import assert_grad_close, build_random_model, finite_difference, random_layer
from qsann import ansatz, attention, gradients, model as model_mod
from qsann.ansatz import build_circuit, run_ansatz_batch
from qsann.attention import (
    ObservableSet,
    layer_forward,
    measured_quantities,
)
from qsann.data import EmbeddingTable
from qsann.errors import ConfigurationError, EmptySequenceError
from qsann.gradients import (
    backward,
    bundle_as_dict,
    layer_backward,
    model_param_dict,
)
from qsann.sim import NoiseChannel, apply_channel_batch, circuit_unitary
from test_ansatz import complex_column_operators, complex_operator_gradients, complex_unitaries
from test_sim import transposed_channel_every_qubit


# ---------------------------------------------------------------------------
# Parameter-shift reference: every query/key/value and encoder angle shifted
# by +/- pi/2, each shifted circuit built whole, the query/key/value ones by
# the Kronecker-product oracle, the encoder gate by gate, and every mixed
# state as explicit outer products under the density-matrix channel kernel.


def _shift_rows(rows):
    """(R, c, 2, c) copies of (R, c) angle rows with entry j shifted by +/- pi/2."""
    count, dim = rows.shape
    stack = np.broadcast_to(rows[:, None, None, :], (count, dim, 2, dim)).copy()
    idx = np.arange(dim)
    stack[:, idx, 0, idx] += np.pi / 2.0
    stack[:, idx, 1, idx] -= np.pi / 2.0
    return stack


@functools.lru_cache(maxsize=None)
def _oracle_unitary(spec, angles):
    return circuit_unitary(build_circuit(spec, np.array(angles)), spec.n_qubits)


def _gate_encoder(spec, rows):
    """Encoder states of (R, c) angle rows: |+...+>, then the ansatz gate by gate."""
    plus = np.full((len(rows), 2**spec.n_qubits), 2.0 ** (-spec.n_qubits / 2), complex)
    return run_ansatz_batch(plus, spec, rows)


def _channel(rhos, noise, n_qubits):
    """The channel on every qubit of a density-matrix stack, one qubit at a time."""
    for q in range(n_qubits if noise is not None else 0):
        rhos = apply_channel_batch(rhos, noise, q, n_qubits)
    return rhos


def _mixed_states(states, weights, noise, n_qubits):
    """E(sum_s w[k, s] |psi_s><psi_s|) for each row k of the weights."""
    rhos = np.array([
        sum(w * np.outer(psi, psi.conj()) for w, psi in zip(row, states)) for row in weights
    ])
    return _channel(rhos, noise, n_qubits)


def upstream_weights(trace, g):
    """(K, S) weight w_k[s] of word s in measured quantity k: d_zq, d_zk, then d_values."""
    zq, zk, alpha, values = trace.zq, trace.zk, trace.coefficients, trace.values
    beta = g @ values.T
    attn_term = 2.0 * (zq[:, None] - zk[None, :]) * alpha * (beta - (alpha * beta).sum(1)[:, None])
    return np.vstack([-attn_term.sum(axis=1), attn_term.sum(axis=0), (alpha.T @ g).T])


def shift_layer_backward(layer, obs, trace, g, noise=None):
    """layer_backward's four gradients by the parameter-shift rule."""
    u, weights = trace.inputs, upstream_weights(trace, g)
    thetas = np.stack([layer.theta_q.values, layer.theta_k.values, layer.theta_v.values])
    shift_rows = _shift_rows(thetas).reshape(3, -1, thetas.shape[1])  # +, - per angle
    rhos = _mixed_states(_gate_encoder(layer.enc_spec, u), weights, noise, layer.n_qubits)
    circuits, observables = measured_quantities(obs.size)
    d_theta = np.zeros_like(thetas)
    for circuit, rows in enumerate(shift_rows):
        shifted = np.stack([_oracle_unitary(layer.qkv_spec, tuple(row)) for row in rows])
        for k in np.flatnonzero(np.equal(circuits, circuit)):
            moved = shifted @ rhos[k] @ shifted.conj().swapaxes(-1, -2)
            moved = _channel(moved, noise, layer.n_qubits)  # Tr[O E(U rho U^dag)]
            traces = np.einsum("ab,pba->p", obs.matrices[observables[k]], moved).real
            d_theta[circuit] += (traces[0::2] - traces[1::2]) / 2.0

    # every shifted encoder state through the noise, each circuit and the noise again:
    # Tr[O_k E(U E(|psi><psi|) U^dag)], weighted by w_k[s]
    (n_words, width), n = u.shape, layer.n_qubits
    enc_shifted = _gate_encoder(layer.enc_spec, _shift_rows(u).reshape(-1, width))
    enc_rhos = _channel(np.einsum("pa,pb->pab", enc_shifted, enc_shifted.conj()), noise, n)
    per_quantity = np.empty((len(circuits), len(enc_rhos)))
    for circuit, theta in enumerate(thetas):
        unitary = _oracle_unitary(layer.qkv_spec, tuple(theta))
        moved = _channel(unitary @ enc_rhos @ unitary.conj().T, noise, n)
        for k in np.flatnonzero(np.equal(circuits, circuit)):
            per_quantity[k] = np.einsum("ab,pba->p", obs.matrices[observables[k]], moved).real
    per_quantity = per_quantity.reshape(len(circuits), n_words, width, 2)
    shifted_values = np.einsum("ks,kswp->swp", weights, per_quantity)
    d_u = g + (shifted_values[:, :, 0] - shifted_values[:, :, 1]) / 2.0
    return d_theta[0], d_theta[1], d_theta[2], d_u


def fd_bundle(model, sample, noise=None, h=1e-5):
    params = model_param_dict(model)
    return finite_difference(lambda: model_mod.loss([sample], model, noise), params, h)


NOISES = [None] + [
    NoiseChannel(kind, p)
    for kind in ("depolarizing", "amplitude_damping")
    for p in (0.01, 0.1, 1.0)
]
# encoder depth 4 needs more observables than one or two qubits offer
GEOMETRIES = [
    (n, enc_depth, qkv_depth)
    for n in (1, 2, 4)
    for enc_depth in ((0, 1) if n < 4 else (0, 1, 4))
    for qkv_depth in (0, 1, 4)
]


@pytest.mark.parametrize("noise", NOISES, ids=lambda c: f"{c.kind}-{c.p}" if c else "pure")
@pytest.mark.parametrize("n,enc_depth,qkv_depth", GEOMETRIES)
def test_adjoint_layer_backward_matches_parameter_shift(n, enc_depth, qkv_depth, noise):
    rng = np.random.default_rng(100 * n + 10 * enc_depth + qkv_depth)
    layer = random_layer(rng, n, enc_depth, qkv_depth, std=0.8)
    obs = ObservableSet.default(n, layer.input_dim)
    for n_words in (1, 3, 12):
        u = rng.uniform(-2, 2, (n_words, layer.input_dim))
        g = rng.normal(size=u.shape)
        trace = layer_forward(u, layer, noise)
        got = layer_backward(trace, g)
        want = shift_layer_backward(layer, obs, trace, g, noise)
        for name, a, b in zip(("theta_q", "theta_k", "theta_v", "u"), got, want):
            assert np.max(np.abs(a - b)) < 1e-12, (name, n_words)


# ---------------------------------------------------------------------------
# The complex encoder path that real rows replaced: encoder states with their
# global phase, measured with two einsums and swept against the complex M.


def complex_encode(inputs, spec):
    rows, n = inputs.shape[0], spec.n_qubits
    half = 0.5 * inputs.reshape(rows, spec.depth + 2, n)
    cos, sin = np.cos(half[:, 1]), np.sin(half[:, 1])
    qubits = np.stack([cos - sin, sin + cos], axis=-1) * (
        np.exp(-1j * half[:, 0]) / np.sqrt(2.0)
    )[..., None]
    amps = qubits[:, 0]
    for q in range(1, n):
        amps = (amps[:, :, None] * qubits[:, q, None, :]).reshape(rows, -1)
    for column in range(2, spec.depth + 2):
        if n > 1:
            amps = amps @ ansatz._cnot_ring(n).T
        amps = ansatz._ry_column(amps, half[:, column])
    return amps


def complex_expect(states, ops):
    moved = np.einsum("...kab,...rb->...rka", ops, states)
    return np.einsum("...ra,...rka->...rk", states.conj(), moved).real


def complex_row_gradients(spec, angles, states, duals):
    n, rows = spec.n_qubits, states.shape[0]
    pair = np.concatenate([states, duals])
    undo = -0.5 * np.tile(angles, (2, 1)).reshape(2 * rows, spec.depth + 2, n)
    grads = np.empty((rows, spec.depth + 2, n))
    for column, (kind, ring) in reversed(list(enumerate(ansatz._columns(spec)))):
        flips, phases = ansatz._generators(kind, n)
        grads[:, column] = (pair[rows:, None].conj() * phases * pair[:rows, flips]).sum(-1).imag
        if column:
            pair = ansatz._ry_column(pair, undo[:, column])
            if ring:
                pair = pair @ ansatz._cnot_ring(n)
    return grads.reshape(rows, -1)


@pytest.mark.parametrize(
    "noise",
    [None, NoiseChannel("depolarizing", 0.1), NoiseChannel("amplitude_damping", 0.2)],
    ids=["pure", "depolarizing", "amplitude_damping"],
)
@pytest.mark.parametrize("n,enc_depth", [(1, 0), (1, 1), (2, 1), (3, 2), (4, 1), (4, 4)])
def test_real_rows_match_the_complex_path(n, enc_depth, noise):
    rng = np.random.default_rng(10 * n + enc_depth)
    layer = random_layer(rng, n, enc_depth, 1, std=0.8)
    u = rng.uniform(-4, 4, (12, layer.input_dim))
    g = rng.normal(size=u.shape)
    trace = layer_forward(u, layer, noise)
    effective = trace.engine.apply(trace.engine.heisenberg)  # the complex M of each quantity
    states = complex_encode(u, layer.enc_spec)
    want = np.clip(complex_expect(states, effective), -1.0, 1.0)
    got = np.column_stack([trace.zq, trace.zk, trace.values])
    assert np.max(np.abs(got - want)) < 1e-14
    duals = np.einsum("ks,kas->sa", upstream_weights(trace, g), effective @ states.T)
    d_u = layer_backward(trace, g)[3]
    assert np.max(np.abs(d_u - g - complex_row_gradients(layer.enc_spec, u, states, duals))) < 1e-12
    # the RX column sets only a global phase: exactly no gradient, so only the residual's
    assert np.array_equal(d_u[:, :n], g[:, :n])


class TestErrorFactor:
    def test_matched_label_zeroes_circuit_gradients(self, rng):
        # label chosen equal to the model's own output: the (prediction -
        # label) factor vanishes, leaving only the embedding regularizer
        model = build_random_model(rng, lam=0.0, gamma=0.3)
        ids = [1, 2]
        y_hat = model_mod.forward(ids, model).y_hat
        bundle = backward((ids, y_hat), model)
        assert np.allclose(bundle.d_w, 0.0, atol=1e-15)
        assert np.allclose(bundle.d_b, 0.0, atol=1e-15)
        for dq, dk, dv in bundle.d_theta:
            assert np.allclose(dq, 0.0, atol=1e-15)
            assert np.allclose(dk, 0.0, atol=1e-15)
            assert np.allclose(dv, 0.0, atol=1e-15)
        gamma_term = 0.3 / model.config.embed_dim * model.embeddings.rows[ids]
        expected = np.zeros_like(bundle.d_embeddings)
        for pos, token in enumerate(ids):
            expected[token] += gamma_term[pos]
        assert np.allclose(bundle.d_embeddings, expected, atol=1e-15)

    def test_half_output_half_label(self, rng):
        model = build_random_model(rng)
        model.head_w[...] = 0.0
        model.head_b[...] = 0.0
        bundle = backward(([1, 2, 3], 0.5), model)
        for key, arr in bundle_as_dict(bundle).items():
            assert np.allclose(arr, 0.0, atol=1e-15), key


class TestFiniteDifferenceAgreement:
    def test_small_instance(self, rng):
        model = build_random_model(rng, lam=0.1, gamma=0.2)
        sample = ([1, 2, 4], 1)
        analytic = bundle_as_dict(backward(sample, model))
        numeric = fd_bundle(model, sample)
        assert_grad_close(analytic, numeric)

    def test_repeated_tokens_accumulate(self, rng):
        model = build_random_model(rng, gamma=0.25)
        sample = ([2, 2, 2], 0)
        analytic = bundle_as_dict(backward(sample, model))
        numeric = fd_bundle(model, sample)
        assert_grad_close(analytic, numeric)

    def test_two_layers(self, rng):
        model = build_random_model(rng, n_layers=2, lam=0.05, gamma=0.1)
        sample = ([1, 3], 1)
        analytic = bundle_as_dict(backward(sample, model))
        numeric = fd_bundle(model, sample)
        assert_grad_close(analytic, numeric)

    @pytest.mark.parametrize("kind,p", [("depolarizing", 0.1), ("amplitude_damping", 0.2)])
    def test_noisy_engine(self, rng, kind, p):
        model = build_random_model(rng, lam=0.1, gamma=0.1)
        noise = NoiseChannel(kind, p)
        sample = ([1, 2], 1)
        analytic = bundle_as_dict(backward(sample, model, noise))
        numeric = fd_bundle(model, sample, noise)
        assert_grad_close(analytic, numeric)


class TestSinglePosition:
    def test_attention_gradients_vanish(self, rng):
        # one word: the normalized coefficient is constantly 1, so nothing
        # flows into the query/key circuits
        model = build_random_model(rng)
        bundle = backward(([3], 1), model)
        dq, dk, dv = bundle.d_theta[0]
        assert np.allclose(dq, 0.0, atol=1e-14)
        assert np.allclose(dk, 0.0, atol=1e-14)
        assert not np.allclose(dv, 0.0)


class TestLayerInputGradient:
    def test_four_term_decomposition_matches_fd(self, rng):
        # phi(u) = sum(g * layer_forward(u)) probed by finite differences
        layer = random_layer(rng, 2, 1, 1, std=0.5)
        u = rng.uniform(-1, 1, (3, 6))
        g = rng.normal(0, 1, (3, 6))

        trace = layer_forward(u, layer)
        _, _, _, d_u = layer_backward(trace, g)

        h = 1e-5
        for s in range(3):
            for r in range(6):
                u_plus, u_minus = u.copy(), u.copy()
                u_plus[s, r] += h
                u_minus[s, r] -= h
                phi_plus = float(np.sum(g * layer_forward(u_plus, layer).outputs))
                phi_minus = float(np.sum(g * layer_forward(u_minus, layer).outputs))
                fd = (phi_plus - phi_minus) / (2 * h)
                assert d_u[s, r] == pytest.approx(fd, abs=1e-5)


class TestLongSentences:
    @pytest.mark.parametrize("noise", [None, NoiseChannel("depolarizing", 0.1)])
    def test_blocked_sweeps_match_one_block(self, rng, monkeypatch, noise):
        # ENCODE_BLOCK words at a time: the layer-input gradient is the same to the
        # bit, the circuit gradients up to the order in which the blocks are summed
        layer = random_layer(rng, 4, 1, 1, std=0.8)
        u = rng.uniform(-2, 2, (200, layer.input_dim))
        g = rng.normal(size=u.shape)
        trace = layer_forward(u, layer, noise)
        blocked = layer_backward(trace, g)
        monkeypatch.setattr(attention, "ENCODE_BLOCK", len(u))
        whole = layer_backward(trace, g)
        assert np.array_equal(blocked[3], whole[3])
        for a, b in zip(blocked[:3], whole[:3]):
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("noise", [None, NoiseChannel("depolarizing", 0.1)])
    def test_forward_measures_long_sentences_in_blocks(self, rng, monkeypatch, noise):
        # Engine.measure encodes and measures ENCODE_BLOCK words at a time, with the bits
        # of one whole-sentence block; the backward's block sums differ only in rounding
        model = build_random_model(rng, n_qubits=3, n_layers=2, vocab_size=40, scale=0.8)
        ids = list(rng.integers(0, 40, 150))
        measured = []
        original = attention.Engine.expect

        def expect(self, states):
            measured.append(len(states))
            return original(self, states)

        monkeypatch.setattr(attention.Engine, "expect", expect)

        def run():
            trace = layer_forward(model.embeddings.rows[ids], model.layers[0], noise)
            grads = bundle_as_dict(backward((ids, 1), model, noise))
            return trace, grads, model_mod.forward(ids, model, noise)

        blocked = run()
        assert max(measured) == attention.ENCODE_BLOCK < len(ids)
        monkeypatch.setattr(attention, "ENCODE_BLOCK", 10**6)
        whole = run()
        for name in ("encoded", "zq", "zk", "values", "coefficients", "outputs"):
            assert np.array_equal(getattr(blocked[0], name), getattr(whole[0], name)), name
        for key, grad in blocked[1].items():
            if key.startswith("layer"):
                assert np.max(np.abs(grad - whole[1][key])) < 1e-12, key
            else:
                assert np.array_equal(grad, whole[1][key]), key
        assert repr(blocked[2].y_hat) == repr(whole[2].y_hat)
        for a, b in zip(blocked[2].attention, whole[2].attention, strict=True):
            assert np.array_equal(a.coefficients, b.coefficients)


class TestEngines:
    @pytest.mark.parametrize("noise", [None, NoiseChannel("depolarizing", 0.1)])
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_backward_builds_one_engine_per_layer(self, rng, monkeypatch, n_layers, noise):
        # the backward reads each layer's engine from its trace and builds none of its own
        built = []
        original_init = attention.Engine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(attention.Engine, "__init__", counting_init)
        backward(([1, 2, 3], 1), build_random_model(rng, n_layers=n_layers), noise)
        assert len(built) == n_layers


@pytest.mark.parametrize(
    "noise",
    [None, NoiseChannel("depolarizing", 0.1), NoiseChannel("amplitude_damping", 0.2)],
    ids=["pure", "depolarizing", "damping"],
)
@pytest.mark.parametrize(
    "geometry,n_layers",
    [((4, 1, 1), 1), ((4, 4, 5), 1), ((2, 1, 1), 2), ((3, 0, 2), 1), ((1, 0, 0), 1)],
)
def test_real_columns_and_gathered_channel_keep_every_bit(monkeypatch, geometry, n_layers, noise):
    # Engine.measured and U^dag E^dag(O) U, backward gradients and forward_many outputs against
    # the path they replaced: complex columns, products and sweep, the transposed channel
    rng = np.random.default_rng(sum(geometry) + n_layers)
    model = build_random_model(rng, *geometry, n_layers=n_layers, vocab_size=40)
    samples = [(list(rng.integers(0, 40, length)), 1) for length in (1, 3, 12, 70)]

    def run():
        engines = [attention.Engine(layer, noise) for layer in model.layers]
        out = [array.tobytes() for e in engines for array in (e.measured, e.heisenberg)]
        for sample in samples:
            out += [g.tobytes() for g in bundle_as_dict(backward(sample, model, noise)).values()]
        passes = model_mod.forward_many([ids for ids, _ in samples], model, noise)
        return out + [array.tobytes() for pair in passes for array in pair]

    with monkeypatch.context() as patch:
        patch.setattr(attention, "apply_channel_every_qubit", transposed_channel_every_qubit)
        patch.setattr(
            attention, "column_operators", lambda spec, a: (complex_column_operators(spec, a), None)
        )
        patch.setattr(attention, "ansatz_unitaries", lambda columns, _: complex_unitaries(columns))
        patch.setattr(gradients, "real_product", np.matmul)
        patch.setattr(
            gradients,
            "adjoint_operator_gradients",
            lambda spec, columns, _, joints: complex_operator_gradients(spec, columns, joints),
        )
        want = run()
    assert run() == want


class TestOperatorMemory:
    @pytest.mark.parametrize(
        "geometry,noise",
        [
            ((6, 1, 0, 1), None),
            ((6, 1, 0, 1), NoiseChannel("amplitude_damping", 0.2)),
            ((6, 0, 2, 2), NoiseChannel("depolarizing", 0.1)),
        ],
    )
    def test_geometry_check_counts_no_less_than_a_backward_holds(
        self, rng, monkeypatch, geometry, noise
    ):
        cfg = model_mod.ModelConfig(*geometry)
        d = cfg.embed_dim
        layers = [random_layer(rng, *geometry[:3]) for _ in range(cfg.n_layers)]
        model = model_mod.QsannModel(
            cfg, layers, rng.normal(0.0, 0.5, d), np.zeros(1),
            EmbeddingTable(rng.normal(0.0, 0.5, (8, d))),
        )
        sample = (list(rng.integers(0, 8, 6)), 1)
        tracemalloc.start()
        try:
            model.observables.matrices  # built inside the measured span
            model.observables.under(noise)  # E^dag(O) held with them, as the model holds it
            backward(sample, model, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(model_mod, "ENGINE_MEMORY_BUDGET", peak - 1)
        with pytest.raises(ConfigurationError, match="over the"):
            model_mod.ModelConfig(*geometry)


class TestBundleUtilities:
    def test_dict_round_trip_keys(self, rng):
        model = build_random_model(rng, n_layers=2)
        bundle = backward(([1], 1), model)
        keys = set(bundle_as_dict(bundle))
        assert keys == set(model_param_dict(model))

    def test_shapes_match_parameters(self, rng):
        model = build_random_model(rng, n_layers=2, vocab_size=7)
        grads = bundle_as_dict(backward(([1, 2], 0), model))
        for key, param in model_param_dict(model).items():
            assert grads[key].shape == param.shape

    def test_empty_sequence_rejected(self, rng):
        with pytest.raises(EmptySequenceError):
            backward(([], 1), build_random_model(rng))

    @pytest.mark.parametrize("ids", [[-1, 2], [2, 5]])
    def test_out_of_vocabulary_ids_rejected(self, rng, ids):
        # as in model.forward: no wrap-around into the last embedding rows
        with pytest.raises(IndexError):
            backward((ids, 1), build_random_model(rng, vocab_size=5))
