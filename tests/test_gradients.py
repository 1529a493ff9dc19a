import numpy as np
import pytest

from conftest import assert_grad_close, build_random_model, finite_difference
from qsann import model as model_mod
from qsann.attention import ObservableSet, QsalLayerParams, layer_forward
from qsann.errors import EmptySequenceError
from qsann.gradients import (
    backward,
    bundle_as_dict,
    layer_backward,
    model_param_dict,
)
from qsann.sim import NoiseChannel


def fd_bundle(model, sample, noise=None, h=1e-5):
    params = model_param_dict(model)
    return finite_difference(lambda: model_mod.loss([sample], model, noise), params, h)


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
        layer = QsalLayerParams.create(2, 1, 1, rng=rng, std=0.5)
        obs = ObservableSet.default(2, 6)
        u = rng.uniform(-1, 1, (3, 6))
        g = rng.normal(0, 1, (3, 6))

        trace = layer_forward(u, layer, obs)
        _, _, _, d_u = layer_backward(layer, obs, trace, g)

        h = 1e-5
        for s in range(3):
            for r in range(6):
                u_plus, u_minus = u.copy(), u.copy()
                u_plus[s, r] += h
                u_minus[s, r] -= h
                phi_plus = float(np.sum(g * layer_forward(u_plus, layer, obs).outputs))
                phi_minus = float(np.sum(g * layer_forward(u_minus, layer, obs).outputs))
                fd = (phi_plus - phi_minus) / (2 * h)
                assert d_u[s, r] == pytest.approx(fd, abs=1e-5)


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
