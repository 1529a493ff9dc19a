import numpy as np
import pytest

from conftest import assert_grad_close, finite_difference
from qsann import data, training
from qsann.baselines import (
    _csann_intermediates,
    csann_backward,
    csann_forward,
    csann_param_dict,
    csann_parameter_count,
    init_csann,
    init_naive,
    naive_backward,
    naive_forward,
    naive_param_dict,
    naive_parameter_count,
)
from qsann.errors import EmptySequenceError
from qsann.model import sigmoid


def random_csann(rng, vocab=6, dim=4, lam=0.1, gamma=0.2):
    params = init_csann(vocab, dim, rng, lam, gamma)
    for arr in csann_param_dict(params).values():
        arr[...] = rng.normal(0, 0.5, arr.shape)
    return params


def random_naive(rng, vocab=6, dim=4, lam=0.1, gamma=0.2):
    params = init_naive(vocab, dim, rng, lam, gamma)
    for arr in naive_param_dict(params).values():
        arr[...] = rng.normal(0, 0.5, arr.shape)
    return params


def softmax_rows(ids, params):
    """CSANN's (S, S) attention rows of a sentence, which no prediction carries."""
    return _csann_intermediates(ids, params)[4]


class TestCsannForward:
    def test_zero_projections_give_uniform_attention(self, rng):
        params = random_csann(rng)
        params.w_query[...] = 0.0
        params.w_key[...] = 0.0
        assert np.allclose(softmax_rows([1, 2, 3], params), 1.0 / 3.0, atol=1e-12)

    def test_single_token_attention(self, rng):
        assert softmax_rows([2], random_csann(rng)).tolist() == [[1.0]]

    def test_rows_stochastic(self, rng):
        sums = softmax_rows([1, 2, 3, 4], random_csann(rng)).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_prediction_is_the_pooled_attention_output(self, rng):
        params = random_csann(rng)
        ys = _csann_intermediates([1, 2, 3, 1], params)[-1]
        pred = csann_forward([1, 2, 3, 1], params)
        logit = float(params.head_w @ ys.mean(axis=0) + params.head_b[0])
        assert pred.y_hat == sigmoid(logit)
        assert pred.attention == ()

    def test_empty_sequence(self, rng):
        with pytest.raises(EmptySequenceError):
            csann_forward([], random_csann(rng))


class TestNaiveForward:
    def test_zero_head_gives_half(self, rng):
        params = random_naive(rng)
        params.head_w[...] = 0.0
        params.head_b[...] = 0.0
        assert naive_forward([1, 2], params).y_hat == 0.5

    def test_single_token_mean_is_embedding(self, rng):
        params = random_naive(rng)
        from qsann.model import sigmoid

        expected = sigmoid(
            float(params.head_w @ params.embeddings.rows[3] + params.head_b[0])
        )
        assert naive_forward([3], params).y_hat == pytest.approx(expected, abs=1e-15)


class TestParameterCounts:
    def test_reference_dimension_sixteen(self):
        assert csann_parameter_count(16) == (768, 17, 785)
        assert naive_parameter_count(16) == (0, 17, 17)


class TestGradients:
    def test_csann_matches_finite_differences(self, rng):
        params = random_csann(rng)
        sample = ([1, 2, 2, 4], 1)
        analytic = csann_backward(sample, params)
        numeric = finite_difference(
            lambda: training.evaluate([sample], params)[1], csann_param_dict(params)
        )
        assert_grad_close(analytic, numeric, atol=1e-6, rtol=1e-6)

    def test_naive_matches_finite_differences(self, rng):
        params = random_naive(rng)
        sample = ([1, 3, 3], 0)
        analytic = naive_backward(sample, params)
        numeric = finite_difference(
            lambda: training.evaluate([sample], params)[1], naive_param_dict(params)
        )
        assert_grad_close(analytic, numeric, atol=1e-6, rtol=1e-6)


class TestSharedHarness:
    def test_baselines_train_through_same_loop(self):
        corpus = data.make_separable_corpus(seed=2, n_samples=30)
        ds = data.build_splits(corpus, (0.8, 0.2), seed=0)
        tc = training.TrainConfig(learning_rate=0.05, epochs=10, seed=0)
        for factory in (
            lambda: init_csann(ds.vocabulary.size, 8, np.random.default_rng(0)),
            lambda: init_naive(ds.vocabulary.size, 8, np.random.default_rng(0)),
        ):
            result = training.train(ds, factory(), tc)
            assert result.metrics[-1]["train_loss"] < result.metrics[0]["train_loss"]
            assert result.metrics[-1]["train_acc"] >= 0.9

    def test_evaluate_works_on_baselines(self, rng):
        params = random_naive(rng)
        acc, loss_value = training.evaluate([([1], 1), ([2], 0)], params)
        assert 0.0 <= acc <= 1.0 and np.isfinite(loss_value)


@pytest.mark.parametrize("init", [init_csann, init_naive], ids=["csann", "naive"])
def test_float64_penalties_accepted_and_checkpointed(rng, tmp_path, init):
    # numpy float64 is a float, so json writes it; float32 and numpy ints are refused when
    # the model is built (tests/test_model.py::TestModelValidation)
    from qsann.checkpoint import load_checkpoint, save_checkpoint

    params = init(3, 4, rng, lam=np.float64(0.1), gamma=np.float64(0.2))
    save_checkpoint(tmp_path / "c.json", params, data.Vocabulary([data.OOV_TOKEN, "a", "b"]), {})
    loaded = load_checkpoint(tmp_path / "c.json")[0]
    assert (type(loaded), loaded.lam, loaded.gamma) == (type(params), 0.1, 0.2)
