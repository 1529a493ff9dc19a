import dataclasses
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import build_random_model
from qsann import ansatz, data, gradients, model as model_mod, sim, training
from qsann.errors import ConfigurationError, EmptySequenceError, TrainingAborted
from qsann.sim import NoiseChannel
from qsann.training import MODEL_KINDS, AdamState, TrainConfig, adam_step, evaluate, train


def toy_dataset(seed=0, n_samples=40, ratios=(0.7, 0.3)):
    corpus = data.make_separable_corpus(seed=seed, n_samples=n_samples)
    return data.build_splits(corpus, ratios, seed=seed)


def per_key_state():
    return SimpleNamespace(beta1=0.9, beta2=0.999, eps=1e-8, step=0, m={}, v={})


def per_key_adam_step(params, grads, state, learning_rate):
    """The reference: Adam key by key, m and v dicts in a ``per_key_state``."""
    for key, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise TrainingAborted(f"non-finite gradient in {key!r}")
    state.step += 1
    correction1 = 1.0 - state.beta1**state.step
    correction2 = 1.0 - state.beta2**state.step
    for key, param in params.items():
        grad = grads[key]
        if key not in state.m:
            state.m[key] = np.zeros_like(param)
            state.v[key] = np.zeros_like(param)
        state.m[key] = state.beta1 * state.m[key] + (1.0 - state.beta1) * grad
        state.v[key] = state.beta2 * state.v[key] + (1.0 - state.beta2) * grad * grad
        m_hat = state.m[key] / correction1
        v_hat = state.v[key] / correction2
        param -= learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.01, epochs=0)

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0, epochs=1)

    def test_bad_batch(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=0)


class TestAdam:
    def test_zero_gradient_no_move(self):
        params = {"x": np.array([1.0, -2.0])}
        state = AdamState()
        adam_step(params, {"x": np.zeros(2)}, state, 0.1)
        assert np.array_equal(params["x"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude(self):
        for g in (0.3, -5.0, 1e-4):
            params = {"x": np.array([0.0])}
            adam_step(params, {"x": np.array([g])}, AdamState(), 0.01)
            # first bias-corrected step is -lr * g / (|g| + eps), i.e. about
            # -lr * sign(g) up to the eps/|g| correction
            assert params["x"][0] == pytest.approx(
                -0.01 * g / (abs(g) + 1e-8), abs=1e-15
            )
            assert abs(params["x"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_deterministic(self):
        def run():
            params = {"x": np.array([0.5, 0.5])}
            state = AdamState()
            for _ in range(5):
                adam_step(params, {"x": np.array([0.1, -0.2])}, state, 0.05)
            return params["x"].copy()

        assert np.array_equal(run(), run())

    def test_non_finite_gradient_aborts(self):
        params = {"x": np.array([1.0])}
        with pytest.raises(TrainingAborted, match="x"):
            adam_step(params, {"x": np.array([np.nan])}, AdamState(), 0.1)
        assert params["x"][0] == 1.0  # untouched

    def test_hand_computed_second_step(self):
        params = {"x": np.array([0.0])}
        state = AdamState()
        g1, g2, lr = 1.0, 2.0, 0.1
        adam_step(params, {"x": np.array([g1])}, state, lr)
        x1 = params["x"][0]
        adam_step(params, {"x": np.array([g2])}, state, lr)
        m2 = 0.9 * (0.1 * g1) + 0.1 * g2
        v2 = 0.999 * (0.001 * g1**2) + 0.001 * g2**2
        m_hat = m2 / (1 - 0.9**2)
        v_hat = v2 / (1 - 0.999**2)
        expected = x1 - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert params["x"][0] == pytest.approx(expected, abs=1e-12)

    def test_flat_step_bit_equal_to_the_per_key_step(self):
        rng = np.random.default_rng(19)
        shapes = {"a": (3,), "b": (4, 5), "one": (1,), "c": (2, 3, 2), "table": (9, 4)}
        flat = {key: rng.normal(size=shape) for key, shape in shapes.items()}
        reference = {key: param.copy() for key, param in flat.items()}
        state, reference_state = AdamState(), per_key_state()
        for step in range(250):
            scale = 10.0 ** rng.integers(-6, 3)
            grads = {key: scale * rng.normal(size=shape) for key, shape in shapes.items()}
            if step % 5 == 0:
                grads["table"][rng.integers(9, size=6)] = 0.0  # rows no word touched
            if step % 7 == 0:
                grads["one"][0] = -0.0
            learning_rate = rng.uniform(1e-4, 0.1)
            adam_step(flat, grads, state, learning_rate)
            per_key_adam_step(reference, grads, reference_state, learning_rate)
            for key in shapes:
                assert flat[key].tobytes() == reference[key].tobytes(), (step, key)
        for flat_moment, moments in ((state.m, reference_state.m), (state.v, reference_state.v)):
            assert flat_moment.tobytes() == np.concatenate(list(moments.values()), axis=None).tobytes()

    def test_non_finite_second_key_is_named_and_nothing_moves(self):
        params = {"first": np.array([1.0, 2.0]), "second": np.ones((2, 2)), "third": np.ones(3)}
        state = AdamState()
        adam_step(params, {key: np.full_like(p, 0.5) for key, p in params.items()}, state, 0.1)
        before = {key: p.copy() for key, p in params.items()}
        m, v = state.m.copy(), state.v.copy()
        grads = {key: np.ones_like(p) for key, p in params.items()}
        grads["second"][1, 0] = np.nan
        grads["third"][2] = np.inf
        with pytest.raises(TrainingAborted, match="'second'"):
            adam_step(params, grads, state, 0.1)
        assert all(params[key].tobytes() == before[key].tobytes() for key in params)
        assert state.step == 1
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    @pytest.mark.parametrize(
        "changed",
        [
            {"x": np.zeros(3), "y": np.zeros((2, 2))},  # a resized key
            {"x": np.zeros(2), "y": np.zeros(4)},  # a reshaped key, same size
            {"y": np.zeros((2, 2)), "x": np.zeros(2)},  # the keys reordered
            {"x": np.zeros(2), "y": np.zeros((2, 2)), "z": np.zeros(1)},  # a key added
            {"x": np.zeros(2)},  # a key dropped
        ],
    )
    def test_changed_layout_refused(self, changed):
        params = {"x": np.zeros(2), "y": np.zeros((2, 2))}
        state = AdamState()
        adam_step(params, {key: np.ones_like(p) for key, p in params.items()}, state, 0.1)
        assert state.layout == (("x", (2,)), ("y", (2, 2)))
        with pytest.raises(ConfigurationError):
            adam_step(changed, {key: np.ones_like(p) for key, p in changed.items()}, state, 0.1)
        assert state.step == 1


class TestEvaluate:
    def test_all_correct(self, rng):
        model = build_random_model(rng)
        samples = [([1], 1), ([2], 0)]
        pred1 = model_mod.forward([1], model).label
        forced = [([1], pred1), ([2], model_mod.forward([2], model).label)]
        acc, _ = evaluate(forced, model)
        assert acc == 1.0

    def test_zero_head_accuracy_is_positive_fraction(self, rng):
        model = build_random_model(rng)
        model.head_w[...] = 0.0
        model.head_b[...] = 0.0
        samples = [([1], 1), ([2], 0), ([3], 1), ([4], 1)]
        acc, _ = evaluate(samples, model)
        assert acc == 0.75  # y_hat = 0.5 maps to label 1

    def test_order_invariant(self, rng):
        model = build_random_model(rng)
        samples = [([1], 1), ([2], 0), ([3], 1)]
        acc_a, loss_a = evaluate(samples, model)
        acc_b, loss_b = evaluate(samples[::-1], model)
        assert acc_a == acc_b and loss_a == pytest.approx(loss_b, abs=1e-15)

    def test_empty(self, rng):
        with pytest.raises(EmptySequenceError):
            evaluate([], build_random_model(rng))


class TestTrainLoop:
    def test_seed_reproducibility(self):
        ds = toy_dataset()
        cfg = model_mod.ModelConfig(2, 1, 1, 1)
        tc = TrainConfig(learning_rate=0.01, epochs=3, seed=5)
        runs = []
        for _ in range(2):
            model = model_mod.init_model(cfg, ds.vocabulary.size, np.random.default_rng(0))
            result = train(ds, model, tc)
            runs.append(json.dumps(result.metrics, sort_keys=True))
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        ds = toy_dataset()
        cfg = model_mod.ModelConfig(2, 1, 1, 1)
        finals = []
        for seed in (0, 1):
            model = model_mod.init_model(cfg, ds.vocabulary.size, np.random.default_rng(0))
            result = train(ds, model, TrainConfig(learning_rate=0.01, epochs=2, seed=seed))
            finals.append(result.metrics[-1]["train_loss"])
        assert finals[0] != finals[1]

    def test_separable_toy_reaches_perfect_training_accuracy(self):
        ds = toy_dataset(seed=3, n_samples=20, ratios=(0.9, 0.1))
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )
        result = train(ds, model, TrainConfig(learning_rate=0.008, epochs=50, seed=0))
        assert any(row["train_acc"] == 1.0 for row in result.metrics)
        assert result.metrics[-1]["train_loss"] < result.metrics[0]["train_loss"]

    def test_metrics_schema(self):
        ds = toy_dataset(ratios=(0.6, 0.2, 0.2))
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )
        result = train(ds, model, TrainConfig(learning_rate=0.01, epochs=2, seed=0))
        assert result.metrics[0]["epoch"] == 0
        assert len(result.metrics) == 3
        for row in result.metrics:
            assert {"epoch", "train_loss", "train_acc", "test_acc", "dev_acc", "dev_loss"} <= set(row)

    def test_abort_on_non_finite_gradient(self, monkeypatch):
        ds = toy_dataset()
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )

        calls = {"n": 0}
        original = gradients.backward

        def poisoned(sample, mdl, noise=None):
            calls["n"] += 1
            bundle = original(sample, mdl, noise)
            if calls["n"] > 10:
                bundle.d_w[0] = np.nan
            return bundle

        monkeypatch.setattr(gradients, "backward", poisoned)
        result = train(ds, model, TrainConfig(learning_rate=0.01, epochs=4, seed=0))
        assert result.aborted
        assert np.all(np.isfinite(model.head_w))  # restored to the last good state

    def test_abort_on_non_finite_loss_restores_last_good_state(self, monkeypatch):
        ds = toy_dataset()
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )
        calls = {"n": 0}
        original = model_mod.regularization

        def poisoned(mdl, batch):
            calls["n"] += 1  # epoch 0 evaluates train and test; epoch 1's train pass is third
            return np.inf if calls["n"] >= 3 else original(mdl, batch)

        monkeypatch.setattr(model_mod, "regularization", poisoned)
        result = train(ds, model, TrainConfig(learning_rate=0.01, epochs=4, seed=2))
        assert result.aborted and result.stopped_epoch == 1
        assert [row["epoch"] for row in result.metrics] == [0, 1]
        assert result.metrics[1]["train_loss"] == np.inf
        start = {key: np.zeros_like(arr) for key, arr in model_mod.model_param_dict(model).items()}
        model_mod.init_parameters(start, np.random.default_rng(2))
        for key, arr in model_mod.model_param_dict(model).items():
            assert np.array_equal(arr, start[key])

    def test_early_stop_on_flat_loss(self, monkeypatch):
        ds = toy_dataset()
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )
        # tiny learning rate: loss barely moves, the window rule must fire
        tc = TrainConfig(
            learning_rate=1e-12, epochs=50, seed=0, stop_window=3, stop_tol=1e-4
        )
        result = train(ds, model, tc)
        assert result.stopped_epoch is not None
        assert result.stopped_epoch < 50

    def test_dev_early_stop_flag(self):
        ds = toy_dataset(ratios=(0.6, 0.2, 0.2))
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )
        tc = TrainConfig(
            learning_rate=1e-12, epochs=30, seed=0, stop_window=3, dev_early_stop=True
        )
        result = train(ds, model, tc)
        assert result.stopped_epoch is not None

    @pytest.mark.parametrize("dev_early_stop,key", [(True, "dev_loss"), (False, "train_loss")])
    def test_stop_window_reads_the_chosen_loss(self, monkeypatch, dev_early_stop, key):
        windows = []
        monkeypatch.setattr(
            training, "_window_converged", lambda losses, *_: windows.append(list(losses))
        )
        ds = toy_dataset(ratios=(0.6, 0.2, 0.2))
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )
        tc = TrainConfig(learning_rate=0.01, epochs=2, seed=0, dev_early_stop=dev_early_stop)
        result = train(ds, model, tc)
        assert windows[-1] == [row[key] for row in result.metrics]

    def test_empty_training_set(self, rng):
        ds = toy_dataset()
        ds.train.clear()
        with pytest.raises(EmptySequenceError):
            train(ds, build_random_model(rng, vocab_size=ds.vocabulary.size),
                  TrainConfig(learning_rate=0.01, epochs=1))

    def test_batched_updates_run(self):
        ds = toy_dataset()
        model = model_mod.init_model(
            model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
        )
        result = train(ds, model, TrainConfig(learning_rate=0.01, epochs=2, seed=0, batch_size=8))
        assert len(result.metrics) == 3


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_training_start_depends_only_on_the_config_seed(kind):
    # train redraws every parameter from TrainConfig.seed, so the rng a model was built
    # with leaves no trace in the metrics
    ds = toy_dataset(n_samples=20)
    settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 1,
                "lam": 0.1, "gamma": 0.2, "dim": 6}
    models = [
        MODEL_KINDS[kind].init(settings, ds.vocabulary.size, np.random.default_rng(seed))
        for seed in (0, 1)
    ]
    assert not np.array_equal(models[0].head_w, models[1].head_w)
    config = TrainConfig(learning_rate=0.01, epochs=2, lam=0.1, gamma=0.2, seed=3)
    first, second = (json.dumps(train(ds, m, config).metrics, sort_keys=True) for m in models)
    assert first == second


@pytest.mark.parametrize(
    "noise", [None, NoiseChannel("depolarizing", 0.1)], ids=["pure", "depolarizing"]
)
def test_training_path_runs_no_gate_by_gate_kernel(monkeypatch, noise):
    # the encoder and every sweep work on column operators or in closed form; the
    # gate-by-gate kernels serve only circuit_expectation, param_shift_grad and tests
    def refuse(*args, **kwargs):
        raise AssertionError("gate-by-gate kernel on the training path")

    kernels = (ansatz.run_ansatz_batch, sim.apply_rotation_batch, sim.apply_hadamard_layer_batch)
    for name, module in list(sys.modules.items()):
        if name == "qsann" or name.startswith("qsann."):
            for attr, value in list(vars(module).items()):
                if any(value is kernel for kernel in kernels):
                    monkeypatch.setattr(module, attr, refuse)
    ds = toy_dataset(n_samples=20)
    model = model_mod.init_model(
        model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
    )
    result = train(ds, model, TrainConfig(learning_rate=0.01, epochs=1, seed=0), noise)
    assert len(result.metrics) == 2
    accuracy, loss = evaluate(ds.test, model, noise)
    assert 0.0 <= accuracy <= 1.0 and np.isfinite(loss)


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize(
    "kind,noise",
    [("qsann", None), ("qsann", NoiseChannel("depolarizing", 0.1)), ("csann", None),
     ("naive", None)],
    ids=["qsann-pure", "qsann-depolarizing", "csann", "naive"],
)
def test_train_bit_equal_with_the_per_key_adam(monkeypatch, kind, noise, batch_size):
    # 14 training samples: at batch size 3 the last batch has 2
    ds = toy_dataset(n_samples=20)
    settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 1,
                "lam": 0.1, "gamma": 0.2, "dim": 6}
    config = TrainConfig(learning_rate=0.05, epochs=3, lam=0.1, gamma=0.2, seed=3,
                         batch_size=batch_size)
    runs = []
    for reference in (False, True):
        if reference:
            state = per_key_state()
            monkeypatch.setattr(
                training, "adam_step", lambda p, g, _, lr: per_key_adam_step(p, g, state, lr)
            )
        model = MODEL_KINDS[kind].init(settings, ds.vocabulary.size, None)
        metrics = json.dumps(train(ds, model, config, noise).metrics)
        runs.append((metrics, [p.tobytes() for p in MODEL_KINDS[kind].params(model).values()]))
    assert runs[0] == runs[1]


def test_batch_gradient_is_the_mean_of_its_samples_in_order(monkeypatch):
    ds = toy_dataset(n_samples=20)
    kind, adam = MODEL_KINDS["csann"], training.adam_step
    samples, steps = [], []

    def backward(sample, model, noise):
        samples.append(kind.backward(sample, model, noise))
        return samples[-1]

    def step(params, grads, state, learning_rate):
        steps.append({key: grad.copy() for key, grad in grads.items()})
        return adam(params, grads, state, learning_rate)

    monkeypatch.setitem(MODEL_KINDS, "csann", dataclasses.replace(kind, backward=backward))
    monkeypatch.setattr(training, "adam_step", step)
    model = kind.init({"dim": 5, "lam": 0.1, "gamma": 0.2}, ds.vocabulary.size, None)
    train(ds, model, TrainConfig(learning_rate=0.05, epochs=2, batch_size=3, seed=1))
    batches = [
        samples[i : min(i + 3, end)] for end in (14, 28) for i in range(end - 14, end, 3)
    ]
    assert len(samples) == 28 and len(steps) == len(batches) == 10
    for grads, batch in zip(steps, batches):
        assert grads.keys() == batch[0].keys()
        for key, grad in grads.items():  # the plain sum(...) / len(...) mean, to the bit
            assert grad.tobytes() == (sum(g[key] for g in batch) / len(batch)).tobytes()


def per_split_scores(splits, model, noise=None, shots=None, rng=None):
    """The metrics record as it was before one pass served every split: a pass per split."""
    scores = []
    for samples in splits:
        ids = [ids for ids, _ in samples]
        pairs = training.kind_of(model).forward(ids, model, noise, shots, rng)
        hits, mean_loss = model_mod.score(pairs, [label for _, label in samples], model)
        scores.append((hits / len(samples), mean_loss))
    return scores


@pytest.mark.parametrize("dev_early_stop", [False, True])
@pytest.mark.parametrize(
    "kind,noise",
    [("qsann", None), ("qsann", NoiseChannel("depolarizing", 0.1)), ("csann", None),
     ("naive", None)],
    ids=["qsann-pure", "qsann-depolarizing", "csann", "naive"],
)
def test_one_pass_record_equals_the_per_split_record(monkeypatch, kind, noise, dev_early_stop):
    # train, dev and test scored from one forward pass give the metrics, the stop and the
    # parameters of a pass per split, to the bit; a loose tolerance makes some runs stop early
    ds = toy_dataset(n_samples=30, ratios=(0.6, 0.2, 0.2))
    settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 2,
                "lam": 0.1, "gamma": 0.2, "dim": 6}
    config = TrainConfig(learning_rate=0.05, epochs=5, lam=0.1, gamma=0.2, seed=3,
                         stop_window=2, stop_tol=0.3, dev_early_stop=dev_early_stop)
    runs = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(training, "_scores", per_split_scores)
        model = MODEL_KINDS[kind].init(settings, ds.vocabulary.size, None)
        result = train(ds, model, config, noise)
        params = [p.tobytes() for p in MODEL_KINDS[kind].params(model).values()]
        runs.append((json.dumps(result.metrics), result.stopped_epoch, params))
    assert runs[0] == runs[1]
    assert "dev_loss" in runs[0][0]


def test_one_forward_pass_per_metrics_record(monkeypatch):
    passes = []
    original = model_mod.forward_many

    def counted(sequences, *args):
        passes.append(len(sequences))
        return original(sequences, *args)

    monkeypatch.setattr(model_mod, "forward_many", counted)
    monkeypatch.setattr(training, "evaluate", None)  # train scores without it
    ds = toy_dataset(n_samples=30, ratios=(0.6, 0.2, 0.2))
    model = model_mod.init_model(
        model_mod.ModelConfig(2, 1, 1, 1), ds.vocabulary.size, np.random.default_rng(0)
    )
    result = train(ds, model, TrainConfig(learning_rate=0.01, epochs=2, seed=0))
    assert len(result.metrics) == 3
    assert passes == [len(ds.train) + len(ds.dev) + len(ds.test)] * 3
