import tracemalloc

import numpy as np
import pytest

from conftest import build_random_model
from qsann import attention, baselines, data, model as model_mod, training
from qsann.errors import ConfigurationError, EmptySequenceError
from qsann.model import (
    ModelConfig,
    QsannModel,
    forward,
    init_model,
    loss,
    parameter_count,
)
from qsann.sim import NoiseChannel


class TestConfig:
    def test_embed_dim(self):
        assert ModelConfig(2, 1, 1, 1).embed_dim == 6
        assert ModelConfig(4, 4, 5, 1).embed_dim == 24

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(2, 1, 1, 0)

    @pytest.mark.parametrize("fields", [
        (2, 1, 1, 1.5), (2.5, 1, 1, 1), (2, True, 1, 1), (2, 1, 1, 1, "x"),
        (np.int64(2), 1, 1, 1), (2, 1, 1, np.int64(1)), (2, 1, 1, 1, np.float32(0.1)),
    ], ids=str)
    def test_mistyped_fields_refused(self, fields):
        with pytest.raises(ConfigurationError):
            ModelConfig(*fields)

    def test_fixed_width_int_refused_before_the_memory_check(self):
        # 4**11 wraps in int32, so the budget's product would read ~170 MB, not ~26 GB
        with pytest.raises(ConfigurationError, match="n_qubits must be int"):
            ModelConfig(np.int32(11), 1, 1, 1)

    def test_float64_penalties_accepted_and_checkpointed(self, rng, tmp_path):
        from qsann.checkpoint import load_checkpoint, save_checkpoint

        config = ModelConfig(2, 1, 1, 1, np.float64(0.1), np.float64(0.2))
        vocab = data.Vocabulary([data.OOV_TOKEN, "a", "b"])
        save_checkpoint(tmp_path / "c.json", init_model(config, 3, rng), vocab, {})
        assert load_checkpoint(tmp_path / "c.json")[0].config == config

    @pytest.mark.parametrize("kind", sorted(training.MODEL_KINDS))
    @pytest.mark.parametrize("lam,gamma", [
        (-0.1, 0.0), (0.0, -0.1), (np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, np.inf),
    ])
    def test_penalties_checked_when_a_model_is_built(self, rng, kind, lam, gamma):
        settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 1,
                    "lam": lam, "gamma": gamma, "dim": 4}
        with pytest.raises(ConfigurationError, match="regularization"):
            training.MODEL_KINDS[kind].init(settings, 5, rng)


class TestForward:
    def test_zero_head_gives_half(self, rng):
        model = build_random_model(rng)
        model.head_w[...] = 0.0
        model.head_b[...] = 0.0
        for ids in ([0], [1, 2], [3, 3, 4]):
            pred = forward(ids, model)
            assert pred.y_hat == 0.5
            assert pred.label == 1  # threshold convention: y_hat >= 0.5

    def test_single_token_pooling_is_identity(self, rng):
        model = build_random_model(rng)
        pred = forward([2], model)
        xs = model.embeddings.rows[[2]]
        outputs = attention.layer_forward(xs, model.layers[0]).outputs
        from qsann.model import sigmoid

        expected = sigmoid(float(model.head_w @ outputs[0] + model.head_b[0]))
        assert pred.y_hat == pytest.approx(expected, abs=1e-12)

    def test_predictions_are_python_floats_on_both_sides(self, rng):
        # predict's y_hat is a Python float after either branch of sigmoid (z >= 0 and z < 0);
        # a pass yields the same numbers as float64 arrays
        model = build_random_model(rng)
        sequences = [[0], [1, 2], [3, 3, 4]]
        for bias in (5.0, -5.0):
            model.head_b[0] = bias
            preds = [forward(ids, model) for ids in sequences]
            assert [type(pred.y_hat) for pred in preds] == [float] * 3
            assert [pred.label for pred in preds] == [int(bias > 0)] * 3
            ((y_hat, norms),) = model_mod.forward_many(sequences, model)
            assert y_hat.dtype == norms.dtype == np.float64
            assert repr(y_hat.tolist()) == repr([pred.y_hat for pred in preds])

    def test_sigmoid_takes_arrays_with_the_scalar_branches_bits(self):
        z = [0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 40.0, -40.0, 800.0, -800.0]
        y = model_mod.sigmoid(np.array(z))
        assert y.dtype == np.float64
        assert repr(y.tolist()) == repr([scalar_sigmoid(v) for v in z])
        assert [float(model_mod.sigmoid(v)) for v in z] == y.tolist()

    def test_head_logits_are_each_rows_own_dot(self, rng):
        # a pass scores a window's sentences together and predict each alone, both by
        # head_logits: a row's logit must not depend on the rows scored with it
        for d in range(1, 41):
            model = baselines.init_naive(3, d, None)
            model.head_w[...] = rng.normal(0.0, 1.0, d)
            model.head_b[0] = rng.normal()
            pooled = rng.normal(0.0, 1.0, (model_mod.WINDOW_TOKENS, d))  # a window's most rows
            alone = [float(model.head_w @ row + model.head_b[0]) for row in pooled]
            for size in [*range(1, 301), len(pooled)]:
                got = model_mod.head_logits(model, pooled[:size])
                assert got.tolist() == alone[:size], (d, size)

    def test_permutation_invariance(self, rng):
        model = build_random_model(rng)
        ids = [1, 2, 3, 4]
        base = forward(ids, model).y_hat
        for _ in range(3):
            perm = list(rng.permutation(ids))
            assert forward(perm, model).y_hat == pytest.approx(base, abs=1e-12)

    def test_prediction_strictly_inside_unit_interval(self, rng):
        model = build_random_model(rng, scale=2.0)
        for ids in ([0, 1], [2], [3, 4, 1]):
            y = forward(ids, model).y_hat
            assert 0.0 < y < 1.0

    def test_attention_exported_per_layer(self, rng):
        model = build_random_model(rng, n_layers=2)
        pred = forward([1, 2], model)
        assert len(pred.attention) == 2
        assert pred.attention[0].coefficients.shape == (2, 2)

    @pytest.mark.parametrize("shots", [None, 64])
    def test_exports_checked_matrices_with_the_traces_bits(self, rng, monkeypatch, shots):
        model = build_random_model(rng, n_layers=2, vocab_size=VOCAB, scale=0.8)
        checked = []
        original = attention.AttentionMatrix.__post_init__

        def check(matrix):
            checked.append(matrix)
            original(matrix)

        monkeypatch.setattr(attention.AttentionMatrix, "__post_init__", check)
        seeded = (lambda: np.random.default_rng(7)) if shots else (lambda: None)
        for ids in ([3, 1, 3, 4], [5], list(rng.integers(0, VOCAB, 11))):
            checked.clear()
            pred = forward(ids, model, None, shots, seeded())
            traces = model_mod.layer_traces(ids, model, None, shots, seeded())
            assert len(pred.attention) == len(checked) == 2
            for matrix, seen, trace in zip(pred.attention, checked, traces):
                assert type(matrix) is attention.AttentionMatrix and matrix is seen
                assert np.array_equal(matrix.coefficients, trace.coefficients)
            ((alone, _),) = model_mod.forward_many([ids], model, None, shots, seeded())
            assert repr(alone.tolist()) == repr([pred.y_hat])

    def test_empty_sequence(self, rng):
        with pytest.raises(EmptySequenceError):
            forward([], build_random_model(rng))

    def test_unknown_token_id(self, rng):
        with pytest.raises(IndexError):
            forward([99], build_random_model(rng, vocab_size=5))

    def test_multilayer_single_token_finite(self, rng):
        model = build_random_model(rng, n_layers=3)
        assert np.isfinite(forward([1], model).y_hat)


def one_sentence_coefficients(zq, zk):
    """One sentence's row-normalised Gaussian coefficients, computed alone."""
    raw = np.exp(-((zq[:, None] - zk[None, :]) ** 2))
    return raw / raw.sum(axis=1, keepdims=True)


def one_sentence_attend(xs, expectations, shots, rng):
    """One sentence's attention step, computed alone: (coefficients, outputs), with
    shots drawn for zq, then zk, then the values."""
    zq = attention._maybe_sample(expectations[:, 0], shots, rng)
    zk = attention._maybe_sample(expectations[:, 1], shots, rng)
    values = attention._maybe_sample(expectations[:, 2:], shots, rng)
    coefficients = one_sentence_coefficients(zq, zk)
    return coefficients, xs + coefficients @ values


def scalar_sigmoid(z):
    """The logistic function of one logit by two scalar branches, as one sentence's head
    once took it."""
    if z >= 0:
        return float(1.0 / (1.0 + np.exp(-z)))
    e = np.exp(z)
    return float(e / (1.0 + e))


def sentence_norm(model, ids):
    """One sentence's squared embedding norm, summed on its own."""
    return float(np.sum(model.embeddings.rows[list(ids)] ** 2))


def per_sentence_regularization(model, batch):
    """The penalties with each sentence's embedding norm summed on its own."""
    d = model.embeddings.dim
    reg = model.lam / (2.0 * d) * float(model.head_w @ model.head_w)
    if model.gamma > 0.0:
        norms = [sentence_norm(model, ids) for ids, _ in batch]
        reg += model.gamma / (2.0 * d) * float(np.mean(norms))
    return reg


def per_sentence(sequences, model, noise=None, shots=None, rng=None):
    """The reference for forward_many: every sentence measured, attended and pooled
    on its own, layer by layer.  Yields (y_hat, coefficients of each layer)."""
    engines = [attention.Engine(layer, noise) for layer in model.layers]
    for ids in sequences:
        xs = model.embeddings.rows[list(ids)]
        layers = []
        for engine in engines:
            coefficients, xs = one_sentence_attend(xs, engine.measure(xs)[1], shots, rng)
            layers.append(coefficients)
        pooled = xs.mean(axis=0)
        yield scalar_sigmoid(float(model.head_w @ pooled + model.head_b[0])), layers


def per_sentence_evaluate(samples, model, noise=None, shots=None, rng=None, reference=None):
    """(accuracy, mean loss) from each sentence's prediction and norm on its own; the
    predictions are per_sentence's unless a one-sentence ``reference`` forward is given."""
    if reference is None:
        sequences = [ids for ids, _ in samples]
        preds = [y for y, _ in per_sentence(sequences, model, noise, shots, rng)]
    else:
        preds = [reference(ids, model).y_hat for ids, _ in samples]
    hits = sum(int((y >= 0.5) == label) for y, (_, label) in zip(preds, samples))
    errors = [(y - float(label)) ** 2 for y, (_, label) in zip(preds, samples)]
    mean_loss = float(np.mean(errors)) / 2.0 + per_sentence_regularization(model, samples)
    return hits / len(samples), mean_loss


def recording_attend(monkeypatch):
    """Replace forward_many's attend with one that keeps each call's coefficients."""
    calls = []
    original = model_mod.attend

    def record(xs, expectations, shots=None, rng=None):
        out = original(xs, expectations, shots, rng)
        calls.append(out[3])
        return out

    monkeypatch.setattr(model_mod, "attend", record)
    return calls


def sentence_coefficients(calls, sequences, window, n_layers):
    """Each sentence's per-layer coefficients from forward_many's attend calls: per
    window, per length group in order, one (B, S, S) call per layer."""
    found = [[] for _ in sequences]
    calls = iter(calls)
    for groups in model_mod.length_groups(map(len, sequences), window):
        for members in groups.values():
            for _ in range(n_layers):
                for i, coefficients in zip(members, next(calls), strict=True):
                    found[i].append(coefficients)
    assert next(calls, None) is None
    return found


def assert_same_predictions(pairs, coefficients, expected, n_layers, model, sequences, window):
    """The pass's (y_hat, norms) pairs, one per window, hold the reference's bits in order."""
    assert len(pairs) == len(list(model_mod.length_groups(map(len, sequences), window)))
    y_hat, norms = (np.concatenate(parts) for parts in zip(*pairs))
    assert y_hat.dtype == norms.dtype == np.float64
    assert repr(norms.tolist()) == repr([sentence_norm(model, ids) for ids in sequences])
    assert len(y_hat) == len(coefficients) == len(expected)
    for new, layers_new, (ref, layers) in zip(y_hat.tolist(), coefficients, expected):
        assert repr(new) == repr(ref)
        assert len(layers_new) == len(layers) == n_layers
        for a, b in zip(layers_new, layers):
            assert type(a) is np.ndarray and np.array_equal(a, b)


VOCAB = 90  # more distinct words than one encoding block


def vocabulary_pass(rng):
    """Sentences that repeat words within and across themselves, one of a single
    word, and together more than ENCODE_BLOCK distinct ids."""
    sequences = [[3, 1, 3, 4], [4, 4], [1], [7, 3, 1, 7, 7]]
    for _ in range(30):
        sequences.append(list(rng.integers(0, VOCAB, rng.integers(1, 9))))
    sequences.append(list(range(VOCAB)))
    assert len(np.unique(np.concatenate(sequences))) > attention.ENCODE_BLOCK
    return [(ids, int(rng.integers(0, 2))) for ids in sequences]


def same_length_pass(rng):
    """Many sentences of each of a few lengths, interleaved, one of them one word long."""
    lengths = [1] + list(rng.choice([2, 3, 5, 9], 70))
    return [(list(rng.integers(0, VOCAB, s)), int(rng.integers(0, 2))) for s in lengths]


NOISES = [None, NoiseChannel("depolarizing", 0.1), NoiseChannel("amplitude_damping", 0.2)]
# the default window holds each pass whole; 7 tokens splits it into many windows
WINDOWS = [model_mod.WINDOW_TOKENS, 7]


class TestForwardMany:
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("shots", [None, 64])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("noise", NOISES, ids=["pure", "depolarizing", "damping"])
    def test_equals_per_sentence_path(self, rng, monkeypatch, noise, n_layers, shots, window):
        monkeypatch.setattr(model_mod, "WINDOW_TOKENS", window)
        model = build_random_model(
            rng, n_layers=n_layers, vocab_size=VOCAB, lam=0.1, gamma=0.2, scale=0.8
        )
        samples = vocabulary_pass(rng) + same_length_pass(rng)
        sequences = [ids for ids, _ in samples]
        seeded = (lambda: np.random.default_rng(11)) if shots else (lambda: None)
        rng_ref, rng_new = seeded(), seeded()
        expected = list(per_sentence(sequences, model, noise, shots, rng_ref))
        calls = recording_attend(monkeypatch)
        got = list(model_mod.forward_many(sequences, model, noise, shots, rng_new))
        window = window if shots is None else 1
        found = sentence_coefficients(calls, sequences, window, n_layers)
        assert_same_predictions(got, found, expected, n_layers, model, sequences, window)
        if shots:  # both passes drew the same numbers from their rngs
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        ref = per_sentence_evaluate(samples, model, noise, shots, seeded())
        assert repr(training.evaluate(samples, model, noise, shots, seeded())) == repr(ref)

    @pytest.mark.parametrize("shots", [None, 64])
    @pytest.mark.parametrize("noise", NOISES[:2], ids=["pure", "depolarizing"])
    def test_training_traces_equal_per_sentence_path(self, rng, noise, shots):
        # layer_traces, which the backward reads, runs the same attend with one sentence
        model = build_random_model(rng, n_layers=2, vocab_size=VOCAB, scale=0.8)
        sequences = [ids for ids, _ in same_length_pass(rng)[:12]]
        rng_ref, rng_new = np.random.default_rng(5), np.random.default_rng(5)
        expected = per_sentence(sequences, model, noise, shots, rng_ref if shots else None)
        for ids, (y_hat, layers) in zip(sequences, expected):
            traces = model_mod.layer_traces(ids, model, noise, shots, rng_new if shots else None)
            for trace, coefficients in zip(traces, layers):
                assert np.array_equal(trace.coefficients, coefficients)
            y_new = model_mod.predict(model, traces[-1].outputs.mean(axis=0)).y_hat
            assert repr(y_new) == repr(y_hat)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_groups_each_window_by_length(self, rng, monkeypatch):
        model = build_random_model(rng, n_layers=2, vocab_size=VOCAB)
        sequences = [ids for ids, _ in same_length_pass(rng)]
        batches = []
        original = model_mod.attend

        def record(xs, expectations, shots=None, rng=None):
            batches.append(xs.shape[:2])
            return original(xs, expectations, shots, rng)

        monkeypatch.setattr(model_mod, "attend", record)
        for window in WINDOWS:
            monkeypatch.setattr(model_mod, "WINDOW_TOKENS", window)
            batches.clear()
            list(model_mod.forward_many(sequences, model))
            expected = [
                (len(members), length)
                for groups in model_mod.length_groups(map(len, sequences), window)
                for length, members in groups.items()
                for _ in range(2)  # one attend per layer
            ]
            assert batches == expected
        lengths = [len(ids) for ids in sequences]
        whole = list(model_mod.length_groups(lengths, WINDOWS[0]))
        assert len(whole) == 1 and sorted(whole[0]) == [1, 2, 3, 5, 9]
        for groups in model_mod.length_groups(lengths, 7):
            members = sorted(i for indices in groups.values() for i in indices)
            assert members == list(range(members[0], members[-1] + 1))  # consecutive
            assert sum(lengths[i] for i in members) <= 7 or len(members) == 1

    def test_forward_and_loss_use_it(self, rng):
        model = build_random_model(rng, n_layers=2, vocab_size=VOCAB, gamma=0.3)
        samples = vocabulary_pass(rng)[:6]
        expected = list(per_sentence([ids for ids, _ in samples], model))
        for (ids, _), (y_hat, _) in zip(samples, expected):
            assert repr(forward(ids, model).y_hat) == repr(y_hat)
        errors = [(y_hat - label) ** 2 for (y_hat, _), (_, label) in zip(expected, samples)]
        expected_loss = float(np.mean(errors)) / 2.0 + per_sentence_regularization(model, samples)
        assert repr(loss(samples, model)) == repr(expected_loss)

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_builds_operators_once_and_encodes_each_word_once(self, rng, monkeypatch, n_layers):
        model = build_random_model(rng, n_layers=n_layers, vocab_size=VOCAB)
        samples = vocabulary_pass(rng)
        unitary_calls = []
        prepared_rows = []
        original_unitaries = attention.ansatz_unitaries
        original_prepare = attention.Engine.prepare

        def count_unitaries(*args):
            unitary_calls.append(args)
            return original_unitaries(*args)

        def count_prepare(self, inputs):
            prepared_rows.append(len(inputs))
            return original_prepare(self, inputs)

        monkeypatch.setattr(attention, "ansatz_unitaries", count_unitaries)
        monkeypatch.setattr(attention.Engine, "prepare", count_prepare)
        training.evaluate(samples, model)
        assert len(unitary_calls) == n_layers
        distinct = len(np.unique(np.concatenate([ids for ids, _ in samples])))
        blocks = -(-distinct // attention.ENCODE_BLOCK)
        first, deeper = prepared_rows[:blocks], prepared_rows[blocks:]
        assert sum(first) == distinct
        assert max(first) == attention.ENCODE_BLOCK
        tokens = sum(len(ids) for ids, _ in samples)
        assert sum(deeper) == (n_layers - 1) * tokens
        assert all(rows <= attention.ENCODE_BLOCK for rows in deeper)

    @pytest.mark.parametrize("bad", [0, 40, -1])
    def test_checks_every_sequence_first(self, rng, monkeypatch, bad):
        # the first bad sentence in pass order raises check_ids' error, before any Engine
        model = build_random_model(rng, vocab_size=VOCAB)

        def refuse(*args):
            raise AssertionError("an Engine was built before the ids were checked")

        monkeypatch.setattr(model_mod, "Engine", refuse)
        monkeypatch.setattr(model_mod, "WINDOW_TOKENS", 7)
        sequences = [ids for ids, _ in same_length_pass(rng)]
        wrongs = ([2, VOCAB], [2, -1], [], [3, 10**30], [np.int64(-5), 1])
        for wrong in wrongs:
            with pytest.raises((IndexError, EmptySequenceError)) as want:
                model.embeddings.check_ids(wrong)
            for later in wrongs:
                passed = list(sequences)
                passed[bad] = wrong
                if bad != -1:
                    passed[-1] = later
                with pytest.raises(want.type) as got:
                    next(model_mod.forward_many(passed, model))
                assert type(got.value) is want.type and str(got.value) == str(want.value)
            passed = list(sequences)
            passed[bad] = [2, 1.5]  # in range, but no row id
            with pytest.raises(IndexError):
                next(model_mod.forward_many(passed, model))

    def test_no_sequences_no_predictions(self, rng):
        assert list(model_mod.forward_many([], build_random_model(rng))) == []

    def test_peak_memory_does_not_grow_with_the_pass(self, rng):
        model = build_random_model(rng, n_layers=2, vocab_size=VOCAB)
        # lengths cycle through 4..12, so that every window holds the same mix of lengths
        sequences = [list(rng.integers(0, VOCAB, 4 + i % 9)) for i in range(4800)]

        def peak(count):
            passed = sequences[:count]  # the caller's list, sliced outside the measured span
            tracemalloc.start()
            try:
                for _ in model_mod.forward_many(passed, model):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for _ in model_mod.forward_many(sequences[:1200], model):
            pass  # untraced, so that first-call caches are warm in both measured passes
        assert sum(map(len, sequences[:1200])) > 4 * model_mod.WINDOW_TOKENS
        assert peak(4800) < 1.05 * peak(1200)


def pass_norms(model, samples):
    """The squared embedding norms a pass over the samples yields, in order."""
    pairs = model_mod.forward_many([ids for ids, _ in samples], model)
    return np.concatenate([norms for _, norms in pairs])


class TestRegularization:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_equals_per_sentence_norms(self, rng, monkeypatch, window):
        # a pass's grouped norms are row sums of a (B, S d) array, each the pairwise sum of
        # one sentence's (S, d) block, and the penalty averages them
        monkeypatch.setattr(model_mod, "WINDOW_TOKENS", window)
        model = build_random_model(rng, vocab_size=VOCAB, lam=0.3, gamma=0.7, scale=1.3)
        for samples in (vocabulary_pass(rng), same_length_pass(rng), [([5], 1)]):
            norms = pass_norms(model, samples)
            assert repr(norms.tolist()) == repr([sentence_norm(model, ids) for ids, _ in samples])
            assert repr(model_mod.regularization(model, norms)) == repr(
                per_sentence_regularization(model, samples)
            )
        model.config = ModelConfig(2, 1, 1, 1, lam=0.3, gamma=0.0)
        samples = same_length_pass(rng)
        assert repr(model_mod.regularization(model, pass_norms(model, samples))) == repr(
            per_sentence_regularization(model, samples)
        )


@pytest.mark.parametrize("kind", ["csann", "naive"])
def test_baselines_evaluate_as_per_sentence(rng, kind):
    # the baselines' (y_hat, norm) pairs come from their one-sentence forwards
    entry = training.MODEL_KINDS[kind]
    model = entry.init({"dim": 5, "lam": 0.3, "gamma": 0.7}, VOCAB, rng)
    for arr in entry.params(model).values():
        arr[...] = rng.normal(0.0, 1.3, arr.shape)  # logits of both signs, head_b too
    reference = {"csann": baselines.csann_forward, "naive": baselines.naive_forward}[kind]
    for samples in (vocabulary_pass(rng), same_length_pass(rng), [([5], 1)]):
        expected = per_sentence_evaluate(samples, model, reference=reference)
        assert repr(training.evaluate(samples, model)) == repr(expected)


class TestLoss:
    def test_perfect_predictions_zero(self, rng):
        model = build_random_model(rng)
        ids = [1, 2]
        y_hat = forward(ids, model).y_hat
        assert loss([(ids, y_hat)], model) == pytest.approx(0.0, abs=1e-15)

    def test_half_prediction_against_one(self, rng):
        model = build_random_model(rng)
        model.head_w[...] = 0.0
        model.head_b[...] = 0.0
        assert loss([([1, 2], 1)], model) == pytest.approx(0.125, abs=1e-15)

    def test_regularizers_add(self, rng):
        model = build_random_model(rng, lam=0.2, gamma=0.2)
        ids = [1, 2]
        d = model.config.embed_dim
        base_model = build_random_model(np.random.default_rng(12345))
        plain = loss([(ids, 1)], base_model)
        full = loss([(ids, 1)], model)
        expected_reg = 0.2 / (2 * d) * float(model.head_w @ model.head_w) + 0.2 / (
            2 * d
        ) * float(np.sum(model.embeddings.rows[ids] ** 2))
        assert full == pytest.approx(plain + expected_reg, abs=1e-12)

    def test_batch_size_invariance_of_regularizer(self, rng):
        # duplicating a sample must not change the loss
        model = build_random_model(rng, lam=0.3, gamma=0.4)
        sample = ([1, 2, 3], 1)
        assert loss([sample, sample], model) == pytest.approx(
            loss([sample], model), abs=1e-12
        )

    def test_non_negative(self, rng):
        model = build_random_model(rng, lam=0.1, gamma=0.1, scale=1.5)
        assert loss([([1], 0), ([2, 3], 1)], model) >= 0.0

    def test_empty_batch(self, rng):
        with pytest.raises(EmptySequenceError):
            loss([], build_random_model(rng))


class TestParameterCount:
    @pytest.mark.parametrize(
        "n,enc_depth,qkv_depth,layers,expected",
        [
            (2, 1, 1, 1, (18, 7, 25)),     # smallest two-qubit setting
            (4, 1, 1, 1, (36, 13, 49)),    # four qubits, depth-1 circuits
            (4, 4, 5, 1, (84, 25, 109)),   # deep encoder and deep q/k/v
            (4, 1, 2, 1, (48, 13, 61)),    # depth-2 q/k/v circuits
        ],
    )
    def test_reference_configurations(self, rng, n, enc_depth, qkv_depth, layers, expected):
        model = build_random_model(
            rng, n_qubits=n, enc_depth=enc_depth, qkv_depth=qkv_depth, n_layers=layers
        )
        assert parameter_count(model) == expected

    def test_embeddings_excluded(self, rng):
        small = build_random_model(rng, vocab_size=3)
        large = build_random_model(rng, vocab_size=300)
        assert parameter_count(small) == parameter_count(large)

    def test_layers_scale_qkv_count(self, rng):
        one = build_random_model(rng, n_layers=1)
        two = build_random_model(rng, n_layers=2)
        assert parameter_count(two)[0] == 2 * parameter_count(one)[0]


class TestModelValidation:
    @pytest.mark.parametrize("lam,gamma", [("x", 0.0), (0.0, None), ([0.1], 0.0)])
    def test_non_number_penalties_refused(self, rng, lam, gamma):
        with pytest.raises(ConfigurationError, match="(lam|gamma) must be float"):
            ModelConfig(2, 1, 1, 1, lam=lam, gamma=gamma)  # its field check, before any model
        with pytest.raises(ConfigurationError, match="regularization"):
            baselines.init_csann(4, 3, rng, lam=lam, gamma=gamma)
        with pytest.raises(ConfigurationError, match="regularization"):
            baselines.init_naive(4, 3, rng, lam=lam, gamma=gamma)

    def test_models_share_the_default_observables(self, rng):
        first = init_model(ModelConfig(2, 1, 1, 1), 5, rng)
        second = init_model(ModelConfig(2, 1, 1, 2), 9, rng)
        assert first.observables is second.observables
        assert not first.observables.matrices.flags.writeable
        with pytest.raises(ValueError):
            first.observables.matrices[0, 0, 0] = 2.0


    def test_head_dimension_checked(self, rng):
        model = build_random_model(rng)
        with pytest.raises(ConfigurationError):
            QsannModel(
                config=model.config,
                layers=model.layers,
                head_w=np.zeros(5),
                head_b=np.zeros(1),
                embeddings=model.embeddings,
            )

    def test_init_model_shapes(self, rng):
        model = init_model(ModelConfig(2, 1, 1, 2), vocab_size=9, rng=rng)
        assert len(model.layers) == 2
        assert model.embeddings.rows.shape == (9, 6)
        assert model.head_b[0] == 0.0

    @pytest.mark.parametrize("kind", sorted(training.MODEL_KINDS))
    def test_every_kind_draws_its_arrays_in_key_order(self, kind):
        # one initialiser: N(0, INIT_STD) in the optimizer dict's key order, head_b zero
        settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 2,
                    "lam": 0.0, "gamma": 0.0, "dim": 5}
        entry = training.MODEL_KINDS[kind]
        params = entry.params(entry.init(settings, 9, np.random.default_rng(4)))
        rng = np.random.default_rng(4)
        for key, arr in params.items():
            expected = np.zeros(1) if key == "head_b" else rng.normal(0.0, 0.01, arr.shape)
            assert np.array_equal(arr, expected), key
        assert model_mod.INIT_STD == 0.01


@pytest.mark.parametrize("gamma", [0.0, 0.7])
def test_embedding_gradient_adds_repeated_words_in_order(rng, gamma):
    model = build_random_model(rng, vocab_size=VOCAB, gamma=gamma)
    for ids in ([3, 1, 3, 4, 3], [7], list(rng.integers(0, 6, 40))):
        xs = model.embeddings.rows[ids]
        g = rng.normal(0.0, 1.0, xs.shape)
        expected = np.zeros_like(model.embeddings.rows)  # reference: one word at a time
        gamma_scale = model.gamma / model.embeddings.dim
        for pos, token in enumerate(ids):
            expected[token] += g[pos] + gamma_scale * xs[pos]
        assert np.array_equal(model_mod.embedding_gradient(model, ids, xs, g), expected)


@pytest.mark.parametrize("kind", ["qsann", "csann"])
def test_training_and_evaluation_build_no_attention_matrix(monkeypatch, kind):
    def refuse(matrix):
        raise AssertionError("an AttentionMatrix was built")

    monkeypatch.setattr(attention.AttentionMatrix, "__post_init__", refuse)
    ds = data.build_splits(data.make_separable_corpus(seed=3, n_samples=24), [0.5, 0.25, 0.25], 0)
    settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 2,
                "lam": 0.1, "gamma": 0.1, "dim": 6}
    model = training.MODEL_KINDS[kind].init(settings, ds.vocabulary.size, None)
    result = training.train(ds, model, training.TrainConfig(learning_rate=0.01, epochs=2, seed=0))
    assert len(result.metrics) == 3
    training.evaluate(ds.test, model)
    if kind == "qsann":
        training.evaluate(ds.test, model, NOISES[1], 16, np.random.default_rng(0))
        with pytest.raises(AssertionError, match="AttentionMatrix"):  # export does build one
            forward(ds.test[0].token_ids, model)
