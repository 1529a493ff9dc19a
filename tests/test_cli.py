import base64
import csv
import json
import math

import numpy as np
import pytest

from conftest import build_random_model
from qsann import cli, data, model as model_mod, training
from qsann.baselines import init_csann, init_naive
from qsann.checkpoint import load_checkpoint, save_checkpoint, write_atomic
from qsann.cli import RunConfig, _write_json, load_preset, main
from qsann.errors import ConfigurationError, ParseError


@pytest.fixture(scope="module")
def toy_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.tsv"
    data.write_tsv(data.make_separable_corpus(seed=11, n_samples=40), path)
    return path


def fast_config(toy_tsv, **overrides):
    values = {
        "dataset_path": str(toy_tsv),
        "model": "qsann",
        "ratios": [0.7, 0.3],
        "epochs": 3,
        "seeds": [0, 1],
        "learning_rate": 0.008,
    }
    values.update(overrides)
    return values


def run_train(tmp_path, toy_tsv, name="run", **overrides):
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(fast_config(toy_tsv, **overrides)))
    out = tmp_path / f"{name}_out"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    return code, out


class TestCheckpointRoundTrip:
    def test_qsann_round_trip(self, rng, tmp_path):
        model = build_random_model(rng, vocab_size=4)
        vocab = data.Vocabulary([data.OOV_TOKEN, "a", "b", "c"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, vocab, {"source_path": "x.tsv"})
        loaded, vocab2, doc = load_checkpoint(path)
        assert vocab2.id_to_token == vocab.id_to_token
        assert doc["schema_version"] == 1
        assert np.array_equal(loaded.head_w, model.head_w)
        assert np.array_equal(loaded.embeddings.rows, model.embeddings.rows)
        for ids in ([1, 2], [3]):
            assert model_mod.forward(ids, loaded).y_hat == model_mod.forward(ids, model).y_hat

    def test_baseline_round_trips(self, rng, tmp_path):
        vocab = data.Vocabulary([data.OOV_TOKEN, "a"])
        for params in (init_csann(2, 4, rng), init_naive(2, 4, rng)):
            path = tmp_path / "b.json"
            save_checkpoint(path, params, vocab, {})
            loaded, _, _ = load_checkpoint(path)
            assert np.array_equal(loaded.head_w, params.head_w)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_wrong_schema_version(self, rng, tmp_path):
        model = build_random_model(rng, vocab_size=2)
        vocab = data.Vocabulary([data.OOV_TOKEN, "a"])
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, vocab, {})
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["qsann", "csann", "naive"])
    def test_loading_draws_nothing(self, rng, tmp_path, monkeypatch, kind):
        # the stored arrays fill zero arrays; no parameter is drawn and thrown away
        vocab = data.Vocabulary([data.OOV_TOKEN, "a", "b", "c"])
        settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 2,
                    "lam": 0.1, "gamma": 0.2, "dim": 3}
        entry = training.MODEL_KINDS[kind]
        model = entry.init(settings, vocab.size, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, vocab, {})

        def refuse(*args):
            raise AssertionError("a loaded model must not be drawn")

        monkeypatch.setattr(model_mod, "init_parameters", refuse)
        loaded, _, _ = load_checkpoint(path)
        saved, read = entry.params(model), entry.params(loaded)
        assert list(read) == list(saved)
        for key in saved:
            assert np.array_equal(read[key], saved[key]), key
        if kind == "qsann":  # the default observables stay the shared set
            assert loaded.observables is model.observables

    @pytest.mark.parametrize("kind", ["qsann", "csann", "naive"])
    def test_save_load_save_identical_bytes(self, rng, tmp_path, kind):
        vocab = data.Vocabulary([data.OOV_TOKEN, "a", "b", "c"])
        model = {
            "qsann": lambda: build_random_model(rng, vocab_size=4),
            "csann": lambda: init_csann(4, 3, rng, lam=0.1, gamma=0.2),
            "naive": lambda: init_naive(4, 3, rng, lam=0.1),
        }[kind]()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_checkpoint(first, model, vocab, {"source_path": "x.tsv"})
        loaded, vocab2, doc = load_checkpoint(first)
        assert doc["model_kind"] == kind
        assert ("observables" in doc) == (kind == "qsann")
        save_checkpoint(second, loaded, vocab2, doc["dataset"])
        assert first.read_bytes() == second.read_bytes()

    def _saved_doc(self, rng, tmp_path):
        path = tmp_path / "ckpt.json"
        vocab = data.Vocabulary([data.OOV_TOKEN, "a", "b"])
        save_checkpoint(path, build_random_model(rng, vocab_size=3), vocab, {})
        return path, json.loads(path.read_text())

    def _encoded(self, arr):
        arr = np.asarray(arr, dtype=np.float64)
        return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode()}

    def test_array_shape_must_match_config(self, rng, tmp_path):
        path, doc = self._saved_doc(rng, tmp_path)
        doc["params"]["head_w"] = self._encoded(np.zeros(5))  # config implies 6
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="head_w"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path)]) == 2

    def test_non_finite_array_rejected(self, rng, tmp_path):
        path, doc = self._saved_doc(rng, tmp_path)
        doc["params"]["layer0.theta_k"] = self._encoded([0.1, np.nan, 0, 0, 0, 0])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="non-finite"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path)]) == 2

    def test_vocab_hash_must_match_vocabulary(self, rng, tmp_path):
        path, doc = self._saved_doc(rng, tmp_path)
        doc["vocabulary"] = [data.OOV_TOKEN, "a", "z"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="vocab_sha256"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path)]) == 2


class TestAtomicWrites:
    def test_write_failing_part_way_keeps_previous_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("old\n")

        def write(handle):
            handle.write("partial")
            raise RuntimeError("serialisation failed")

        with pytest.raises(RuntimeError):
            write_atomic(path, write)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.jsonl"]

    @pytest.mark.parametrize("writer", ["json", "checkpoint"])
    def test_unserialisable_document_keeps_previous_file(self, rng, tmp_path, writer):
        # the late key sorts last, so a streaming writer would leave a partial file
        path = tmp_path / "artifact.json"
        model = build_random_model(rng, vocab_size=2)
        vocab = data.Vocabulary([data.OOV_TOKEN, "a"])
        if writer == "json":
            _write_json(path, {"a": 1})
            with pytest.raises(TypeError):
                _write_json(path, {"a": 2, "zz": object()})
        else:
            save_checkpoint(path, model, vocab, {})
            before = path.read_bytes()
            with pytest.raises(TypeError):
                save_checkpoint(path, model, vocab, {"zz": object()})
            assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
        assert path.read_text().endswith("}\n")


class TestRunConfig:
    def test_qsann_dimension_enforced(self):
        with pytest.raises(ConfigurationError):
            RunConfig(dataset_path="d.tsv", n_qubits=2, enc_depth=1, embed_dim=7)

    def test_noise_only_for_qsann(self):
        with pytest.raises(ConfigurationError):
            RunConfig(dataset_path="d.tsv", model="naive", noise_kind="depolarizing", noise_p=0.1)

    def test_noise_p_range(self):
        with pytest.raises(ConfigurationError):
            RunConfig(dataset_path="d.tsv", noise_kind="depolarizing", noise_p=1.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict({"dataset_path": "d.tsv", "typo_key": 1})

    def test_baseline_default_dimension(self):
        cfg = RunConfig(dataset_path="d.tsv", model="csann")
        assert cfg.embed_dim == 16

    def test_presets_parse(self):
        for name in ("mc", "rp", "yelp", "imdb", "amazon", "toy"):
            values = load_preset(name)
            values["dataset_path"] = "d.tsv"
            RunConfig.from_dict(values)

    @pytest.mark.parametrize("fields", [
        {"n_qubits": 2.0}, {"n_qubits": True}, {"n_qubits": np.int64(2)}, {"lam": np.float32(0.1)},
        {"seeds": [0, 1.5]}, {"learning_rate": "x"},
    ], ids=str)
    def test_fields_config_json_cannot_hold_refused(self, fields):
        # numpy scalars but float64 are refused too: config.json must hold every value
        with pytest.raises(ConfigurationError):
            RunConfig(dataset_path="d.tsv", **fields)

    def test_float64_accepted(self):
        assert RunConfig(dataset_path="d.tsv", lam=np.float64(0.1)).lam == 0.1

    def test_p_zero_noise_short_circuits(self):
        cfg = RunConfig(dataset_path="d.tsv", noise_kind="depolarizing", noise_p=0.0)
        assert cfg.noise_channel() is None


# the widest csann whose three float64 d x d projections, in the copies training holds of
# every parameter, fit the engine memory budget
CSANN_MAX_DIM = math.isqrt(model_mod.ENGINE_MEMORY_BUDGET // (training.TABLE_COPIES * 24))


def test_csann_projections_checked_against_the_budget(tmp_path, toy_tsv, capsys, monkeypatch):
    # RunConfig only checks the width: nothing of that size is allocated
    assert RunConfig(str(toy_tsv), "csann", embed_dim=CSANN_MAX_DIM).embed_dim == CSANN_MAX_DIM
    with pytest.raises(ConfigurationError, match="budget"):
        RunConfig(str(toy_tsv), "csann", embed_dim=CSANN_MAX_DIM + 1)
    assert RunConfig(str(toy_tsv), "naive", embed_dim=CSANN_MAX_DIM + 1).model == "naive"

    def never(cfg):  # were the width let through, no model is built from it here
        raise AssertionError("the config was accepted")

    monkeypatch.setattr(cli, "_build_dataset", never)
    out = tmp_path / "out"
    code = main(["train", "--dataset", str(toy_tsv), "--set", "model=csann",
                 "--set", f"embed_dim={CSANN_MAX_DIM + 1}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--set", "epochs=1.5"],
        ["train", "--set", "n_qubits=abc"],
        ["train", "--set", "n_qubits=2.0"],
        ["train", "--set", "seeds=3"],
        ["noise-sweep", "--p-list", "abc"],
        ["train", "--set", "n_qubits=20"],
        ["train", "--set", "learning_rate=NaN"],
        ["train", "--set", "lam=Infinity"],
        ["train", "--set", "stop_tol=NaN"],
        ["train", "--set", "gamma=Infinity"],
        ["train", "--seeds=-1"],
        ["train", "--set", "split_seed=-1"],
        ["train", "--set", "model=csann", "--set", "embed_dim=0"],
        ["train", "--set", "model=naive", "--set", "embed_dim=0"],
        ["train", "--set", "model=csann", "--set", "embed_dim=-2"],
        ["train", "--set", "noise_p=0.1"],
        ["train", "--set", "ratios=[NaN,0.2]"],
        ["noise-sweep", "--p-list", ""],
        ["noise-sweep", "--channels", ""],
        ["noise-sweep", "--p-list", ","],
        ["noise-sweep", "--p-list", "0.1,0.1"],
        ["noise-sweep", "--p-list", "0.1,0.2,0.10"],
        ["noise-sweep", "--p-list", "0.1,0.1000001"],
        ["train", "--set", "seeds=[0,0]"],
        ["noise-sweep", "--channels", "depolarizing,depolarizing"],
        ["train", "--seeds", "1,01"],
        ["noise-sweep", "--p-list", "0.1,1.5"],
        ["noise-sweep", "--channels", "depolarizing,bogus"],
        ["noise-sweep", "--p-list", "0", "--channels", "bogus"],
        ["train", "--preset", "nope"],
        ["train", "--set", "epochs"],
        ["train", "--set", "model=bert"],
        ["train", "--set", "seeds=[]"],
        ["train", "--set", "noise_kind=bogus", "--set", "noise_p=0.1"],
        ["train", "--set", "noise_kind=depolarizing"],
        ["train", "--set", "noise_kind=depolarizing", "--set", "noise_p=1.5"],
    ],
)
def test_mistyped_settings_are_usage_errors(tmp_path, toy_tsv, capsys, argv):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(toy_tsv)))
    out = tmp_path / "out"
    code = main(argv[:1] + ["--config", str(cfg_path), "--out", str(out)] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "{not json"])
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def toy_command(command, toy_tsv, out, *extra):
    argv = [command, "--preset", "toy", "--dataset", str(toy_tsv), "--epochs", "1", *extra]
    return argv + (["--p-list", "0,0.1"] if command == "noise-sweep" else []) + ["--out", str(out)]


@pytest.mark.parametrize("command", ["train", "noise-sweep"])
def test_geometry_short_of_observables_refused_before_anything_is_written(
    tmp_path, toy_tsv, capsys, command
):
    # one qubit at encoder depth 2 embeds 4 dimensions, and one qubit has 3 Pauli observables
    out = tmp_path / "out"
    geometry = ["--seeds", "0", "--set", "n_qubits=1", "--set", "enc_depth=2"]
    code = main(toy_command(command, toy_tsv, out, *geometry))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "cannot build 4 observables on 1 qubits" in err
    assert not out.exists()
    with pytest.raises(ConfigurationError):
        RunConfig(str(toy_tsv), n_qubits=1, enc_depth=2)


@pytest.mark.parametrize(
    "command,blocker",
    [("train", "seed_1"), ("noise-sweep", "depolarizing_p0.1"),
     ("noise-sweep", "amplitude_damping_p0/seed_1")],
)
def test_file_in_place_of_a_seed_directory_refused_before_anything_is_written(
    tmp_path, toy_tsv, capsys, command, blocker
):
    out = tmp_path / "out"
    (out / blocker).parent.mkdir(parents=True)
    (out / blocker).write_text("")
    before = sorted(out.rglob("*"))
    code = main(toy_command(command, toy_tsv, out, "--seeds", "0,1"))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot create output directory {out / blocker}: a file has its name" in err
    assert sorted(out.rglob("*")) == before


def test_embedding_table_checked_against_the_budget(tmp_path, toy_tsv, capsys, monkeypatch):
    # the copies of a vocab x embed_dim float64 table that training holds at once;
    # checked once the dataset gives the vocabulary
    vocab = cli._build_dataset(RunConfig(str(toy_tsv))).vocabulary.size
    widest = model_mod.ENGINE_MEMORY_BUDGET // (training.TABLE_COPIES * 8 * vocab)

    class Reached(Exception):
        pass

    def reached(*args):  # nothing of that width is allocated, accepted or not
        raise Reached

    monkeypatch.setattr(cli, "_run_experiment", reached)
    argv = ["train", "--dataset", str(toy_tsv), "--set", "model=naive", "--out"]
    with pytest.raises(Reached):
        main(argv + [str(tmp_path / "widest"), "--set", f"embed_dim={widest}"])
    out = tmp_path / "over"
    code = main(argv + [str(out), "--set", f"embed_dim={widest + 1}"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "embedding table" in err
    assert not out.exists()


def test_csann_table_and_projections_checked_together(tmp_path, toy_tsv, capsys, monkeypatch):
    # at the widest csann the table's copies and the projections' each fit, but not together
    vocab = cli._build_dataset(RunConfig(str(toy_tsv))).vocabulary.size
    table = training.TABLE_COPIES * 8 * vocab * CSANN_MAX_DIM
    projections = training.TABLE_COPIES * 24 * CSANN_MAX_DIM**2
    budget = model_mod.ENGINE_MEMORY_BUDGET
    assert table <= budget and projections <= budget < table + projections

    def never(*args):  # nothing of that width is allocated
        raise AssertionError("the width was accepted")

    monkeypatch.setattr(cli, "_run_experiment", never)
    out = tmp_path / "out"
    code = main(["train", "--dataset", str(toy_tsv), "--set", "model=csann",
                 "--set", f"embed_dim={CSANN_MAX_DIM}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert "table and projections" in err and str(table + projections) in err
    assert not out.exists()


def test_sentence_length_checked_against_the_budget(tmp_path, toy_tsv, capsys, monkeypatch):
    # a sentence's (S, S) attention arrays, checked once the dataset is built; the budget is
    # made small, so nothing large is allocated either way
    configs = [RunConfig(str(toy_tsv), model) for model in ("naive", "csann", "qsann")]
    deeper = RunConfig(str(toy_tsv), "qsann", n_layers=2)  # 8 B more per word pair
    splits = cli._build_dataset(configs[0]).splits.values()
    longest = max(len(item.token_ids) for split in splits for item in split)
    need = (model_mod.PAIR_BYTES + 8) * longest**2
    monkeypatch.setattr(model_mod, "ENGINE_MEMORY_BUDGET", need)
    for cfg in configs:
        assert cli._build_dataset(cfg).train
    more = need + 8 * longest**2
    with pytest.raises(ConfigurationError, match=f"a {longest}-word sentence needs {more} "):
        cli._build_dataset(deeper)
    monkeypatch.setattr(model_mod, "ENGINE_MEMORY_BUDGET", need - 1)
    for cfg in configs:
        with pytest.raises(ConfigurationError, match=f"a {longest}-word sentence needs {need} "):
            cli._build_dataset(cfg)
    out = tmp_path / "out"
    code = main(["train", "--dataset", str(toy_tsv), "--set", "model=naive", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert f"a {longest}-word sentence needs {need} bytes" in err
    assert not out.exists()


class TestCmdTrain:
    def test_artifacts_and_summary(self, tmp_path, toy_tsv):
        code, out = run_train(tmp_path, toy_tsv)
        assert code == 0
        assert (out / "config.json").exists()
        assert (out / "manifest.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["model"] == "qsann"
        assert summary["parameter_count"] == {"qkv": 18, "head": 7, "total": 25}
        assert len(summary["per_seed"]) == 2
        assert summary["mean_test_acc"] is not None
        for seed in (0, 1):
            assert (out / f"seed_{seed}" / "metrics.jsonl").exists()
            assert (out / f"seed_{seed}" / "checkpoint.json").exists()
            assert (out / f"seed_{seed}" / "timing.json").exists()

    def test_mc_preset_parameter_count(self, tmp_path, toy_tsv):
        out = tmp_path / "mc_out"
        code = main([
            "train", "--preset", "mc", "--dataset", str(toy_tsv),
            "--seeds", "0", "--epochs", "2", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["parameter_count"]["total"] == 25

    def test_summary_lists_one_accuracy_per_seed(self, tmp_path, toy_tsv):
        code, out = run_train(tmp_path, toy_tsv, name="three", seeds=[3, 4, 5])
        summary = json.loads((out / "summary.json").read_text())
        accs = [row["final_test_acc"] for row in summary["per_seed"]]
        assert len(accs) == 3
        assert summary["seeds"] == [3, 4, 5]
        assert summary["mean_test_acc"] == pytest.approx(float(np.mean(accs)))
        assert summary["std_test_acc"] == pytest.approx(float(np.std(accs)))

    def test_missing_dataset_no_artifacts(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dataset_path": str(tmp_path / "nope.tsv")}))
        out = tmp_path / "never"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_dataset_exit_two(self, tmp_path, capsys, kind):
        path = tmp_path / "corpus.tsv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("tr\u00e8s bon\t1\nmauvais\t0\n".encode("latin-1"))
        out = tmp_path / "out"
        code = main(["train", "--dataset", str(path), "--seeds", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_dataset_path_key(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        code = main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_determinism_byte_identical_metrics(self, tmp_path, toy_tsv):
        _, out_a = run_train(tmp_path, toy_tsv, name="det_a")
        _, out_b = run_train(tmp_path, toy_tsv, name="det_b")
        for seed in (0, 1):
            a = (out_a / f"seed_{seed}" / "metrics.jsonl").read_bytes()
            b = (out_b / f"seed_{seed}" / "metrics.jsonl").read_bytes()
            assert a == b

    def test_config_round_trip(self, tmp_path, toy_tsv):
        _, out_a = run_train(tmp_path, toy_tsv, name="orig")
        out_b = tmp_path / "replay"
        code = main(["train", "--config", str(out_a / "config.json"), "--out", str(out_b)])
        assert code == 0
        for seed in (0, 1):
            for name in ("metrics.jsonl", "checkpoint.json"):
                assert (out_a / f"seed_{seed}" / name).read_bytes() == (
                    out_b / f"seed_{seed}" / name
                ).read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_csann_and_naive_kinds(self, tmp_path, toy_tsv):
        for kind, total in (("csann", 785), ("naive", 17)):
            code, out = run_train(tmp_path, toy_tsv, name=kind, model=kind, epochs=2, seeds=[0])
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["parameter_count"]["total"] == total


class TestCmdEval:
    def test_reproduces_final_test_accuracy(self, tmp_path, toy_tsv):
        _, out = run_train(tmp_path, toy_tsv, name="eval_src")
        metrics = [
            json.loads(line)
            for line in (out / "seed_0" / "metrics.jsonl").read_text().splitlines()
        ]
        report_path = tmp_path / "report.json"
        code = main([
            "eval", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--out", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] == metrics[-1]["test_acc"]

    def test_corrupt_checkpoint_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["eval", "--checkpoint", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["eval", "attention"])
    def test_vocab_hash_mismatch(self, tmp_path, toy_tsv, capsys, command):
        _, out = run_train(tmp_path, toy_tsv, name="hash_src")
        other = tmp_path / "other.tsv"
        data.write_tsv(data.make_separable_corpus(seed=99, n_samples=40), other)
        extra = ["--indices", "0", "--out", str(tmp_path / "csv")] if command == "attention" else []
        capsys.readouterr()
        code = main([
            command, "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--dataset", str(other),
        ] + extra)
        assert code == 2
        assert "vocabulary hash mismatch" in capsys.readouterr().err

    def test_empty_requested_split(self, tmp_path, toy_tsv):
        _, out = run_train(tmp_path, toy_tsv, name="dev_empty")
        code = main([
            "eval", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--split", "dev",
        ])
        assert code == 2

    def test_shot_sampling_mode(self, tmp_path, toy_tsv):
        _, out = run_train(tmp_path, toy_tsv, name="shots_src")
        code = main([
            "eval", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--shots", "32", "--shot-seed", "7",
        ])
        assert code == 0


    @pytest.mark.parametrize("shots", ["0", "-1"])
    def test_shots_below_one_exit_two(self, tmp_path, toy_tsv, capsys, shots):
        _, out = run_train(tmp_path, toy_tsv, name="bad_shots", seeds=[0], epochs=1)
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--shots", shots,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("shots", [[], ["--shots", "8"]])
    def test_negative_shot_seed_exit_two(self, tmp_path, toy_tsv, capsys, shots):
        _, out = run_train(tmp_path, toy_tsv, name="bad_seed", seeds=[0], epochs=1)
        report = tmp_path / "report.json"
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--shot-seed", "-1", "--out", str(report),
        ] + shots)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not report.exists()


class TestCmdAttention:
    def test_csv_outputs(self, tmp_path, toy_tsv):
        _, out = run_train(tmp_path, toy_tsv, name="attn_src")
        attn_dir = tmp_path / "attn"
        code = main([
            "attention", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--indices", "0,1", "--out", str(attn_dir),
        ])
        assert code == 0
        ds = data.build_splits(data.load_tsv(toy_tsv), [0.7, 0.3], 0, drop_empty=True)
        for idx in (0, 1):
            sample = ds.test[idx]
            words = ds.vocabulary.decode(sample.token_ids)
            with open(attn_dir / f"sample{idx}_layer0_avg.csv") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == words
            avg = [float(v) for v in rows[1]]
            assert sum(avg) == pytest.approx(1.0, abs=1e-9)
            with open(attn_dir / f"sample{idx}_layer0_matrix.csv") as handle:
                mrows = list(csv.reader(handle))
            assert mrows[0] == words
            matrix = np.array([[float(v) for v in row] for row in mrows[1:]])
            assert matrix.shape == (len(words), len(words))
            assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) < 1e-9
            assert np.allclose(matrix.mean(axis=0), avg, atol=1e-12)

    @pytest.mark.parametrize("indices", ["", ",", "1,1", "0,2,00"])
    def test_empty_or_repeated_index_list_exit_two(self, tmp_path, toy_tsv, capsys, indices):
        _, out = run_train(tmp_path, toy_tsv, name="attn_empty", seeds=[0], epochs=1)
        attn_dir = tmp_path / "csv_none"
        capsys.readouterr()
        code = main([
            "attention", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--indices", indices, "--out", str(attn_dir),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not attn_dir.exists()

    def test_index_out_of_range(self, tmp_path, toy_tsv):
        _, out = run_train(tmp_path, toy_tsv, name="attn_oob")
        code = main([
            "attention", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--indices", "99", "--out", str(tmp_path / "attn2"),
        ])
        assert code == 2

    def test_single_word_sample(self, rng, tmp_path):
        # one-word sequence: the averaged coefficient row is exactly [1.0]
        corpus = [("solo", 1), ("duo trio", 0)] * 10
        tsv = tmp_path / "mini.tsv"
        data.write_tsv(corpus, tsv)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset_path": str(tsv), "epochs": 1, "seeds": [0], "ratios": [0.5, 0.5],
        }))
        out = tmp_path / "mini_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ds = data.build_splits(corpus, [0.5, 0.5], 0, drop_empty=True)
        solo_idx = next(i for i, s in enumerate(ds.test) if len(s.token_ids) == 1)
        attn_dir = tmp_path / "attn_solo"
        assert main([
            "attention", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--indices", str(solo_idx), "--out", str(attn_dir),
        ]) == 0
        rows = list(csv.reader(open(attn_dir / f"sample{solo_idx}_layer0_avg.csv")))
        assert [float(v) for v in rows[1]] == [1.0]


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory, toy_tsv):
    """A one-epoch, one-seed qsann checkpoint trained on the toy corpus."""
    root = tmp_path_factory.mktemp("ckpt_src")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(fast_config(toy_tsv, seeds=[0], epochs=1)))
    assert main(["train", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return root / "run" / "seed_0" / "checkpoint.json"


MALFORMED_RECIPES = {
    "list": lambda recipe: sorted(recipe),
    "ratios-string": lambda recipe: {**recipe, "ratios": "ab"},
    "split-seed-string": lambda recipe: {**recipe, "split_seed": "x"},
    "split-seed-negative": lambda recipe: {**recipe, "split_seed": -1},
    "noise-p-string": lambda recipe: {**recipe, "noise_kind": "depolarizing", "noise_p": "x"},
    "no-ratios": lambda recipe: {k: v for k, v in recipe.items() if k != "ratios"},
    "no-source-path": lambda recipe: {k: v for k, v in recipe.items() if k != "source_path"},
}


def _with_params(doc, **params):
    return {**doc, "params": {k: v for k, v in {**doc["params"], **params}.items() if v}}


MALFORMED_DOCS = {
    "unknown-kind": lambda doc: {**doc, "model_kind": "bert"},
    "missing-array": lambda doc: _with_params(doc, head_w=None),
    "bad-base64": lambda doc: _with_params(doc, head_w={**doc["params"]["head_w"], "data": "a"}),
    "reordered-observables": lambda doc: {**doc, "observables": doc["observables"][::-1]},
}


class TestCheckpointRecipe:
    def run(self, command, path, tmp_path, capsys):
        command = [command] if isinstance(command, str) else command
        csv_dir = tmp_path / "csv"
        extra = ["--indices", "0", "--out", str(csv_dir)] if command[0] == "attention" else []
        capsys.readouterr()
        code = main(command + ["--checkpoint", str(path)] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not csv_dir.exists()

    @pytest.mark.parametrize("command", ["eval", "attention"])
    @pytest.mark.parametrize("recipe", sorted(MALFORMED_RECIPES))
    def test_malformed_recipe_exit_two(self, tmp_path, toy_checkpoint, capsys, command, recipe):
        # the split and the noise are rebuilt through RunConfig's checks; no key has a default
        doc = json.loads(toy_checkpoint.read_text())
        doc["dataset"] = MALFORMED_RECIPES[recipe](doc["dataset"])
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(doc))
        self.run(command, path, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["eval", "attention"])
    @pytest.mark.parametrize("edit", sorted(MALFORMED_DOCS))
    def test_malformed_model_exit_two(self, tmp_path, toy_checkpoint, capsys, command, edit):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(MALFORMED_DOCS[edit](json.loads(toy_checkpoint.read_text()))))
        self.run(command, path, tmp_path, capsys)

    def saved(self, rng, tmp_path, toy_checkpoint, kind):
        """A fresh model of that kind saved with the toy checkpoint's vocabulary and recipe."""
        settings = {"n_qubits": 2, "enc_depth": 1, "qkv_depth": 1, "n_layers": 1,
                    "lam": 0.0, "gamma": 0.0, "dim": 6}
        trained = json.loads(toy_checkpoint.read_text())
        vocab = data.Vocabulary(trained["vocabulary"])
        path = tmp_path / "ckpt.json"
        model = training.MODEL_KINDS[kind].init(settings, vocab.size, rng)
        save_checkpoint(path, model, vocab, trained["dataset"])
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("command", ["eval", "attention"])
    @pytest.mark.parametrize("kind", sorted(training.MODEL_KINDS))
    @pytest.mark.parametrize("key,value", [("lam", float("nan")), ("gamma", float("inf")),
                                           ("lam", -0.1), ("lam", "x"), ("gamma", None)])
    def test_bad_penalty_exit_two(self, rng, tmp_path, toy_checkpoint, capsys,
                                  command, kind, key, value):
        path, doc = self.saved(rng, tmp_path, toy_checkpoint, kind)
        doc["model_config"][key] = value
        path.write_text(json.dumps(doc))
        self.run(command, path, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["eval", "attention"])
    def test_baseline_with_observables_exit_two(self, rng, tmp_path, toy_checkpoint, capsys,
                                                 command):
        path, doc = self.saved(rng, tmp_path, toy_checkpoint, "csann")
        doc["observables"] = json.loads(toy_checkpoint.read_text())["observables"]
        path.write_text(json.dumps(doc))
        self.run(command, path, tmp_path, capsys)

    @pytest.mark.parametrize("command", [["eval", "--shots", "8"], ["attention"]])
    def test_quantum_only_commands_refuse_a_baseline(self, rng, tmp_path, toy_checkpoint,
                                                     capsys, command):
        path, _ = self.saved(rng, tmp_path, toy_checkpoint, "csann")
        self.run(command, path, tmp_path, capsys)


class TestCmdNoiseSweep:
    def test_zero_noise_matches_noiseless_run(self, tmp_path, toy_tsv):
        _, baseline_out = run_train(tmp_path, toy_tsv, name="sweep_base", seeds=[0], epochs=2)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(fast_config(toy_tsv, seeds=[0], epochs=2)))
        sweep_out = tmp_path / "sweep_out"
        code = main([
            "noise-sweep", "--config", str(cfg_path), "--out", str(sweep_out),
            "--p-list", "0,0.75", "--channels", "depolarizing",
        ])
        assert code == 0
        sweep = json.loads((sweep_out / "sweep_summary.json").read_text())
        assert len(sweep["points"]) == 2
        baseline = json.loads((baseline_out / "summary.json").read_text())
        zero_point = next(p for p in sweep["points"] if p["p"] == 0)
        assert zero_point["accuracies"] == [
            row["final_test_acc"] for row in baseline["per_seed"]
        ]
        # identical artifacts, not just accuracies
        a = (baseline_out / "seed_0" / "metrics.jsonl").read_bytes()
        b = (sweep_out / "depolarizing_p0" / "seed_0" / "metrics.jsonl").read_bytes()
        assert a == b

    def test_noiseless_level_trained_once_for_every_channel(
        self, tmp_path, toy_tsv, monkeypatch
    ):
        _, baseline_out = run_train(tmp_path, toy_tsv, name="base", seeds=[0, 1], epochs=2)
        noises = []
        original_train = training.train

        def recording_train(*args, noise=None, **kwargs):
            noises.append(noise)
            return original_train(*args, noise=noise, **kwargs)

        monkeypatch.setattr(training, "train", recording_train)
        cfg_path = tmp_path / "sweep_both.json"
        cfg_path.write_text(json.dumps(fast_config(toy_tsv, seeds=[0, 1], epochs=2)))
        sweep_out = tmp_path / "sweep_both_out"
        assert main([
            "noise-sweep", "--config", str(cfg_path), "--out", str(sweep_out),
            "--p-list", "0,0.1",
        ]) == 0
        assert noises.count(None) == 2  # once per seed, not once per channel
        assert len(noises) == 6
        sweep = json.loads((sweep_out / "sweep_summary.json").read_text())
        zero_points = [p for p in sweep["points"] if p["p"] == 0]
        assert [p["channel"] for p in zero_points] == ["depolarizing", "amplitude_damping"]
        assert zero_points[0]["accuracies"] == zero_points[1]["accuracies"]
        for kind in ("depolarizing", "amplitude_damping"):
            for seed in (0, 1):
                for name in ("metrics.jsonl", "checkpoint.json"):
                    a = (baseline_out / f"seed_{seed}" / name).read_bytes()
                    assert (sweep_out / f"{kind}_p0" / f"seed_{seed}" / name).read_bytes() == a

    def test_both_channels_and_levels_enumerated(self, tmp_path, toy_tsv):
        cfg_path = tmp_path / "sweep2.json"
        cfg_path.write_text(json.dumps(fast_config(toy_tsv, seeds=[0], epochs=1)))
        sweep_out = tmp_path / "sweep2_out"
        code = main([
            "noise-sweep", "--config", str(cfg_path), "--out", str(sweep_out),
            "--p-list", "0.1,0.2",
        ])
        assert code == 0
        sweep = json.loads((sweep_out / "sweep_summary.json").read_text())
        combos = {(p["channel"], p["p"]) for p in sweep["points"]}
        assert combos == {
            ("depolarizing", 0.1), ("depolarizing", 0.2),
            ("amplitude_damping", 0.1), ("amplitude_damping", 0.2),
        }
        for point in sweep["points"]:
            assert len(point["accuracies"]) == 1

    def test_negative_zero_level_is_level_zero(self, tmp_path, toy_tsv):
        sweep_out = tmp_path / "sweep_negative_zero"
        assert main([
            "noise-sweep", "--preset", "toy", "--dataset", str(toy_tsv), "--seeds", "0",
            "--epochs", "1", "--channels", "depolarizing", "--p-list=-0,0.1",
            "--out", str(sweep_out),
        ]) == 0
        assert sorted(path.name for path in sweep_out.glob("depolarizing_*")) == [
            "depolarizing_p0", "depolarizing_p0.1",
        ]
        text = (sweep_out / "sweep_summary.json").read_text()
        assert [point["p"] for point in json.loads(text)["points"]] == [0.0, 0.1]
        assert '"p": 0.0' in text and "-0.0" not in text

    def test_invalid_p_rejected(self, tmp_path, toy_tsv):
        cfg_path = tmp_path / "sweep3.json"
        cfg_path.write_text(json.dumps(fast_config(toy_tsv)))
        code = main([
            "noise-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
            "--p-list", "1.5",
        ])
        assert code == 2

    def test_baseline_model_rejected(self, tmp_path, toy_tsv):
        cfg_path = tmp_path / "sweep4.json"
        cfg_path.write_text(json.dumps(fast_config(toy_tsv, model="naive")))
        code = main([
            "noise-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "y"),
        ])
        assert code == 2


class TestOutputRoot:
    def test_env_var_used_when_out_missing(self, tmp_path, toy_tsv, monkeypatch):
        monkeypatch.setenv("QSANN_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(toy_tsv, seeds=[0], epochs=1)))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "cfg_qsann" / "summary.json").exists()

    def test_error_without_root_or_out(self, tmp_path, toy_tsv, monkeypatch):
        monkeypatch.delenv("QSANN_OUTPUT_ROOT", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(toy_tsv)))
        assert main(["train", "--config", str(cfg_path)]) == 2


class TestRefusedBeforeWriting:
    """Exit 2, one stderr line, and nothing written: not even the run's config."""

    def refused(self, argv, capsys):
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("command", [["train"], ["noise-sweep", "--p-list", "0,0.1"]])
    def test_empty_training_split(self, tmp_path, toy_tsv, capsys, command):
        out = tmp_path / "out"
        err = self.refused(command + [
            "--preset", "toy", "--dataset", str(toy_tsv), "--seeds", "0",
            "--set", "ratios=[0.0,1.0]", "--out", str(out),
        ], capsys)
        assert "training split empty" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["train"], ["noise-sweep", "--p-list", "0,0.1"]])
    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_training_output_directory_under_or_at_a_file(
        self, tmp_path, toy_tsv, capsys, command, below
    ):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        err = self.refused(command + [
            "--preset", "toy", "--dataset", str(toy_tsv), "--seeds", "0",
            "--out", str(taken.joinpath(*below)),
        ], capsys)
        assert "cannot create output directory" in err
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    def test_attention_output_directory_is_a_file(self, tmp_path, toy_checkpoint, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        self.refused([
            "attention", "--checkpoint", str(toy_checkpoint), "--indices", "0",
            "--out", str(taken),
        ], capsys)
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"

    @pytest.mark.parametrize("report", ["missing/report.json", "taken/report.json", "."])
    def test_eval_report_path_refused_before_evaluating(
        self, tmp_path, toy_checkpoint, capsys, monkeypatch, report
    ):
        def never(*args, **kwargs):
            raise AssertionError("evaluated before the report path was checked")

        monkeypatch.setattr(training, "evaluate", never)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        err = self.refused([
            "eval", "--checkpoint", str(toy_checkpoint), "--out", str(tmp_path / report),
        ], capsys)
        assert "must name a file in an existing directory" in err
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"
