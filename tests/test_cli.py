import base64
import csv
import json

import numpy as np
import pytest

from conftest import build_random_model
from qsann import data, model as model_mod
from qsann.baselines import init_csann, init_naive
from qsann.checkpoint import load_checkpoint, save_checkpoint
from qsann.cli import RunConfig, load_preset, main
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

    def test_p_zero_noise_short_circuits(self):
        cfg = RunConfig(dataset_path="d.tsv", noise_kind="depolarizing", noise_p=0.0)
        assert cfg.noise_channel() is None


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--set", "epochs=1.5"],
        ["train", "--set", "n_qubits=abc"],
        ["train", "--set", "n_qubits=2.0"],
        ["train", "--set", "seeds=3"],
        ["noise-sweep", "--p-list", "abc"],
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

    def test_vocab_hash_mismatch(self, tmp_path, toy_tsv):
        _, out = run_train(tmp_path, toy_tsv, name="hash_src")
        other = tmp_path / "other.tsv"
        data.write_tsv(data.make_separable_corpus(seed=99, n_samples=40), other)
        code = main([
            "eval", "--checkpoint", str(out / "seed_0" / "checkpoint.json"),
            "--dataset", str(other),
        ])
        assert code == 2

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
