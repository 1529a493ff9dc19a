"""Command-line entry points: train, eval, attention, noise-sweep.

Runs are driven by JSON key/value config files (presets for the standard
experiment settings ship with the package); command-line flags override file
values.  All artifacts are schema-versioned JSON/JSONL/CSV designed for
external plotting tools, and are deterministic functions of (config, seed):
wall-clock timings go to a separate timing file so metrics logs are
byte-reproducible.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import checkpoint, data, model as model_mod, training
from .errors import ConfigurationError, ParseError, QsannError, check_field_types
from .sim import NoiseChannel

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "QSANN_OUTPUT_ROOT"
MODEL_KINDS = tuple(training.MODEL_KINDS)


@dataclass
class RunConfig:
    """Everything one training run needs, as stored in config.json."""

    dataset_path: str = ""  # required: __post_init__ refuses an empty path
    model: str = "qsann"
    ratios: list[float] = field(default_factory=lambda: [0.8, 0.2])
    split_seed: int = 0
    drop_empty: bool = True
    n_qubits: int = 2
    enc_depth: int = 1
    qkv_depth: int = 1
    n_layers: int = 1
    embed_dim: int | None = None
    lam: float = 0.0
    gamma: float = 0.0
    learning_rate: float = 0.008
    epochs: int = 100
    batch_size: int = 1
    seeds: list[int] = field(default_factory=lambda: list(range(9)))
    stop_window: int = 10
    stop_tol: float = 1e-4
    shuffle: bool = True
    dev_early_stop: bool = False
    noise_kind: str | None = None
    noise_p: float | None = None

    def __post_init__(self) -> None:
        check_field_types(self)  # config.json must hold every value
        if self.model not in MODEL_KINDS:
            raise ConfigurationError(f"model must be one of {MODEL_KINDS}")
        if not self.dataset_path:
            raise ConfigurationError("dataset_path is required")
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
        if min(self.seeds) < 0 or self.split_seed < 0:
            raise ConfigurationError("seeds and split_seed must be non-negative")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct, got {self.seeds}")
        derived = self.n_qubits * (self.enc_depth + 2)
        if self.model == "qsann":
            if self.embed_dim is None:
                self.embed_dim = derived
            elif self.embed_dim != derived:
                raise ConfigurationError(
                    f"embed_dim must equal n_qubits*(enc_depth+2)={derived} "
                    f"for the quantum model, got {self.embed_dim}"
                )
        elif self.embed_dim is None:
            self.embed_dim = 16
        elif self.embed_dim < 1:
            raise ConfigurationError(f"embed_dim must be at least 1, got {self.embed_dim}")
        if self.model == "qsann":  # geometry and memory-budget checks
            model_mod.ModelConfig(self.n_qubits, self.enc_depth, self.qkv_depth, self.n_layers)
        if (self.noise_kind is None) != (self.noise_p is None):
            raise ConfigurationError("noise_kind and noise_p must be given together")
        if self.noise_kind is not None:
            if self.model != "qsann":
                raise ConfigurationError("noise settings apply only to the quantum model")
            NoiseChannel(self.noise_kind, self.noise_p)  # checks the kind and the level
        # delegate the numeric training-field checks
        self.train_config(seed=self.seeds[0])

    def train_config(self, seed: int) -> training.TrainConfig:
        names = (f.name for f in dataclasses.fields(training.TrainConfig) if f.name != "seed")
        return training.TrainConfig(seed=seed, **{name: getattr(self, name) for name in names})

    def noise_channel(self) -> NoiseChannel | None:
        # p = 0 is the identity channel; run the exact noiseless path.
        if self.noise_kind is None or not self.noise_p:
            return None
        return NoiseChannel(self.noise_kind, self.noise_p)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)


def load_preset(name: str) -> dict:
    try:
        text = resources.files("qsann.presets").joinpath(f"{name}.json").read_text()
    except FileNotFoundError:
        raise ConfigurationError(f"unknown preset {name!r}") from None
    return json.loads(text)


def _load_config_sources(args) -> dict:
    values: dict = {}
    if args.preset:
        values.update(load_preset(args.preset))
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {args.config} must hold a JSON object")
        values.update(loaded)
    if getattr(args, "dataset", None):
        values["dataset_path"] = args.dataset
    if getattr(args, "seeds", None):
        values["seeds"] = _parse_list(args.seeds, int, "integers")
    if getattr(args, "epochs", None) is not None:
        values["epochs"] = args.epochs
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            values[key] = json.loads(raw)
        except json.JSONDecodeError:
            values[key] = raw
    return values


def _parse_list(text: str, convert, what: str) -> list:
    """At least one comma-separated item, each passed through ``convert``, none twice."""
    try:
        items = [convert(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigurationError(f"expected comma-separated {what}, got {text!r}")
    if not items:
        raise ConfigurationError(f"expected at least one of the {what}, got {text!r}")
    if len(set(items)) != len(items):
        raise ConfigurationError(f"expected distinct {what}, got {text!r}")
    return items


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    checkpoint.write_atomic(path, lambda handle: handle.write(text))


def _resolve_out_dir(args, config_hint: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if not root:
        raise ConfigurationError(
            f"pass --out or set {OUTPUT_ROOT_ENV} for the default output root"
        )
    return Path(root) / config_hint


def _make_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {path}: {exc.strerror}")


def _build_dataset(cfg: RunConfig) -> data.Dataset:
    if not Path(cfg.dataset_path).exists():
        raise ConfigurationError(f"dataset not found: {cfg.dataset_path}")
    samples = data.load_tsv(cfg.dataset_path)
    dataset = data.build_splits(samples, cfg.ratios, cfg.split_seed, drop_empty=cfg.drop_empty)
    longest = max(len(item.token_ids) for part in dataset.splits.values() for item in part)
    layers = cfg.n_layers if cfg.model == "qsann" else 1
    need = (model_mod.PAIR_BYTES + 8 * layers) * longest**2  # 8 more per pair in each trace
    if need > model_mod.ENGINE_MEMORY_BUDGET:
        raise ConfigurationError(
            f"a {longest}-word sentence needs {need} bytes for its attention arrays, "
            f"over the {model_mod.ENGINE_MEMORY_BUDGET}-byte budget"
        )
    return dataset


def _start_training(args, cfg: RunConfig, suffix: str, points=("",)) -> tuple[Path, data.Dataset]:
    """(output directory, dataset) of a training command, its config written there once the
    dataset has training samples, the parameter copies training holds fit the budget and
    every seed directory of every point (subdirectory) is made."""
    hint = args.preset or (Path(args.config).stem if args.config else "run")
    out_dir = _resolve_out_dir(args, f"{hint}_{suffix}")
    dataset = _build_dataset(cfg)
    if not dataset.train:
        raise ConfigurationError(f"ratios {cfg.ratios} leave the training split empty")
    vocab, budget = dataset.vocabulary.size, model_mod.ENGINE_MEMORY_BUDGET
    square = 3 * cfg.embed_dim if cfg.model == "csann" else 0  # rows of csann's projections
    need = training.TABLE_COPIES * 8 * (vocab + square) * cfg.embed_dim
    if need > budget:
        raise ConfigurationError(
            f"embed_dim {cfg.embed_dim}: {training.TABLE_COPIES} copies of the {vocab}-word "
            f"embedding table{' and projections' if square else ''} need {need} bytes, over "
            f"the {budget}-byte budget"
        )
    seed_dirs = [out_dir / point / f"seed_{seed}" for point in points for seed in cfg.seeds]
    for part in (part for path in seed_dirs for part in (path.parent, path)):  # none made yet
        if part.exists() and not part.is_dir():
            raise ConfigurationError(f"cannot create output directory {part}: a file has its name")
    for path in [out_dir] + seed_dirs:
        _make_out_dir(path)
    _write_json(out_dir / "config.json", cfg.to_dict())
    return out_dir, dataset


def _dataset_manifest(cfg: RunConfig, dataset: data.Dataset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "source_path": str(cfg.dataset_path),
        "format": "tsv",
        "split_seed": cfg.split_seed,
        "ratios": list(cfg.ratios),
        "drop_empty": cfg.drop_empty,
        "dropped_empty": dataset.dropped_empty,
        "split_sizes": {
            "train": len(dataset.train),
            "dev": len(dataset.dev),
            "test": len(dataset.test),
        },
        "vocab_size": dataset.vocabulary.size,
        "vocab_sha256": dataset.vocabulary.content_hash(),
    }


def _run_experiment(cfg: RunConfig, dataset: data.Dataset, out_dirs: list[Path]) -> dict:
    """Train every seed, write its artifacts into each of ``out_dirs``, return the summary doc."""
    noise = cfg.noise_channel()
    kind = training.MODEL_KINDS[cfg.model]
    manifest = _dataset_manifest(cfg, dataset)
    per_seed = []
    any_aborted = False
    for seed in cfg.seeds:
        seed_dirs = [out_dir / f"seed_{seed}" for out_dir in out_dirs]  # made by _start_training
        # zero arrays: train draws every parameter from the seed
        model = kind.init({**cfg.to_dict(), "dim": cfg.embed_dim}, dataset.vocabulary.size, None)
        started = time.perf_counter()
        result = training.train(dataset, model, cfg.train_config(seed), noise=noise)
        elapsed = time.perf_counter() - started
        lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in result.metrics)
        epochs = len(result.metrics) - 1
        timing = {"schema_version": SCHEMA_VERSION, "wall_time_s": elapsed, "epochs_run": epochs}
        meta = {**manifest, "noise_kind": cfg.noise_kind, "noise_p": cfg.noise_p}
        meta["train_seed"] = seed
        for seed_dir in seed_dirs:
            checkpoint.write_atomic(seed_dir / "metrics.jsonl", lambda handle: handle.write(lines))
            _write_json(seed_dir / "timing.json", timing)
            checkpoint.save_checkpoint(
                seed_dir / "checkpoint.json", result.model, dataset.vocabulary, meta
            )
        final = result.metrics[-1]
        per_seed.append(
            {
                "seed": seed,
                "epochs_run": epochs,
                "stopped_epoch": result.stopped_epoch,
                "aborted": result.aborted,
                "final_train_loss": final["train_loss"],
                "final_train_acc": final["train_acc"],
                "final_test_acc": final.get("test_acc"),
            }
        )
        any_aborted = any_aborted or result.aborted
    test_accs = [row["final_test_acc"] for row in per_seed if row["final_test_acc"] is not None]
    qkv, head, total = kind.parameter_count(model)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "model": cfg.model,
        "parameter_count": {"qkv": qkv, "head": head, "total": total},
        "seeds": list(cfg.seeds),
        "per_seed": per_seed,
        "mean_test_acc": float(np.mean(test_accs)) if test_accs else None,
        "std_test_acc": float(np.std(test_accs)) if test_accs else None,
        "aborted": any_aborted,
    }
    return summary


def cmd_train(args) -> int:
    cfg = RunConfig.from_dict(_load_config_sources(args))
    out_dir, dataset = _start_training(args, cfg, cfg.model)
    _write_json(out_dir / "manifest.json", _dataset_manifest(cfg, dataset))
    summary = _run_experiment(cfg, dataset, [out_dir])
    _write_json(out_dir / "summary.json", summary)
    print(
        f"{cfg.model}: {summary['parameter_count']['total']} parameters, "
        f"mean test acc {summary['mean_test_acc']}"
        + (f" +- {summary['std_test_acc']:.4f}" if summary["std_test_acc"] is not None else "")
    )
    print(f"artifacts in {out_dir}")
    return 1 if summary["aborted"] else 0


def _load_checkpoint_split(args) -> tuple:
    """(model, vocabulary, split, noise) of ``--checkpoint``, its dataset rebuilt and checked."""
    model, vocab, doc = checkpoint.load_checkpoint(args.checkpoint)
    recipe = doc.get("dataset")
    if not isinstance(recipe, dict):
        raise ConfigurationError("checkpoint's dataset recipe is not an object")
    keys = ("ratios", "split_seed", "drop_empty", "noise_kind", "noise_p")
    missing = [key for key in keys if key not in recipe]
    if missing:
        raise ConfigurationError(f"checkpoint's dataset recipe lacks {missing}")
    path = args.dataset or recipe.get("source_path")
    if not path:
        raise ConfigurationError("checkpoint records no dataset path; pass --dataset")
    # the checkpoint's own run: its model settings and its dataset recipe
    settings = dict(doc["model_config"], **{key: recipe[key] for key in keys})
    settings["embed_dim"] = settings.pop("dim", None)  # a baseline's width
    cfg = RunConfig.from_dict({**settings, "dataset_path": path, "model": doc["model_kind"]})
    dataset = _build_dataset(cfg)
    if dataset.vocabulary.content_hash() != doc["vocab_sha256"]:
        raise ConfigurationError(
            "vocabulary hash mismatch: dataset splits do not match the checkpoint"
        )
    return model, vocab, dataset.splits[args.split], cfg.noise_channel()


def cmd_eval(args) -> int:
    if args.shot_seed < 0:
        raise ConfigurationError(f"--shot-seed must be non-negative, got {args.shot_seed}")
    if args.out and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ConfigurationError(f"--out {args.out} must name a file in an existing directory")
    model, _, split, noise = _load_checkpoint_split(args)
    if not split:
        raise ConfigurationError(f"{args.split} split is empty")
    if args.shots is not None and not isinstance(model, model_mod.QsannModel):
        raise ConfigurationError("shot sampling applies only to the quantum model")
    rng = np.random.default_rng(args.shot_seed)
    accuracy, mean_loss = training.evaluate(split, model, noise, args.shots, rng)
    report = {
        "schema_version": SCHEMA_VERSION,
        "checkpoint": str(args.checkpoint),
        "split": args.split,
        "n_samples": len(split),
        "accuracy": accuracy,
        "mean_loss": mean_loss,
        "shots": args.shots,
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.out:
        _write_json(Path(args.out), report)
    return 0


def cmd_attention(args) -> int:
    model, vocab, split, noise = _load_checkpoint_split(args)
    if not isinstance(model, model_mod.QsannModel):
        raise ConfigurationError("attention export applies only to the quantum model")
    indices = _parse_list(args.indices, int, "integers")
    for idx in indices:
        if not 0 <= idx < len(split):
            raise ConfigurationError(
                f"sample index {idx} out of range for {len(split)} {args.split} samples"
            )
    out_dir = Path(args.out)
    _make_out_dir(out_dir)
    for idx in indices:
        item = split[idx]
        words = vocab.decode(item.token_ids)
        pred = model_mod.forward(item.token_ids, model, noise)
        for layer_idx, attn in enumerate(pred.attention):
            coeff = attn.coefficients
            for name, rows in (("matrix", coeff.tolist()), ("avg", [coeff.mean(axis=0).tolist()])):
                path = out_dir / f"sample{idx}_layer{layer_idx}_{name}.csv"
                checkpoint.write_atomic(path, lambda h: csv.writer(h).writerows([words] + rows))
        print(f"sample {idx} ({len(words)} words): wrote {len(pred.attention)} layer(s)")
    return 0


def cmd_noise_sweep(args) -> int:
    # the base config is noiseless: each point sets its own channel and level
    cfg = RunConfig.from_dict({**_load_config_sources(args), "noise_kind": None, "noise_p": None})
    p_values = _parse_list(args.p_list, lambda text: float(text) + 0.0, "numbers")  # -0 is 0
    names = [f"{p:g}" for p in p_values]  # each level's point directory is named by it
    if len(set(names)) != len(names):
        raise ConfigurationError(f"noise levels {args.p_list!r} share directory names {names}")
    channels = _parse_list(args.channels, str, "channel kinds")
    # RunConfig checks every point's model, channel kind and level before anything is written
    point_configs = {
        (kind, p): dataclasses.replace(cfg, noise_kind=kind, noise_p=p)
        for kind in channels
        for p in p_values
    }
    point_names = tuple(f"{kind}_p{p:g}" for kind, p in point_configs)
    out_dir, dataset = _start_training(args, cfg, "noise_sweep", point_names)

    points, runs = [], {}  # a noiseless level runs cfg once, into every channel's directory
    for (kind, p), point_cfg in point_configs.items():
        key = (kind if p > 0 else None, p)
        if key not in runs:
            dirs = [out_dir / f"{k}_p{p:g}" for k in ([kind] if p > 0 else channels)]
            runs[key] = _run_experiment(point_cfg if p > 0 else cfg, dataset, dirs)
        summary = runs[key]
        accs = [row["final_test_acc"] for row in summary["per_seed"]]
        points.append(
            {
                "channel": kind,
                "p": p,
                "accuracies": accs,
                "mean": summary["mean_test_acc"],
                "std": summary["std_test_acc"],
                "aborted": summary["aborted"],
            }
        )
        print(f"{kind} p={p:g}: mean test acc {summary['mean_test_acc']}")
    sweep = {
        "schema_version": SCHEMA_VERSION,
        "model": cfg.model,
        "seeds": list(cfg.seeds),
        "points": points,
    }
    _write_json(out_dir / "sweep_summary.json", sweep)
    return 1 if any(point["aborted"] for point in points) else 0


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help="named built-in config (mc, rp, yelp, imdb, amazon, toy)")
    parser.add_argument("--dataset", help="override the dataset path")
    parser.add_argument("--seeds", help="comma-separated seed list override")
    parser.add_argument("--epochs", type=int, help="override the epoch budget")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config key (value parsed as JSON when possible)",
    )
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsann",
        description="Train and inspect quantum self-attention text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train over a seed list and summarize")
    _add_config_arguments(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", help="override the dataset path")
    p_eval.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p_eval.add_argument("--out", help="write the report JSON here")
    p_eval.add_argument("--shots", type=int, help="sample expectations with this shot count")
    p_eval.add_argument("--shot-seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_attn = sub.add_parser("attention", help="export attention coefficients as CSV")
    p_attn.add_argument("--checkpoint", required=True)
    p_attn.add_argument("--dataset", help="override the dataset path")
    p_attn.add_argument("--split", default="test", choices=("train", "dev", "test"))
    p_attn.add_argument("--indices", required=True, help="comma-separated sample indices")
    p_attn.add_argument("--out", required=True, help="output directory for CSV files")
    p_attn.set_defaults(func=cmd_attention)

    p_sweep = sub.add_parser("noise-sweep", help="repeat training across noise levels")
    _add_config_arguments(p_sweep)
    p_sweep.add_argument("--p-list", default="0.01,0.1,0.2", help="comma-separated noise levels")
    p_sweep.add_argument(
        "--channels",
        default="depolarizing,amplitude_damping",
        help="comma-separated channel kinds",
    )
    p_sweep.set_defaults(func=cmd_noise_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QsannError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
