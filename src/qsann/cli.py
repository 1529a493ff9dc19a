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
from .errors import ConfigurationError, ParseError, QsannError
from .sim import NoiseChannel

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "QSANN_OUTPUT_ROOT"
MODEL_KINDS = tuple(training.MODEL_KINDS)
NOISE_KINDS = ("depolarizing", "amplitude_damping")


@dataclass
class RunConfig:
    """Everything one training run needs, as stored in config.json."""

    dataset_path: str
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
        if self.model not in MODEL_KINDS:
            raise ConfigurationError(f"model must be one of {MODEL_KINDS}")
        if not self.dataset_path:
            raise ConfigurationError("dataset_path is required")
        if not self.seeds:
            raise ConfigurationError("at least one seed is required")
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
        if self.noise_kind is not None and self.model != "qsann":
            raise ConfigurationError("noise settings apply only to the quantum model")
        if self.noise_kind is not None:
            if self.noise_kind not in NOISE_KINDS:
                raise ConfigurationError(f"noise_kind must be one of {NOISE_KINDS}")
            if self.noise_p is None:
                raise ConfigurationError("noise_kind requires noise_p")
        if self.noise_p is not None and not 0.0 <= self.noise_p <= 1.0:
            raise ConfigurationError("noise_p must be in [0, 1]")
        # delegate the numeric training-field checks
        self.train_config(seed=self.seeds[0])

    def train_config(self, seed: int) -> training.TrainConfig:
        return training.TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lam=self.lam,
            gamma=self.gamma,
            seed=seed,
            stop_window=self.stop_window,
            stop_tol=self.stop_tol,
            shuffle=self.shuffle,
            dev_early_stop=self.dev_early_stop,
        )

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
        if "dataset_path" not in values:
            raise ConfigurationError("dataset_path is required")
        return cls(**values)


_SCALAR_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _has_type(value, annotation: str) -> bool:
    """Whether a config value fits a field annotation such as ``list[int] | None``."""
    if annotation.endswith(" | None"):
        return value is None or _has_type(value, annotation[: -len(" | None")])
    if annotation.startswith("list["):
        return isinstance(value, list) and all(
            _has_type(item, annotation[5:-1]) for item in value
        )
    if isinstance(value, bool) and annotation != "bool":
        return False
    return isinstance(value, _SCALAR_TYPES[annotation])


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
                values.update(json.load(handle))
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {args.config} is not valid JSON: {exc}")
    if getattr(args, "dataset", None):
        values["dataset_path"] = args.dataset
    if getattr(args, "seeds", None):
        values["seeds"] = _parse_int_list(args.seeds)
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


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ConfigurationError(f"expected comma-separated integers, got {text!r}")


def _json_line(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _resolve_out_dir(args, config_hint: str) -> Path:
    if args.out:
        return Path(args.out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if not root:
        raise ConfigurationError(
            f"pass --out or set {OUTPUT_ROOT_ENV} for the default output root"
        )
    return Path(root) / config_hint


def _build_dataset(cfg: RunConfig) -> data.Dataset:
    samples = data.load_tsv(cfg.dataset_path)
    return data.build_splits(
        samples, cfg.ratios, cfg.split_seed, drop_empty=cfg.drop_empty
    )


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


def _init_model(cfg: RunConfig, vocab_size: int, seed: int):
    settings = {**cfg.to_dict(), "dim": cfg.embed_dim}
    kind = training.MODEL_KINDS[cfg.model]
    return kind.init(settings, vocab_size, np.random.default_rng(seed))


def _run_experiment(cfg: RunConfig, dataset: data.Dataset, out_dir: Path) -> dict:
    """Train every seed, write per-seed artifacts, return the summary doc."""
    noise = cfg.noise_channel()
    manifest = _dataset_manifest(cfg, dataset)
    per_seed = []
    any_aborted = False
    for seed in cfg.seeds:
        seed_dir = out_dir / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        model = _init_model(cfg, dataset.vocabulary.size, seed)
        started = time.perf_counter()
        result = training.train(dataset, model, cfg.train_config(seed), noise=noise)
        elapsed = time.perf_counter() - started
        with open(seed_dir / "metrics.jsonl", "w", encoding="utf-8") as handle:
            for row in result.metrics:
                handle.write(_json_line(row) + "\n")
        _write_json(
            seed_dir / "timing.json",
            {
                "schema_version": SCHEMA_VERSION,
                "wall_time_s": elapsed,
                "epochs_run": len(result.metrics) - 1,
            },
        )
        meta = dict(manifest)
        meta["noise_kind"] = cfg.noise_kind
        meta["noise_p"] = cfg.noise_p
        meta["train_seed"] = seed
        checkpoint.save_checkpoint(
            seed_dir / "checkpoint.json", result.model, dataset.vocabulary, meta
        )
        final = result.metrics[-1]
        per_seed.append(
            {
                "seed": seed,
                "epochs_run": len(result.metrics) - 1,
                "stopped_epoch": result.stopped_epoch,
                "aborted": result.aborted,
                "final_train_loss": final["train_loss"],
                "final_train_acc": final["train_acc"],
                "final_test_acc": final.get("test_acc"),
            }
        )
        any_aborted = any_aborted or result.aborted
    test_accs = [row["final_test_acc"] for row in per_seed if row["final_test_acc"] is not None]
    qkv, head, total = training.MODEL_KINDS[cfg.model].parameter_count(model)
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
    hint = args.preset or (Path(args.config).stem if args.config else "run")
    out_dir = _resolve_out_dir(args, f"{hint}_{cfg.model}")
    if not Path(cfg.dataset_path).exists():
        raise ConfigurationError(f"dataset not found: {cfg.dataset_path}")
    dataset = _build_dataset(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", cfg.to_dict())
    _write_json(out_dir / "manifest.json", _dataset_manifest(cfg, dataset))
    summary = _run_experiment(cfg, dataset, out_dir)
    _write_json(out_dir / "summary.json", summary)
    print(
        f"{cfg.model}: {summary['parameter_count']['total']} parameters, "
        f"mean test acc {summary['mean_test_acc']}"
        + (f" +- {summary['std_test_acc']:.4f}" if summary["std_test_acc"] is not None else "")
    )
    print(f"artifacts in {out_dir}")
    return 1 if summary["aborted"] else 0


def _dataset_from_checkpoint(doc: dict, dataset_override: str | None) -> data.Dataset:
    meta = doc.get("dataset") or {}
    path = dataset_override or meta.get("source_path")
    if not path:
        raise ConfigurationError("checkpoint records no dataset path; pass --dataset")
    if not Path(path).exists():
        raise ConfigurationError(f"dataset not found: {path}")
    samples = data.load_tsv(path)
    return data.build_splits(
        samples,
        meta.get("ratios", [0.8, 0.2]),
        meta.get("split_seed", 0),
        drop_empty=meta.get("drop_empty", True),
    )


def _checkpoint_noise(doc: dict) -> NoiseChannel | None:
    meta = doc.get("dataset") or {}
    kind = meta.get("noise_kind")
    p = meta.get("noise_p")
    if kind is None or not p:
        return None
    return NoiseChannel(kind, p)


def cmd_eval(args) -> int:
    model, vocab, doc = checkpoint.load_checkpoint(args.checkpoint)
    dataset = _dataset_from_checkpoint(doc, args.dataset)
    if dataset.vocabulary.content_hash() != doc["vocab_sha256"]:
        raise ConfigurationError(
            "vocabulary hash mismatch: dataset splits do not match the checkpoint"
        )
    split = dataset.splits[args.split]
    if not split:
        raise ConfigurationError(f"{args.split} split is empty")
    if args.shots is not None and not isinstance(model, model_mod.QsannModel):
        raise ConfigurationError("shot sampling applies only to the quantum model")
    rng = np.random.default_rng(args.shot_seed)
    accuracy, mean_loss = training.evaluate(
        split, model, _checkpoint_noise(doc), args.shots, rng
    )
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
    model, vocab, doc = checkpoint.load_checkpoint(args.checkpoint)
    if not isinstance(model, model_mod.QsannModel):
        raise ConfigurationError("attention export applies only to the quantum model")
    dataset = _dataset_from_checkpoint(doc, args.dataset)
    if dataset.vocabulary.content_hash() != doc["vocab_sha256"]:
        raise ConfigurationError(
            "vocabulary hash mismatch: dataset splits do not match the checkpoint"
        )
    split = dataset.splits[args.split]
    indices = _parse_int_list(args.indices)
    for idx in indices:
        if not 0 <= idx < len(split):
            raise ConfigurationError(
                f"sample index {idx} out of range for {len(split)} {args.split} samples"
            )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    noise = _checkpoint_noise(doc)
    for idx in indices:
        item = split[idx]
        words = vocab.decode(item.token_ids)
        pred = model_mod.forward(item.token_ids, model, noise)
        for layer_idx, attn in enumerate(pred.attention):
            coeff = attn.coefficients
            matrix_path = out_dir / f"sample{idx}_layer{layer_idx}_matrix.csv"
            with open(matrix_path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(words)
                writer.writerows(coeff.tolist())
            avg_path = out_dir / f"sample{idx}_layer{layer_idx}_avg.csv"
            with open(avg_path, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(words)
                writer.writerow(coeff.mean(axis=0).tolist())
        print(f"sample {idx} ({len(words)} words): wrote {len(pred.attention)} layer(s)")
    return 0


def cmd_noise_sweep(args) -> int:
    values = _load_config_sources(args)
    values.pop("noise_kind", None)
    values.pop("noise_p", None)
    cfg = RunConfig.from_dict(values)
    if cfg.model != "qsann":
        raise ConfigurationError("noise sweeps apply only to the quantum model")
    try:
        p_values = [float(part) for part in args.p_list.split(",") if part != ""]
    except ValueError:
        raise ConfigurationError(f"expected comma-separated numbers, got {args.p_list!r}")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"noise level {p} outside [0, 1]")
    channels = [part for part in args.channels.split(",") if part != ""]
    for kind in channels:
        if kind not in NOISE_KINDS:
            raise ConfigurationError(f"noise channel must be one of {NOISE_KINDS}")
    hint = args.preset or (Path(args.config).stem if args.config else "run")
    out_dir = _resolve_out_dir(args, f"{hint}_noise_sweep")
    if not Path(cfg.dataset_path).exists():
        raise ConfigurationError(f"dataset not found: {cfg.dataset_path}")
    dataset = _build_dataset(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", cfg.to_dict())

    points = []
    for kind in channels:
        for p in p_values:
            point_cfg = dataclasses.replace(cfg)
            point_cfg.noise_kind = kind if p > 0 else None
            point_cfg.noise_p = p if p > 0 else None
            point_dir = out_dir / f"{kind}_p{p:g}"
            point_dir.mkdir(parents=True, exist_ok=True)
            summary = _run_experiment(point_cfg, dataset, point_dir)
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
