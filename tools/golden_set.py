"""Run the golden toy set through the ``qsann`` command line and list a sha256 of each file.

    PYTHONPATH=src python tools/golden_set.py <out_dir>

The set, on two toy corpora that this script writes (30 sentences of 3-4 words,
and 60 of 1-9 words with a dev split), runs:
- qsann pure, with depolarizing noise 0.1 and with amplitude damping 0.2 (one
  layer on the first corpus, two on the second), csann and naive, each with
  lambda 0.1 and gamma 0.2, seeds 0 and 1 for 3 epochs;
- depolarizing qsann and csann again with ``--set batch_size=3``;
- ``qsann eval`` of every checkpoint on each of its splits, and with
  ``--shots 64`` on train and test for the quantum checkpoints;
- attention CSVs of three test and two train sentences of every quantum checkpoint;
- a ``--p-list 0,0.1`` noise sweep on each corpus;
- at n = 4, where the toy geometry (n = 2, depth 1) cannot see the CNOT ring or a deep
  encoder: the ``yelp``, ``amazon`` and ``rp`` presets with two layers, seed 0 for 2
  epochs, pure, with depolarizing noise 0.1 and with amplitude damping 0.2, on a third
  corpus of 40 sentences of 1-14 words, with the same evals and attention CSVs.

Every command runs in ``<out_dir>`` (which must be new or empty) with relative
paths, and its exit code and standard output are kept as ``<name>.stdout``.
The script then prints ``sha256  path`` of every file but ``timing.json``,
sorted by path, so that two source trees compare with one ``diff``:

    PYTHONPATH=<tree A>/src python tools/golden_set.py a > a.txt
    PYTHONPATH=<tree B>/src python tools/golden_set.py b > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
from pathlib import Path

from qsann.cli import main as qsann

SEEDS = "0,1"
PENALTIES = ["--set", "lam=0.1", "--set", "gamma=0.2"]
DEPOLARIZING = ["--set", "noise_kind=depolarizing", "--set", "noise_p=0.1"]
DAMPING = ["--set", "noise_kind=amplitude_damping", "--set", "noise_p=0.2"]
# name -> (extra train arguments, quantum?)
RUNS = {
    "qsann": ([], True),
    "qsann_depolarizing": (DEPOLARIZING, True),
    "qsann_damping": (DAMPING, True),
    "csann": (["--set", "model=csann"], False),
    "naive": (["--set", "model=naive"], False),
    "qsann_depolarizing_batch3": (DEPOLARIZING + ["--set", "batch_size=3"], True),
    "csann_batch3": (["--set", "model=csann", "--set", "batch_size=3"], False),
}
# presets run at n = 4 on the third corpus, and their noise settings
PRESETS = ("yelp", "amazon", "rp")
PRESET_RUNS = {"pure": [], "depolarizing": DEPOLARIZING, "damping": DAMPING}
PRESET_CORPUS = (40, 1, 14, 3)
# corpus -> (sentences, shortest, longest, shared words, train arguments, splits)
CORPORA = {
    "short": (30, 3, 4, 0, [], ("train", "test")),
    "long": (
        60, 1, 9, 3,
        ["--set", "n_layers=2", "--set", "ratios=[0.6,0.2,0.2]", "--set", "dev_early_stop=true"],
        ("train", "dev", "test"),
    ),
}


def write_corpus(path: Path, seed: int, count: int, shortest: int, longest: int, shared: int):
    """Sentences of one class's words and ``shared`` words of both; labels alternate."""
    rng = random.Random(seed)
    pools = [[f"{name}{i:02d}" for i in range(8)] + [f"both{i}" for i in range(shared)]
             for name in ("neg", "pos")]
    lines = []
    for index in range(count):
        words = rng.choices(pools[index % 2], k=rng.randint(shortest, longest))
        lines.append(f"{' '.join(words)}\t{index % 2}\n")
    path.write_text("".join(lines), encoding="utf-8")


def run(name: str, argv: list[str]) -> None:
    """One command, its exit code and standard output kept in ``<name>.stdout``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qsann(argv)
    Path(f"{name}.stdout").write_text(f"exit {code}\n{out.getvalue()}", encoding="utf-8")


def report(seed_dir: str, splits, quantum: bool) -> None:
    """Evals of a checkpoint on each split; for a quantum one also shot evals and CSVs."""
    checkpoint = ["--checkpoint", f"{seed_dir}/checkpoint.json"]
    for split in splits:
        out = f"{seed_dir}/eval_{split}"
        run(out, ["eval", *checkpoint, "--split", split, "--out", f"{out}.json"])
    if not quantum:
        return
    for split in ("train", "test"):
        out = f"{seed_dir}/eval_{split}_shots"
        shots = ["--shots", "64", "--shot-seed", "3"]
        run(out, ["eval", *checkpoint, "--split", split, *shots, "--out", f"{out}.json"])
    for split, indices in (("test", "0,1,2"), ("train", "0,1")):
        out = f"{seed_dir}/attention_{split}"
        run(out, ["attention", *checkpoint, "--split", split, "--indices", indices, "--out", out])


def golden_set() -> None:
    for index, (corpus, (count, shortest, longest, shared, extra, splits)) in enumerate(
        CORPORA.items()
    ):
        dataset = f"{corpus}.tsv"
        write_corpus(Path(dataset), 21 + index, count, shortest, longest, shared)
        common = ["--preset", "toy", "--dataset", dataset, "--seeds", SEEDS, "--epochs", "3"]
        for run_name, (settings, quantum) in RUNS.items():
            out = f"{corpus}_{run_name}"
            run(out, ["train", *common, *PENALTIES, *extra, *settings, "--out", out])
            for seed in SEEDS.split(","):
                report(f"{out}/seed_{seed}", splits, quantum)
        sweep = f"{corpus}_sweep"
        run(sweep, ["noise-sweep", *common, *extra, "--p-list", "0,0.1", "--out", sweep])
    write_corpus(Path("presets.tsv"), 21 + len(CORPORA), *PRESET_CORPUS)
    for preset in PRESETS:
        common = ["--preset", preset, "--dataset", "presets.tsv", "--seeds", "0", "--epochs", "2",
                  "--set", "n_layers=2"]
        for run_name, settings in PRESET_RUNS.items():
            out = f"{preset}_{run_name}"
            run(out, ["train", *common, *settings, "--out", out])
            report(f"{out}/seed_0", ("train", "test"), True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0])
    if root.exists() and any(root.iterdir()):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 2
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    golden_set()
    files = sorted(p for p in Path(".").rglob("*") if p.is_file() and p.name != "timing.json")
    for path in files:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    print(f"{len(files)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
