"""Benchmark of training, noisy training and evaluation at the yelp geometry.

    python3 perfbench/run.py --workload yelp-train --seed 1 --seconds 30 --trace 0

Run from the repository root.  One single-threaded process generates the
workload's corpus from the seed, writes it as TSV and drives the same public
calls ``qsann train`` and ``qsann eval`` make: ``data.load_tsv``,
``data.build_splits``, ``model.init_model``, ``training.train`` and
``training.evaluate``.  It repeats whole rounds (set-ups, one training run,
held-out passes) for about ``--seconds`` of round time, times each
operation and scales the time by a fixed probe computation run around it,
checks the first round's outputs outside the timed segments, and prints one
JSON line last:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread; this must happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "qsann" / "__init__.py").is_file():
    sys.exit(f"perfbench: program sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from qsann import data, model as model_mod, training  # noqa: E402
from qsann.sim import NoiseChannel  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer, call_cost_s  # noqa: E402

# The yelp preset: n=4, D_enc=1, D_qkv=1, one layer, lr 0.008, lam = gamma = 0.2.
MODEL_CONFIG = model_mod.ModelConfig(n_qubits=4, enc_depth=1, qkv_depth=1, n_layers=1)
LEARNING_RATE = 0.008
LAM = GAMMA = 0.2
EPOCHS = 1  # per training.train call
# One split seed for every run, so split sizes and tokens per split never vary.
SPLIT_SEED = 0
MIN_ROUNDS = 3
# sentences checked against the oracle: the first of the held-out and train splits
ORACLE_HELD_OUT = 8
ORACLE_TRAIN = 3


@dataclass(frozen=True)
class Workload:
    corpus: corpus.CorpusSpec
    ratios: tuple[float, float]
    noise_p: float  # depolarizing level after every circuit; 0 is pure
    setups: int  # set-ups per round
    eval_passes: int  # held-out evaluation passes per round


# Split sizes are fixed (see SPLIT_SEED); each train split is about 2/3
# positive, so that one epoch reliably lowers the train loss.
WORKLOADS = {
    # ~12 words, mostly rare words; the parameter-shift backward dominates
    "yelp-train": Workload(
        corpus.CorpusSpec(60, 12.0, 3.5, 4, 24, 4000, 12),
        (0.8, 0.2), noise_p=0.0, setups=10, eval_passes=8,
    ),
    # ~3 words, depolarizing noise: density-matrix kernels do nearly all the work
    "yelp-noisy": Workload(
        corpus.CorpusSpec(21, 3.0, 0.8, 2, 4, 4000, 12),
        (0.8, 0.2), noise_p=0.1, setups=10, eval_passes=10,
    ),
    # small vocabulary, short training, long held-out pass: forward dominates
    "yelp-eval": Workload(
        corpus.CorpusSpec(260, 12.0, 3.5, 4, 24, 48, 6),
        (0.08, 0.92), noise_p=0.0, setups=4, eval_passes=2,
    ),
}

END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "eval_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SAMPLED = ("setup_s", "epoch_s", "eval_samples_per_s")  # timed in every round

# The host's execution speed drifts by up to 2x over seconds to minutes, and
# the program and the probe slow down together: over 30 s windows their time
# ratio varied by 1.4 % while each varied by 14 %.  So every timed operation
# is followed by the probe, a fixed computation of the benchmark's own, and
# each time is scaled to the speed at which the probe takes REFERENCE_PROBE_S.
PROBE_ANGLES = np.random.default_rng(2205).uniform(0.0, 2.0 * np.pi, (8, 12))
# about the median probe time on 2 vCPUs of an Intel Xeon at 2.1 GHz
REFERENCE_PROBE_S = 0.020
EPOCH_PROBES = 5  # probe runs on each side of a training call, which takes seconds
# spans whose call counts are reported, besides every span's self time
CALLS = ("training.adam_step", "gradients.backward", "model.forward")


def probe_s(repeats: int = 1) -> float:
    """Mean wall time of the oracle building the unitaries of 8 fixed 4-qubit circuits."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        for angles in PROBE_ANGLES:
            oracle.unitary(oracle.ansatz_gates(angles, 4, 1))
    return (time.perf_counter() - t0) / repeats


def normalised(samples) -> list[float]:
    """Per sample: its time scaled by the reference over the probes around it."""
    return [t * REFERENCE_PROBE_S / (0.5 * (before + after)) for t, before, after in samples]


class Run:
    """Rounds of one workload, their timings and their operation counts."""

    def __init__(self, workload: Workload, path: Path, seed: int):
        self.wl = workload
        self.path = path
        self.seed = seed
        self.noise = NoiseChannel("depolarizing", workload.noise_p) if workload.noise_p else None
        self.ops_per_round = workload.setups + 1 + workload.eval_passes
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # operations that raised
        self.errors: list[str] = []  # outputs that failed a check
        self.probe = 0.0  # the latest probe time

    def timed(self, samples: list, fn, work: int = 1, probes: int = 1):
        """``fn()``, then the probe; records (seconds per unit of work, probe before, after).

        With ``probes`` > 1 the probe runs that many times before and after,
        to tell the speed around a long operation more closely.
        """
        if probes > 1:
            self.probe = probe_s(probes)
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        after = probe_s(probes)
        samples.append((elapsed / work, self.probe, after))
        self.probe = after
        return out

    def setup(self):
        dataset = data.build_splits(data.load_tsv(self.path), self.wl.ratios, SPLIT_SEED)
        qmodel = model_mod.init_model(
            MODEL_CONFIG, dataset.vocabulary.size, np.random.default_rng(self.seed)
        )
        return dataset, qmodel

    def round(self, times: dict[str, list]):
        """Set-ups, one ``training.train`` call, held-out passes; each timed and probed."""
        wl = self.wl
        done = 0
        self.probe = probe_s()
        try:
            for _ in range(wl.setups):
                dataset, qmodel = self.timed(times["setup_s"], self.setup)
                done += 1
            config = training.TrainConfig(
                LEARNING_RATE, EPOCHS, lam=LAM, gamma=GAMMA, seed=self.seed
            )
            result = self.timed(
                times["epoch_s"],
                lambda: training.train(dataset, qmodel, config, self.noise),
                EPOCHS,
                EPOCH_PROBES,
            )
            done += 1
            evals = []
            for _ in range(wl.eval_passes):
                evals.append(self.timed(
                    times["eval_samples_per_s"],
                    lambda: training.evaluate(dataset.test, qmodel, self.noise),
                    len(dataset.test),
                ))
                done += 1
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"operation failed: {type(exc).__name__}: {exc}")
            self.failed += self.ops_per_round - done
            return None
        finally:
            self.attempted += self.ops_per_round
        return dataset, qmodel, result, evals

    def check(self, outputs) -> None:
        """Oracle, finite-difference and training checks on one round's outputs."""
        dataset, qmodel, result, evals = outputs
        held_out = [(item.token_ids, item.label) for item in dataset.test]
        train_samples = [(item.token_ids, item.label) for item in dataset.train]
        self.errors += checks.check_training(result, EPOCHS)
        self.errors += checks.check_forward(
            qmodel, held_out[:ORACLE_HELD_OUT] + train_samples[:ORACLE_TRAIN],
            self.noise, self.wl.noise_p,
        )
        if any(e != evals[0] for e in evals):
            self.errors.append(f"held-out passes disagree: {evals}")
        self.errors += checks.check_gradients(qmodel, train_samples[0], self.noise, self.seed)


def fingerprint(outputs):
    _, _, result, evals = outputs
    return json.dumps(result.metrics), evals


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(run: Run, seconds: float, tracer: Tracer | None):
    """Whole rounds for about ``seconds`` of round time; odd rounds traced if tracing.

    Returns the timing samples of untraced rounds (key False) and traced
    rounds (key True), and the number of rounds.
    """
    times = {traced: {k: [] for k in SAMPLED} for traced in (False, True)}
    min_rounds = MIN_ROUNDS if tracer is None else 2 * MIN_ROUNDS
    spent = 0.0
    reference = None
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        gc.collect()
        t0 = time.perf_counter()
        if traced:
            with tracer.installed():
                outputs = run.round(times[True])
        else:
            outputs = run.round(times[False])
        spent += time.perf_counter() - t0
        rounds += 1
        if outputs is not None:
            if reference is None:
                t_check = time.perf_counter()
                run.check(outputs)  # outside every timed segment
                print(f"checks: {time.perf_counter() - t_check:.2f} s")
                reference = fingerprint(outputs)
            elif fingerprint(outputs) != reference:
                run.errors.append(f"round {rounds} outputs differ from the first round")
        # another round would end past the budget by more than half a round
        if rounds >= min_rounds and spent + 0.5 * spent / rounds >= seconds:
            break
    return times, rounds


def end_to_end(times) -> dict:
    untraced = times[False]
    if not all(untraced.values()):
        return {}
    metrics = {name: statistics.median(normalised(values)) for name, values in untraced.items()}
    metrics["eval_samples_per_s"] = 1.0 / metrics["eval_samples_per_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(tracer: Tracer, times) -> dict:
    """Per-layer figures per traced round, with the tracing overhead."""
    traced_epochs = [t for t, _, _ in times[True]["epoch_s"]]
    if not traced_epochs or not times[False]["epoch_s"]:
        return {}
    n_rounds = len(traced_epochs)
    summary = tracer.summary()
    metrics = {}
    for span, (self_s, _) in summary.items():
        metrics[f"{span}.self_ms"] = (self_s * 1e3 / n_rounds, "ms")
    for span in CALLS:
        if span in summary:
            metrics[f"{span}.calls"] = (summary[span][1] / n_rounds, "count")
    for counter, rows in tracer.counts.items():
        metrics[counter] = (rows / n_rounds, "count")
    traced_epoch = statistics.median(traced_epochs)
    # tracing cost per epoch: calls traced inside train, and train itself
    traced_calls = (tracer.calls_within("training.train") / n_rounds + 1) / EPOCHS
    cost = traced_calls * call_cost_s()
    direct = (statistics.median(normalised(times[True]["epoch_s"]))
              / statistics.median(normalised(times[False]["epoch_s"])) - 1.0)
    print(f"tracing: {traced_calls:.0f} calls per epoch at {cost / traced_calls * 1e6:.2f} us; "
          f"traced against untraced scaled epoch_s medians {100.0 * direct:+.1f} %")
    metrics["trace.epoch_s"] = (traced_epoch, "s")
    metrics["trace.overhead_pct"] = (100.0 * cost / (traced_epoch - cost), "%")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    path = OUT / f"{tag}.tsv"
    samples = corpus.generate(wl.corpus, args.seed)
    data.write_tsv(samples, path)
    print(f"corpus {json.dumps(corpus.stats(samples))}")

    run = Run(wl, path, args.seed)
    tracer = Tracer() if args.trace else None
    times, rounds = measure(run, args.seconds, tracer)
    for traced in (False, True):
        for name, samples in times[traced].items():
            if samples:
                label = "traced " if traced else ""
                q1, q2, q3 = quartiles(normalised(samples))
                raw = statistics.median(t for t, _, _ in samples)
                print(f"{label}{name} (s per unit of work): median {q2:.6g} quartiles {q1:.6g} "
                      f"{q3:.6g}; unscaled median {raw:.6g}; n={len(samples)}")
    probes = [after for samples in times[False].values() for _, _, after in samples]
    if probes:
        print(f"probe: median {statistics.median(probes) * 1e3:.2f} ms "
              f"against the reference {REFERENCE_PROBE_S * 1e3:.2f} ms")
    if tracer is None:
        values = end_to_end(times)
        metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
    else:
        metrics = per_layer(tracer, times)
        tracer.save(OUT / f"{tag}.spans.npz")
    for message in dict.fromkeys(run.failures + run.errors):
        print(f"perfbench: {message}", file=sys.stderr)
    if not metrics:
        print("perfbench: no round completed; nothing to report", file=sys.stderr)
        return 1
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=rounds, samples={"untraced": times[False], "traced": times[True]})
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
