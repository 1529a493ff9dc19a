"""The benchmark's result line: ``perfbench/run.py`` must end its stdout with it.

Each case runs one short benchmark process (a few rounds) and reads its
stdout the way a harness would: the last line is the JSON result, with only
finite numbers, a passing output check and the metric names that
``BENCHMARK.json`` declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize(
    "workload,trace",
    [
        ("yelp-train", 0), ("yelp-eval", 0), ("yelp-noisy", 0),
        ("yelp-train", 1), ("yelp-eval", 1), ("yelp-noisy", 1),
    ],
)
def test_result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and proc.stdout == "\n".join(lines) + "\n", "output after the result line"
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    names = set(result["metrics"])
    if trace:
        assert {m["name"] for m in DECLARED["per_layer"]} <= names
    else:
        assert names == {m["name"] for m in DECLARED["end_to_end"]}
