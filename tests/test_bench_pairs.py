import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize(
    "change,better,expected",
    [
        ([value * 0.8 for value in PARENT], "lower", "gain"),
        ([value * 1.2 for value in PARENT], "higher", "gain"),
        ([value * 1.3 for value in PARENT], "lower", "worse"),
        ([value * 0.7 for value in PARENT], "higher", "worse"),
        ([1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.2, 0.75, 1.0, 1.0], "lower", "unresolved"),
        ([value * 1.02 for value in PARENT], "lower", "no worse"),
        (list(PARENT), "higher", "no worse"),
    ],
)
def test_verdict(change, better, expected):
    row = bench_pairs.verdict(PARENT, change, better, 0.24)
    assert row["verdict"] == expected
    assert row["parent_median"] == 1.0 and row["pairs"] == 10


def test_gain_needs_nine_wins_in_ten():
    change = [value * 0.8 for value in PARENT[:8]] + PARENT[8:]  # two ties
    row = bench_pairs.verdict(PARENT, change, "lower", 0.24)
    assert row["wins"] == 8 and row["verdict"] == "no worse"


@pytest.mark.parametrize(
    "stdout",
    [
        "",
        "corpus {}\nno json here",
        '{"correct": false, "failed": 0, "metrics": {"epoch_s": {"value": 1.0}}}',
        '{"correct": true, "failed": 2, "metrics": {"epoch_s": {"value": 1.0}}}',
    ],
)
def test_a_failed_run_is_refused(stdout):
    with pytest.raises(bench_pairs.RunFailed):
        bench_pairs.parse_result(stdout)


def test_a_correct_run_gives_its_values():
    stdout = 'corpus {}\n{"correct": true, "failed": 0, "metrics": {"epoch_s": {"value": 0.5}}}\n'
    assert bench_pairs.parse_result(stdout) == {"epoch_s": 0.5}
