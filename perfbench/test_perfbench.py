"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Span, self_seconds  # noqa: E402
from workloads import SCAN_DELAYS, SCAN_HEADER, OpRun, _scan_op, records_qber  # noqa: E402


def test_smoke_runs_every_workload_untraced_and_traced():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok (") == 6


def test_interaction_map_covers_the_per_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["per_layer"]
    assert list(layers) == [m["name"] for m in bench["per_layer"]]
    for entry in layers.values():
        assert set(entry["workloads"]) <= set(run.WORKLOADS)
        assert set(entry["moves"]) <= set(run.metric_units(0))


def test_a_check_that_raises_on_malformed_output_fails_the_op(tmp_path):
    op = _scan_op(1, 1000, tmp_path, 1)
    header_and_rows = [SCAN_HEADER] + [f"{d:g},0.5,0.01,100,50" for d in SCAN_DELAYS]
    op.output.write_text("\n".join(header_and_rows[:-1] + ["200,0.5"]) + "\n", encoding="ascii")
    runner = run.Runner(cli_main=None)
    runner.judge(op, OpRun(0, "", "", 0.1))
    op.output.unlink()
    runner.judge(op, OpRun(0, "", "", 0.1))
    assert (runner.attempted, runner.failed) == (2, 2)


def test_checkout_without_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "delay_scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("n, value, beyond", [(1, 0, 0), (12, 6, 5), (21, 10, 10), (100, 89, 10)])
def test_tail_keeps_ten_samples_beyond_and_never_drops_below_the_median(n, value, beyond):
    got, _, got_beyond = run.tail(list(range(n))[::-1])
    assert (got, got_beyond) == (value, beyond)


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = Span(1, 0, 1, "cli.main", 0.0, 10.0, "t", None)
    kids = [Span(2, 1, 1, "a", 1.0, 4.0, "t", None), Span(3, 1, 1, "b", 3.0, 5.0, "u", None),
            Span(4, 1, 1, "c", 9.0, 12.0, "t", None)]
    assert self_seconds(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)


def test_records_qber_matches_hand_count_and_rejects_bad_rows():
    rows = ["0,X,0,X,1,0", "1,X,1,X,1,0", "2,Y,1,X,0,1", "3,Y,1,Y,0,1", "4,X,0,X,1,1"]
    raw = ("bit_index,alice_basis,alice_bit,bob_basis,click_d0,click_d1\n" + "\n".join(rows) + "\n").encode()
    assert records_qber(raw, 5) == (3, 1)
    with pytest.raises(ValueError):
        records_qber(raw, 6)
    with pytest.raises(ValueError):
        records_qber(raw.replace(b"3,Y,1,Y", b"3,Z,1,Y"), 5)
