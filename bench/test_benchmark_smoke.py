"""Tests of the benchmark itself: smoke mode runs every workload with its output checks."""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from run import tail  # noqa: E402


def test_smoke_runs_every_workload_with_checks_and_all_metrics():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    ran = {(r["workload"], r["trace"]) for r in results}
    names = {w for w, _ in ran}
    assert names >= {w["name"] for w in spec["workloads"]}
    assert ran == {(w, t) for w in names for t in (0, 1)}
    for r in results:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        wanted = spec["per_layer"] if r["trace"] else spec["end_to_end"]
        assert {k: v["unit"] for k, v in r["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted}


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert tail([float(x) for x in range(40, 0, -1)]) == (30.0, 75.0)
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(x) for x in range(1, 21)]) == (20.0, 100.0)  # too few: the slowest
