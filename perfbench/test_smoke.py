"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Runs in a few seconds; the full benchmark is ``perfbench/run.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import tracing

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_correctly():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {(r["workload"], r["trace"]) for r in rows} == \
        {(w, t) for w in ("certify_large", "reduce_walk", "cli_small", "roots_box") for t in (0, 1)}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics(tracing.TARGETS)
