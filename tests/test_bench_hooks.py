"""The benchmark (bench/) runs mupcf in process: its tracer wraps
module-level names of mupcf by (module, attribute), and its workloads check
every output with oracles of their own.  A change to mupcf that breaks
either fails here."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = [(mod, attr) for mod, attr, _ in spans.WRAPPED
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_benchmark_smoke_run_is_correct():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(l) for l in done.stdout.splitlines()
             if l.startswith("{")]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(l["workload"] for l in lines) == sorted(
        w["name"] for w in declared["workloads"])
    for line in lines:
        assert (line["correct"], line["failed"]) == (True, 0), line


def test_benchmark_unit_tests_pass():
    done = subprocess.run([sys.executable, "-m", "unittest", "discover",
                           "-s", str(BENCH)],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
