"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

E2E = ["items_per_s", "item_p50_ms", "item_tail_ms", "setup_s", "peak_rss_mb"]


def _bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)


def _smoke():
    proc = _bench("--smoke")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return proc.returncode, {r["workload"]: r for r in rows}, proc.stderr


COUNTS = [m for m, unit in spans.PER_LAYER if unit == "count"]


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = [_smoke(), _smoke()]

    def test_every_workload_passes_with_all_metrics(self):
        rc, rows, err = self.runs[0]
        self.assertEqual(rc, 0, err)
        self.assertEqual(sorted(rows), sorted(workloads.ALL))
        for name, row in rows.items():
            self.assertTrue(row["correct"], (name, row["errors"]))
            self.assertEqual(sorted(row["e2e"]), sorted(E2E))
            for metric in E2E:
                self.assertGreater(row["e2e"][metric], 0, (name, metric))
            self.assertEqual(list(row["per_layer"]),
                             [m for m, _ in spans.PER_LAYER])

    def test_spans_cover_the_item(self):
        _, rows, _ = self.runs[0]
        for name, row in rows.items():
            self.assertLess(row["per_layer"]["trace.root_self_share"], 0.1,
                            name)

    def test_counters_repeat_exactly(self):
        (_, a, _), (_, b, _) = self.runs
        for name in a:
            for m in COUNTS:
                self.assertEqual(a[name]["per_layer"][m],
                                 b[name]["per_layer"][m], (name, m))


class TracedRunTest(unittest.TestCase):
    def test_counters_repeat_exactly_across_runs(self):
        # Runs of different length hold different numbers of whole rounds;
        # per-item counters must not depend on that.
        results = []
        for seconds in ("0.2", "0.6"):
            proc = _bench("--workload", "compile-corpus", "--seed", "3",
                          "--seconds", seconds, "--trace", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        a, b = (r["metrics"] for r in results)
        self.assertEqual(list(a), [m for m, _ in spans.PER_LAYER])
        for m in COUNTS:
            self.assertEqual(a[m]["value"], b[m]["value"], m)
        self.assertGreater(a["cps.term_nodes"]["value"], 0)


class NoSourceTest(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        os.makedirs(os.path.join(BENCH, "_work"), exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="nosrc-", dir=os.path.join(BENCH, "_work"))
        try:
            os.mkdir(os.path.join(tmp, "bench"))
            for f in os.listdir(BENCH):
                if f.endswith(".py"):
                    shutil.copy(os.path.join(BENCH, f),
                                os.path.join(tmp, "bench", f))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "extract-mix",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class OracleTest(unittest.TestCase):
    def test_wrong_witness_fails_the_item(self):
        import mupcf.cli as cli
        from mupcf.cps import normalize_lam
        runner = run.Runner(cli, normalize_lam)
        try:
            # succ-total's witness for 5 is 6; expecting 5 must fail.
            bad = workloads._extract_item(ROOT, "succ-total", 5, 5)
            good = workloads._extract_item(ROOT, "succ-total", 5, 6)
            runner.run_rounds([bad, good], random.Random(0), 0)
        finally:
            runner.restore()
        self.assertEqual((runner.attempted, runner.failed), (2, 1))
        self.assertIn("succ-total at 5: witness 6 != 5", runner.errors[0])
        # Every item has a host probe on each side of it.
        self.assertEqual(len(runner.factors()), 2)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 31))
        self.assertEqual(run.percentile(xs, 0.5), 15)
        self.assertEqual(run.percentile(xs, 0.63), 19)  # 11 values beyond
        self.assertEqual(run.percentile(xs, 1.0), 30)
        self.assertEqual(run.percentile([7], 0.99), 7)


if __name__ == "__main__":
    unittest.main()
