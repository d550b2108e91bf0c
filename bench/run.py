"""mupcf benchmark: closed-loop CLI workloads with checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload extract-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One client runs the workload's items back to back in this process, each a
``mupcf.cli.main([...])`` call with its output captured, and checks every
output. With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. See bench/README.md for the metrics and workloads.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_PROBES = 15
MAX_ERRORS_SHOWN = 5
# The host this benchmark runs on is shared: the same pure-Python loop runs
# up to twice as slow for seconds at a time, and its typical speed drifts by
# a third over minutes. So the runner times a fixed loop that does not touch
# mupcf (host_probe) before the first item, after an item once PROBE_EVERY_S
# of item time has passed since the last probe, and after the last item.
# Every item's time is divided by its host factor: the mean of the probes
# just before and just after it, over REF_PROBE_S. Reported times thus read
# as on a host whose probe takes REF_PROBE_S, about its typical time on the
# 2-vCPU VM this was tuned on.
PROBE_EVERY_S = 0.25
PROBE_CHAIN, PROBE_REPEAT = 4000, 10
REF_PROBE_S = 0.005


def host_probe():
    """Seconds taken by a fixed allocation-heavy pure-Python loop, with the
    garbage collector off so that the program's heap does not change it.
    The loop holds at most PROBE_CHAIN tuples at a time (a few hundred KB),
    so that it does not raise the peak RSS that the run reports."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPEAT):
            x = None
            for i in range(PROBE_CHAIN):
                x = (i, x)
            d = {}
            while x is not None:
                d[x[0] & 255] = x
                x = x[1]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


class Runner:
    """Runs items of one workload and checks their outputs."""

    def __init__(self, cli, normalize):
        self.cli = cli
        self.normalize = normalize
        self.captured = {}
        self.latencies = []    # item seconds, as measured
        self.probe_before = []  # item -> index of the last probe before it
        self.probes = []       # host_probe() times
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracer = None
        self._since_probe = 0.0
        # The cps command prints its translated term but does not return
        # it; keep the term and its context so that the item can normalize
        # it and the oracle can re-typecheck it.
        self._typecheck_lam = orig = cli.typecheck_lam

        def capture(t, ctx=None):
            self.captured["cps"] = (t, ctx)
            return orig(t, ctx)

        cli.typecheck_lam = capture

    def restore(self):
        self.cli.typecheck_lam = self._typecheck_lam

    def probe(self):
        self.probes.append(host_probe())
        self._since_probe = 0.0

    def factors(self):
        """Each item's host factor: the mean of the probes just before and
        just after it, over REF_PROBE_S."""
        p = self.probes
        return [(p[k] + p[k + 1]) / (2.0 * REF_PROBE_S)
                for k in self.probe_before]

    def scaled(self):
        """Item seconds divided by their host factors."""
        return [dt / f for dt, f in zip(self.latencies, self.factors())]

    def _body(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(item.argv)
        if item.normalize:
            self.captured["normal"] = self.normalize(*self.captured["cps"])
        return rc, out.getvalue()

    def run_item(self, item):
        self.captured = {}
        self.attempted += 1
        self.probe_before.append(len(self.probes) - 1)
        body = self._body
        first_span = 0
        if self.tracer is not None:
            self.tracer.item = self.attempted
            first_span = len(self.tracer.names)
            body = self.tracer.span("item", body)
        t0 = time.perf_counter()
        try:
            rc, out = body(item)
        except SystemExit as ex:
            rc, out = ex.code, ""
        except Exception as ex:  # an item that raises is a failed item
            rc, out = None, f"{type(ex).__name__}: {ex}"
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        if self.tracer is not None:
            self.tracer.settle(first_span)
        try:
            item.check(rc, out, self.captured)
        except Exception as ex:  # wrong output, or the oracle's check failed
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{item.key}: {type(ex).__name__}: {ex}")
        return dt

    def run_rounds(self, items, rng, seconds):
        """Whole rounds, each in a fresh seeded order, until the items have
        taken at least `seconds`, with host probes around them. Returns the
        indices of the items run, as a range into self.latencies."""
        first = len(self.latencies)
        if not self.probes:
            self.probe()
        spent = 0.0
        while True:
            order = list(items)
            rng.shuffle(order)
            for item in order:
                dt = self.run_item(item)
                spent += dt
                self._since_probe += dt
                if self._since_probe >= PROBE_EVERY_S:
                    self.probe()
            if spent >= seconds:
                break
        if self.probe_before[-1] == len(self.probes) - 1:
            self.probe()
        return range(first, len(self.latencies))

    def traced_rounds(self, items, rng, seconds, spans):
        """run_rounds with every layer boundary traced; returns the Tracer
        along with the indices of the items run."""
        tracer = self.tracer = spans.Tracer()
        untraced = self.normalize
        self.normalize = tracer.span("cps.normalize_lam", untraced)
        tracer.install(sys.modules)
        try:
            done = self.run_rounds(items, rng, seconds)
        finally:
            tracer.uninstall()
            self.tracer, self.normalize = None, untraced
        return tracer, done


def setup_seconds(workload, seed, probes):
    """Median over `probes` fresh interpreters of the time from starting one
    to the moment it has imported mupcf.cli and built the workload's inputs.
    Returns (median of the times divided by the host factor around each
    start, median as measured)."""
    raw, scaled = [], []
    before = host_probe()
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc}): {line!r}")
        after = host_probe()
        raw.append(dt)
        scaled.append(dt * 2.0 * REF_PROBE_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def pin_to_one_cpu():
    """Keep this process, and the set-up probes it starts, on one CPU, so
    that the host probes time the CPU that the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def latency_metrics(lat, tail_q):
    return {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (percentile(lat, 0.5) * 1000.0, "ms"),
        "item_tail_ms": (percentile(lat, tail_q) * 1000.0, "ms"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(runner, metrics, details, also_shown=()):
    """Print each metric with its unit (those of also_shown too, which the
    result object leaves out), then one JSON line of details, then the
    result object as the last line."""
    for err in runner.errors:
        print(f"FAILED {err}")
    for name, (value, unit) in [*metrics.items(), *also_shown]:
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def run_workload(args, cli, normalize, workloads, spans):
    name = args.workload
    rng = random.Random(f"{name}/{args.seed}")
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root())
    try:
        items = workloads.BUILDERS[name](ROOT, rng, workdir)
        runner = Runner(cli, normalize)
        tail_q = workloads.TAIL_Q[name]
        details = {"workload": name, "seed": args.seed}
        also_shown = ()
        if not args.trace:
            done = runner.run_rounds(items, rng, args.seconds)
            metrics = latency_metrics(runner.scaled(), tail_q)
            setup_s, setup_raw = setup_seconds(name, args.seed, SETUP_PROBES)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            raw = latency_metrics(runner.latencies, tail_q)
            n = len(done)
            fail_ratio = runner.failed / runner.attempted
            also_shown = [("fail_ratio", (fail_ratio, "ratio"))]
            details.update({
                "items": n,
                "item_seconds": sum(runner.latencies),
                "fail_ratio": fail_ratio,
                "tail_percentile": tail_q * 100.0,
                "tail_samples": n,
                "tail_beyond": n - max(1, math.ceil(tail_q * n)),
                "as_measured": {k: v for k, (v, _) in raw.items()},
            })
            details["as_measured"]["setup_s"] = setup_raw
        else:
            half = args.seconds / 2.0
            done_u = runner.run_rounds(items, rng, half)
            tracer, done_t = runner.traced_rounds(items, rng, half, spans)
            values = layer_metrics(runner, tracer, done_u, done_t)
            metrics = {m: (values[m], unit) for m, unit in spans.PER_LAYER}
            out_dir = os.path.join(BENCH, "_out")
            os.makedirs(out_dir, exist_ok=True)
            span_file = os.path.join(out_dir,
                                     f"spans-{name}-seed{args.seed}.jsonl")
            tracer.dump(span_file)
            details.update({
                "items_untraced": len(done_u),
                "items_traced": len(done_t),
                "spans": len(tracer.names),
                "span_file": os.path.relpath(span_file, ROOT),
            })
        details["host_factor_median"] = statistics.median(runner.factors())
        report(runner, metrics, details, also_shown)
        return 0 if runner.failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(runner, tracer, done_u, done_t):
    """The tracer's per-layer metrics over the traced items done_t, with the
    tracing overhead against the untraced items done_u."""
    lat, fac = runner.scaled(), runner.factors()

    def ips(done):
        return len(done) / sum(lat[i] for i in done)

    # Item ids count from 1 (Runner.attempted).
    factors = {i + 1: fac[i] for i in done_t}
    return tracer.metrics(factors, sum(lat[i] for i in done_t),
                          ips(done_t) - ips(done_u))


def setup_probe(args, workloads):
    rng = random.Random(f"{args.workload}/{args.seed}")
    workdir = tempfile.mkdtemp(prefix="probe-", dir=work_root())
    try:
        workloads.BUILDERS[args.workload](ROOT, rng, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def smoke(cli, normalize, workloads, spans):
    """One tiny item per workload, untraced and then traced; one JSON line
    per workload with its end-to-end and per-layer metrics."""
    ok = True
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=work_root())
    try:
        for name in workloads.ALL:
            items = workloads.smoke(name, ROOT, workdir)
            runner = Runner(cli, normalize)
            rng = random.Random(0)
            done_u = runner.run_rounds(items, rng, 0)
            e2e = latency_metrics([runner.scaled()[i] for i in done_u], 0.5)
            e2e["setup_s"] = (setup_seconds(name, 0, 1)[0], "s")
            e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
            tracer, done_t = runner.traced_rounds(items, rng, 0, spans)
            runner.restore()
            ok = ok and runner.failed == 0
            print(json.dumps({
                "workload": name,
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "errors": runner.errors,
                "e2e": {k: v for k, (v, _) in e2e.items()},
                "per_layer": layer_metrics(runner, tracer, done_u, done_t),
            }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def work_root():
    path = os.path.join(BENCH, "_work")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one tiny item per workload, then exit")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "mupcf")):
        print(f"bench: no mupcf sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import mupcf.cli as cli
    from mupcf.cps import normalize_lam
    import spans
    import workloads

    if args.setup_probe:
        return setup_probe(args, workloads)
    pin_to_one_cpu()
    if args.smoke:
        return smoke(cli, normalize_lam, workloads, spans)
    if args.workload not in workloads.ALL:
        p.error(f"--workload must be one of {', '.join(workloads.ALL)}")
    return run_workload(args, cli, normalize_lam, workloads, spans)


if __name__ == "__main__":
    sys.exit(main())
