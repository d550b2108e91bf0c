"""Spans around the calls between mupcf's modules, recorded from outside.

Each wrapped function is replaced by a wrapper in the namespace of the
module that calls it (``from .logic import check_proof`` binds a name in
the caller's module, so that is where the wrapper must go). Recursive
definitions are never wrapped in their own module: only their entry calls
from other modules are seen, so a span is one call into a layer.

A span is (name, start, end, parent index, item id). Spans stay in memory
and are written out when the run ends. A layer's self time is its spans'
durations minus the time of the traced spans directly under them.
"""

import dataclasses
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name). Every call from one module into another
# that an item can reach, so that traced spans cover the item.
WRAPPED = [
    ("mupcf.cli", "main", "cli.main"),
    ("mupcf.cli", "parse_file", "format.parse_file"),
    ("mupcf.cli", "term_sexp", "format.print"),
    ("mupcf.cli", "proof_sexp", "format.print"),
    ("mupcf.cli", "formula_sexp", "format.print"),
    ("mupcf.cli", "type_sexp", "format.print"),
    ("mupcf.cli", "check_proof", "logic.check_proof"),
    ("mupcf.cli", "rel_proof", "relativize.rel_proof"),
    ("mupcf.cli", "interp_proof", "interp.interp_proof"),
    ("mupcf.cli", "typecheck", "lambdamu.typecheck"),
    ("mupcf.cli", "eval_nat", "lambdamu.eval_nat"),
    ("mupcf.cli", "cps_term", "cps.cps_term"),
    ("mupcf.cli", "typecheck_lam", "cps.typecheck_lam"),
    ("mupcf.cli", "lam_term_str", "cps.print"),
    ("mupcf.cli", "lam_type_str", "cps.print"),
    ("mupcf.cli", "run_extraction", "extract.run_extraction"),
    ("mupcf.extract", "extract_program", "extract.extract_program"),
    ("mupcf.extract", "verify_witness", "extract.verify_witness"),
    ("mupcf.extract", "check_proof", "logic.check_proof"),
    ("mupcf.extract", "rel_proof", "relativize.rel_proof"),
    ("mupcf.extract", "interp_proof", "interp.interp_proof"),
    ("mupcf.extract", "typecheck", "lambdamu.typecheck"),
    ("mupcf.extract", "eval_nat", "lambdamu.eval_nat"),
    ("mupcf.interp", "check_proof", "logic.check_proof"),
    ("mupcf.relativize", "check_proof", "logic.check_proof"),
    ("mupcf.cps", "typecheck", "lambdamu.typecheck"),
]

# What a span keeps of its call, for counters computed after the item.
_KEEP = {
    "format.parse_file": lambda args, out: args[0],
    "relativize.rel_proof": lambda args, out: out[0],
    "interp.interp_proof": lambda args, out: out,
    "cps.cps_term": lambda args, out: out,
    "cps.normalize_lam": lambda args, out: out,
    "lambdamu.eval_nat": lambda args, out: out[1],
}

PER_LAYER = [
    # (metric, unit)
    ("cli.self_ms", "ms"),
    ("format.parse_file.ms", "ms"),
    ("format.parse_file.kb_per_s", "KB/s"),
    ("format.print.ms", "ms"),
    ("logic.check_proof.ms", "ms"),
    ("logic.check_proof.calls_per_item", "count"),
    ("relativize.rel_proof.ms", "ms"),
    ("relativize.proof_nodes", "count"),
    ("interp.interp_proof.ms", "ms"),
    ("interp.term_nodes", "count"),
    ("lambdamu.typecheck.ms", "ms"),
    ("lambdamu.eval_nat.program_ms", "ms"),
    ("lambdamu.eval_nat.program_steps", "count"),
    ("lambdamu.eval_nat.program_us_per_step", "us"),
    ("lambdamu.eval_nat.witness_ms", "ms"),
    ("lambdamu.eval_nat.witness_steps", "count"),
    ("cps.cps_term.ms", "ms"),
    ("cps.typecheck_lam.ms", "ms"),
    ("cps.normalize_lam.ms", "ms"),
    ("cps.print.ms", "ms"),
    ("cps.term_nodes", "count"),
    ("cps.normal_nodes", "count"),
    ("extract.run_extraction.self_ms", "ms"),
    ("extract.extract_program.self_ms", "ms"),
    ("extract.verify_witness.self_ms", "ms"),
    ("extract.verify_witness.share", "ratio"),
    ("trace.root_self_share", "ratio"),
    ("trace.overhead_items_per_s", "1/s"),
]


def count_nodes(obj):
    """Dataclass nodes in a syntax tree, a shared subtree counted at each
    occurrence."""
    n, stack = 0, [obj]
    while stack:
        x = stack.pop()
        if dataclasses.is_dataclass(x):
            n += 1
            stack.extend(vars(x).values())
        elif isinstance(x, tuple):
            stack.extend(x)
    return n


class Tracer:
    def __init__(self):
        self.names = []    # span index -> name
        self.starts = []
        self.ends = []
        self.parents = []  # span index -> parent span index, -1 for none
        self.items = []    # span index -> item id
        self.kept = {}     # span index -> value from _KEEP
        self.stack = []
        self.item = None
        self._saved = []

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        keep = _KEEP.get(name)

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.items.append(self.item)
            self.ends.append(None)
            self.stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as ex:
                if hasattr(ex, "steps"):
                    self.kept[idx] = ex.steps
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self.stack.pop()
            if keep is not None:
                self.kept[idx] = keep(args, out)
            return out

        return traced

    def install(self, modules):
        for mod, attr, name in WRAPPED:
            m = modules[mod]
            orig = getattr(m, attr)
            self._saved.append((m, attr, orig))
            setattr(m, attr, self.span(name, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved.clear()

    def settle(self, first):
        """Replace what spans from index first on kept by counters: syntax
        trees by their node counts, parsed file paths by their sizes."""
        for idx in range(first, len(self.names)):
            if idx not in self.kept:
                continue
            name = self.names[idx]
            if name == "format.parse_file":
                self.kept[idx] = os.path.getsize(self.kept[idx])
            elif name != "lambdamu.eval_nat":
                self.kept[idx] = count_nodes(self.kept[idx])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i], self.ends[i],
                                     self.parents[i], self.items[i]]) + "\n")

    def metrics(self, factors, item_s, overhead_items_per_s):
        """Per-layer metrics over the traced items. factors maps each item
        id to its host factor, by which the item's span times are divided;
        item_s is the items' summed latency in seconds, already divided."""
        items = len(factors)
        n = len(self.names)
        dur = [(self.ends[i] - self.starts[i]) / factors[self.items[i]]
               for i in range(n)]
        self_t = list(dur)
        under_vw = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_t[p] -= dur[i]
                under_vw[i] = (under_vw[p]
                               or self.names[p] == "extract.verify_witness")
        tot = defaultdict(float)    # self seconds by name
        calls = defaultdict(int)
        counts = defaultdict(int)   # kept counters by name
        root_self = 0.0
        vw_total = 0.0
        for i in range(n):
            name = self.names[i]
            if name == "item":
                root_self += self_t[i]
                continue
            if name == "lambdamu.eval_nat":
                name += ".witness" if under_vw[i] else ".program"
            if name == "extract.verify_witness":
                vw_total += dur[i]
            tot[name] += self_t[i]
            calls[name] += 1
            counts[name] += self.kept.get(i, 0)

        def ms(name):
            return tot[name] * 1000.0 / items

        def per_item(name):
            return counts[name] / items

        prog_s = tot["lambdamu.eval_nat.program"]
        prog_steps = counts["lambdamu.eval_nat.program"]
        parse_s = tot["format.parse_file"]
        out = {
            "cli.self_ms": ms("cli.main"),
            "format.parse_file.ms": ms("format.parse_file"),
            "format.parse_file.kb_per_s": (
                counts["format.parse_file"] / 1000.0 / parse_s
                if parse_s else 0.0),
            "format.print.ms": ms("format.print"),
            "logic.check_proof.ms": ms("logic.check_proof"),
            "logic.check_proof.calls_per_item":
                calls["logic.check_proof"] / items,
            "relativize.rel_proof.ms": ms("relativize.rel_proof"),
            "relativize.proof_nodes": per_item("relativize.rel_proof"),
            "interp.interp_proof.ms": ms("interp.interp_proof"),
            "interp.term_nodes": per_item("interp.interp_proof"),
            "lambdamu.typecheck.ms": ms("lambdamu.typecheck"),
            "lambdamu.eval_nat.program_ms": ms("lambdamu.eval_nat.program"),
            "lambdamu.eval_nat.program_steps": prog_steps / items,
            "lambdamu.eval_nat.program_us_per_step": (
                prog_s * 1e6 / prog_steps if prog_steps else 0.0),
            "lambdamu.eval_nat.witness_ms": ms("lambdamu.eval_nat.witness"),
            "lambdamu.eval_nat.witness_steps":
                per_item("lambdamu.eval_nat.witness"),
            "cps.cps_term.ms": ms("cps.cps_term"),
            "cps.typecheck_lam.ms": ms("cps.typecheck_lam"),
            "cps.normalize_lam.ms": ms("cps.normalize_lam"),
            "cps.print.ms": ms("cps.print"),
            "cps.term_nodes": per_item("cps.cps_term"),
            "cps.normal_nodes": per_item("cps.normalize_lam"),
            "extract.run_extraction.self_ms": ms("extract.run_extraction"),
            "extract.extract_program.self_ms": ms("extract.extract_program"),
            "extract.verify_witness.self_ms": ms("extract.verify_witness"),
            "extract.verify_witness.share": vw_total / item_s,
            "trace.root_self_share": root_self / item_s,
            "trace.overhead_items_per_s": overhead_items_per_s,
        }
        return out
