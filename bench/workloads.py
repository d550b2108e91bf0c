"""Workload definitions: seeded CLI items and their correctness oracles.

A workload builds one *round*: a fixed multiset of items drawn from the
seed, which the runner repeats (reshuffled) until its time is up. Every
round of a run holds the same inputs, so per-item counters are exact and
the latency mix does not depend on how many rounds fit in the time.

Each item is one ``mupcf.cli.main(argv)`` call. Its oracle checks the
captured output against facts that do not come from the code under test
(the witness a proof must produce, the value a generated term must reach)
or, for the front end, against properties the paper guarantees (the
relativized proof re-checks, the interpretation has the interpreted type,
the cps output typechecks).
"""

import json
import os
import re
from dataclasses import dataclass

from mupcf.cps import (
    LArr, cps_type, lam_term_str, lam_type_str, typecheck_lam,
)
from mupcf.format import parse_file, parse_source, term_decl, type_sexp
from mupcf.interp import interp_envs, interp_type
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, TArr, TBOT, lams, lapp, mk_barrec,
    mk_len, mk_nil, t_list, typecheck,
)
from mupcf.logic import THEORIES, check_proof

# Far above any step count the baseline needs (barrec depth 3 takes 531
# steps, add0-total at n=6 takes 416), so a change to how steps are
# counted cannot turn a passing item into a timeout.
FUEL = 10 ** 9

ALL = ("extract-mix", "compile-corpus", "barrec-spine")

# Nearest-rank percentile reported as item_tail_ms. Fixed per workload so
# that runs of faster or slower code compare the same point of the same
# mix. Each leaves at least ten samples beyond it in a baseline run and
# falls inside one block of items of about the same cost (see the round
# layouts below), so that noise does not flip it between inputs of
# different cost. The median (0.5) likewise falls inside one block.
TAIL_Q = {
    "extract-mix": 0.83,
    "compile-corpus": 0.99,
    "barrec-spine": 0.82,
}


class OracleError(Exception):
    """An item's output is wrong."""


@dataclass
class Item:
    key: str
    argv: list
    check: object  # callable(rc, stdout, captured) -> None, raises OracleError
    normalize: bool = False  # also run cps.normalize_lam on the cps output


def _payload(rc, out):
    if rc != 0:
        raise OracleError(f"exit code {rc}: {out[:200]!r}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as ex:
        raise OracleError(f"output is not JSON: {ex}") from None


def _expect(cond, msg):
    if not cond:
        raise OracleError(msg)


# ---------------------------------------------------------------- extract


def _extract_item(root, stem, n, witness):
    path = os.path.join(root, "corpus", f"{stem}.proof")

    def check(rc, out, _captured):
        p = _payload(rc, out)
        rows = p.get("rows")
        _expect(p.get("name") == stem, f"name {p.get('name')!r}")
        _expect(isinstance(rows, list) and len(rows) == 1,
                f"expected one row, got {rows!r}")
        row = rows[0]
        _expect(row.get("input") == n, f"input {row.get('input')!r} != {n}")
        _expect(row.get("witness") == witness,
                f"{stem} at {n}: witness {row.get('witness')!r} != {witness}")
        _expect(row.get("verdict") == "pass",
                f"{stem} at {n}: verdict {row.get('verdict')!r}")

    argv = ["extract", path, "--inputs", f"{n}..{n}", "--fuel", str(FUEL),
            "--format", "structured"]
    return Item(f"extract:{stem}:{n}", argv, check)


# A round is built of blocks of items that cost about the same, so that the
# median and the tail percentile (TAIL_Q) each fall inside one block rather
# than between inputs of different cost, which noise would swap from run to
# run. Costs on the 2-vCPU VM this was tuned on, host-scaled: add0-total
# takes 0.08 s at n=0, 0.34 s at n=4, 0.49 s at n=5, 0.68 s at n=6 and
# 1.0 s at n=8; evaluating the extracted program is over 95% of it. A
# numeral proof takes 11-16 program steps; nearly all of its time is
# witness checking, which grows about quadratically in n (0.17 s at n=200,
# 0.37 s at n=300, 0.8 s at n=450, the same for all three proofs).
#
#   add0-total n=0..3, numerals at n~100     7 items  0.04-0.23 s
#   add0-total n=4, numerals at n~300        7 items  0.34-0.37 s  <- median
#   add0-total n=5                           1 item   0.49 s
#   add0-total n=6                           6 items  0.68 s       <- tail
#
# About 8 s a round, so a 30 s run holds four rounds (84 items), and the
# tail leaves at least ten samples beyond it from three rounds on. Heavier
# inputs (add0-total past n=6, numerals past n=300) would leave too few
# rounds in a run, or too few heavy samples in a round, for steady
# percentiles.
ADD0_ONCE = range(6)
ADD0_HEAVY, ADD0_HEAVY_COUNT = 6, 6

# Witness each numeral proof must return for input n.
NUMERAL_PROOFS = {
    "succ-total": lambda n: n + 1,
    "ident-total": lambda n: n,
    "skk-total": lambda n: n,
}
# Input -> items per round, for each numeral proof.
NUMERAL_COUNTS, NUMERAL_JITTER = {100: 1, 300: 2}, 4


def extract_mix(root, rng, workdir):
    """add0-total once at each n in ADD0_ONCE and ADD0_HEAVY_COUNT times at
    ADD0_HEAVY; each numeral proof as NUMERAL_COUNTS says, each time at its
    input moved by the seed by up to NUMERAL_JITTER."""
    items = [_extract_item(root, "add0-total", n, n) for n in ADD0_ONCE]
    items += [_extract_item(root, "add0-total", ADD0_HEAVY, ADD0_HEAVY)
              ] * ADD0_HEAVY_COUNT
    for stem in sorted(NUMERAL_PROOFS):
        for base, count in NUMERAL_COUNTS.items():
            for _ in range(count):
                n = base + rng.randint(-NUMERAL_JITTER, NUMERAL_JITTER)
                items.append(
                    _extract_item(root, stem, n, NUMERAL_PROOFS[stem](n)))
    return items


# ---------------------------------------------------------------- compile


_DECL = re.compile(r"\((proof|term|theory)\s+([^\s()]+)")
_GUARDED = {"paw": "pawr", "caw": "cawr"}


def _declarations(text):
    proofs, terms, theory = [], [], "paw"
    for kind, name in _DECL.findall(text):
        if kind == "proof":
            proofs.append(name)
        elif kind == "term":
            terms.append(name)
        else:
            theory = name
    return proofs, terms, theory


class _FrontEndOracle:
    """Checks front-end outputs by the properties the paper guarantees.

    The checks call into mupcf (the checker, the typecheckers), but only to
    re-validate an output, never to recompute the expected output."""

    def __init__(self, path, proofs, terms, theory):
        self.path, self.proofs, self.terms = path, proofs, terms
        self.theory = theory
        self.seen = set()
        self.ws = None
        self.want_cps = None

    def _source(self):
        if self.ws is None:
            self.ws = parse_file(self.path)
        return (self.proofs or self.terms)[0], self.ws

    def check(self, rc, out, captured):
        p = _payload(rc, out)
        cmd = p.get("command")
        if cmd == "check":
            want = [{"name": n, "status": "ok"} for n in self.proofs]
            _expect(p.get("results") == want, f"check results {p!r}")
            return
        memo = (cmd, out)
        if memo in self.seen and cmd != "cps":
            return
        name, ws = self._source()
        _expect(p.get("name") == name, f"name {p.get('name')!r}")
        if cmd == "relativize":
            rtheory = _GUARDED[self.theory]
            _expect(p.get("theory") == rtheory,
                    f"relativized theory {p.get('theory')!r} != {rtheory}")
            rws = parse_source(f"(theory {rtheory})\n(proof {name}\n"
                               f"  (goal {p['goal']})\n  {p['proof']})\n")
            goal, pf = rws.proofs[name]
            check_proof(pf, THEORIES[rtheory], goal)
        elif cmd == "interp":
            goal, _ = ws.proofs[name]
            want = interp_type(goal.concl)
            t = parse_source(f"(term t {p['term']})\n").terms["t"]
            env, lenv = interp_envs(goal)
            _expect(typecheck(t, env, lenv) == want,
                    f"interp term of {name} does not have the interpreted type")
            _expect(p.get("type") == type_sexp(want),
                    f"interp type {p.get('type')!r} != {type_sexp(want)}")
        elif cmd == "cps":
            self._check_cps(p, name, ws, captured, memo)
        else:
            raise OracleError(f"unexpected command {cmd!r}")
        self.seen.add(memo)

    def _check_cps(self, p, name, ws, captured, memo):
        _expect("cps" in captured and "normal" in captured,
                "cps output was not captured")
        g, ctx = captured["cps"]
        if memo not in self.seen:
            if name in ws.proofs:
                src_ty = interp_type(ws.proofs[name][0].concl)
            else:
                src_ty = typecheck(ws.terms[name])
            want = lam_type_str(LArr(cps_type(src_ty)))
            _expect(p.get("term") == lam_term_str(g),
                    "printed cps term differs from the translated term")
            _expect(lam_type_str(typecheck_lam(g, ctx)) == want,
                    f"cps output of {name} does not typecheck at {want}")
            _expect(p.get("type") == want,
                    f"cps type {p.get('type')!r} != {want}")
            self.want_cps = want
        nf = captured["normal"]
        _expect(lam_type_str(typecheck_lam(nf, ctx)) == self.want_cps,
                f"normal form of the cps output of {name} changed type")


def compile_corpus(root, rng, workdir):
    """check, relativize (paw/caw only), interp and cps on every corpus
    file they apply to; cps items also normalize the translated term."""
    items = []
    corpus = os.path.join(root, "corpus")
    for fname in sorted(os.listdir(corpus)):
        path = os.path.join(corpus, fname)
        with open(path, encoding="utf-8") as fh:
            proofs, terms, theory = _declarations(fh.read())
        oracle = _FrontEndOracle(path, proofs, terms, theory)
        cmds = []
        if proofs:
            cmds += ["check", "interp"]
            if theory in _GUARDED:
                cmds.append("relativize")
        if len(proofs) + len(terms) == 1:
            cmds.append("cps")
        for cmd in cmds:
            argv = [cmd, path, "--format", "structured"]
            items.append(Item(f"{cmd}:{fname}", argv, oracle.check,
                              normalize=cmd == "cps"))
    return items


# ---------------------------------------------------------------- barrec


# Items per round at each depth. Each depth costs three to four times the
# one before (host-scaled 0.03, 0.13, 0.45, 1.6 s); depth 4 (4-5 s) would
# take more time than all the others together. These counts put the median
# in the middle of the depth-1 block and the tail in the middle of the
# depth-2 block. About 3.2 s a round, so a 30 s run holds nine rounds.
BARREC_COUNTS = {0: 3, 1: 5, 2: 2, 3: 1}


def barrec_term(n):
    """mu kappa. barrec d e nil, where d extends the sequence by calling its
    continuation with len s and e throws index n of the sequence to kappa.
    The sequence built is 0, 1, 2, ..., so the value is n."""
    d = lams([("s", t_list(NAT)), ("k", TArr(NAT, TBOT))],
             Mu("b", NAT, LApp(LVar("k"), LApp(mk_len(NAT), LVar("s")))))
    e = Lam("al", TArr(NAT, NAT),
            Named("kappa", LApp(LVar("al"), Num(n))))
    return Mu("kappa", NAT, lapp(mk_barrec(NAT, TBOT), d, e, mk_nil(NAT)))


def barrec_spine(root, rng, workdir):
    items = []
    for n, count in BARREC_COUNTS.items():
        path = os.path.join(workdir, f"barrec-{n}.term")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(term_decl(f"barrec{n}", barrec_term(n)))

        def check(rc, out, _captured, n=n):
            p = _payload(rc, out)
            _expect(p.get("value") == n,
                    f"barrec depth {n}: value {p.get('value')!r}")

        argv = ["eval", path, "--fuel", str(FUEL), "--format", "structured"]
        items += [Item(f"eval:barrec:{n}", argv, check)] * count
    return items


BUILDERS = {
    "extract-mix": extract_mix,
    "compile-corpus": compile_corpus,
    "barrec-spine": barrec_spine,
}


def smoke(name, root, workdir):
    """One tiny item of the named workload."""
    if name == "extract-mix":
        return [_extract_item(root, "add0-total", 1, 1)]
    if name == "compile-corpus":
        return [i for i in compile_corpus(root, None, workdir)
                if i.key == "cps:and-comm.proof"]
    return barrec_spine(root, None, workdir)[:1]
