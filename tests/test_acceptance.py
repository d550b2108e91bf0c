"""Acceptance gate: one test per shipped guarantee, at its stated budget.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per guarantee.
"""

import json
import random
import time
from pathlib import Path

import pytest

from mupcf import cli
from mupcf.cps import LArr, cps_envs, cps_term, cps_type, typecheck_lam
from mupcf.errors import UserError
from mupcf.extract import PASS, run_extraction
from mupcf.interp import interp_envs, interp_proof, interp_type
from mupcf.lambdamu import (
    Lam, LApp, LVar, Mu, NAT, Named, Num, SUCC_T, TArr, TBOT, eval_nat, lams,
    lapp, mk_barrec, mk_concat, mk_extend, mk_ifz, mk_ind, mk_len, mk_nil,
    mk_rec, t_list, typecheck,
)
from mupcf.logic import (
    Atom, BotElim, BotIntro, Id, Imp, ImpElim, ImpIntro, Sequent, THEORIES,
    ZERO, check_proof, f_not,
)
from mupcf.relativize import rel_formula, rel_proof

import corpus_files
from reference import whnf_step
from termgen import gen_term, rand_type
from test_cps import EQUATIONS, _same

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _report(label):
    print(f"\nacceptance[{label}]: PASS")


# 1 ------------------------------------------------------------------------

def test_acceptance_derivability_corpus_fast_and_polarity_guarded():
    for name in ("exfalso", "dne", "peirce"):
        e = corpus_files.entry(name)
        t0 = time.perf_counter()
        check_proof(e.proof, THEORIES[e.theory], e.goal)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"

    # double-negation elimination must not go through for a positive matrix
    pos = Atom("rel", (ZERO,))
    goal = Sequent(concl=Imp(f_not(f_not(pos)), pos))
    pf = ImpIntro(
        "nn", f_not(f_not(pos)),
        BotElim("a", pos,
                ImpElim(Id("nn"),
                        ImpIntro("h", pos, BotIntro("a", Id("h"))))))
    with pytest.raises(UserError, match="must be negative"):
        check_proof(pf, THEORIES["pawr"], goal)
    _report("derivability corpus")


# 2 ------------------------------------------------------------------------

def test_acceptance_subject_reduction_on_random_terms():
    rng = random.Random(20260817)
    checked = 0
    for _ in range(200):
        ty = rand_type(rng, 3)
        t = gen_term(rng, ty, depth=8)
        assert typecheck(t) == ty
        cur = t
        for _ in range(500):
            nxt = whnf_step(cur)
            if nxt is None:
                break
            assert typecheck(nxt) == ty, f"type changed reducing {cur}"
            cur = nxt
        checked += 1
    assert checked == 200
    _report("subject reduction, 200 terms")


# 3 ------------------------------------------------------------------------

def test_acceptance_recursor_laws():
    def ev(t):
        return eval_nat(t, 10 ** 5)[0]

    succ_r = lams([("n", NAT), ("r", NAT)], LApp(SUCC_T, LVar("r")))
    keep_n = lams([("n", NAT), ("r", NAT)], LVar("n"))
    succ_n = lams([("n", NAT), ("r", NAT)], LApp(SUCC_T, LVar("n")))
    keep_r = lams([("n", NAT), ("r", NAT)], LVar("r"))
    swap = lams([("n", NAT), ("r", NAT)],
                lapp(mk_ifz(NAT), LVar("n"), LVar("r"),
                     LApp(SUCC_T, LVar("r"))))
    pool = [
        (Num(0), succ_r), (Num(7), succ_r), (Num(3), keep_n),
        (Num(0), succ_n), (Num(5), keep_r), (Num(2), swap),
        (LApp(SUCC_T, Num(1)), succ_r), (Num(9), keep_n),
        (lapp(Lam("x", NAT, LVar("x")), Num(4)), succ_r), (Num(1), succ_n),
    ]
    assert len(pool) == 10
    r = mk_rec(NAT)
    for a, b in pool:
        assert ev(lapp(r, a, b, Num(0))) == ev(a)
        for n in range(20):
            lhs = lapp(r, a, b, Num(n + 1))
            rhs = lapp(b, Num(n), lapp(r, a, b, Num(n)))
            assert ev(lhs) == ev(rhs), f"rec law failed at n={n}"
    _report("recursor laws, n <= 20")


# 4 ------------------------------------------------------------------------

def test_acceptance_list_and_bar_recursion_laws():
    def ev(t):
        return eval_nat(t, 10 ** 4)[0]

    a = NAT
    nil, ln = mk_nil(a), mk_len(a)
    ind, ext, cat = mk_ind(a), mk_extend(a), mk_concat(a)
    values = [3, 1, 4, 1, 5]
    s = nil
    assert ev(LApp(ln, s)) == 0
    for k, v in enumerate(values):
        s = lapp(ext, s, Num(v))
        assert ev(LApp(ln, s)) == k + 1
        for i in range(k + 1):
            assert ev(lapp(ind, s, Num(i))) == values[i]
        padded = lapp(cat, s, Num(8))
        for i in range(k + 1):
            assert ev(LApp(padded, Num(i))) == values[i]
        assert ev(LApp(padded, Num(k + 1))) == 8
        assert ev(LApp(padded, Num(k + 3))) == 8

    # bar recursion with a constant spine: the first oracle call answers
    d = lams([("s", t_list(a)), ("k", TArr(a, TBOT))], Num(42))
    e = Lam("f", TArr(NAT, NAT), Named("kappa", LApp(LVar("f"), Num(0))))
    t = Mu("kappa", NAT, lapp(mk_barrec(a, TBOT), d, e, nil))
    v, steps = eval_nat(t, 10 ** 4)
    assert v == 42
    assert steps <= 10 ** 4
    _report("list and bar-recursion laws")


# 5 ------------------------------------------------------------------------

def test_acceptance_interpretation_typing_over_corpus():
    entries = corpus_files.entries()
    passed = 0
    for e in entries:
        m = interp_proof(e.proof, THEORIES[e.theory], e.goal)
        env, lenv = interp_envs(e.goal)
        assert lenv["kappa"] == NAT
        assert typecheck(m, env, lenv) == interp_type(e.goal.concl), e.name
        passed += 1
    assert passed == len(entries)
    _report(f"interpretation typing, {passed}/{len(entries)} proofs")


# 6 ------------------------------------------------------------------------

def test_acceptance_relativization_soundness_over_corpus():
    entries = [e for e in corpus_files.entries() if e.theory in ("paw", "caw")]
    assert entries
    passed = 0
    for e in entries:
        pr, rth, rgoal = rel_proof(e.proof, THEORIES[e.theory], e.goal)
        assert rgoal.concl == rel_formula(e.goal.concl), e.name
        check_proof(pr, rth, rgoal)
        passed += 1
    assert passed == len(entries)
    _report(f"relativization soundness, {passed}/{len(entries)} proofs")


# 7 ------------------------------------------------------------------------

def test_acceptance_cps_transport():
    t0 = time.perf_counter()

    for e in corpus_files.entries():
        m = interp_proof(e.proof, THEORIES[e.theory], e.goal)
        env, lenv = interp_envs(e.goal)
        g = cps_term(m, env, lenv)
        want = LArr(cps_type(interp_type(e.goal.concl)))
        assert typecheck_lam(g, cps_envs(env, lenv)) == want, e.name

    rng = random.Random(127)
    for _ in range(200):
        ty = rand_type(rng, 3)
        t = gen_term(rng, ty, depth=6)
        g = cps_term(t)
        assert typecheck_lam(g, {}) == LArr(cps_type(ty))

    for name, lhs, rhs, env, lenv in EQUATIONS:
        assert _same(lhs, rhs, env, lenv), f"equation {name} not preserved"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"cps transport took {elapsed:.1f}s"
    _report(f"cps transport in {elapsed:.1f}s")


# 8 ------------------------------------------------------------------------

def test_acceptance_end_to_end_extraction():
    expected = {
        "succ-total": lambda n: n + 1,
        "ident-total": lambda n: n,
        "add0-total": lambda n: n,
    }
    for name, fn in expected.items():
        e = corpus_files.entry(name)
        program, rows = run_extraction(
            e.proof, THEORIES[e.theory], e.goal, range(11), 10 ** 5)
        assert typecheck(program) == TArr(NAT, NAT), name
        assert len(rows) == 11
        for row in rows:
            where = f"{name} input {row['input']}"
            assert row["verdict"] == PASS, where
            assert row["witness"] == fn(row["input"]), where
            assert row["steps"] < 10 ** 5, where
    _report("end-to-end extraction, inputs 0..10")


# 8b -----------------------------------------------------------------------

# Steps of `extract tests/dc-succ.proof` on inputs 0..10 under the
# environment machine; they grow faster than quadratically in the input.
DC_SUCC_STEPS = [505, 1085, 1942, 3112, 4631, 6535, 8860, 11642, 14917,
                 18721, 23090]


def test_acceptance_dependent_choice_runs_end_to_end(capsys):
    """The dc axiom of caw, realized by bar recursion, computes: the witness
    of dc-succ at n is w (S n) = n + 1, read from the sequence that the
    bar recursor builds."""
    proof = str(Path(__file__).resolve().parent / "dc-succ.proof")
    code = cli.main(["extract", proof, "--inputs", "0..10",
                     "--format", "structured"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["input"], r["witness"], r["verdict"]) for r in rows] == [
        (n, n + 1, PASS) for n in range(11)]
    assert [r["steps"] for r in rows] == DC_SUCC_STEPS
    assert code == 0
    _report("dependent choice by bar recursion, inputs 0..10")


# 9 ------------------------------------------------------------------------

def test_acceptance_divergence_times_out_cleanly(capsys):
    omega = str(CORPUS_DIR / "omega.term")
    for fuel in (1, 100, 10000):
        code = cli.main(["eval", omega, "--fuel", str(fuel)])
        captured = capsys.readouterr()
        assert code == 2, f"fuel {fuel}"
        assert captured.err.startswith("error[fuel-exhausted]:")
    code = cli.main(["eval", omega, "--fuel", "64", "--format", "structured"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["category"] == "fuel-exhausted"
    _report("divergence handling")
