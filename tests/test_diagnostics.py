"""Every diagnostic of the proof checker's rules and of the program type
checker, pinned in full on a malformed input, and which one is reported when
an input has two faults.

Each case names the rule and the site it reaches. The checker checks a
rule's subproofs left to right before the rule's own side conditions, except
where a case below says otherwise; the two-fault cases fix that order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mupcf
from mupcf.errors import UserError
from mupcf.format import parse_source
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, Pair, Prim, Proj, SUCC_T, TArr,
    TBOT, prim_type, typecheck,
)
from mupcf.logic import (
    AndElim, AndIntro, Atom, Ax, BOT, BotElim, BotIntro, ForallElim,
    ForallIntro, IApp, IOTA, IVar, Id, ImpElim, ImpIntro, SCHEME_KINDS, SUCC,
    Sequent, THEORIES, ZERO, check_proof, f_neq, f_rel,
)

X = IVar("x", IOTA)
SX_NEQ_0 = f_neq(IApp(SUCC, X), ZERO)
# proofs of (-> bot bot), (all (x iota) (neq (S x) 0)) and (neq (S x) 0)
BOT_TO_BOT = ImpIntro("h", BOT, Id("h"))
SNEQ0 = Ax("s-neq-0", ())
SNEQ0_X = ForallElim(SNEQ0, X)


def _check_message(proof, theory="paw"):
    with pytest.raises(UserError) as ex:
        check_proof(proof, THEORIES[theory], Sequent(concl=BOT))
    return str(ex.value)


# ------------------------------------------------------------- proof rules

CHECK_CASES = {
    "id-unknown-hypothesis": (Id("h"), "unknown hypothesis h"),
    "imp-intro-shadowing": (
        ImpIntro("h", BOT, BOT_TO_BOT),
        "hypothesis name h shadows an existing one"),
    "imp-elim-on-non-implication": (
        ImpElim(SNEQ0, BOT_TO_BOT),
        "implication elimination on (all (x iota) (neq (S x) 0))"),
    "imp-elim-argument-mismatch": (
        ImpElim(BOT_TO_BOT, BOT_TO_BOT),
        "argument proves (-> bot bot) but bot is required"),
    "and-elim-index": (
        AndElim(3, AndIntro(BOT_TO_BOT, BOT_TO_BOT)),
        "projection index must be 1 or 2"),
    "and-elim-on-non-conjunction": (
        AndElim(1, BOT_TO_BOT), "conjunction elimination on (-> bot bot)"),
    "forall-intro-eigenvariable-in-hypothesis": (
        ImpIntro("h", f_neq(X, ZERO), ForallIntro("x", IOTA, Id("h"))),
        "eigenvariable x is free in used hypothesis h"),
    "forall-intro-eigenvariable-in-label": (
        BotElim("a", SX_NEQ_0,
                ForallIntro("x", IOTA, BotIntro("a", SNEQ0_X))),
        "eigenvariable x is free in used label a"),
    "forall-elim-on-non-quantifier": (
        ForallElim(BOT_TO_BOT, ZERO),
        "quantifier elimination on (-> bot bot)"),
    "forall-elim-sort-mismatch": (
        ForallElim(SNEQ0, SUCC),
        "instantiating a iota quantifier with S : (-> iota iota)"),
    "bot-intro-unknown-label": (BotIntro("a", SNEQ0_X), "unknown label a"),
    "bot-intro-label-mismatch": (
        BotElim("a", BOT, BotIntro("a", BOT_TO_BOT)),
        "label a expects bot but the subproof gives (-> bot bot)"),
    "bot-elim-reserved-label": (
        BotElim("kappa", BOT, BotIntro("kappa", Id("h"))),
        "bad label name kappa"),
    "bot-elim-label-in-scope": (
        BotElim("a", BOT, BotElim("a", BOT, Id("h"))), "bad label name a"),
    "bot-elim-body-not-absurd": (
        BotElim("a", BOT, BOT_TO_BOT),
        "activation requires a proof of absurdity, got (-> bot bot)"),
}

# two faults each: the message is the one the checker meets first
CHECK_PRECEDENCE = {
    # the argument is checked before the function's shape
    "imp-elim-bad-argument-under-non-implication": (
        ImpElim(SNEQ0, Id("nope")), "unknown hypothesis nope"),
    # the function before the argument
    "imp-elim-bad-function-and-argument": (
        ImpElim(Id("f"), Id("a")), "unknown hypothesis f"),
    # the function's shape before the argument's formula
    "imp-elim-non-implication-and-mismatch": (
        ImpElim(SNEQ0_X, SNEQ0),
        "implication elimination on (neq (S x) 0)"),
    # the name before the annotation, the annotation before the body
    "imp-intro-shadowing-ill-formed": (
        ImpIntro("h", BOT, ImpIntro("h", Atom("foo", ()), Id("g"))),
        "hypothesis name h shadows an existing one"),
    "imp-intro-ill-formed-bad-body": (
        ImpIntro("h", Atom("foo", ()), Id("g")), "unknown predicate foo"),
    # the index before the body
    "and-elim-index-bad-body": (AndElim(0, Id("h")),
                                "projection index must be 1 or 2"),
    "and-intro-left-first": (AndIntro(Id("l"), Id("r")),
                             "unknown hypothesis l"),
    # the body before the eigenvariable condition, hypotheses before labels
    "forall-intro-bad-body": (
        ForallIntro("x", IOTA, Id("h")), "unknown hypothesis h"),
    "forall-intro-hypothesis-and-label": (
        ImpIntro("h", f_neq(X, ZERO), BotElim(
            "a", SX_NEQ_0, ForallIntro("x", IOTA, BotIntro(
                "a", AndElim(2, AndIntro(Id("h"), SNEQ0_X)))))),
        "eigenvariable x is free in used hypothesis h"),
    # the shape before the sort of the individual
    "forall-elim-non-quantifier-ill-sorted": (
        ForallElim(BOT_TO_BOT, SUCC),
        "quantifier elimination on (-> bot bot)"),
    # the label before the body
    "bot-intro-unknown-label-bad-body": (
        BotIntro("a", Id("h")), "unknown label a"),
    # the name, then the annotation, then the body
    "bot-elim-reserved-ill-formed": (
        BotElim("kappa", f_rel(ZERO), Id("h")), "bad label name kappa"),
    "bot-elim-ill-formed-bad-body": (
        BotElim("a", f_rel(ZERO), Id("h")),
        "rel atom outside a relativized signature"),
}


@pytest.mark.parametrize("proof,message",
                         [*CHECK_CASES.values(), *CHECK_PRECEDENCE.values()],
                         ids=[*CHECK_CASES.keys(), *CHECK_PRECEDENCE.keys()])
def test_checker_diagnostic(proof, message):
    assert _check_message(proof) == message


# Several used hypotheses (then labels) hold the eigenvariable of the inner
# forall-intro; the one bound first is reported.
SEEDED_CASES = {
    "hypothesis": (
        "(forall-intro (x iota) (imp-intro (h1 (neq x 0))"
        " (imp-intro (h2 (neq x (S 0))) (imp-intro (h3 (neq x (S (S 0))))"
        " (forall-intro (x iota)"
        " (and-intro (id h3) (and-intro (id h2) (id h1))))))))",
        "eigenvariable x is free in used hypothesis h1"),
    "label": (
        "(forall-intro (x iota) (bot-elim (l1 (neq (S x) 0))"
        " (bot-elim (l2 (neq (S (S x)) 0))"
        " (bot-elim (l3 (neq (S (S (S x))) 0))"
        " (forall-intro (x iota) (and-intro"
        " (bot-intro l3 (forall-elim (ax s-neq-0) (S (S x)))) (and-intro"
        " (bot-intro l2 (forall-elim (ax s-neq-0) (S x)))"
        " (bot-intro l1 (forall-elim (ax s-neq-0) x)))))))))",
        "eigenvariable x is free in used label l1"),
}


@pytest.mark.parametrize("kind", SEEDED_CASES)
def test_eigenvariable_diagnostic_ignores_the_hash_seed(kind, tmp_path):
    """The used names are sets; the report must not follow their order,
    which changes with PYTHONHASHSEED."""
    proof, message = SEEDED_CASES[kind]
    path = tmp_path / "eigen.proof"
    path.write_text(f"(proof p (goal bot) {proof})\n")
    src = str(Path(mupcf.__file__).resolve().parent.parent)
    errs = set()
    for seed in range(8):
        done = subprocess.run(
            [sys.executable, "-m", "mupcf.cli", "check", str(path)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True)
        assert done.returncode == 1, done.stderr
        errs.add(done.stderr)
    assert len(errs) == 1, errs
    assert message in errs.pop()


def test_checker_label_polarity_before_body():
    proof = BotElim("a", f_rel(ZERO), Id("h"))
    assert _check_message(proof, "pawr") == \
        "label formula must be negative, got positive: (rel 0)"


def test_rel_succ_instance_binds_v():
    # the evidence axiom of S is the realizability predicate at iota -> iota,
    # whose bound variable is named v
    ws = parse_source("(theory pawr) (proof p (goal (rel 0)) (ax rel-succ))")
    goal, proof = ws.proofs["p"]
    with pytest.raises(UserError) as ex:
        check_proof(proof, ws.theory, goal)
    assert str(ex.value) == ("proof concludes (all (v iota) (-> (rel v) "
                             "(rel (S v)))) but the goal is (rel 0)")


# ------------------------------------------------- scheme arguments

# the message Theory.instantiate gives for a wrong count or kind of arguments
SCHEME_ARGUMENTS = {
    "refl": "1 argument(s): sort",
    "leib": "3 argument(s): formula, variable, variable",
    "s-neq-0": "0 argument(s)",
    "ind": "2 argument(s): formula, variable",
    "def-s": "3 argument(s): sort, sort, sort",
    "def-k": "2 argument(s): sort, sort",
    "def-rec-0": "1 argument(s): sort",
    "def-rec-s": "1 argument(s): sort",
    "rel-0": "0 argument(s)",
    "rel-succ": "0 argument(s)",
    "rel-k": "2 argument(s): sort, sort",
    "rel-s": "3 argument(s): sort, sort, sort",
    "rel-rec": "1 argument(s): sort",
    "dc": "4 argument(s): formula, variable, variable, variable",
}
# an argument of each kind, and one of another kind in its place
RIGHT_KIND = {"s": IOTA, "f": BOT, "v": X}
WRONG_KIND = {"s": BOT, "f": IOTA, "v": ZERO}
ARGUMENT_CASES = [(n, "count") for n in SCHEME_ARGUMENTS] + [
    (n, "kind") for n in SCHEME_ARGUMENTS if SCHEME_KINDS[n]]


@pytest.mark.parametrize("scheme,fault", ARGUMENT_CASES,
                         ids=[f"{n}-{f}" for n, f in ARGUMENT_CASES])
def test_instantiate_argument_diagnostic(scheme, fault):
    assert set(SCHEME_ARGUMENTS) == set(SCHEME_KINDS) \
        == set(THEORIES["cawr"].schemes)
    kinds = SCHEME_KINDS[scheme]
    args = [RIGHT_KIND[k] for k in kinds]
    if fault == "count":
        args.append(IOTA)
    else:
        args[-1] = WRONG_KIND[kinds[-1]]
    with pytest.raises(UserError) as ex:
        THEORIES["cawr"].instantiate(scheme, tuple(args))
    assert str(ex.value) == f"axiom {scheme} takes {SCHEME_ARGUMENTS[scheme]}"


# ---------------------------------------------------------------- programs

NAT_ID = Lam("x", NAT, LVar("x"))

PRIM_CASES = {
    "primitive-with-type": (Prim("succ", NAT), "bad primitive (succ nat)"),
    "primitive-without-type": (Prim("ifz"), "bad primitive ifz"),
    "unknown-primitive": (Prim("halt"), "bad primitive halt"),
}

TYPE_CASES = {
    **PRIM_CASES,
    "unbound-variable": (LVar("y"), "unbound variable y"),
    "negative-numeral": (Num(-1), "numerals are non-negative"),
    "applied-non-function": (LApp(Num(0), Num(1)), "applied non-function 0"),
    "argument-mismatch": (
        LApp(SUCC_T, NAT_ID),
        "argument (lam (x nat) x) : (-> nat nat) does not match nat"),
    "projection-index": (Proj(3, Pair(Num(0), Num(1))),
                         "projection index must be 1 or 2"),
    "projected-non-pair": (Proj(1, Num(0)), "projected non-pair 0"),
    "mu-body-not-empty": (Mu("a", NAT, Num(0)),
                          "mu body must have the empty type"),
    "unbound-label": (Named("a", Num(0)), "unbound label a"),
    "label-mismatch": (Mu("a", NAT, Named("a", NAT_ID)),
                       "label a expects nat, got (-> nat nat)"),
}

TYPE_PRECEDENCE = {
    # the function's type before the argument
    "non-function-bad-argument": (LApp(Num(0), LVar("y")),
                                  "applied non-function 0"),
    "bad-function-bad-argument": (LApp(LVar("f"), LVar("y")),
                                  "unbound variable f"),
    # the index before the body
    "projection-index-bad-body": (Proj(0, LVar("y")),
                                  "projection index must be 1 or 2"),
    # the label before the body
    "unbound-label-bad-body": (Named("a", LVar("y")), "unbound label a"),
    # the body before the label's type
    "mu-bad-body": (Mu("a", NAT, Named("a", LVar("y"))),
                    "unbound variable y"),
    "pair-left-first": (Pair(LVar("l"), LVar("r")), "unbound variable l"),
    # a primitive's own fault before its argument's
    "bad-primitive-bad-argument": (LApp(Prim("fix"), LVar("y")),
                                   "bad primitive fix"),
}


@pytest.mark.parametrize("term,message",
                         [*TYPE_CASES.values(), *TYPE_PRECEDENCE.values()],
                         ids=[*TYPE_CASES.keys(), *TYPE_PRECEDENCE.keys()])
def test_typecheck_diagnostic(term, message):
    with pytest.raises(UserError) as ex:
        typecheck(term, {}, {"kappa": NAT})
    assert str(ex.value) == message


@pytest.mark.parametrize("prim,message", PRIM_CASES.values(),
                         ids=PRIM_CASES.keys())
def test_prim_type_diagnostic(prim, message):
    with pytest.raises(UserError) as ex:
        prim_type(prim)
    assert str(ex.value) == message


def test_typecheck_defaults_to_empty_contexts():
    assert typecheck(Mu("a", TArr(NAT, NAT), Named("a", NAT_ID))) \
        == TArr(NAT, NAT)
    assert typecheck(Proj(2, Pair(Num(0), Mu("b", TBOT, Named("b", LVar(
        "z"))))), {"z": TBOT}) == TBOT
    with pytest.raises(UserError, match="^unbound label kappa$"):
        typecheck(Named("kappa", Num(0)))
