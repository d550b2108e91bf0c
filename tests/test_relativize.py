"""Relativized formulas keep their meaning and relativized proofs keep
checking."""

import random

import pytest

from mupcf.errors import UserError
from mupcf.logic import (
    And, Ax, BOT, Forall, ForallElim, ForallIntro, IApp, IOTA, IVar, Imp,
    SUCC, Sequent, THEORIES, ZERO, alpha_eq, arrow, check_proof, f_eq, f_neq,
    f_rel, formula_sexp, polarity, rel_pred, subst_formula,
)
from mupcf.relativize import rel_formula, rel_individual_proof, rel_proof

from corpus_files import entries

PAW = THEORIES["paw"]
CAW = THEORIES["caw"]


# ---------- formulas ----------


def test_rel_formula_guards_quantifiers():
    x = IVar("x", IOTA)
    f = Forall("x", IOTA, f_neq(IApp(SUCC, x), ZERO))
    r = rel_formula(f)
    assert r == Forall("x", IOTA, Imp(f_rel(x), f_neq(IApp(SUCC, x), ZERO)))


def test_rel_formula_higher_sort_guard():
    s = arrow(IOTA, IOTA)
    f = Forall("g", s, f_neq(IApp(IVar("g", s), ZERO), ZERO))
    r = rel_formula(f)
    assert isinstance(r.body, Imp)
    assert alpha_eq(r.body.left, rel_pred(IVar("g", s), s))


def test_rel_formula_fixes_quantifier_free():
    f = Imp(f_neq(ZERO, ZERO), And(BOT, f_neq(ZERO, ZERO)))
    assert rel_formula(f) == f


def test_rel_formula_rejects_guarded_input():
    with pytest.raises(UserError):
        rel_formula(f_rel(ZERO))


def _rand_formula(rng, vars_, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return BOT
        t = rng.choice(vars_) if vars_ and rng.random() < 0.7 else ZERO
        u = IApp(SUCC, rng.choice(vars_)) if vars_ else IApp(SUCC, ZERO)
        return f_neq(t, u) if kind == 1 else f_neq(u, t)
    kind = rng.randrange(3)
    if kind == 0:
        return Imp(_rand_formula(rng, vars_, depth - 1),
                   _rand_formula(rng, vars_, depth - 1))
    if kind == 1:
        return And(_rand_formula(rng, vars_, depth - 1),
                   _rand_formula(rng, vars_, depth - 1))
    v = rng.choice(["x", "y", "z", "u"])
    return Forall(v, IOTA,
                  _rand_formula(rng, vars_ + [IVar(v, IOTA)], depth - 1))


def test_rel_commutes_with_substitution():
    rng = random.Random(20260817)
    for _ in range(200):
        f = _rand_formula(rng, [IVar("a", IOTA)], 4)
        t = IApp(SUCC, IApp(SUCC, ZERO))
        lhs = rel_formula(subst_formula(f, {"a": t}))
        rhs = subst_formula(rel_formula(f), {"a": t})
        assert alpha_eq(lhs, rhs), formula_sexp(f)


def test_rel_preserves_negative_polarity():
    rng = random.Random(7)
    for _ in range(200):
        f = _rand_formula(rng, [], 4)
        assert polarity(f) in ("negative", "both")
        assert polarity(rel_formula(f)) in ("negative", "both")


# ---------- proofs ----------


def _plain_entries():
    return [e for e in entries() if not THEORIES[e.theory].has_rel]


@pytest.mark.parametrize("e", _plain_entries(), ids=lambda e: e.name)
def test_corpus_relativizes(e):
    pr, rth, goal = rel_proof(e.proof, THEORIES[e.theory], e.goal)
    assert rth.name == ("cawr" if e.theory == "caw" else "pawr")
    check_proof(pr, rth, goal)
    assert alpha_eq(goal.concl, rel_formula(e.goal.concl))


def test_nested_shadowed_eigenvariables():
    x = IVar("x", IOTA)
    proof = ForallIntro("x", IOTA, ForallIntro(
        "x", IOTA, ForallElim(Ax("s-neq-0", ()), x)))
    goal = Sequent(concl=Forall("x", IOTA, Forall(
        "x", IOTA, f_neq(IApp(SUCC, x), ZERO))))
    check_proof(proof, PAW, goal)
    pr, rth, rgoal = rel_proof(proof, PAW, goal)
    check_proof(pr, rth, rgoal)


def test_vanishing_term_variable_is_discharged():
    # instantiating with a variable that occurs in no formula: the guard
    # evidence has no hypothesis and must be introduced and cancelled at
    # the root
    inner = Ax("refl", (IOTA,))
    proof = ForallElim(ForallIntro("q", IOTA, inner), IVar("junk", IOTA))
    goal = Sequent(concl=Forall("x", IOTA, f_eq(IVar("x", IOTA),
                                                IVar("x", IOTA))))
    check_proof(proof, PAW, goal)
    pr, rth, rgoal = rel_proof(proof, PAW, goal)
    check_proof(pr, rth, rgoal)
    assert alpha_eq(rgoal.concl, rel_formula(goal.concl))


def test_vanishing_higher_sort_variable():
    s = arrow(IOTA, IOTA)
    inner = Ax("refl", (IOTA,))
    proof = ForallElim(ForallIntro("q", s, inner), IVar("junk", s))
    goal = Sequent(concl=Forall("x", IOTA, f_eq(IVar("x", IOTA),
                                                IVar("x", IOTA))))
    pr, rth, rgoal = rel_proof(proof, PAW, goal)
    check_proof(pr, rth, rgoal)


def test_choice_axiom_with_parameter():
    d = IVar("d", IOTA)
    x, y, z = IVar("x", IOTA), IVar("y", IOTA), IVar("z", IOTA)
    b = f_eq(z, IApp(SUCC, d))
    proof = Ax("dc", (b, x, y, z))
    goal = Sequent(concl=CAW.instantiate("dc", (b, x, y, z)))
    check_proof(proof, CAW, goal)
    pr, rth, rgoal = rel_proof(proof, CAW, goal)
    assert rth.name == "cawr"
    check_proof(pr, rth, rgoal)
    assert alpha_eq(rgoal.concl, rel_formula(goal.concl))


def test_rejects_open_context():
    goal = Sequent(hyps=(("h", BOT),), concl=BOT)
    with pytest.raises(UserError, match="empty context"):
        rel_proof(Ax("refl", (IOTA,)), PAW, goal)


def test_rejects_open_conclusion():
    goal = Sequent(concl=f_eq(IVar("x", IOTA), IVar("x", IOTA)))
    with pytest.raises(UserError, match="closed"):
        rel_proof(Ax("refl", (IOTA,)), PAW, goal)


def test_rejects_broken_proof():
    goal = Sequent(concl=Forall("x", IOTA, f_eq(IVar("x", IOTA),
                                                IVar("x", IOTA))))
    with pytest.raises(UserError):
        rel_proof(Ax("s-neq-0", ()), PAW, goal)


# ---------- individual evidence ----------

def test_individual_evidence_for_a_variable():
    pf, goal = rel_individual_proof(IVar("x", IOTA))
    x = IVar("x", IOTA)
    assert goal.concl == Forall("x", IOTA, Imp(f_rel(x), f_rel(x)))
    check_proof(pf, THEORIES["pawr"], goal)


def test_individual_evidence_for_closed_terms():
    pf, goal = rel_individual_proof(IApp(SUCC, ZERO))
    assert goal.concl == f_rel(IApp(SUCC, ZERO))
    check_proof(pf, THEORIES["pawr"], goal)

    from mupcf.logic import IConst, infer_sort
    k = IConst("k", (IOTA, arrow(IOTA, IOTA)))
    pf, goal = rel_individual_proof(k)
    assert infer_sort(k) == arrow(IOTA, arrow(IOTA, IOTA), IOTA)
    assert goal.concl == rel_pred(k, infer_sort(k))
    check_proof(pf, THEORIES["pawr"], goal)


def test_individual_evidence_composes_over_application():
    f = IVar("f", arrow(IOTA, IOTA))
    pf, goal = rel_individual_proof(IApp(f, IVar("y", IOTA)))
    check_proof(pf, THEORIES["pawr"], goal)
    check_proof(pf, THEORIES["cawr"], goal)


def test_individual_evidence_rejects_ill_sorted_terms():
    with pytest.raises(UserError, match="non-function"):
        rel_individual_proof(IApp(ZERO, ZERO))
