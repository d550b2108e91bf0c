"""Relativized formulas keep their meaning and relativized proofs keep
checking."""

import random

import pytest

from mupcf.errors import UserError
from mupcf.format import proof_sexp
from mupcf.logic import (
    And, Ax, BOT, Forall, ForallElim, ForallIntro, IApp, IConst, IOTA, IVar,
    Id, Imp, ImpElim, SUCC, Sequent, THEORIES, ZERO, alpha_eq, arrow,
    check_proof, f_eq, f_neq, f_rel, formula_sexp, infer_sort, polarity,
    rel_pred, subst_var,
)
from mupcf.relativize import rel_formula, rel_proof

from corpus_files import entries

PAW = THEORIES["paw"]
CAW = THEORIES["caw"]


# ---------- formulas ----------


def test_rel_formula_guards_quantifiers():
    x = IVar("x", IOTA)
    f = Forall("x", IOTA, f_neq(IApp(SUCC, x), ZERO))
    r = rel_formula(f)
    assert r == Forall("x", IOTA, Imp(f_rel(x), f_neq(IApp(SUCC, x), ZERO)))


def test_a_relativized_formula_is_refused_on_every_call():
    """rel_formula is memoized, its errors are not: a formula that holds
    rel is refused each time it is asked for, and leaves nothing in the
    memo."""
    f = Forall("x", IOTA, Imp(f_rel(IVar("x", IOTA)), BOT))
    size = rel_formula.cache_info().currsize
    for _ in range(2):
        with pytest.raises(UserError, match="already relativized"):
            rel_formula(f)
    assert rel_formula.cache_info().currsize == size


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
        lhs = rel_formula(subst_var(f, "a", t))
        rhs = subst_var(rel_formula(f), "a", t)
        assert alpha_eq(lhs, rhs), formula_sexp(f)


def test_rel_preserves_negative_polarity():
    rng = random.Random(7)
    for _ in range(200):
        f = _rand_formula(rng, [], 4)
        assert polarity(f) == "negative"
        assert polarity(rel_formula(f)) == "negative"


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


def _junk_twice(first, second):
    """A proof that instantiates with the vanishing variable junk twice,
    at the two given sorts."""
    inner = ForallElim(ForallIntro("p", first, Ax("refl", (IOTA,))),
                       IVar("junk", first))
    return ForallElim(ForallIntro("q", second, inner), IVar("junk", second))


_REFL_GOAL = Sequent(concl=Forall("x", IOTA, f_eq(IVar("x", IOTA),
                                                  IVar("x", IOTA))))


def test_vanishing_variable_used_twice_shares_its_evidence():
    proof = _junk_twice(IOTA, IOTA)
    pr, rth, rgoal = rel_proof(proof, PAW, _REFL_GOAL)
    check_proof(pr, rth, rgoal)
    # one hypothesis, discharged once at the root, serves both uses
    text = proof_sexp(pr)
    assert text.count("(imp-intro (r0_junk (rel junk))") == 1
    assert text.count("(id r0_junk)") == 2


def test_vanishing_variable_at_two_sorts_is_a_user_error():
    proof = _junk_twice(arrow(IOTA, IOTA), IOTA)
    check_proof(proof, PAW, _REFL_GOAL)
    with pytest.raises(UserError, match="variable junk used at two sorts "
                                        "across the proof"):
        rel_proof(proof, PAW, _REFL_GOAL)


def test_vanishing_higher_sort_variable():
    s = arrow(IOTA, IOTA)
    inner = Ax("refl", (IOTA,))
    proof = ForallElim(ForallIntro("q", s, inner), IVar("junk", s))
    goal = Sequent(concl=Forall("x", IOTA, f_eq(IVar("x", IOTA),
                                                IVar("x", IOTA))))
    pr, rth, rgoal = rel_proof(proof, PAW, goal)
    check_proof(pr, rth, rgoal)


# The relativized proof of dc at B := z = k d e, with two parameters, as
# the replay printed it when it peeled the parameter closures itself.
DC_TWO_PARAMS = r"""
(forall-intro (d iota) (imp-intro (r_d (rel d)) (forall-intro (e iota)
(imp-intro (r_e (rel e)) (imp-intro (p (all (x iota) (-> (rel x) (all (y
iota) (-> (rel y) (-> (all (z iota) (-> (rel z) (-> (-> (neq z ((k iota
iota) d e)) bot) bot))) bot)))))) (imp-intro (c (all (w (-> iota iota))
(-> (all (v iota) (-> (rel v) (rel (w v)))) (-> (all (x iota) (-> (rel
x) (-> (neq (w (S x)) ((k iota iota) d e)) bot))) bot)))) (imp-elim
(imp-elim (forall-elim (forall-elim (ax dc (/\ (rel z) (/\ (rel y) (->
(neq z ((k iota iota) d e)) bot))) (x iota) (y iota) (z iota)) d) e)
(forall-intro (x iota) (imp-intro (r_x (rel x)) (forall-intro (y iota)
(imp-intro (r_y (rel y)) (imp-intro (hna (all (z iota) (-> (/\ (rel z)
(/\ (rel y) (-> (neq z ((k iota iota) d e)) bot))) bot))) (forall-intro
(x' iota) (and-intro (id r_y) (and-intro (id r_y) (bot-elim (dead (->
(neq y ((k iota iota) d e)) bot)) (imp-elim (imp-elim (forall-elim
(imp-elim (forall-elim (id p) x) (id r_x)) y) (id r_y)) (forall-intro (z
iota) (imp-intro (r_z (rel z)) (imp-intro (hb (-> (neq z ((k iota iota)
d e)) bot)) (imp-elim (forall-elim (id hna) z) (and-intro (id r_z)
(and-intro (id r_y) (id hb)))))))))))))))))) (forall-intro (w (-> iota
iota)) (imp-intro (hstep (all (x iota) (-> (rel x) (/\ (rel (w (S x)))
(/\ (rel (w x)) (-> (neq (w (S x)) ((k iota iota) d e)) bot))))))
(imp-elim (imp-elim (forall-elim (id c) w) (forall-intro (v iota)
(imp-intro (r_v (rel v)) (and-elim 1 (and-elim 2 (imp-elim (forall-elim
(id hstep) v) (id r_v))))))) (forall-intro (x iota) (imp-intro (rs_x
(rel x)) (and-elim 2 (and-elim 2 (imp-elim (forall-elim (id hstep) x)
(id rs_x))))))))))))))))
"""


def _relativize_dc(b):
    x, y, z = IVar("x", IOTA), IVar("y", IOTA), IVar("z", IOTA)
    proof = Ax("dc", (b, x, y, z))
    goal = Sequent(concl=CAW.instantiate("dc", (b, x, y, z)))
    check_proof(proof, CAW, goal)
    pr, rth, rgoal = rel_proof(proof, CAW, goal)
    assert rth.name == "cawr"
    check_proof(pr, rth, rgoal)
    assert alpha_eq(rgoal.concl, rel_formula(goal.concl))
    return pr


def test_choice_axiom_with_parameter():
    z, d, e = IVar("z", IOTA), IVar("d", IOTA), IVar("e", IOTA)
    _relativize_dc(f_eq(z, IApp(SUCC, d)))
    k = IConst("k", (IOTA, IOTA))
    pr = _relativize_dc(f_eq(z, IApp(IApp(k, d), e)))
    assert proof_sexp(pr) == " ".join(DC_TWO_PARAMS.split())
    # a parameter named like the eigenvariable of the second premise
    v = IVar("v", arrow(IOTA, IOTA))
    _relativize_dc(f_eq(z, IApp(v, d)))


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


def _relativize_refl(t, binders=()):
    """rel_proof of refl instantiated at t, under forall-intros of binders
    (outermost first); the result is checked in pawr."""
    proof, concl = ForallElim(Ax("refl", (infer_sort(t),)), t), f_eq(t, t)
    for name, sort in reversed(binders):
        proof = ForallIntro(name, sort, proof)
        concl = Forall(name, sort, concl)
    pr, rth, rgoal = rel_proof(proof, PAW, Sequent(concl=concl))
    assert rth.name == "pawr"
    check_proof(pr, rth, rgoal)
    return pr, rgoal


def _evidence(pr, t):
    """The proof that pr passes for the guard of the instance at t."""
    while not (pr.__class__ is ImpElim and pr.fn.__class__ is ForallElim
               and pr.fn.term == t):
        pr = pr.body
    return pr.arg


def test_individual_evidence_for_a_variable():
    y = IVar("y", IOTA)
    pr, goal = _relativize_refl(y, [("y", IOTA)])
    assert goal.concl == Forall("y", IOTA, Imp(f_rel(y), f_eq(y, y)))
    assert _evidence(pr, y) == Id("r_y")


def test_individual_evidence_for_closed_terms():
    one = IApp(SUCC, ZERO)
    pr, _ = _relativize_refl(one)
    assert _evidence(pr, one) == ImpElim(ForallElim(Ax("rel-succ"), ZERO),
                                         Ax("rel-0"))

    k = IConst("k", (IOTA, arrow(IOTA, IOTA)))
    assert infer_sort(k) == arrow(IOTA, arrow(IOTA, IOTA), IOTA)
    pr, _ = _relativize_refl(k)
    assert _evidence(pr, k) == Ax("rel-k", k.sort_args)


def test_individual_evidence_composes_over_application():
    f, y = IVar("f", arrow(IOTA, IOTA)), IVar("y", IOTA)
    pr, goal = _relativize_refl(IApp(f, y), [("f", f.sort), ("y", IOTA)])
    assert _evidence(pr, IApp(f, y)) == ImpElim(ForallElim(Id("r_f"), y),
                                                Id("r_y"))
    check_proof(pr, THEORIES["cawr"], goal)


def test_individual_evidence_rejects_ill_sorted_terms():
    proof = ForallElim(Ax("refl", (IOTA,)), IApp(ZERO, ZERO))
    with pytest.raises(UserError, match="non-function"):
        rel_proof(proof, PAW, Sequent(concl=f_eq(ZERO, ZERO)))
