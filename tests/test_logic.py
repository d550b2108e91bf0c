import pytest

from mupcf.errors import UserError
from mupcf.logic import (
    And, Atom, Ax, BOT, BotElim, BotIntro, Forall, ForallElim, ForallIntro,
    IApp, IConst, IOTA, IVar, Id, Imp, ImpElim, ImpIntro, SArrow, SUCC,
    Sequent, THEORIES, ZERO, alpha_eq, arrow, check_proof, const_sort, f_eq,
    f_exists, f_neq, f_not, f_rel, fv_formula, infer_sort, polarity,
    rel_pred, subst_var, zero_ind,
)

import corpus_files

PAW = THEORIES["paw"]
CAW = THEORIES["caw"]
PAWR = THEORIES["pawr"]
CAWR = THEORIES["cawr"]


# ---------- sorts and individuals ----------

def test_arrow_right_associates():
    assert arrow(IOTA, IOTA, IOTA) == SArrow(IOTA, SArrow(IOTA, IOTA))


def test_const_sorts():
    assert const_sort(IConst("0")) == IOTA
    assert const_sort(SUCC) == SArrow(IOTA, IOTA)
    k = IConst("k", (IOTA, SArrow(IOTA, IOTA)))
    assert const_sort(k) == arrow(IOTA, SArrow(IOTA, IOTA), IOTA)


def test_infer_sort_application():
    t = IApp(SUCC, IApp(SUCC, ZERO))
    assert infer_sort(t) == IOTA
    with pytest.raises(UserError):
        infer_sort(IApp(ZERO, ZERO))
    with pytest.raises(UserError):
        infer_sort(IApp(SUCC, SUCC))


def test_zero_ind_well_sorted():
    for s in [IOTA, arrow(IOTA, IOTA), arrow(arrow(IOTA, IOTA), IOTA, IOTA)]:
        assert infer_sort(zero_ind(s)) == s


# ---------- formulas ----------

def test_derived_connectives_desugar():
    a, b = f_neq(ZERO, ZERO), f_rel(ZERO)
    assert f_not(a) == Imp(a, BOT)
    ex = f_exists("x", IOTA, a)
    assert ex == Imp(Forall("x", IOTA, Imp(a, BOT)), BOT)
    assert f_eq(ZERO, ZERO) == Imp(Atom("neq", (ZERO, ZERO)), BOT)


def test_fv_first_occurrence_order():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    f = Imp(f_neq(y, x), Forall("z", IOTA, f_neq(x, IVar("z", IOTA))))
    assert list(fv_formula(f)) == ["y", "x"]


def test_subst_capture_avoiding():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    f = Forall("y", IOTA, f_neq(x, y))
    g = subst_var(f, "x", y)
    assert isinstance(g, Forall) and g.var != "y"
    assert alpha_eq(g, Forall("z", IOTA, f_neq(y, IVar("z", IOTA))))
    # the new name of a renamed binder is not the substituted one, even
    # where that is not free below the binder
    f = Forall("y", IOTA, f_neq(y, ZERO))
    assert alpha_eq(subst_var(f, "y1", y), f)


def test_alpha_eq_binders():
    f = Forall("x", IOTA, f_neq(IVar("x", IOTA), ZERO))
    g = Forall("y", IOTA, f_neq(IVar("y", IOTA), ZERO))
    assert alpha_eq(f, g)
    assert not alpha_eq(f, Forall("y", IOTA, f_neq(ZERO, IVar("y", IOTA))))


def test_alpha_eq_compares_the_sort_of_each_bound_occurrence():
    x, fn = IVar("x", IOTA), IVar("x", arrow(IOTA, IOTA))
    f = Forall("x", IOTA, f_neq(x, x))
    assert not alpha_eq(f, Forall("x", IOTA, f_neq(x, fn)))


def test_polarity_classes():
    neq = f_neq(ZERO, ZERO)
    rel = f_rel(ZERO)
    assert polarity(neq) == "negative"
    assert polarity(rel) == "positive"
    assert polarity(BOT) == "negative"
    assert polarity(Imp(rel, neq)) == "negative"
    assert polarity(Imp(neq, rel)) == "positive"
    assert polarity(And(neq, rel)) == "positive"
    assert polarity(And(neq, neq)) == "negative"
    assert polarity(Forall("x", IOTA, f_rel(IVar("x", IOTA)))) == "positive"


def test_rel_pred_shape():
    t = IVar("f", arrow(IOTA, IOTA))
    f = rel_pred(t, arrow(IOTA, IOTA))
    match f:
        case Forall(v, s, Imp(Atom("rel", _), Atom("rel", (app,)))):
            assert s == IOTA
            assert app == IApp(t, IVar(v, IOTA))
        case _:
            pytest.fail(f"unexpected shape {f}")


def test_rel_pred_avoids_capture():
    t = IVar("v", arrow(IOTA, IOTA))
    f = rel_pred(t, arrow(IOTA, IOTA))
    assert isinstance(f, Forall) and f.var != "v"


# ---------- axiom schemes ----------

def test_refl_instance():
    f = PAW.instantiate("refl", (IOTA,))
    x = IVar("x", IOTA)
    assert alpha_eq(f, Forall("x", IOTA, f_eq(x, x)))


def test_leib_closure_order():
    x, y, p = IVar("x", IOTA), IVar("y", IOTA), IVar("p", IOTA)
    a = f_neq(p, x)
    f = PAW.instantiate("leib", (a, x, y))
    expect = Forall("p", IOTA, Forall("x", IOTA, Forall("y", IOTA,
                    Imp(f_not(a), Imp(f_neq(p, y), f_neq(x, y))))))
    assert alpha_eq(f, expect)


def test_leib_rejects_captured_replacement():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    a = f_neq(y, x)
    with pytest.raises(UserError):
        PAW.instantiate("leib", (a, x, y))


def test_ind_instances():
    x = IVar("x", IOTA)
    a = f_neq(x, IApp(SUCC, x))
    f = PAW.instantiate("ind", (a, x))
    sx = IApp(SUCC, x)
    expect = Imp(f_neq(ZERO, IApp(SUCC, ZERO)),
                 Imp(Forall("x", IOTA, Imp(a, f_neq(sx, IApp(SUCC, sx)))),
                     Forall("x", IOTA, a)))
    assert alpha_eq(f, expect)
    g = PAWR.instantiate("ind", (a, x))
    expect_r = Imp(f_neq(ZERO, IApp(SUCC, ZERO)),
                   Imp(Forall("x", IOTA,
                              Imp(f_rel(x), Imp(a, f_neq(sx, IApp(SUCC, sx))))),
                       Forall("x", IOTA, Imp(f_rel(x), a))))
    assert alpha_eq(g, expect_r)


def test_ind_scheme_parameters_close_first():
    x, p = IVar("x", IOTA), IVar("p", IOTA)
    a = f_neq(x, p)
    f = PAW.instantiate("ind", (a, x))
    assert isinstance(f, Forall) and f.var == "p"


def test_sneq0_variants():
    x = IVar("x", IOTA)
    f = PAW.instantiate("s-neq-0", ())
    assert alpha_eq(f, Forall("x", IOTA, f_neq(IApp(SUCC, x), ZERO)))
    g = PAWR.instantiate("s-neq-0", ())
    assert alpha_eq(g, Forall("x", IOTA,
                              Imp(f_rel(x), f_neq(IApp(SUCC, x), ZERO))))


def test_rel_combinator_axioms_closed_and_positive():
    for name, args in [("rel-0", ()), ("rel-succ", ()),
                       ("rel-k", (IOTA, IOTA)),
                       ("rel-s", (IOTA, IOTA, IOTA)),
                       ("rel-rec", (IOTA,))]:
        f = PAWR.instantiate(name, args)
        assert fv_formula(f) == {}
        assert polarity(f) == "positive"


def test_dc_plain_shape():
    x, y, z = IVar("x", IOTA), IVar("y", IOTA), IVar("z", IOTA)
    b = f_neq(z, y)
    f = CAW.instantiate("dc", (b, x, y, z))
    w = IVar("w", arrow(IOTA, IOTA))
    p1 = Forall("x", IOTA, Forall("y", IOTA, f_exists("z", IOTA, b)))
    step = f_neq(IApp(w, IApp(SUCC, x)), IApp(w, x))
    concl = f_not(Forall("w", w.sort, f_not(Forall("x", IOTA, step))))
    assert alpha_eq(f, Imp(p1, concl))


def test_dc_rel_requires_guard_shape():
    x, y, z = IVar("x", IOTA), IVar("y", IOTA), IVar("z", IOTA)
    with pytest.raises(UserError):
        CAWR.instantiate("dc", (f_neq(z, y), x, y, z))
    guarded = And(f_rel(z), And(f_rel(y), f_neq(z, y)))
    f = CAWR.instantiate("dc", (guarded, x, y, z))
    assert fv_formula(f) == {}


def test_paw_has_no_rel_or_dc():
    with pytest.raises(UserError):
        PAW.instantiate("rel-0", ())
    with pytest.raises(UserError):
        PAW.instantiate("dc", (f_neq(ZERO, ZERO), IVar("x", IOTA),
                               IVar("y", IOTA), IVar("z", IOTA)))
    with pytest.raises(UserError):
        PAW.instantiate("ind", (f_rel(IVar("x", IOTA)), IVar("x", IOTA)))


# ---------- proof checking ----------

def check_entry(name):
    e = corpus_files.entry(name)
    return check_proof(e.proof, THEORIES[e.theory], e.goal)


def test_corpus_all_check():
    for e in corpus_files.entries():
        check_proof(e.proof, THEORIES[e.theory], e.goal)


def test_activation_needs_negative_formula():
    rel = f_rel(ZERO)
    pf = ImpIntro(
        "nn", f_not(f_not(rel)),
        BotElim("a", rel,
                ImpElim(Id("nn"), ImpIntro("h", rel, BotIntro("a", Id("h"))))))
    goal = Sequent(concl=Imp(f_not(f_not(rel)), rel))
    with pytest.raises(UserError, match="negative"):
        check_proof(pf, PAWR, goal)


def test_conclusion_must_match_goal():
    e = corpus_files.entry("dne")
    wrong = Sequent(concl=Imp(f_not(f_not(A0neq())), BOT))
    with pytest.raises(UserError):
        check_proof(e.proof, PAW, wrong)


def A0neq():
    return f_eq(ZERO, ZERO)


def test_unknown_hypothesis_rejected():
    with pytest.raises(UserError, match="hypothesis"):
        check_proof(Id("nope"), PAW, Sequent(concl=BOT))


def test_hypothesis_shadowing_rejected():
    a = f_eq(ZERO, ZERO)
    pf = ImpIntro("h", a, ImpIntro("h", a, Id("h")))
    goal = Sequent(concl=Imp(a, Imp(a, a)))
    with pytest.raises(UserError, match="shadow"):
        check_proof(pf, PAW, goal)


def test_eigenvariable_condition():
    x = IVar("x", IOTA)
    a = f_neq(x, ZERO)
    # from hypothesis x != 0 conclude forall x (x != 0): must fail
    pf = ImpIntro("h", a, ForallIntro("x", IOTA, Id("h")))
    goal = Sequent(concl=Imp(a, Forall("x", IOTA, a)))
    with pytest.raises(UserError, match="eigenvariable"):
        check_proof(pf, PAW, goal)


def test_eigenvariable_ok_when_hypothesis_unused():
    x = IVar("x", IOTA)
    a = f_neq(x, ZERO)
    refl = THEORIES["paw"]
    pf = ImpIntro(
        "h", a,
        ForallIntro("x", IOTA, ForallElim(Ax("refl", (IOTA,)), x)))
    goal = Sequent(concl=Imp(a, Forall("x", IOTA, f_eq(x, x))))
    check_proof(pf, refl, goal)


def test_eigenvariable_condition_on_labels():
    x = IVar("x", IOTA)
    a = f_neq(x, ZERO)
    # inner subproof proves x != 0 by routing an instance of k through the
    # open label a, so generalizing x inside must be rejected
    inner = BotElim("b", a, BotIntro("a", ForallElim(Id("k"), x)))
    k = Forall("x", IOTA, a)
    pf = ImpIntro("k", k, BotElim(
        "a", a,
        BotIntro("a", ForallElim(ForallIntro("x", IOTA, inner), x))))
    with pytest.raises(UserError, match="eigenvariable"):
        check_proof(pf, PAW, Sequent(concl=Imp(k, a)))


def test_kappa_label_reserved():
    a = f_eq(ZERO, ZERO)
    pf = ImpIntro("h", a, BotElim("kappa", a, BotIntro("kappa", Id("h"))))
    with pytest.raises(UserError, match="label"):
        check_proof(pf, PAW, Sequent(concl=Imp(a, a)))


def test_axiom_usage_in_proof():
    x = IVar("x", IOTA)
    goal = Sequent(concl=Forall("x", IOTA, f_eq(x, x)))
    pf = ForallIntro("x", IOTA, ForallElim(Ax("refl", (IOTA,)), x))
    check_proof(pf, PAW, goal)


def test_forall_elim_sort_mismatch():
    pf = ForallElim(Ax("refl", (IOTA,)), SUCC)
    with pytest.raises(UserError, match="sort|instantiating"):
        check_proof(pf, PAW, Sequent(concl=f_eq(SUCC, SUCC)))


# ---------- class dispatch ----------


def test_node_classes_have_no_subclasses():
    """The walks dispatch on `x.__class__ is C`, which a subclass of C would
    silently miss: every concrete node class must stay a leaf of the class
    tree, and each abstract base keeps the kinds the walks handle."""
    from mupcf import lambdamu, logic

    expected = {
        logic.Sort: {"BaseSort", "SArrow"},
        logic.Individual: {"IVar", "IConst", "IApp"},
        logic.Formula: {"Bot", "Atom", "Imp", "And", "Forall"},
        logic.Proof: {"Id", "Ax", "ImpIntro", "ImpElim", "AndIntro",
                      "AndElim", "ForallIntro", "ForallElim", "BotIntro",
                      "BotElim"},
        lambdamu.LType: {"TNat", "TBot", "TArr", "TProd"},
        lambdamu.Term: {"LVar", "Num", "Prim", "Lam", "LApp", "Pair", "Proj",
                        "Mu", "Named"},
    }
    for base, names in expected.items():
        kinds = base.__subclasses__()
        assert {c.__name__ for c in kinds} == names, base
        for c in kinds:
            assert c.__subclasses__() == [], c
