"""Built-in proof corpus.

Hand-written derivations exercising every rule and axiom scheme: the classical
staples (explosion, double negation elimination, Peirce), structural lemmas,
and three total-function statements whose extracted programs are checked end
to end. Each entry is a closed sequent with an empty context.
"""

from dataclasses import dataclass

from .logic import (
    And, AndElim, AndIntro, Ax, BOT, BotElim, BotIntro, Forall, ForallElim,
    ForallIntro, IApp, IConst, IOTA, IVar, Id, Imp, ImpElim, ImpIntro,
    Proof, SUCC, Sequent, ZERO, arrow, f_eq, f_exists, f_neq, f_not,
    f_rel, forallelims, fv_formula, iapp, impelims, subst_formula,
)


@dataclass(frozen=True)
class Entry:
    name: str
    theory: str
    goal: Sequent
    proof: Proof


def _refl_at(t):
    return ForallElim(Ax("refl", (IOTA,)), t)


def eq_elim(c, v, v_sort, a, b, pf_ab, pf_cb, tag):
    """Classical transport: from a = b and C[b] conclude C[a].

    c is the transport formula with hole variable v; C[a] must be negative.
    Built from the substitution axiom plus one control inversion. tag keeps
    the generated hypothesis and label names apart across nested uses.
    """
    params = [(n, s) for n, s in fv_formula(c).items() if n != v]
    avoid = set(fv_formula(c)) | {v} | {n for n, _ in params}
    w = "w_" + tag
    while w in avoid:
        w += "_"
    lb = forallelims(
        Ax("leib", (c, IVar(v, v_sort), IVar(w, v_sort))),
        *[IVar(n, s) for n, s in params], a, b)
    c_a = subst_formula(c, {v: a})
    negneg = ImpIntro(
        "nc_" + tag, f_not(c_a),
        ImpElim(pf_ab, impelims(lb, Id("nc_" + tag), pf_cb)))
    lab = "l_" + tag
    return BotElim(
        lab, c_a,
        ImpElim(negneg, ImpIntro("c_" + tag, c_a, BotIntro(lab, Id("c_" + tag)))))


def eq_sym(a, b, sort, pf_ab, tag):
    """From a = b conclude b = a."""
    v = "v_" + tag
    c = f_eq(b, IVar(v, sort))
    refl_b = ForallElim(Ax("refl", (sort,)), b)
    return eq_elim(c, v, sort, a, b, pf_ab, refl_b, tag)


def eq_trans(a, b, c, sort, pf_ab, pf_bc, tag):
    """From a = b and b = c conclude a = c."""
    v = "v_" + tag
    holed = f_eq(a, IVar(v, sort))
    return eq_elim(holed, v, sort, c, b, eq_sym(b, c, sort, pf_bc, tag + "s"),
                   pf_ab, tag)


# ---------- propositional and structural entries ----------

A0 = f_eq(ZERO, ZERO)
B0 = f_neq(IApp(SUCC, ZERO), ZERO)


def _exfalso():
    goal = Imp(BOT, A0)
    pf = ImpIntro("u", BOT, BotElim("a", A0, Id("u")))
    return Entry("exfalso", "paw", Sequent(concl=goal), pf)


def _dne():
    goal = Imp(f_not(f_not(A0)), A0)
    pf = ImpIntro(
        "nn", f_not(f_not(A0)),
        BotElim("a", A0,
                ImpElim(Id("nn"), ImpIntro("h", A0, BotIntro("a", Id("h"))))))
    return Entry("dne", "paw", Sequent(concl=goal), pf)


def _peirce():
    goal = Imp(Imp(Imp(A0, B0), A0), A0)
    pf = ImpIntro(
        "p", Imp(Imp(A0, B0), A0),
        BotElim("a", A0,
                BotIntro("a", ImpElim(
                    Id("p"),
                    ImpIntro("h", A0,
                             BotElim("b", B0, BotIntro("a", Id("h"))))))))
    return Entry("peirce", "paw", Sequent(concl=goal), pf)


def _and_comm():
    goal = Imp(And(A0, B0), And(B0, A0))
    pf = ImpIntro("p", And(A0, B0),
                  AndIntro(AndElim(2, Id("p")), AndElim(1, Id("p"))))
    return Entry("and-comm", "paw", Sequent(concl=goal), pf)


def _forall_swap():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    inner = f_neq(x, y)
    goal = Imp(Forall("x", IOTA, Forall("y", IOTA, inner)),
               Forall("y", IOTA, Forall("x", IOTA, inner)))
    pf = ImpIntro(
        "h", Forall("x", IOTA, Forall("y", IOTA, inner)),
        ForallIntro("y", IOTA,
                    ForallIntro("x", IOTA, forallelims(Id("h"), x, y))))
    return Entry("forall-swap", "paw", Sequent(concl=goal), pf)


def _sneq0_use():
    x = IVar("x", IOTA)
    sx = IApp(SUCC, x)
    goal = Forall("x", IOTA, Imp(f_eq(sx, ZERO), BOT))
    pf = ForallIntro(
        "x", IOTA,
        ImpIntro("e", f_eq(sx, ZERO),
                 ImpElim(Id("e"), ForallElim(Ax("s-neq-0", ()), x))))
    return Entry("s-neq-0-use", "paw", Sequent(concl=goal), pf)


# ---------- total-function statements ----------


def _exists_intro(hyp, witness, pf_body):
    """Close off exists y B from its negative unfolding: the hypothesis is
    forall y not B, the witness instantiates it, pf_body proves B[witness]."""
    return ImpElim(ForallElim(Id(hyp), witness), pf_body)


def _succ_total():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    sx = IApp(SUCC, x)
    body = f_eq(y, sx)
    goal = Forall("x", IOTA, f_exists("y", IOTA, body))
    hyp = Forall("y", IOTA, f_not(body))
    pf = ForallIntro(
        "x", IOTA,
        ImpIntro("h", hyp, _exists_intro("h", sx, _refl_at(sx))))
    return Entry("succ-total", "paw", Sequent(concl=goal), pf)


def _ident_total():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    body = f_eq(y, x)
    goal = Forall("x", IOTA, f_exists("y", IOTA, body))
    hyp = Forall("y", IOTA, f_not(body))
    pf = ForallIntro(
        "x", IOTA,
        ImpIntro("h", hyp, _exists_intro("h", x, _refl_at(x))))
    return Entry("ident-total", "paw", Sequent(concl=goal), pf)


K_SIGMA = IConst("k", (arrow(IOTA, IOTA), IOTA))
REC_I = IConst("rec", (IOTA,))


def add_zero(t):
    """rec 0 (k S) t, the recursor form of 0 + t."""
    return iapp(REC_I, ZERO, IApp(K_SIGMA, SUCC), t)


def _add0_total():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    t_x = add_zero(x)
    a = f_exists("y", IOTA, f_eq(t_x, y))
    goal = Forall("x", IOTA, a)

    # base: witness 0, using the recursor base law
    t_0 = add_zero(ZERO)
    base_eq = forallelims(Ax("def-rec-0", (IOTA,)), ZERO, IApp(K_SIGMA, SUCC))
    base = ImpIntro(
        "h", Forall("y", IOTA, f_not(f_eq(t_0, y))),
        _exists_intro("h", ZERO, base_eq))

    # step: from t_x = y conclude t_{Sx} = S y
    sx = IApp(SUCC, x)
    t_sx = add_zero(sx)
    ks_x = iapp(K_SIGMA, SUCC, x)
    pf1 = forallelims(Ax("def-rec-s", (IOTA,)), ZERO, IApp(K_SIGMA, SUCC), x)
    pf2 = forallelims(Ax("def-k", (arrow(IOTA, IOTA), IOTA)), SUCC, x)
    # application congruence: (k S x) t_x = S t_x
    c2 = f_eq(IApp(IVar("v_g", arrow(IOTA, IOTA)), t_x), IApp(SUCC, t_x))
    pf3 = eq_elim(c2, "v_g", arrow(IOTA, IOTA), ks_x, SUCC, pf2,
                  _refl_at(IApp(SUCC, t_x)), "g")
    pf4 = eq_trans(t_sx, IApp(ks_x, t_x), IApp(SUCC, t_x), IOTA, pf1, pf3, "t")
    c5 = f_eq(t_sx, IApp(SUCC, IVar("v_w", IOTA)))
    pf5 = eq_elim(c5, "v_w", IOTA, y, t_x,
                  eq_sym(t_x, y, IOTA, Id("e"), "e"), pf4, "w")
    inner = ForallIntro(
        "y", IOTA,
        ImpIntro("e", f_eq(t_x, y),
                 ImpElim(ForallElim(Id("h2"), IApp(SUCC, y)), pf5)))
    step = ForallIntro(
        "x", IOTA,
        ImpIntro("ih", a,
                 ImpIntro("h2", Forall("y", IOTA, f_not(f_eq(t_sx, y))),
                          ImpElim(Id("ih"), inner))))

    pf = impelims(Ax("ind", (a, IVar("x", IOTA))), base, step)
    return Entry("add0-total", "paw", Sequent(concl=goal), pf)


def _skk_total():
    s_c = IConst("s", (IOTA, arrow(IOTA, IOTA), IOTA))
    k1 = IConst("k", (IOTA, arrow(IOTA, IOTA)))
    k2 = IConst("k", (IOTA, IOTA))
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    t_x = iapp(s_c, k1, k2, x)
    body = f_eq(t_x, y)
    goal = Forall("x", IOTA, f_exists("y", IOTA, body))
    pf = ForallIntro(
        "x", IOTA,
        ImpIntro("h", Forall("y", IOTA, f_not(body)),
                 _exists_intro("h", t_x, _refl_at(t_x))))
    return Entry("skk-total", "paw", Sequent(concl=goal), pf)


# ---------- choice and relativized-signature entries ----------


def _dc_diag():
    x, y, z = IVar("x", IOTA), IVar("y", IOTA), IVar("z", IOTA)
    b = f_eq(z, y)
    w = IVar("w", arrow(IOTA, IOTA))
    step = f_eq(IApp(w, IApp(SUCC, x)), IApp(w, x))
    goal = f_not(Forall("w", w.sort, f_not(Forall("x", IOTA, step))))
    premise = ForallIntro(
        "x", IOTA,
        ForallIntro(
            "y", IOTA,
            ImpIntro("h", Forall("z", IOTA, f_not(b)),
                     _exists_intro("h", y, _refl_at(y)))))
    pf = ImpElim(Ax("dc", (b, x, y, z)), premise)
    return Entry("dc-diag", "caw", Sequent(concl=goal), pf)


def _rel_arith():
    x = IVar("x", IOTA)
    sx = IApp(SUCC, x)
    goal = Forall("x", IOTA, Imp(f_rel(x), f_rel(IApp(SUCC, sx))))
    pf = ForallIntro(
        "x", IOTA,
        ImpIntro("rx", f_rel(x),
                 ImpElim(ForallElim(Ax("rel-succ", ()), sx),
                         ImpElim(ForallElim(Ax("rel-succ", ()), x), Id("rx")))))
    return Entry("rel-arith", "pawr", Sequent(concl=goal), pf)


def entries():
    return [
        _exfalso(), _dne(), _peirce(), _and_comm(), _forall_swap(),
        _sneq0_use(), _succ_total(), _ident_total(), _add0_total(),
        _skk_total(), _dc_diag(), _rel_arith(),
    ]


def entry(name):
    for e in entries():
        if e.name == name:
            return e
    raise KeyError(name)
