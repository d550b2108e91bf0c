import random

import pytest

from mupcf.cps import (
    GApp, GCase, GConst, GInj, GLam, GPair, GProj, GVar, LArr, LNAT,
    LProd, LSum, LUNIT, R, STAR, UserError, cps_envs, cps_term, cps_type,
    lam_term_str, lam_type_str, normalize_lam, typecheck_lam,
)
from mupcf.interp import interp_envs, interp_proof, interp_type
from mupcf.lambdamu import (
    LApp, Lam, LVar, Mu, NAT, Named, Num, Pair, Prim, Proj, TArr, TBOT,
    TProd, typecheck,
)
from mupcf.logic import THEORIES, check_proof

import corpus_files
from reference import g_alpha_eq
from termgen import gen_term, rand_type

NN = TArr(NAT, NAT)


# ---------------------------------------------------------------- types

def test_cps_type_base_cases():
    assert cps_type(NAT) == LNAT
    assert cps_type(TBOT) == LUNIT


def test_cps_type_arrow_and_product():
    # A -> B becomes (A~ -> R) x B~; A x B becomes A~ + B~.
    assert cps_type(TArr(NAT, TBOT)) == LProd(LArr(LNAT), LUNIT)
    assert cps_type(TProd(NAT, TBOT)) == LSum(LNAT, LUNIT)
    nested = cps_type(TArr(NN, NAT))
    assert nested == LProd(LArr(LProd(LArr(LNAT), LNAT)), LNAT)


def test_every_arrow_codomain_is_answer_type():
    # The target grammar only has arrows into R, so LArr stores just a domain.
    a = LArr(LNAT)
    assert a.dom == LNAT
    assert not hasattr(a, "cod")
    assert "R" in lam_type_str(a)


def test_type_printer_roundtrip_shapes():
    assert lam_type_str(LNAT) == "nat~"
    assert lam_type_str(LUNIT) == "unit"
    assert lam_type_str(LProd(LArr(LNAT), LUNIT)) == "(* (-> nat~ R) unit)"
    assert lam_type_str(LSum(LNAT, LUNIT)) == "(+ nat~ unit)"


# ---------------------------------------------------- target typechecker

def test_typecheck_lam_unit_and_injections():
    assert typecheck_lam(STAR) == LUNIT
    s = LSum(LUNIT, LNAT)
    assert typecheck_lam(GInj(1, STAR, s)) == s
    with pytest.raises(UserError):
        typecheck_lam(GInj(2, STAR, s))  # star is not nat~


def test_typecheck_lam_case_and_pair():
    s = LSum(LNAT, LNAT)
    scrut = GInj(1, GVar("n"), s)
    ctx = {"n": LNAT, "k": LArr(LNAT)}
    t = GCase(scrut, "b", GApp(GVar("k"), GVar("b")), GApp(GVar("k"), GVar("b")))
    assert typecheck_lam(t, ctx) == R
    p = GPair(GVar("n"), STAR)
    assert typecheck_lam(p, ctx) == LProd(LNAT, LUNIT)
    assert typecheck_lam(GProj(1, p), ctx) == LNAT


def test_abstraction_body_must_inhabit_answer_type():
    # lam x. x is not in the grammar: the body has type nat~, not R.
    with pytest.raises(UserError, match="answer type"):
        typecheck_lam(GLam("x", LNAT, GVar("x")))
    ok = GLam("x", LNAT, GApp(GVar("k"), GVar("x")))
    assert typecheck_lam(ok, {"k": LArr(LNAT)}) == LArr(LNAT)


def test_case_branches_must_agree():
    s = LSum(LNAT, LNAT)
    t = GCase(GVar("v"), "b", GApp(GVar("k"), GVar("b")), STAR)
    with pytest.raises(UserError):
        typecheck_lam(t, {"v": s, "k": LArr(LNAT)})


# ------------------------------------------------------ translation shape

def test_translation_of_variable_and_mu():
    t = Mu("alpha", NAT, Named("alpha", LVar("x")))
    g = cps_term(t, {"x": NAT})
    # mu alpha. [alpha] x  ==>  lam alpha^. x~ alpha^   (after its body
    # applies the named-term thunk to the continuation variable).
    assert isinstance(g, GLam)
    assert g.var == "alpha^"
    assert g.ty == LNAT
    assert typecheck_lam(g, cps_envs({"x": NAT}, {})) == LArr(LNAT)


def test_translation_of_named_yields_unit_abstraction():
    t = Named("alpha", LVar("x"))
    g = cps_term(t, {"x": NAT}, {"alpha": NAT})
    assert isinstance(g, GLam)
    assert g.ty == LUNIT
    ctx = cps_envs({"x": NAT}, {"alpha": NAT})
    assert typecheck_lam(g, ctx) == LArr(LUNIT)


def test_lambda_and_mu_variables_live_in_separate_namespaces():
    env, lenv = {"a": NAT}, {"a": NAT}
    ctx = cps_envs(env, lenv)
    assert ctx["a~"] == LArr(LNAT)
    assert ctx["a^"] == LNAT
    t = Mu("a", NAT, Named("a", LVar("a")))
    assert typecheck_lam(cps_term(t, {"a": NAT}), cps_envs({"a": NAT}, {})) \
        == LArr(LNAT)


def test_translation_is_deterministic():
    t = LApp(Lam("x", NAT, LVar("x")), Num(3))
    a = cps_term(t)
    b = cps_term(t)
    assert a == b
    assert lam_term_str(a) == lam_term_str(b)


def test_constants_translate_to_opaque_continuation_consumers():
    g = cps_term(Num(7))
    assert isinstance(g, GConst)
    assert g == GConst("7", LNAT)
    p = cps_term(Prim("succ", None))
    assert isinstance(p, GConst)
    assert p.name == "succ"
    assert typecheck_lam(p) == LArr(cps_type(NN))


# ------------------------------------------------- typing preservation

def test_cps_preserves_typing_on_corpus():
    for e in corpus_files.entries():
        th = THEORIES[e.theory]
        check_proof(e.proof, th, e.goal)
        t = interp_proof(e.proof, th, e.goal)
        env, lenv = interp_envs(e.goal)
        g = cps_term(t, env, lenv)
        want = LArr(cps_type(interp_type(e.goal.concl)))
        assert typecheck_lam(g, cps_envs(env, lenv)) == want, e.name


def test_cps_preserves_typing_on_random_terms():
    rng = random.Random(20260817)
    for _ in range(200):
        ty = rand_type(rng, 3)
        t = gen_term(rng, ty, depth=6)
        assert typecheck(t) == ty
        assert typecheck_lam(cps_term(t)) == LArr(cps_type(ty))


# ------------------------------------------------------- normalization

def _norm(t, env=None, lenv=None):
    ctx = cps_envs(env or {}, lenv or {})
    return normalize_lam(cps_term(t, env, lenv), ctx)


def _same(lhs, rhs, env=None, lenv=None):
    return g_alpha_eq(_norm(lhs, env, lenv), _norm(rhs, env, lenv))


def test_beta_redex_translates_equal_to_its_reduct():
    env = {"y": NAT}
    assert _same(LApp(Lam("x", NAT, LVar("x")), LVar("y")), LVar("y"), env)


def test_any_unit_term_normalizes_to_star():
    t = GCase(GInj(1, STAR, LSum(LUNIT, LUNIT)), "b", GVar("b"), GVar("b"))
    assert normalize_lam(t) == STAR
    u = GProj(2, GPair(GVar("k"), STAR))
    assert normalize_lam(u, {"k": LNAT}) == STAR


def test_normal_forms_are_stable():
    t = cps_term(LApp(Lam("x", NAT, LVar("x")), Num(2)))
    n = normalize_lam(t)
    assert normalize_lam(n) == n


# ----------------------------------------- source equations transported

EQUATIONS = [
    ("beta-arrow",
     LApp(Lam("x", NAT, LApp(LVar("g"), LVar("x"))), LVar("y")),
     LApp(LVar("g"), LVar("y")),
     {"g": NN, "y": NAT}, {}),
    ("eta-arrow",
     Lam("x", NAT, LApp(LVar("f"), LVar("x"))),
     LVar("f"),
     {"f": NN}, {}),
    ("beta-pair-1",
     Proj(1, Pair(LVar("m"), LVar("n"))),
     LVar("m"),
     {"m": NAT, "n": NAT}, {}),
    ("beta-pair-2",
     Proj(2, Pair(LVar("m"), LVar("n"))),
     LVar("n"),
     {"m": NAT, "n": NAT}, {}),
    ("eta-pair",
     Pair(Proj(1, LVar("p")), Proj(2, LVar("p"))),
     LVar("p"),
     {"p": TProd(NAT, NAT)}, {}),
    ("beta-bot",
     Named("alpha", Mu("beta", NAT, Named("beta", LVar("m")))),
     Named("alpha", LVar("m")),
     {"m": NAT}, {"alpha": NAT}),
    ("eta-bot",
     Mu("alpha", NAT, Named("alpha", LVar("m"))),
     LVar("m"),
     {"m": NAT}, {}),
    ("zeta-arrow",
     LApp(Mu("alpha", NN, Named("alpha", LVar("g"))), LVar("y")),
     Mu("alpha", NAT, Named("alpha", LApp(LVar("g"), LVar("y")))),
     {"g": NN, "y": NAT}, {}),
    ("zeta-pair",
     Proj(1, Mu("alpha", TProd(NAT, NAT), Named("alpha", LVar("p")))),
     Mu("alpha", NAT, Named("alpha", Proj(1, LVar("p")))),
     {"p": TProd(NAT, NAT)}, {}),
    ("zeta-bot",
     Mu("alpha", TBOT, Named("alpha", LVar("b"))),
     LVar("b"),
     {"b": TBOT}, {}),
]


@pytest.mark.parametrize("name,lhs,rhs,env,lenv",
                         EQUATIONS, ids=[e[0] for e in EQUATIONS])
def test_source_equation_becomes_target_identity(name, lhs, rhs, env, lenv):
    lt, rt = typecheck(lhs, env, lenv), typecheck(rhs, env, lenv)
    assert lt == rt
    assert _same(lhs, rhs, env, lenv), name


# ----------------------------------------------- classical control term

def test_proof_of_peirce_translates_like_callcc():
    e = next(x for x in corpus_files.entries() if x.name == "peirce")
    th = THEORIES[e.theory]
    check_proof(e.proof, th, e.goal)
    pt = interp_proof(e.proof, th, e.goal)
    env, lenv = interp_envs(e.goal)
    want = interp_type(e.goal.concl)

    # ((A -> B) -> A) -> A at the instance's realizer types.
    a, b = TArr(TBOT, TBOT), TBOT
    callcc = Lam("y", TArr(TArr(a, b), a),
                 Mu("a", a, Named("a", LApp(LVar("y"),
                     Lam("x", a, Mu("b", b, Named("a", LVar("x"))))))))
    assert typecheck(callcc) == want

    lhs = normalize_lam(cps_term(pt, env, lenv), cps_envs(env, lenv))
    rhs = normalize_lam(cps_term(callcc), {})
    assert g_alpha_eq(lhs, rhs)
