import random
from collections import Counter
from pathlib import Path

import pytest

from mupcf import cli, cps
from mupcf.cps import (
    GApp, GCase, GConst, GInj, GLam, GPair, GProj, GUnit, GVar, LArr,
    LNAT, LProd, LSum, LUNIT, LamTerm, R, STAR, UserError, cps_envs,
    cps_term, cps_type, g_subst, lam_term_str, lam_type_str, normalize_lam,
    typecheck_lam,
)
from mupcf.interp import interp_envs, interp_proof, interp_type
from mupcf.lambdamu import (
    LApp, Lam, LVar, Mu, NAT, Named, Num, Pair, Prim, Proj, TArr, TBOT,
    TProd, prim_type, typecheck,
)
from mupcf.format import parse_file
from mupcf.logic import THEORIES, check_proof

import corpus_files
import reference
from reference import g_alpha_eq
from termgen import (
    TARGET_CTX, gen_target, gen_term, rand_target_type, rand_type,
)
from test_extract import _count

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


# ------------------------------------- one pass, against the substitution

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "corpus").iterdir()),
           ROOT / "tests" / "dc-succ.proof"]


def _source_terms():
    """(name, term, env, lenv) for every proof and term of SOURCES, as
    `mupcf cps` translates them."""
    out = []
    for path in SOURCES:
        ws = parse_file(path)
        for name, (goal, proof) in ws.proofs.items():
            env, lenv = interp_envs(goal)
            out.append((name, interp_proof(proof, ws.theory, goal), env, lenv))
        for name, t in ws.terms.items():
            out.append((name, t, {}, {}))
    return out


def _agrees_with_substitution(t, env, lenv, name=None):
    g, spec = cps_term(t, env, lenv), reference.cps_term(t, env, lenv)
    assert lam_term_str(g) == lam_term_str(spec), name
    ctx = cps_envs(env, lenv)
    assert typecheck_lam(g, ctx) == typecheck_lam(spec, ctx), name


def test_translation_prints_as_the_substitution_on_every_source():
    sources = _source_terms()
    assert {name for name, *_ in sources} >= {"add0-total", "omega", "dc-succ"}
    for name, t, env, lenv in sources:
        _agrees_with_substitution(t, env, lenv, name)
    _agrees_with_substitution(_nest(300), {}, {}, "nest")


def test_translation_prints_as_the_substitution_on_random_terms():
    """Closed terms, and open ones under the context of a proof's
    interpretation with free variables added."""
    _, labels = interp_envs(corpus_files.entry("and-comm").goal)
    contexts = [({}, {}), ({"n": NAT, "f": NN}, labels)]
    rng = random.Random(20261019)
    for i in range(1000):
        env, lenv = contexts[i % 2]
        t = gen_term(rng, rand_type(rng, 3), env, lenv, depth=6)
        _agrees_with_substitution(t, env, lenv, i)


def test_translation_of_shadowing_binders():
    inner = Lam("x", NAT, LApp(Prim("succ"), LVar("x")))
    for t in (Lam("x", NAT, LApp(inner, LVar("x"))),
              Lam("x", NN, Lam("x", NAT, LVar("x"))),
              Pair(LVar("x"), Lam("x", NN, LVar("x")))):
        _agrees_with_substitution(t, {"x": NAT}, {})


def _nest(depth):
    """(lam (x0 nat) … (lam (x<depth-1> nat) (app succ x0)))"""
    nest = LApp(Prim("succ"), LVar("x0"))
    for i in reversed(range(depth)):
        nest = Lam(f"x{i}", NAT, nest)
    return nest


def _term_nodes(t):
    match t:
        case LVar() | Num() | Prim():
            return 1
        case Lam(_, _, b) | Proj(_, b) | Named(_, b) | Mu(_, _, b):
            return 1 + _term_nodes(b)
        case LApp(f, a) | Pair(f, a):
            return 1 + _term_nodes(f) + _term_nodes(a)
    raise AssertionError(t)


def test_translation_visits_each_source_node_once(monkeypatch, capsys):
    """`mupcf cps` translates each node of the source term once and
    substitutes nothing (the translation by substitution walked the body of
    each λ again, 1 259 g_subst visits on add0-total)."""
    path = ROOT / "corpus" / "add0-total.proof"
    ws = parse_file(path)
    goal, proof = ws.proofs["add0-total"]
    nodes = _term_nodes(interp_proof(proof, ws.theory, goal))
    nest = _nest(300)
    calls = Counter()
    for name in ("_cps", "g_subst"):
        _count(monkeypatch, calls, cps, name)
    assert cli.main(["cps", str(path)]) == 0
    assert capsys.readouterr().out.startswith("term: ")
    assert calls["_cps"] == nodes and calls["g_subst"] == 0, (nodes, calls)
    calls.clear()
    cps_term(nest)
    nodes = _term_nodes(nest)
    assert calls["_cps"] == nodes and calls["g_subst"] == 0, (nodes, calls)


def _type_nodes(a):
    match a:
        case TArr(l, r) | TProd(l, r):
            return 1 + _type_nodes(l) + _type_nodes(r)
    return 1


def _stated_type_nodes(t):
    """The nodes of the types that t states: its λ and μ annotations and the
    types of its primitives."""
    match t:
        case LVar() | Num():
            return 0
        case Prim():
            return _type_nodes(prim_type(t))
        case Lam(_, ty, b) | Mu(_, ty, b):
            return _type_nodes(ty) + _stated_type_nodes(b)
        case Proj(_, b) | Named(_, b):
            return _stated_type_nodes(b)
        case LApp(f, a) | Pair(f, a):
            return _stated_type_nodes(f) + _stated_type_nodes(a)
    raise AssertionError(t)


def test_translation_translates_only_the_stated_types(monkeypatch):
    """Each translated type is built from its parts, so cps_term visits
    cps_type once per node of the types the term and its free variables
    state (re-translating the type of each λ took 339 visits on add0-total
    and 90 604 on a 300-deep nest)."""
    terms = {name: (t, env, lenv) for name, t, env, lenv in _source_terms()}
    terms["nest"] = _nest(300), {}, {}
    calls, stated = Counter(), {}
    _count(monkeypatch, calls, cps, "cps_type")
    for name, (t, env, lenv) in terms.items():
        calls.clear()
        cps_term(t, env, lenv)
        stated[name] = (_stated_type_nodes(t)
                        + sum(map(_type_nodes, env.values())))
        assert calls["cps_type"] == stated[name], (name, calls, stated)
    assert (stated["add0-total"], stated["dc-succ"], stated["nest"]) == (
        151, 21, 303)


# ------------------------------- the typed normalizer, against retyping

def test_normal_forms_agree_with_the_retyping_normalizer_on_every_source():
    for name, t, env, lenv in _source_terms():
        g, ctx = cps_term(t, env, lenv), cps_envs(env, lenv)
        assert normalize_lam(g, ctx) == reference.normalize_lam(g, ctx), name


def test_normal_forms_agree_with_the_retyping_normalizer_on_random_terms():
    rng = random.Random(20261020)
    for i in range(600):
        g = cps_term(gen_term(rng, rand_type(rng, 3), depth=7))
        assert normalize_lam(g) == reference.normalize_lam(g), i


def _g_nodes(t):
    match t:
        case GVar() | GConst() | GUnit():
            return 1
        case GLam(_, _, b) | GProj(_, b) | GInj(_, b, _):
            return 1 + _g_nodes(b)
        case GApp(f, a) | GPair(f, a):
            return 1 + _g_nodes(f) + _g_nodes(a)
        case GCase(s, _, l, r):
            return 1 + _g_nodes(s) + _g_nodes(l) + _g_nodes(r)
    raise AssertionError(t)


def test_normalizer_type_checks_its_input_once(monkeypatch):
    """Each normal form carries its type, so normalizing the cps output of
    add0-total type-checks it once, one visit per node (when each rewrite
    re-typed the term it rewrote, and each case its scrutinee: 826
    top-level typecheck_lam calls, 4 159 visits). A normal form is not
    normalized again, so the reduct of a β-step is walked only down to the
    places where it changed: 519 _normalize calls (960 when each reduct was
    normalized whole again)."""
    e = corpus_files.entry("add0-total")
    t = interp_proof(e.proof, THEORIES[e.theory], e.goal)
    env, lenv = interp_envs(e.goal)
    g, ctx = cps_term(t, env, lenv), cps_envs(env, lenv)
    calls = Counter()
    _count(monkeypatch, calls, cps, "_normalize")
    check, depth = cps.typecheck_lam, [0]

    def counted(*args):
        calls["top" if depth[0] == 0 else "inner"] += 1
        depth[0] += 1
        try:
            return check(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(cps, "typecheck_lam", counted)
    normalize_lam(g, ctx)
    visits = calls["top"] + calls["inner"]
    assert (calls["top"], visits, calls["_normalize"]) == (1, 295, 519)
    assert _g_nodes(g) == 295


def test_a_normal_form_comes_back_as_the_same_object():
    for name, t, env, lenv in _source_terms():
        ctx = cps_envs(env, lenv)
        nf = normalize_lam(cps_term(t, env, lenv), ctx)
        assert normalize_lam(nf, ctx) is nf, name


def test_normalizer_call_counts_on_a_slow_random_term(monkeypatch):
    """Term 188 of the random differential, the slowest of its 600. A normal
    form is not normalized again, and a case is tried for sum-η once, in
    one walk of its two branches side by side (when each reduct was
    normalized whole again and each fold walked the branches up to seven
    times: 129 533 _normalize and 12 701 _fold_case calls, 5.7 s)."""
    rng = random.Random(20261020)
    for _ in range(189):
        g = cps_term(gen_term(rng, rand_type(rng, 3), depth=7))
    calls = Counter()
    for name in ("_normalize", "_fold_case"):
        _count(monkeypatch, calls, cps, name)
    normalize_lam(g)
    assert (calls["_normalize"], calls["_fold_case"]) == (10013, 1308)


def _subterms(t):
    yield t
    for v in vars(t).values():
        if isinstance(v, LamTerm):
            yield from _subterms(v)


def test_substitution_agrees_with_the_reference_and_keeps_what_it_keeps(
        monkeypatch):
    """g_subst gives the reference's term, and returns every term it does
    not change as the same object. The substituted term is often a variable
    that the target binds, so binders are renamed."""
    calls = Counter()
    _count(monkeypatch, calls, cps, "freshen")
    rng = random.Random(20261022)
    same = changed = 0
    for i in range(500):
        if i % 2:
            g = cps_term(gen_term(rng, rand_type(rng, 3), depth=6))
        else:
            g = gen_target(rng, R, dict(TARGET_CTX), 5)
        subs = list(_subterms(g))
        names = sorted({"n", "x", "y", "z"} | {
            b.var for b in subs if isinstance(b, (GLam, GCase))})
        for t in rng.sample(subs, min(len(subs), 20)):
            x = rng.choice([*sorted(reference.g_free_vars(t)), "x", "zz"])
            u = rng.choice([GVar(rng.choice(names)), rng.choice(subs)])
            got = g_subst(t, x, u)
            assert got == reference.g_subst(t, x, u), (i, lam_term_str(t))
            if got == t:
                assert got is t, (i, lam_term_str(t))
                same += 1
            else:
                changed += 1
    assert calls["freshen"] > 100 and same > 100 and changed > 100, \
        (calls, same, changed)


def test_substitution_renames_a_binder_only_where_it_would_capture():
    """A λ or case binder free in the substituted term is renamed only when
    the variable substituted for occurs below it, and then away from that
    term, that variable and the body."""
    x, y, y1, s = GVar("x"), GVar("y"), GVar("y1"), GVar("s")
    lam = GLam("y", LNAT, GApp(y, y))
    case = GCase(s, "y", GApp(y, y), GApp(y1, y))
    for kept in (lam, case):
        t = GPair(GApp(x, x), kept)
        got = g_subst(t, "x", y)
        assert got == GPair(GApp(y, y), kept) and got.right is kept
    y2 = GVar("y2")
    assert g_subst(GLam("y", LNAT, GPair(GApp(x, y), GApp(y1, y))), "x", y) \
        == GLam("y2", LNAT, GPair(GApp(y, y2), GApp(y1, y2)))
    assert g_subst(GCase(s, "y", GApp(x, y), GApp(y1, y)), "x", y) \
        == GCase(s, "y2", GApp(y, y2), GApp(y1, y2))


def test_normal_forms_agree_with_the_retyping_normalizer_on_target_terms(
        monkeypatch):
    """gen_target reaches what cps images almost never do: g_subst renaming
    a binder (never, over the first 200 terms of the random differential and
    the rest of this file) and sum-η folding a case (once in 26 448 tries),
    with holes in the folded context."""
    calls = Counter()
    _count(monkeypatch, calls, cps, "freshen")
    fold = cps._fold_case

    def counted_fold(t, st):
        out = fold(t, st)
        calls["fold" if out is not None else "no fold"] += 1
        calls["filled"] += out is not None and out is not t.left
        return out
    monkeypatch.setattr(cps, "_fold_case", counted_fold)
    rng = random.Random(20261023)
    inputs = []
    for i in range(1000):
        ty = R if i % 2 else rand_target_type(rng, 2)
        ctx = dict(TARGET_CTX)
        inputs.append((gen_target(rng, ty, ctx, 5), ctx, ty))
    # Two fold branches that the random terms miss. Injections at one index
    # whose bodies differ do not fold; a case pair whose parts fold folds
    # into a new case, here case z (c) (k z) (j c).
    b, c, z, k, j = GVar("b"), GVar("c"), GVar("z"), GVar("k"), GVar("j")
    zt, nn = TARGET_CTX["z"], LSum(LNAT, LNAT)
    inputs.append((GCase(GVar("x"), "b", GInj(1, GVar("n"), nn),
                         GInj(1, GProj(2, GVar("y")), nn)),
                   dict(TARGET_CTX), nn))
    inputs.append((GCase(z, "b",
                         GCase(z, "c", GApp(k, GInj(1, b, zt)), GApp(j, c)),
                         GCase(z, "c", GApp(k, GInj(2, b, zt)), GApp(j, c))),
                   {**TARGET_CTX, "k": LArr(zt), "j": LArr(zt.right)}, R))
    for i, (g, ctx, ty) in enumerate(inputs):
        assert typecheck_lam(g, ctx) == ty, i
        assert normalize_lam(g, ctx) == reference.normalize_lam(g, ctx), i
    assert calls["freshen"] > 100 and calls["filled"] > 10, calls
    assert calls["fold"] > 100 and calls["no fold"] > 10, calls


def test_a_node_shared_under_two_binders_is_normalized_at_each_type():
    """The table of normal forms is keyed by identity. A node that the input
    shares between the branches of a case, where the bound variable has two
    types, is nat~ in the left branch and unit, so star, in the right."""
    p1b = GProj(1, GVar("b"))
    st = LSum(LProd(LNAT, LNAT), LProd(LUNIT, LNAT))
    t = GCase(GVar("s"), "b", GApp(GVar("k1"), p1b), GApp(GVar("k2"), p1b))
    ctx = {"s": st, "k1": LArr(LNAT), "k2": LArr(LUNIT)}
    want = GCase(GVar("s"), "b", GApp(GVar("k1"), p1b), GApp(GVar("k2"), STAR))
    assert normalize_lam(t, ctx) == want == reference.normalize_lam(t, ctx)
