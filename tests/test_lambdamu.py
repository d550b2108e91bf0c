import random
import sys
import tracemalloc

import pytest

from mupcf.errors import FuelExhausted, UserError
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, PRED_T, Pair, Proj, SUCC_T,
    TArr, TBOT, TProd, eval_nat, lapp, lams, mk_barrec, mk_fix, mk_ifz,
    mk_len, mk_nil, mk_omega, mk_rec, t_list, tarr, term_sexp, typecheck,
    zero_term,
)
from reference import (
    barrec, free_labels, free_vars, mk_concat, mk_extend, mk_ind, subst_var,
    whnf_step,
)
from termgen import gen_term, rand_type


def ev(t, fuel=10000):
    v, _ = eval_nat(t, fuel)
    return v


# ---------- typing ----------

def test_typecheck_basics():
    assert typecheck(Num(3)) == NAT
    ident = Lam("x", NAT, LVar("x"))
    assert typecheck(ident) == TArr(NAT, NAT)
    assert typecheck(LApp(ident, Num(0))) == NAT
    assert typecheck(Pair(Num(1), ident)) == TProd(NAT, TArr(NAT, NAT))
    assert typecheck(Proj(2, Pair(Num(1), Num(2)))) == NAT


def test_typecheck_mu_named():
    t = Mu("a", NAT, Named("a", Num(5)))
    assert typecheck(t) == NAT
    with pytest.raises(UserError):
        typecheck(Mu("a", NAT, Num(0)))  # body not bottom
    with pytest.raises(UserError):
        typecheck(Named("a", Num(0)))  # unbound label
    with pytest.raises(UserError):
        typecheck(Mu("a", NAT, Named("a", Lam("x", NAT, LVar("x")))))


def test_typecheck_restores_shadowed_scopes():
    """An inner binder of a name shadows the outer one only below it, and
    the caller's contexts come back as they were, also after a refusal."""
    inner = Lam("x", TArr(NAT, NAT), LVar("x"))
    t = Lam("x", NAT, Pair(inner, LVar("x")))
    assert typecheck(t) == TArr(
        NAT, TProd(TArr(TArr(NAT, NAT), TArr(NAT, NAT)), NAT))
    ident = Lam("y", NAT, LVar("y"))
    t = Mu("a", NAT, Named("a", LApp(Mu("a", TArr(NAT, NAT),
                                         Named("a", ident)),
                                      Mu("b", NAT, Named("a", Num(0))))))
    assert typecheck(t) == NAT
    env, lenv = {"z": NAT}, {"a": NAT}
    assert typecheck(Lam("z", TBOT, Mu("a", TBOT, Named("a", LVar("z")))),
                     env, lenv) == TArr(TBOT, TBOT)
    with pytest.raises(UserError):
        typecheck(Lam("z", TBOT, Mu("a", NAT, Named("a", LVar("z")))),
                  env, lenv)
    assert (env, lenv) == ({"z": NAT}, {"a": NAT})


def test_typecheck_scopes_grow_linearly():
    """One scope per walk, extended and restored in place: the peak
    allocation of typechecking a k-deep nest of binders is linear in k
    (about 120 and 40 bytes a level). A walk that copied its scope at each
    binder would keep k scopes of up to k entries alive at the bottom, about
    57 MB here."""
    k = 2000
    lam = LVar("x0")
    for i in reversed(range(k)):
        lam = Lam(f"x{i}", NAT, lam)
    mu = Num(0)
    for i in range(k):
        mu = Mu(f"a{i}", NAT, Named(f"a{i}", mu))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * k))
    try:
        for t in (lam, mu):
            tracemalloc.start()
            try:
                typecheck(t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1000 * k, peak
    finally:
        sys.setrecursionlimit(limit)


def test_typecheck_errors():
    with pytest.raises(UserError):
        typecheck(LVar("x"))
    with pytest.raises(UserError):
        typecheck(LApp(Num(1), Num(2)))
    with pytest.raises(UserError):
        typecheck(LApp(Lam("x", NAT, LVar("x")), Lam("y", NAT, LVar("y"))))
    with pytest.raises(UserError):
        typecheck(Proj(1, Num(3)))


def test_builder_types():
    a = TArr(NAT, NAT)
    assert typecheck(mk_rec(a)) == tarr(a, tarr(NAT, a, a), NAT, a)
    assert typecheck(mk_omega(NAT)) == NAT
    assert typecheck(mk_nil(NAT)) == t_list(NAT)
    assert typecheck(mk_len(NAT)) == TArr(t_list(NAT), NAT)
    assert typecheck(mk_ind(NAT)) == tarr(t_list(NAT), NAT, NAT)
    assert typecheck(mk_extend(NAT)) == tarr(t_list(NAT), NAT, t_list(NAT))
    assert typecheck(mk_concat(NAT)) == tarr(t_list(NAT), NAT, NAT, NAT)
    assert typecheck(mk_barrec(NAT, TBOT)) == tarr(
        tarr(t_list(NAT), TArr(NAT, TBOT), NAT),
        TArr(TArr(NAT, NAT), TBOT),
        t_list(NAT), TBOT)
    for ty in [NAT, a, TProd(NAT, a)]:
        assert typecheck(zero_term(ty)) == ty


# ---------- substitution ----------

def test_subst_capture_avoiding():
    t = Lam("x", NAT, LVar("y"))
    s = subst_var(t, "y", LVar("x"))
    assert isinstance(s, Lam) and s.var != "x" and s.body == LVar("x")


def test_subst_label_capture():
    t = Mu("a", NAT, Named("a", LVar("y")))
    s = subst_var(t, "y", Mu("b", NAT, Named("a", Num(1))))
    # the free label a in the replacement must not be captured
    assert isinstance(s, Mu) and s.label != "a"
    assert "a" in free_labels(s)


# ---------- head reduction ----------

def test_beta_and_deltas():
    assert whnf_step(LApp(Lam("x", NAT, LVar("x")), Num(3))) == Num(3)
    assert ev(LApp(SUCC_T, Num(4))) == 5
    assert ev(LApp(PRED_T, Num(4))) == 3
    assert ev(LApp(PRED_T, Num(0))) == 0
    assert ev(lapp(mk_ifz(NAT), Num(0), Num(10), Num(20))) == 10
    assert ev(lapp(mk_ifz(NAT), Num(3), Num(10), Num(20))) == 20
    assert ev(Proj(1, Pair(Num(7), Num(8)))) == 7


def test_fix_unfolds():
    f = Lam("x", NAT, Num(9))
    t = LApp(mk_fix(NAT), f)
    s = whnf_step(t)
    assert s == LApp(f, t)
    assert ev(t) == 9


def test_mu_frame_absorption_app():
    # (mu a:nat->nat. [a] \x.x) 3 steps to a retyped mu and then to 3
    t = LApp(Mu("a", TArr(NAT, NAT), Named("a", Lam("x", NAT, LVar("x")))),
             Num(3))
    s = whnf_step(t)
    assert isinstance(s, Mu) and s.ty == NAT
    assert ev(t) == 3


def test_mu_frame_absorption_ifz():
    m = Mu("a", NAT, Named("a", Num(1)))
    t = lapp(mk_ifz(NAT), m, Num(5), Num(7))
    s = whnf_step(t)
    assert isinstance(s, Mu) and s.ty == NAT
    assert ev(t) == 7


def test_mu_frame_absorption_succ_proj():
    m = Mu("a", NAT, Named("a", Num(4)))
    assert ev(LApp(SUCC_T, m)) == 5
    p = Mu("a", TProd(NAT, NAT), Named("a", Pair(Num(1), Num(2))))
    assert ev(Proj(2, p)) == 2


def test_named_mu_renames():
    t = Named("out", Mu("b", NAT, Named("b", Num(2))))
    assert whnf_step(t) == Named("out", Num(2))


def test_mu_bottom_strips_names():
    inner = Named("a", Named("k", Num(3)))
    t = Mu("a", TBOT, inner)
    assert whnf_step(t) == Named("k", Num(3))


def test_eta_mu():
    t = Mu("a", NAT, Named("a", Num(6)))
    assert whnf_step(t) == Num(6)
    # not when the label stays free in the payload
    u = Mu("a", NAT, Named("a", Mu("b", NAT, Named("a", Num(1)))))
    s = whnf_step(u)
    assert s != Mu("b", NAT, Named("a", Num(1)))


def test_retarget_avoids_payload_capture():
    # the lambda binder x inside the mu body must not capture the free x of
    # the applied argument
    body = Named("a", Lam("x", NAT, Lam("y", NAT, LVar("x"))))
    t = LApp(Mu("a", tarr(NAT, NAT, NAT), body), LVar("x"))
    s = whnf_step(t)
    assert "x" in free_vars(s)
    inner = s.body.body  # under mu and named: the wrapped application
    assert isinstance(inner, LApp) and inner.arg == LVar("x")
    assert inner.fn.var != "x"


def test_normal_forms_have_no_step():
    for t in [Num(3), Lam("x", NAT, LVar("x")), Pair(Num(1), Num(2)),
              SUCC_T, LApp(mk_ifz(NAT), Num(0))]:
        assert whnf_step(t) is None


def test_omega_exhausts_fuel():
    with pytest.raises(FuelExhausted) as info:
        eval_nat(mk_omega(NAT), 200)
    assert info.value.steps == 200


def test_eval_deterministic():
    t = lapp(mk_rec(NAT), Num(3),
             lams([("n", NAT), ("acc", NAT)], LApp(SUCC_T, LVar("acc"))),
             Num(6))
    v1, s1 = eval_nat(t, 10000)
    v2, s2 = eval_nat(t, 10000)
    assert (v1, s1) == (v2, s2) == (9, s1)


# ---------- recursor laws ----------

def test_rec_base_law():
    r = mk_rec(NAT)
    b = lams([("n", NAT), ("acc", NAT)], LApp(SUCC_T, LVar("acc")))
    assert ev(lapp(r, Num(5), b, Num(0))) == 5


def test_rec_step_law():
    r = mk_rec(NAT)
    b = lams([("n", NAT), ("acc", NAT)],
             LApp(SUCC_T, LApp(SUCC_T, LVar("n"))))
    for n in range(6):
        lhs = lapp(r, Num(3), b, Num(n + 1))
        rhs = lapp(b, Num(n), lapp(r, Num(3), b, Num(n)))
        assert ev(lhs) == ev(rhs)


# ---------- list programs ----------

def test_list_laws():
    a = NAT
    nil = mk_nil(a)
    ln, ind, ext = mk_len(a), mk_ind(a), mk_extend(a)
    assert ev(LApp(ln, nil)) == 0
    s1 = lapp(ext, nil, Num(4))
    assert ev(LApp(ln, s1)) == 1
    assert ev(lapp(ind, s1, Num(0))) == 4
    s2 = lapp(ext, s1, Num(9))
    assert ev(LApp(ln, s2)) == 2
    assert ev(lapp(ind, s2, Num(0))) == 4
    assert ev(lapp(ind, s2, Num(1))) == 9


def test_concat_pads():
    a = NAT
    s2 = lapp(mk_extend(a), lapp(mk_extend(a), mk_nil(a), Num(4)), Num(9))
    c = lapp(mk_concat(a), s2, Num(1))
    assert ev(LApp(c, Num(0))) == 4
    assert ev(LApp(c, Num(1))) == 9
    assert ev(LApp(c, Num(2))) == 1
    assert ev(LApp(c, Num(17))) == 1


def test_barrec_constant_spine():
    # d always answers 42, e asks for the value at 0 and throws it
    a, b = NAT, TBOT
    d = lams([("s", t_list(a)), ("k", TArr(a, b))], Num(42))
    e = Lam("f", TArr(NAT, NAT), Named("kappa", LApp(LVar("f"), Num(0))))
    t = Mu("kappa", NAT, lapp(mk_barrec(a, b), d, e, mk_nil(a)))
    v, steps = eval_nat(t, 10 ** 4)
    assert v == 42 and steps <= 10 ** 4


def _spine(bar, n):
    """The term the barrec-spine benchmark evaluates at depth n: d extends
    the sequence by throwing its length through a mu to the continuation,
    e throws index n of the completed sequence to kappa. Its value is n."""
    d = lams([("s", t_list(NAT)), ("k", TArr(NAT, TBOT))],
             Mu("b", NAT, LApp(LVar("k"), LApp(mk_len(NAT), LVar("s")))))
    e = Lam("al", TArr(NAT, NAT), Named("kappa", LApp(LVar("al"), Num(n))))
    return Mu("kappa", NAT, lapp(bar, d, e, mk_nil(NAT)))


def test_barrec_cost_stays_pinned():
    """mk_barrec builds its sequence operations in place, so it carries no
    administrative redex. Applying the combinators instead (the reference's
    barrec) takes 177, 462, 920 and 1587 steps at these depths, and its
    term prints in 1368 bytes."""
    bar, spec = mk_barrec(NAT, TBOT), barrec(NAT, TBOT)
    runs = [eval_nat(_spine(bar, n), 10 ** 4) for n in range(4)]
    assert runs == [(0, 136), (1, 335), (2, 639), (3, 1068)]
    assert [eval_nat(_spine(spec, n), 10 ** 4) for n in range(4)] == [
        (0, 177), (1, 462), (2, 920), (3, 1587)]
    assert (len(term_sexp(bar)), len(term_sexp(spec))) == (1007, 1368)


def _rand_d(rng):
    """A random d : list nat -> (nat -> bot) -> nat. Some answer at once,
    some throw through a mu to the continuation, some to kappa."""
    s, k = LVar("s"), LVar("k")
    ln = LApp(mk_len(NAT), s)
    last = lapp(mk_ifz(NAT), ln, Num(rng.randrange(3)),
                LApp(Proj(2, s), LApp(PRED_T, ln)))
    body = rng.choice([
        Num(rng.randrange(5)),
        LApp(SUCC_T, ln),
        LApp(SUCC_T, last),
        Mu("b", NAT, LApp(k, ln)),
        Mu("b", NAT, LApp(k, LApp(SUCC_T, last))),
        Mu("b", NAT, Named("kappa", lapp(mk_ifz(NAT), ln, Num(7), last))),
    ])
    return lams([("s", t_list(NAT)), ("k", TArr(NAT, TBOT))], body)


def _rand_e(rng):
    """A random e : (nat -> nat) -> bot that reads a few indices below 4."""
    f = LVar("f")

    def at():
        return LApp(f, Num(rng.randrange(4)))

    body = rng.choice([
        at(),
        lapp(mk_ifz(NAT), at(), at(), at()),
        LApp(f, LApp(PRED_T, at())),
    ])
    return Lam("f", TArr(NAT, NAT), Named("kappa", body))


def test_barrec_agrees_with_the_combinator_spec():
    """On seeded d/e pairs, bar recursion from mk_barrec computes the value
    of bar recursion built from the spec's combinators, in fewer steps."""
    rng = random.Random(20261021)
    bar, spec = mk_barrec(NAT, TBOT), barrec(NAT, TBOT)
    for _ in range(60):
        d, e = _rand_d(rng), _rand_e(rng)

        def run(b):
            t = Mu("kappa", NAT, lapp(b, d, e, mk_nil(NAT)))
            assert typecheck(t) == NAT
            return eval_nat(t, 10 ** 5)

        (v, steps), (want, spec_steps) = run(bar), run(spec)
        assert v == want, (term_sexp(d), term_sexp(e))
        assert steps < spec_steps


# ---------- subject reduction ----------

def test_subject_reduction_smoke():
    rng = random.Random(20260817)
    for _ in range(60):
        ty = rand_type(rng, 2)
        t = gen_term(rng, ty, depth=5)
        assert typecheck(t) == ty
        cur = t
        for _ in range(120):
            s = whnf_step(cur)
            if s is None:
                break
            assert typecheck(s) == ty, f"type changed stepping {cur}"
            cur = s


# ---------- machine against the reference stepper ----------

def _reference_value(t, fuel):
    """Iterate whnf_step to a numeral; None when fuel runs out first."""
    for _ in range(fuel):
        if isinstance(t, Num):
            return t.value
        t = whnf_step(t)
        assert t is not None, "reference stepper stuck on a well-typed term"
    return None


def test_machine_agrees_with_reference_stepper():
    compared, mismatches = 0, []
    for seed in range(400):
        t = gen_term(random.Random(seed), NAT, depth=6)
        want = _reference_value(t, 200)
        if want is None:
            continue
        got, _ = eval_nat(t, 10 ** 6)
        compared += 1
        if got != want:
            mismatches.append((seed, want, got))
    assert mismatches == []
    assert compared > 150


def test_machine_binds_labels_lexically():
    # The throw to a inside f must reach the mu that was in scope where f
    # was written, not the inner mu a that is active when f is called.
    f = Lam("u", NAT, Mu("b", NAT, Named("a", Num(1))))
    inner = Mu("a", NAT, Named("a", LApp(SUCC_T, LApp(LVar("f"), Num(0)))))
    t = Mu("a", NAT, Named("a", LApp(Lam("f", TArr(NAT, NAT),
                                          LApp(SUCC_T, inner)), f)))
    assert typecheck(t) == NAT
    assert ev(t) == _reference_value(t, 100) == 1
