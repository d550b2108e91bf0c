"""Executable specifications the library is tested against.

whnf_step is the reference small-step semantics of the lambda-mu terms of
mupcf.lambdamu: deterministic weak-head reduction by substitution, with the
control rules of de Groote's lambda-mu machine (1998), which keep the mu
binder and retype it as the surrounding frame is absorbed. eval_nat, the
environment machine, is checked against it.

mk_ind, mk_extend and mk_concat are the sequence operations of Berger and
Oliva (2005) as λ-abstracted combinators, and barrec is bar recursion built
by applying them, as mupcf.lambdamu.mk_barrec was before it built each
operation in place. The library's bar recursion must compute the same
values.

g_alpha_eq compares target terms of mupcf.cps up to the names of their
binders. cps_term is the CPS translation of mupcf.cps as it was before it
bound each λ variable to its projection: the translation of an abstraction
names the λ, translates its body, and substitutes the projection through
the translated body. The library's translation must print the same term.
normalize_lam is the βη-normalizer of mupcf.cps as it was before each
normal form carried its type: it type-checks every node it rewrites, and
the scrutinee of every case, again, normalizes every reduct whole, and
folds a case by sum-η through a hole variable and three replacement passes.
The library's normalizer must give the same normal form. g_subst is the
substitution of mupcf.cps as it was before it kept unchanged subterms, and
renames a binder only where it would capture; the library's must give the
same term.

check_proof is the proof checker of mupcf.logic as it was before it read
the free variables and well-formedness that each conclusion carries: it
re-validates the conclusion at every quantifier introduction and substitutes
at every elimination, by the bound variable too. The library's checker must
give the same conclusion or the same error.

prepare_goal is the preparation mupcf.extract ran before the output
continuation absorbed the double negation on the equation: from a proof of
forall x not forall y not not (t != u) it builds one of
forall x not forall y (t != u) around the input. Extraction from the
stripped proof must give the same witnesses and verdicts as from the input,
in more steps.

sort_sexp, ind_sexp, formula_sexp, proof_sexp, type_sexp, term_sexp,
lam_type_str and lam_term_str are the printers of mupcf.logic, mupcf.format,
mupcf.lambdamu and mupcf.cps as they were before one writer printed every
syntax from the layout each class declares: each recurses once per node and
builds each parent's string from its children's. The writer must print the
same string.
"""

from mupcf import logic
from mupcf.cps import (
    GApp, GCase, GConst, GInj, GLam, GPair, GProj, GUnit, GVar, LArr, LBase,
    LProd, LR, LSum, LUNIT, LUnit, STAR, _tlabel, _tvar, cps_type,
    typecheck_lam,
)
from mupcf.errors import InternalError, UserError
from mupcf.extract import pi02_goal
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, Pair, Prim, Proj, SUCC_T, TArr,
    TBot, TNat, TProd, freshen, lams, lapp, mk_fix, mk_ife, mk_ifl, mk_len,
    prim_type, t_list, tarr, typecheck,
)
from mupcf.logic import (
    And, AndElim, AndIntro, Atom, Ax, BOT, BaseSort, Bot, BotElim, BotIntro,
    Forall, ForallElim, ForallIntro, IApp, IConst, IOTA, IVar, Id, Imp,
    ImpElim, ImpIntro, KAPPA, SArrow, Sequent, alpha_eq, collect_names, f_not,
    fv_formula, infer_sort, polarity, wf_formula,
)


# ---------- labels and substitution ----------


def _map(t, go):
    """t rebuilt with go applied to each immediate subterm."""
    match t:
        case LVar() | Num() | Prim():
            return t
        case Lam(x, ty, b):
            return Lam(x, ty, go(b))
        case LApp(f, a):
            return LApp(go(f), go(a))
        case Pair(a, b):
            return Pair(go(a), go(b))
        case Proj(i, b):
            return Proj(i, go(b))
        case Mu(l, ty, b):
            return Mu(l, ty, go(b))
        case Named(l, b):
            return Named(l, go(b))
    raise InternalError(f"bad term {t!r}")


def free_vars(t):
    if isinstance(t, LVar):
        return {t.name}
    out = set()

    def add(s):
        out.update(free_vars(s))
        return s

    _map(t, add)
    return out - {t.var} if isinstance(t, Lam) else out


def free_labels(t):
    if isinstance(t, Mu):
        return free_labels(t.body) - {t.label}
    out = {t.label} if isinstance(t, Named) else set()

    def add(s):
        out.update(free_labels(s))
        return s

    _map(t, add)
    return out


def subst_var(t, name, repl):
    """Capture-avoiding t[repl / name]."""
    r_fv = free_vars(repl)
    r_fl = free_labels(repl)

    def go(t):
        match t:
            case LVar(n):
                return repl if n == name else t
            case Lam(x, ty, b):
                if x == name:
                    return t
                if x in r_fv:
                    x2 = freshen(x, r_fv | free_vars(b) | {name})
                    b = subst_var(b, x, LVar(x2))
                    x = x2
                return Lam(x, ty, go(b))
            case Mu(l, ty, b):
                if l in r_fl:
                    l2 = freshen(l, r_fl | free_labels(b))
                    b = rename_label(b, l, l2)
                    l = l2
                return Mu(l, ty, go(b))
        return _map(t, go)

    return go(t)


def rename_label(t, old, new):
    match t:
        case Mu(l, ty, b):
            if l == old:
                return t
            if l == new:
                l2 = freshen(l, free_labels(b) | {old, new})
                b = rename_label(b, l, l2)
                l = l2
            return Mu(l, ty, rename_label(b, old, new))
        case Named(l, b):
            return Named(new if l == old else l, rename_label(b, old, new))
    return _map(t, lambda s: rename_label(s, old, new))


def retarget(t, old, new, wrap, pay_fv, pay_fl):
    """Rewrite every naming [old] M into [new] wrap(M), recursing into M
    first. wrap re-applies the absorbed frame, whose payload has free
    variables pay_fv and free labels pay_fl; binders on the way down are
    freshened against those to avoid capture."""

    def go(t):
        match t:
            case Lam(x, ty, b):
                if x in pay_fv:
                    x2 = freshen(x, pay_fv | free_vars(b))
                    b = subst_var(b, x, LVar(x2))
                    x = x2
                return Lam(x, ty, go(b))
            case Mu(l, ty, b):
                if l == old:
                    return t
                if l in pay_fl or l == new:
                    l2 = freshen(l, pay_fl | free_labels(b) | {old, new})
                    b = rename_label(b, l, l2)
                    l = l2
                return Mu(l, ty, go(b))
            case Named(l, b):
                if l == old:
                    return Named(new, wrap(go(b)))
        return _map(t, go)

    return go(t)


# ---------- reference small-step semantics ----------


def _absorb(mu, wrap, payload_terms, new_ty):
    """mu's evaluation frame moves inside: every throw to its label now throws
    the frame-wrapped term to a retyped label."""
    pay_fv, pay_fl = set(), set()
    for p in payload_terms:
        pay_fv |= free_vars(p)
        pay_fl |= free_labels(p)
    avoid = (free_labels(mu.body) - {mu.label}) | pay_fl
    new = freshen(mu.label, avoid)
    return Mu(new, new_ty, retarget(mu.body, mu.label, new, wrap, pay_fv, pay_fl))


def _strip_names(t, label):
    """Remove every naming to label (its payload is already bottom-typed)."""
    match t:
        case Mu(l, _, _) if l == label:
            return t
        case Named(l, b) if l == label:
            return _strip_names(b, label)
    return _map(t, lambda s: _strip_names(s, label))


def whnf_step(t):
    """One deterministic weak-head step, or None on a normal form."""
    match t:
        # conditional: full spine first
        case LApp(LApp(LApp(Prim("ifz", a), m), n), p):
            match m:
                case Num(0):
                    return n
                case Num(_):
                    return p
                case Mu():
                    return _absorb(
                        m, lambda q: lapp(Prim("ifz", a), q, n, p), (n, p), a)
                case _:
                    s = whnf_step(m)
                    return None if s is None else lapp(Prim("ifz", a), s, n, p)
        case LApp(Prim("succ" | "pred" as op), m):
            match m:
                case Num(v):
                    return Num(v + 1) if op == "succ" else Num(max(0, v - 1))
                case Mu():
                    return _absorb(m, lambda q: LApp(Prim(op), q), (), NAT)
                case _:
                    s = whnf_step(m)
                    return None if s is None else LApp(Prim(op), s)
        case LApp(Prim("fix", _) as f, m):
            return LApp(m, LApp(f, m))
        case LApp(Lam(x, _, b), a):
            return subst_var(b, x, a)
        case LApp(Mu(_, TArr(_, rt), _) as m, a):
            return _absorb(m, lambda q: LApp(q, a), (a,), rt)
        case LApp(f, a):
            s = whnf_step(f)
            return None if s is None else LApp(s, a)
        case Proj(i, Pair(a, b)):
            return a if i == 1 else b
        case Proj(i, Mu(_, TProd(ta, tb), _) as m):
            return _absorb(m, lambda q: Proj(i, q), (), ta if i == 1 else tb)
        case Proj(i, b):
            s = whnf_step(b)
            return None if s is None else Proj(i, s)
        case Named(l, Mu(b_lab, _, body)):
            return rename_label(body, b_lab, l)
        case Named(l, b):
            s = whnf_step(b)
            return None if s is None else Named(l, s)
        case Mu(l, TBot(), body):
            return _strip_names(body, l)
        case Mu(l, _, Named(l2, p)) if l == l2 and l not in free_labels(p):
            return p
        case Mu(l, ty, body):
            s = whnf_step(body)
            return None if s is None else Mu(l, ty, s)
    return None


# ---------- the sequence operations as combinators ----------


def mk_ind(a):
    return lams([("s", t_list(a)), ("n", NAT)],
                LApp(Proj(2, LVar("s")), LVar("n")))


def mk_extend(a):
    """Append one element to a finite sequence."""
    s, x, n = LVar("s"), LVar("x"), LVar("n")
    len_s = LApp(mk_len(a), s)
    return lams(
        [("s", t_list(a)), ("x", a)],
        Pair(LApp(SUCC_T, len_s),
             Lam("n", NAT,
                 lapp(mk_ife(a), n, len_s, x, lapp(mk_ind(a), s, n)))))


def mk_concat(a):
    """Pad a finite sequence out to an infinite one with a constant value."""
    s, x, n = LVar("s"), LVar("x"), LVar("n")
    return lams(
        [("s", t_list(a)), ("x", a), ("n", NAT)],
        lapp(mk_ifl(a), n, LApp(mk_len(a), s),
             lapp(mk_ind(a), s, n), x))


def barrec(a, b):
    """Bar recursion that applies the combinators above."""
    d_ty = tarr(t_list(a), TArr(a, b), a)
    e_ty = TArr(tarr(NAT, a), b)
    c_ty = TArr(t_list(a), b)
    d, e, c, s, x = LVar("d"), LVar("e"), LVar("c"), LVar("s"), LVar("x")
    pick = lapp(d, s, Lam("x", a, LApp(c, lapp(mk_extend(a), s, x))))
    loop = Lam("c", c_ty, Lam("s", t_list(a),
                              LApp(e, lapp(mk_concat(a), s, pick))))
    return lams([("d", d_ty), ("e", e_ty)], LApp(mk_fix(c_ty), loop))


# ---------- target terms up to binder names ----------


def _canon(t, ren, counter):
    match t:
        case GVar(n):
            return GVar(ren.get(n, n))
        case GConst() | GUnit():
            return t
        case GLam(x, ty, b):
            nx = f"v{counter[0]}"
            counter[0] += 1
            return GLam(nx, ty, _canon(b, {**ren, x: nx}, counter))
        case GApp(f, a):
            return GApp(_canon(f, ren, counter), _canon(a, ren, counter))
        case GPair(a, b):
            return GPair(_canon(a, ren, counter), _canon(b, ren, counter))
        case GProj(i, b):
            return GProj(i, _canon(b, ren, counter))
        case GInj(i, b, ty):
            return GInj(i, _canon(b, ren, counter), ty)
        case GCase(s, x, l, r):
            nx = f"v{counter[0]}"
            counter[0] += 1
            ren2 = {**ren, x: nx}
            return GCase(_canon(s, ren, counter), nx,
                         _canon(l, ren2, counter), _canon(r, ren2, counter))
    raise InternalError(f"bad term {t!r}")


def g_alpha_eq(a, b):
    return _canon(a, {}, [0]) == _canon(b, {}, [0])


# ---------- target substitution and the fold's helpers ----------

# g_free_vars, g_subst, _replace, _HOLE and _binders are those of mupcf.cps
# before its substitution kept unchanged subterms and its sum-η fold walked
# the two branches side by side; the specs below use these copies, so they
# share no code with what they check.


def g_free_vars(t):
    match t:
        case GVar(n):
            return {n}
        case GConst() | GUnit():
            return set()
        case GLam(x, _, b):
            return g_free_vars(b) - {x}
        case GApp(f, a) | GPair(f, a):
            return g_free_vars(f) | g_free_vars(a)
        case GProj(_, b) | GInj(_, b, _):
            return g_free_vars(b)
        case GCase(s, x, l, r):
            return (g_free_vars(s)
                    | (g_free_vars(l) - {x}) | (g_free_vars(r) - {x}))
    raise InternalError(f"bad term {t!r}")


def g_subst(t, x, u):
    """Capture-avoiding substitution of u for the variable x: a binder is
    renamed only when it is free in u and x occurs free below it."""
    match t:
        case GVar(n):
            return u if n == x else t
        case GConst() | GUnit():
            return t
        case GLam(y, ty, b):
            if y == x:
                return t
            captured = g_free_vars(u)
            if y in captured and x in g_free_vars(b):
                ny = freshen(y, captured | g_free_vars(b) | {x})
                b = g_subst(b, y, GVar(ny))
                y = ny
            return GLam(y, ty, g_subst(b, x, u))
        case GApp(f, a):
            return GApp(g_subst(f, x, u), g_subst(a, x, u))
        case GPair(a, b):
            return GPair(g_subst(a, x, u), g_subst(b, x, u))
        case GProj(i, b):
            return GProj(i, g_subst(b, x, u))
        case GInj(i, b, ty):
            return GInj(i, g_subst(b, x, u), ty)
        case GCase(s, y, l, r):
            s2 = g_subst(s, x, u)
            if y == x:
                return GCase(s2, y, l, r)
            captured = g_free_vars(u)
            if y in captured and x in g_free_vars(l) | g_free_vars(r):
                ny = freshen(y, captured | g_free_vars(l) | g_free_vars(r)
                             | {x})
                l = g_subst(l, y, GVar(ny))
                r = g_subst(r, y, GVar(ny))
                y = ny
            return GCase(s2, y, g_subst(l, x, u), g_subst(r, x, u))
    raise InternalError(f"bad term {t!r}")


def _replace(t, pat, repl):
    """Replace every occurrence of the closed-pattern subterm pat.
    Only used with patterns whose free variables are never captured in t."""
    if t == pat:
        return repl
    match t:
        case GVar() | GConst() | GUnit():
            return t
        case GLam(x, ty, b):
            return GLam(x, ty, _replace(b, pat, repl))
        case GApp(f, a):
            return GApp(_replace(f, pat, repl), _replace(a, pat, repl))
        case GPair(a, b):
            return GPair(_replace(a, pat, repl), _replace(b, pat, repl))
        case GProj(i, b):
            return GProj(i, _replace(b, pat, repl))
        case GInj(i, b, ty):
            return GInj(i, _replace(b, pat, repl), ty)
        case GCase(s, x, l, r):
            return GCase(_replace(s, pat, repl), x,
                         _replace(l, pat, repl), _replace(r, pat, repl))
    raise InternalError(f"bad term {t!r}")


_HOLE = GVar("_hole_")


def _binders(t):
    match t:
        case GVar() | GConst() | GUnit():
            return set()
        case GLam(x, _, b):
            return {x} | _binders(b)
        case GApp(f, a) | GPair(f, a):
            return _binders(f) | _binders(a)
        case GProj(_, b) | GInj(_, b, _):
            return _binders(b)
        case GCase(s, x, l, r):
            return {x} | _binders(s) | _binders(l) | _binders(r)
    raise InternalError(f"bad term {t!r}")


# ---------- the CPS translation by substitution ----------


class _SubstCps:
    def __init__(self):
        self.counter = 0

    def fresh(self):
        self.counter += 1
        return f"a{self.counter}"

    def go(self, t, env, lenv):
        match t:
            case LVar(n):
                return GVar(_tvar(n)), env[n]
            case Num() | Prim():
                if isinstance(t, Num):
                    return GConst(str(t.value), cps_type(NAT)), NAT
                ty = prim_type(t)
                return GConst(t.op, cps_type(ty)), ty
            case Lam(x, ty, b):
                a = self.fresh()
                bl, bt = self.go(b, {**env, x: ty}, lenv)
                body = GApp(g_subst(bl, _tvar(x), GProj(1, GVar(a))),
                            GProj(2, GVar(a)))
                return GLam(a, cps_type(TArr(ty, bt)), body), TArr(ty, bt)
            case LApp(f, n):
                fl, ft = self.go(f, env, lenv)
                nl, _ = self.go(n, env, lenv)
                a = self.fresh()
                return (GLam(a, cps_type(ft.right),
                             GApp(fl, GPair(nl, GVar(a)))), ft.right)
            case Pair(m, n):
                ml, mt = self.go(m, env, lenv)
                nl, nt = self.go(n, env, lenv)
                a, b = self.fresh(), self.fresh()
                scrut = GLam(a, LSum(cps_type(mt), cps_type(nt)),
                             GCase(GVar(a), b,
                                   GApp(ml, GVar(b)), GApp(nl, GVar(b))))
                return scrut, TProd(mt, nt)
            case Proj(i, m):
                ml, mt = self.go(m, env, lenv)
                st = LSum(cps_type(mt.left), cps_type(mt.right))
                ti = mt.left if i == 1 else mt.right
                a = self.fresh()
                return (GLam(a, cps_type(ti),
                             GApp(ml, GInj(i, GVar(a), st))), ti)
            case Mu(l, ty, b):
                bl, _ = self.go(b, env, {**lenv, l: ty})
                return GLam(_tlabel(l), cps_type(ty), GApp(bl, STAR)), ty
            case Named(l, b):
                bl, _ = self.go(b, env, lenv)
                a = self.fresh()
                return GLam(a, LUNIT, GApp(bl, GVar(_tlabel(l)))), TBot()
        raise InternalError(f"bad term {t!r}")


def cps_term(t, env=None, lenv=None):
    env = env or {}
    lenv = lenv or {}
    typecheck(t, env, lenv)
    out, _ = _SubstCps().go(t, env, lenv)
    return out


# ---------- the retyping normalizer ----------


def _fold_case(t, ctx):
    """Generalized sum-η: a case whose branches are a common context filled
    with the matching injection of the bound variable folds to that context
    filled with the scrutinee."""
    bound = _binders(t.left) | _binders(t.right)
    # shadowing or capture would make the textual fold unsound; skip
    if (t.var in bound or "_hole_" in bound
            or "_hole_" in g_free_vars(t.left)
            or bound & g_free_vars(t.scrut)):
        return None
    st = typecheck_lam(t.scrut, ctx)
    pat1 = GInj(1, GVar(t.var), st)
    pat2 = GInj(2, GVar(t.var), st)
    body = _replace(t.left, pat1, _HOLE)
    if t.var in g_free_vars(body):
        return None
    if _replace(body, _HOLE, pat2) != t.right:
        return None
    return _replace(body, _HOLE, t.scrut)


def _step(t, ctx):
    """One rewrite at the root, or None."""
    if not isinstance(t, GUnit) and typecheck_lam(t, ctx) == LUNIT:
        return STAR
    match t:
        case GApp(GLam(x, _, b), a):
            return g_subst(b, x, a)
        case GProj(i, GPair(l, r)):
            return l if i == 1 else r
        case GCase(GInj(i, v, _), x, l, r):
            return g_subst(l if i == 1 else r, x, v)
        case GLam(x, _, GApp(f, GVar(y))) if y == x and x not in g_free_vars(f):
            return f
        case GLam(x, LUnit(), GApp(f, GUnit())) if x not in g_free_vars(f):
            return f
        case GPair(GProj(1, m), GProj(2, n)) if m == n:
            return m
        case GCase():
            return _fold_case(t, ctx)
    return None


def _normalize(t, ctx):
    match t:
        case GVar() | GConst() | GUnit():
            out = t
        case GLam(x, ty, b):
            out = GLam(x, ty, _normalize(b, {**ctx, x: ty}))
        case GApp(f, a):
            out = GApp(_normalize(f, ctx), _normalize(a, ctx))
        case GPair(a, b):
            out = GPair(_normalize(a, ctx), _normalize(b, ctx))
        case GProj(i, b):
            out = GProj(i, _normalize(b, ctx))
        case GInj(i, b, ty):
            out = GInj(i, _normalize(b, ctx), ty)
        case GCase(s, x, l, r):
            st = typecheck_lam(s, ctx)
            # retype the bound variable per branch
            out = GCase(_normalize(s, ctx), x,
                        _normalize(l, {**ctx, x: st.left}),
                        _normalize(r, {**ctx, x: st.right}))
        case _:
            raise InternalError(f"bad term {t!r}")
    red = _step(out, ctx)
    return out if red is None else _normalize(red, ctx)


def normalize_lam(t, ctx=None):
    ctx = dict(ctx or {})
    typecheck_lam(t, ctx)
    return _normalize(t, ctx)


# ---------- reference proof checker ----------


def _check_label_formula(f, has_rel):
    wf_formula(f, has_rel)
    if polarity(f) == "positive":
        raise UserError(
            f"label formula must be negative, got positive: {formula_sexp(f)}")


def check_proof(proof, theory, goal):
    """The goal if proof checks against it; raises UserError."""
    wf_formula(goal.concl, theory.has_rel)
    concl, _, _ = check_node(proof, theory, {}, {}, {})
    if not alpha_eq(concl, goal.concl):
        raise UserError(
            "proof concludes " + formula_sexp(concl)
            + " but the goal is " + formula_sexp(goal.concl))
    return goal


def check_node(p, theory, gamma, delta, instances):
    """Conclusion of p and the hypotheses and labels it uses."""
    cls = p.__class__
    if cls is ImpElim:
        cf, uh1, ul1 = check_node(p.fn, theory, gamma, delta, instances)
        ca, uh2, ul2 = check_node(p.arg, theory, gamma, delta, instances)
        if cf.__class__ is not Imp:
            raise UserError(
                "implication elimination on " + formula_sexp(cf))
        if not alpha_eq(cf.left, ca):
            raise UserError(
                "argument proves " + formula_sexp(ca)
                + " but " + formula_sexp(cf.left) + " is required")
        return cf.right, uh1 | uh2, ul1 | ul2
    if cls is ForallElim:
        t = p.term
        c, uh, ul = check_node(p.body, theory, gamma, delta, instances)
        if c.__class__ is not Forall:
            raise UserError("quantifier elimination on " + formula_sexp(c))
        ts = infer_sort(t)
        if ts != c.sort:
            raise UserError(
                f"instantiating a {sort_sexp(c.sort)} quantifier with "
                f"{ind_sexp(t)} : {sort_sexp(ts)}")
        return logic.subst_var(c.body, c.var, t), uh, ul
    if cls is Ax:
        key = (p.name, p.args)
        f = instances.get(key)
        if f is None:
            f = instances[key] = theory.instantiate(p.name, p.args)
        return f, set(), set()
    if cls is ImpIntro:
        h, f = p.hyp, p.formula
        if h in gamma:
            raise UserError(f"hypothesis name {h} shadows an existing one")
        wf_formula(f, theory.has_rel)
        c, uh, ul = check_node(p.body, theory, {**gamma, h: f}, delta,
                               instances)
        return Imp(f, c), uh - {h}, ul
    if cls is Id:
        h = p.hyp
        if h not in gamma:
            raise UserError(f"unknown hypothesis {h}")
        return gamma[h], {h}, set()
    if cls is ForallIntro:
        x, sort = p.var, p.sort
        c, uh, ul = check_node(p.body, theory, gamma, delta, instances)
        for kind, ctx, used in (("hypothesis", gamma, uh),
                                ("label", delta, ul)):
            for n in ctx:  # binding order
                if n in used and x in fv_formula(ctx[n]):
                    raise UserError(
                        f"eigenvariable {x} is free in used {kind} {n}")
        f = Forall(x, sort, c)
        wf_formula(f, theory.has_rel)
        return f, uh, ul
    if cls is AndIntro:
        cl, uh1, ul1 = check_node(p.left, theory, gamma, delta, instances)
        cr, uh2, ul2 = check_node(p.right, theory, gamma, delta, instances)
        return And(cl, cr), uh1 | uh2, ul1 | ul2
    if cls is AndElim:
        i = p.index
        if i not in (1, 2):
            raise UserError("projection index must be 1 or 2")
        c, uh, ul = check_node(p.body, theory, gamma, delta, instances)
        if c.__class__ is not And:
            raise UserError(
                "conjunction elimination on " + formula_sexp(c))
        return (c.left if i == 1 else c.right), uh, ul
    if cls is BotIntro:
        label = p.label
        if label not in delta:
            raise UserError(f"unknown label {label}")
        c, uh, ul = check_node(p.body, theory, gamma, delta, instances)
        if not alpha_eq(c, delta[label]):
            raise UserError(
                "label " + label + " expects " + formula_sexp(delta[label])
                + " but the subproof gives " + formula_sexp(c))
        return BOT, uh, ul | {label}
    if cls is BotElim:
        label, f = p.label, p.formula
        if label in delta or label == KAPPA:
            raise UserError(f"bad label name {label}")
        _check_label_formula(f, theory.has_rel)
        c, uh, ul = check_node(p.body, theory, gamma, {**delta, label: f},
                               instances)
        if c.__class__ is not Bot:
            raise UserError(
                "activation requires a proof of absurdity, got "
                + formula_sexp(c))
        return f, uh, ul - {label}
    raise InternalError(f"bad proof node {p!r}")


# ---------- the stripped Pi02 proof ----------


def prepare_goal(proof, goal):
    """Strip the matrix double negation: from a proof of
    forall x not forall y not not (t != u), derive one of
    forall x not forall y (t != u).  Pass-through when already stripped."""
    g = pi02_goal(goal.concl)
    if g.prepared:
        return proof, goal
    neq = Atom("neq", (g.lhs, g.rhs))
    avoid = collect_names(proof) | {g.x, g.y}
    h = freshen("h", avoid)
    nn = freshen("g", avoid | {h})
    xv, yv = IVar(g.x, g.x_sort), IVar(g.y, IOTA)
    # For each y, turn a hypothetical t != u into the doubly negated matrix
    # the original proof expects.
    inner = ForallIntro(
        g.y, IOTA,
        ImpIntro(nn, f_not(neq),
                 ImpElim(Id(nn), ForallElim(Id(h), yv))))
    stripped = ForallIntro(
        g.x, g.x_sort,
        ImpIntro(h, Forall(g.y, IOTA, neq),
                 ImpElim(ForallElim(proof, xv), inner)))
    concl = Forall(g.x, g.x_sort, f_not(Forall(g.y, IOTA, neq)))
    return stripped, Sequent(concl=concl)


# ---------- the recursive printers ----------


def sort_sexp(s):
    match s:
        case BaseSort(name):
            return name
        case SArrow(a, b):
            return f"(-> {sort_sexp(a)} {sort_sexp(b)})"
    raise InternalError(f"bad sort {s!r}")


def ind_sexp(t):
    match t:
        case IVar(name, _):
            return name
        case IConst(name, ()):
            return name
        case IConst(name, sorts):
            return "(" + " ".join([name] + [sort_sexp(s) for s in sorts]) + ")"
        case IApp():
            head, args = t, []
            while isinstance(head, IApp):
                args.append(head.arg)
                head = head.fn
            args.reverse()
            return "(" + " ".join(ind_sexp(x) for x in [head] + args) + ")"
    raise InternalError(f"bad individual {t!r}")


def formula_sexp(f):
    match f:
        case Bot():
            return "bot"
        case Atom(pred, args):
            return "(" + " ".join([pred] + [ind_sexp(t) for t in args]) + ")"
        case Imp(a, b):
            return f"(-> {formula_sexp(a)} {formula_sexp(b)})"
        case And(a, b):
            return f"(/\\ {formula_sexp(a)} {formula_sexp(b)})"
        case Forall(x, s, b):
            return f"(all ({x} {sort_sexp(s)}) {formula_sexp(b)})"
    raise InternalError(f"bad formula {f!r}")


def proof_sexp(p):
    match p:
        case Id(name):
            return f"(id {name})"
        case Ax(name, args):
            parts = [name]
            for a in args:
                if isinstance(a, IVar):
                    parts.append(f"({a.name} {sort_sexp(a.sort)})")
                elif isinstance(a, (BaseSort, SArrow)):
                    parts.append(sort_sexp(a))
                else:
                    parts.append(formula_sexp(a))
            return "(ax " + " ".join(parts) + ")"
        case ImpIntro(h, f, b):
            return f"(imp-intro ({h} {formula_sexp(f)}) {proof_sexp(b)})"
        case ImpElim(a, b):
            return f"(imp-elim {proof_sexp(a)} {proof_sexp(b)})"
        case AndIntro(a, b):
            return f"(and-intro {proof_sexp(a)} {proof_sexp(b)})"
        case AndElim(i, b):
            return f"(and-elim {i} {proof_sexp(b)})"
        case ForallIntro(x, s, b):
            return f"(forall-intro ({x} {sort_sexp(s)}) {proof_sexp(b)})"
        case ForallElim(b, t):
            return f"(forall-elim {proof_sexp(b)} {ind_sexp(t)})"
        case BotIntro(lab, b):
            return f"(bot-intro {lab} {proof_sexp(b)})"
        case BotElim(lab, f, b):
            return f"(bot-elim ({lab} {formula_sexp(f)}) {proof_sexp(b)})"
    raise InternalError(f"bad proof {p!r}")


def type_sexp(t):
    match t:
        case TNat():
            return "nat"
        case TBot():
            return "bot"
        case TArr(a, b):
            return f"(-> {type_sexp(a)} {type_sexp(b)})"
        case TProd(a, b):
            return f"(* {type_sexp(a)} {type_sexp(b)})"
    raise InternalError(f"bad type {t!r}")


def term_sexp(t):
    cls = t.__class__
    if cls is LApp:
        return f"(app {term_sexp(t.fn)} {term_sexp(t.arg)})"
    if cls is LVar:
        return t.name
    if cls is Lam:
        return f"(lam ({t.var} {type_sexp(t.ty)}) {term_sexp(t.body)})"
    if cls is Prim:
        if t.ty is None:
            return t.op
        return f"({t.op} {type_sexp(t.ty)})"
    if cls is Num:
        return str(t.value)
    if cls is Pair:
        return f"(pair {term_sexp(t.left)} {term_sexp(t.right)})"
    if cls is Proj:
        return f"(proj {t.index} {term_sexp(t.body)})"
    if cls is Mu:
        return f"(mu ({t.label} {type_sexp(t.ty)}) {term_sexp(t.body)})"
    if cls is Named:
        return f"(named {t.label} {term_sexp(t.body)})"
    raise InternalError(f"bad term {t!r}")


def lam_type_str(t):
    match t:
        case LBase(n):
            return n + "~"
        case LR():
            return "R"
        case LArr(d):
            return f"(-> {lam_type_str(d)} R)"
        case LProd(a, b):
            return f"(* {lam_type_str(a)} {lam_type_str(b)})"
        case LUnit():
            return "unit"
        case LSum(a, b):
            return f"(+ {lam_type_str(a)} {lam_type_str(b)})"
    raise InternalError(f"bad type {t!r}")


def lam_term_str(t):
    match t:
        case GVar(n):
            return n
        case GConst(n, _):
            return n + "~"
        case GLam(x, ty, b):
            return f"(lam ({x} {lam_type_str(ty)}) {lam_term_str(b)})"
        case GApp(f, a):
            return f"(app {lam_term_str(f)} {lam_term_str(a)})"
        case GPair(a, b):
            return f"(pair {lam_term_str(a)} {lam_term_str(b)})"
        case GProj(i, b):
            return f"(p{i} {lam_term_str(b)})"
        case GUnit():
            return "star"
        case GInj(i, b, ty):
            return f"(in{i} {lam_term_str(b)} {lam_type_str(ty)})"
        case GCase(s, x, l, r):
            return (f"(case {lam_term_str(s)} ({x}) "
                    f"{lam_term_str(l)} {lam_term_str(r)})")
    raise InternalError(f"bad term {t!r}")
