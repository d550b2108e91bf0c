"""Seeded generators of random well-typed terms: closed λμ-terms, used by
the subject reduction and translation-preservation suites, and target terms
of mupcf.cps, used by the normalizer's suites."""

from mupcf.cps import (
    GApp, GCase, GConst, GInj, GLam, GPair, GProj, GVar, LArr, LNAT, LProd,
    LSum, LUNIT, LamTerm, R, STAR,
)
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, Pair, Prim, Proj, TArr, TBOT,
    TProd, lapp, mk_fix, mk_ifz, mk_omega,
)


def rand_type(rng, depth):
    if depth <= 0:
        return NAT
    r = rng.random()
    if r < 0.45:
        return NAT
    if r < 0.55:
        return TBOT
    if r < 0.8:
        return TArr(rand_type(rng, depth - 1), rand_type(rng, depth - 1))
    return TProd(rand_type(rng, depth - 1), rand_type(rng, depth - 1))


def _vars_of(env, ty):
    return [LVar(n) for n, t in env.items() if t == ty]


def _atom(rng, ty, env, lenv, budget=8):
    opts = _vars_of(env, ty)
    if opts and rng.random() < 0.5:
        return rng.choice(opts)
    match ty:
        case x if x == NAT:
            return Num(rng.randint(0, 9))
        case TArr(a, b):
            x = f"v{len(env)}"
            return Lam(x, a, _atom(rng, b, {**env, x: a}, lenv, budget))
        case TProd(a, b):
            return Pair(_atom(rng, a, env, lenv, budget),
                        _atom(rng, b, env, lenv, budget))
        case _:  # bottom; the budget stops runs through label types
            labs = [(l, lt) for l, lt in lenv.items() if lt != TBOT]
            if labs and budget > 0 and rng.random() < 0.7:
                l, lt = rng.choice(labs)
                return Named(l, _atom(rng, lt, env, lenv, budget - 1))
            return mk_omega(TBOT)
    raise AssertionError


def gen_term(rng, ty, env=None, lenv=None, depth=6, fix_budget=2):
    """A closed (given empty env/lenv) term of the requested type.

    Recursive terms get a tiny guarded body that mentions the self-variable
    exactly once, so reduction sequences grow by a constant per unfolding
    and suites that typecheck every reduct stay affordable.
    """
    env = env or {}
    lenv = lenv or {}
    if depth <= 0:
        return _atom(rng, ty, env, lenv)

    prods = ["atom", "app", "mu", "ifz", "proj"]
    match ty:
        case TArr(_, _):
            prods += ["lam", "lam"]
        case TProd(_, _):
            prods += ["pair", "pair"]
        case x if x == NAT:
            prods += ["sp", "sp"]
        case _:
            prods += ["named", "named", "named"]
    if fix_budget > 0 and (isinstance(ty, TArr) or ty == NAT):
        prods.append("fix")

    def sub(want, env=env, lenv=lenv, budget=None):
        return gen_term(rng, want, env, lenv, depth - 1,
                        fix_budget if budget is None else budget)

    match rng.choice(prods):
        case "atom":
            return _atom(rng, ty, env, lenv)
        case "lam":
            x = f"v{len(env)}"
            return Lam(x, ty.left, sub(ty.right, env={**env, x: ty.left}))
        case "pair":
            return Pair(sub(ty.left), sub(ty.right))
        case "app":
            at = rand_type(rng, 1)
            return LApp(sub(TArr(at, ty)), sub(at))
        case "proj":
            other = rand_type(rng, 1)
            i = rng.choice([1, 2])
            pt = TProd(ty, other) if i == 1 else TProd(other, ty)
            return Proj(i, sub(pt))
        case "mu":
            l = f"l{len(lenv)}"
            return Mu(l, ty, sub(TBOT, lenv={**lenv, l: ty}))
        case "named":
            labs = list(lenv.items())
            if not labs:
                return _atom(rng, ty, env, lenv)
            l, lt = rng.choice(labs)
            return Named(l, sub(lt))
        case "ifz":
            return lapp(mk_ifz(ty), sub(NAT), sub(ty), sub(ty))
        case "sp":
            op = rng.choice(["succ", "pred"])
            return LApp(Prim(op), sub(NAT))
        case "fix":
            x = f"v{len(env)}"
            body = lapp(mk_ifz(ty),
                        _atom(rng, NAT, env, lenv),
                        _atom(rng, ty, env, lenv),
                        LVar(x))
            return LApp(mk_fix(ty), Lam(x, ty, body))
    raise AssertionError


# ---------- target terms ----------

# Binders draw on three names, so they shadow one another and the free
# variables of a substituted term are bound again inside the body. "n" is
# never bound, so a nat~ leaf is always at hand.
NAMES = ("x", "y", "z")
TARGET_CTX = {"n": LNAT, "x": LSum(LNAT, LUNIT), "y": LProd(LArr(LNAT), LNAT),
              "z": LSum(LNAT, LProd(LNAT, LNAT))}


def rand_target_type(rng, depth):
    if depth <= 0:
        return rng.choice([LNAT, LNAT, LUNIT])
    r = rng.random()
    if r < 0.35:
        return LNAT
    if r < 0.45:
        return LUNIT
    if r < 0.65:
        return LArr(rand_target_type(rng, depth - 1))
    left = rand_target_type(rng, depth - 1)
    right = rand_target_type(rng, depth - 1)
    return LSum(left, right) if r < 0.85 else LProd(left, right)


def _leaf(ty):
    match ty:
        case LArr(dom):
            return GConst("c", dom)
        case LProd(left, right):
            return GPair(_leaf(left), _leaf(right))
        case LSum(left, _):
            return GInj(1, _leaf(left), ty)
    if ty == R:
        return GApp(GConst("k", LNAT), GVar("n"))
    return STAR if ty == LUNIT else GVar("n")


def _plug(t, hole, term):
    """t with every occurrence of the variable hole replaced by term."""
    if isinstance(t, GVar):
        return term if t.name == hole else GVar(t.name)
    return t.__class__(*[_plug(v, hole, term) if isinstance(v, LamTerm)
                         else v for v in vars(t).values()])


def gen_target(rng, ty, ctx, depth, names=NAMES):
    """A term of target type ty (R or a LamType) under ctx, a map from names
    to types that holds n: nat~. Besides β-redexes of every kind it builds
    β-redexes whose argument's free variable the body binds again, and
    foldable cases case s (x) C[in1 x] C[in2 x], where x is bound at each
    side of the scrutinee's sum."""
    def sub(want, c=ctx, nm=names):
        return gen_target(rng, want, c, depth - 1, nm)

    if depth <= 0:
        return _leaf(ty)
    kind = rng.choice(["var", "intro", "intro", "redex", "proj", "case",
                       "fold"])
    if kind == "var":
        found = [GVar(n) for n, t in ctx.items() if t == ty]
        return rng.choice(found) if found else _leaf(ty)
    if kind == "proj":
        other, i = rand_target_type(rng, 1), rng.choice([1, 2])
        return GProj(i, sub(LProd(ty, other) if i == 1 else LProd(other, ty)))
    x = rng.choice(names)
    if kind == "redex" and ty == R:
        clash = [n for n in names if n in ctx and n != x]
        if not clash:
            a = rand_target_type(rng, 1)
            return GApp(GLam(x, a, sub(R, {**ctx, x: a})), sub(a))
        # the argument is a variable v that the body binds again, under a
        # constant that keeps the binder to the normal form; x occurs below
        # that binder, so the substitution renames it
        v, d = rng.choice(clash), rand_target_type(rng, 1)
        a, c = ctx[v], {**ctx, x: ctx[v], v: d}
        inner = GLam(v, d, GApp(sub(LArr(a), c), GVar(x)))
        return GApp(GLam(x, a, GApp(GConst("c", LArr(d)), inner)), GVar(v))
    if kind in ("redex", "case"):
        st = LSum(rand_target_type(rng, 1), rand_target_type(rng, 1))
        i = rng.choice([1, 2])
        s = GInj(i, sub(st.left if i == 1 else st.right), st) \
            if kind == "redex" else sub(st)
        return GCase(s, x, sub(ty, {**ctx, x: st.left}),
                     sub(ty, {**ctx, x: st.right}))
    if kind == "fold" and len(names) > 1:  # C takes x out of names
        sums = [n for n, t in ctx.items() if isinstance(t, LSum) and n != x]
        if sums:
            s = GVar(rng.choice(sums))
            st = ctx[s.name]
        else:
            st = LSum(rand_target_type(rng, 1), rand_target_type(rng, 1))
            s = sub(st)
        # C neither mentions nor binds x; its hole is a variable of the
        # scrutinee's type that no binder shadows
        hole = f"h{depth}"
        rest = {n: t for n, t in ctx.items() if n != x}
        cctx, cnames = {**rest, hole: st}, tuple(n for n in names if n != x)
        shape = rng.random()
        if ty == st and shape < 0.3:
            c = GVar(hole)
        elif ty == R and shape < 0.6:
            fn = GConst("c", st) if shape < 0.3 else sub(LArr(st), cctx,
                                                          cnames)
            c = GApp(fn, GVar(hole))
        else:
            c = sub(ty, cctx, cnames)
        return GCase(s, x, _plug(c, hole, GInj(1, GVar(x), st)),
                     _plug(c, hole, GInj(2, GVar(x), st)))
    match ty:
        case LArr(dom):
            return GLam(x, dom, sub(R, {**ctx, x: dom}))
        case LProd(left, right):
            return GPair(sub(left), sub(right))
        case LSum(left, right):
            i = rng.choice([1, 2])
            return GInj(i, sub(left if i == 1 else right), ty)
    if ty == R:
        # a constant keeps its argument, and the binders in it, to the end
        a = rand_target_type(rng, 1)
        fn = GConst("c", a) if rng.random() < 0.5 else sub(LArr(a))
        return GApp(fn, sub(a))
    return _leaf(ty)
