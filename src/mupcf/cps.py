"""Call-by-name continuation-passing translation into a restricted
simply-typed λ-calculus.

The target has products, sums, a unit type, one base type of number
continuations, and an opaque answer type; every arrow ends in the answer
type. Control terms translate to plain λ-terms: a term of type A becomes a
function consuming a continuation of type Ã. The translation of an
abstraction is emitted with its administrative redex contracted so that every
subterm stays inside the restricted arrow grammar.

The normalizer decides βη-equality on the fragment where constants stay
opaque: β for all three connectives, η-contractions, collapse of every
unit-typed term, and the generalized sum-η that folds a case whose branches
agree up to the injected scrutinee. It type-checks its input once; each
normal form then carries its type, built from its children's, and rewrites
preserve types, so no rewrite type-checks again.
"""

from .errors import InternalError, UserError
from .lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Node, Num, Pair, Prim, Proj, TArr,
    TBot, TNat, TProd, freshen, prim_type, typecheck,
)


# ---------- types ----------


class LamType(Node):
    pass


class LBase(LamType):
    name: str


class LR(LamType):
    pass


class LArr(LamType):
    """dom -> R; the codomain is forced."""
    dom: LamType


class LProd(LamType):
    left: LamType
    right: LamType


class LUnit(LamType):
    pass


class LSum(LamType):
    left: LamType
    right: LamType


LNAT = LBase("nat")
R = LR()
LUNIT = LUnit()


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


def cps_type(a):
    match a:
        case TNat():
            return LNAT
        case TBot():
            return LUNIT
        case TArr(l, r):
            return LProd(LArr(cps_type(l)), cps_type(r))
        case TProd(l, r):
            return LSum(cps_type(l), cps_type(r))
    raise InternalError(f"bad source type {a!r}")


# ---------- terms ----------


class LamTerm(Node):
    pass


class GVar(LamTerm):
    name: str


class GConst(LamTerm):
    """Translated constant of overall type dom -> R."""
    name: str
    dom: LamType


class GLam(LamTerm):
    var: str
    ty: LamType  # domain; the body must inhabit R
    body: LamTerm


class GApp(LamTerm):
    fn: LamTerm
    arg: LamTerm


class GPair(LamTerm):
    left: LamTerm
    right: LamTerm


class GProj(LamTerm):
    index: int
    body: LamTerm


class GUnit(LamTerm):
    pass


class GInj(LamTerm):
    index: int
    body: LamTerm
    ty: LamType  # the full sum type


class GCase(LamTerm):
    scrut: LamTerm
    var: str
    left: LamTerm
    right: LamTerm


STAR = GUnit()


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


# ---------- type checking ----------


def typecheck_lam(t, ctx=None):
    ctx = ctx or {}
    match t:
        case GVar(n):
            if n not in ctx:
                raise UserError(f"unbound variable {n}")
            return ctx[n]
        case GConst(_, dom):
            return LArr(dom)
        case GLam(x, ty, b):
            bt = typecheck_lam(b, {**ctx, x: ty})
            if bt != R:
                raise UserError(
                    f"abstraction body must inhabit the answer type, "
                    f"got {lam_type_str(bt)}")
            return LArr(ty)
        case GApp(f, a):
            ft = typecheck_lam(f, ctx)
            if not isinstance(ft, LArr):
                raise UserError(f"applied non-function {lam_term_str(f)}")
            at = typecheck_lam(a, ctx)
            if at != ft.dom:
                raise UserError(
                    f"argument type {lam_type_str(at)} does not match "
                    f"{lam_type_str(ft.dom)}")
            return R
        case GPair(a, b):
            return LProd(typecheck_lam(a, ctx), typecheck_lam(b, ctx))
        case GProj(i, b):
            if i not in (1, 2):
                raise UserError("projection index must be 1 or 2")
            bt = typecheck_lam(b, ctx)
            if not isinstance(bt, LProd):
                raise UserError(f"projected non-pair {lam_term_str(b)}")
            return bt.left if i == 1 else bt.right
        case GUnit():
            return LUNIT
        case GInj(i, b, ty):
            if i not in (1, 2) or not isinstance(ty, LSum):
                raise UserError("bad injection")
            bt = typecheck_lam(b, ctx)
            want = ty.left if i == 1 else ty.right
            if bt != want:
                raise UserError(
                    f"injected {lam_type_str(bt)} into {lam_type_str(ty)}")
            return ty
        case GCase(s, x, l, r):
            st = typecheck_lam(s, ctx)
            if not isinstance(st, LSum):
                raise UserError(f"case on non-sum {lam_term_str(s)}")
            lt = typecheck_lam(l, {**ctx, x: st.left})
            rt = typecheck_lam(r, {**ctx, x: st.right})
            if lt != rt:
                raise UserError("case branches disagree on their type")
            return lt
    raise InternalError(f"bad term {t!r}")


# ---------- translation ----------


def _tvar(n):
    return n + "~"


def _tlabel(n):
    return n + "^"


def _const_label(t):
    match t:
        case Num(v):
            return str(v)
        case Prim(op, _):
            return op
    raise InternalError(f"bad constant {t!r}")


class _Cps:
    """One translation. env maps each source variable in scope to its
    translation and its source type: a free variable x to x~, a λ-bound one
    to the first projection of its λ's name."""

    def __init__(self):
        self.counter = 0
        # names drawn for each source subterm, keyed by id: a source term
        # hashes its whole tree, and the root keeps every subterm alive
        self.drawn = {}

    def fresh(self):
        self.counter += 1
        return f"a{self.counter}"

    def draws(self, t):
        """How many names go draws for t. A λ's name is drawn after its
        body's, so it is known before the body is translated."""
        n = self.drawn.get(id(t))
        if n is None:
            match t:
                case LVar() | Num() | Prim():
                    n = 0
                case Lam(_, _, b) | Proj(_, b) | Named(_, b):
                    n = 1 + self.draws(b)
                case LApp(f, m):
                    n = 1 + self.draws(f) + self.draws(m)
                case Pair(m, k):
                    n = 2 + self.draws(m) + self.draws(k)
                case Mu(_, _, b):
                    n = self.draws(b)
                case _:
                    raise InternalError(f"bad term {t!r}")
            self.drawn[id(t)] = n
        return n

    def go(self, t, env):
        match t:
            case LVar(n):
                return env[n]
            case Num() | Prim():
                ty = NAT if isinstance(t, Num) else prim_type(t)
                return GConst(_const_label(t), cps_type(ty)), ty
            case Lam(x, ty, b):
                a = f"a{self.counter + self.draws(b) + 1}"
                bl, bt = self.go(b, {**env, x: (GProj(1, GVar(a)), ty)})
                self.counter += 1  # a, drawn after the body's names
                body = GApp(bl, GProj(2, GVar(a)))
                return GLam(a, cps_type(TArr(ty, bt)), body), TArr(ty, bt)
            case LApp(f, n):
                fl, ft = self.go(f, env)
                nl, _ = self.go(n, env)
                a = self.fresh()
                return (GLam(a, cps_type(ft.right),
                             GApp(fl, GPair(nl, GVar(a)))), ft.right)
            case Pair(m, n):
                ml, mt = self.go(m, env)
                nl, nt = self.go(n, env)
                a, b = self.fresh(), self.fresh()
                scrut = GLam(a, LSum(cps_type(mt), cps_type(nt)),
                             GCase(GVar(a), b,
                                   GApp(ml, GVar(b)), GApp(nl, GVar(b))))
                return scrut, TProd(mt, nt)
            case Proj(i, m):
                ml, mt = self.go(m, env)
                st = LSum(cps_type(mt.left), cps_type(mt.right))
                ti = mt.left if i == 1 else mt.right
                a = self.fresh()
                return (GLam(a, cps_type(ti),
                             GApp(ml, GInj(i, GVar(a), st))), ti)
            case Mu(l, ty, b):
                bl, _ = self.go(b, env)
                return GLam(_tlabel(l), cps_type(ty), GApp(bl, STAR)), ty
            case Named(l, b):
                bl, _ = self.go(b, env)
                a = self.fresh()
                return GLam(a, LUNIT, GApp(bl, GVar(_tlabel(l)))), TBot()
        raise InternalError(f"bad term {t!r}")


def cps_term(t, env=None, lenv=None):
    env = env or {}
    lenv = lenv or {}
    typecheck(t, env, lenv)
    scope = {x: (GVar(_tvar(x)), a) for x, a in env.items()}
    out, _ = _Cps().go(t, scope)
    return out


def cps_envs(env=None, lenv=None):
    """Translated typing context for a source context."""
    ctx = {}
    for x, a in (env or {}).items():
        ctx[_tvar(x)] = LArr(cps_type(a))
    for l, b in (lenv or {}).items():
        ctx[_tlabel(l)] = cps_type(b)
    return ctx


# ---------- substitution, comparison ----------


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
    """Capture-avoiding substitution of u for the variable x."""
    match t:
        case GVar(n):
            return u if n == x else t
        case GConst() | GUnit():
            return t
        case GLam(y, ty, b):
            if y == x:
                return t
            captured = g_free_vars(u)
            if y in captured:
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
            if y in captured:
                ny = freshen(y, captured | g_free_vars(l) | g_free_vars(r)
                             | {x})
                l = g_subst(l, y, GVar(ny))
                r = g_subst(r, y, GVar(ny))
                y = ny
            return GCase(s2, y, g_subst(l, x, u), g_subst(r, x, u))
    raise InternalError(f"bad term {t!r}")


# ---------- normalization ----------


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


def _fold_case(t, st):
    """Generalized sum-η: a case whose branches are a common context filled
    with the matching injection of the bound variable folds to that context
    filled with the scrutinee, of type st."""
    bound = _binders(t.left) | _binders(t.right)
    # shadowing or capture would make the textual fold unsound; skip
    if (t.var in bound or "_hole_" in bound
            or "_hole_" in g_free_vars(t.left)
            or bound & g_free_vars(t.scrut)):
        return None
    pat1 = GInj(1, GVar(t.var), st)
    pat2 = GInj(2, GVar(t.var), st)
    body = _replace(t.left, pat1, _HOLE)
    if t.var in g_free_vars(body):
        return None
    if _replace(body, _HOLE, pat2) != t.right:
        return None
    return _replace(body, _HOLE, t.scrut)


def _step(t, ty, st):
    """One rewrite at the root of t, of type ty, or None; st is the type of
    the scrutinee when t is a case."""
    if not isinstance(t, GUnit) and isinstance(ty, LUnit):
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
            return _fold_case(t, st)
    return None


def _normalize(t, ctx):
    """The normal form of t and its type, built from the types of the normal
    forms of its children."""
    st = None
    match t:
        case GVar(n):
            out, ty = t, ctx[n]
        case GConst(_, dom):
            out, ty = t, LArr(dom)
        case GUnit():
            out, ty = t, LUNIT
        case GLam(x, xt, b):
            out, ty = GLam(x, xt, _normalize(b, {**ctx, x: xt})[0]), LArr(xt)
        case GApp(f, a):
            out, ty = GApp(_normalize(f, ctx)[0], _normalize(a, ctx)[0]), R
        case GPair(a, b):
            (a, at), (b, bt) = _normalize(a, ctx), _normalize(b, ctx)
            out, ty = GPair(a, b), LProd(at, bt)
        case GProj(i, b):
            b, pt = _normalize(b, ctx)
            out, ty = GProj(i, b), pt.left if i == 1 else pt.right
        case GInj(i, b, ty):
            out = GInj(i, _normalize(b, ctx)[0], ty)
        case GCase(s, x, l, r):
            s, st = _normalize(s, ctx)
            # the bound variable takes each side of the scrutinee's sum
            l, ty = _normalize(l, {**ctx, x: st.left})
            out = GCase(s, x, l, _normalize(r, {**ctx, x: st.right})[0])
        case _:
            raise InternalError(f"bad term {t!r}")
    red = _step(out, ty, st)
    return (out, ty) if red is None else _normalize(red, ctx)


def normalize_lam(t, ctx=None):
    """βη-normal form; constants stay opaque so the result is unique on the
    fixpoint-free fragment."""
    ctx = dict(ctx or {})
    typecheck_lam(t, ctx)  # the one check that t is well typed
    return _normalize(t, ctx)[0]
