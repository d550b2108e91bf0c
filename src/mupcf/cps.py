"""Call-by-name continuation-passing translation into a restricted
simply-typed λ-calculus.

The target has products, sums, a unit type, one base type of number
continuations, and an opaque answer type; every arrow ends in the answer
type. Control terms translate to plain λ-terms: a term of type A becomes a
function consuming a continuation of type Ã. The translation of an
abstraction is emitted with its administrative redex contracted so that every
subterm stays inside the restricted arrow grammar. It takes one pass: a λ is
named before its body is translated, and its bound variable translates to
the first projection of that name, so nothing is substituted. Each
translation comes with its translated type, built from the translated types
of its parts, so cps_type runs only on the types the term states: λ and μ
annotations, the types of primitives and of free variables.

The normalizer decides βη-equality on the fragment where constants stay
opaque: β for all three connectives, η-contractions, collapse of every
unit-typed term, and the generalized sum-η that folds a case whose branches
agree up to the injected scrutinee. It type-checks its input once; each
normal form then carries its type, built from its children's, and rewrites
preserve types, so no rewrite type-checks again.

Each normal form is found once per normalization. A table that lives for
one normalize_lam call holds every normal form found so far, keyed by node
identity, with its type; substitution and the sum-η fold return every
subterm they leave intact as the same object, so a reduct is normalized
only along the paths where it changed. Substitution renames a binder only
where it would capture the substituted term. Sharing is sound because a
node's type and normal form depend only on the binders of its free
variables, and every rewrite avoids capture, so a kept or shared node keeps
those binders.
An input that shares a node under two binders of one name at different
types, as in the two branches of a case, is copied unshared first. For the
same reason LamTerm must not be interned while the table is keyed by
identity.
"""

from itertools import count

from .errors import InternalError, UserError
from .lambdamu import (
    LApp, LVar, Lam, Mu, Named, Node, Num, Pair, Prim, Proj, TArr, TBot,
    TNat, TProd, freshen, prim_type, typecheck, write,
)


# ---------- types ----------


class LamType(Node):
    pass


class LBase(LamType, layout="{name}~"):
    name: str


class LR(LamType, layout="R"):
    pass


class LArr(LamType, layout="(-> {dom} R)"):
    """dom -> R; the codomain is forced."""
    dom: LamType


class LProd(LamType, layout="(* {left} {right})"):
    left: LamType
    right: LamType


class LUnit(LamType, layout="unit"):
    pass


class LSum(LamType, layout="(+ {left} {right})"):
    left: LamType
    right: LamType


LNAT = LBase("nat")
R = LR()
LUNIT = LUnit()


lam_type_str = write


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


class GVar(LamTerm, layout="{name}"):
    name: str


class GConst(LamTerm, layout="{name}~"):
    """Translated constant of overall type dom -> R."""
    name: str
    dom: LamType


class GLam(LamTerm, layout="(lam ({var} {ty}) {body})"):
    var: str
    ty: LamType  # domain; the body must inhabit R
    body: LamTerm


class GApp(LamTerm, layout="(app {fn} {arg})"):
    fn: LamTerm
    arg: LamTerm


class GPair(LamTerm, layout="(pair {left} {right})"):
    left: LamTerm
    right: LamTerm


class GProj(LamTerm, layout="(p{index} {body})"):
    index: int
    body: LamTerm


class GUnit(LamTerm, layout="star"):
    pass


class GInj(LamTerm, layout="(in{index} {body} {ty})"):
    index: int
    body: LamTerm
    ty: LamType  # the full sum type


class GCase(LamTerm, layout="(case {scrut} ({var}) {left} {right})"):
    scrut: LamTerm
    var: str
    left: LamTerm
    right: LamTerm


STAR = GUnit()


lam_term_str = write


# ---------- type checking ----------


def typecheck_lam(t, ctx=None, seen=None):
    """The type of t under ctx. A dict passed as seen maps the id of each
    variable node of t to its type, or to None if the node occurs at two
    types, as a node shared under two binders of one name can."""
    ctx = ctx or {}
    match t:
        case GVar(n):
            if n not in ctx:
                raise UserError(f"unbound variable {n}")
            ty = ctx[n]
            if seen is not None and seen.setdefault(id(t), ty) != ty:
                seen[id(t)] = None
            return ty
        case GConst(_, dom):
            return LArr(dom)
        case GLam(x, ty, b):
            bt = typecheck_lam(b, {**ctx, x: ty}, seen)
            if bt != R:
                raise UserError(
                    f"abstraction body must inhabit the answer type, "
                    f"got {lam_type_str(bt)}")
            return LArr(ty)
        case GApp(f, a):
            ft = typecheck_lam(f, ctx, seen)
            if not isinstance(ft, LArr):
                raise UserError(f"applied non-function {lam_term_str(f)}")
            at = typecheck_lam(a, ctx, seen)
            if at != ft.dom:
                raise UserError(
                    f"argument type {lam_type_str(at)} does not match "
                    f"{lam_type_str(ft.dom)}")
            return R
        case GPair(a, b):
            return LProd(typecheck_lam(a, ctx, seen),
                         typecheck_lam(b, ctx, seen))
        case GProj(i, b):
            if i not in (1, 2):
                raise UserError("projection index must be 1 or 2")
            bt = typecheck_lam(b, ctx, seen)
            if not isinstance(bt, LProd):
                raise UserError(f"projected non-pair {lam_term_str(b)}")
            return bt.left if i == 1 else bt.right
        case GUnit():
            return LUNIT
        case GInj(i, b, ty):
            if i not in (1, 2) or not isinstance(ty, LSum):
                raise UserError("bad injection")
            bt = typecheck_lam(b, ctx, seen)
            want = ty.left if i == 1 else ty.right
            if bt != want:
                raise UserError(
                    f"injected {lam_type_str(bt)} into {lam_type_str(ty)}")
            return ty
        case GCase(s, x, l, r):
            st = typecheck_lam(s, ctx, seen)
            if not isinstance(st, LSum):
                raise UserError(f"case on non-sum {lam_term_str(s)}")
            lt = typecheck_lam(l, {**ctx, x: st.left}, seen)
            rt = typecheck_lam(r, {**ctx, x: st.right}, seen)
            if lt != rt:
                raise UserError("case branches disagree on their type")
            return lt
    raise InternalError(f"bad term {t!r}")


# ---------- translation ----------


def _tvar(n):
    return n + "~"


def _tlabel(n):
    return n + "^"


def _cps(t, env, names):
    """The translation of t and its translated type, built from the
    translated types of its parts. env maps each source variable in scope to
    its translation and its translated type: a free variable x to x~, a
    λ-bound one to the first projection of its λ's name; names yields the
    fresh names a1, a2, ... in the order they are drawn."""
    match t:
        case LVar(n):
            return env[n]
        case Num(v):
            return GConst(str(v), LNAT), LNAT
        case Prim(op, _):
            ty = cps_type(prim_type(t))
            return GConst(op, ty), ty
        case Lam(x, ty, b):
            a = next(names)
            dom = cps_type(ty)
            bl, bt = _cps(b, {**env, x: (GProj(1, GVar(a)), dom)}, names)
            lt = LProd(LArr(dom), bt)
            return GLam(a, lt, GApp(bl, GProj(2, GVar(a)))), lt
        case LApp(f, n):
            fl, ft = _cps(f, env, names)
            nl, _ = _cps(n, env, names)
            a = next(names)
            return GLam(a, ft.right, GApp(fl, GPair(nl, GVar(a)))), ft.right
        case Pair(m, n):
            ml, mt = _cps(m, env, names)
            nl, nt = _cps(n, env, names)
            a, b = next(names), next(names)
            st = LSum(mt, nt)
            return GLam(a, st, GCase(GVar(a), b, GApp(ml, GVar(b)),
                                     GApp(nl, GVar(b)))), st
        case Proj(i, m):
            ml, st = _cps(m, env, names)
            ti = st.left if i == 1 else st.right
            a = next(names)
            return GLam(a, ti, GApp(ml, GInj(i, GVar(a), st))), ti
        case Mu(l, ty, b):
            bl, _ = _cps(b, env, names)
            mt = cps_type(ty)
            return GLam(_tlabel(l), mt, GApp(bl, STAR)), mt
        case Named(l, b):
            bl, _ = _cps(b, env, names)
            a = next(names)
            return GLam(a, LUNIT, GApp(bl, GVar(_tlabel(l)))), LUNIT
    raise InternalError(f"bad term {t!r}")


def cps_term(t, env=None, lenv=None):
    env = env or {}
    lenv = lenv or {}
    typecheck(t, env, lenv)
    scope = {x: (GVar(_tvar(x)), cps_type(a)) for x, a in env.items()}
    out, _ = _cps(t, scope, (f"a{i}" for i in count(1)))
    return out


def cps_envs(env=None, lenv=None):
    """Translated typing context for a source context."""
    ctx = {}
    for x, a in (env or {}).items():
        ctx[_tvar(x)] = LArr(cps_type(a))
    for l, b in (lenv or {}).items():
        ctx[_tlabel(l)] = cps_type(b)
    return ctx


# ---------- substitution ----------


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
    """Capture-avoiding substitution of u for the variable x. Every subterm
    in which nothing changes comes back as the same object."""
    return _subst(t, x, u, g_free_vars(u))


def _subst(t, x, u, fu):
    """g_subst(t, x, u), where fu is the set of free variables of u. A binder
    is renamed only when it would capture u: when it is in fu and x occurs
    below it, so that its body changes."""
    match t:
        case GVar(n):
            return t if n != x or u == t else u
        case GConst() | GUnit():
            return t
        case GLam(y, ty, b):
            if y == x or (b2 := _subst(b, x, u, fu)) is b:
                return t
            if y in fu:
                ny = freshen(y, fu | g_free_vars(b) | {x})
                b2 = _subst(_subst(b, y, GVar(ny), {ny}), x, u, fu)
                return GLam(ny, ty, b2)
            return GLam(y, ty, b2)
        case GApp(f, a):
            f2, a2 = _subst(f, x, u, fu), _subst(a, x, u, fu)
            return t if f2 is f and a2 is a else GApp(f2, a2)
        case GPair(a, b):
            a2, b2 = _subst(a, x, u, fu), _subst(b, x, u, fu)
            return t if a2 is a and b2 is b else GPair(a2, b2)
        case GProj(i, b):
            b2 = _subst(b, x, u, fu)
            return t if b2 is b else GProj(i, b2)
        case GInj(i, b, ty):
            b2 = _subst(b, x, u, fu)
            return t if b2 is b else GInj(i, b2, ty)
        case GCase(s, y, l, r):
            s2 = _subst(s, x, u, fu)
            l2, r2 = (l, r) if y == x else (_subst(l, x, u, fu),
                                             _subst(r, x, u, fu))
            if s2 is s and l2 is l and r2 is r:
                return t
            if y in fu and (l2 is not l or r2 is not r):
                ny = freshen(y, fu | g_free_vars(l) | g_free_vars(r) | {x})
                l2 = _subst(_subst(l, y, GVar(ny), {ny}), x, u, fu)
                r2 = _subst(_subst(r, y, GVar(ny), {ny}), x, u, fu)
                y = ny
            return GCase(s2, y, l2, r2)
    raise InternalError(f"bad term {t!r}")


# ---------- normalization ----------


def _fold_case(t, st):
    """Generalized sum-η (Lindley, "Extensional rewriting with sums", 2007):
    case s (x) C[in1 x] C[in2 x] folds to C[s], where the holes are the
    injections at s's type st, x occurs nowhere else in the branches, and C
    binds neither x nor a free variable of s. One walk takes the two
    branches side by side and fills C with s; it gives None at the first
    place where they differ other than in1 x against in2 x, or where C
    binds a name it may not."""
    x, s = t.var, t.scrut
    hole2 = GInj(2, GVar(x), st)
    banned = g_free_vars(s) | {x}  # the names C may not bind

    def fill(l, r):
        match l, r:
            case GInj(1, GVar(n), ty), _ if n == x and ty == st:
                return s if r == hole2 else None
            case GVar(n), _ if n == x:
                return None
            case GVar() | GConst() | GUnit(), _:
                return l if l == r else None
            case GLam(y, ty, b), GLam(y2, ty2, b2) if y == y2 and ty == ty2:
                if y in banned or (c := fill(b, b2)) is None:
                    return None
                return l if c is b else GLam(y, ty, c)
            case (GApp(f, a), GApp(f2, a2)) | (GPair(f, a), GPair(f2, a2)):
                if (cf := fill(f, f2)) is None or (ca := fill(a, a2)) is None:
                    return None
                return l if cf is f and ca is a else l.__class__(cf, ca)
            case GProj(i, b), GProj(i2, b2) if i == i2:
                if (c := fill(b, b2)) is None:
                    return None
                return l if c is b else GProj(i, c)
            case GInj(i, b, ty), GInj(i2, b2, ty2) if i == i2 and ty == ty2:
                if (c := fill(b, b2)) is None:
                    return None
                return l if c is b else GInj(i, c, ty)
            case GCase(s1, y, l1, r1), GCase(s2, y2, l2, r2) if y == y2:
                if (y in banned or (cs := fill(s1, s2)) is None
                        or (cl := fill(l1, l2)) is None
                        or (cr := fill(r1, r2)) is None):
                    return None
                if cs is s1 and cl is l1 and cr is r1:
                    return l
                return GCase(cs, y, cl, cr)
        return None

    return fill(t.left, t.right)


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


def _normalize(t, ctx, nfs):
    """The normal form of t and its type, built from the types of the normal
    forms of its children. nfs maps the id of each normal form found in
    this normalization to that form and its type; a normal form returns at
    once, and a node whose children are normal returns as it is."""
    found = nfs.get(id(t))
    if found is not None:
        return found
    st = None
    match t:
        case GVar(n):
            out, ty = t, ctx[n]
        case GConst(_, dom):
            out, ty = t, LArr(dom)
        case GUnit():
            out, ty = t, LUNIT
        case GLam(x, xt, b):
            b2 = _normalize(b, {**ctx, x: xt}, nfs)[0]
            out, ty = t if b2 is b else GLam(x, xt, b2), LArr(xt)
        case GApp(f, a):
            f2, a2 = _normalize(f, ctx, nfs)[0], _normalize(a, ctx, nfs)[0]
            out, ty = t if f2 is f and a2 is a else GApp(f2, a2), R
        case GPair(a, b):
            a2, at = _normalize(a, ctx, nfs)
            b2, bt = _normalize(b, ctx, nfs)
            out = t if a2 is a and b2 is b else GPair(a2, b2)
            ty = LProd(at, bt)
        case GProj(i, b):
            b2, pt = _normalize(b, ctx, nfs)
            out = t if b2 is b else GProj(i, b2)
            ty = pt.left if i == 1 else pt.right
        case GInj(i, b, ty):
            b2 = _normalize(b, ctx, nfs)[0]
            out = t if b2 is b else GInj(i, b2, ty)
        case GCase(s, x, l, r):
            s2, st = _normalize(s, ctx, nfs)
            # the bound variable takes each side of the scrutinee's sum
            l2, ty = _normalize(l, {**ctx, x: st.left}, nfs)
            r2 = _normalize(r, {**ctx, x: st.right}, nfs)[0]
            same = s2 is s and l2 is l and r2 is r
            out = t if same else GCase(s2, x, l2, r2)
        case _:
            raise InternalError(f"bad term {t!r}")
    red = _step(out, ty, st)
    if red is not None:
        return _normalize(red, ctx, nfs)
    nfs[id(out)] = out, ty
    return out, ty


def _unshare(t):
    """t rebuilt with a new node for each occurrence of a variable and for
    every node above one."""
    if isinstance(t, (GConst, GUnit)):
        return t
    return t.__class__(*[_unshare(v) if isinstance(v, LamTerm) else v
                         for v in vars(t).values()])


def normalize_lam(t, ctx=None):
    """βη-normal form; constants stay opaque so the result is unique on the
    fixpoint-free fragment. A normal form comes back as the same object.
    The table of normal forms needs each variable node of t to have one
    type wherever it occurs, so a t that shares a node under two binders of
    one name at two types is normalized unshared."""
    ctx = dict(ctx or {})
    seen = {}
    typecheck_lam(t, ctx, seen)  # the one check that t is well typed
    if None in seen.values():
        t = _unshare(t)
    return _normalize(t, ctx, {})[0]
