"""Executable specifications the library is tested against.

whnf_step is the reference small-step semantics of the lambda-mu terms of
mupcf.lambdamu: deterministic weak-head reduction by substitution, with the
control rules of de Groote's lambda-mu machine (1998), which keep the mu
binder and retype it as the surrounding frame is absorbed. eval_nat, the
environment machine, is checked against it.

g_alpha_eq compares target terms of mupcf.cps up to the names of their
binders.
"""

from mupcf.cps import GApp, GCase, GConst, GInj, GLam, GPair, GProj, GUnit, GVar
from mupcf.errors import InternalError
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, Pair, Prim, Proj, TArr, TBot, TProd,
    free_vars, freshen, lapp,
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
