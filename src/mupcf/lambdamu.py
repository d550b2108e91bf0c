"""Simply typed terms with a recursor, general fixpoints, and named control.

The calculus has nat, an empty type, arrows and products, plus mu-bound
labels: mu a:A. M captures its context at A, [a] M throws M to the label a.
eval_nat runs closed programs on an environment machine with lexically
bound labels. whnf_step is the reference small-step semantics the machine is
tested against: deterministic weak-head reduction by substitution, whose
control rules keep the mu binder and retype it as the surrounding frame is
absorbed. Types and terms print in the surface syntax of FORMAT.md.
"""

from dataclasses import dataclass

from .errors import FuelExhausted, InternalError, UserError


# ---------- types ----------


@dataclass(frozen=True)
class LType:
    pass


@dataclass(frozen=True)
class TNat(LType):
    pass


@dataclass(frozen=True)
class TBot(LType):
    pass


@dataclass(frozen=True)
class TArr(LType):
    left: LType
    right: LType


@dataclass(frozen=True)
class TProd(LType):
    left: LType
    right: LType


NAT = TNat()
TBOT = TBot()


def tarr(*ts):
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = TArr(t, out)
    return out


def t_list(a):
    """Finite sequences over a: a length paired with an accessor."""
    return TProd(NAT, TArr(NAT, a))


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


# ---------- terms ----------


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class LVar(Term):
    name: str


@dataclass(frozen=True)
class Num(Term):
    value: int


@dataclass(frozen=True)
class Prim(Term):
    op: str  # succ | pred | ifz | fix
    ty: LType | None = None  # result type for ifz, fixed type for fix


@dataclass(frozen=True)
class Lam(Term):
    var: str
    ty: LType
    body: Term


@dataclass(frozen=True)
class LApp(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Proj(Term):
    index: int
    body: Term


@dataclass(frozen=True)
class Mu(Term):
    label: str
    ty: LType
    body: Term


@dataclass(frozen=True)
class Named(Term):
    label: str
    body: Term


SUCC_T = Prim("succ")
PRED_T = Prim("pred")


def mk_ifz(a):
    return Prim("ifz", a)


def mk_fix(a):
    return Prim("fix", a)


def lapp(fn, *args):
    out = fn
    for a in args:
        out = LApp(out, a)
    return out


def lams(binders, body):
    out = body
    for name, ty in reversed(binders):
        out = Lam(name, ty, out)
    return out


def term_sexp(t):
    match t:
        case LVar(name):
            return name
        case Num(v):
            return str(v)
        case Prim(op, None):
            return op
        case Prim(op, ty):
            return f"({op} {type_sexp(ty)})"
        case Lam(x, ty, b):
            return f"(lam ({x} {type_sexp(ty)}) {term_sexp(b)})"
        case LApp(f, a):
            return f"(app {term_sexp(f)} {term_sexp(a)})"
        case Pair(a, b):
            return f"(pair {term_sexp(a)} {term_sexp(b)})"
        case Proj(i, b):
            return f"(proj {i} {term_sexp(b)})"
        case Mu(lab, ty, b):
            return f"(mu ({lab} {type_sexp(ty)}) {term_sexp(b)})"
        case Named(lab, b):
            return f"(named {lab} {term_sexp(b)})"
    raise InternalError(f"bad term {t!r}")


# ---------- typing ----------


def prim_type(p):
    match p:
        case Prim("succ" | "pred", None):
            return TArr(NAT, NAT)
        case Prim("ifz", a) if a is not None:
            return tarr(NAT, a, a, a)
        case Prim("fix", a) if a is not None:
            return TArr(TArr(a, a), a)
    raise UserError(f"bad primitive {term_sexp(p)}")


def typecheck(t, env=None, lenv=None):
    """Synthesize the type of t. env types term variables, lenv types labels.
    Raises UserError on ill-typed input."""
    env = env or {}
    lenv = lenv or {}
    match t:
        case LVar(n):
            if n not in env:
                raise UserError(f"unbound variable {n}")
            return env[n]
        case Num(v):
            if v < 0:
                raise UserError("numerals are non-negative")
            return NAT
        case Prim():
            return prim_type(t)
        case Lam(x, ty, b):
            return TArr(ty, typecheck(b, {**env, x: ty}, lenv))
        case LApp(f, a):
            ft = typecheck(f, env, lenv)
            if not isinstance(ft, TArr):
                raise UserError(f"applied non-function {term_sexp(f)}")
            at = typecheck(a, env, lenv)
            if at != ft.left:
                raise UserError(
                    f"argument {term_sexp(a)} : {type_sexp(at)} does not "
                    f"match {type_sexp(ft.left)}")
            return ft.right
        case Pair(a, b):
            return TProd(typecheck(a, env, lenv), typecheck(b, env, lenv))
        case Proj(i, b):
            if i not in (1, 2):
                raise UserError("projection index must be 1 or 2")
            bt = typecheck(b, env, lenv)
            if not isinstance(bt, TProd):
                raise UserError(f"projected non-pair {term_sexp(b)}")
            return bt.left if i == 1 else bt.right
        case Mu(l, ty, b):
            bt = typecheck(b, env, {**lenv, l: ty})
            if bt != TBOT:
                raise UserError("mu body must have the empty type")
            return ty
        case Named(l, b):
            if l not in lenv:
                raise UserError(f"unbound label {l}")
            bt = typecheck(b, env, lenv)
            if bt != lenv[l]:
                raise UserError(
                    f"label {l} expects {type_sexp(lenv[l])}, "
                    f"got {type_sexp(bt)}")
            return TBOT
    raise InternalError(f"bad term {t!r}")


# ---------- variables, labels, substitution ----------


def free_vars(t):
    match t:
        case LVar(n):
            return {n}
        case Num() | Prim():
            return set()
        case Lam(x, _, b):
            return free_vars(b) - {x}
        case LApp(f, a) | Pair(f, a):
            return free_vars(f) | free_vars(a)
        case Proj(_, b) | Named(_, b) | Mu(_, _, b):
            return free_vars(b)
    raise InternalError(f"bad term {t!r}")


def free_labels(t):
    match t:
        case LVar() | Num() | Prim():
            return set()
        case Lam(_, _, b) | Proj(_, b):
            return free_labels(b)
        case LApp(f, a) | Pair(f, a):
            return free_labels(f) | free_labels(a)
        case Mu(l, _, b):
            return free_labels(b) - {l}
        case Named(l, b):
            return free_labels(b) | {l}
    raise InternalError(f"bad term {t!r}")


def freshen(base, avoid):
    """Name-derived freshness: base, base1, base2, ... No global state, so
    equal inputs always reduce to byte-identical outputs."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def subst_var(t, name, repl):
    """Capture-avoiding t[repl / name]."""
    r_fv = free_vars(repl)
    r_fl = free_labels(repl)

    def go(t):
        match t:
            case LVar(n):
                return repl if n == name else t
            case Num() | Prim():
                return t
            case Lam(x, ty, b):
                if x == name:
                    return t
                if x in r_fv:
                    x2 = freshen(x, r_fv | free_vars(b) | {name})
                    b = subst_var(b, x, LVar(x2))
                    x = x2
                return Lam(x, ty, go(b))
            case LApp(f, a):
                return LApp(go(f), go(a))
            case Pair(a, b):
                return Pair(go(a), go(b))
            case Proj(i, b):
                return Proj(i, go(b))
            case Mu(l, ty, b):
                if l in r_fl:
                    l2 = freshen(l, r_fl | free_labels(b))
                    b = rename_label(b, l, l2)
                    l = l2
                return Mu(l, ty, go(b))
            case Named(l, b):
                return Named(l, go(b))
        raise InternalError(f"bad term {t!r}")

    return go(t)


def rename_label(t, old, new):
    match t:
        case LVar() | Num() | Prim():
            return t
        case Lam(x, ty, b):
            return Lam(x, ty, rename_label(b, old, new))
        case LApp(f, a):
            return LApp(rename_label(f, old, new), rename_label(a, old, new))
        case Pair(a, b):
            return Pair(rename_label(a, old, new), rename_label(b, old, new))
        case Proj(i, b):
            return Proj(i, rename_label(b, old, new))
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
    raise InternalError(f"bad term {t!r}")


def retarget(t, old, new, wrap, pay_fv, pay_fl):
    """Rewrite every naming [old] M into [new] wrap(M), recursing into M
    first. wrap re-applies the absorbed frame, whose payload has free
    variables pay_fv and free labels pay_fl; binders on the way down are
    freshened against those to avoid capture."""

    def go(t):
        match t:
            case LVar() | Num() | Prim():
                return t
            case Lam(x, ty, b):
                if x in pay_fv:
                    x2 = freshen(x, pay_fv | free_vars(b))
                    b = subst_var(b, x, LVar(x2))
                    x = x2
                return Lam(x, ty, go(b))
            case LApp(f, a):
                return LApp(go(f), go(a))
            case Pair(a, b):
                return Pair(go(a), go(b))
            case Proj(i, b):
                return Proj(i, go(b))
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
                return Named(l, go(b))
        raise InternalError(f"bad term {t!r}")

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
        case LVar() | Num() | Prim():
            return t
        case Lam(x, ty, b):
            return Lam(x, ty, _strip_names(b, label))
        case LApp(f, a):
            return LApp(_strip_names(f, label), _strip_names(a, label))
        case Pair(a, b):
            return Pair(_strip_names(a, label), _strip_names(b, label))
        case Proj(i, b):
            return Proj(i, _strip_names(b, label))
        case Mu(l, ty, b):
            if l == label:
                return t
            return Mu(l, ty, _strip_names(b, label))
        case Named(l, b):
            b = _strip_names(b, label)
            return b if l == label else Named(l, b)
    raise InternalError(f"bad term {t!r}")


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


# ---------- evaluation ----------

# eval_nat runs a Krivine-style environment machine (Krivine, "A call-by-name
# lambda-calculus machine", 2007) with the control rules of de Groote's
# machine for the lambda-mu-calculus (1998). Nothing is substituted: a state
# is a term, the environment its free names are looked up in, and a stack.
#
# An environment is an immutable chain of (name, payload, env, parent)
# nodes. A variable node binds the closure (payload, env); a label node binds
# the captured stack payload and has env _LABEL. Lookup walks outwards from
# the innermost binder, so variables and labels are both lexically scoped.
#
# A stack is an immutable chain of strict frames, each a tuple whose last
# field is the rest of the stack:
#   (_ARG, term, env, rest)               apply to the closure (term, env)
#   (_SUCC, rest), (_PRED, rest)          successor, predecessor
#   (_IFZ, then, env, else, env, rest)    branch on a numeral
#   (_PROJ, i, rest)                      project from a pair
# The stack of the whole run is None; a numeral reaching it is the answer.
# The body of a mu runs on _VOID, an empty stack nothing can return to.

_ARG, _SUCC, _PRED, _IFZ, _PROJ = range(5)
_LABEL = object()
_VOID = (None,)


def _stuck(t):
    return InternalError(f"evaluation stuck at {term_sexp(t)}")


def eval_nat(t, fuel):
    """Reduce a closed nat-typed term to a numeral by call-by-name evaluation.
    Returns (value, steps), where steps counts machine transitions. Raises
    FuelExhausted past the step budget, InternalError when stuck."""
    env = stack = None
    steps = 0
    while True:
        cls = t.__class__
        if cls is Num and stack is None:
            return t.value, steps
        if steps >= fuel:
            raise FuelExhausted(f"no numeral after {fuel} steps", steps)
        steps += 1
        if cls is LApp:
            stack = (_ARG, t.arg, env, stack)
            t = t.fn
        elif cls is LVar:
            name, e = t.name, env
            while e is not None and (e[0] != name or e[2] is _LABEL):
                e = e[3]
            if e is None:
                raise InternalError(f"unbound variable {name}")
            t, env = e[1], e[2]
        elif cls is Lam:
            if stack is None or stack[0] != _ARG:
                raise _stuck(t)
            env = (t.var, stack[1], stack[2], env)
            stack = stack[3]
            t = t.body
        elif cls is Num:
            tag = stack[0]
            if tag == _SUCC:
                t = Num(t.value + 1)
            elif tag == _PRED:
                t = Num(t.value - 1) if t.value else t
            elif tag == _IFZ:
                t, env = (stack[1], stack[2]) if t.value == 0 \
                    else (stack[3], stack[4])
            else:
                raise _stuck(t)
            stack = stack[-1]
        elif cls is Prim:
            # every primitive waits for its arguments on the stack
            args = []
            s = stack
            while len(args) < (3 if t.op == "ifz" else 1):
                if s is None or s[0] != _ARG:
                    raise _stuck(t)
                args.append(s)
                s = s[3]
            m, env = args[0][1], args[0][2]
            if t.op == "fix":
                # fix m: enter m with the unfolding fix m as its argument
                stack = (_ARG, LApp(t, m), env, s)
            elif t.op == "ifz":
                stack = (_IFZ, args[1][1], args[1][2], args[2][1],
                         args[2][2], s)
            else:
                stack = (_SUCC if t.op == "succ" else _PRED, s)
            t = m
        elif cls is Mu:
            env = (t.label, stack, _LABEL, env)
            stack = _VOID
            t = t.body
        elif cls is Named:
            name, e = t.label, env
            while e is not None and (e[0] != name or e[2] is not _LABEL):
                e = e[3]
            if e is None:
                raise InternalError(f"unbound label {name}")
            stack = e[1]
            t = t.body
        elif cls is Proj:
            stack = (_PROJ, t.index, stack)
            t = t.body
        elif cls is Pair:
            if stack is None or stack[0] != _PROJ:
                raise _stuck(t)
            t = t.left if stack[1] == 1 else t.right
            stack = stack[2]
        else:
            raise InternalError(f"bad term {t!r}")


# ---------- standard programs ----------


def mk_rec(a):
    """Primitive recursor at result type a, from the fixpoint."""
    fb = tarr(NAT, a)
    d = LVar("d")
    return lams(
        [("a", a), ("b", tarr(NAT, a, a))],
        LApp(mk_fix(fb),
             Lam("c", fb,
                 Lam("d", NAT,
                     lapp(mk_ifz(a), d,
                          LVar("a"),
                          lapp(LVar("b"), LApp(PRED_T, d),
                               LApp(LVar("c"), LApp(PRED_T, d))))))))


def mk_omega(a):
    return LApp(mk_fix(a), Lam("x", a, LVar("x")))


def mk_nil(a):
    return Pair(Num(0), Lam("n", NAT, mk_omega(a)))


def mk_len(a):
    return Lam("s", t_list(a), Proj(1, LVar("s")))


def mk_ind(a):
    return lams([("s", t_list(a)), ("n", NAT)],
                LApp(Proj(2, LVar("s")), LVar("n")))


def mk_sub():
    """sub m n: the numeral m - n, truncated at zero."""
    ty = tarr(NAT, NAT, NAT)
    m, n, f = LVar("m"), LVar("n"), LVar("f")
    body = lams(
        [("m", NAT), ("n", NAT)],
        lapp(mk_ifz(NAT), n, m,
             lapp(f, LApp(PRED_T, m), LApp(PRED_T, n))))
    return LApp(mk_fix(ty), Lam("f", ty, body))


def mk_ife(a):
    """ife m n x y: x when the numerals m and n are equal, else y."""
    ty = tarr(NAT, NAT, a, a, a)
    m, n, x, y = LVar("m"), LVar("n"), LVar("x"), LVar("y")
    f = LVar("f")
    body = lams(
        [("m", NAT), ("n", NAT), ("x", a), ("y", a)],
        lapp(mk_ifz(a), m,
             lapp(mk_ifz(a), n, x, y),
             lapp(mk_ifz(a), n, y,
                  lapp(f, LApp(PRED_T, m), LApp(PRED_T, n), x, y))))
    return LApp(mk_fix(ty), Lam("f", ty, body))


def mk_ifl(a):
    """ifl m n x y: x when m < n, else y."""
    ty = tarr(NAT, NAT, a, a, a)
    m, n, x, y = LVar("m"), LVar("n"), LVar("x"), LVar("y")
    f = LVar("f")
    body = lams(
        [("m", NAT), ("n", NAT), ("x", a), ("y", a)],
        lapp(mk_ifz(a), n, y,
             lapp(mk_ifz(a), m, x,
                  lapp(f, LApp(PRED_T, m), LApp(PRED_T, n), x, y))))
    return LApp(mk_fix(ty), Lam("f", ty, body))


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


def mk_barrec(a, b):
    """Bar recursion: d picks the next element from the sequence so far and
    the continuation, e consumes a completed infinite sequence."""
    d_ty = tarr(t_list(a), TArr(a, b), a)
    e_ty = TArr(tarr(NAT, a), b)
    c_ty = TArr(t_list(a), b)
    d, e, c, s, x = LVar("d"), LVar("e"), LVar("c"), LVar("s"), LVar("x")
    pick = lapp(d, s, Lam("x", a, LApp(c, lapp(mk_extend(a), s, x))))
    loop = Lam("c", c_ty, Lam("s", t_list(a),
                              LApp(e, lapp(mk_concat(a), s, pick))))
    return lams([("d", d_ty), ("e", e_ty)], LApp(mk_fix(c_ty), loop))


def zero_term(a):
    """Default inhabitant at the types realizability predicates land in."""
    match a:
        case TNat():
            return Num(0)
        case TArr(left, right):
            return Lam("u", left, zero_term(right))
        case TProd(left, right):
            return Pair(zero_term(left), zero_term(right))
    raise InternalError(f"no default inhabitant at {type_sexp(a)}")
