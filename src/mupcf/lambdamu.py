"""Simply typed terms with a recursor, general fixpoints, and named control.

The calculus has nat, an empty type, arrows and products, plus mu-bound
labels: mu a:A. M captures its context at A, [a] M throws M to the label a.
eval_nat runs closed programs on an environment machine with lexically
bound labels; the tests check it against a reference small-step semantics
by substitution (tests/reference.py). Types and terms print in the surface
syntax of FORMAT.md.
"""

from dataclasses import dataclass, fields

from .errors import FuelExhausted, InternalError, UserError


class Node:
    """Base of every syntax tree: a subclass declares its fields only.

    Each subclass becomes a dataclass with a plain __init__ and
    __match_args__, and gets the __eq__ and __hash__ a frozen dataclass would
    generate: equal when the classes are the same and the field tuples are
    equal, hashed as the field tuple. Nodes are immutable by convention:
    no code assigns a field after __init__.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # else dataclass builds a __doc__ with inspect.signature, at import
        cls.__doc__ = cls.__doc__ or cls.__name__
        dataclass(cls, eq=False, repr=False)
        names = [f.name for f in fields(cls)]
        mine = "".join(f"self.{n}," for n in names)
        theirs = "".join(f"other.{n}," for n in names)
        ns = {}
        exec("def __eq__(self, other):\n"
             "    if other.__class__ is self.__class__:\n"
             f"        return ({mine}) == ({theirs})\n"
             "    return NotImplemented\n"
             f"def __hash__(self):\n    return hash(({mine}))\n", ns)
        cls.__eq__ = ns["__eq__"]
        cls.__hash__ = ns["__hash__"]

    def __repr__(self):
        args = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                         for f in fields(self))
        return f"{self.__class__.__qualname__}({args})"


# ---------- types ----------


class LType(Node):
    pass


class TNat(LType):
    pass


class TBot(LType):
    pass


class TArr(LType):
    left: LType
    right: LType


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


class Term(Node):
    pass


class LVar(Term):
    name: str


class Num(Term):
    value: int


class Prim(Term):
    op: str  # succ | pred | ifz | fix
    ty: LType | None = None  # result type for ifz, fixed type for fix


class Lam(Term):
    var: str
    ty: LType
    body: Term


class LApp(Term):
    fn: Term
    arg: Term


class Pair(Term):
    left: Term
    right: Term


class Proj(Term):
    index: int
    body: Term


class Mu(Term):
    label: str
    ty: LType
    body: Term


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


# ---------- typing ----------


def prim_type(p):
    op, a = p.op, p.ty
    if a is None:
        if op == "succ" or op == "pred":
            return TArr(NAT, NAT)
    elif op == "ifz":
        return tarr(NAT, a, a, a)
    elif op == "fix":
        return TArr(TArr(a, a), a)
    raise UserError(f"bad primitive {term_sexp(p)}")


def typecheck(t, env=None, lenv=None):
    """Synthesize the type of t. env types term variables, lenv types labels.
    Raises UserError on ill-typed input."""
    return _typecheck(t, {} if env is None else env,
                      {} if lenv is None else lenv)


def _typecheck(t, env, lenv):
    cls = t.__class__
    if cls is LApp:
        f, a = t.fn, t.arg
        ft = _typecheck(f, env, lenv)
        if ft.__class__ is not TArr:
            raise UserError(f"applied non-function {term_sexp(f)}")
        at = _typecheck(a, env, lenv)
        if at != ft.left:
            raise UserError(
                f"argument {term_sexp(a)} : {type_sexp(at)} does not "
                f"match {type_sexp(ft.left)}")
        return ft.right
    if cls is LVar:
        n = t.name
        if n not in env:
            raise UserError(f"unbound variable {n}")
        return env[n]
    if cls is Lam:
        ty = t.ty
        return TArr(ty, _typecheck(t.body, {**env, t.var: ty}, lenv))
    if cls is Prim:
        return prim_type(t)
    if cls is Num:
        if t.value < 0:
            raise UserError("numerals are non-negative")
        return NAT
    if cls is Pair:
        return TProd(_typecheck(t.left, env, lenv),
                     _typecheck(t.right, env, lenv))
    if cls is Proj:
        i, b = t.index, t.body
        if i not in (1, 2):
            raise UserError("projection index must be 1 or 2")
        bt = _typecheck(b, env, lenv)
        if bt.__class__ is not TProd:
            raise UserError(f"projected non-pair {term_sexp(b)}")
        return bt.left if i == 1 else bt.right
    if cls is Mu:
        ty = t.ty
        bt = _typecheck(t.body, env, {**lenv, t.label: ty})
        if bt != TBOT:
            raise UserError("mu body must have the empty type")
        return ty
    if cls is Named:
        l = t.label
        if l not in lenv:
            raise UserError(f"unbound label {l}")
        bt = _typecheck(t.body, env, lenv)
        if bt != lenv[l]:
            raise UserError(
                f"label {l} expects {type_sexp(lenv[l])}, "
                f"got {type_sexp(bt)}")
        return TBOT
    raise InternalError(f"bad term {t!r}")


# ---------- names ----------


def freshen(base, avoid):
    """Name-derived freshness: base, base1, base2, ... No global state, so
    equal inputs always reduce to byte-identical outputs."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


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
