"""Multisorted classical first-order logic over arithmetic in finite types.

Syntax (sorts, individuals, formulas) and its printers in the surface syntax
of FORMAT.md, sequents with named hypotheses and named right-hand labels, the
polarity grammars, built-in theories, and the proof checker.

Connective inventory is deliberately small: bot, implication, conjunction,
universal quantification, and two atom families (inequality at every sort,
negative; a unary realizability predicate at the base sort, positive).
Negation, disjunction, existentials and equality are derived and never stored.
"""

from dataclasses import dataclass, field

from .errors import InternalError, UserError
from .lambdamu import freshen

# ---------- sorts ----------


@dataclass(frozen=True)
class Sort:
    pass


@dataclass(frozen=True)
class BaseSort(Sort):
    name: str


@dataclass(frozen=True)
class SArrow(Sort):
    left: Sort
    right: Sort


IOTA = BaseSort("iota")


def arrow(*sorts):
    """Right-associated arrow sort: arrow(a, b, c) = a -> (b -> c)."""
    if not sorts:
        raise InternalError("arrow needs at least one sort")
    out = sorts[-1]
    for s in reversed(sorts[:-1]):
        out = SArrow(s, out)
    return out


def sort_sexp(s):
    match s:
        case BaseSort(name):
            return name
        case SArrow(a, b):
            return f"(-> {sort_sexp(a)} {sort_sexp(b)})"
    raise InternalError(f"bad sort {s!r}")


# ---------- individuals ----------


@dataclass(frozen=True)
class Individual:
    pass


@dataclass(frozen=True)
class IVar(Individual):
    name: str
    sort: Sort


@dataclass(frozen=True)
class IConst(Individual):
    name: str
    sort_args: tuple = ()


@dataclass(frozen=True)
class IApp(Individual):
    fn: Individual
    arg: Individual


def iapp(fn, *args):
    out = fn
    for a in args:
        out = IApp(out, a)
    return out


ZERO = IConst("0")
SUCC = IConst("S")
_SUCC_SORT = SArrow(IOTA, IOTA)


def const_sort(c):
    """Sort of a constant instance; combinator families carry sort arguments."""
    match c:
        case IConst("0", ()):
            return IOTA
        case IConst("S", ()):
            return _SUCC_SORT
        case IConst("k", (a, b)):
            return arrow(a, b, a)
        case IConst("s", (a, b, c)):
            return arrow(arrow(a, b, c), arrow(a, b), a, c)
        case IConst("rec", (a,)):
            return arrow(a, arrow(IOTA, a, a), IOTA, a)
    raise UserError(f"unknown constant {ind_sexp(c)}")


def infer_sort(t, env=None):
    """Sort of an individual. env maps free-variable names to sorts and is
    cross-checked when present; the inline sort on IVar is authoritative."""
    match t:
        case IVar(name, sort):
            if env is not None and name in env and env[name] != sort:
                raise UserError(
                    f"variable {name} used at {sort_sexp(sort)} but declared "
                    f"at {sort_sexp(env[name])}"
                )
            return sort
        case IConst():
            return const_sort(t)
        case IApp(fn, arg):
            fs = infer_sort(fn, env)
            if not isinstance(fs, SArrow):
                raise UserError(
                    f"applied non-function individual {ind_sexp(fn)}")
            ags = infer_sort(arg, env)
            if ags != fs.left:
                raise UserError(
                    f"sort mismatch: {ind_sexp(fn)} expects "
                    f"{sort_sexp(fs.left)}, got {ind_sexp(arg)} : "
                    f"{sort_sexp(ags)}"
                )
            return fs.right
    raise InternalError(f"bad individual {t!r}")


def ind_free_vars(t):
    match t:
        case IVar(name, sort):
            return {name: sort}
        case IConst():
            return {}
        case IApp(fn, arg):
            out = ind_free_vars(fn)
            for n, s in ind_free_vars(arg).items():
                if n in out and out[n] != s:
                    raise UserError(f"variable {n} used at two sorts")
                out[n] = s
            return out
    raise InternalError(f"bad individual {t!r}")


def ind_subst(t, mapping):
    """Simultaneous substitution of individuals for variable names."""
    match t:
        case IVar(name, _):
            return mapping.get(name, t)
        case IConst():
            return t
        case IApp(fn, arg):
            fn2, arg2 = ind_subst(fn, mapping), ind_subst(arg, mapping)
            if fn2 is fn and arg2 is arg:
                return t
            return IApp(fn2, arg2)
    raise InternalError(f"bad individual {t!r}")


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


def zero_ind(sort):
    """Canonical closed inhabitant of a sort: 0 at base, k-padded otherwise."""
    match sort:
        case BaseSort():
            return ZERO
        case SArrow(a, b):
            return IApp(IConst("k", (b, a)), zero_ind(b))
    raise InternalError(f"bad sort {sort!r}")


# ---------- formulas ----------


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sort: Sort
    body: Formula


BOT = Bot()

# predicate name -> (polarity, arity); inequality is sort-generic, rel is at iota
PREDICATES = {"neq": ("negative", 2), "rel": ("positive", 1)}


def f_not(a):
    return Imp(a, BOT)


def f_eq(t, u):
    return Imp(Atom("neq", (t, u)), BOT)


def f_neq(t, u):
    return Atom("neq", (t, u))


def f_rel(t):
    return Atom("rel", (t,))


def f_or(a, b):
    return f_not(And(f_not(a), f_not(b)))


def f_exists(x, sort, a):
    return f_not(Forall(x, sort, f_not(a)))


def f_imps(*fs):
    out = fs[-1]
    for f in reversed(fs[:-1]):
        out = Imp(f, out)
    return out


def closure(params, body):
    """Universal closure over (name, sort) pairs, outermost first."""
    out = body
    for name, sort in reversed(params):
        out = Forall(name, sort, out)
    return out


def fv_formula(f):
    """Free variables, name -> sort, in first-occurrence order (dicts keep
    insertion order; scheme closures rely on this)."""
    out = {}

    def go(f, bound):
        match f:
            case Bot():
                pass
            case Atom(_, args):
                for t in args:
                    for n, s in ind_free_vars(t).items():
                        if n in bound:
                            continue
                        if n in out and out[n] != s:
                            raise UserError(f"variable {n} used at two sorts")
                        out.setdefault(n, s)
            case Imp(a, b) | And(a, b):
                go(a, bound)
                go(b, bound)
            case Forall(x, _, body):
                go(body, bound | {x})
            case _:
                raise InternalError(f"bad formula {f!r}")

    go(f, frozenset())
    return out


def subst_formula(f, mapping):
    """Capture-avoiding substitution of individuals for free variable names."""
    if not mapping:
        return f
    match f:
        case Bot():
            return f
        case Atom(p, args):
            return Atom(p, tuple([ind_subst(t, mapping) for t in args]))
        case Imp(a, b):
            return Imp(subst_formula(a, mapping), subst_formula(b, mapping))
        case And(a, b):
            return And(subst_formula(a, mapping), subst_formula(b, mapping))
        case Forall(x, sort, body):
            if x in mapping:
                mapping = {n: t for n, t in mapping.items() if n != x}
                if not mapping:
                    return f
            clash = set()
            for t in mapping.values():
                clash |= ind_free_vars(t).keys()
            if x in clash:
                avoid = clash | fv_formula(body).keys() | set(mapping)
                x2 = freshen(x, avoid)
                body = subst_formula(body, {x: IVar(x2, sort)})
                x = x2
            return Forall(x, sort, subst_formula(body, mapping))
    raise InternalError(f"bad formula {f!r}")


def alpha_eq(f, g):
    """Alpha equivalence of formulas (individuals compare structurally)."""
    if f == g:
        return True

    def go(f, g, fb, gb):
        match f, g:
            case Bot(), Bot():
                return True
            case Atom(p1, a1), Atom(p2, a2):
                if p1 != p2 or len(a1) != len(a2):
                    return False
                return all(ind_eq(t, u, fb, gb) for t, u in zip(a1, a2))
            case Imp(a1, b1), Imp(a2, b2):
                return go(a1, a2, fb, gb) and go(b1, b2, fb, gb)
            case And(a1, b1), And(a2, b2):
                return go(a1, a2, fb, gb) and go(b1, b2, fb, gb)
            case Forall(x1, s1, b1), Forall(x2, s2, b2):
                if s1 != s2:
                    return False
                lvl = len(fb)
                return go(b1, b2, {**fb, x1: lvl}, {**gb, x2: lvl})
        return False

    def ind_eq(t, u, fb, gb):
        match t, u:
            case IVar(n1, s1), IVar(n2, s2):
                if s1 != s2:
                    return False
                d1, d2 = fb.get(n1), gb.get(n2)
                if d1 is None and d2 is None:
                    return n1 == n2
                return d1 == d2
            case IConst(), IConst():
                return t == u
            case IApp(f1, a1), IApp(f2, a2):
                return ind_eq(f1, f2, fb, gb) and ind_eq(a1, a2, fb, gb)
        return False

    return go(f, g, {}, {})


def wf_formula(f, has_rel, env=None):
    """Check predicate signatures and sort consistency; raises UserError.
    Returns the free variables, as fv_formula does."""
    env = dict(env) if env else {}

    def go(f, env):
        match f:
            case Bot():
                pass
            case Atom(p, args):
                if p not in PREDICATES:
                    raise UserError(f"unknown predicate {p}")
                if p == "rel" and not has_rel:
                    raise UserError("rel atom outside a relativized signature")
                _, arity = PREDICATES[p]
                if len(args) != arity:
                    raise UserError(f"{p} expects {arity} argument(s)")
                sorts = [infer_sort(t, env) for t in args]
                if p == "neq" and sorts[0] != sorts[1]:
                    raise UserError("inequality between different sorts")
                if p == "rel" and sorts[0] != IOTA:
                    raise UserError("rel atom takes a base-sort individual")
            case Imp(a, b) | And(a, b):
                go(a, env)
                go(b, env)
            case Forall(x, sort, body):
                go(body, {**env, x: sort})
            case _:
                raise InternalError(f"bad formula {f!r}")

    fv = fv_formula(f)  # rejects one name at two sorts among frees
    go(f, env)
    return fv


def polarity(f):
    """'negative', 'positive', or 'both' per the two polarity grammars."""

    def neg(f):
        match f:
            case Bot():
                return True
            case Atom(p, _):
                return PREDICATES[p][0] == "negative"
            case Imp(_, b):
                return neg(b)
            case And(a, b):
                return neg(a) and neg(b)
            case Forall(_, _, b):
                return neg(b)
        raise InternalError(f"bad formula {f!r}")

    def pos(f):
        match f:
            case Bot():
                return False
            case Atom(p, _):
                return PREDICATES[p][0] == "positive"
            case Imp(_, b):
                return pos(b)
            case And(a, b):
                return pos(a) or pos(b)
            case Forall(_, _, b):
                return pos(b)
        raise InternalError(f"bad formula {f!r}")

    n, p = neg(f), pos(f)
    if n and p:
        return "both"
    if n:
        return "negative"
    if p:
        return "positive"
    raise InternalError("formula in neither polarity class")


def rel_pred(t, sort):
    """Realizability predicate at a sort: atomic at iota, at arrow sorts the
    pointwise closure forall x (r(x) -> r(t x))."""
    match sort:
        case BaseSort():
            return f_rel(t)
        case SArrow(a, b):
            avoid = set(ind_free_vars(t))
            x = freshen("v", avoid)
            xv = IVar(x, a)
            return Forall(x, a, Imp(rel_pred(xv, a), rel_pred(IApp(t, xv), b)))
    raise InternalError(f"bad sort {sort!r}")


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


# ---------- sequents and proofs ----------

KAPPA = "kappa"  # reserved output channel label


@dataclass(frozen=True)
class Sequent:
    """hyps |- concl | labels. Hypotheses and labels are name-keyed; every
    label formula must be negative (or satisfy both grammars)."""

    hyps: tuple = ()
    concl: Formula = BOT
    labels: tuple = ()


@dataclass(frozen=True)
class Proof:
    pass


@dataclass(frozen=True)
class Id(Proof):
    hyp: str


@dataclass(frozen=True)
class Ax(Proof):
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class ImpIntro(Proof):
    hyp: str
    formula: Formula
    body: Proof


@dataclass(frozen=True)
class ImpElim(Proof):
    fn: Proof
    arg: Proof


@dataclass(frozen=True)
class AndIntro(Proof):
    left: Proof
    right: Proof


@dataclass(frozen=True)
class AndElim(Proof):
    index: int
    body: Proof


@dataclass(frozen=True)
class ForallIntro(Proof):
    var: str
    sort: Sort
    body: Proof


@dataclass(frozen=True)
class ForallElim(Proof):
    body: Proof
    term: Individual


@dataclass(frozen=True)
class BotIntro(Proof):
    label: str
    body: Proof


@dataclass(frozen=True)
class BotElim(Proof):
    label: str
    formula: Formula
    body: Proof


def impelims(fn, *args):
    out = fn
    for a in args:
        out = ImpElim(out, a)
    return out


def forallelims(body, *terms):
    out = body
    for t in terms:
        out = ForallElim(out, t)
    return out


def collect_names(p):
    """Every hypothesis, label, and eigenvariable name in a proof tree."""
    out = set()

    def go(p):
        match p:
            case Id(h):
                out.add(h)
            case Ax():
                pass
            case ImpIntro(h, _, b):
                out.add(h)
                go(b)
            case ImpElim(f, a) | AndIntro(f, a):
                go(f)
                go(a)
            case AndElim(_, b) | ForallElim(b, _):
                go(b)
            case ForallIntro(x, _, b):
                out.add(x)
                go(b)
            case BotIntro(l, b):
                out.add(l)
                go(b)
            case BotElim(l, _, b):
                out.add(l)
                go(b)
            case _:
                raise InternalError(f"bad proof node {p!r}")

    go(p)
    return out


# ---------- theories ----------


@dataclass
class Theory:
    name: str
    has_rel: bool
    schemes: dict = field(default_factory=dict)

    def instantiate(self, ax_name, args):
        """Closed axiom instance; validates scheme arguments."""
        fn = self.schemes.get(ax_name)
        if fn is None:
            raise UserError(f"theory {self.name} has no axiom {ax_name}")
        f = fn(self, args)
        if wf_formula(f, self.has_rel):
            raise InternalError(f"axiom instance of {ax_name} not closed")
        return f


def _need(cond, msg):
    if not cond:
        raise UserError(msg)


def _args_sorts(args, n, name):
    _need(len(args) == n and all(isinstance(a, Sort) for a in args),
          f"axiom {name} takes {n} sort argument(s)")
    return args


def _scheme_params(a, excluded):
    return [(n, s) for n, s in fv_formula(a).items() if n not in excluded]


def _ax_refl(_th, args):
    (s,) = _args_sorts(args, 1, "refl")
    x = IVar("x", s)
    return Forall("x", s, f_eq(x, x))


def _ax_leib(th, args):
    _need(len(args) == 3, "axiom leib takes a formula and two variables")
    a, x, y = args
    _need(isinstance(a, Formula) and isinstance(x, IVar) and isinstance(y, IVar),
          "axiom leib takes a formula and two variables")
    fv = wf_formula(a, th.has_rel)
    _need(x.sort == y.sort, "leib variables must share a sort")
    _need(y.name not in fv and y.name != x.name, "leib replacement variable must be fresh")
    _need(fv.get(x.name, x.sort) == x.sort, "leib variable sort mismatch")
    params = _scheme_params(a, {x.name})
    _need(all(n != y.name for n, _ in params), "leib replacement variable must be fresh")
    body = f_imps(f_not(a), subst_formula(a, {x.name: y}), f_neq(x, y))
    return closure(params + [(x.name, x.sort), (y.name, y.sort)], body)


def _ax_sneq0_plain(_th, args):
    _need(len(args) == 0, "axiom s-neq-0 takes no arguments")
    x = IVar("x", IOTA)
    return Forall("x", IOTA, f_neq(IApp(SUCC, x), ZERO))


def _ax_sneq0_rel(_th, args):
    _need(len(args) == 0, "axiom s-neq-0 takes no arguments")
    x = IVar("x", IOTA)
    return Forall("x", IOTA, Imp(f_rel(x), f_neq(IApp(SUCC, x), ZERO)))


def _ind_parts(th, args):
    _need(len(args) == 2, "axiom ind takes a formula and a variable")
    a, x = args
    _need(isinstance(a, Formula) and isinstance(x, IVar),
          "axiom ind takes a formula and a variable")
    _need(x.sort == IOTA, "induction variable must be base-sorted")
    fv = wf_formula(a, th.has_rel)
    _need(fv.get(x.name, IOTA) == IOTA, "induction variable sort mismatch")
    base = subst_formula(a, {x.name: ZERO})
    step_concl = subst_formula(a, {x.name: IApp(SUCC, x)})
    params = _scheme_params(a, {x.name})
    return a, x, base, step_concl, params


def _ax_ind_plain(th, args):
    a, x, base, step_concl, params = _ind_parts(th, args)
    step = Forall(x.name, IOTA, Imp(a, step_concl))
    return closure(params, f_imps(base, step, Forall(x.name, IOTA, a)))


def _ax_ind_rel(th, args):
    a, x, base, step_concl, params = _ind_parts(th, args)
    step = Forall(x.name, IOTA, Imp(f_rel(x), Imp(a, step_concl)))
    concl = Forall(x.name, IOTA, Imp(f_rel(x), a))
    return closure(params, f_imps(base, step, concl))


def _ax_def_s(_th, args):
    a, b, c = _args_sorts(args, 3, "def-s")
    x = IVar("x", arrow(a, b, c))
    y = IVar("y", arrow(a, b))
    z = IVar("z", a)
    lhs = iapp(IConst("s", (a, b, c)), x, y, z)
    rhs = IApp(IApp(x, z), IApp(y, z))
    return closure([("x", x.sort), ("y", y.sort), ("z", a)], f_eq(lhs, rhs))


def _ax_def_k(_th, args):
    a, b = _args_sorts(args, 2, "def-k")
    x, y = IVar("x", a), IVar("y", b)
    return closure([("x", a), ("y", b)], f_eq(iapp(IConst("k", (a, b)), x, y), x))


def _ax_def_rec0(_th, args):
    (a,) = _args_sorts(args, 1, "def-rec-0")
    x = IVar("x", a)
    y = IVar("y", arrow(IOTA, a, a))
    lhs = iapp(IConst("rec", (a,)), x, y, ZERO)
    return closure([("x", a), ("y", y.sort)], f_eq(lhs, x))


def _ax_def_recs(_th, args):
    (a,) = _args_sorts(args, 1, "def-rec-s")
    x = IVar("x", a)
    y = IVar("y", arrow(IOTA, a, a))
    z = IVar("z", IOTA)
    rec = IConst("rec", (a,))
    lhs = iapp(rec, x, y, IApp(SUCC, z))
    rhs = iapp(y, z, iapp(rec, x, y, z))
    return closure([("x", a), ("y", y.sort), ("z", IOTA)], f_eq(lhs, rhs))


def _ax_rel0(_th, args):
    _need(len(args) == 0, "axiom rel-0 takes no arguments")
    return f_rel(ZERO)


def _ax_rel_succ(_th, args):
    _need(len(args) == 0, "axiom rel-succ takes no arguments")
    x = IVar("x", IOTA)
    return Forall("x", IOTA, Imp(f_rel(x), f_rel(IApp(SUCC, x))))


def _ax_rel_k(_th, args):
    a, b = _args_sorts(args, 2, "rel-k")
    return rel_pred(IConst("k", (a, b)), arrow(a, b, a))


def _ax_rel_s(_th, args):
    a, b, c = _args_sorts(args, 3, "rel-s")
    return rel_pred(IConst("s", (a, b, c)), arrow(arrow(a, b, c), arrow(a, b), a, c))


def _ax_rel_rec(_th, args):
    (a,) = _args_sorts(args, 1, "rel-rec")
    return rel_pred(IConst("rec", (a,)), arrow(a, arrow(IOTA, a, a), IOTA, a))


def _dc_vars(th, args, name):
    _need(len(args) == 4, f"axiom {name} takes a formula and three variables")
    b, x, y, z = args
    _need(isinstance(b, Formula) and all(isinstance(v, IVar) for v in (x, y, z)),
          f"axiom {name} takes a formula and three variables")
    _need(x.sort == IOTA, f"{name}: first variable must be base-sorted")
    _need(y.sort == z.sort, f"{name}: choice variables must share a sort")
    _need(len({x.name, y.name, z.name}) == 3, f"{name}: variables must be distinct")
    fv = wf_formula(b, th.has_rel)
    for v in (x, y, z):
        _need(fv.get(v.name, v.sort) == v.sort, f"{name}: variable sort mismatch")
    params = _scheme_params(b, {x.name, y.name, z.name})
    return b, x, y, z, params


def _ax_dc_plain(th, args):
    b, x, y, z, params = _dc_vars(th, args, "dc")
    sigma = y.sort
    avoid = set(fv_formula(b)) | {n for n, _ in params} | {x.name, y.name, z.name}
    w = IVar(freshen("w", avoid), arrow(IOTA, sigma))
    # forall x forall y exists z B
    p1 = Forall(x.name, IOTA, Forall(y.name, sigma,
                                     f_exists(z.name, sigma, b)))
    step = subst_formula(b, {y.name: IApp(w, x), z.name: IApp(w, IApp(SUCC, x))})
    concl = f_not(Forall(w.name, w.sort, f_not(Forall(x.name, IOTA, step))))
    return closure(params, Imp(p1, concl))


def _ax_dc_rel(th, args):
    a, x, y, z, params = _dc_vars(th, args, "dc")
    sigma = y.sort
    _need(isinstance(a, And) and alpha_eq(a.left, rel_pred(z, sigma)),
          "dc: instance formula must be a conjunction whose first component "
          "is the realizability predicate of the third variable")
    avoid = set(fv_formula(a)) | {n for n, _ in params} | {x.name, y.name, z.name}
    w = IVar(freshen("w", avoid), arrow(IOTA, sigma))
    xp = IVar(freshen("x'", avoid | {w.name}), IOTA)
    diag = subst_formula(a, {x.name: xp, z.name: y})
    arg1 = Forall(
        x.name, IOTA,
        Imp(f_rel(x),
            Forall(y.name, sigma,
                   Imp(rel_pred(y, sigma),
                       Imp(Forall(z.name, sigma, f_not(a)),
                           Forall(xp.name, IOTA, diag))))))
    step = subst_formula(a, {y.name: IApp(w, x), z.name: IApp(w, IApp(SUCC, x))})
    arg2 = Forall(w.name, w.sort,
                  f_not(Forall(x.name, IOTA, Imp(f_rel(x), step))))
    return closure(params, f_imps(arg1, arg2, BOT))


def _mk_theories():
    base = {
        "refl": _ax_refl,
        "leib": _ax_leib,
        "def-s": _ax_def_s,
        "def-k": _ax_def_k,
        "def-rec-0": _ax_def_rec0,
        "def-rec-s": _ax_def_recs,
    }
    paw = Theory("paw", False, {**base, "s-neq-0": _ax_sneq0_plain, "ind": _ax_ind_plain})
    caw = Theory("caw", False, {**paw.schemes, "dc": _ax_dc_plain})
    pawr = Theory("pawr", True, {
        **base,
        "s-neq-0": _ax_sneq0_rel,
        "ind": _ax_ind_rel,
        "rel-0": _ax_rel0,
        "rel-succ": _ax_rel_succ,
        "rel-k": _ax_rel_k,
        "rel-s": _ax_rel_s,
        "rel-rec": _ax_rel_rec,
    })
    cawr = Theory("cawr", True, {**pawr.schemes, "dc": _ax_dc_rel})
    return {"paw": paw, "caw": caw, "pawr": pawr, "cawr": cawr}


THEORIES = _mk_theories()


def relativized_counterpart(theory):
    if theory.name == "paw":
        return THEORIES["pawr"]
    if theory.name == "caw":
        return THEORIES["cawr"]
    raise UserError(f"theory {theory.name} has no relativized counterpart")


# ---------- proof checker ----------


def _check_label_formula(f, has_rel):
    wf_formula(f, has_rel)
    if polarity(f) == "positive":
        raise UserError(
            f"label formula must be negative, got positive: {formula_sexp(f)}")


def check_proof(proof, theory, goal):
    """Check a proof against a goal sequent. Hypotheses may go unused
    (weakening is implicit); eigenvariable conditions are checked against the
    hypotheses and labels a subproof actually uses. Returns the goal sequent.
    """
    gamma, delta = {}, {}
    for name, f in goal.hyps:
        if name in gamma:
            raise UserError(f"duplicate hypothesis name {name}")
        wf_formula(f, theory.has_rel)
        gamma[name] = f
    for name, f in goal.labels:
        if name in delta or name == KAPPA:
            raise UserError(f"bad label name {name}")
        _check_label_formula(f, theory.has_rel)
        delta[name] = f
    wf_formula(goal.concl, theory.has_rel)

    # each distinct axiom instance is built and validated once per check
    concl, _, _ = _check_node(proof, theory, gamma, delta, {})
    if not alpha_eq(concl, goal.concl):
        raise UserError(
            "proof concludes " + formula_sexp(concl)
            + " but the goal is " + formula_sexp(goal.concl))
    return goal


def _check_node(p, theory, gamma, delta, instances):
    """Conclusion of p and the hypotheses and labels it uses. instances maps
    (name, args) to the axiom instances built so far in this check."""
    match p:
        case Id(h):
            if h not in gamma:
                raise UserError(f"unknown hypothesis {h}")
            return gamma[h], {h}, set()
        case Ax(name, args):
            key = (name, args)
            if key not in instances:
                instances[key] = theory.instantiate(name, args)
            return instances[key], set(), set()
        case ImpIntro(h, f, body):
            if h in gamma:
                raise UserError(f"hypothesis name {h} shadows an existing one")
            wf_formula(f, theory.has_rel)
            c, uh, ul = _check_node(body, theory, {**gamma, h: f}, delta,
                                    instances)
            return Imp(f, c), uh - {h}, ul
        case ImpElim(fn, arg):
            cf, uh1, ul1 = _check_node(fn, theory, gamma, delta, instances)
            ca, uh2, ul2 = _check_node(arg, theory, gamma, delta, instances)
            if not isinstance(cf, Imp):
                raise UserError(
                    "implication elimination on " + formula_sexp(cf))
            if not alpha_eq(cf.left, ca):
                raise UserError(
                    "argument proves " + formula_sexp(ca)
                    + " but " + formula_sexp(cf.left) + " is required")
            return cf.right, uh1 | uh2, ul1 | ul2
        case AndIntro(l, r):
            cl, uh1, ul1 = _check_node(l, theory, gamma, delta, instances)
            cr, uh2, ul2 = _check_node(r, theory, gamma, delta, instances)
            return And(cl, cr), uh1 | uh2, ul1 | ul2
        case AndElim(i, body):
            if i not in (1, 2):
                raise UserError("projection index must be 1 or 2")
            c, uh, ul = _check_node(body, theory, gamma, delta, instances)
            if not isinstance(c, And):
                raise UserError(
                    "conjunction elimination on " + formula_sexp(c))
            return (c.left if i == 1 else c.right), uh, ul
        case ForallIntro(x, sort, body):
            c, uh, ul = _check_node(body, theory, gamma, delta, instances)
            for h in uh:
                if x in fv_formula(gamma[h]):
                    raise UserError(
                        f"eigenvariable {x} is free in used hypothesis {h}")
            for l in ul:
                if x in fv_formula(delta[l]):
                    raise UserError(
                        f"eigenvariable {x} is free in used label {l}")
            f = Forall(x, sort, c)
            wf_formula(f, theory.has_rel)
            return f, uh, ul
        case ForallElim(body, t):
            c, uh, ul = _check_node(body, theory, gamma, delta, instances)
            if not isinstance(c, Forall):
                raise UserError("quantifier elimination on " + formula_sexp(c))
            ts = infer_sort(t)
            if ts != c.sort:
                raise UserError(
                    f"instantiating a {sort_sexp(c.sort)} quantifier with "
                    f"{ind_sexp(t)} : {sort_sexp(ts)}")
            return subst_formula(c.body, {c.var: t}), uh, ul
        case BotIntro(label, body):
            if label not in delta:
                raise UserError(f"unknown label {label}")
            c, uh, ul = _check_node(body, theory, gamma, delta, instances)
            if not alpha_eq(c, delta[label]):
                raise UserError(
                    "label " + label + " expects " + formula_sexp(delta[label])
                    + " but the subproof gives " + formula_sexp(c))
            return BOT, uh, ul | {label}
        case BotElim(label, f, body):
            if label in delta or label == KAPPA:
                raise UserError(f"bad label name {label}")
            _check_label_formula(f, theory.has_rel)
            c, uh, ul = _check_node(body, theory, gamma, {**delta, label: f},
                                    instances)
            if not isinstance(c, Bot):
                raise UserError(
                    "activation requires a proof of absurdity, got "
                    + formula_sexp(c))
            return f, uh, ul - {label}
    raise InternalError(f"bad proof node {p!r}")
