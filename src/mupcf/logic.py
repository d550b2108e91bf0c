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
from functools import lru_cache

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
    """Sort of a constant instance; combinator families carry sort arguments.
    Every instance of one constant shares one sort object."""
    name, sort_args = c.name, c.sort_args
    if not sort_args:
        if name == "0":
            return IOTA
        if name == "S":
            return _SUCC_SORT
    s = _const_sort(name, sort_args)
    if s is None:
        raise UserError(f"unknown constant {ind_sexp(c)}")
    return s


@lru_cache(maxsize=256)
def _const_sort(name, sort_args):
    # a bounded pure memo: sorts are immutable, so sharing them is safe
    match name, sort_args:
        case "k", (a, b):
            return arrow(a, b, a)
        case "s", (a, b, c):
            return arrow(arrow(a, b, c), arrow(a, b), a, c)
        case "rec", (a,):
            return arrow(a, arrow(IOTA, a, a), IOTA, a)
    return None


def infer_sort(t):
    """Sort of an individual; the inline sort on IVar is authoritative."""
    cls = t.__class__
    if cls is IApp:
        fn, arg = t.fn, t.arg
        fs = infer_sort(fn)
        if fs.__class__ is not SArrow:
            raise UserError(
                f"applied non-function individual {ind_sexp(fn)}")
        ags = infer_sort(arg)
        if ags != fs.left:
            raise UserError(_sort_mismatch(fn, fs, arg, ags))
        return fs.right
    if cls is IVar:
        return t.sort
    if cls is IConst:
        return const_sort(t)
    raise InternalError(f"bad individual {t!r}")


def _sort_mismatch(fn, fs, arg, ags):
    return (f"sort mismatch: {ind_sexp(fn)} expects {sort_sexp(fs.left)}, "
            f"got {ind_sexp(arg)} : {sort_sexp(ags)}")


def ind_free_vars(t):
    cls = t.__class__
    if cls is IApp:
        out = ind_free_vars(t.fn)
        for n, s in ind_free_vars(t.arg).items():
            if n in out and out[n] != s:
                raise UserError(f"variable {n} used at two sorts")
            out[n] = s
        return out
    if cls is IVar:
        return {t.name: t.sort}
    if cls is IConst:
        return {}
    raise InternalError(f"bad individual {t!r}")


def ind_subst(t, mapping):
    """Simultaneous substitution of individuals for variable names."""
    cls = t.__class__
    if cls is IApp:
        fn, arg = t.fn, t.arg
        fn2, arg2 = ind_subst(fn, mapping), ind_subst(arg, mapping)
        if fn2 is fn and arg2 is arg:
            return t
        return IApp(fn2, arg2)
    if cls is IVar:
        return mapping.get(t.name, t)
    if cls is IConst:
        return t
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
        cls = f.__class__
        if cls is Imp or cls is And:
            go(f.left, bound)
            go(f.right, bound)
        elif cls is Atom:
            for t in f.args:
                for n, s in ind_free_vars(t).items():
                    if n in bound:
                        continue
                    if n in out and out[n] != s:
                        raise UserError(f"variable {n} used at two sorts")
                    out.setdefault(n, s)
        elif cls is Forall:
            go(f.body, bound | {f.var})
        elif cls is not Bot:
            raise InternalError(f"bad formula {f!r}")

    go(f, frozenset())
    return out


def subst_formula(f, mapping):
    """Capture-avoiding simultaneous substitution of individuals for free
    variable names.

    The free names of the substituted individuals are collected once per
    call, at the first binder, and again only below a binder that drops a
    mapped name. A binder whose variable is among them is renamed, whether or
    not a mapped name occurs in its body. Subformulas the substitution leaves
    unchanged are returned as they are, so f itself comes back when nothing
    changes."""
    if not mapping:
        return f
    return _subst(f, mapping, [None])


def _subst(f, mapping, captured):
    """captured is a one-element list: the free names of mapping's
    individuals, or None until a binder first needs them."""
    cls = f.__class__
    if cls is Imp or cls is And:
        a, b = f.left, f.right
        a2 = _subst(a, mapping, captured)
        b2 = _subst(b, mapping, captured)
        if a2 is a and b2 is b:
            return f
        return cls(a2, b2)
    if cls is Atom:
        args = f.args
        new = [ind_subst(t, mapping) for t in args]
        for t, u in zip(new, args):
            if t is not u:
                return Atom(f.pred, tuple(new))
        return f
    if cls is Forall:
        x, sort, body = f.var, f.sort, f.body
        if x in mapping:
            mapping = {n: t for n, t in mapping.items() if n != x}
            if not mapping:
                return f
            captured = [None]
        if captured[0] is None:
            names = set()
            for t in mapping.values():
                names |= ind_free_vars(t).keys()
            captured[0] = names
        names = captured[0]
        if x in names:
            avoid = names | fv_formula(body).keys() | set(mapping)
            x2 = freshen(x, avoid)
            body = subst_formula(body, {x: IVar(x2, sort)})
            return Forall(x2, sort, _subst(body, mapping, captured))
        body2 = _subst(body, mapping, captured)
        if body2 is body:
            return f
        return Forall(x, sort, body2)
    if cls is Bot:
        return f
    raise InternalError(f"bad formula {f!r}")


def alpha_eq(f, g):
    """Alpha equivalence of formulas (individuals compare structurally)."""
    if f == g:
        return True

    def go(f, g, fb, gb, depth):
        # fb and gb map the bound names in scope to the depth of their
        # binder: a name bound again maps to the inner binder
        cls = f.__class__
        if cls is not g.__class__:
            return False
        if cls is Imp or cls is And:
            return (go(f.left, g.left, fb, gb, depth)
                    and go(f.right, g.right, fb, gb, depth))
        if cls is Atom:
            a1, a2 = f.args, g.args
            if f.pred != g.pred or len(a1) != len(a2):
                return False
            return all(ind_eq(t, u, fb, gb) for t, u in zip(a1, a2))
        if cls is Forall:
            if f.sort != g.sort:
                return False
            return go(f.body, g.body, {**fb, f.var: depth},
                      {**gb, g.var: depth}, depth + 1)
        return cls is Bot

    def ind_eq(t, u, fb, gb):
        cls = t.__class__
        if cls is not u.__class__:
            return False
        if cls is IApp:
            return (ind_eq(t.fn, u.fn, fb, gb)
                    and ind_eq(t.arg, u.arg, fb, gb))
        if cls is IVar:
            if t.sort != u.sort:
                return False
            n1, n2 = t.name, u.name
            d1, d2 = fb.get(n1), gb.get(n2)
            if d1 is None and d2 is None:
                return n1 == n2
            return d1 == d2
        if cls is IConst:
            return t == u
        return False

    return go(f, g, {}, {}, 0)


def wf_formula(f, has_rel):
    """Check predicate signatures and sort consistency; raises UserError.
    Returns the free variables, as fv_formula does.

    One walk infers the sorts and collects the free variables. A variable
    used at two sorts anywhere in f is reported first; otherwise the first
    error met left to right is. So the walk raises a clash at once, keeps
    the first other error, and raises that only once the walk is done."""
    out = {}
    first_error = None

    def fail(msg):
        nonlocal first_error
        if first_error is None:
            first_error = msg

    def ind(t, bound):
        """Sort of t (None after an error) and its free variables, in the
        order and with the clash checks of ind_free_vars."""
        cls = t.__class__  # class dispatch: the checker's hottest walk
        if cls is IVar:
            name, sort = t.name, t.sort
            declared = bound.get(name)
            if declared is not None and declared != sort:
                fail(f"variable {name} used at {sort_sexp(sort)} but "
                     f"declared at {sort_sexp(declared)}")
            return sort, {name: sort}
        if cls is IConst:
            try:
                return const_sort(t), {}
            except UserError as ex:
                fail(str(ex))
                return None, {}
        if cls is not IApp:
            raise InternalError(f"bad individual {t!r}")
        fn, arg = t.fn, t.arg
        fs, fv = ind(fn, bound)
        if fs is not None and not isinstance(fs, SArrow):
            fail(f"applied non-function individual {ind_sexp(fn)}")
            fs = None
        ags, av = ind(arg, bound)
        if not fv:
            fv = av
        else:
            for n, s in av.items():
                if fv.setdefault(n, s) != s:
                    raise UserError(f"variable {n} used at two sorts")
        if fs is None or ags is None:
            return None, fv
        if ags != fs.left:
            fail(_sort_mismatch(fn, fs, arg, ags))
            return None, fv
        return fs.right, fv

    def go(f, bound):
        cls = f.__class__
        if cls is Imp or cls is And:
            go(f.left, bound)
            go(f.right, bound)
        elif cls is Atom:
            p, args = f.pred, f.args
            if p not in PREDICATES:
                fail(f"unknown predicate {p}")
            elif p == "rel" and not has_rel:
                fail("rel atom outside a relativized signature")
            elif len(args) != PREDICATES[p][1]:
                fail(f"{p} expects {PREDICATES[p][1]} argument(s)")
            sorts = []
            for t in args:
                sort, names = ind(t, bound)
                sorts.append(sort)
                for n, s in names.items():
                    if n in bound:
                        continue
                    if out.setdefault(n, s) != s:
                        raise UserError(f"variable {n} used at two sorts")
            if first_error is not None:
                return
            if p == "neq" and sorts[0] != sorts[1]:
                fail("inequality between different sorts")
            if p == "rel" and sorts[0] != IOTA:
                fail("rel atom takes a base-sort individual")
        elif cls is Forall:
            go(f.body, {**bound, f.var: f.sort})
        elif cls is not Bot:
            raise InternalError(f"bad formula {f!r}")

    go(f, {})
    if first_error is not None:
        raise UserError(first_error)
    return out


def polarity(f):
    """'negative', 'positive', or 'both' per the two polarity grammars."""

    def neg(f):
        cls = f.__class__
        if cls is Imp:
            return neg(f.right)
        if cls is Atom:
            return PREDICATES[f.pred][0] == "negative"
        if cls is Bot:
            return True
        if cls is Forall:
            return neg(f.body)
        if cls is And:
            return neg(f.left) and neg(f.right)
        raise InternalError(f"bad formula {f!r}")

    def pos(f):
        cls = f.__class__
        if cls is Imp:
            return pos(f.right)
        if cls is Atom:
            return PREDICATES[f.pred][0] == "positive"
        if cls is Bot:
            return False
        if cls is Forall:
            return pos(f.body)
        if cls is And:
            return pos(f.left) or pos(f.right)
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
    cls = sort.__class__
    if cls is BaseSort:
        return f_rel(t)
    if cls is SArrow:
        a = sort.left
        avoid = set(ind_free_vars(t))
        x = freshen("v", avoid)
        xv = IVar(x, a)
        return Forall(x, a, Imp(rel_pred(xv, a),
                                rel_pred(IApp(t, xv), sort.right)))
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


def collect_names(p):
    """Every hypothesis, label, and eigenvariable name in a proof tree."""
    out = set()

    def go(p):
        cls = p.__class__
        if cls is ImpElim:
            go(p.fn)
            go(p.arg)
        elif cls is ForallElim:
            go(p.body)
        elif cls is Ax:
            pass
        elif cls is ImpIntro:
            out.add(p.hyp)
            go(p.body)
        elif cls is Id:
            out.add(p.hyp)
        elif cls is ForallIntro:
            out.add(p.var)
            go(p.body)
        elif cls is AndIntro:
            go(p.left)
            go(p.right)
        elif cls is AndElim:
            go(p.body)
        elif cls is BotIntro or cls is BotElim:
            out.add(p.label)
            go(p.body)
        else:
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
    cls = p.__class__
    if cls is ImpElim:
        fn, arg = p.fn, p.arg
        cf, uh1, ul1 = _check_node(fn, theory, gamma, delta, instances)
        ca, uh2, ul2 = _check_node(arg, theory, gamma, delta, instances)
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
        c, uh, ul = _check_node(p.body, theory, gamma, delta, instances)
        if c.__class__ is not Forall:
            raise UserError("quantifier elimination on " + formula_sexp(c))
        ts = infer_sort(t)
        if ts != c.sort:
            raise UserError(
                f"instantiating a {sort_sexp(c.sort)} quantifier with "
                f"{ind_sexp(t)} : {sort_sexp(ts)}")
        return subst_formula(c.body, {c.var: t}), uh, ul
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
        c, uh, ul = _check_node(p.body, theory, {**gamma, h: f}, delta,
                                instances)
        return Imp(f, c), uh - {h}, ul
    if cls is Id:
        h = p.hyp
        if h not in gamma:
            raise UserError(f"unknown hypothesis {h}")
        return gamma[h], {h}, set()
    if cls is ForallIntro:
        x, sort = p.var, p.sort
        c, uh, ul = _check_node(p.body, theory, gamma, delta, instances)
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
    if cls is AndIntro:
        cl, uh1, ul1 = _check_node(p.left, theory, gamma, delta, instances)
        cr, uh2, ul2 = _check_node(p.right, theory, gamma, delta, instances)
        return And(cl, cr), uh1 | uh2, ul1 | ul2
    if cls is AndElim:
        i = p.index
        if i not in (1, 2):
            raise UserError("projection index must be 1 or 2")
        c, uh, ul = _check_node(p.body, theory, gamma, delta, instances)
        if c.__class__ is not And:
            raise UserError(
                "conjunction elimination on " + formula_sexp(c))
        return (c.left if i == 1 else c.right), uh, ul
    if cls is BotIntro:
        label = p.label
        if label not in delta:
            raise UserError(f"unknown label {label}")
        c, uh, ul = _check_node(p.body, theory, gamma, delta, instances)
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
        c, uh, ul = _check_node(p.body, theory, gamma, {**delta, label: f},
                                instances)
        if c.__class__ is not Bot:
            raise UserError(
                "activation requires a proof of absurdity, got "
                + formula_sexp(c))
        return f, uh, ul - {label}
    raise InternalError(f"bad proof node {p!r}")
