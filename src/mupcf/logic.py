"""Multisorted classical first-order logic over arithmetic in finite types.

Syntax (sorts, individuals, formulas, proofs) with its layout in the surface
syntax of FORMAT.md, goals, the polarity grammars, built-in theories, and the
proof checker.

Connective inventory is deliberately small: bot, implication, conjunction,
universal quantification, and two atom families (inequality at every sort,
negative; a unary realizability predicate at the base sort, positive).
Negation, disjunction, existentials and equality are derived and never stored.

Sorts, individuals and formulas are interned (see lambdamu.Node): equal
trees are one object, and each node carries facts computed once from its
children's. The facts answer every question about well-formed syntax; the
walks below run only to word an error.
"""

from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import InternalError, UserError
from .lambdamu import Node, freshen, write

# Trees deeper than this are refused where they are built. The reader
# reports the position (format); the constructors of individuals and
# formulas refuse what the checker or the relativizer would build deeper,
# such as an instance that substitutes a deep individual into a deep body.
MAX_DEPTH = 10500


def _above(depth, what):
    """The depth of a new node whose deepest part has the given depth."""
    depth += 1
    if depth > MAX_DEPTH:
        raise UserError(f"{what} would nest more than {MAX_DEPTH} levels deep")
    return depth


def _merge(a, b):
    """Union of two free-variable maps; None if either is None or a name
    has two sorts. May return a or b itself: maps are never mutated."""
    if a is None or b is None:
        return None
    if a is b or not b:
        return a
    if not a:
        return b
    out = a
    for n, s in b.items():
        t = out.get(n)
        if t is None:
            if out is a:
                out = dict(a)
            out[n] = s
        elif t is not s:
            return None
    return out


_NO_VARS = {}  # the free variables of a closed node, shared


# ---------- sorts ----------


class Sort(Node, interned=True):
    """A sort carries _depth, the height of its tree (a leaf is 0)."""

    __slots__ = ("_depth",)


class BaseSort(Sort, layout="{name}"):
    name: str

    def _facts(self):
        self._depth = 0


class SArrow(Sort, layout="(-> {left} {right})"):
    left: Sort
    right: Sort

    def _facts(self):
        d, e = self.left._depth, self.right._depth
        self._depth = 1 + (d if d > e else e)


IOTA = BaseSort("iota")


def arrow(*sorts):
    """Right-associated arrow sort: arrow(a, b, c) = a -> (b -> c)."""
    if not sorts:
        raise InternalError("arrow needs at least one sort")
    out = sorts[-1]
    for s in reversed(sorts[:-1]):
        out = SArrow(s, out)
    return out


sort_sexp = write


# ---------- individuals ----------


class Individual(Node, interned=True):
    """An individual carries facts:
    - _depth, the height of its tree as the reader counts it, at most
      MAX_DEPTH (a constructor raises UserError past it);
    - _fv, its free variables, name -> sort, in first-occurrence order; None
      if a name has two sorts;
    - _sort, its sort if it is well formed, else None (_ind_sort words
      the error)."""

    __slots__ = ("_depth", "_fv", "_sort")


class IVar(Individual, layout="{name}"):
    name: str
    sort: Sort

    def _facts(self):
        sort = self.sort
        d = sort._depth
        # as the reader counts: a variable at the base sort is a leaf
        self._depth = _above(d, "an individual") if d else 0
        self._fv = {self.name: sort}
        self._sort = sort


class IConst(Individual):
    name: str
    sort_args: tuple = ()

    def _facts(self):
        args = self.sort_args
        self._depth = (_above(max([s._depth for s in args]), "an individual")
                       if args else 0)
        self._fv = _NO_VARS
        try:
            self._sort = const_sort(self)
        except UserError:
            self._sort = None

    def _parts(self):
        args = self.sort_args
        return _call_parts(self.name, args) if args else (self.name,)


class IApp(Individual):
    fn: Individual
    arg: Individual

    def _facts(self):
        fn, arg = self.fn, self.arg
        d, e = fn._depth, arg._depth
        self._depth = _above(d if d > e else e, "an individual")
        self._fv = fv = _merge(fn._fv, arg._fv)
        fs, s = fn._sort, arg._sort
        self._sort = (fs.right if fv is not None and s is not None
                      and fs.__class__ is SArrow and fs.left is s else None)

    def _parts(self):  # (f a1 ... an): the spine prints flat
        out, head = [")"], self
        while head.__class__ is IApp:
            out += (head.arg, " ")
            head = head.fn
        out += (head, "(")
        return out


def _call_parts(head, args):
    """The parts of (head a1 ... an), for the name head (see Node)."""
    out = [")"]
    for a in reversed(args):
        out += (a, " ")
    out.append("(" + head)
    return out


def iapp(fn, *args):
    out = fn
    for a in args:
        out = IApp(out, a)
    return out


# Scheme argument kinds: s = sort, f = formula, v = sorted variable.
SCHEME_KINDS = {
    "refl": "s", "leib": "fvv", "s-neq-0": "", "ind": "fv",
    "def-s": "sss", "def-k": "ss", "def-rec-0": "s", "def-rec-s": "s",
    "rel-0": "", "rel-succ": "", "rel-k": "ss", "rel-s": "sss",
    "rel-rec": "s", "dc": "fvvv",
}

# The constants: each one's evidence axiom (its realizability predicate at
# the sort arguments the axiom is given, as many as the axiom's
# SCHEME_KINDS entry lists) and its sort at those arguments. Its program is
# interp.const_realizer.
CONSTANTS = {
    "0": ("rel-0", lambda: IOTA),
    "S": ("rel-succ", lambda: SArrow(IOTA, IOTA)),
    "k": ("rel-k", lambda a, b: arrow(a, b, a)),
    "s": ("rel-s", lambda a, b, c: arrow(arrow(a, b, c), arrow(a, b), a, c)),
    "rec": ("rel-rec", lambda a: arrow(a, arrow(IOTA, a, a), IOTA, a)),
}


def const_sort(c):
    """Sort of a constant instance. Sorts are interned, so every instance of
    one constant shares one sort object."""
    entry = CONSTANTS.get(c.name)
    if entry is None or len(c.sort_args) != len(SCHEME_KINDS[entry[0]]):
        raise UserError(f"unknown constant {ind_sexp(c)}")
    return entry[1](*c.sort_args)


ZERO = IConst("0")
SUCC = IConst("S")


def _raise_clash(t):
    """Raise the error of an individual whose _fv is None: the first name,
    function before argument, used at two sorts."""
    fn, arg = t.fn, t.arg
    if fn._fv is None:
        _raise_clash(fn)
    if arg._fv is None:
        _raise_clash(arg)
    names = fn._fv
    for n, s in arg._fv.items():
        if names.get(n, s) is not s:
            raise UserError(f"variable {n} used at two sorts")


def _ind_sort(t, env):
    """The sort of t, where env maps the names bound around t to their
    binders' sorts. Raises the first error left to right; a name used at two
    sorts in an application is met once its function and argument are
    sorted."""
    cls = t.__class__
    if cls is IVar:
        name, sort = t.name, t.sort
        declared = env.get(name)
        if declared is not None and declared is not sort:
            raise UserError(f"variable {name} used at {sort_sexp(sort)} but "
                            f"declared at {sort_sexp(declared)}")
        return sort
    if cls is IConst:
        return const_sort(t)
    if cls is not IApp:
        raise InternalError(f"bad individual {t!r}")
    fn, arg = t.fn, t.arg
    fs = _ind_sort(fn, env)
    if fs.__class__ is not SArrow:
        raise UserError(f"applied non-function individual {ind_sexp(fn)}")
    ags = _ind_sort(arg, env)
    if t._fv is None:
        _raise_clash(t)
    if ags is not fs.left:
        raise UserError(
            f"sort mismatch: {ind_sexp(fn)} expects {sort_sexp(fs.left)}, "
            f"got {ind_sexp(arg)} : {sort_sexp(ags)}")
    return fs.right


def infer_sort(t):
    """Sort of an individual; the inline sort on IVar is authoritative.
    Raises the first error."""
    sort = t._sort
    return sort if sort is not None else _ind_sort(t, {})


def ind_free_vars(t):
    """Free variables, name -> sort; raises only on one name at two sorts."""
    fv = t._fv
    if fv is None:
        _raise_clash(t)
    return fv


def ind_subst(t, x, u):
    """t with the individual u for the variable named x; t itself when x is
    not free in t."""
    fv = t._fv
    if fv is not None and x not in fv:
        return t
    if t.__class__ is IVar:
        return u
    return IApp(ind_subst(t.fn, x, u), ind_subst(t.arg, x, u))


ind_sexp = write


def zero_ind(sort):
    """Canonical closed inhabitant of a sort: 0 at base, k-padded otherwise."""
    match sort:
        case BaseSort():
            return ZERO
        case SArrow(a, b):
            return IApp(IConst("k", (b, a)), zero_ind(b))
    raise InternalError(f"bad sort {sort!r}")


# ---------- formulas ----------


class Formula(Node, interned=True):
    """A formula carries facts:
    - _depth, as for an individual;
    - _fv, its free variables, as fv_formula gives them, if it is well
      formed where rel atoms are allowed, else None (_formula_fv and
      _sort_pass word the error);
    - _rel, whether it has a rel atom;
    - _neg, whether it is in the negative grammar (see polarity)."""

    __slots__ = ("_depth", "_fv", "_rel", "_neg")


class Bot(Formula, layout="bot"):
    def _facts(self):
        self._depth = 0
        self._fv = _NO_VARS
        self._rel = False
        self._neg = True


class Atom(Formula):
    pred: str
    args: tuple

    def _facts(self):
        pred, args = self.pred, self.args
        self._depth = (_above(max([t._depth for t in args]), "a formula")
                       if args else 0)
        fv, sorts = _NO_VARS, [t._sort for t in args]
        for t in args:
            fv = _merge(fv, t._fv)
        arity = PREDICATES[pred][1] if pred in PREDICATES else None
        if (None in sorts or len(args) != arity
                or (pred == "neq" and sorts[0] is not sorts[1])
                or (pred == "rel" and sorts[0] is not IOTA)):
            fv = None
        self._fv = fv
        self._rel = pred == "rel"
        self._neg = pred in PREDICATES and PREDICATES[pred][0] == "negative"

    def _parts(self):
        return _call_parts(self.pred, self.args)


def _pair_facts(f):
    a, b = f.left, f.right
    d, e = a._depth, b._depth
    f._depth = _above(d if d > e else e, "a formula")
    f._fv = _merge(a._fv, b._fv)
    f._rel = a._rel or b._rel


class Imp(Formula, layout="(-> {left} {right})"):
    left: Formula
    right: Formula

    def _facts(self):
        _pair_facts(self)
        self._neg = self.right._neg


class And(Formula, layout="(/\\ {left} {right})"):
    left: Formula
    right: Formula

    def _facts(self):
        _pair_facts(self)
        self._neg = self.left._neg and self.right._neg


class Forall(Formula, layout="(all ({var} {sort}) {body})"):
    var: str
    sort: Sort
    body: Formula

    def _facts(self):
        x, sort, body = self.var, self.sort, self.body
        d, e = sort._depth, body._depth
        self._depth = _above(d if d > e else e, "a formula")
        fv = body._fv
        if fv is not None and x in fv:
            # _sort_pass reports an occurrence of x at another sort
            fv = ({n: s for n, s in fv.items() if n != x}
                  if fv[x] is sort else None)
        self._fv = fv
        self._rel = body._rel
        self._neg = body._neg


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


@lru_cache(maxsize=256)
def subst_var(f, x, t):
    """f with the individual t for the free variable named x: the one
    substitution of formulas. A binder whose variable is free in t is
    renamed only when x occurs free in its body, where t would be captured;
    unchanged subformulas come back as they are, so f itself does when
    nothing changes. A bounded pure memo, like Theory.instantiate: f and t
    are interned, so the key hashes by identity, and an instance refused
    past MAX_DEPTH raises again on every call."""
    return _subst(f, x, t)


def _subst(f, x, t):
    """subst_var(f, x, t) without the memo. A binder's body is substituted
    first: if it comes back as it is, so does the binder."""
    fv = f._fv
    if fv is not None and x not in fv:
        return f
    cls = f.__class__
    if cls is Imp or cls is And:
        a, b = f.left, f.right
        a2, b2 = _subst(a, x, t), _subst(b, x, t)
        if a2 is a and b2 is b:
            return f
        return cls(a2, b2)
    if cls is Atom:
        args = f.args
        new = [ind_subst(u, x, t) for u in args]
        for u, v in zip(new, args):
            if u is not v:
                return Atom(f.pred, tuple(new))
        return f
    if cls is Forall:
        y, sort, body = f.var, f.sort, f.body
        if y == x or (body2 := _subst(body, x, t)) is body:
            return f
        names = ind_free_vars(t)
        if y in names:
            y2 = freshen(y, names.keys() | fv_formula(body).keys() | {x})
            body = subst_var(body, y, IVar(y2, sort))
            return Forall(y2, sort, _subst(body, x, t))
        return Forall(y, sort, body2)
    raise InternalError(f"bad formula {f!r}")


def alpha_eq(f, g):
    """Alpha equivalence of formulas (individuals compare structurally)."""
    # equal formulas are one interned node
    return f is g or _alpha_walk(f, g)


@lru_cache(maxsize=256)
def _alpha_walk(f, g):
    """alpha_eq(f, g) for two distinct nodes, by a walk of both. A bounded
    pure memo, like subst_var: the key hashes by identity."""

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


def _formula_fv(f, bound, out):
    """Add the free variables of f, less the names in bound, to out, name ->
    sort, in first-occurrence order; raises on a name used at two sorts in
    an individual, or free at two sorts in f."""
    cls = f.__class__
    if cls is Imp or cls is And:
        _formula_fv(f.left, bound, out)
        _formula_fv(f.right, bound, out)
    elif cls is Atom:
        for t in f.args:
            for n, s in ind_free_vars(t).items():
                if n not in bound and out.setdefault(n, s) is not s:
                    raise UserError(f"variable {n} used at two sorts")
    elif cls is Forall:
        _formula_fv(f.body, bound | {f.var}, out)
    elif cls is not Bot:
        raise InternalError(f"bad formula {f!r}")
    return out


def _sort_pass(f, has_rel, env):
    """Check the predicate signatures and sorts of f, where env maps the
    names bound around f to their binders' sorts; raises the first error
    left to right."""
    cls = f.__class__
    if cls is Imp or cls is And:
        _sort_pass(f.left, has_rel, env)
        _sort_pass(f.right, has_rel, env)
    elif cls is Atom:
        p, args = f.pred, f.args
        if p not in PREDICATES:
            raise UserError(f"unknown predicate {p}")
        if p == "rel" and not has_rel:
            raise UserError("rel atom outside a relativized signature")
        arity = PREDICATES[p][1]
        if len(args) != arity:
            raise UserError(f"{p} expects {arity} argument(s)")
        sorts = [_ind_sort(t, env) for t in args]
        if p == "neq" and sorts[0] is not sorts[1]:
            raise UserError("inequality between different sorts")
        if p == "rel" and sorts[0] is not IOTA:
            raise UserError("rel atom takes a base-sort individual")
    elif cls is Forall:
        _sort_pass(f.body, has_rel, {**env, f.var: f.sort})
    elif cls is not Bot:
        raise InternalError(f"bad formula {f!r}")


def wf_formula(f, has_rel):
    """Check predicate signatures and sort consistency; raises UserError.
    Returns the free variables, as fv_formula does.

    f's facts answer, unless they record an error or a rel atom that
    has_rel forbids. Then a variable used at two sorts anywhere in f is
    reported first (_formula_fv), otherwise the first error met left to
    right (_sort_pass)."""
    fv = f._fv
    if fv is None or (f._rel and not has_rel):
        fv = _formula_fv(f, frozenset(), {})
        _sort_pass(f, has_rel, {})
    return fv


def fv_formula(f):
    """Free variables, name -> sort, in first-occurrence order (dicts keep
    insertion order; scheme closures rely on this). Raises only on one name
    at two sorts."""
    fv = f._fv
    return fv if fv is not None else _formula_fv(f, frozenset(), {})


def polarity(f):
    """'negative' or 'positive'. The atom classes are disjoint and bot is
    negative, so every formula lies in exactly one of the two grammars, and
    the negative grammar alone decides which: the fact _neg."""
    return "negative" if f._neg else "positive"


@lru_cache(maxsize=256)
def rel_pred(t, sort):
    """Realizability predicate at a sort: atomic at iota, at arrow sorts the
    pointwise closure forall x (r(x) -> r(t x)). A bounded pure memo, like
    subst_var: t and sort are interned, so the key hashes by identity."""
    return _rel_pred(t, sort)


def _rel_pred(t, sort):
    """rel_pred(t, sort) without the memo."""
    cls = sort.__class__
    if cls is BaseSort:
        return f_rel(t)
    if cls is SArrow:
        a = sort.left
        avoid = set(ind_free_vars(t))
        x = freshen("v", avoid)
        xv = IVar(x, a)
        return Forall(x, a, Imp(_rel_pred(xv, a),
                                _rel_pred(IApp(t, xv), sort.right)))
    raise InternalError(f"bad sort {sort!r}")


formula_sexp = write


# ---------- goals and proofs ----------

KAPPA = "kappa"  # reserved output channel label


class Sequent(Node):
    """A goal, FORMAT.md's (goal <formula>): concl, proved from no
    hypotheses and no labels."""

    concl: Formula = BOT


class Proof(Node):
    pass


class Id(Proof, layout="(id {hyp})"):
    hyp: str


class Ax(Proof):
    name: str
    args: tuple = ()

    def _parts(self):  # a variable argument prints as its binder (x s)
        out = [")"]
        for a in reversed(self.args):
            out += ((")", a.sort, f" ({a.name} ") if a.__class__ is IVar
                    else (a, " "))
        out.append("(ax " + self.name)
        return out


class ImpIntro(Proof, layout="(imp-intro ({hyp} {formula}) {body})"):
    hyp: str
    formula: Formula
    body: Proof


class ImpElim(Proof, layout="(imp-elim {fn} {arg})"):
    fn: Proof
    arg: Proof


class AndIntro(Proof, layout="(and-intro {left} {right})"):
    left: Proof
    right: Proof


class AndElim(Proof, layout="(and-elim {index} {body})"):
    index: int
    body: Proof


class ForallIntro(Proof, layout="(forall-intro ({var} {sort}) {body})"):
    var: str
    sort: Sort
    body: Proof


class ForallElim(Proof, layout="(forall-elim {body} {term})"):
    body: Proof
    term: Individual


class BotIntro(Proof, layout="(bot-intro {label} {body})"):
    label: str
    body: Proof


class BotElim(Proof, layout="(bot-elim ({label} {formula}) {body})"):
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


_KINDS = {"s": (Sort, "sort"), "f": (Formula, "formula"), "v": (IVar, "variable")}


@dataclass(eq=False)  # hashes by identity, as the instance memo needs
class Theory:
    name: str
    has_rel: bool
    schemes: dict = field(default_factory=dict)

    @lru_cache(maxsize=256)
    def instantiate(self, ax_name, args):
        """Closed axiom instance. The count and kinds of the arguments are
        checked here, the rest by the scheme. A bounded pure memo: an
        instance depends on nothing but its theory, axiom and arguments, and
        a rejected one raises again on every call."""
        fn = self.schemes.get(ax_name)
        if fn is None:
            raise UserError(f"theory {self.name} has no axiom {ax_name}")
        kinds = SCHEME_KINDS[ax_name]
        if len(args) != len(kinds) or not all(
                isinstance(a, _KINDS[k][0]) for k, a in zip(kinds, args)):
            what = ", ".join(_KINDS[k][1] for k in kinds)
            raise UserError(f"axiom {ax_name} takes {len(kinds)} argument(s)"
                            + (f": {what}" if what else ""))
        return fn(self, args)


def _need(cond, msg):
    if not cond:
        raise UserError(msg)


def _scheme_params(fv, excluded):
    """The parameters of a scheme instance: its formula's free variables fv
    (name -> sort) less the scheme's own."""
    return [(n, s) for n, s in fv.items() if n not in excluded]


def _guard(th, x, f):
    """f, behind the realizability guard of x in a relativized theory."""
    return Imp(f_rel(x), f) if th.has_rel else f


def _ax_refl(_th, args):
    (s,) = args
    x = IVar("x", s)
    return Forall("x", s, f_eq(x, x))


def _ax_leib(th, args):
    a, x, y = args
    fv = wf_formula(a, th.has_rel)
    _need(x.sort == y.sort, "leib variables must share a sort")
    _need(y.name not in fv and y.name != x.name, "leib replacement variable must be fresh")
    _need(fv.get(x.name, x.sort) == x.sort, "leib variable sort mismatch")
    params = _scheme_params(fv, {x.name})
    body = f_imps(f_not(a), subst_var(a, x.name, y), f_neq(x, y))
    return closure(params + [(x.name, x.sort), (y.name, y.sort)], body)


def _ax_sneq0(th, _args):
    x = IVar("x", IOTA)
    return Forall("x", IOTA, _guard(th, x, f_neq(IApp(SUCC, x), ZERO)))


def _ax_ind(th, args):
    a, x = args
    _need(x.sort == IOTA, "induction variable must be base-sorted")
    fv = wf_formula(a, th.has_rel)
    _need(fv.get(x.name, IOTA) == IOTA, "induction variable sort mismatch")
    base = subst_var(a, x.name, ZERO)
    step = Imp(a, subst_var(a, x.name, IApp(SUCC, x)))
    return closure(_scheme_params(fv, {x.name}),
                   f_imps(base, Forall(x.name, IOTA, _guard(th, x, step)),
                          Forall(x.name, IOTA, _guard(th, x, a))))


def _ax_def_s(_th, args):
    a, b, c = args
    x = IVar("x", arrow(a, b, c))
    y = IVar("y", arrow(a, b))
    z = IVar("z", a)
    lhs = iapp(IConst("s", (a, b, c)), x, y, z)
    rhs = IApp(IApp(x, z), IApp(y, z))
    return closure([("x", x.sort), ("y", y.sort), ("z", a)], f_eq(lhs, rhs))


def _ax_def_k(_th, args):
    a, b = args
    x, y = IVar("x", a), IVar("y", b)
    return closure([("x", a), ("y", b)], f_eq(iapp(IConst("k", (a, b)), x, y), x))


def _ax_def_rec0(_th, args):
    (a,) = args
    x = IVar("x", a)
    y = IVar("y", arrow(IOTA, a, a))
    lhs = iapp(IConst("rec", (a,)), x, y, ZERO)
    return closure([("x", a), ("y", y.sort)], f_eq(lhs, x))


def _ax_def_recs(_th, args):
    (a,) = args
    x = IVar("x", a)
    y = IVar("y", arrow(IOTA, a, a))
    z = IVar("z", IOTA)
    rec = IConst("rec", (a,))
    lhs = iapp(rec, x, y, IApp(SUCC, z))
    rhs = iapp(y, z, iapp(rec, x, y, z))
    return closure([("x", a), ("y", y.sort), ("z", IOTA)], f_eq(lhs, rhs))


def _ax_rel(name, _th, args):
    """Evidence axiom of the constant name at the given sort arguments."""
    c = IConst(name, args)
    return rel_pred(c, const_sort(c))


def _dc_vars(th, args):
    b, x, y, z = args
    names = {x.name, y.name, z.name}
    _need(x.sort == IOTA, "dc: first variable must be base-sorted")
    _need(y.sort == z.sort, "dc: choice variables must share a sort")
    _need(len(names) == 3, "dc: variables must be distinct")
    fv = wf_formula(b, th.has_rel)
    for v in (x, y, z):
        _need(fv.get(v.name, v.sort) == v.sort, "dc: variable sort mismatch")
    return b, x, y, z, _scheme_params(fv, names), set(fv) | names


def _ax_dc_plain(th, args):
    b, x, y, z, params, avoid = _dc_vars(th, args)
    sigma = y.sort
    w = IVar(freshen("w", avoid), arrow(IOTA, sigma))
    # forall x forall y exists z B
    p1 = Forall(x.name, IOTA, Forall(y.name, sigma,
                                     f_exists(z.name, sigma, b)))
    step = subst_var(subst_var(b, y.name, IApp(w, x)),
                     z.name, IApp(w, IApp(SUCC, x)))
    concl = f_not(Forall(w.name, w.sort, f_not(Forall(x.name, IOTA, step))))
    return closure(params, Imp(p1, concl))


def _ax_dc_rel(th, args):
    a, x, y, z, params, avoid = _dc_vars(th, args)
    sigma = y.sort
    _need(isinstance(a, And) and alpha_eq(a.left, rel_pred(z, sigma)),
          "dc: instance formula must be a conjunction whose first component "
          "is the realizability predicate of the third variable")
    w = IVar(freshen("w", avoid), arrow(IOTA, sigma))
    xp = IVar(freshen("x'", avoid | {w.name}), IOTA)
    diag = subst_var(subst_var(a, z.name, y), x.name, xp)
    arg1 = Forall(
        x.name, IOTA,
        Imp(f_rel(x),
            Forall(y.name, sigma,
                   Imp(rel_pred(y, sigma),
                       Imp(Forall(z.name, sigma, f_not(a)),
                           Forall(xp.name, IOTA, diag))))))
    step = subst_var(subst_var(a, y.name, IApp(w, x)),
                     z.name, IApp(w, IApp(SUCC, x)))
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
        "s-neq-0": _ax_sneq0,
        "ind": _ax_ind,
    }
    paw = Theory("paw", False, base)
    caw = Theory("caw", False, {**base, "dc": _ax_dc_plain})
    pawr = Theory("pawr", True, {
        **base,
        **{ax: partial(_ax_rel, c) for c, (ax, _) in CONSTANTS.items()}})
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
    """Check a proof of goal.concl. Hypotheses may go unused (weakening is
    implicit); eigenvariable conditions are checked against the hypotheses
    and labels a subproof actually uses. Returns the goal."""
    wf_formula(goal.concl, theory.has_rel)
    concl = _check_node(proof, theory, {}, {})[0]
    if not alpha_eq(concl, goal.concl):
        raise UserError(
            "proof concludes " + formula_sexp(concl)
            + " but the goal is " + formula_sexp(goal.concl))
    return goal


def _check_node(p, theory, gamma, delta):
    """Conclusion of p, and the hypotheses and labels p uses. A conclusion
    carries its free variables and whether it is well formed (Formula), so
    a quantifier introduction walks its conclusion only to report an error,
    and every error still comes from wf_formula."""
    cls = p.__class__
    if cls is ImpElim:
        fn, arg = p.fn, p.arg
        cf, uh1, ul1 = _check_node(fn, theory, gamma, delta)
        ca, uh2, ul2 = _check_node(arg, theory, gamma, delta)
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
        c, uh, ul = _check_node(p.body, theory, gamma, delta)
        if c.__class__ is not Forall:
            raise UserError("quantifier elimination on " + formula_sexp(c))
        ts = infer_sort(t)
        if ts != c.sort:
            raise UserError(
                f"instantiating a {sort_sexp(c.sort)} quantifier with "
                f"{ind_sexp(t)} : {sort_sexp(ts)}")
        x = c.var
        if t.__class__ is IVar and t.name == x:
            # conclusions come from well-formed formulas, whose binders keep
            # one sort under substitution: x occurs in the body at ts only
            return c.body, uh, ul
        return subst_var(c.body, x, t), uh, ul
    if cls is Ax:
        return theory.instantiate(p.name, p.args), set(), set()
    if cls is ImpIntro:
        h, f = p.hyp, p.formula
        if h in gamma:
            raise UserError(f"hypothesis name {h} shadows an existing one")
        wf_formula(f, theory.has_rel)
        c, uh, ul = _check_node(p.body, theory, {**gamma, h: f}, delta)
        return Imp(f, c), uh - {h}, ul
    if cls is Id:
        h = p.hyp
        if h not in gamma:
            raise UserError(f"unknown hypothesis {h}")
        return gamma[h], {h}, set()
    if cls is ForallIntro:
        x, sort = p.var, p.sort
        c, uh, ul = _check_node(p.body, theory, gamma, delta)
        for kind, ctx, used in (("hypothesis", gamma, uh),
                                ("label", delta, ul)):
            if any(x in ctx[n]._fv for n in used):
                # report the first in binding order, whatever the hash seed
                n = next(n for n in ctx if n in used and x in ctx[n]._fv)
                raise UserError(
                    f"eigenvariable {x} is free in used {kind} {n}")
        f = Forall(x, sort, c)
        if f._fv is None:
            wf_formula(f, theory.has_rel)
        return f, uh, ul
    if cls is AndIntro:
        cl, uh1, ul1 = _check_node(p.left, theory, gamma, delta)
        cr, uh2, ul2 = _check_node(p.right, theory, gamma, delta)
        return And(cl, cr), uh1 | uh2, ul1 | ul2
    if cls is AndElim:
        i = p.index
        if i not in (1, 2):
            raise UserError("projection index must be 1 or 2")
        c, uh, ul = _check_node(p.body, theory, gamma, delta)
        if c.__class__ is not And:
            raise UserError(
                "conjunction elimination on " + formula_sexp(c))
        return (c.left if i == 1 else c.right), uh, ul
    if cls is BotIntro:
        label = p.label
        if label not in delta:
            raise UserError(f"unknown label {label}")
        c, uh, ul = _check_node(p.body, theory, gamma, delta)
        want = delta[label]
        if not alpha_eq(c, want):
            raise UserError(
                "label " + label + " expects " + formula_sexp(want)
                + " but the subproof gives " + formula_sexp(c))
        return BOT, uh, ul | {label}
    if cls is BotElim:
        label, f = p.label, p.formula
        if label in delta or label == KAPPA:
            raise UserError(f"bad label name {label}")
        _check_label_formula(f, theory.has_rel)
        c, uh, ul = _check_node(p.body, theory, gamma, {**delta, label: f})
        if c.__class__ is not Bot:
            raise UserError(
                "activation requires a proof of absurdity, got "
                + formula_sexp(c))
        return f, uh, ul - {label}
    raise InternalError(f"bad proof node {p!r}")
