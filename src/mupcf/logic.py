"""Multisorted classical first-order logic over arithmetic in finite types.

Syntax (sorts, individuals, formulas) and its printers in the surface syntax
of FORMAT.md, sequents with named hypotheses and named right-hand labels, the
polarity grammars, built-in theories, and the proof checker.

Connective inventory is deliberately small: bot, implication, conjunction,
universal quantification, and two atom families (inequality at every sort,
negative; a unary realizability predicate at the base sort, positive).
Negation, disjunction, existentials and equality are derived and never stored.

Sorts, individuals and formulas are interned (see lambdamu.Node): equal
trees are one object, and each node carries facts computed once from its
children's, which the walks below read instead of walking again.
"""

from dataclasses import dataclass, field
from functools import lru_cache, partial

from .errors import InternalError, UserError
from .lambdamu import Node, freshen

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


class BaseSort(Sort):
    name: str

    def _facts(self):
        self._depth = 0


class SArrow(Sort):
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


def sort_sexp(s):
    match s:
        case BaseSort(name):
            return name
        case SArrow(a, b):
            return f"(-> {sort_sexp(a)} {sort_sexp(b)})"
    raise InternalError(f"bad sort {s!r}")


# ---------- individuals ----------


class Individual(Node, interned=True):
    """An individual carries facts:
    - _depth, the height of its tree as the reader counts it, at most
      MAX_DEPTH (a constructor raises UserError past it);
    - _fv, its free variables, name -> sort, in first-occurrence order; None
      if a name has two sorts;
    - _sort, its sort if _ind_walk finds no error in it, else None."""

    __slots__ = ("_depth", "_fv", "_sort")


class IVar(Individual):
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


def iapp(fn, *args):
    out = fn
    for a in args:
        out = IApp(out, a)
    return out


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


# the sort of each combinator family at its sort arguments, whose number is
# that of its evidence axiom (REL_AXIOMS, SCHEME_KINDS)
_FAMILY_SORTS = {
    "k": lambda a, b: arrow(a, b, a),
    "s": lambda a, b, c: arrow(arrow(a, b, c), arrow(a, b), a, c),
    "rec": lambda a: arrow(a, arrow(IOTA, a, a), IOTA, a),
}


@lru_cache(maxsize=256)
def _const_sort(name, sort_args):
    # a bounded pure memo: sorts are immutable, so sharing them is safe
    if name not in _FAMILY_SORTS \
            or len(sort_args) != len(SCHEME_KINDS[REL_AXIOMS[name]]):
        return None
    return _FAMILY_SORTS[name](*sort_args)


ZERO = IConst("0")
SUCC = IConst("S")


def _ind_walk(t, bound, fail):
    """Sort of t (None after an error) and its free variables, name -> sort,
    in first-occurrence order. Every error goes to fail(msg), except a
    variable used at two sorts, which raises at once. bound maps the names
    bound around t to their binders' sorts.

    t answers from its facts unless they record an error or bound gives
    one of its free variables another sort; only then is t walked."""
    if isinstance(t, Individual):
        sort, fv = t._sort, t._fv
        if sort is not None:
            for n, s in fv.items():
                declared = bound.get(n)
                if declared is not None and declared is not s:
                    break
            else:
                return sort, fv
    return _ind_full_walk(t, bound, fail)


def _ind_full_walk(t, bound, fail):
    """_ind_walk of t, which walks t's own node; its children may still
    answer from their facts."""
    cls = t.__class__
    if cls is IVar:
        name, sort = t.name, t.sort
        declared = bound.get(name)
        if declared is not None and declared != sort:
            fail(f"variable {name} used at {sort_sexp(sort)} but "
                 f"declared at {sort_sexp(declared)}")
        return sort, t._fv
    if cls is IConst:
        try:
            return const_sort(t), {}
        except UserError as ex:
            fail(str(ex))
            return None, {}
    if cls is not IApp:
        raise InternalError(f"bad individual {t!r}")
    fn, arg = t.fn, t.arg
    fs, fv = _ind_walk(fn, bound, fail)
    if fs is not None and fs.__class__ is not SArrow:
        fail(f"applied non-function individual {ind_sexp(fn)}")
        fs = None
    ags, av = _ind_walk(arg, bound, fail)
    if not fv:
        fv = av
    elif av:
        fv = dict(fv)  # the children's maps may be their facts
        for n, s in av.items():
            if fv.setdefault(n, s) != s:
                raise UserError(f"variable {n} used at two sorts")
    if fs is None or ags is None:
        return None, fv
    if ags != fs.left:
        fail(f"sort mismatch: {ind_sexp(fn)} expects {sort_sexp(fs.left)}, "
             f"got {ind_sexp(arg)} : {sort_sexp(ags)}")
        return None, fv
    return fs.right, fv


def _raise(msg):
    raise UserError(msg)


def _ignore(msg):
    pass


def infer_sort(t):
    """Sort of an individual; the inline sort on IVar is authoritative.
    Raises the first error."""
    return _ind_walk(t, {}, _raise)[0]


def ind_free_vars(t):
    """Free variables, name -> sort; raises only on one name at two sorts."""
    return _ind_walk(t, {}, _ignore)[1]


def ind_subst(t, mapping):
    """Simultaneous substitution of individuals for variable names; t
    itself when no name it maps is free in t."""
    cls = t.__class__
    if cls is IApp:
        fv = t._fv
        if fv is not None and mapping.keys().isdisjoint(fv):
            return t
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


class Formula(Node, interned=True):
    """A formula carries facts:
    - _depth, as for an individual;
    - _fv, its free variables, as fv_formula gives them, if _formula_walk
      finds no error in it where rel atoms are allowed, else None;
    - _rel, whether it has a rel atom."""

    __slots__ = ("_depth", "_fv", "_rel")


class Bot(Formula):
    def _facts(self):
        self._depth = 0
        self._fv = _NO_VARS
        self._rel = False


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


def _pair_facts(f):
    a, b = f.left, f.right
    d, e = a._depth, b._depth
    f._depth = _above(d if d > e else e, "a formula")
    f._fv = _merge(a._fv, b._fv)
    f._rel = a._rel or b._rel


class Imp(Formula):
    left: Formula
    right: Formula

    _facts = _pair_facts


class And(Formula):
    left: Formula
    right: Formula

    _facts = _pair_facts


class Forall(Formula):
    var: str
    sort: Sort
    body: Formula

    def _facts(self):
        x, sort, body = self.var, self.sort, self.body
        d, e = sort._depth, body._depth
        self._depth = _above(d if d > e else e, "a formula")
        fv = body._fv
        if fv is not None and x in fv:
            # the walk reports an occurrence of x at another sort
            fv = ({n: s for n, s in fv.items() if n != x}
                  if fv[x] is sort else None)
        self._fv = fv
        self._rel = body._rel


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
        fv = f._fv
        if fv is not None and mapping.keys().isdisjoint(fv):
            return f  # an atom binds nothing, so nothing in it is renamed
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
    if f is g:  # equal formulas are one interned node
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


def _formula_walk(f, bound, has_rel, out, fail):
    """Add the free variables of f to out, name -> sort, in first-occurrence
    order, and check its predicate signatures and sorts. Errors go to fail,
    as in _ind_walk."""
    cls = f.__class__
    if cls is Imp or cls is And:
        _formula_walk(f.left, bound, has_rel, out, fail)
        _formula_walk(f.right, bound, has_rel, out, fail)
    elif cls is Atom:
        p, args = f.pred, f.args
        arity = PREDICATES[p][1] if p in PREDICATES else None
        if arity is None:
            fail(f"unknown predicate {p}")
        elif p == "rel" and not has_rel:
            fail("rel atom outside a relativized signature")
        elif len(args) != arity:
            fail(f"{p} expects {arity} argument(s)")
        sorts = []
        for t in args:
            sort, names = _ind_walk(t, bound, fail)
            sorts.append(sort)
            for n, s in names.items():
                if n in bound:
                    continue
                if out.setdefault(n, s) != s:
                    raise UserError(f"variable {n} used at two sorts")
        if len(args) != arity or None in sorts:
            return
        if p == "neq" and sorts[0] != sorts[1]:
            fail("inequality between different sorts")
        if p == "rel" and sorts[0] != IOTA:
            fail("rel atom takes a base-sort individual")
    elif cls is Forall:
        _formula_walk(f.body, {**bound, f.var: f.sort}, has_rel, out, fail)
    elif cls is not Bot:
        raise InternalError(f"bad formula {f!r}")


def wf_formula(f, has_rel):
    """Check predicate signatures and sort consistency; raises UserError.
    Returns the free variables, as fv_formula does.

    A variable used at two sorts anywhere in f is reported first; otherwise
    the first error met left to right is. So the walk raises a clash at
    once, keeps the other errors, and raises the first only once the walk
    is done. f is walked only when its facts record an error, or a rel atom
    that has_rel forbids."""
    if isinstance(f, Formula):
        fv = f._fv
        if fv is not None and (has_rel or not f._rel):
            return fv
    out, errors = {}, []
    _formula_walk(f, {}, has_rel, out, errors.append)
    if errors:
        raise UserError(errors[0])
    return out


def fv_formula(f):
    """Free variables, name -> sort, in first-occurrence order (dicts keep
    insertion order; scheme closures rely on this). Raises only on one name
    at two sorts."""
    if isinstance(f, Formula) and f._fv is not None:
        return f._fv
    out = {}
    _formula_walk(f, {}, True, out, _ignore)
    return out


def polarity(f):
    """'negative' or 'positive'. The atom classes are disjoint and bot is
    negative, so every formula lies in exactly one of the two grammars, and
    the negative grammar alone decides which."""

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

    return "negative" if neg(f) else "positive"


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


class Sequent(Node):
    """hyps |- concl | labels. Hypotheses and labels are name-keyed; every
    label formula must be negative."""

    hyps: tuple = ()
    concl: Formula = BOT
    labels: tuple = ()


class Proof(Node):
    pass


class Id(Proof):
    hyp: str


class Ax(Proof):
    name: str
    args: tuple = ()


class ImpIntro(Proof):
    hyp: str
    formula: Formula
    body: Proof


class ImpElim(Proof):
    fn: Proof
    arg: Proof


class AndIntro(Proof):
    left: Proof
    right: Proof


class AndElim(Proof):
    index: int
    body: Proof


class ForallIntro(Proof):
    var: str
    sort: Sort
    body: Proof


class ForallElim(Proof):
    body: Proof
    term: Individual


class BotIntro(Proof):
    label: str
    body: Proof


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


# Scheme argument kinds: s = sort, f = formula, v = sorted variable.
SCHEME_KINDS = {
    "refl": "s", "leib": "fvv", "s-neq-0": "", "ind": "fv",
    "def-s": "sss", "def-k": "ss", "def-rec-0": "s", "def-rec-s": "s",
    "rel-0": "", "rel-succ": "", "rel-k": "ss", "rel-s": "sss",
    "rel-rec": "s", "dc": "fvvv",
}

_KINDS = {"s": (Sort, "sort"), "f": (Formula, "formula"), "v": (IVar, "variable")}

# The evidence axiom of each constant: its realizability predicate, at the
# sort arguments the axiom is given.
REL_AXIOMS = {"0": "rel-0", "S": "rel-succ", "k": "rel-k", "s": "rel-s",
              "rec": "rel-rec"}


@dataclass(eq=False)  # hashes by identity, as the instance memo needs
class Theory:
    name: str
    has_rel: bool
    schemes: dict = field(default_factory=dict)

    @lru_cache(maxsize=256)
    def instantiate(self, ax_name, args):
        """Closed axiom instance. The count and kinds of the arguments are
        checked here, the rest by the scheme. A bounded pure memo, like
        _const_sort: an instance depends on nothing but its theory, axiom
        and arguments, and a rejected one raises again on every call."""
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
    body = f_imps(f_not(a), subst_formula(a, {x.name: y}), f_neq(x, y))
    return closure(params + [(x.name, x.sort), (y.name, y.sort)], body)


def _ax_sneq0(th, _args):
    x = IVar("x", IOTA)
    return Forall("x", IOTA, _guard(th, x, f_neq(IApp(SUCC, x), ZERO)))


def _ax_ind(th, args):
    a, x = args
    _need(x.sort == IOTA, "induction variable must be base-sorted")
    fv = wf_formula(a, th.has_rel)
    _need(fv.get(x.name, IOTA) == IOTA, "induction variable sort mismatch")
    base = subst_formula(a, {x.name: ZERO})
    step = Imp(a, subst_formula(a, {x.name: IApp(SUCC, x)}))
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
    step = subst_formula(b, {y.name: IApp(w, x), z.name: IApp(w, IApp(SUCC, x))})
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
        "s-neq-0": _ax_sneq0,
        "ind": _ax_ind,
    }
    paw = Theory("paw", False, base)
    caw = Theory("caw", False, {**base, "dc": _ax_dc_plain})
    pawr = Theory("pawr", True, {
        **base, **{ax: partial(_ax_rel, c) for c, ax in REL_AXIOMS.items()}})
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
    fv = wf_formula(f, has_rel)
    if polarity(f) == "positive":
        raise UserError(
            f"label formula must be negative, got positive: {formula_sexp(f)}")
    return fv


def check_proof(proof, theory, goal):
    """Check a proof against a goal sequent. Hypotheses may go unused
    (weakening is implicit); eigenvariable conditions are checked against the
    hypotheses and labels a subproof actually uses. Returns the goal
    sequent."""
    gamma, delta = {}, {}  # name -> (formula, its free variables)
    for name, f in goal.hyps:
        if name in gamma:
            raise UserError(f"duplicate hypothesis name {name}")
        gamma[name] = f, wf_formula(f, theory.has_rel)
    for name, f in goal.labels:
        if name in delta or name == KAPPA:
            raise UserError(f"bad label name {name}")
        delta[name] = f, _check_label_formula(f, theory.has_rel)
    wf_formula(goal.concl, theory.has_rel)

    concl = _check_node(proof, theory, gamma, delta)[0]
    if not alpha_eq(concl, goal.concl):
        raise UserError(
            "proof concludes " + formula_sexp(concl)
            + " but the goal is " + formula_sexp(goal.concl))
    return goal


def _check_node(p, theory, gamma, delta):
    """Conclusion of p, its free variables, and the hypotheses and labels p
    uses. The free variables come as a map name -> sort when the conclusion
    is known to be well formed, else None; the map may list extra names, at
    consistent sorts. So a quantifier introduction re-walks its conclusion
    only when the map cannot vouch for the bound variable, and every error
    still comes from wf_formula."""
    cls = p.__class__
    if cls is ImpElim:
        fn, arg = p.fn, p.arg
        cf, fv, uh1, ul1 = _check_node(fn, theory, gamma, delta)
        ca, _, uh2, ul2 = _check_node(arg, theory, gamma, delta)
        if cf.__class__ is not Imp:
            raise UserError(
                "implication elimination on " + formula_sexp(cf))
        if not alpha_eq(cf.left, ca):
            raise UserError(
                "argument proves " + formula_sexp(ca)
                + " but " + formula_sexp(cf.left) + " is required")
        return cf.right, fv, uh1 | uh2, ul1 | ul2
    if cls is ForallElim:
        t = p.term
        c, fv, uh, ul = _check_node(p.body, theory, gamma, delta)
        if c.__class__ is not Forall:
            raise UserError("quantifier elimination on " + formula_sexp(c))
        ts, tv = _ind_walk(t, {}, _raise)
        if ts != c.sort:
            raise UserError(
                f"instantiating a {sort_sexp(c.sort)} quantifier with "
                f"{ind_sexp(t)} : {sort_sexp(ts)}")
        x = c.var
        if fv is not None:
            if t.__class__ is IVar and t.name == x:
                # in a well-formed c, x occurs in the body at ts only
                return c.body, {**fv, x: ts}, uh, ul
            if x in fv:
                fv = {n: s for n, s in fv.items() if n != x}
            fv = _merge(fv, tv)
        return subst_formula(c.body, {x: t}), fv, uh, ul
    if cls is Ax:
        return theory.instantiate(p.name, p.args), {}, set(), set()
    if cls is ImpIntro:
        h, f = p.hyp, p.formula
        if h in gamma:
            raise UserError(f"hypothesis name {h} shadows an existing one")
        fh = wf_formula(f, theory.has_rel)
        c, fv, uh, ul = _check_node(p.body, theory, {**gamma, h: (f, fh)},
                                    delta)
        return Imp(f, c), _merge(fh, fv), uh - {h}, ul
    if cls is Id:
        h = p.hyp
        if h not in gamma:
            raise UserError(f"unknown hypothesis {h}")
        f, fv = gamma[h]
        return f, fv, {h}, set()
    if cls is ForallIntro:
        x, sort = p.var, p.sort
        c, fv, uh, ul = _check_node(p.body, theory, gamma, delta)
        for kind, ctx, used in (("hypothesis", gamma, uh),
                                ("label", delta, ul)):
            if any(x in ctx[n][1] for n in used):
                # report the first in binding order, whatever the hash seed
                n = next(n for n in ctx if n in used and x in ctx[n][1])
                raise UserError(
                    f"eigenvariable {x} is free in used {kind} {n}")
        f = Forall(x, sort, c)
        if fv is None or fv.get(x, sort) != sort:
            fv = wf_formula(f, theory.has_rel)
        return f, fv, uh, ul
    if cls is AndIntro:
        cl, fl, uh1, ul1 = _check_node(p.left, theory, gamma, delta)
        cr, fr, uh2, ul2 = _check_node(p.right, theory, gamma, delta)
        return And(cl, cr), _merge(fl, fr), uh1 | uh2, ul1 | ul2
    if cls is AndElim:
        i = p.index
        if i not in (1, 2):
            raise UserError("projection index must be 1 or 2")
        c, fv, uh, ul = _check_node(p.body, theory, gamma, delta)
        if c.__class__ is not And:
            raise UserError(
                "conjunction elimination on " + formula_sexp(c))
        return (c.left if i == 1 else c.right), fv, uh, ul
    if cls is BotIntro:
        label = p.label
        if label not in delta:
            raise UserError(f"unknown label {label}")
        c, _, uh, ul = _check_node(p.body, theory, gamma, delta)
        want = delta[label][0]
        if not alpha_eq(c, want):
            raise UserError(
                "label " + label + " expects " + formula_sexp(want)
                + " but the subproof gives " + formula_sexp(c))
        return BOT, {}, uh, ul | {label}
    if cls is BotElim:
        label, f = p.label, p.formula
        if label in delta or label == KAPPA:
            raise UserError(f"bad label name {label}")
        fl = _check_label_formula(f, theory.has_rel)
        c, _, uh, ul = _check_node(p.body, theory, gamma,
                                   {**delta, label: (f, fl)})
        if c.__class__ is not Bot:
            raise UserError(
                "activation requires a proof of absurdity, got "
                + formula_sexp(c))
        return f, fl, uh, ul - {label}
    raise InternalError(f"bad proof node {p!r}")
