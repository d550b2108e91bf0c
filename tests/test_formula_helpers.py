"""The checker's formula helpers against two-pass references.

The library answers from the facts that each interned node carries, and
walks only to word an error. The references below walk every time: they are
the straightforward versions of `wf_formula` and `subst_var`, well-formedness
as a free-variable pass followed by a sort pass, and simultaneous
substitution that recomputes its capture set at every binder. They and the
references of the views `infer_sort`, `ind_free_vars`, `fv_formula` and
`polarity` are single-purpose walks that share no code with the library.
The tests compare the two sides on generated formulas, with clashes,
ill-sorted applications, unknown predicates and constants, `rel` atoms
outside a relativized signature and wrong arities.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mupcf
from mupcf.errors import InternalError, UserError
from mupcf.lambdamu import freshen
from mupcf.logic import (
    And, AndIntro, Atom, Ax, BOT, Bot, Forall, ForallIntro, IApp, IConst,
    IOTA, IVar, Id, Imp, ImpIntro, PREDICATES, SArrow, SCHEME_KINDS, SUCC,
    Sequent, THEORIES, ZERO, alpha_eq, arrow, check_proof, const_sort, f_neq, f_rel,
    fv_formula, ind_free_vars, ind_sexp, infer_sort, polarity, rel_pred,
    sort_sexp, subst_var, wf_formula,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# ---------------------------------------------------------------- references


def _ref_ind_free_vars(t):
    match t:
        case IVar(name, sort):
            return {name: sort}
        case IConst():
            return {}
        case IApp(fn, arg):
            out = _ref_ind_free_vars(fn)
            for n, s in _ref_ind_free_vars(arg).items():
                if out.setdefault(n, s) != s:
                    raise UserError(f"variable {n} used at two sorts")
            return out
    raise InternalError(f"bad individual {t!r}")


def _ref_fv_formula(f, bound=frozenset(), out=None):
    out = {} if out is None else out
    match f:
        case Atom(_, args):
            for t in args:
                for n, s in _ref_ind_free_vars(t).items():
                    if n not in bound and out.setdefault(n, s) != s:
                        raise UserError(f"variable {n} used at two sorts")
        case Imp(a, b) | And(a, b):
            _ref_fv_formula(a, bound, out)
            _ref_fv_formula(b, bound, out)
        case Forall(x, _, body):
            _ref_fv_formula(body, bound | {x}, out)
        case Bot():
            pass
        case _:
            raise InternalError(f"bad formula {f!r}")
    return out


def _ref_grammars(f):
    """Whether f is in the negative grammar, and whether in the positive."""
    match f:
        case Atom(p, _):
            pol = PREDICATES[p][0]
            return pol == "negative", pol == "positive"
        case Bot():
            return True, False
        case Imp(_, b) | Forall(_, _, b):
            return _ref_grammars(b)
        case And(a, b):
            (na, pa), (nb, pb) = _ref_grammars(a), _ref_grammars(b)
            return na and nb, pa or pb
    raise InternalError(f"bad formula {f!r}")


def _ref_infer_sort(t, env, clash=False):
    """The sort of t, or the first error left to right. With clash, one name
    at two sorts in an application is an error too, met once its function
    and argument are sorted (infer_sort's order)."""
    match t:
        case IVar(name, sort):
            if name in env and env[name] != sort:
                raise UserError(
                    f"variable {name} used at {sort_sexp(sort)} but declared "
                    f"at {sort_sexp(env[name])}")
            return sort
        case IConst():
            return const_sort(t)
        case IApp(fn, arg):
            fs = _ref_infer_sort(fn, env, clash)
            if not isinstance(fs, SArrow):
                raise UserError(
                    f"applied non-function individual {ind_sexp(fn)}")
            ags = _ref_infer_sort(arg, env, clash)
            if clash:
                _ref_ind_free_vars(t)
            if ags != fs.left:
                raise UserError(
                    f"sort mismatch: {ind_sexp(fn)} expects "
                    f"{sort_sexp(fs.left)}, got {ind_sexp(arg)} : "
                    f"{sort_sexp(ags)}")
            return fs.right
    raise InternalError(f"bad individual {t!r}")


def _ref_sort_pass(f, has_rel, env):
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
            sorts = [_ref_infer_sort(t, env) for t in args]
            if p == "neq" and sorts[0] != sorts[1]:
                raise UserError("inequality between different sorts")
            if p == "rel" and sorts[0] != IOTA:
                raise UserError("rel atom takes a base-sort individual")
        case Imp(a, b) | And(a, b):
            _ref_sort_pass(a, has_rel, env)
            _ref_sort_pass(b, has_rel, env)
        case Forall(x, sort, body):
            _ref_sort_pass(body, has_rel, {**env, x: sort})
        case _:
            raise InternalError(f"bad formula {f!r}")


def _ref_wf_formula(f, has_rel):
    fv = _ref_fv_formula(f)  # rejects one name at two sorts among frees
    _ref_sort_pass(f, has_rel, {})
    return fv


def _ref_ind_subst(t, mapping):
    match t:
        case IVar(name, _):
            return mapping.get(name, t)
        case IConst():
            return t
        case IApp(fn, arg):
            return IApp(_ref_ind_subst(fn, mapping),
                        _ref_ind_subst(arg, mapping))
    raise InternalError(f"bad individual {t!r}")


def _occurs(name, f):
    """Whether a variable called name occurs free in f, at any sort; it
    raises on no formula, well formed or not."""
    match f:
        case Atom(_, args):
            return any(_ind_occurs(name, t) for t in args)
        case Imp(a, b) | And(a, b):
            return _occurs(name, a) or _occurs(name, b)
        case Forall(x, _, body):
            return x != name and _occurs(name, body)
    return False


def _ind_occurs(name, t):
    match t:
        case IVar(n, _):
            return n == name
        case IApp(fn, arg):
            return _ind_occurs(name, fn) or _ind_occurs(name, arg)
    return False


def _ref_subst_formula(f, mapping):
    if not mapping:
        return f
    match f:
        case Bot():
            return f
        case Atom(p, args):
            return Atom(p, tuple([_ref_ind_subst(t, mapping) for t in args]))
        case Imp(a, b):
            return Imp(_ref_subst_formula(a, mapping),
                       _ref_subst_formula(b, mapping))
        case And(a, b):
            return And(_ref_subst_formula(a, mapping),
                       _ref_subst_formula(b, mapping))
        case Forall(x, sort, body):
            if x in mapping:
                mapping = {n: t for n, t in mapping.items() if n != x}
                if not mapping:
                    return f
            clash = set()  # free names of what replaces a name below x
            for n, t in mapping.items():
                if _occurs(n, body):
                    clash |= _ref_ind_free_vars(t).keys()
            if x in clash:
                avoid = clash | _ref_fv_formula(body).keys() | set(mapping)
                x2 = freshen(x, avoid)
                body = _ref_subst_formula(body, {x: IVar(x2, sort)})
                x = x2
            return Forall(x, sort, _ref_subst_formula(body, mapping))
    raise InternalError(f"bad formula {f!r}")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (UserError, InternalError) as ex:
        return type(ex).__name__, str(ex)


# ---------------------------------------------------------------- generators

_NAMES = ["x", "y", "z"]
_SORTS = [IOTA, arrow(IOTA, IOTA), arrow(arrow(IOTA, IOTA), IOTA)]


def _bad_const(rng):
    return rng.choice([IConst("q"), IConst("k", (IOTA,)), IConst("rec")])


def _ind(rng, sort, scope, depth, bad):
    """An individual of the given sort over scope (name -> sort); with
    probability bad at each node, something arbitrary instead."""
    if rng.random() < bad:
        r = rng.randrange(4)
        if r == 0:
            return IVar(rng.choice(_NAMES), rng.choice(_SORTS))
        if r == 1:
            return _bad_const(rng)
        if r == 2 and depth > 0:
            return IApp(_ind(rng, rng.choice(_SORTS), scope, depth - 1, bad),
                        _ind(rng, rng.choice(_SORTS), scope, depth - 1, bad))
        return rng.choice([ZERO, SUCC])
    vs = [IVar(n, s) for n, s in scope.items() if s == sort]
    if vs and (depth == 0 or rng.random() < 0.4):
        return rng.choice(vs)
    if sort == IOTA:
        if depth == 0 or rng.random() < 0.2:
            return ZERO
        r = rng.randrange(3)
        if r == 0:
            return IApp(SUCC, _ind(rng, IOTA, scope, depth - 1, bad))
        if r == 1:  # rec a x y n : a, at a = iota
            step = arrow(IOTA, IOTA, IOTA)
            return IApp(IApp(IApp(IConst("rec", (IOTA,)),
                                  _ind(rng, IOTA, scope, depth - 1, bad)),
                             _ind(rng, step, scope, depth - 1, bad)),
                        _ind(rng, IOTA, scope, depth - 1, bad))
        fn_sort = rng.choice(_SORTS[1:])
        return IApp(_ind(rng, arrow(fn_sort.left, IOTA), scope, depth - 1,
                         bad),
                    _ind(rng, fn_sort.left, scope, depth - 1, bad))
    if sort == arrow(IOTA, IOTA) and rng.random() < 0.3:
        return SUCC
    # k b a t : a -> b for t : b
    b = sort.right
    return IApp(IConst("k", (b, sort.left)),
                _ind(rng, b, scope, max(depth - 1, 0), bad))


def _atom(rng, scope, has_rel, bad):
    if rng.random() < bad:
        r = rng.randrange(5)
        t = _ind(rng, rng.choice(_SORTS), scope, 2, bad)
        if r == 0:
            return Atom("eq", (t, t))
        if r == 1:
            return Atom("neq", (t,) * rng.choice([1, 3]))
        if r == 2:
            return Atom("rel", (t, t))
        if r == 3:
            return Atom("rel", (t,))
        return Atom("neq", (t, _ind(rng, rng.choice(_SORTS), scope, 2, bad)))
    r = rng.randrange(5)
    if r == 0:
        return BOT
    if r == 1 and (has_rel or rng.random() < 0.2):
        return f_rel(_ind(rng, IOTA, scope, 3, bad))
    s = rng.choice(_SORTS)
    return f_neq(_ind(rng, s, scope, 3, bad), _ind(rng, s, scope, 3, bad))


def _formula(rng, scope, depth, has_rel, bad):
    if depth == 0 or rng.random() < 0.25:
        return _atom(rng, scope, has_rel, bad)
    r = rng.randrange(3)
    if r == 0:
        return Imp(_formula(rng, scope, depth - 1, has_rel, bad),
                   _formula(rng, scope, depth - 1, has_rel, bad))
    if r == 1:
        return And(_formula(rng, scope, depth - 1, has_rel, bad),
                   _formula(rng, scope, depth - 1, has_rel, bad))
    x, s = rng.choice(_NAMES), rng.choice(_SORTS)
    return Forall(x, s, _formula(rng, {**scope, x: s}, depth - 1, has_rel,
                                 bad))


def _case(seed):
    rng = random.Random(seed)
    frees = {n: rng.choice(_SORTS) for n in _NAMES if rng.random() < 0.6}
    has_rel = rng.random() < 0.5
    bad = rng.choice([0.0, 0.02, 0.08, 0.2])
    return _formula(rng, frees, 4, has_rel, bad), has_rel, rng, frees


# ---------------------------------------------------------------- wf_formula

_WF_MESSAGES = [
    "used at two sorts", "unknown predicate", "rel atom outside",
    "expects 2 argument(s)", "expects 1 argument(s)", "sort mismatch",
    "applied non-function", "unknown constant", "but declared at",
    "inequality between different sorts", "rel atom takes",
]


def _printed(outcome):
    kind, value = outcome
    if kind == "ok":
        return kind, [(n, sort_sexp(s)) for n, s in value.items()]
    return outcome


def _atoms(f):
    match f:
        case Atom():
            yield f
        case Imp(a, b) | And(a, b):
            yield from _atoms(a)
            yield from _atoms(b)
        case Forall(_, _, body):
            yield from _atoms(body)


def test_wf_formula_agrees_with_two_pass_reference():
    """wf_formula, and its views on the same formulas and their
    individuals."""
    seen = dict.fromkeys(_WF_MESSAGES, 0)
    ok = precedence = 0
    views = dict.fromkeys(["clash", "sort", "ind-error", "negative",
                           "positive"], 0)
    for seed in range(2500):
        f, has_rel, _, _ = _case(seed)
        want = _printed(_outcome(_ref_wf_formula, f, has_rel))
        got = _printed(_outcome(wf_formula, f, has_rel))
        assert got == want, (seed, f)
        assert _printed(_outcome(fv_formula, f)) \
            == _printed(_outcome(_ref_fv_formula, f)), (seed, f)
        atoms = list(_atoms(f))
        for t in (t for a in atoms for t in a.args):
            assert _printed(_outcome(ind_free_vars, t)) \
                == _printed(_outcome(_ref_ind_free_vars, t)), (seed, t)
            sort = _outcome(infer_sort, t)
            assert sort == _outcome(_ref_infer_sort, t, {}, True), (seed, t)
            views["sort" if sort[0] == "ok" else "clash"
                  if "two sorts" in sort[1] else "ind-error"] += 1
        if all(a.pred in PREDICATES for a in atoms):
            neg, pos = _ref_grammars(f)
            assert neg != pos, (seed, f)  # exactly one grammar holds
            assert polarity(f) == ("negative" if neg else "positive")
            views[polarity(f)] += 1
        if want[0] == "ok":
            ok += 1
            continue
        for m in seen:
            seen[m] += m in want[1]
        if "two sorts" in want[1] and _outcome(
                _ref_sort_pass, f, has_rel, {})[0] != "ok":
            precedence += 1  # a clash reported ahead of a sort error
    assert ok >= 800
    assert precedence >= 50
    assert all(n >= 10 for n in seen.values()), seen
    assert all(n >= 40 for n in views.values()), views


def test_two_clashes_report_the_one_in_the_function():
    """The generated formulas seldom hold two clashes in one individual:
    the function's is met first, as the references walk."""
    fn = IApp(IVar("x", arrow(IOTA, IOTA, IOTA)), IVar("x", IOTA))
    arg = IApp(IVar("y", arrow(IOTA, IOTA)), IVar("y", IOTA))
    t = IApp(fn, arg)
    f = f_neq(t, ZERO)
    want = ("UserError", "variable x used at two sorts")
    for got, ref in [((ind_free_vars, t), (_ref_ind_free_vars, t)),
                     ((infer_sort, t), (_ref_infer_sort, t, {}, True)),
                     ((wf_formula, f, True), (_ref_wf_formula, f, True))]:
        assert _outcome(*got) == _outcome(*ref) == want


# ------------------------------------------------------------ axiom schemes

# scheme -> its arguments: s a sort, f a formula, v a variable that may occur
# in the formula, w a variable kept out of it
_SCHEME_ARGS = {
    "refl": "s", "def-s": "sss", "def-k": "ss", "def-rec-0": "s",
    "def-rec-s": "s", "rel-k": "ss", "rel-s": "sss", "rel-rec": "s",
    "s-neq-0": "", "rel-0": "", "rel-succ": "",
    "leib": "fvw", "ind": "fv", "dc": "fvvv",
}


def test_scheme_args_agree_with_scheme_kinds():
    assert {n: k.replace("w", "v") for n, k in _SCHEME_ARGS.items()} \
        == SCHEME_KINDS


def _scheme_args(rng, theory, scheme):
    kinds = _SCHEME_ARGS[scheme]
    var_kinds = [k for k in kinds if k in "vw"]
    sigma = rng.choice(_SORTS)
    xs = [IVar(n, IOTA if i == 0 and rng.random() < 0.8 else sigma)
          for i, n in enumerate(rng.sample(_NAMES + ["u"], len(var_kinds)))]
    scope = {v.name: v.sort for v, k in zip(xs, var_kinds) if k == "v"}
    if rng.random() < 0.5:  # a scheme parameter
        scope["p"] = rng.choice(_SORTS)
    a = _formula(rng, scope, 3, theory.has_rel, 0.0)
    if scheme == "dc" and theory.has_rel:  # the guard the scheme requires
        a = And(rel_pred(xs[2], sigma), a)
    vs = iter(xs)
    return tuple(rng.choice(_SORTS) if k == "s" else a if k == "f"
                 else next(vs) for k in kinds)


def test_every_axiom_instance_is_closed_and_well_formed():
    """Theory.instantiate trusts its schemes to return closed, well-formed
    formulas; the schemes validate their own arguments."""
    made = {(t, n): 0 for t, th in THEORIES.items() for n in th.schemes}
    assert {n for _, n in made} == set(_SCHEME_ARGS)
    for seed in range(300):
        rng = random.Random(seed)
        for (t, n) in made:
            th = THEORIES[t]
            args = _scheme_args(rng, th, n)
            try:
                f = th.instantiate(n, args)
            except UserError:
                continue  # arguments the scheme rejects
            assert wf_formula(f, th.has_rel) == {}, (seed, t, n, args)
            made[t, n] += 1
    assert min(made.values()) >= 50, made


# ----------------------------------------------------------------- subst_var


def _binding(rng, frees):
    """A name and an individual to substitute for it."""
    n = rng.choice(_NAMES + ["w"])
    scope = {m: s for m, s in frees.items() if rng.random() < 0.7}
    if rng.random() < 0.1:  # an individual with a clash in it
        return n, IApp(IVar("y", arrow(IOTA, IOTA)), IVar("y", IOTA))
    return n, _ind(rng, frees.get(n, IOTA), scope, 2, 0.0)


def test_subst_var_agrees_with_per_binder_reference():
    unchanged = 0
    for seed in range(2500):
        f, _, rng, frees = _case(seed)
        x, t = _binding(rng, frees)
        want = _outcome(_ref_subst_formula, f, {x: t})
        got = _outcome(subst_var, f, x, t)
        assert got == want, (seed, f, x, t)
        free = _outcome(_ref_wf_formula, f, True)
        if free[0] != "ok" or x in free[1]:
            continue
        # f is well formed and x does not occur free in it: nothing is
        # replaced, so no binder is renamed and f itself comes back
        assert got[1] is f, (seed, f, x, t)
        unchanged += 1
    assert unchanged >= 500, unchanged


def _foralls(f):
    cls = f.__class__
    if cls is Imp or cls is And:
        return _foralls(f.left) + _foralls(f.right)
    if cls is Forall:
        return [f] + _foralls(f.body)
    return []


def _nested(f, x, t, y, u):
    return subst_var(subst_var(f, x, t), y, u)


def test_nested_subst_var_is_the_simultaneous_substitution_of_dc():
    """The dc schemes substitute for two names at once by nesting subst_var,
    as {y: w x, z: w (S x)} with w fresh and {z: y, x: x'} with x' fresh.
    The inner substitution brings in no name that the outer one replaces,
    so the two calls build the formula the simultaneous reference builds,
    renamed binders included, or raise its error. (Where a dc variable is
    named like a fresh name, such as z1, a renamed binder can get another
    number, alpha-equivalently; the generated names are not numbered.)"""
    same = renamed = failed = 0
    for seed in range(6000):
        b, _, rng, _ = _case(seed)
        sigma = rng.choice(_SORTS)
        w, x = IVar("w", arrow(IOTA, sigma)), IVar("x", IOTA)
        for (n1, t1), (n2, t2) in [
                (("y", IApp(w, x)), ("z", IApp(w, IApp(SUCC, x)))),
                (("z", IVar("y", sigma)), ("x", IVar("x'", IOTA)))]:
            want = _outcome(_ref_subst_formula, b, {n1: t1, n2: t2})
            got = _outcome(_nested, b, n1, t1, n2, t2)
            assert got == want, (seed, b, n1, n2)
            if want[0] != "ok":
                failed += 1
                continue
            same += 1
            renamed += ([c.var for c in _foralls(want[1])]
                        != [c.var for c in _foralls(b)])
    assert same >= 5500 and renamed >= 1500 and failed >= 50, \
        (same, renamed, failed)


def test_subst_var_returns_unchanged_subformulas_as_they_are():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    left = Forall("z", IOTA, f_neq(IVar("z", IOTA), y))
    f = And(left, f_neq(x, ZERO))
    g = subst_var(f, "x", IApp(SUCC, ZERO))
    assert g == And(left, f_neq(IApp(SUCC, ZERO), ZERO))
    assert g.left is left


def test_subst_var_renames_a_binder_only_where_it_would_capture():
    """A binder free in the substituted individual is renamed only when the
    name substituted for occurs below it, and then away from that
    individual, that name and the body."""
    x, y, y1 = IVar("x", IOTA), IVar("y", IOTA), IVar("y1", IOTA)
    right = Forall("y", IOTA, f_neq(y, y))
    g = subst_var(And(f_neq(x, x), right), "x", y)
    assert g == And(f_neq(y, y), right) and g.right is right
    f = Forall("y", IOTA, And(f_neq(x, y), f_neq(y1, y)))
    y2 = IVar("y2", IOTA)
    assert subst_var(f, "x", y) \
        == Forall("y2", IOTA, And(f_neq(y, y2), f_neq(y1, y2)))


# ---------------------------------------------------------------- alpha_eq


def _canon_ind(t, bound):
    """t with each bound variable replaced by its de Bruijn index."""
    match t:
        case IVar(name, sort):
            for i, n in enumerate(reversed(bound)):
                if n == name:
                    return ("bound", i, sort)
            return ("free", name, sort)
        case IConst():
            return ("const", t)
        case IApp(fn, arg):
            return ("app", _canon_ind(fn, bound), _canon_ind(arg, bound))
    raise InternalError(f"bad individual {t!r}")


def _canon(f, bound=()):
    """De Bruijn form of f: alpha-equivalent formulas, and only those, have
    equal forms."""
    match f:
        case Bot():
            return ("bot",)
        case Atom(p, args):
            return ("atom", p, tuple(_canon_ind(t, bound) for t in args))
        case Imp(a, b):
            return ("imp", _canon(a, bound), _canon(b, bound))
        case And(a, b):
            return ("and", _canon(a, bound), _canon(b, bound))
        case Forall(x, sort, body):
            return ("all", sort, _canon(body, bound + (x,)))
    raise InternalError(f"bad formula {f!r}")


def _rename_binders(f, draw):
    """f with every binder renamed to draw(), its bound occurrences
    following; the result need not be alpha-equivalent to f when a drawn
    name captures a free variable or another binder's."""
    def ind(t, ren):
        match t:
            case IVar(name, sort):
                return IVar(ren.get(name, name), sort)
            case IApp(fn, arg):
                return IApp(ind(fn, ren), ind(arg, ren))
        return t

    def go(f, ren):
        match f:
            case Atom(p, args):
                return Atom(p, tuple(ind(t, ren) for t in args))
            case Imp(a, b) | And(a, b):
                return type(f)(go(a, ren), go(b, ren))
            case Forall(x, sort, body):
                y = draw()
                return Forall(y, sort, go(body, {**ren, x: y}))
        return f

    return go(f, {})


def _mutate(f, rng):
    """f with one node changed: a connective, a binder's sort, a variable's
    name or a subformula replaced by bot."""
    nodes = []

    def collect(f, path):
        nodes.append(path)
        match f:
            case Imp(a, b) | And(a, b):
                collect(a, path + ("left",))
                collect(b, path + ("right",))
            case Forall(_, _, body):
                collect(body, path + ("body",))

    collect(f, ())
    path = rng.choice(nodes)

    def at(f, path):
        if path:
            child = at(getattr(f, path[0]), path[1:])
            match f:
                case Forall(x, sort, _):
                    return Forall(x, sort, child)
            fields = {"left": f.left, "right": f.right, path[0]: child}
            return type(f)(fields["left"], fields["right"])
        match f:
            case Imp(a, b):
                return And(a, b)
            case And(a, b):
                return Imp(a, b)
            case Forall(x, sort, body):
                if rng.random() < 0.5:
                    return Forall(x, rng.choice(_SORTS), body)
                return Forall(rng.choice(_NAMES), sort, body)
            case Atom(p, args) if args and isinstance(args[0], IVar):
                v = args[0]
                return Atom(p, (IVar(rng.choice(_NAMES), v.sort),) + args[1:])
        return BOT

    return at(f, path)


def test_alpha_eq_agrees_with_de_bruijn_forms():
    equal = unequal = 0
    for seed in range(2500):
        f, _, rng, _ = _case(seed)
        fresh = (f"b{i}" for i in itertools.count())
        renamed = _rename_binders(f, fresh.__next__)
        # distinct names that occur nowhere else capture nothing
        assert _canon(renamed) == _canon(f)
        for g in (renamed,
                  _rename_binders(f, lambda: rng.choice(_NAMES)),
                  _mutate(f, rng)):
            want = _canon(f) == _canon(g)
            for _ in range(2):  # the second round may answer from the memo
                assert alpha_eq(f, g) == want, (seed, f, g)
                assert alpha_eq(g, f) == want, (seed, g, f)
            equal += want
            unequal += not want
    assert equal >= 4000 and unequal >= 1000, (equal, unequal)


def test_alpha_eq_levels_survive_a_rebound_name():
    """A name bound twice must not give the next binder the level of the
    inner one."""
    v = lambda n: IVar(n, IOTA)  # noqa: E731
    f = Forall("x", IOTA, Forall("x", IOTA, Forall("y", IOTA,
                                                   f_neq(v("x"), v("x")))))
    for b, c, want in [("b", "b", True), ("c", "b", False),
                       ("b", "c", False), ("c", "c", False)]:
        g = Forall("a", IOTA, Forall("b", IOTA, Forall("c", IOTA,
                                                       f_neq(v(b), v(c)))))
        assert alpha_eq(f, g) == want, (b, c)
        assert alpha_eq(g, f) == want, (b, c)


# ---------------------------------------------------- checker diagnostics

_FN = arrow(IOTA, IOTA)


@pytest.mark.parametrize("proof,message", [
    # the body concludes a formula about x : iota, bound at iota -> iota
    (ForallIntro("x", _FN, ImpIntro("h", f_neq(IVar("x", IOTA), ZERO),
                                    Id("h"))),
     "variable x used at iota but declared at (-> iota iota)"),
    # the conjunction uses x at two sorts and y against its binder; the
    # clash is reported although the binder error comes first
    (ForallIntro("y", IOTA, AndIntro(
        ImpIntro("h", f_neq(IApp(IVar("y", _FN), IVar("x", IOTA)), ZERO),
                 Id("h")),
        ImpIntro("g", f_neq(IVar("x", _FN), SUCC), Id("g")))),
     "variable x used at two sorts"),
    (Ax("leib", (f_neq(IApp(ZERO, IVar("a", IOTA)), ZERO), IVar("a", IOTA),
                 IVar("b", IOTA))),
     "applied non-function individual 0"),
], ids=["forall-intro-wrong-sort", "and-intro-clash", "bad-leib-formula"])
def test_check_messages_through_well_formedness(proof, message):
    with pytest.raises(UserError) as ex:
        check_proof(proof, THEORIES["paw"], Sequent(concl=BOT))
    assert str(ex.value) == message


# ------------------------------------------------------ constant sorts


def test_first_extraction_builds_few_arrow_sorts():
    """Every constant instance shares one sort object, so a fresh process
    builds few arrow sorts even on its first extraction. Sorts are
    interned, so this counts new arrow nodes: each computes its facts once,
    and a constructor that finds an equal live node builds nothing. An
    individual's sort is one of its facts, so the count starts before the
    file is read."""
    script = f"""
from mupcf import extract, logic
from mupcf.format import parse_file
built = []
facts = logic.SArrow._facts
def counting(self):
    built.append(1)
    facts(self)
logic.SArrow._facts = counting
ws = parse_file({str(CORPUS / "add0-total.proof")!r})
goal, proof = next(iter(ws.proofs.values()))
extract.extract_program(proof, ws.theory, goal)
print(len(built))
"""
    src = str(Path(mupcf.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 60
