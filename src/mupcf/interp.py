"""Interpretation of proofs as control terms.

Formulas map to simple types: absurdity and inequalities to the empty type,
the realizability atom to nat, implication to arrow, conjunction to product;
quantifiers and individuals are erased. Proof rules map one-for-one onto the
term formers, with context labels becoming mu labels. Each axiom instance
maps to a fixed realizer program; the two axiom families that only exist to
keep the unrelativized theories interpretable (numeric induction and choice
before relativization) get well-typed but computationally empty realizers.
"""

from functools import lru_cache

from .errors import InternalError, UserError
from .lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, PRED_T, Pair, Proj, SUCC_T, TArr,
    TBOT, TProd, lams, lapp, mk_barrec, mk_fix, mk_ifz, mk_nil, mk_rec,
    mk_omega, t_list, tarr, typecheck, zero_term,
)
from .logic import (
    And, Atom, Ax, AndElim, AndIntro, BaseSort, Bot, BotElim, BotIntro,
    CONSTANTS, Forall, ForallElim, ForallIntro, IConst, Id, Imp, ImpElim,
    ImpIntro, KAPPA, SArrow, check_proof,
)


def interp_type(f):
    """The simple type a proof of f is interpreted at."""
    cls = f.__class__
    if cls is Imp:
        return TArr(interp_type(f.left), interp_type(f.right))
    if cls is Atom:
        if f.pred == "neq":
            return TBOT
        if f.pred == "rel":
            return NAT
    elif cls is Bot:
        return TBOT
    elif cls is Forall:
        return interp_type(f.body)
    elif cls is And:
        return TProd(interp_type(f.left), interp_type(f.right))
    raise InternalError(f"bad formula {f!r}")


def rel_type(sort):
    """Type of realizability evidence for an individual of the given sort."""
    cls = sort.__class__
    if cls is BaseSort:
        return NAT
    if cls is SArrow:
        return TArr(rel_type(sort.left), rel_type(sort.right))
    raise InternalError(f"bad sort {sort!r}")


def _identity_at(ty):
    if not (isinstance(ty, TArr) and ty.left == ty.right):
        raise InternalError("axiom realizer shape mismatch")
    return Lam("z", ty.left, LVar("z"))


def _dc_realizer_rel(a_formula, z_sort):
    ia = interp_type(a_formula)
    r_t = rel_type(z_sort)
    a_ty = tarr(NAT, r_t, TArr(ia, TBOT), ia)
    b_ty = TArr(TArr(NAT, ia), TBOT)
    s = LVar("s")
    len_s = Proj(1, s)
    prev = lapp(mk_ifz(r_t), len_s, zero_term(r_t),
                Proj(1, LApp(Proj(2, s), LApp(PRED_T, len_s))))
    d = lams([("s", t_list(ia)), ("k", TArr(ia, TBOT))],
             lapp(LVar("a"), len_s, prev, LVar("k")))
    return lams([("a", a_ty), ("b", b_ty)],
                lapp(mk_barrec(ia, TBOT), d, LVar("b"), mk_nil(ia)))


def const_realizer(c):
    """The program of a constant: the realizer of its evidence axiom, and
    what the constant runs as inside an individual."""
    ts = [rel_type(s) for s in c.sort_args]
    match c.name:
        case "0":
            return Num(0)
        case "S":
            return SUCC_T
        case "k":
            return lams([("x", ts[0]), ("y", ts[1])], LVar("x"))
        case "s":
            ra, rb, rc = ts
            return lams(
                [("x", tarr(ra, rb, rc)), ("y", TArr(ra, rb)), ("z", ra)],
                lapp(LVar("x"), LVar("z"), LApp(LVar("y"), LVar("z"))))
        case "rec":
            return mk_rec(*ts)
    raise InternalError(f"no realizer for constant {c.name}")


# evidence axiom name -> its constant
_REL_CONSTANTS = {ax: c for c, (ax, _) in CONSTANTS.items()}


@lru_cache(maxsize=256)
def axiom_realizer(theory, name, args):
    # a bounded pure memo, like Theory.instantiate: terms are immutable
    inst = theory.instantiate(name, args)
    if name in _REL_CONSTANTS:
        return const_realizer(IConst(_REL_CONSTANTS[name], args))
    match name:
        case "refl" | "leib" | "def-s" | "def-k" | "def-rec-0" | "def-rec-s":
            return _identity_at(interp_type(inst))
        case "s-neq-0":
            if theory.has_rel:
                return Lam("x", NAT, mk_omega(TBOT))
            return mk_omega(TBOT)
        case "ind":
            ia = interp_type(args[0])
            if theory.has_rel:
                return mk_rec(ia)
            # never run: proofs in the unrelativized theories are typed only
            return lams([("a", ia), ("f", TArr(ia, ia))],
                        LApp(mk_fix(ia), LVar("f")))
        case "dc":
            if theory.has_rel:
                return _dc_realizer_rel(args[0], args[3].sort)
            return _identity_at(interp_type(inst))
    raise InternalError(f"no realizer for axiom {name}")


@lru_cache(maxsize=256)
def interp_proof(proof, theory, goal):
    """Translate a checked proof into a term. Hypothesis names become term
    variables at the types of their formulas, labels become mu labels; the
    output channel label stays reserved for extraction. The term is
    typechecked once, here, in the contexts of interp_envs: a term that is
    not of type interp_type(goal.concl) is an InternalError, so callers
    trust the type of what this returns. A bounded pure memo, like
    logic.check_proof: terms are immutable, and a refused proof raises
    again on every call."""
    # the translation trusts the proof; on a relativized proof this check is
    # the soundness check of relativization
    check_proof(proof, theory, goal)

    def go(p):
        cls = p.__class__
        if cls is ImpElim:
            return LApp(go(p.fn), go(p.arg))
        if cls is ForallElim or cls is ForallIntro:
            return go(p.body)
        if cls is Ax:
            return axiom_realizer(theory, p.name, p.args)
        if cls is ImpIntro:
            return Lam(p.hyp, interp_type(p.formula), go(p.body))
        if cls is Id:
            return LVar(p.hyp)
        if cls is AndIntro:
            return Pair(go(p.left), go(p.right))
        if cls is AndElim:
            return Proj(p.index, go(p.body))
        if cls is BotIntro:
            return Named(p.label, go(p.body))
        if cls is BotElim:
            return Mu(p.label, interp_type(p.formula), go(p.body))
        raise InternalError(f"bad proof node {p!r}")

    t = go(proof)
    try:
        ty = typecheck(t, *interp_envs(goal))
    except UserError as e:
        raise InternalError(f"interpretation is ill-typed: {e}") from None
    if ty != interp_type(goal.concl):
        raise InternalError("interpretation has the wrong type")
    return t


def interp_envs(goal):
    """Typing contexts for the interpretation of a proof of goal: a goal
    has no hypotheses and no labels, so only the reserved output channel, at
    nat."""
    return {}, {KAPPA: NAT}
