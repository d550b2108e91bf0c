"""Interpretation of proofs as control terms.

Formulas map to simple types: absurdity and inequalities to the empty type,
the realizability atom to nat, implication to arrow, conjunction to product;
quantifiers and individuals are erased. Proof rules map one-for-one onto the
term formers, with context labels becoming mu labels. Axiom instances map to
fixed realizer programs; the two axiom families that only exist to keep the
unrelativized theories interpretable (numeric induction and choice before
relativization) get well-typed but computationally empty realizers.
"""

from .errors import InternalError
from .lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Num, PRED_T, Pair, Proj, SUCC_T, TArr,
    TBOT, TProd, lams, lapp, mk_barrec, mk_fix, mk_ifz, mk_ind, mk_len,
    mk_nil, mk_rec, mk_omega, t_list, tarr, zero_term,
)
from .logic import (
    And, Atom, Ax, AndElim, AndIntro, BaseSort, Bot, BotElim, BotIntro,
    Forall, ForallElim, ForallIntro, Id, Imp, ImpElim, ImpIntro, KAPPA,
    SArrow, check_proof,
)


def interp_type(f):
    """The simple type a proof of f is interpreted at."""
    match f:
        case Bot():
            return TBOT
        case Atom("neq", _):
            return TBOT
        case Atom("rel", _):
            return NAT
        case Imp(a, b):
            return TArr(interp_type(a), interp_type(b))
        case And(a, b):
            return TProd(interp_type(a), interp_type(b))
        case Forall(_, _, b):
            return interp_type(b)
    raise InternalError(f"bad formula {f!r}")


def rel_type(sort):
    """Type of realizability evidence for an individual of the given sort."""
    match sort:
        case BaseSort():
            return NAT
        case SArrow(a, b):
            return TArr(rel_type(a), rel_type(b))
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
    len_s = LApp(mk_len(ia), s)
    prev = lapp(mk_ifz(r_t), len_s, zero_term(r_t),
                Proj(1, lapp(mk_ind(ia), s, LApp(PRED_T, len_s))))
    d = lams([("s", t_list(ia)), ("k", TArr(ia, TBOT))],
             lapp(LVar("a"), len_s, prev, LVar("k")))
    return lams([("a", a_ty), ("b", b_ty)],
                lapp(mk_barrec(ia, TBOT), d, LVar("b"), mk_nil(ia)))


def axiom_realizer(theory, name, args):
    inst = theory.instantiate(name, args)
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
        case "rel-0":
            return Num(0)
        case "rel-succ":
            return SUCC_T
        case "rel-k":
            ra, rb = rel_type(args[0]), rel_type(args[1])
            return lams([("x", ra), ("y", rb)], LVar("x"))
        case "rel-s":
            ra, rb, rc = (rel_type(s) for s in args)
            return lams(
                [("x", tarr(ra, rb, rc)), ("y", TArr(ra, rb)), ("z", ra)],
                lapp(LVar("x"), LVar("z"), LApp(LVar("y"), LVar("z"))))
        case "rel-rec":
            return mk_rec(rel_type(args[0]))
        case "dc":
            if theory.has_rel:
                return _dc_realizer_rel(args[0], args[3].sort)
            return _identity_at(interp_type(inst))
    raise InternalError(f"no realizer for axiom {name}")


def interp_proof(proof, theory, goal):
    """Translate a checked proof into a term. Hypothesis names become free
    term variables at the types of their formulas, labels become free mu
    labels; the output channel label stays reserved for extraction."""
    # the translation trusts the proof; on a relativized proof this check is
    # the soundness check of relativization
    check_proof(proof, theory, goal)
    realizers = {}  # (name, args) -> realizer term, for this call only

    def go(p):
        match p:
            case Id(h):
                return LVar(h)
            case Ax(name, args):
                key = (name, args)
                if key not in realizers:
                    realizers[key] = axiom_realizer(theory, name, args)
                return realizers[key]
            case ImpIntro(h, f, b):
                return Lam(h, interp_type(f), go(b))
            case ImpElim(fn, arg):
                return LApp(go(fn), go(arg))
            case AndIntro(l, r):
                return Pair(go(l), go(r))
            case AndElim(i, b):
                return Proj(i, go(b))
            case ForallIntro(_, _, b) | ForallElim(b, _):
                return go(b)
            case BotIntro(label, b):
                return Named(label, go(b))
            case BotElim(label, f, b):
                return Mu(label, interp_type(f), go(b))
        raise InternalError(f"bad proof node {p!r}")

    return go(proof)


def interp_envs(goal):
    """Typing contexts for the interpretation of a proof of goal: hypothesis
    types, label types, and the reserved output channel at nat."""
    env = {h: interp_type(f) for h, f in goal.hyps}
    lenv = {l: interp_type(f) for l, f in goal.labels}
    lenv[KAPPA] = NAT
    return env, lenv
