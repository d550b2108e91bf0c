"""Witness extraction for provable statements of the form forall x exists y
(t = u).

The pipeline: strip the double negation that the exists/= encodings leave on
the matrix, relativize the proof, compile it to a control term, then wrap it
with a catch on the reserved output channel.  Running the wrapped program on
a numeral input either escapes through the channel with a witness numeral or
runs out of fuel.  Witnesses for base-sort equations are checked by evaluating
both sides; higher-sort equations are reported unverified.
"""

from .errors import FuelExhausted, InternalError, UserError
from .interp import const_realizer, interp_proof, rel_type
from .lambdamu import (
    LApp, Lam, LVar, Mu, NAT, Named, Node, Num, TArr, eval_nat,
    freshen, typecheck,
)
from .logic import (
    Atom, Bot, Forall, ForallElim, ForallIntro, IApp, IConst, IOTA, IVar, Id,
    Imp, ImpElim, ImpIntro, Individual, KAPPA, Sequent, Sort, collect_names,
    f_not, formula_sexp, ind_free_vars, ind_sexp, infer_sort, sort_sexp,
)
# not called here (rel_proof checks the input), but bench/spans.py wraps it
from .logic import check_proof  # noqa: F401
from .relativize import rel_proof

PASS = "pass"
FAIL = "fail"
UNVERIFIABLE = "unverifiable"
TIMEOUT = "fail-with-timeout"


class Pi02Goal(Node):
    """Shape of a conclusion forall x exists y (t = u), after desugaring."""
    x: str
    x_sort: Sort
    y: str
    lhs: Individual
    rhs: Individual
    eq_sort: Sort
    prepared: bool  # True when the matrix double negation is already gone


def pi02_goal(concl):
    """Decompose a conclusion into its input/witness/equation parts.

    Accepts both the raw desugaring forall x not forall y not not (t != u)
    and the prepared form forall x not forall y (t != u)."""
    shape = "forall x exists y (t = u)"
    match concl:
        case Forall(x, xs, Imp(Forall(y, ys, body), Bot())):
            pass
        case _:
            raise UserError(
                f"conclusion is not of the shape {shape}: "
                f"{formula_sexp(concl)}"
            )
    if ys != IOTA:
        raise UserError(
            f"witness variable {y} must range over {sort_sexp(IOTA)}, "
            f"got {sort_sexp(ys)}"
        )
    if x == y:
        raise UserError("input and witness variables must be distinct")
    match body:
        case Atom("neq", (lhs, rhs)):
            prepared = True
        case Imp(Imp(Atom("neq", (lhs, rhs)), Bot()), Bot()):
            prepared = False
        case _:
            raise UserError(
                f"conclusion is not of the shape {shape}: the matrix "
                f"{formula_sexp(body)} is not an equation"
            )
    allowed = {x: xs, y: IOTA}
    for side in (lhs, rhs):
        for n, s in ind_free_vars(side).items():
            if n not in allowed or allowed[n] != s:
                raise UserError(
                    f"equation side {ind_sexp(side)} mentions {n}, which is "
                    f"not the input or the witness"
                )
    eq_sort = infer_sort(lhs)
    if infer_sort(rhs) != eq_sort:
        raise UserError("equation sides have different sorts")
    return Pi02Goal(x, xs, y, lhs, rhs, eq_sort, prepared)


def prepare_goal(proof, goal):
    """Strip the matrix double negation: from a proof of
    forall x not forall y not not (t != u), derive one of
    forall x not forall y (t != u).  Pass-through when already stripped."""
    g = pi02_goal(goal.concl)
    if g.prepared:
        return proof, goal
    neq = Atom("neq", (g.lhs, g.rhs))
    avoid = collect_names(proof) | {g.x, g.y}
    h = freshen("h", avoid)
    nn = freshen("g", avoid | {h})
    xv, yv = IVar(g.x, g.x_sort), IVar(g.y, IOTA)
    # For each y, turn a hypothetical t != u into the doubly negated matrix
    # the original proof expects.
    inner = ForallIntro(
        g.y, IOTA,
        ImpIntro(nn, f_not(neq),
                 ImpElim(Id(nn), ForallElim(Id(h), yv))))
    stripped = ForallIntro(
        g.x, g.x_sort,
        ImpIntro(h, Forall(g.y, IOTA, neq),
                 ImpElim(ForallElim(proof, xv), inner)))
    concl = Forall(g.x, g.x_sort, f_not(Forall(g.y, IOTA, neq)))
    return stripped, Sequent(concl=concl)


def extract_program(proof, theory, goal):
    """Compile a closed proof of forall x exists y (t = u) into a program
    from input evidence to witness numerals.

    The result is lam d. mu kappa. M d (lam w. [kappa] w) where M is the
    compiled relativized proof; it typechecks at |r_sigma| -> nat, which is
    nat -> nat when the input sort is the base sort.

    The proof is checked once, by rel_proof on the stripped proof, where the
    input is the first subproof the checker walks; interp_proof then checks
    the relativized proof. M is closed, as it was checked in an empty
    context, so the names d and w capture nothing. Both stages answer from
    their memos when the same proof comes again; the program around M is
    built and typechecked on every call, and kept by no memo."""
    g = pi02_goal(goal.concl)
    stripped, sgoal = prepare_goal(proof, goal)
    rpf, rtheory, rgoal = rel_proof(stripped, theory, sgoal)
    m = interp_proof(rpf, rtheory, rgoal)
    e = Lam("d", rel_type(g.x_sort),
            Mu(KAPPA, NAT,
               LApp(LApp(m, LVar("d")),
                    Lam("w", NAT, Named(KAPPA, LVar("w"))))))
    want = TArr(rel_type(g.x_sort), NAT)
    got = typecheck(e)
    if got != want:
        raise InternalError("extracted program has the wrong type")
    return e


def individual_to_term(t, evidence=None):
    """Embed an individual as a program of its sort's evidence type. Its free
    variables must be bound to evidence terms in the evidence mapping."""
    match t:
        case IVar(name, _):
            if evidence is None or name not in evidence:
                raise UserError(f"individual has a free variable: {name}")
            return evidence[name]
        case IConst():
            return const_realizer(t)
        case IApp(fn, arg):
            return LApp(individual_to_term(fn, evidence),
                        individual_to_term(arg, evidence))
    raise InternalError(f"bad individual {t!r}")


def verify_witness(goal, n, m, fuel):
    """Check an input/witness pair against the goal equation by evaluating
    both sides with the numerals n and m as the evidence for the input and
    the witness.  Higher-sort equations are not decided and come back
    unverifiable."""
    if goal.eq_sort != IOTA:
        return UNVERIFIABLE
    evidence = {goal.x: Num(n), goal.y: Num(m)}
    try:
        vl, _ = eval_nat(individual_to_term(goal.lhs, evidence), fuel)
        vr, _ = eval_nat(individual_to_term(goal.rhs, evidence), fuel)
    except FuelExhausted:
        return TIMEOUT
    return PASS if vl == vr else FAIL


def run_extraction(proof, theory, goal, inputs, fuel):
    """Extract and run the program on each input, verifying every witness.
    Returns the program and one row per input: a dict of the input, the
    witness (None on a timeout), the verdict and the steps taken.

    Inputs must range over the base sort, where evidence for an input n is
    the numeral n itself."""
    g = pi02_goal(goal.concl)
    if g.x_sort != IOTA:
        raise UserError(
            "can only run extraction for inputs at the base sort; "
            f"got {sort_sexp(g.x_sort)}"
        )
    e = extract_program(proof, theory, goal)
    rows = []
    for n in inputs:
        try:
            m, steps = eval_nat(LApp(e, Num(n)), fuel)
        except FuelExhausted as ex:
            m, verdict, steps = None, TIMEOUT, ex.steps
        else:
            verdict = verify_witness(g, n, m, fuel)
        rows.append({"input": n, "witness": m, "verdict": verdict,
                     "steps": steps})
    return e, rows
