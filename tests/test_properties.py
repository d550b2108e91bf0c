"""Cross-module invariants, driven by seeded random generation."""

import random

from hypothesis import given, settings, strategies as st

from mupcf.cps import LArr, cps_term, cps_type, typecheck_lam
from mupcf.format import formula_sexp, parse_source, term_sexp
from mupcf.interp import interp_proof
from mupcf.lambdamu import (
    NAT, Num, eval_nat, lapp, mk_ife, mk_ifl, typecheck,
)
from mupcf.logic import (
    And, BOT, Forall, IApp, IOTA, IVar, Imp, Sequent, SUCC, THEORIES, ZERO,
    check_proof, f_neq, f_rel, fv_formula, polarity,
)
from mupcf.relativize import rel_formula, rel_proof

import corpus_files
from reference import whnf_step
from termgen import gen_term, rand_type

_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def _formula(rng, scope, depth, rel_ok=True):
    """A formula over neq (and optionally rel) atoms, closed when the scope
    starts empty. The relativization inputs must be rel-free."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return BOT
        t = rng.choice(scope) if scope and rng.random() < 0.7 else ZERO
        if kind == 1 and rel_ok:
            return f_rel(t)
        u = IApp(SUCC, rng.choice(scope)) if scope else IApp(SUCC, ZERO)
        return f_neq(t, u) if kind == 2 else f_neq(u, t)
    kind = rng.randrange(3)
    if kind == 0:
        return Imp(_formula(rng, scope, depth - 1, rel_ok),
                   _formula(rng, scope, depth - 1, rel_ok))
    if kind == 1:
        return And(_formula(rng, scope, depth - 1, rel_ok),
                   _formula(rng, scope, depth - 1, rel_ok))
    v = rng.choice(["x", "y", "z"])
    return Forall(v, IOTA,
                  _formula(rng, scope + [IVar(v, IOTA)], depth - 1, rel_ok))


# ---------------------------------------------------------- relativization

@given(st.integers(0, 2 ** 32 - 1))
@_SETTINGS
def test_relativization_preserves_polarity_exactly(seed):
    rng = random.Random(seed)
    f = _formula(rng, [], 4, rel_ok=False)
    assert polarity(rel_formula(f)) == polarity(f)


@given(st.integers(0, 2 ** 32 - 1))
@_SETTINGS
def test_relativization_preserves_free_variables(seed):
    rng = random.Random(seed)
    f = _formula(rng, [IVar("a", IOTA)], 4, rel_ok=False)
    assert fv_formula(rel_formula(f)) == fv_formula(f)


def _shape(p):
    kids = [v for v in vars(p).values() if hasattr(v, "__dataclass_fields__")]
    return (type(p).__name__,
            tuple(_shape(k) for k in kids if type(k).__module__.endswith("logic")))


def test_quantifier_free_proofs_relativize_to_themselves():
    for name in ("exfalso", "dne", "peirce", "and-comm"):
        e = corpus_files.entry(name)
        pr, rth, rgoal = rel_proof(e.proof, THEORIES[e.theory], e.goal)
        assert rgoal.concl == e.goal.concl
        assert _shape(pr) == _shape(e.proof)
        check_proof(pr, rth, rgoal)


# ------------------------------------------------------------ surface form

@given(st.integers(0, 2 ** 32 - 1))
@_SETTINGS
def test_parse_inverts_print_on_formulas(seed):
    rng = random.Random(seed)
    f = _formula(rng, [], 4)
    src = f"(proof p (goal {formula_sexp(f)}) (id h))"
    goal, _ = parse_source(src).proofs["p"]
    assert goal.concl == f


@given(st.integers(0, 2 ** 32 - 1))
@_SETTINGS
def test_parse_inverts_print_on_programs(seed):
    rng = random.Random(seed)
    t = gen_term(rng, rand_type(rng, 3), depth=5)
    ws = parse_source(f"(term t {term_sexp(t)})")
    assert ws.terms["t"] == t


# ------------------------------------------------------------- reduction

@given(st.integers(0, 2 ** 32 - 1))
@_SETTINGS
def test_subject_reduction_fuzz(seed):
    rng = random.Random(seed)
    ty = rand_type(rng, 3)
    t = gen_term(rng, ty, depth=5)
    cur = t
    for _ in range(100):
        nxt = whnf_step(cur)
        if nxt is None:
            break
        assert typecheck(nxt) == ty
        cur = nxt


@given(st.integers(0, 2 ** 32 - 1))
@_SETTINGS
def test_cps_preserves_typing_fuzz(seed):
    rng = random.Random(seed)
    ty = rand_type(rng, 3)
    t = gen_term(rng, ty, depth=5)
    assert typecheck_lam(cps_term(t), {}) == LArr(cps_type(ty))


# ------------------------------------------------------- branch selectors

def test_selectors_exhaustively():
    def ev(t):
        return eval_nat(t, 10 ** 5)[0]

    ife, ifl = mk_ife(NAT), mk_ifl(NAT)
    for m in range(16):
        for n in range(16):
            picked = ev(lapp(ife, Num(m), Num(n), Num(1), Num(0)))
            assert picked == (1 if m == n else 0), (m, n)
            picked = ev(lapp(ifl, Num(m), Num(n), Num(1), Num(0)))
            assert picked == (1 if m < n else 0), (m, n)


# ------------------------------------------------------ quantifier erasure

def test_interpretation_erases_forall_intro():
    e = corpus_files.entry("succ-total")
    th = THEORIES[e.theory]
    root = e.proof
    whole = interp_proof(root, th, e.goal)
    inner = interp_proof(root.body, th, Sequent(concl=e.goal.concl.body))
    assert whole == inner
