import pytest

from mupcf import interp
from mupcf.errors import InternalError
from mupcf.extract import individual_to_term
from mupcf.interp import axiom_realizer, interp_envs, interp_proof, interp_type, rel_type
from mupcf.lambdamu import (
    LApp, Lam, Mu, NAT, Named, Num, TArr, TBOT, TProd, eval_nat, lapp,
    typecheck,
)
from mupcf.logic import (
    And, Ax, CONSTANTS, Forall, ForallElim, IConst, IOTA, IVar, Imp, SUCC,
    Sequent, THEORIES, ZERO, arrow, f_eq, f_neq, f_rel,
)

import corpus_files

PAW = THEORIES["paw"]
PAWR = THEORIES["pawr"]
CAW = THEORIES["caw"]
CAWR = THEORIES["cawr"]


def test_interp_type_connectives():
    neq = f_neq(ZERO, ZERO)
    rel = f_rel(ZERO)
    assert interp_type(neq) == TBOT
    assert interp_type(rel) == NAT
    assert interp_type(Imp(rel, neq)) == TArr(NAT, TBOT)
    assert interp_type(And(rel, rel)) == TProd(NAT, NAT)
    assert interp_type(Forall("x", IOTA, rel)) == NAT
    assert interp_type(f_eq(ZERO, ZERO)) == TArr(TBOT, TBOT)


def test_rel_type_towers():
    assert rel_type(IOTA) == NAT
    assert rel_type(arrow(IOTA, IOTA)) == TArr(NAT, NAT)
    assert rel_type(arrow(arrow(IOTA, IOTA), IOTA)) == TArr(TArr(NAT, NAT), NAT)


def test_interp_type_invariant_under_substitution():
    x = IVar("x", IOTA)
    f = Forall("y", IOTA, Imp(f_rel(x), f_neq(x, IVar("y", IOTA))))
    from mupcf.logic import subst_var
    assert interp_type(f) == interp_type(subst_var(f, "x", ZERO))


REALIZER_CASES = [
    ("paw", "refl", (IOTA,)),
    ("paw", "leib", (f_neq(IVar("x", IOTA), ZERO), IVar("x", IOTA),
                     IVar("y", IOTA))),
    ("paw", "s-neq-0", ()),
    ("pawr", "s-neq-0", ()),
    ("paw", "def-s", (IOTA, IOTA, IOTA)),
    ("paw", "def-k", (IOTA, arrow(IOTA, IOTA))),
    ("paw", "def-rec-0", (IOTA,)),
    ("paw", "def-rec-s", (IOTA,)),
    ("paw", "ind", (f_neq(IVar("x", IOTA), ZERO), IVar("x", IOTA))),
    ("pawr", "ind", (f_eq(IVar("x", IOTA), ZERO), IVar("x", IOTA))),
    ("pawr", "rel-0", ()),
    ("pawr", "rel-succ", ()),
    ("pawr", "rel-k", (IOTA, IOTA)),
    ("pawr", "rel-s", (IOTA, arrow(IOTA, IOTA), IOTA)),
    ("pawr", "rel-rec", (arrow(IOTA, IOTA),)),
    ("pawr", "rel-k", (arrow(IOTA, IOTA), arrow(arrow(IOTA, IOTA), IOTA))),
    ("pawr", "rel-s", (arrow(IOTA, IOTA), IOTA, arrow(IOTA, IOTA))),
    ("pawr", "rel-s", (arrow(IOTA, IOTA), arrow(IOTA, IOTA),
                       arrow(IOTA, IOTA, IOTA))),
    ("pawr", "rel-rec", (arrow(IOTA, IOTA, IOTA),)),
    ("pawr", "rel-rec", (arrow(arrow(IOTA, IOTA), IOTA),)),
]


@pytest.mark.parametrize("thname,ax,args", REALIZER_CASES)
def test_axiom_realizers_typed(thname, ax, args):
    th = THEORIES[thname]
    t = axiom_realizer(th, ax, args)
    assert typecheck(t) == interp_type(th.instantiate(ax, args))


INSTANCES = [
    ZERO, SUCC, IConst("k", (IOTA, arrow(IOTA, IOTA))),
    IConst("s", (arrow(IOTA, IOTA), IOTA, IOTA)),
    IConst("rec", (arrow(IOTA, IOTA),)),
]


def test_constant_programs_are_their_evidence_realizers():
    """An individual runs as the realizers of the evidence axioms of its
    constants."""
    assert [c.name for c in INSTANCES] == list(CONSTANTS)
    for c in INSTANCES:
        assert individual_to_term(c) == axiom_realizer(
            PAWR, CONSTANTS[c.name][0], c.sort_args), c


def test_dc_realizers_typed():
    x, y, z = IVar("x", IOTA), IVar("y", IOTA), IVar("z", IOTA)
    b = f_neq(z, y)
    t = axiom_realizer(CAW, "dc", (b, x, y, z))
    assert typecheck(t) == interp_type(CAW.instantiate("dc", (b, x, y, z)))
    guarded = And(f_rel(z), And(f_rel(y), b))
    t2 = axiom_realizer(CAWR, "dc", (guarded, x, y, z))
    assert typecheck(t2) == interp_type(
        CAWR.instantiate("dc", (guarded, x, y, z)))


def test_corpus_interpretation_is_typed():
    for e in corpus_files.entries():
        th = THEORIES[e.theory]
        term = interp_proof(e.proof, th, e.goal)
        env, lenv = interp_envs(e.goal)
        assert typecheck(term, env, lenv) == interp_type(e.goal.concl), e.name


def test_an_interpretation_of_another_type_is_an_internal_error(
        monkeypatch):
    """interp_proof checks the type of what it builds against the goal's
    (an ill-typed term is test_cli's case): a well-typed realizer of another
    type is a breach of an invariant, and the memo keeps no refused term."""
    proof = ForallElim(Ax("refl", (IOTA,)), ZERO)
    goal = Sequent(concl=f_eq(ZERO, ZERO))
    monkeypatch.setattr(interp, "axiom_realizer", lambda *key: Num(0))
    interp_proof.cache_clear()
    for _ in range(2):
        with pytest.raises(InternalError) as info:
            interp_proof(proof, PAW, goal)
        assert str(info.value) == "interpretation has the wrong type"
    monkeypatch.undo()
    assert typecheck(interp_proof(proof, PAW, goal)) == TArr(TBOT, TBOT)


def test_peirce_interpretation_shape():
    e = corpus_files.entry("peirce")
    term = interp_proof(e.proof, THEORIES[e.theory], e.goal)
    # \b. mu a. [a] (b (\h. mu c. [a] h))
    match term:
        case Lam(_, _, Mu(a1, _, Named(a2, LApp(_, Lam(_, _, Mu(_, _, Named(a3, _))))))):
            assert a1 == a2 == a3
        case _:
            pytest.fail(f"unexpected shape {term}")


def test_rel_arith_realizer_computes():
    # the realizer of forall x (r(x) -> r(S(Sx))) is a program adding two
    e = corpus_files.entry("rel-arith")
    term = interp_proof(e.proof, THEORIES[e.theory], e.goal)
    v, _ = eval_nat(lapp(term, Num(5)), 1000)
    assert v == 7
