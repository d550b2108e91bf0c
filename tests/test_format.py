import gc
import random
import re
from pathlib import Path

import pytest

from mupcf import cli, corpus
from mupcf.errors import UserError
from mupcf.format import (
    _read_all, formula_sexp, ind_sexp, parse_file, parse_formula,
    parse_individual, parse_sort, parse_source, parse_term, parse_type,
    proof_decl, proof_sexp, sort_sexp, term_decl, term_sexp, type_sexp,
)
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Pair, TArr, TBOT, TProd, mk_omega,
    typecheck,
)
from mupcf.logic import (
    And, Atom, Ax, BOT, Forall, ForallElim, ForallIntro, IApp, IConst, IOTA,
    IVar, Id, Imp, ImpIntro, SUCC, Sequent, THEORIES, ZERO, arrow,
    check_proof, f_eq, f_exists, f_not, f_neq, iapp,
)

from termgen import gen_term, rand_type


def _parse_formula(src):
    ws = parse_source(f"(proof p (goal {src}) (id h))")
    goal, _ = ws.proofs["p"]
    return goal.concl


def _parse_term(src):
    return parse_source(f"(term t {src})").terms["t"]


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# ------------------------------------------------------------ round trips

@pytest.mark.parametrize("name", [e.name for e in corpus.entries()])
def test_corpus_entries_round_trip(name):
    e = corpus.entry(name)
    src = f"(theory {e.theory})\n" + proof_decl(e.name, e.goal, e.proof)
    ws = parse_source(src)
    goal, pf = ws.proofs[e.name]
    assert ws.theory_name == e.theory
    assert goal == e.goal
    assert pf == e.proof


def test_program_round_trip_on_random_terms():
    rng = random.Random(20260817)
    for _ in range(100):
        ty = rand_type(rng, 3)
        t = gen_term(rng, ty, depth=5)
        assert _parse_term(term_sexp(t)) == t


def test_omega_round_trips():
    om = mk_omega(NAT)
    ws = parse_source(term_decl("omega", om))
    assert ws.terms["omega"] == om
    assert typecheck(ws.terms["omega"]) == NAT


def test_sort_and_type_round_trip_shapes():
    s = arrow(arrow(IOTA, IOTA), IOTA, IOTA)
    assert sort_sexp(s) == "(-> (-> iota iota) (-> iota iota))"
    f = Forall("f", s, Atom("neq", (iapp(IVar("f", s), ZERO, ZERO), ZERO)))
    assert _parse_formula(formula_sexp(f)) == f


# ------------------------------------------------------------------ sugar

def test_sugar_forms_desugar():
    x = IVar("x", IOTA)
    got = _parse_formula("(all (x iota) (not (neq x x)))")
    assert got == Forall("x", IOTA, f_not(f_neq(x, x)))
    got = _parse_formula("(all (x iota) (= x x))")
    assert got == Forall("x", IOTA, f_eq(x, x))
    got = _parse_formula("(exists (x iota) (neq x 0))")
    assert got == f_exists("x", IOTA, f_neq(x, ZERO))


def test_numeral_individuals_are_sugar():
    got = _parse_formula("(neq 2 0)")
    two = IApp(SUCC, IApp(SUCC, ZERO))
    assert got == Atom("neq", (two, ZERO))
    # printing stays in core form
    assert formula_sexp(got) == "(neq (S (S 0)) 0)"


def test_arrow_forms_right_associate():
    a = _parse_formula("(-> bot bot bot)")
    assert a == Imp(BOT, Imp(BOT, BOT))
    t = _parse_term("(lam (x (-> nat nat nat)) x)")
    assert type_sexp(t.ty) == "(-> nat (-> nat nat))"


# ----------------------------------------------------------------- errors

def test_unknown_identifier_is_positioned():
    with pytest.raises(UserError, match=r"1:\d+: unknown identifier zz"):
        parse_source("(proof p (goal (neq zz 0)) (id h))")


def test_malformed_binder_is_positioned():
    with pytest.raises(UserError, match=r"2:\d+: expected a \(name sort\)"):
        parse_source("(proof p\n (goal (all x (neq 0 0))) (id h))")


def test_unclosed_and_unmatched_parens():
    with pytest.raises(UserError, match="unclosed"):
        parse_source("(theory paw")
    with pytest.raises(UserError, match="unmatched"):
        parse_source("(theory paw))")


def test_paren_errors_point_at_the_innermost_culprit():
    with pytest.raises(UserError, match=r"^2:3: unclosed parenthesis"):
        parse_source("(term a\n  (app succ 0\n")
    with pytest.raises(UserError, match=r"^1:13: unmatched closing"):
        parse_source("(theory paw))")


def test_parse_leaves_no_reference_cycles():
    corpus_dir = Path(__file__).resolve().parent.parent / "corpus"
    gc.collect()
    gc.disable()
    try:
        parse_file(str(corpus_dir / "add0-total.proof"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_duplicate_and_unknown_declarations():
    with pytest.raises(UserError, match="duplicate"):
        parse_source("(term a 0) (term a 1)")
    with pytest.raises(UserError, match="unknown theory"):
        parse_source("(theory zfc)")
    with pytest.raises(UserError, match="unknown declaration"):
        parse_source("(lemma a 0)")
    with pytest.raises(UserError, match="already declared"):
        parse_source("(theory paw) (theory caw)")


def test_reserved_names_cannot_be_bound():
    with pytest.raises(UserError, match="reserved"):
        parse_source("(proof p (goal (all (S iota) bot)) (id h))")
    with pytest.raises(UserError, match="reserved"):
        parse_source("(term t (lam (succ nat) 0))")


def test_axiom_argument_arity_is_checked():
    with pytest.raises(UserError, match="takes 1 argument"):
        parse_source("(proof p (goal bot) (ax refl))")
    with pytest.raises(UserError, match="unknown axiom scheme"):
        parse_source("(proof p (goal bot) (ax choice))")


def test_axiom_formula_arguments_see_variable_arguments():
    src = """(proof p (goal bot)
               (ax ind (= x x) (x iota)))"""
    ws = parse_source(src)
    _, pf = ws.proofs["p"]
    assert pf.args[1] == IVar("x", IOTA)
    assert pf.args[0] == f_eq(IVar("x", IOTA), IVar("x", IOTA))


def test_minimal_file_parses():
    ws = parse_source("(theory paw)\n(proof triv (goal bot) (id h))")
    assert ws.theory_name == "paw"
    assert "triv" in ws.proofs


def test_comments_are_ignored():
    ws = parse_source("; a comment\n(term t 3) ; trailing\n")
    assert ws.terms["t"].value == 3


# ----------------------------------------------------------- diagnostics

# Readers for the objects a diagnostic quotes; closed objects only.
_READ = {
    "sort": parse_sort,
    "individual": lambda node: parse_individual(node, {}),
    "formula": lambda node: parse_formula(node, {}),
    "type": parse_type,
    "term": parse_term,
}
# Tokens that belong to no FORMAT.md syntax: _|_, x:iota., \x:, !=, k[...].
_INTERNAL = re.compile(r"_\|_|\w:\w|\\\w|!=|\w\[")


def _message(fn, *args):
    with pytest.raises(UserError) as info:
        fn(*args)
    return str(info.value)


def _conclusion_mismatch(_capsys):
    x = IVar("x", IOTA)
    hyp = f_neq(IApp(SUCC, x), ZERO)
    goal = Sequent(concl=Forall("x", IOTA, Imp(hyp, f_neq(x, ZERO))))
    proof = ForallIntro("x", IOTA, ImpIntro("h", hyp, Id("h")))
    msg = _message(check_proof, proof, THEORIES["paw"], goal)
    pattern = r"^proof concludes (.+) but the goal is (.+)$"
    concl = Forall("x", IOTA, Imp(hyp, hyp))
    return msg, pattern, [("formula", concl), ("formula", goal.concl)]


def _instantiation_mismatch(_capsys):
    k = IConst("k", (IOTA, IOTA))
    proof = ForallElim(Ax("refl", (IOTA,)), k)
    msg = _message(check_proof, proof, THEORIES["paw"], Sequent())
    pattern = r"^instantiating a (.+) quantifier with (.+) : (.+)$"
    return msg, pattern, [
        ("sort", IOTA), ("individual", k), ("sort", arrow(IOTA, IOTA, IOTA))]


def _argument_mismatch(_capsys):
    want = TArr(NAT, TBOT)
    pair = TProd(NAT, NAT)
    arg = Lam("x", NAT, Mu("a", pair, Named("a", Pair(LVar("x"), LVar("x")))))
    t = LApp(Lam("f", want, LApp(LVar("f"), LVar("y"))), arg)
    msg = _message(typecheck, t, {"y": NAT})
    pattern = r"^argument (.+) : (.+) does not match (.+)$"
    got = TArr(NAT, pair)
    return msg, pattern, [("term", arg), ("type", got), ("type", want)]


def _extract_shape(capsys):
    path = CORPUS / "dc-diag.proof"
    assert cli.main(["extract", str(path)]) == 1
    msg = capsys.readouterr().err
    pattern = (r"^error\[user-error\]: "
               r"conclusion is not of the shape .+?\): (.+)$")
    goal, _ = parse_file(path).proofs["dc-diag"]
    return msg.rstrip("\n"), pattern, [("formula", goal.concl)]


@pytest.mark.parametrize("case", [
    _conclusion_mismatch, _instantiation_mismatch, _argument_mismatch,
    _extract_shape,
], ids=lambda case: case.__name__.lstrip("_"))
def test_diagnostics_quote_objects_in_surface_syntax(capsys, case):
    msg, pattern, quoted = case(capsys)
    m = re.match(pattern, msg)
    assert m, msg
    assert len(m.groups()) == len(quoted)
    for text, (kind, obj) in zip(m.groups(), quoted):
        (node,) = _read_all(text)
        assert _READ[kind](node) == obj, text
    assert not _INTERNAL.search(re.sub(r"^error\[[\w-]+\]: ", "", msg)), msg
