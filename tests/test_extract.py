from collections import Counter
from pathlib import Path

import pytest

from mupcf import extract, interp, logic, relativize
from mupcf.errors import UserError
from mupcf.extract import (
    FAIL, PASS, TIMEOUT, UNVERIFIABLE, extract_program, individual_to_term,
    pi02_goal, prepare_goal, run_extraction, verify_witness,
)
from mupcf.format import parse_file
from mupcf.interp import interp_proof, rel_type
from mupcf.lambdamu import LApp, NAT, Num, TArr, eval_nat, typecheck
from mupcf.logic import (
    Ax, BOT, BotElim, BotIntro, Forall, ForallElim, ForallIntro, IApp,
    IConst, IOTA, IVar, Id, ImpElim, ImpIntro, SUCC, Sequent, THEORIES, ZERO,
    arrow, check_proof, f_exists, f_eq, f_neq, f_not, iapp, infer_sort,
)
from mupcf.relativize import rel_proof

import corpus_files
import reference

PAW = THEORIES["paw"]

PI02 = ["succ-total", "ident-total", "add0-total", "skk-total"]


def _entry(name):
    e = corpus_files.entry(name)
    return e.proof, THEORIES[e.theory], e.goal


# ------------------------------------------------------------ goal shape

def test_pi02_goal_reads_off_the_parts():
    _, _, goal = _entry("succ-total")
    g = pi02_goal(goal.concl)
    assert (g.x, g.y) == ("x", "y")
    assert g.x_sort == IOTA and g.eq_sort == IOTA
    assert not g.prepared
    assert g.lhs == IVar("y", IOTA)
    assert g.rhs == IApp(SUCC, IVar("x", IOTA))


def test_pi02_goal_accepts_the_stripped_form():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    concl = Forall("x", IOTA, f_not(Forall("y", IOTA, f_neq(y, x))))
    g = pi02_goal(concl)
    assert g.prepared


def test_pi02_goal_rejects_other_shapes():
    with pytest.raises(UserError, match="shape"):
        pi02_goal(f_eq(ZERO, ZERO))
    # matrix is not an equation
    bad = Forall("x", IOTA, f_not(Forall("y", IOTA, f_not(BOT))))
    with pytest.raises(UserError, match="shape|equation"):
        pi02_goal(bad)
    # witness at a function sort
    s = arrow(IOTA, IOTA)
    g = IVar("g", s)
    bad2 = Forall("x", IOTA,
                  f_not(Forall("g", s, f_neq(IApp(g, ZERO), ZERO))))
    with pytest.raises(UserError, match="witness"):
        pi02_goal(bad2)


def test_pi02_goal_rejects_foreign_variables():
    x, y, z = IVar("x", IOTA), IVar("y", IOTA), IVar("z", IOTA)
    bad = Forall("x", IOTA, f_not(Forall("y", IOTA, f_neq(y, z))))
    with pytest.raises(UserError, match="witness|input"):
        pi02_goal(bad)


# ---------------------------------------------------------- preparation

def test_prepare_goal_yields_a_checkable_stripped_proof():
    proof, th, goal = _entry("succ-total")
    stripped, sgoal = prepare_goal(proof, goal)
    check_proof(stripped, th, sgoal)
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    want = Forall("x", IOTA,
                  f_not(Forall("y", IOTA, f_neq(y, IApp(SUCC, x)))))
    assert sgoal.concl == want


def test_prepare_goal_is_a_pass_through_on_stripped_input():
    proof, th, goal = _entry("succ-total")
    stripped, sgoal = prepare_goal(proof, goal)
    again, agoal = prepare_goal(stripped, sgoal)
    assert again is stripped and agoal is sgoal


def test_prepare_goal_rejects_wrong_shapes():
    proof, _, _ = _entry("succ-total")
    with pytest.raises(UserError, match="shape"):
        prepare_goal(proof, Sequent(concl=f_eq(ZERO, ZERO)))


# ---------------------------------------------------- individual embedding

def test_individuals_run_as_programs():
    two = IApp(SUCC, IApp(SUCC, ZERO))
    assert eval_nat(individual_to_term(two), 100)[0] == 2
    # k 0 (S 0) comes back to 0
    k = IConst("k", (IOTA, IOTA))
    t = iapp(k, ZERO, IApp(SUCC, ZERO))
    assert eval_nat(individual_to_term(t), 100)[0] == 0
    # rec 0 (k S) n is the identity on numerals
    rec = IConst("rec", (IOTA,))
    ks = IApp(IConst("k", (arrow(IOTA, IOTA), IOTA)), SUCC)
    prog = iapp(rec, ZERO, ks, IApp(SUCC, two))
    assert eval_nat(individual_to_term(prog), 1000)[0] == 3


def test_individual_embedding_respects_sorts():
    samples = [
        ZERO,
        SUCC,
        IConst("k", (IOTA, arrow(IOTA, IOTA))),
        IConst("s", (IOTA, arrow(IOTA, IOTA), IOTA)),
        IConst("rec", (arrow(IOTA, IOTA),)),
        iapp(IConst("k", (IOTA, IOTA)), ZERO),
    ]
    for t in samples:
        assert typecheck(individual_to_term(t)) == rel_type(infer_sort(t))


def test_individual_embedding_rejects_open_terms():
    with pytest.raises(UserError, match="free variable"):
        individual_to_term(IVar("x", IOTA))
    with pytest.raises(UserError, match="free variable"):
        individual_to_term(IVar("x", IOTA), {"y": Num(1)})


def test_individual_embedding_takes_evidence_for_variables():
    t = iapp(IConst("k", (IOTA, IOTA)), IApp(SUCC, IVar("x", IOTA)), ZERO)
    assert eval_nat(individual_to_term(t, {"x": Num(41)}), 100)[0] == 42


# ------------------------------------------------------------- programs

def _clear_memos():
    logic.Theory.instantiate.cache_clear()
    interp.axiom_realizer.cache_clear()


def _on_build(monkeypatch, record):
    """Call record(theory name, axiom, args) for each instance a scheme
    builds, that is, on each miss of the memo of Theory.instantiate."""
    for th in THEORIES.values():
        for name, fn in th.schemes.items():
            def build(theory, args, name=name, fn=fn):
                record(theory.name, name, args)
                return fn(theory, args)
            monkeypatch.setitem(th.schemes, name, build)


def test_extraction_checks_each_proof_once_per_role(monkeypatch):
    """The input proof is checked once (by rel_proof, on the stripped proof)
    and the relativized proof once (by interp_proof). From empty memos,
    each distinct instance is built once per extraction, and never by the
    compilation itself."""
    entered = []  # passes in the order they start
    running = []  # the passes running, innermost last
    built = []    # (pass, theory, axiom, args) per instance built

    def tagged(tag, fn):
        def run(*args):
            entered.append(tag)
            running.append(tag)
            try:
                return fn(*args)
            finally:
                running.pop()
        return run

    for mod in (extract, relativize, interp):
        monkeypatch.setattr(mod, "check_proof",
                            tagged(f"check in {mod.__name__}", check_proof))
    monkeypatch.setattr(extract, "rel_proof",
                        tagged("relativize", extract.rel_proof))
    monkeypatch.setattr(extract, "interp_proof",
                        tagged("interp", extract.interp_proof))
    _on_build(monkeypatch, lambda *b: built.append((running[-1], *b)))
    for name in PI02:
        _clear_memos()
        entered.clear()
        built.clear()
        extract_program(*_entry(name))
        assert entered == [
            "relativize", "check in mupcf.relativize",
            "interp", "check in mupcf.interp"], name
        assert max(Counter(b[1:] for b in built).values()) == 1, name
        # the compilation finds every instance it types in the memo
        assert "interp" not in {p for p, *_ in built}, name


def test_extraction_call_counts_stay_pinned(monkeypatch):
    """Deterministic work of one add0-total extraction from empty memos:
    every distinct axiom instance is built once, and the checker neither
    re-walks nor re-substitutes what it has already checked (before the
    checker carried free variables and instances were shared: 58 instance
    builds, 136 wf_formula and 190 subst_formula calls). Formulas and
    individuals carry their free variables and well-formedness, so on this
    well-formed proof no walk falls back to visiting their nodes (before
    interning, 1 565 individual and 291 formula node visits)."""
    calls = Counter()
    instances = set()

    def counted(mod, name):
        fn = getattr(mod, name)

        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    wf = counted(logic, "wf_formula")
    monkeypatch.setattr(logic, "wf_formula", wf)
    for walk in ("_ind_full_walk", "_formula_walk"):
        monkeypatch.setattr(logic, walk, counted(logic, walk))
    subst = counted(logic, "subst_formula")
    for mod in (logic, relativize):
        monkeypatch.setattr(mod, "subst_formula", subst)

    def build(*key):
        instances.add(key)
        calls["build"] += 1

    _on_build(monkeypatch, build)
    _clear_memos()
    extract_program(*_entry("add0-total"))
    assert calls["build"] == len(instances) == 24
    assert calls["wf_formula"] <= 85, calls
    assert calls["subst_formula"] <= 105, calls
    assert calls["_ind_full_walk"] == calls["_formula_walk"] == 0, calls


def test_a_second_extraction_builds_nothing():
    """Instances and realizers depend on their arguments alone, so a second
    extraction of the same proof finds all of them in the memos."""
    _clear_memos()
    first = extract_program(*_entry("add0-total"))
    memos = (logic.Theory.instantiate, interp.axiom_realizer)
    before = [m.cache_info() for m in memos]
    assert extract_program(*_entry("add0-total")) == first
    for memo, was in zip(memos, before):
        now = memo.cache_info()
        assert now.misses == was.misses and now.hits > was.hits, memo


def test_a_rejected_instantiation_raises_on_every_call():
    """Errors are never memoized: the same bad arguments are rejected with
    the same message each time."""
    x = IVar("x", IOTA)
    bad = [("leib", (f_neq(x, ZERO), x, x)), ("ind", (BOT,)),
           ("dc", (BOT, x, x, x)), ("no-such-axiom", ())]
    for name, args in bad:
        messages = []
        for _ in range(3):
            with pytest.raises(UserError) as ex:
                PAW.instantiate(name, args)
            messages.append(str(ex.value))
        assert len(set(messages)) == 1, (name, messages)


@pytest.mark.parametrize("name", [*PI02, "dc-succ"])
def test_the_compiled_core_is_closed(name):
    """The relativized proof is checked in an empty context, so its
    compilation has no free variable that the names d and w of the
    extracted program could capture."""
    if name == "dc-succ":
        ws = parse_file(Path(__file__).resolve().parent / "dc-succ.proof")
        (goal, proof), = ws.proofs.values()
        theory = ws.theory
    else:
        proof, theory, goal = _entry(name)
    stripped, sgoal = prepare_goal(proof, goal)
    m = interp_proof(*rel_proof(stripped, theory, sgoal))
    assert reference.free_vars(m) == set()


@pytest.mark.parametrize("name", PI02)
def test_extracted_programs_typecheck_at_nat_to_nat(name):
    proof, th, goal = _entry(name)
    e = extract_program(proof, th, goal)
    assert typecheck(e) == TArr(NAT, NAT)


def test_extracted_successor_program_computes_successors():
    proof, th, goal = _entry("succ-total")
    e = extract_program(proof, th, goal)
    assert eval_nat(LApp(e, Num(3)), 10000)[0] == 4


def _refl(t):
    return ForallElim(Ax("refl", (IOTA,)), t)


def test_extraction_rejects_the_reserved_output_label():
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    body = f_eq(y, x)
    goal = Forall("x", IOTA, f_exists("y", IOTA, body))
    hyp = Forall("y", IOTA, f_not(body))
    matrix = ImpElim(ForallElim(Id("h"), x), _refl(x))
    wrapped = BotElim("kappa", BOT, BotIntro("kappa", matrix))
    pf = ForallIntro("x", IOTA, ImpIntro("h", hyp, wrapped))
    with pytest.raises(UserError, match="kappa"):
        extract_program(pf, PAW, Sequent(concl=goal))


# ------------------------------------------------------------- witnesses

def test_verify_witness_decides_base_equations():
    _, _, goal = _entry("succ-total")
    g = pi02_goal(goal.concl)
    assert verify_witness(g, 3, 4, 10000) == PASS
    assert verify_witness(g, 3, 5, 10000) == FAIL


def test_verify_witness_flags_higher_sort_equations():
    s = arrow(IOTA, IOTA)
    kc = IConst("k", (IOTA, IOTA))
    x, y = IVar("x", IOTA), IVar("y", IOTA)
    concl = Forall("x", IOTA, f_not(Forall(
        "y", IOTA, f_neq(IApp(kc, x), IApp(kc, y)))))
    g = pi02_goal(concl)
    assert g.eq_sort == s
    assert verify_witness(g, 0, 0, 10000) == UNVERIFIABLE


EXPECTED = {
    "succ-total": lambda n: n + 1,
    "ident-total": lambda n: n,
    "add0-total": lambda n: n,
    "skk-total": lambda n: n,
}


@pytest.mark.parametrize("name", PI02)
def test_end_to_end_extraction_on_corpus(name):
    proof, th, goal = _entry(name)
    rep = run_extraction(proof, th, goal, range(11), 100000)
    f = EXPECTED[name]
    for r in rep.records:
        assert r.verdict == PASS
        assert r.witness == f(r.input)
        assert r.steps < 100000
    rows = rep.rows()
    assert [row["input"] for row in rows] == list(range(11))
    assert set(rows[0]) == {"input", "witness", "verdict", "steps"}


def test_run_extraction_reports_timeouts_per_input():
    proof, th, goal = _entry("add0-total")
    rep = run_extraction(proof, th, goal, [10], 5)
    (r,) = rep.records
    assert r.verdict == TIMEOUT
    assert r.witness is None


def test_run_extraction_requires_base_sort_inputs():
    s = arrow(IOTA, IOTA)
    g = IVar("g", s)
    hyp = Forall("y", IOTA, f_neq(IApp(g, ZERO), IVar("y", IOTA)))
    pf = ForallIntro(
        "g", s,
        ImpIntro("h", hyp,
                 ImpElim(_refl(IApp(g, ZERO)),
                         ForallElim(Id("h"), IApp(g, ZERO)))))
    concl = Forall("g", s, f_not(hyp))
    check_proof(pf, PAW, Sequent(concl=concl))
    with pytest.raises(UserError, match="base sort"):
        run_extraction(pf, PAW, Sequent(concl=concl), range(3), 1000)
