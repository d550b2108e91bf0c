import gc
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import mupcf
from mupcf import cli, extract, interp, logic, relativize
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
from test_imports import ROOT, _memos as _declared_memos

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

def _memos():
    """Every functools memo of mupcf, found at run time: the module and
    class attributes that have a cache_clear, each under the module that
    defines it, as "module.qualname"."""
    out = {}
    for info in pkgutil.iter_modules(mupcf.__path__):
        mod = importlib.import_module(f"mupcf.{info.name}")
        for v in vars(mod).values():
            for a in (v, *(vars(v).values() if isinstance(v, type) else ())):
                if hasattr(a, "cache_clear") and a.__module__ == mod.__name__:
                    out[f"{info.name}.{a.__qualname__}"] = a
    return out


def _clear_memos():
    for memo in _memos().values():
        memo.cache_clear()


def test_clear_memos_finds_the_memos_the_source_declares():
    """_clear_memos finds the memos at run time, the memo scan of
    test_imports reads them from the source: a memo that one of them
    missed would leave the counts "from empty memos" below stale."""
    found = sorted(f"{key.split('.')[0]}.{memo.__name__}"
                   for key, memo in _memos().items())
    declared = sorted(f"{p.stem}.{name}"
                      for p in sorted((ROOT / "src" / "mupcf").glob("*.py"))
                      for name, _ in _declared_memos(p))
    assert found == declared
    assert {"logic.Theory.instantiate", "logic.subst_var",
            "interp.axiom_realizer"} <= set(_memos())


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


# the functions that run only to word an error in well-formedness
_ERROR_PATH = ("_formula_fv", "_sort_pass", "_ind_sort", "_raise_clash")


def _count(monkeypatch, calls, owner, name):
    """Count the calls of owner.name in calls[name]."""
    fn = getattr(owner, name)

    def run(*args):
        calls[name] += 1
        return fn(*args)
    monkeypatch.setattr(owner, name, run)


def test_extraction_call_counts_stay_pinned(monkeypatch):
    """Deterministic work of one add0-total extraction from empty memos:
    every distinct axiom instance is built once, and the checker neither
    re-walks nor re-substitutes what it has already checked (before the
    checker carried free variables and instances were shared: 58 instance
    builds, 136 wf_formula and 190 subst_formula calls). Formulas and
    individuals carry their free variables and well-formedness, so on this
    well-formed proof none of the passes that word errors runs (before
    interning, 1 565 individual and 291 formula node visits). Each
    one-variable substitution is built once, by the memo subst_var, although
    the relativized proof instantiates a quantifier with the same individual
    at every occurrence of it (before that memo: 105 substitutions, 873
    _subst visits and 835 new interned nodes, counted as _facts calls);
    substitutions are counted as misses of that memo. A substitution
    renames a binder only where it would capture (514 _subst visits when
    every binder free in the individual was renamed). A second extraction
    substitutes nothing. Proofs are interned too: the extraction asks for
    249 distinct proof nodes (the stripped input and the relativized proof),
    and a second one builds none, as the memo of rel_proof keeps them.
    Guarding formulas (rel_formula), building realizability predicates
    (rel_pred) and comparing two distinct formulas (alpha_eq) keep no memo:
    246, 119 and 49 calls, recursive ones included, and none in a second
    extraction, which finds the stages' results in their memos."""
    entry = _entry("add0-total")  # read before counting
    calls = Counter()
    instances = set()

    for name in ("wf_formula", "_subst", *_ERROR_PATH):
        _count(monkeypatch, calls, logic, name)
    for cls in vars(logic).values():
        if (isinstance(cls, type) and "_facts" in vars(cls)
                and cls is not logic.Proof):
            _count(monkeypatch, calls, cls, "_facts")
    # proof nodes carry no facts and are pinned apart: the distinct nodes
    # the extraction asks for, and how many of them it builds anew (fewer
    # when other tests keep some alive)
    proofs, asked = Counter(), set()
    _count(monkeypatch, proofs, logic.Proof, "_facts")
    for cls in logic.Proof.__subclasses__():
        def ask(cls, *args, new=cls.__new__):
            node = new(cls, *args)
            asked.add(node)
            return node
        monkeypatch.setattr(cls, "__new__", staticmethod(ask))

    _count(monkeypatch, calls, relativize, "rel_formula")
    for mod in (logic, relativize):
        _count(monkeypatch, calls, mod, "rel_pred")

        def alpha(f, g, fn=mod.alpha_eq):
            calls["alpha_eq"] += f is not g
            return fn(f, g)
        monkeypatch.setattr(mod, "alpha_eq", alpha)

    def build(*key):
        instances.add(key)
        calls["build"] += 1

    _on_build(monkeypatch, build)
    _clear_memos()
    gc.collect()
    extract_program(*entry)
    assert calls["build"] == len(instances) == 24
    assert calls["wf_formula"] <= 85, calls
    assert logic.subst_var.cache_info().misses <= 59, \
        logic.subst_var.cache_info()
    assert calls["_subst"] <= 439, calls
    assert calls["_facts"] <= 448, calls
    assert len(asked) == 249, len(asked)
    assert proofs["_facts"] <= len(asked), proofs
    assert not any(calls[name] for name in _ERROR_PATH), calls
    assert calls["rel_formula"] <= 246, calls
    assert calls["rel_pred"] <= 119, calls
    assert calls["alpha_eq"] <= 49, calls
    calls.clear()
    proofs.clear()
    asked.clear()
    misses = logic.subst_var.cache_info().misses
    extract_program(*entry)
    assert calls["build"] == calls["_subst"] == proofs["_facts"] == 0
    assert calls["rel_formula"] == calls["rel_pred"] == calls["alpha_eq"] == 0
    assert logic.subst_var.cache_info().misses == misses


def test_the_corpus_never_takes_the_error_path(monkeypatch):
    """Checking, relativizing and interpreting every corpus proof, and
    checking each relativized proof, reads well-formedness from the facts
    alone: none of the passes that word errors runs."""
    calls = Counter()
    entries = corpus_files.entries()  # read before counting
    _clear_memos()
    for name in _ERROR_PATH:
        _count(monkeypatch, calls, logic, name)
    relativized = 0
    for e in entries:
        theory = THEORIES[e.theory]
        check_proof(e.proof, theory, e.goal)
        interp_proof(e.proof, theory, e.goal)
        if e.theory in ("paw", "caw"):
            check_proof(*rel_proof(e.proof, theory, e.goal))
            relativized += 1
    assert relativized >= 11, relativized
    assert not calls, calls


def test_a_second_extraction_builds_nothing():
    """Sorts, instances, quantifier instances, realizers and the results of
    the proof stages depend on their arguments alone, so a second
    extraction of the same proof finds its relativized proof and its term
    in the memos of rel_proof and interp_proof, and the stages run again
    without those memos (by __wrapped__) find everything else: no memo
    misses, and the checker's and the compiler's memos hit. (Constant sorts
    are asked for only when a constant is built anew, so whether that memo
    hits depends on what is alive.)"""
    _clear_memos()
    proof, theory, goal = _entry("add0-total")
    first = extract_program(proof, theory, goal)
    memos = _memos()
    before = {key: m.cache_info() for key, m in memos.items()}
    assert extract_program(*_entry("add0-total")) == first
    for key in ("relativize.rel_proof", "interp.interp_proof"):
        assert memos[key].cache_info().hits > before[key].hits, key
    # the stages again without their own memos: every memo inside them hits
    stripped, sgoal = prepare_goal(proof, goal)
    check_proof.__wrapped__(stripped, theory, sgoal)
    rpf, rtheory, rgoal = rel_proof.__wrapped__(stripped, theory, sgoal)
    interp_proof.__wrapped__(rpf, rtheory, rgoal)
    for key, memo in memos.items():
        now, was = memo.cache_info(), before[key]
        assert now.misses == was.misses, key
    for key in ("logic.Theory.instantiate", "logic.subst_var",
                "interp.axiom_realizer", "logic.check_proof",
                "relativize.rel_proof", "interp.interp_proof"):
        assert memos[key].cache_info().hits > before[key].hits, key


def test_a_third_extract_command_misses_no_relativization_memo(monkeypatch):
    """Each cli.main call reads its file again, so its nodes are interned
    anew; the memos keep the nodes of the last call alive, so a third
    identical command meets the same proof and finds its relativization
    and its term in the memos of rel_proof and interp_proof."""
    monkeypatch.chdir(ROOT)
    argv = ["extract", "corpus/add0-total.proof", "--inputs", "6..6"]
    stages = (relativize.rel_proof, interp.interp_proof)
    for _ in range(2):
        assert cli.main(argv) == 0
    before = [m.cache_info() for m in stages]
    assert cli.main(argv) == 0
    for memo, was in zip(stages, before):
        now = memo.cache_info()
        assert now.misses == was.misses, memo.__name__
        assert now.hits > was.hits, memo.__name__


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


def test_a_rejected_proof_raises_on_every_call():
    """The proof stages memoize only what they return: a rejected proof is
    rejected by each stage with the same message each time, and leaves
    nothing in any of the three memos. The last case passes the check and
    is refused by the relativizer alone."""
    stages = (check_proof, rel_proof, interp_proof)
    unknown = (Id("h"), PAW, Sequent(concl=BOT))
    arith = _entry("rel-arith")
    check_proof(*arith)  # the one result the cases below may store
    cases = [(stage, unknown, "unknown hypothesis h") for stage in stages]
    cases.append((rel_proof, arith,
                  "theory pawr has no relativized counterpart"))
    sizes = [m.cache_info().currsize for m in stages]
    for stage, args, message in cases:
        for _ in range(3):
            with pytest.raises(UserError) as ex:
                stage(*args)
            assert str(ex.value) == message, stage.__name__
    assert [m.cache_info().currsize for m in stages] == sizes


def test_a_substitution_past_the_depth_bound_raises_on_every_call():
    """An instance that would nest past MAX_DEPTH is refused each time it
    is asked for, with the same message, and leaves nothing in the memo."""
    t = ZERO
    for _ in range(logic.MAX_DEPTH):
        t = IApp(SUCC, t)
    body = f_neq(IVar("x", IOTA), ZERO)
    size = logic.subst_var.cache_info().currsize
    for _ in range(3):
        with pytest.raises(UserError) as ex:
            logic.subst_var(body, "x", t)
        assert str(ex.value) == ("a formula would nest more than "
                                 f"{logic.MAX_DEPTH} levels deep")
    assert logic.subst_var.cache_info().currsize == size


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


def test_verify_witness_times_out_when_a_side_runs_out_of_fuel():
    # add0-total's left side, add 0 x, takes 181 steps at x = 5
    _, _, goal = _entry("add0-total")
    g = pi02_goal(goal.concl)
    assert verify_witness(g, 5, 5, 10000) == PASS
    assert verify_witness(g, 5, 5, 10) == TIMEOUT


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
    _, rows = run_extraction(proof, th, goal, range(11), 100000)
    f = EXPECTED[name]
    for r in rows:
        assert r["verdict"] == PASS
        assert r["witness"] == f(r["input"])
        assert r["steps"] < 100000
    assert [row["input"] for row in rows] == list(range(11))
    assert set(rows[0]) == {"input", "witness", "verdict", "steps"}


def test_run_extraction_reports_timeouts_per_input():
    proof, th, goal = _entry("add0-total")
    _, (r,) = run_extraction(proof, th, goal, [10], 5)
    assert r["verdict"] == TIMEOUT
    assert r["witness"] is None


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
