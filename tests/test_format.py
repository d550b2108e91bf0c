import dataclasses
import gc
import importlib.util
import random
import re

import pytest

from mupcf import cli
from mupcf.errors import UserError
from mupcf.format import (
    _NeedPositions, _parse_declarations, _read_all, _read_plain, formula_sexp,
    parse_file, parse_formula, parse_individual, parse_sort, parse_source,
    parse_term, parse_type, proof_sexp, term_decl, term_sexp, type_sexp,
)
from mupcf.lambdamu import (
    LApp, LVar, Lam, Mu, NAT, Named, Pair, TArr, TBOT, TProd, mk_omega,
    typecheck,
)
from mupcf.logic import (
    Atom, Ax, BOT, Forall, ForallElim, ForallIntro, IApp, IConst, IOTA,
    IVar, Id, Imp, ImpIntro, SUCC, Sequent, THEORIES, ZERO, arrow,
    check_proof, f_eq, f_exists, f_not, f_neq, iapp, sort_sexp,
)

import corpus_files
from termgen import gen_term, rand_type


def _proof_decl(name, goal, proof):
    """The source of a proof declaration."""
    return (f"(proof {name}\n"
            f"  (goal {formula_sexp(goal.concl)})\n"
            f"  {proof_sexp(proof)})\n")


def _parse_formula(src):
    ws = parse_source(f"(proof p (goal {src}) (id h))")
    goal, _ = ws.proofs["p"]
    return goal.concl


def _parse_term(src):
    return parse_source(f"(term t {src})").terms["t"]


CORPUS = corpus_files.CORPUS


# ------------------------------------------------------------ round trips

def test_corpus_entries_are_the_proof_files():
    stems = sorted(p.stem for p in CORPUS.glob("*.proof"))
    assert len(stems) == 12
    assert [e.name for e in corpus_files.entries()] == stems


def test_corpus_entry_reads_its_own_file(monkeypatch):
    read = []
    monkeypatch.setattr(corpus_files, "parse_file",
                        lambda path: read.append(path) or parse_file(path))
    e = corpus_files.entry("peirce")
    assert read == [CORPUS / "peirce.proof"]
    assert e == next(x for x in corpus_files.entries() if x.name == "peirce")
    for name in ("no-such-proof", "dc-succ"):
        with pytest.raises(KeyError):
            corpus_files.entry(name)


@pytest.mark.parametrize("name", [e.name for e in corpus_files.entries()])
def test_corpus_entries_round_trip(name):
    e = corpus_files.entry(name)
    src = f"(theory {e.theory})\n" + _proof_decl(e.name, e.goal, e.proof)
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
    gc.collect()
    gc.disable()
    try:
        parse_file(str(CORPUS / "add0-total.proof"))
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


# ------------------------------------------------------ reader diagnostics

# Every message the reader and the parse functions raise, each from one
# malformed snippet, with the full "line:col: message".  Each snippet follows
# a comment line and a blank line that hold tabs and CR LF ends, and has a
# tab or a comment ahead of its culprit, so the columns count those as the
# reader must: a tab is one column, CR is whitespace, LF ends a line.
_LEAD = "; header (with parens) ;;\r\n\t\r\n"


def _in_proof(body):
    return f"(proof p (goal bot)\t; goal\r\n  {body})"


def _in_goal(goal):
    return f"(proof p\t; name\r\n  (goal {goal}) (id h))"


def _in_term(program):
    return f"(term t\t; c\r\n  {program})"


_DIAGNOSTICS = [
    ("(theory paw)\t)", "3:14: unmatched closing parenthesis"),
    ("(term a\r\n\t(app succ 0 ; )\r\n", "4:2: unclosed parenthesis"),
    ("\tpaw", "3:2: expected a parenthesized declaration"),
    ("(proof p\t; c\r\n  goal (id h))",
     "4:3: expected a parenthesized goal"),
    (_in_proof("h"), "4:3: expected a parenthesized proof"),
    ("(theory\t(paw))", "3:9: expected a theory name"),
    ("(proof\t(p) (goal bot) (id h))", "3:8: expected a proof name"),
    ("(term\t(t) 0)", "3:7: expected a term name"),
    (_in_proof("(id\t(h))"), "4:7: expected a hypothesis name"),
    (_in_goal("(all ((x) iota) bot)"), "4:15: expected a variable name"),
    (_in_proof("(ax\t(refl) iota)"), "4:7: expected an axiom scheme name"),
    (_in_proof("(and-elim (1) (id h))"),
     "4:13: expected a projection index"),
    (_in_term("(proj\t(1) 0)"), "4:9: expected a projection index"),
    (_in_proof("(bot-intro (a) (id h))"), "4:14: expected a label name"),
    (_in_term("(named\t(a) 0)"), "4:10: expected a label name"),
    (_in_goal("(all (f (-> iota)) bot)"),
     "4:17: sort arrow needs at least two arguments"),
    (_in_goal("(all (x\tnat) bot)"), "4:17: expected a sort"),
    (_in_goal("(neq 0\tzz)"), "4:16: unknown identifier zz"),
    (_in_goal("(neq (k\tiota) 0)"),
     "4:14: constant k takes 2 sort argument(s)"),
    (_in_goal("(neq\t(zz) 0)"), "4:14: empty application"),
    (_in_goal("(neq\t() 0)"), "4:14: expected an individual"),
    (_in_goal("(all x bot)"), "4:14: expected a (name sort) binder for all"),
    (_in_goal("(all (S iota) bot)"),
     "4:15: S is reserved and cannot be bound"),
    (_in_goal("(all (7 iota) bot)"),
     "4:15: 7 is reserved and cannot be bound"),
    (_in_proof("(forall-intro x (id h))"),
     "4:17: expected a (name sort) binder for forall-intro"),
    (_in_proof("(forall-intro (rec iota) (id h))"),
     "4:18: rec is reserved and cannot be bound"),
    (_in_goal("(neq 0)"), "4:9: neq takes two individuals"),
    (_in_goal("(= 0 0 0)"), "4:9: = takes two individuals"),
    (_in_goal("(rel)"), "4:9: rel takes one individual"),
    (_in_goal("(-> bot)"), "4:9: formula arrow needs at least two arguments"),
    (_in_goal("(not bot bot)"), "4:9: not takes one formula"),
    (_in_goal("(/\\ bot)"), "4:9: /\\ takes two formulas"),
    (_in_goal("(exists (x iota))"), "4:9: exists takes a binder and a body"),
    (_in_goal("(all (x iota))"), "4:9: all takes a binder and a body"),
    (_in_goal("top"), "4:9: expected a formula"),
    (_in_goal("(or bot bot)"), "4:9: expected a formula"),
    (_in_proof("(ax)"), "4:3: ax needs a scheme name"),
    (_in_proof("(ax\tchoice)"), "4:7: unknown axiom scheme choice"),
    (_in_proof("(ax\trefl)"), "4:3: axiom refl takes 1 argument(s)"),
    (_in_proof("(ax leib bot x (y iota) (z iota))"),
     "4:3: axiom leib takes 3 argument(s)"),
    (_in_proof("(imp-elim (id h))"), "4:3: imp-elim takes 2 argument(s)"),
    (_in_proof("(imp-intro h (id h))"),
     "4:14: expected a (name formula) binder"),
    (_in_proof("(and-elim 3 (id h))"), "4:13: and-elim index must be 1 or 2"),
    (_in_proof("(bot-elim a (id h))"),
     "4:13: expected a (label formula) binder"),
    (_in_proof("(foo (id h))"), "4:3: unknown proof form foo"),
    (_in_term("(lam (x (-> nat)) x)"),
     "4:11: type arrow needs at least two arguments"),
    (_in_term("(lam (x (* nat)) x)"), "4:11: * takes two types"),
    (_in_term("(lam (x\tiota) x)"), "4:11: expected a type"),
    (_in_term("(lam (x nat))"), "4:3: lam takes 2 argument(s)"),
    (_in_term("(app\tsucc)"), "4:3: app needs a function and arguments"),
    (_in_term("(proj 0 x)"), "4:9: proj index must be 1 or 2"),
    (_in_term("()"), "4:3: expected a program"),
    (_in_term("(foo 1)"), "4:3: expected a program"),
    (_in_term("(lam x x)"), "4:8: expected a (name type) binder"),
    (_in_term("(lam (succ nat) 0)"),
     "4:9: succ is reserved and cannot be bound"),
    (_in_term("(mu (4 nat) 0)"), "4:8: 4 is reserved and cannot be bound"),
    ("(theory paw)\r\n\t(theory caw)", "4:2: theory already declared"),
    ("(theory paw caw)", "3:1: theory takes one name"),
    ("(theory\tzfc)", "3:9: unknown theory zfc"),
    ("(proof p (goal bot))",
     "3:1: proof takes a name, a goal, and a derivation"),
    ("(term a 0)\r\n(term\ta 1)", "4:7: duplicate declaration a"),
    ("(term a 0)\r\n(proof\ta (goal bot) (id h))",
     "4:8: duplicate declaration a"),
    ("(proof p\t(goal) (id h))", "3:10: expected (goal <formula>)"),
    ("(proof p\t(gaol bot) (id h))", "3:10: expected (goal <formula>)"),
    ("(term t)", "3:1: term takes a name and a program"),
    ("(lemma\ta 0)", "3:1: unknown declaration lemma"),
]


@pytest.mark.parametrize("src,message", _DIAGNOSTICS,
                         ids=[m for _, m in _DIAGNOSTICS])
def test_reader_diagnostics_are_pinned(src, message):
    with pytest.raises(UserError) as info:
        parse_source(_LEAD + src)
    assert str(info.value) == message


@pytest.mark.parametrize("digit", ["²", "٣"])
def test_numerals_are_ascii_digits(digit):
    with pytest.raises(UserError) as info:
        parse_source(f"(proof p (goal (neq {digit} 0)) (id h))")
    assert str(info.value) == f"1:21: unknown identifier {digit}"
    assert _parse_term(digit) == LVar(digit)
    assert _parse_formula(f"(all ({digit} iota) bot)") \
        == Forall(digit, IOTA, BOT)


# ----------------------------------------------------- reader positions

# Runs put between two tokens: whitespace, comments (holding parentheses and
# semicolons), or nothing, which separates two tokens only when one of them
# is a parenthesis, so two atoms always get whitespace.
_GAPS = ["", " ", "  ", "\t", "\r\n", "\n", " ; a (comment) ;\n",
         "\t;\r\n", "\r\n\t ", ";(\r\n"]


def _relayout(text, rng):
    """The tokens of text with random whitespace and comments between
    them, and the source index of every ( and atom, in order."""
    out, starts, at = [], [], 0
    prev = None
    for tok in re.findall(r"[()]|[^\s()]+", text):
        gap = rng.choice(_GAPS)
        if not gap and prev not in ("(", ")", None) \
                and tok not in ("(", ")"):
            gap = rng.choice([" ", "\t", "\r\n"])
        out.append(gap)
        at += len(gap)
        if tok != ")":
            starts.append(at)
        out.append(tok)
        at += len(tok)
        prev = tok
    return "".join(out), starts


def _preorder(nodes):
    for node in nodes:
        yield node
        if isinstance(node, list):
            yield from _preorder(node)


def _canonical_sources():
    for e in corpus_files.entries():
        yield f"(theory {e.theory})\n" + _proof_decl(e.name, e.goal, e.proof)
    rng = random.Random(20261018)
    for i in range(40):
        yield term_decl(f"t{i}", gen_term(rng, rand_type(rng, 3), depth=5))


def test_reader_positions_match_source_indices():
    rng = random.Random(6)
    for canonical in _canonical_sources():
        want = parse_source(canonical)
        for _ in range(3):
            src, starts = _relayout(canonical, rng)
            nodes = list(_preorder(_read_all(src)))
            assert len(nodes) == len(starts)
            for node, i in zip(nodes, starts):
                line = src.count("\n", 0, i) + 1
                col = i - src.rfind("\n", 0, i)
                assert (node.line, node.col) == (line, col), src[i:i + 20]
            got = parse_source(src)
            assert (got.theory_name, got.proofs, got.terms) \
                == (want.theory_name, want.proofs, want.terms)


# --------------------------------------------------- plain and positioned

# parse_source reads a file without positions and parses that; only when
# the parse fails does it read the file again with positions and parse it
# once more to report the error.  _parse_declarations on the positioned
# reader's nodes is the one-pass parse that reports every error directly.

_BENCH_WORKLOADS = CORPUS.parent / "bench" / "workloads.py"


def _barrec_sources():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  _BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [term_decl(f"barrec{n}", workloads.barrec_term(n))
            for n in range(4)]


def _reader_sources():
    yield from (p.read_text(encoding="utf-8")
                for p in sorted(CORPUS.iterdir()))
    rng = random.Random(6)
    for canonical in _canonical_sources():
        yield canonical
        for _ in range(3):
            yield _relayout(canonical, rng)[0]
    yield from _barrec_sources()


def _strings(obj):
    """Every str held by a parsed object, walked without recursion."""
    todo = [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            yield x
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.items())
        elif dataclasses.is_dataclass(x):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))


def _plain_shape(nodes):
    todo = list(nodes)
    while todo:
        node = todo.pop()
        if node.__class__ is list:
            todo.extend(node)
        elif node.__class__ is not str:
            return False
    return True


def test_plain_and_positioned_passes_agree():
    for src in _reader_sources():
        plain, positioned = _read_plain(src), _read_all(src)
        assert _plain_shape(plain)
        assert plain == positioned
        ws = parse_source(src)
        assert ws == _parse_declarations(positioned)
        assert ws.proofs or ws.terms
        assert all(s.__class__ is str for s in _strings(ws)), src


def test_both_readers_split_whitespace_edges_alike():
    # a form feed and a no-break space are atom characters, CR separates
    # tokens without ending the line, and ; cuts a line inside an atom
    src = "(a\fb c\xa0d\re;f g)\n\t)"
    plain, positioned = _read_plain(src), _read_all(src)
    assert plain == positioned == [["a\fb", "c\xa0d", "e"]]
    assert [(n.line, n.col) for n in _preorder(positioned)] \
        == [(1, 1), (1, 2), (1, 6), (1, 10)]
    assert all(len(f"a{c}b".split()) == 2 for c in _SPLIT_ONLY)
    rng = random.Random(20261020)
    read, refused = 0, 0
    for _ in range(3000):
        src = "".join(rng.choices(_WHITESPACE_PIECES, k=rng.randrange(40)))
        plain = _outcome_of(_read_plain, _NeedPositions, src)
        assert plain == _outcome_of(_read_all, UserError, src), repr(src)
        if plain is None:
            refused += 1
        elif any(c in src for c in _SPLIT_ONLY):
            read += 1
    assert read > 500 and refused > 500


# what str.split() cuts at, but FORMAT.md makes atom characters
_SPLIT_ONLY = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
# each of FORMAT.md's separators, atoms, a comment start that lands at a
# line's end or inside an atom, and parentheses that need not balance
_WHITESPACE_PIECES = [" ", "\t", "\r", "\r\n", "\n", ";", "a", "b7", "(", ")",
                      "()", *_SPLIT_ONLY]


def _outcome_of(read, refusal, src):
    """What read makes of src, or None when it raises refusal."""
    try:
        return read(src)
    except refusal:
        return None


_MUTANTS = ["(", ")", "0", "iota", "99999", "-1"]


def _mutate(src, rng):
    """src with one or two of its tokens deleted, doubled or replaced."""
    spans, at = [], 0
    for line in src.split("\n"):
        cut = line.find(";")
        spans += [(at + m.start(), at + m.end()) for m in re.finditer(
            r"[()]|[^ \t\r();]+", line if cut < 0 else line[:cut])]
        at += len(line) + 1
    for start, end in sorted(rng.sample(spans, rng.choice([1, 2])),
                             reverse=True):
        op = rng.choice(["delete", "double", "replace"])
        if op == "delete":
            new = ""
        elif op == "double":
            new = src[start:end] + " " + src[start:end]
        else:
            new = f" {rng.choice(_MUTANTS)} "
        src = src[:start] + new + src[end:]
    return src


def _outcome(parse, src):
    try:
        return parse(src)
    except UserError as ex:
        return str(ex)


def test_two_passes_report_the_error_of_one_positioned_pass():
    rng = random.Random(20261018)
    sources = [p.read_text(encoding="utf-8")
               for p in sorted(CORPUS.iterdir())]
    errors = 0
    for i in range(1200):
        src = _mutate(sources[i % len(sources)], rng)
        got = _outcome(parse_source, src)
        want = _outcome(lambda s: _parse_declarations(_read_all(s)), src)
        assert got == want, src
        if isinstance(got, str):
            errors += 1
            assert re.match(r"^\d+:\d+: ", got), got
    assert errors > 600


def test_only_a_malformed_file_is_read_with_positions(monkeypatch, tmp_path):
    reads = []

    def counted(src):
        reads.append(src)
        return _read_all(src)

    monkeypatch.setattr("mupcf.format._read_all", counted)
    for path in sorted(CORPUS.iterdir()):
        parse_file(path)
    for src in _barrec_sources():
        parse_source(src)
    assert reads == []
    bad = tmp_path / "bad.proof"
    bad.write_text("(theory paw)\n(proof p (goal bot) (id))\n")
    with pytest.raises(UserError) as info:
        parse_file(bad)
    assert str(info.value) == f"{bad}:2:21: id takes 1 argument(s)"
    assert len(reads) == 1
