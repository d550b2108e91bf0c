"""The proof checker against its reference (tests/reference.py).

The library's checker reads the free variables and well-formedness that
each conclusion carries, so it skips the well-formedness walk at a
quantifier introduction and the substitution at an elimination by the bound
variable itself. The reference
re-walks and substitutes every time. The two must agree on the conclusion,
the hypotheses and labels it uses, and every error message."""

import random
import re

from mupcf.errors import UserError
from mupcf.format import (
    _NeedPositions, _parse_declarations, _read_plain, formula_sexp,
    parse_source, proof_sexp,
)
from mupcf.logic import (
    AndIntro, Ax, BotElim, BotIntro, ForallElim, ForallIntro, IApp, IOTA,
    Forall, IVar, Id, ImpIntro, Sequent, THEORIES, ZERO, _check_node,
    arrow, check_proof, f_eq, f_neq,
)
from mupcf.relativize import rel_proof

import reference
from corpus_files import CORPUS

PAW = THEORIES["paw"]
FN = arrow(IOTA, IOTA)


def _outcome(node, check, proof, theory, goal):
    """The root conclusion with the names it uses, then check's verdict;
    an error stands as its message."""
    try:
        c, uh, ul = node(proof, theory, {}, {})
        root = (c, uh, ul)
    except UserError as ex:
        root = str(ex)
    try:
        verdict = check(proof, theory, goal)
    except UserError as ex:
        verdict = str(ex)
    return root, verdict


def _agree(proof, theory, goal):
    got = _outcome(_check_node, check_proof, proof, theory, goal)
    # the reference keeps a table of instances per call; the library's
    # checker reads them from the memo of Theory.instantiate
    want = _outcome(lambda *a: reference.check_node(*a, {}),
                    reference.check_proof, proof, theory, goal)
    assert got == want, proof_sexp(proof)
    return got


# ---------------------------------------------------- token mutations

_KEYWORDS = {
    "theory", "proof", "goal", "all", "->", "neq", "=", "bot", "ax", "id",
    "imp-intro", "imp-elim", "and-intro", "and-elim", "forall-intro",
    "forall-elim", "bot-intro", "bot-elim", "paw", "caw", "pawr", "cawr",
    "iota",
}


def _sources():
    """The corpus files, and the relativized proof of each that has one."""
    out = []
    for path in sorted(CORPUS.glob("*.proof")):
        src = path.read_text(encoding="utf-8")
        out.append(src)
        ws = parse_source(src)
        if ws.theory_name not in ("paw", "caw"):
            continue
        for name, (goal, pf) in ws.proofs.items():
            rpf, rth, rgoal = rel_proof(pf, ws.theory, goal)
            out.append(f"(theory {rth.name})\n(proof {name}\n"
                       f"  (goal {formula_sexp(rgoal.concl)})\n"
                       f"  {proof_sexp(rpf)})\n")
    return out


def _sites(src):
    """Where src may be mutated: its names and numerals, the words that may
    replace them, and its base sorts."""
    spans = [m.span() for m in re.finditer(r"[^ \n();]+", src)]
    names = [(a, b) for a, b in spans if src[a:b] not in _KEYWORDS]
    words = sorted({src[a:b] for a, b in names}) + ["0", "(S x)"]
    sorts = [(a, b) for a, b in spans if src[a:b] == "iota"]
    return src, names, words, sorts


def _mutate(site, rng):
    """The source with one or two names or numerals replaced by another
    one of it, and maybe a base sort by an arrow sort. Keywords stay, so
    many mutants still read."""
    src, names, words, sorts = site
    edits = [(a, b, rng.choice(words))
             for a, b in rng.sample(names, rng.choice([1, 2]))]
    if sorts and rng.random() < 0.3:
        edits.append(rng.choice(sorts) + ("(-> iota iota)",))
    for a, b, new in sorted(set(edits), reverse=True):
        src = src[:a] + new + src[b:]
    return src


def test_checker_agrees_with_the_reference_on_mutated_proofs():
    rng = random.Random(20261018)
    sites = [_sites(src) for src in _sources()]
    read = accepted = rejected = 0
    for i in range(8000):
        src = _mutate(sites[i % len(sites)], rng)
        try:  # a reader error would only be located and reported
            ws = _parse_declarations(_read_plain(src))
        except (UserError, _NeedPositions):
            continue
        read += 1
        for goal, pf in ws.proofs.values():
            _, verdict = _agree(pf, ws.theory, goal)
            if isinstance(verdict, str):
                rejected += 1
            else:
                accepted += 1
        if read == 2000:
            break
    assert read == 2000
    assert accepted >= 300 and rejected >= 600, (accepted, rejected)


# --------------------------------------------- the fallbacks, by hand

x, x_fn = IVar("x", IOTA), IVar("x", FN)


def _refl(t, sort=IOTA):
    return ForallElim(Ax("refl", (sort,)), t)


def _rejects(proof, goal, msg):
    _, verdict = _agree(proof, PAW, goal)
    assert verdict == msg


def test_forall_intro_rewalks_a_body_that_uses_x_at_another_sort():
    pf = ForallIntro("x", FN, _refl(x))
    _rejects(pf, Sequent(concl=f_eq(x, x)),
             "variable x used at iota but declared at (-> iota iota)")


def test_forall_elim_by_a_clashing_term_is_rewalked_later():
    # h : all v (neq x v) at x : iota; v := (x 0) at x : iota -> iota
    hyp = Forall("v", IOTA, f_neq(x, IVar("v", IOTA)))
    goal = Sequent(concl=f_eq(x, x))
    pf = ImpIntro("h", hyp, ForallIntro(
        "z", IOTA, ForallElim(Id("h"), IApp(x_fn, ZERO))))
    _rejects(pf, goal, "variable x used at two sorts")
    # a term whose own variables clash
    pf = ImpIntro("h", hyp, ForallIntro(
        "z", IOTA, ForallElim(Id("h"), IApp(x_fn, x))))
    _rejects(pf, goal, "variable x used at two sorts")


def test_conflicting_merges_are_rewalked():
    imp = ImpIntro("h", f_neq(x, ZERO), _refl(x_fn, FN))
    _rejects(ForallIntro("z", IOTA, imp), Sequent(concl=f_eq(x, x)),
             "variable x used at two sorts")
    both = AndIntro(_refl(x), _refl(x_fn, FN))
    _rejects(ForallIntro("z", IOTA, both), Sequent(concl=f_eq(x, x)),
             "variable x used at two sorts")


def test_eigenvariable_free_in_a_used_hypothesis_or_label():
    pf = ImpIntro("h", f_neq(x, ZERO), ForallIntro("x", IOTA, Id("h")))
    _rejects(pf, Sequent(concl=f_eq(x, x)),
             "eigenvariable x is free in used hypothesis h")
    # label l : x = x, thrown to inside all x
    pf = BotElim("l", f_eq(x, x), ForallElim(
        ForallIntro("x", IOTA, BotIntro("l", _refl(x))), ZERO))
    _rejects(pf, Sequent(concl=f_eq(x, x)),
             "eigenvariable x is free in used label l")
