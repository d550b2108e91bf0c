"""The one writer, lambdamu.write, that prints every syntax from the layout
each class declares.

It prints what the recursive printers of tests/reference.py printed, byte
for byte, and it keeps its own stack, so it prints objects nested deeper
than the interpreter's default recursion limit allows a recursive walk."""

import random
import sys
from pathlib import Path

from mupcf import cps, format, lambdamu, logic
from mupcf.cps import GApp, GVar, cps_envs, cps_term, normalize_lam
from mupcf.errors import UserError
from mupcf.extract import extract_program
from mupcf.format import parse_file
from mupcf.interp import interp_envs, interp_proof
from mupcf.lambdamu import LApp, Num, SUCC_T, typecheck
from mupcf.logic import BOT, Imp, MAX_DEPTH
from mupcf.relativize import rel_formula, rel_proof

import reference
from termgen import gen_term, rand_type
from test_properties import _formula

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "corpus").glob("*.proof")),
           ROOT / "tests" / "dc-succ.proof"]
# the name each printer has in the library, with its module
PRINTERS = {"sort_sexp": logic, "ind_sexp": logic, "formula_sexp": logic,
            "proof_sexp": format, "type_sexp": lambdamu,
            "term_sexp": lambdamu, "lam_type_str": cps, "lam_term_str": cps}


def _mismatches(printed):
    """The (printer, index) of each (printer name, object) pair in printed
    that the writer prints otherwise than the reference printer."""
    out = []
    for i, (name, obj) in enumerate(printed):
        if getattr(PRINTERS[name], name)(obj) != getattr(reference, name)(obj):
            out.append((name, i))
    return out


def _inner(printed):
    """The sorts and individuals in the formulas of printed, down to the
    leaves."""
    out = []
    todo = [obj for name, obj in printed if name == "formula_sexp"]
    while todo:
        x = todo.pop()
        cls = x.__class__
        if cls in (logic.Imp, logic.And):
            todo += (x.left, x.right)
        elif cls is logic.Forall:
            todo += (x.sort, x.body)
        elif cls is logic.Atom:
            todo += x.args
        elif isinstance(x, logic.Individual):
            out.append(("ind_sexp", x))
            todo += ((x.fn, x.arg) if cls is logic.IApp else
                     x.sort_args if cls is logic.IConst else (x.sort,))
        elif isinstance(x, logic.Sort):
            out.append(("sort_sexp", x))
            if cls is logic.SArrow:
                todo += (x.left, x.right)
    return out


def _cps_objects(t, env, lenv, normalize=True):
    """The CPS translation of t and its type, and its normal form unless
    normalize is false."""
    g = cps_term(t, env, lenv)
    ctx = cps_envs(env, lenv)
    out = [("lam_term_str", g), ("lam_type_str", cps.typecheck_lam(g, ctx))]
    if normalize:
        out.append(("lam_term_str", normalize_lam(g, ctx)))
    return out


def _pipeline_objects(path):
    """What relativize, interp, cps and extract print on the file, with the
    goal and proof of each declaration and each CPS normal form."""
    ws = parse_file(path)
    out = []
    for goal, proof in ws.proofs.values():
        t = interp_proof(proof, ws.theory, goal)
        env, lenv = interp_envs(goal)
        out += [("formula_sexp", goal.concl), ("proof_sexp", proof),
                ("term_sexp", t), ("type_sexp", typecheck(t, env, lenv))]
        out += _cps_objects(t, env, lenv)
        try:
            rpf, _, rgoal = rel_proof(proof, ws.theory, goal)
            out += [("formula_sexp", rgoal.concl), ("proof_sexp", rpf)]
            out.append(("term_sexp", extract_program(proof, ws.theory, goal)))
        except UserError:  # a relativized theory, or no goal extract runs
            pass
    for t in ws.terms.values():
        out += [("term_sexp", t), ("type_sexp", typecheck(t))]
        out += _cps_objects(t, {}, {})
    return out


def test_the_writer_prints_as_the_recursive_printers_on_the_pipeline():
    printed = [p for path in SOURCES for p in _pipeline_objects(path)]
    assert len(printed) == 120
    printed += _inner(printed)
    assert {name for name, _ in printed} == set(PRINTERS)
    assert _mismatches(printed) == []


def test_the_writer_prints_as_the_recursive_printers_on_random_terms():
    rng = random.Random(20261021)
    printed = []
    for _ in range(600):
        t = gen_term(rng, rand_type(rng, 3), depth=7)
        printed += [("term_sexp", t), ("type_sexp", typecheck(t))]
        printed += _cps_objects(t, {}, {}, normalize=False)
    printed.append(("lam_type_str", cps.R))  # only diagnostics print it
    assert _mismatches(printed) == []


def test_the_writer_prints_as_the_recursive_printers_on_random_formulas():
    rng = random.Random(20261022)
    printed = []
    for _ in range(300):
        f = _formula(rng, [], 5)
        g = _formula(rng, [], 5, rel_ok=False)
        printed += [("formula_sexp", f), ("formula_sexp", g),
                    ("formula_sexp", rel_formula(g))]
    printed += _inner(printed)
    assert {name for name, _ in printed} == {
        "formula_sexp", "sort_sexp", "ind_sexp"}
    assert _mismatches(printed) == []


def test_deep_objects_print_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    n = 20000
    t, g = Num(0), GVar("x")
    for _ in range(n):
        t, g = LApp(SUCC_T, t), GApp(GVar("f"), g)
    assert lambdamu.term_sexp(t) == "(app succ " * n + "0" + ")" * n
    assert cps.lam_term_str(g) == "(app f " * n + "x" + ")" * n
    f = BOT
    for _ in range(MAX_DEPTH):
        f = Imp(BOT, f)
    assert logic.formula_sexp(f) == (
        "(-> bot " * MAX_DEPTH + "bot" + ")" * MAX_DEPTH)
