"""The command-line contract on mutated and outsized inputs.

Every run of `mupcf` ends in exit code 0, 1 or 2, never in 3 (an internal
invariant breach) or an escaping exception. A run that fails says why in
one line: in text mode `error[category]: message` on stderr and nothing on
stdout, in structured mode a JSON error object on stdout and nothing on
stderr. The one failure that is no error is `extract` reporting a `fail`
(exit 1) or `fail-with-timeout` (exit 2) verdict in its rows.

The inputs are seeded token mutants of every corpus file, of
tests/dc-succ.proof and of the relativized proof of each proof in a base
theory, run in this process under every subcommand in both formats; and
generated files at and just past the reader's bounds, run in a fresh
interpreter so that a crash fails the test instead of the run."""

import json
import random
import re
from pathlib import Path

from mupcf import cli
from mupcf.extract import FAIL, TIMEOUT
from mupcf.format import formula_sexp, parse_source, proof_sexp
from mupcf.logic import MAX_DEPTH
from mupcf.relativize import rel_proof

import test_check_reference
import test_format
from corpus_files import CORPUS
from test_cli import _ALL_COMMANDS, _main_in_subprocess

FUEL = "2000"
_ERROR = re.compile(r"error\[([a-z-]+)\]: [^\n]+\n")
_CODE = {"user-error": 1, "fuel-exhausted": 2}


def _argv(cmd, path, fmt):
    fuel = ["--fuel", FUEL] if cmd in ("eval", "extract") else []
    return [cmd, str(path), "--format", fmt, *fuel]


def _verdict_failure(cmd, code, verdicts):
    """Whether a failing extract run reports the verdict its code means."""
    return cmd == "extract" and (FAIL if code == 1 else TIMEOUT) in verdicts


def _violation(argv, code, out, err):
    """How one run breaks the contract, or None."""
    cmd, fmt = argv[0], argv[3]
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if fmt == "structured":
        if err:
            return "structured mode wrote to stderr"
        try:
            payload = json.loads(out)
        except ValueError:
            return "stdout is not one JSON value"
        if "error" in payload:
            if _CODE.get(payload["error"].get("category")) != code:
                return "the error category does not match the exit code"
        elif payload.get("command") != cmd:
            return "the payload names another command"
        elif code and not _verdict_failure(
                cmd, code, {r["verdict"] for r in payload.get("rows", ())}):
            return "a failure without an error"
        return None
    if err:
        m = _ERROR.fullmatch(err)
        if not m:
            return "stderr is not one error[category] line"
        if _CODE.get(m[1]) != code:
            return "the error category does not match the exit code"
        if out:
            return "a failed run wrote to stdout"
    elif code and not _verdict_failure(
            cmd, code, set(re.findall(r" verdict=(\S+) ", out))):
        return "a failure without an error"
    return None


def _run(capsys, argv):
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as ex:  # nothing may escape main
        code = f"escaped {type(ex).__name__}: {ex}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- mutants

def _sources():
    """(suffix, text) of every corpus file, tests/dc-succ.proof, and the
    relativized proofs of each of them in a base theory."""
    out = []
    for path in [*sorted(CORPUS.iterdir()),
                 Path(__file__).resolve().parent / "dc-succ.proof"]:
        src = path.read_text(encoding="utf-8")
        out.append((path.suffix, src))
        ws = parse_source(src)
        if ws.theory_name not in ("paw", "caw"):
            continue
        for name, (goal, pf) in ws.proofs.items():
            rpf, rth, rgoal = rel_proof(pf, ws.theory, goal)
            out.append((".proof", f"(theory {rth.name})\n(proof {name}\n"
                                  f"  (goal {formula_sexp(rgoal.concl)})\n"
                                  f"  {proof_sexp(rpf)})\n"))
    return out


def test_mutated_inputs_keep_the_contract(capsys, tmp_path):
    """Mutants alternate between the reader's mutator (a token deleted,
    doubled or replaced: most end in a positioned reader error) and the
    checker's (a name or numeral replaced by another: about a third read,
    and fail or pass later in the pipeline)."""
    sources = _sources()
    sites = [test_check_reference._sites(src) for _, src in sources]
    rng = random.Random(20261021)
    codes, violations = set(), []
    for i in range(1000):
        k = i % len(sources)
        suffix, src = sources[k]
        src = (test_format._mutate(src, rng) if i % 2
               else test_check_reference._mutate(sites[k], rng))
        path = tmp_path / f"m{suffix}"
        path.write_text(src, encoding="utf-8")
        cmd = _ALL_COMMANDS[i // 2 % len(_ALL_COMMANDS)]
        for fmt in ("text", "structured"):
            argv = _argv(cmd, path, fmt)
            code, out, err = _run(capsys, argv)
            codes.add(code)
            why = _violation(argv, code, out, err)
            if why:
                violations.append((why, argv, code, out[-300:], err[-300:],
                                   src))
    assert violations[:3] == [], len(violations)
    # the mutants reach success, errors and fuel exhaustion
    assert codes == {0, 1, 2}, codes


# ------------------------------------------------------- outsized inputs

B = MAX_DEPTH


def _nest(head, leaf, depth):
    """(head (head .. leaf)), depth forms deep."""
    return f"({head} " * depth + leaf + ")" * depth


def _balanced(op, leaf, height):
    return leaf if height == 0 else (
        f"({op} {_balanced(op, leaf, height - 1)} "
        f"{_balanced(op, leaf, height - 1)})")


def _weakening(f):
    """A proof of (-> f bot bot) that never looks into f."""
    return (f"(proof p (goal (-> {f} bot bot)) "
            f"(imp-intro (h {f}) (imp-intro (g bot) (id g))))\n")


def _sized_files():
    """name -> text: a conjunction nest whose innermost conjunct lies at
    MAX_DEPTH and one a level deeper, a wide conjunction and a wide proof
    of one, numeral individuals at and past their bound, and program
    numerals at and past the digit limit. (test_cli runs deep programs.)"""
    conj = "/\\"
    return {
        "and-nest-at.proof": _weakening(_nest(f"{conj} bot", "bot",
                                                   B - 1)),
        "and-nest-past.proof": _weakening(_nest(f"{conj} bot", "bot",
                                                     B)),
        "wide-and.proof": _weakening(_balanced(conj, "bot", 11)),
        "wide-and-intro.proof":
            f"(proof p (goal (-> bot {_balanced(conj, 'bot', 9)})) "
            f"(imp-intro (h bot) {_balanced('and-intro', '(id h)', 9)}))\n",
        "numeral-at.proof": _weakening("(neq 10000 0)"),
        "numeral-past.proof": _weakening("(neq 10001 0)"),
        "digits-at.term": f"(term t {'9' * 4299})\n",
        "digits-past.term": f"(term t {'9' * 4300})\n",
    }


def test_outsized_inputs_keep_the_contract(tmp_path):
    """Each file runs under every command once, in the two formats by
    turns, so that each command meets each format across the files."""
    argvs = []
    for j, (name, text) in enumerate(_sized_files().items()):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        argvs += [_argv(cmd, path, ("text", "structured")[(c + j) % 2])
                  for c, cmd in enumerate(_ALL_COMMANDS)]
    results = _main_in_subprocess(argvs)
    violations = [(why, argv, result[0], result[2][-300:])
                  for argv, result in zip(argvs, results, strict=True)
                  for why in [_violation(argv, *result)] if why]
    assert violations == []
    # each size sits on its bound: check reads each proof at it and refuses
    # the one past it, and eval each program
    runner = {".proof": "check", ".term": "eval"}
    read = {Path(argv[1]).name: code
            for argv, (code, *_) in zip(argvs, results)
            if argv[0] == runner[Path(argv[1]).suffix]}
    assert read == {
        "and-nest-at.proof": 0, "and-nest-past.proof": 1,
        "wide-and.proof": 0, "wide-and-intro.proof": 0,
        "numeral-at.proof": 0, "numeral-past.proof": 1,
        "digits-at.term": 0, "digits-past.term": 1,
    }
