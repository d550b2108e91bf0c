"""Command-line front end.

Subcommands: check, relativize, interp, eval, cps, extract.  Exit codes:
0 success, 1 bad input (a malformed command line included), 2 fuel
exhausted, 3 internal invariant breach.

``main(argv)`` may be called repeatedly in one process: it builds its
argument parser on the first call. Between calls the library keeps only
bounded memos of pure values: that parser, each axiom instance and its
realizer, the quantifier instances of logic.subst_var, the guarded
formulas of relativize.rel_formula, the realizability predicates of
logic.rel_pred and the answers of logic.alpha_eq on two distinct formulas.
"""

import argparse
import functools
import json
import os
import re
import sys

from .cps import cps_envs, cps_term, lam_term_str, lam_type_str, typecheck_lam
from .errors import FuelExhausted, InternalError, MupcfError, UserError
from .extract import FAIL, TIMEOUT, run_extraction
from .format import (
    digits_error, formula_sexp, parse_file, proof_sexp, term_sexp, type_sexp,
)
from .interp import interp_envs, interp_proof, interp_type
from .lambdamu import NAT, eval_nat, typecheck
from .logic import check_proof
from .relativize import rel_proof

_RECURSION_LIMIT = 50000

_CATEGORY = {
    UserError: ("user-error", 1),
    FuelExhausted: ("fuel-exhausted", 2),
    InternalError: ("internal-error", 3),
}


def _long_numeral(text):
    """Why int() refuses text if it is a numeral too long for it, counting
    its digits rather than echoing them (format.digits_error), else None."""
    m = re.fullmatch(r"\s*[+-]?([0-9]+)\s*", text)
    return m and digits_error(m.group(1))


def _fuel_option(text):
    """--fuel as type=int reads it, but a numeral too long for int() is
    refused by its number of digits."""
    msg = _long_numeral(text)
    if msg:
        raise argparse.ArgumentTypeError(msg)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def _default_fuel():
    raw = os.environ.get("MUPCF_FUEL", "1000000")
    msg = _long_numeral(raw)
    if msg:
        raise UserError(f"MUPCF_FUEL {msg}")
    try:
        fuel = int(raw)
    except ValueError:
        raise UserError(f"MUPCF_FUEL must be an integer, got {raw!r}") \
            from None
    if fuel < 0:
        raise UserError(f"MUPCF_FUEL must be non-negative, got {raw!r}")
    return fuel


def _parse_inputs(text):
    m = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", text)
    if not m:
        raise UserError(f"--inputs must look like a..b, got {text!r}")
    for bound in m.groups():
        msg = digits_error(bound)
        if msg:
            raise UserError(f"--inputs bound {msg}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise UserError(f"--inputs range is empty: {text}")
    return range(lo, hi + 1)


def _pick(table, kind, name, kinds=None):
    """The entry of table to run; kind (plural kinds) names one in errors."""
    if name is not None:
        if name not in table:
            known = ", ".join(sorted(table)) or "none"
            raise UserError(f"no {kind} named {name} (known: {known})")
        return name
    if len(table) == 1:
        return next(iter(table))
    if not table:
        raise UserError(f"the file declares no {kind}")
    raise UserError(
        f"several {kinds or kind + 's'} declared "
        f"({', '.join(sorted(table))}); pick one with --name"
    )


def _emit(args, payload, lines=None):
    """Print a command's result: in structured mode the payload as one JSON
    line; in text mode the given lines, else one `field: value` line per
    field after command and name and one `key=value ...` line per row of a
    list field, where a missing value (None) reads null, as in JSON."""
    if args.format == "structured":
        print(json.dumps(payload))
        return
    if lines is None:
        lines = []
        for key, value in payload.items():
            if key in ("command", "name"):
                continue
            if isinstance(value, list):
                lines += [" ".join(f"{k}={'null' if v is None else v}"
                                   for k, v in row.items()) for row in value]
            else:
                lines.append(f"{key}: {value}")
    for line in lines:
        print(line)


def _cmd_check(ws, args):
    names = [args.name] if args.name else list(ws.proofs)
    if args.name:
        _pick(ws.proofs, "proof", args.name)
    if not names:
        raise UserError("the file declares no proof")
    results = []
    for n in names:
        goal, pf = ws.proofs[n]
        check_proof(pf, ws.theory, goal)
        results.append({"name": n, "status": "ok"})
    _emit(args, {"command": "check", "results": results},
          [f"{r['name']}: ok" for r in results])
    return 0


def _cmd_relativize(ws, args):
    name = _pick(ws.proofs, "proof", args.name)
    goal, pf = ws.proofs[name]
    rpf, rtheory, rgoal = rel_proof(pf, ws.theory, goal)
    _emit(args, {"command": "relativize", "name": name,
                 "theory": rtheory.name, "goal": formula_sexp(rgoal.concl),
                 "proof": proof_sexp(rpf)})
    return 0


def _cmd_interp(ws, args):
    name = _pick(ws.proofs, "proof", args.name)
    goal, pf = ws.proofs[name]
    t = interp_proof(pf, ws.theory, goal)
    _emit(args, {"command": "interp", "name": name, "term": term_sexp(t),
                 "type": type_sexp(interp_type(goal.concl))})
    return 0


def _cmd_eval(ws, args):
    name = _pick(ws.terms, "term", args.name)
    t = ws.terms[name]
    ty = typecheck(t)
    if ty != NAT:
        raise UserError(
            f"eval runs a program of type nat, not {type_sexp(ty)}")
    value, steps = eval_nat(t, args.fuel)
    _emit(args, {"command": "eval", "name": name, "value": value,
                 "steps": steps})
    return 0


def _cmd_cps(ws, args):
    name = _pick({**ws.proofs, **ws.terms}, "proof or term", args.name,
                 "proofs or terms")
    if name in ws.proofs:
        goal, pf = ws.proofs[name]
        t = interp_proof(pf, ws.theory, goal)
        env, lenv = interp_envs(goal)
    else:
        t, env, lenv = ws.terms[name], {}, {}
    g = cps_term(t, env, lenv)
    ty = typecheck_lam(g, cps_envs(env, lenv))
    _emit(args, {"command": "cps", "name": name, "term": lam_term_str(g),
                 "type": lam_type_str(ty)})
    return 0


def _cmd_extract(ws, args):
    name = _pick(ws.proofs, "proof", args.name)
    goal, pf = ws.proofs[name]
    program, rows = run_extraction(pf, ws.theory, goal, args.inputs,
                                   args.fuel)
    _emit(args, {"command": "extract", "name": name,
                 "program": term_sexp(program), "rows": rows})
    verdicts = {r["verdict"] for r in rows}
    if FAIL in verdicts:
        return 1
    if TIMEOUT in verdicts:
        return 2
    return 0


_COMMANDS = {  # name: (handler, help)
    "check": (_cmd_check, "check every proof in a file"),
    "relativize": (_cmd_relativize,
                   "translate a proof into the relativized theory"),
    "interp": (_cmd_interp, "compile a proof to a control term"),
    "eval": (_cmd_eval, "run a program down to a numeral"),
    "cps": (_cmd_cps,
            "translate a proof or program into the target calculus"),
    "extract": (_cmd_extract, "extract and run a witness program"),
}


class _UsageError(Exception):
    """A malformed command line, with the usage line of the parser that
    rejected it."""

    def __init__(self, usage, message):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a user error (exit 1) rather
    than exiting 2, which is the fuel-exhausted code."""

    def error(self, message):
        raise _UsageError(self.format_usage(), message)


_FUEL_COMMANDS = ("eval", "extract")


@functools.cache
def _build_parser():
    p = _Parser(
        prog="mupcf",
        description="Check sequent proofs of classical arithmetic, "
                    "relativize them, compile them to control terms, and "
                    "extract witness programs.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, (_, help_) in _COMMANDS.items():
        s = sub.add_parser(cmd, help=help_)
        s.add_argument("file", help="declaration file")
        s.add_argument("--name", help="declaration to operate on "
                                      "(default: the only one)")
        s.add_argument("--theory", choices=["paw", "caw"],
                       help="override the file's theory declaration")
        s.add_argument("--format", choices=["text", "structured"],
                       default="text", help="output mode")
        if cmd in _FUEL_COMMANDS:
            s.add_argument("--fuel", type=_fuel_option, default=None,
                           help="non-negative step budget "
                                "(default: MUPCF_FUEL or 1000000)")
        if cmd == "extract":
            s.add_argument("--inputs", default="0..10",
                           help="inclusive input range a..b (default 0..10)")
    return p


def _report_error(fmt, category, message):
    if fmt == "structured":
        print(json.dumps({"error": {"category": category,
                                    "message": message}}))
    else:
        print(f"error[{category}]: {message}", file=sys.stderr)


def _wants_structured(argv):
    """Whether a command line that argparse refused asks for structured
    output, as `--format structured` or `--format=structured`. argparse
    takes a long option by any prefix that no other option of its command
    shares: `--f` is also a prefix of `--fuel`."""
    shortest = "--fo" if argv[:1] and argv[0] in _FUEL_COMMANDS else "--f"
    for a, b in zip(argv, argv[1:] + [None]):
        opt, eq, value = a.partition("=")
        if (len(opt) >= len(shortest) and "--format".startswith(opt)
                and (value if eq else b) == "structured"):
            return True
    return False


def main(argv=None):
    try:
        try:
            return _main(argv)
        finally:
            sys.stdout.flush()  # a reader gone early shows here, not at exit
    except BrokenPipeError:
        # nothing more can reach the reader: send what is left to devnull,
        # so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error[user-error]: standard output closed before the output "
              "was written", file=sys.stderr)
        return 1


def _main(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as ex:
        fmt = "structured" if _wants_structured(argv) else "text"
        if fmt == "text":
            sys.stderr.write(ex.usage)
        _report_error(fmt, "user-error", str(ex))
        return 1
    # deep inputs need a higher limit; the caller's is restored on return
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _RECURSION_LIMIT))
    try:
        if hasattr(args, "fuel"):
            if args.fuel is None:
                args.fuel = _default_fuel()
            elif args.fuel < 0:
                raise UserError(
                    f"--fuel must be non-negative, got {args.fuel}")
        if hasattr(args, "inputs"):
            args.inputs = _parse_inputs(args.inputs)
        ws = parse_file(args.file)
        if args.theory:
            ws.theory_name = args.theory
        return _COMMANDS[args.command][0](ws, args)
    except RecursionError:
        # the reader, the checker and the translations recurse once per
        # nesting level of the object they walk
        _report_error(args.format, "user-error", "input nests too deeply")
        return 1
    except MemoryError:
        _report_error(args.format, "user-error",
                      "input is too large (out of memory)")
        return 1
    except MupcfError as ex:
        for klass, (category, code) in _CATEGORY.items():
            if isinstance(ex, klass):
                _report_error(args.format, category, str(ex))
                return code
        raise
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
