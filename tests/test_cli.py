import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mupcf
from mupcf import cli, extract, format, interp
from mupcf.lambdamu import Num

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--format", "structured"])
    assert err == ""
    return code, json.loads(out)


# ------------------------------------------------------------------ check

def test_check_single_proof(capsys):
    code, out, err = _run(capsys, ["check", str(CORPUS / "peirce.proof")])
    assert code == 0
    assert out == "peirce: ok\n"
    assert err == ""


@pytest.mark.parametrize("stem", [
    "exfalso", "dne", "and-comm", "forall-swap", "s-neq-0-use",
    "succ-total", "ident-total", "add0-total", "skk-total",
    "dc-diag", "rel-arith",
])
def test_check_whole_corpus(capsys, stem):
    code, _, _ = _run(capsys, ["check", str(CORPUS / f"{stem}.proof")])
    assert code == 0


def test_check_structured_and_deterministic(capsys):
    argv = ["check", str(CORPUS / "dne.proof")]
    code1, payload = _run_json(capsys, argv)
    code2, out2, _ = _run(capsys, argv + ["--format", "structured"])
    assert code1 == code2 == 0
    assert payload["command"] == "check"
    assert payload["results"] == [{"name": "dne", "status": "ok"}]
    assert json.dumps(payload) == out2.strip()


def test_check_failing_proof_is_a_user_error(capsys, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text("(proof nope (goal bot) (id h))\n")
    code, out, err = _run(capsys, ["check", str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("error[user-error]:")


def test_syntax_error_is_positioned(capsys, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text("(proof p\n  (goal (all x bot))\n  (id h))\n")
    code, _, err = _run(capsys, ["check", str(bad)])
    assert code == 1
    assert "2:" in err and "binder" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["check", str(tmp_path / "absent.proof")])
    assert code == 1
    assert "cannot read" in err


def test_structured_errors_go_to_stdout(capsys, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text("(proof nope (goal bot) (id h))\n")
    code, out, err = _run(capsys, ["check", str(bad), "--format", "structured"])
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["error"]["category"] == "user-error"
    assert "message" in payload["error"]


@pytest.mark.parametrize("cmd,fmt", [
    ("eval", "text"), ("eval", "structured"),
    ("check", "text"), ("check", "structured"),
], ids=["text", "structured", "check-text", "check-structured"])
def test_deep_nesting_is_a_user_error(capsys, tmp_path, cmd, fmt):
    depth = 60000
    deep = tmp_path / "deep.term"
    deep.write_text("(term t " + "(app succ " * depth + "0" + ")" * depth
                    + ")\n")
    code, out, err = _run(capsys, [cmd, str(deep), "--format", fmt])
    assert code == 1
    if fmt == "text":
        assert out == ""
        assert err == "error[user-error]: input nests too deeply\n"
    else:
        assert err == ""
        assert json.loads(out) == {"error": {
            "category": "user-error", "message": "input nests too deeply"}}


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_deep_proof_is_refused_by_every_proof_command(capsys, tmp_path,
                                                         fmt):
    """A proof nested 40 000 levels deep goes through the memo of each
    proof stage: its key hashes by identity, as the proof is interned, and
    never walks the tree, so each command reports the unknown hypothesis
    at the bottom of the nest."""
    depth = 40000
    deep = tmp_path / "deep.proof"
    deep.write_text("(proof p (goal (all (x iota) (exists (y iota) (= x y))))"
                    + " (and-elim 1" * depth + " (id h)" + ")" * depth
                    + ")\n")
    for cmd in ("check", "relativize", "interp", "cps", "extract"):
        result = _run(capsys, [cmd, str(deep), "--format", fmt])
        _expect_user_error(fmt, *result, "unknown hypothesis h")


def test_deep_term_still_evaluates(capsys, tmp_path):
    depth = 30000
    deep = tmp_path / "deep.term"
    deep.write_text("(term t " + "(app succ " * depth + "0" + ")" * depth
                    + ")\n")
    code, payload = _run_json(capsys, ["eval", str(deep)])
    assert code == 0
    assert payload["value"] == depth


def _expect_user_error(fmt, code, out, err, message):
    assert code == 1
    if fmt == "text":
        assert out == ""
        assert err == f"error[user-error]: {message}\n"
    else:
        assert err == ""
        assert json.loads(out) == {"error": {
            "category": "user-error", "message": message}}


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_an_ill_typed_interpretation_is_an_internal_error(capsys,
                                                          monkeypatch, fmt):
    """interp_proof typechecks the term it builds: a realizer of the wrong
    type (here a numeral for induction) is a breach of an invariant in
    every command that compiles the proof, not a term printed or a user
    error."""
    real = interp.axiom_realizer

    def realizer(theory, name, args):
        return Num(0) if name == "ind" else real(theory, name, args)

    monkeypatch.setattr(interp, "axiom_realizer", realizer)
    # the memo would answer with a term built before the patch; a refused
    # term is not kept, so nothing ill-typed stays behind
    interp.interp_proof.cache_clear()
    message = "interpretation is ill-typed: applied non-function 0"
    for cmd in ("interp", "cps", "extract"):
        code, out, err = _run(capsys, [cmd, str(CORPUS / "add0-total.proof"),
                                       "--format", fmt])
        assert code == 3, cmd
        if fmt == "text":
            assert (out, err) == ("", f"error[internal-error]: {message}\n")
        else:
            assert err == ""
            assert json.loads(out) == {"error": {
                "category": "internal-error", "message": message}}


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_undecodable_file_is_a_user_error(capsys, tmp_path, fmt):
    bad = tmp_path / "bad.term"
    bad.write_bytes(b"(term t 3)\n\xff\n")
    code, out, err = _run(capsys, ["eval", str(bad), "--format", fmt])
    _expect_user_error(fmt, code, out, err, (
        f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff in "
        f"position 11: invalid start byte"))


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_leading_byte_order_mark_is_skipped(capsys, tmp_path, fmt):
    bom = b"\xef\xbb\xbf"
    plain, marked = tmp_path / "plain.term", tmp_path / "marked.term"
    plain.write_bytes(b"(theory paw)\n(term t (app succ 2))\n")
    marked.write_bytes(bom + plain.read_bytes())
    want = _run(capsys, ["eval", str(plain), "--format", fmt])
    assert want[0] == 0
    assert _run(capsys, ["eval", str(marked), "--format", fmt]) == want
    # the mark takes no column
    bad = tmp_path / "bad.term"
    bad.write_bytes(bom + b"(theory nope)\n")
    code, out, err = _run(capsys, ["eval", str(bad), "--format", fmt])
    _expect_user_error(fmt, code, out, err, f"{bad}:1:9: unknown theory nope")


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_non_ascii_digits_are_not_numerals(capsys, tmp_path, digit, fmt):
    term = tmp_path / "digit.term"
    term.write_text(f"(term t {digit})\n", encoding="utf-8")
    code, out, err = _run(capsys, ["eval", str(term), "--format", fmt])
    _expect_user_error(fmt, code, out, err, f"unbound variable {digit}")
    proof = tmp_path / "digit.proof"
    proof.write_text(f"(proof p (goal (neq {digit} 0)) (id h))\n",
                     encoding="utf-8")
    code, out, err = _run(capsys, ["check", str(proof), "--format", fmt])
    _expect_user_error(fmt, code, out, err,
                       f"{proof}:1:21: unknown identifier {digit}")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_numerals_past_the_digit_limit_are_user_errors(capsys, tmp_path,
                                                        fmt):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("the interpreter converts digit strings of any length")
    big = tmp_path / "big.term"
    big.write_text("(term t 1" + "0" * 5000 + ")\n")
    code, out, err = _run(capsys, ["eval", str(big), "--format", fmt])
    _expect_user_error(fmt, code, out, err,
                       f"{big}:1:9: numeral has 5001 digits; at most "
                       f"{limit - 1} are supported")
    # the largest numeral read stays printable after a succ step
    edge = tmp_path / "edge.term"
    edge.write_text("(term t (app succ " + "9" * (limit - 1) + "))\n")
    code, payload = _run_json(capsys, ["eval", str(edge)])
    assert code == 0
    assert payload["value"] == 10 ** (limit - 1)


def _numeral_goal_proof(path, numeral):
    neq = f"(neq {numeral} 0)"
    path.write_text(f"(proof p (goal (-> {neq} {neq})) "
                    f"(imp-intro (h {neq}) (id h)))\n")
    return path


@pytest.mark.parametrize("cmd", ["check", "relativize", "interp", "cps"])
def test_numeral_individual_at_the_bound(capsys, tmp_path, cmd):
    proof = _numeral_goal_proof(tmp_path / "bound.proof", "10000")
    code, _, err = _run(capsys, [cmd, str(proof)])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("numeral", ["10001", "1" + "0" * 5000])
def test_numeral_individuals_past_the_bound_are_user_errors(
        capsys, tmp_path, fmt, numeral):
    proof = _numeral_goal_proof(tmp_path / "big.proof", numeral)
    # the conclusion's numeral is the one read first
    col = len(f"(proof p (goal (-> (neq {numeral} 0) (neq ") + 1
    code, out, err = _run(capsys, ["check", str(proof), "--format", fmt])
    _expect_user_error(fmt, code, out, err,
                       f"{proof}:1:{col}: numeral individuals are limited "
                       f"to 10000")


# ------------------------------------------------------- the depth bound

B = format.MAX_DEPTH
_ALL_COMMANDS = ["check", "relativize", "interp", "cps", "extract", "eval"]


def _main_in_subprocess(argvs, hash_seed=None):
    """(exit code, stdout, stderr) of cli.main on each argv, all in one
    fresh interpreter, so that a crash fails the test instead of the run."""
    script = """
import contextlib, io, json, sys
from mupcf import cli
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""
    src = str(Path(mupcf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, (done.returncode, done.stderr[-2000:])
    return [tuple(json.loads(line)) for line in done.stdout.splitlines()]


def _s_chain_goal(path, depth):
    """A proof whose goal (-> (neq D 0) (neq D 0)) builds a tree of the
    given depth: D is an explicit (S (S .. 0)) chain of depth - 2 levels.
    Returns the column of the S that first lies deeper than B."""
    k = depth - 2
    f = "(neq " + "(S " * k + "0" + ")" * k + " 0)"
    head = f"(proof p (goal (-> {f} "
    path.write_text(f"{head}{f})) (imp-intro (h {f}) (id h)))\n")
    return len(head) + len("(neq ") + 3 * (k - 1) + 2


def _arrow_chain_goal(path, depth):
    """A proof whose goal (-> F F) builds a tree of the given depth, F being
    (-> bot (-> bot .. bot)) with depth - 1 arrows. Returns the column of
    the bot that first lies deeper than B."""
    m = depth - 1
    f = "(-> bot " * m + "bot" + ")" * m
    head = f"(proof p (goal (-> {f} "
    path.write_text(f"{head}{f})) (imp-intro (h {f}) (id h)))\n")
    return len(head) + len("(-> bot ") * m + 1


def _depth_argvs(path):
    return [[cmd, str(path), "--format", fmt]
            for cmd in _ALL_COMMANDS for fmt in ("text", "structured")]


@pytest.mark.parametrize("goal", [_s_chain_goal, _arrow_chain_goal],
                         ids=["s-chain", "arrow-chain"])
def test_goal_at_the_depth_bound_runs_every_command(tmp_path, goal):
    path = tmp_path / "deep.proof"
    goal(path, B)
    argvs = _depth_argvs(path)
    for argv, result in zip(argvs, _main_in_subprocess(argvs), strict=True):
        code, out, err = result
        if argv[0] == "extract":
            assert code == 1 and "is not of the shape" in out + err, argv
        elif argv[0] == "eval":
            _expect_user_error(argv[-1], *result, "the file declares no term")
        else:
            assert (code, err) == (0, ""), argv
            if argv[-1] == "structured":
                assert json.loads(out)["command"] == argv[0]


@pytest.mark.parametrize("goal", [_s_chain_goal, _arrow_chain_goal],
                         ids=["s-chain", "arrow-chain"])
def test_goal_past_the_depth_bound_is_a_user_error(tmp_path, goal):
    path = tmp_path / "deep.proof"
    col = goal(path, B + 1)
    argvs = _depth_argvs(path)
    for argv, result in zip(argvs, _main_in_subprocess(argvs), strict=True):
        _expect_user_error(argv[-1], *result,
                           f"{path}:1:{col}: nests more than {B} levels deep")


def test_program_types_are_bounded_too(tmp_path):
    """A type of depth B reads and runs; one level more is a positioned user
    error (comparing two deeper types crashed the interpreter)."""
    def write(depth):
        ty = "(-> nat " * depth + "nat" + ")" * depth
        path = tmp_path / f"type{depth}.term"
        path.write_text(f"(term t (app (lam (f {ty}) 0) "
                        f"(app (fix {ty}) (lam (y {ty}) y))))\n")
        return path, len("(term t (app (lam (f ") + len("(-> nat ") * depth + 1

    ok, _ = write(B)
    bad, col = write(B + 1)
    argvs = [[cmd, str(path), "--format", fmt]
             for path in (ok, bad) for cmd in ("eval", "cps")
             for fmt in ("text", "structured")]
    results = _main_in_subprocess(argvs)
    for argv, (code, out, err) in zip(argvs[:4], results[:4]):
        assert (code, err) == (0, ""), argv
    assert results[0][1] == "value: 0\nsteps: 2\n"
    for argv, result in zip(argvs[4:], results[4:], strict=True):
        _expect_user_error(argv[-1], *result,
                           f"{bad}:1:{col}: nests more than {B} levels deep")


def test_numerals_count_their_levels(tmp_path, capsys):
    """A numeral n is n levels deep: the numeral in the goal (-> F F), F
    being (-> bot .. bot (neq 10000 0)) with j bots, reaches depth
    1 + j + 1 + 10000."""
    for j in (B - 10002, B - 10001):
        f = "(-> " + "bot " * j + "(neq 10000 0))"
        head = f"(proof p (goal (-> {f} "
        path = tmp_path / f"n{j}.proof"
        path.write_text(f"{head}{f})) (imp-intro (h {f}) (id h)))\n")
        code, out, err = _run(capsys, ["check", str(path)])
        if j == B - 10002:
            assert (code, err) == (0, "")
        else:
            col = len(head) + len("(-> " + "bot " * j + "(neq ") + 1
            assert err == (f"error[user-error]: {path}:1:{col}: nests more "
                           f"than {B} levels deep\n")


def test_a_conclusion_built_past_the_depth_bound_is_a_user_error(tmp_path):
    """The reader's bound does not bound what the checker builds: each
    forall-elim below substitutes a 9 000-deep individual into a 5 000-deep
    atom, giving 14 000-deep conclusions. Comparing them crashed the
    interpreter (SIGSEGV); now building them is refused."""
    def s_chain(k, inner):
        return "(S " * k + inner + ")" * k

    a1 = f"(all (x iota) (-> (neq {s_chain(5000, 'x')} 0) bot))"
    a2 = f"(all (x iota) (neq {s_chain(5000, 'x')} 0))"
    d = s_chain(9000, "0")
    path = tmp_path / "deep.proof"
    path.write_text(
        f"(proof p (goal (-> {a1} (-> {a2} bot))) "
        f"(imp-intro (h1 {a1}) (imp-intro (h2 {a2}) "
        f"(imp-elim (forall-elim (id h1) {d}) (forall-elim (id h2) {d})))))\n")
    argvs = [[cmd, str(path), "--format", fmt]
             for cmd in ("check", "relativize")
             for fmt in ("text", "structured")]
    for argv, result in zip(argvs, _main_in_subprocess(argvs), strict=True):
        _expect_user_error(argv[-1], *result,
                           f"an individual would nest more than {B} levels "
                           f"deep")


# ----------------------------------------------------------- determinism

def test_output_ignores_the_hash_seed_and_node_addresses():
    """Interned nodes hash by identity, so a set or dict keyed by nodes
    iterates in an order that depends on memory addresses, and one keyed by
    names in an order that depends on PYTHONHASHSEED. Neither may reach the
    output: two interpreters with different seeds print the same bytes."""
    files = [str(CORPUS / "add0-total.proof"),
             str(Path(__file__).resolve().parent / "dc-succ.proof")]
    argvs = [[cmd, path, *extra, "--format", fmt]
             for path in files
             for cmd, extra in (("relativize", []), ("interp", []),
                                ("extract", ["--inputs", "0..3"]))
             for fmt in ("text", "structured")]
    first, second = (_main_in_subprocess(argvs, seed) for seed in (1, 2))
    for argv, a, b in zip(argvs, first, second, strict=True):
        assert a[0] == 0 and a[2] == "", (argv, a)
        assert a == b, argv


# ------------------------------------------------------------ soundness

def test_goal_alpha_equal_only_up_to_a_rebound_name_is_rejected(capsys,
                                                                 tmp_path):
    """A conclusion that binds x twice is not the goal that binds three
    different names, though both bind three variables: the proof proves
    that every x is x, not that any two individuals are equal."""
    bad = tmp_path / "bad.proof"
    bad.write_text(
        "(proof all-equal\n"
        "  (goal (all (a iota) (all (b iota) (all (c iota) (= c b)))))\n"
        "  (forall-intro (x iota) (forall-intro (x iota)\n"
        "    (forall-intro (y iota) (forall-elim (ax refl iota) x)))))\n")
    code, out, err = _run(capsys, ["check", str(bad)])
    assert (code, out) == (1, "")
    assert err == (
        "error[user-error]: proof concludes (all (x iota) (all (x iota) "
        "(all (y iota) (-> (neq x x) bot)))) but the goal is (all (a iota) "
        "(all (b iota) (all (c iota) (-> (neq c b) bot))))\n")


@pytest.mark.parametrize("spelling", [["--format", "structured"],
                                      ["--format=structured"], []],
                         ids=["structured", "structured=", "text"])
def test_usage_errors_are_user_errors(capsys, spelling):
    argv = ["check", str(CORPUS / "dne.proof"), "--fuel", "3"] + spelling
    code, out, err = _run(capsys, argv)
    message = "unrecognized arguments: --fuel 3"
    if spelling:
        _expect_user_error("structured", code, out, err, message)
    else:
        assert code == 1
        assert out == ""
        usage, _, last = err.rstrip("\n").rpartition("\n")
        assert usage.startswith("usage: mupcf ")
        assert last == f"error[user-error]: {message}"
    code, out, err = _run(capsys, ["eval", "--fuel", "lots", "x.term"])
    assert code == 1
    assert err.endswith(
        "\nerror[user-error]: argument --fuel: invalid int value: 'lots'\n")


@pytest.mark.parametrize("spelling", [["--fo", "structured"],
                                      ["--form=structured"]],
                         ids=["fo", "form="])
def test_a_usage_error_reads_an_abbreviated_format(capsys, spelling):
    code, out, err = _run(capsys, ["check", *spelling])
    _expect_user_error("structured", code, out, err,
                       "the following arguments are required: file")


def test_structured_usage_errors_follow_the_prefixes_argparse_takes():
    """Under every command, each prefix of --format, spaced or joined by
    `=`, makes a usage error structured exactly where argparse, given the
    file, parses the line with that format (`--f` is ambiguous where the
    command also takes --fuel)."""
    commands = ["check", "relativize", "interp", "eval", "cps", "extract"]
    seen = set()
    for cmd in commands:
        for n in range(len("--"), len("--format") + 1):
            opt = "--format"[:n]
            for spelling in ([opt, "structured"], [f"{opt}=structured"],
                             [opt, "text"]):
                try:
                    args = cli._build_parser().parse_args(
                        [cmd, "f.proof", *spelling])
                    accepted = args.format == "structured"
                except cli._UsageError:
                    accepted = False
                seen.add(accepted)
                assert cli._wants_structured([cmd, *spelling]) == accepted, \
                    (cmd, spelling)
    assert seen == {True, False}


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["extract", "--help"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: mupcf")


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_reader_gone_early_is_a_user_error(fmt, unbuffered):
    """Output to a pipe whose reader has closed it (as in `mupcf cps f |
    head -c 10`) ends with exit 1 and one error line, never a traceback,
    whether print raises or only the final flush would."""
    src = str(Path(mupcf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "mupcf.cli", "cps",
         str(CORPUS / "add0-total.proof"), "--format", fmt],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the child can have written anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1, err
    assert err == ("error[user-error]: standard output closed before the "
                   "output was written\n")


def _main_or_exit(argv):
    try:
        return cli.main(argv)
    except SystemExit as ex:   # --help
        return ex.code


def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert _run(capsys, ["check", str(CORPUS / "dne.proof")])[0] == 0
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    for argv in (["check", str(CORPUS / "dne.proof")],
                 ["interp", str(CORPUS / "peirce.proof")],
                 ["eval", str(CORPUS / "omega.term"), "--fuel", "10"],
                 ["extract", str(CORPUS / "succ-total.proof"),
                  "--inputs", "0..1"],
                 ["check", "--no-such-option"],
                 ["--help"]):
        _main_or_exit(argv)
    capsys.readouterr()
    assert built == []


def test_main_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path):
    """Each call prints what it prints as the first call of a process."""
    two = tmp_path / "two.term"
    two.write_text("(term two (app succ (app succ 0)))\n")
    succ_total = str(CORPUS / "succ-total.proof")
    calls = [
        (None, ["extract", succ_total, "--fuel", "7", "--inputs", "3..3",
                "--name", "succ-total", "--theory", "caw",
                "--format", "structured"]),
        (None, ["extract", succ_total]),
        (None, ["relativize", succ_total, "--theory", "caw"]),
        (None, ["check", str(CORPUS / "dne.proof"), "--fuel", "3"]),
        (None, ["relativize", succ_total]),
        ("2", ["eval", str(two)]),
        (None, ["--help"]),
        ("1000", ["eval", str(two)]),
    ]
    monkeypatch.setenv("COLUMNS", "80")   # the width of usage and help
    src = str(Path(mupcf.__file__).resolve().parent.parent)
    seen = []
    for fuel, argv in calls:
        if fuel is None:
            monkeypatch.delenv("MUPCF_FUEL", raising=False)
        else:
            monkeypatch.setenv("MUPCF_FUEL", fuel)
        code = _main_or_exit(argv)
        captured = capsys.readouterr()
        seen.append((code, captured.out, captured.err))
        fresh = subprocess.run(
            [sys.executable, "-m", "mupcf.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True)
        assert seen[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), \
            argv
    (first, _, _), (default, text, _), (override, caw, _), \
        (usage, _, usage_err), (plain, paw, _), (starved, _, _), \
        (help_, help_out, _), (fed, fed_out, _) = seen
    assert (first, default, override, plain) == (2, 0, 0, 0)
    rows = [l for l in text.splitlines() if l.startswith("input=")]
    assert [r.split()[0] for r in rows] == [f"input={i}" for i in range(11)]
    assert "theory: cawr\n" in caw and "theory: pawr\n" in paw
    assert usage == 1 and usage_err.startswith("usage: mupcf ")
    assert usage_err.endswith(
        "error[user-error]: unrecognized arguments: --fuel 3\n")
    assert (starved, help_, fed) == (2, 0, 0)
    assert help_out.startswith("usage: mupcf")
    assert fed_out == "value: 2\nsteps: 6\n"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_memory_error_is_a_user_error(capsys, monkeypatch, fmt):
    def exhaust(ws, args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "check",
                        (exhaust, cli._COMMANDS["check"][1]))
    limit = sys.getrecursionlimit()
    code, out, err = _run(capsys, ["check", str(CORPUS / "dne.proof"),
                                   "--format", fmt])
    assert code == 1
    assert sys.getrecursionlimit() == limit
    message = "input is too large (out of memory)"
    if fmt == "text":
        assert out == ""
        assert err == f"error[user-error]: {message}\n"
    else:
        assert err == ""
        assert json.loads(out) == {"error": {
            "category": "user-error", "message": message}}


def test_main_raises_the_recursion_limit_and_restores_it(capsys,
                                                         monkeypatch):
    seen = []
    check, help_ = cli._COMMANDS["check"]

    def spy(ws, args):
        seen.append(sys.getrecursionlimit())
        return check(ws, args)

    monkeypatch.setitem(cli._COMMANDS, "check", (spy, help_))
    limit = sys.getrecursionlimit()
    assert _run(capsys, ["check", str(CORPUS / "dne.proof")])[0] == 0
    assert seen == [max(limit, 50000)]
    assert sys.getrecursionlimit() == limit


def test_importing_mupcf_leaves_the_recursion_limit_alone():
    script = f"""
import importlib, pkgutil, sys
limit = sys.getrecursionlimit()
import mupcf
for m in pkgutil.iter_modules(mupcf.__path__):
    importlib.import_module("mupcf." + m.name)
assert sys.getrecursionlimit() == limit, "import"
from mupcf import cli
assert cli.main(["check", {str(CORPUS / "dne.proof")!r}]) == 0
assert sys.getrecursionlimit() == limit, "cli.main"
"""
    src = str(Path(mupcf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "dne: ok\n"


# ------------------------------------------------------- name selection

def test_name_picks_one_declaration(capsys, tmp_path):
    src = (CORPUS / "dne.proof").read_text() + (
        "\n(proof triv2 (goal (-> bot bot)) (imp-intro (h bot) (id h)))\n")
    multi = tmp_path / "multi.proof"
    multi.write_text(src)
    code, out, _ = _run(capsys, ["check", str(multi), "--name", "dne"])
    assert code == 0
    assert out == "dne: ok\n"
    code, out, _ = _run(capsys, ["check", str(multi)])
    assert code == 0
    assert out == "dne: ok\ntriv2: ok\n"


def test_unknown_name_lists_candidates(capsys):
    code, _, err = _run(
        capsys, ["check", str(CORPUS / "dne.proof"), "--name", "zzz"])
    assert code == 1
    assert "zzz" in err and "dne" in err


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_every_proof_command_refuses_an_empty_name(capsys, fmt):
    """--name "" names no declaration: check refuses it as the other
    commands that run one proof do, rather than checking every proof."""
    for cmd, kind in (("check", "proof"), ("relativize", "proof"),
                      ("interp", "proof"), ("cps", "proof or term"),
                      ("extract", "proof")):
        result = _run(capsys, [cmd, str(CORPUS / "dne.proof"), "--name", "",
                               "--format", fmt])
        _expect_user_error(fmt, *result, f"no {kind} named  (known: dne)")


# -------------------------------------------------------------- relativize

def test_relativize_output_checks_in_relativized_theory(capsys, tmp_path):
    code, payload = _run_json(
        capsys, ["relativize", str(CORPUS / "succ-total.proof")])
    assert code == 0
    assert payload["theory"] == "pawr"
    back = tmp_path / "rel.proof"
    back.write_text(
        f"(theory {payload['theory']})\n"
        f"(proof r (goal {payload['goal']}) {payload['proof']})\n")
    code, out, _ = _run(capsys, ["check", str(back)])
    assert code == 0
    assert out == "r: ok\n"


def test_relativize_rejects_already_relativized_theory(capsys, tmp_path):
    src = (CORPUS / "rel-arith.proof").read_text()
    assert "(theory pawr)" in src
    f = tmp_path / "r.proof"
    f.write_text(src)
    code, _, err = _run(capsys, ["relativize", str(f)])
    assert code == 1
    assert "relativized counterpart" in err


# ----------------------------------------------------------- interp / cps

def test_interp_reports_program_and_type(capsys):
    code, payload = _run_json(
        capsys, ["interp", str(CORPUS / "succ-total.proof")])
    assert code == 0
    # quantifiers are transparent, so only the propositional skeleton remains
    assert payload["type"] == "(-> (-> (-> bot bot) bot) bot)"
    assert payload["term"].startswith("(lam ")


def test_cps_accepts_proofs_and_terms(capsys):
    code, payload = _run_json(capsys, ["cps", str(CORPUS / "dne.proof")])
    assert code == 0
    assert payload["type"].startswith("(")
    code, payload = _run_json(capsys, ["cps", str(CORPUS / "omega.term")])
    assert code == 0
    assert payload["term"]


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_cps_names_what_it_picks_from(capsys, tmp_path, fmt):
    """cps runs one proof or term of a file, and its errors say so."""
    none, two = tmp_path / "none.term", tmp_path / "two.term"
    none.write_text("(theory paw)\n")
    two.write_text("(term a 0)\n(term b 1)\n")
    for argv, message in [
            ([str(none)], "the file declares no proof or term"),
            ([str(two)], "several proofs or terms declared (a, b); "
                         "pick one with --name"),
            ([str(two), "--name", "c"], "no proof or term named c "
                                        "(known: a, b)")]:
        result = _run(capsys, ["cps", *argv, "--format", fmt])
        _expect_user_error(fmt, *result, message)


# ------------------------------------------------------------------- eval

def test_eval_omega_exhausts_fuel(capsys):
    code, _, err = _run(
        capsys, ["eval", str(CORPUS / "omega.term"), "--fuel", "100"])
    assert code == 2
    assert err.startswith("error[fuel-exhausted]:")


def test_eval_numeral(capsys, tmp_path):
    f = tmp_path / "three.term"
    f.write_text("(term three (app succ (app succ (app succ 0))))\n")
    code, payload = _run_json(capsys, ["eval", str(f)])
    assert code == 0
    assert payload["value"] == 3
    assert payload["steps"] >= 0


def test_eval_fuel_env_default(capsys, monkeypatch):
    monkeypatch.setenv("MUPCF_FUEL", "50")
    code, _, err = _run(capsys, ["eval", str(CORPUS / "omega.term")])
    assert code == 2
    assert "50" in err
    monkeypatch.setenv("MUPCF_FUEL", "lots")
    code, _, err = _run(capsys, ["eval", str(CORPUS / "omega.term")])
    assert code == 1
    assert "MUPCF_FUEL" in err


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("source,message", [
    ("flag", "--fuel must be non-negative, got -5"),
    ("env", "MUPCF_FUEL must be non-negative, got '-3'"),
], ids=["flag", "env"])
def test_negative_fuel_is_a_user_error(capsys, monkeypatch, source, message,
                                       fmt):
    argv = ["eval", str(CORPUS / "omega.term"), "--format", fmt]
    if source == "flag":
        argv += ["--fuel", "-5"]
    else:
        monkeypatch.setenv("MUPCF_FUEL", "-3")
    code, out, err = _run(capsys, argv)
    assert code == 1
    if fmt == "text":
        assert out == ""
        assert err == f"error[user-error]: {message}\n"
    else:
        assert err == ""
        assert json.loads(out) == {
            "error": {"category": "user-error", "message": message}}


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_fuel_past_the_digit_limit_is_counted_not_echoed(capsys, monkeypatch,
                                                         fmt):
    """A numeral too long for int() in MUPCF_FUEL or --fuel is refused by
    its number of digits, as the reader refuses one, and not echoed."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("the interpreter converts digit strings of any length")
    nines = "9" * 5000
    monkeypatch.setenv("MUPCF_FUEL", nines)
    argv = ["eval", str(CORPUS / "omega.term"), "--format", fmt]
    supported = f"has 5000 digits; at most {limit - 1} are supported"
    for flag, message in [([], f"MUPCF_FUEL {supported}"),
                          (["--fuel", nines], f"argument --fuel: {supported}")]:
        code, out, err = _run(capsys, argv + flag)
        assert code == 1 and nines not in out + err
        if fmt == "text":
            assert out == ""
            assert err.endswith(f"error[user-error]: {message}\n")
        else:
            assert err == "" and json.loads(out) == {
                "error": {"category": "user-error", "message": message}}


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("program,ty", [
    ("(lam (x nat) x)", "(-> nat nat)"),
    ("(pair 1 2)", "(* nat nat)"),
    ("(app (fix bot) (lam (x bot) x))", "bot"),
], ids=["arrow", "pair", "bot"])
def test_eval_rejects_programs_not_of_type_nat(capsys, tmp_path, program, ty,
                                               fmt):
    f = tmp_path / "p.term"
    f.write_text(f"(term p {program})\n")
    code, out, err = _run(capsys, ["eval", str(f), "--format", fmt])
    _expect_user_error(fmt, code, out, err,
                       f"eval runs a program of type nat, not {ty}")


def test_eval_rejects_proof_declarations(capsys):
    code, _, err = _run(capsys, ["eval", str(CORPUS / "dne.proof")])
    assert code == 1
    assert "no term" in err


# ---------------------------------------------------------------- extract

def test_extract_text_rows(capsys):
    code, out, _ = _run(
        capsys,
        ["extract", str(CORPUS / "succ-total.proof"), "--inputs", "0..5"])
    assert code == 0
    lines = out.strip().splitlines()
    rows = [l for l in lines if l.startswith("input=")]
    assert len(rows) == 6
    assert rows[0].startswith("input=0 witness=1 verdict=pass steps=")
    assert all("verdict=pass" in l for l in rows)


def test_extract_structured(capsys):
    code, payload = _run_json(
        capsys,
        ["extract", str(CORPUS / "ident-total.proof"), "--inputs", "0..3"])
    assert code == 0
    assert payload["program"].startswith("(lam ")
    assert [r["witness"] for r in payload["rows"]] == [0, 1, 2, 3]
    assert all(r["verdict"] == "pass" for r in payload["rows"])


def test_extract_timeout_exit_code(capsys):
    code, out, _ = _run(
        capsys,
        ["extract", str(CORPUS / "add0-total.proof"),
         "--inputs", "9..10", "--fuel", "5"])
    assert code == 2
    assert "verdict=fail-with-timeout" in out
    # a row without a witness reads null in both formats
    argv = ["extract", str(CORPUS / "add0-total.proof"), "--inputs", "3..3",
            "--fuel", "50"]
    code, out, _ = _run(capsys, argv)
    assert code == 2
    assert out.splitlines()[-1] == (
        "input=3 witness=null verdict=fail-with-timeout steps=50")
    code, payload = _run_json(capsys, argv)
    assert code == 2
    assert payload["rows"] == [{"input": 3, "witness": None,
                                "verdict": "fail-with-timeout", "steps": 50}]


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_extract_exits_1_on_a_failed_row(capsys, monkeypatch, fmt):
    """Only a wrong witness fails a row, so the extraction is swapped for
    one that reports a wrong witness for every input."""
    real = cli.run_extraction

    def wrong(*args):
        program, rows = real(*args)
        return program, [{**r, "witness": r["witness"] + 1,
                          "verdict": extract.FAIL} for r in rows]

    monkeypatch.setattr(cli, "run_extraction", wrong)
    code, out, err = _run(capsys, [
        "extract", str(CORPUS / "succ-total.proof"), "--inputs", "2..2",
        "--format", fmt])
    assert code == 1 and err == ""
    if fmt == "text":
        assert out.splitlines()[-1].startswith(
            "input=2 witness=4 verdict=fail steps=")
    else:
        (row,) = json.loads(out)["rows"]
        assert (row["witness"], row["verdict"]) == (4, "fail")


def test_extract_add0_at_default_fuel(capsys, monkeypatch):
    monkeypatch.delenv("MUPCF_FUEL", raising=False)
    code, out, _ = _run(
        capsys,
        ["extract", str(CORPUS / "add0-total.proof"), "--inputs", "60..60"])
    assert code == 0
    assert "input=60 witness=60 verdict=pass" in out


def test_extract_dc_succ_at_default_fuel(capsys, monkeypatch):
    """Dependent choice by bar recursion at n = 60 fits the default fuel
    (991 864 steps); it timed out while bar recursion applied each sequence
    operation as a combinator."""
    monkeypatch.delenv("MUPCF_FUEL", raising=False)
    code, payload = _run_json(
        capsys, ["extract", str(Path(__file__).resolve().parent
                                / "dc-succ.proof"), "--inputs", "60..60"])
    assert code == 0
    assert payload["rows"] == [{"input": 60, "witness": 61,
                                "verdict": "pass", "steps": 991864}]


@pytest.mark.parametrize("path,n", [
    (CORPUS / "add0-total.proof", 800),
    (Path(__file__).resolve().parent / "dc-succ.proof", 80),
])
def test_extract_past_the_default_fuel_times_out(capsys, monkeypatch, path,
                                                 n):
    """A known defect pinned as a contract: at the default fuel these
    witnesses time out, with exit 2 and one row, not a crash. ROADMAP item 4
    (a faster evaluator) is to turn these rows into pass."""
    monkeypatch.delenv("MUPCF_FUEL", raising=False)
    code, payload = _run_json(
        capsys, ["extract", str(path), "--inputs", f"{n}..{n}"])
    assert code == 2
    assert payload["rows"] == [{"input": n, "witness": None,
                                "verdict": "fail-with-timeout",
                                "steps": 1000000}]


def test_extract_checks_large_witnesses(capsys):
    code, payload = _run_json(
        capsys,
        ["extract", str(CORPUS / "succ-total.proof"),
         "--inputs", "60000..60000"])
    assert code == 0
    assert payload["rows"][0]["witness"] == 60001
    assert payload["rows"][0]["verdict"] == "pass"


def test_extract_rejects_non_pi02_goal(capsys):
    code, _, err = _run(capsys, ["extract", str(CORPUS / "dne.proof")])
    assert code == 1
    assert err.startswith("error[user-error]:")


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("matrix,message", [
    ("(exists (x iota) (= x x))",
     "input and witness variables must be distinct"),
    ("(exists (y iota) (= ((k iota iota) x) y))",
     "equation sides have different sorts"),
], ids=["shadowed-input", "sorts-differ"])
def test_extract_rejects_a_malformed_pi02_goal(capsys, tmp_path, matrix,
                                               message, fmt):
    """The goal is refused before its proof is looked at."""
    bad = tmp_path / "bad.proof"
    bad.write_text(f"(proof bad (goal (all (x iota) {matrix})) (id h))\n")
    code, out, err = _run(capsys, ["extract", str(bad), "--format", fmt])
    assert code == 1
    if fmt == "text":
        assert (out, err) == ("", f"error[user-error]: {message}\n")
    else:
        assert err == ""
        assert json.loads(out) == {"error": {
            "category": "user-error", "message": message}}


_SUCC_HYP = "(all (y iota) (-> (-> (neq y (S x)) bot) bot))"
_SUCC_GOAL = f"(all (x iota) (-> {_SUCC_HYP} bot))"
_SUCC_USE = "(forall-elim (id h) (S x))"
_SUCC_REFL = "(forall-elim (ax refl iota) (S x))"


@pytest.mark.parametrize("goal,use,refl,message", [
    (_SUCC_GOAL, "(forall-elim (id g) (S x))", _SUCC_REFL,
     "unknown hypothesis g"),
    (_SUCC_GOAL, _SUCC_USE,
     "(forall-elim (ax leib (neq a 0) (a iota) (b (-> iota iota))) (S x))",
     "leib variables must share a sort"),
    (_SUCC_GOAL, "(forall-elim (forall-elim (forall-intro (x iota) (id h)) "
                 "x) (S x))", _SUCC_REFL,
     "eigenvariable x is free in used hypothesis h"),
    # a proof of succ-total against the goal of ident-total
    ("(all (x iota) (-> (all (y iota) (-> (-> (neq y x) bot) bot)) bot))",
     _SUCC_USE, _SUCC_REFL,
     "proof concludes (all (x iota) (-> (all (y iota) (-> (-> (neq y (S x)) "
     "bot) bot)) bot)) but the goal is (all (x iota) (-> (all (y iota) "
     "(-> (-> (neq y x) bot) bot)) bot))"),
], ids=["unknown-hypothesis", "bad-axiom-argument", "eigenvariable",
        "wrong-conclusion"])
def test_extract_reports_errors_in_the_input_proof(capsys, tmp_path, goal,
                                                   use, refl, message):
    """extract checks the input proof itself, so it words each error as
    check does."""
    bad = tmp_path / "bad.proof"
    bad.write_text(
        f"(proof bad (goal {goal}) (forall-intro (x iota) "
        f"(imp-intro (h {_SUCC_HYP}) (imp-elim {use} {refl}))))\n")
    for command in ("extract", "check"):
        code, out, err = _run(capsys, [command, str(bad)])
        assert (code, out, err) == (1, "", f"error[user-error]: {message}\n"), \
            command


def test_bad_inputs_flag(capsys):
    code, _, err = _run(
        capsys,
        ["extract", str(CORPUS / "succ-total.proof"), "--inputs", "5"])
    assert code == 1
    assert "a..b" in err


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_an_empty_inputs_range_is_a_user_error(capsys, fmt):
    code, out, err = _run(capsys, ["extract", str(CORPUS / "succ-total.proof"),
                                   "--inputs", "5..3", "--format", fmt])
    _expect_user_error(fmt, code, out, err, "--inputs range is empty: 5..3")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_inputs_bounds_are_ascii_numerals_below_the_digit_limit(capsys, fmt):
    succ_total = str(CORPUS / "succ-total.proof")
    arabic = "\u0660..\u0662"
    code, out, err = _run(capsys, ["extract", succ_total, "--inputs", arabic,
                                   "--format", fmt])
    _expect_user_error(fmt, code, out, err,
                       f"--inputs must look like a..b, got {arabic!r}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("the interpreter converts digit strings of any length")
    for inputs in (f"0..{'9' * limit}", f"{'0' * limit}..1"):
        code, out, err = _run(capsys, ["extract", succ_total, "--inputs",
                                       inputs, "--format", fmt])
        _expect_user_error(fmt, code, out, err,
                           f"--inputs bound has {limit} digits; at most "
                           f"{limit - 1} are supported")


# --------------------------------------------------------- theory override

def test_theory_override_enables_choice_axiom(capsys, tmp_path):
    src = (CORPUS / "dc-diag.proof").read_text()
    stripped = "\n".join(
        l for l in src.splitlines() if not l.startswith("(theory"))
    f = tmp_path / "dc.proof"
    f.write_text(stripped)
    code, _, err = _run(capsys, ["check", str(f)])
    assert code == 1
    assert "dc" in err
    code, out, _ = _run(capsys, ["check", str(f), "--theory", "caw"])
    assert code == 0
