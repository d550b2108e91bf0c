import json
from pathlib import Path

import pytest

from mupcf import cli

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


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_deep_nesting_is_a_user_error(capsys, tmp_path, fmt):
    depth = 60000
    deep = tmp_path / "deep.term"
    deep.write_text("(term t " + "(app succ " * depth + "0" + ")" * depth
                    + ")\n")
    code, out, err = _run(capsys, ["eval", str(deep), "--format", fmt])
    assert code == 1
    if fmt == "text":
        assert out == ""
        assert err == "error[user-error]: input nests too deeply\n"
    else:
        assert err == ""
        assert json.loads(out) == {"error": {
            "category": "user-error", "message": "input nests too deeply"}}


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


def test_extract_add0_at_default_fuel(capsys, monkeypatch):
    monkeypatch.delenv("MUPCF_FUEL", raising=False)
    code, out, _ = _run(
        capsys,
        ["extract", str(CORPUS / "add0-total.proof"), "--inputs", "60..60"])
    assert code == 0
    assert "input=60 witness=60 verdict=pass" in out


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


def test_bad_inputs_flag(capsys):
    code, _, err = _run(
        capsys,
        ["extract", str(CORPUS / "succ-total.proof"), "--inputs", "5"])
    assert code == 1
    assert "a..b" in err


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
