"""The CLI's output on the corpus, pinned byte for byte.

tests/cli_golden.jsonl holds one JSON line [argv, exit, stdout, stderr] per
run: every command in both formats on every corpus/* file and
tests/dc-succ.proof, with extract also at --inputs 0..4, run in-process from
the repository root with relative paths. Lines are sorted by argv, so a
`git diff` of the file lists every output change. To record the current
output, run this module as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from mupcf import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.jsonl"

COMMANDS = [["check"], ["relativize"], ["interp"], ["cps"], ["eval"],
            ["extract"], ["extract", "--inputs", "0..4"]]


def runs():
    """Every argv the golden file covers, sorted."""
    files = sorted(p.relative_to(ROOT).as_posix()
                   for p in (ROOT / "corpus").iterdir() if p.is_file())
    files.append("tests/dc-succ.proof")
    return sorted([cmd[0], f, *cmd[1:], "--format", fmt]
                  for cmd in COMMANDS for f in files
                  for fmt in ("text", "structured"))


def run(argv):
    """[argv, exit, stdout, stderr] of one in-process run; the caller
    stands in the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [argv, code, out.getvalue(), err.getvalue()]


def _recorded():
    if not GOLDEN.exists():  # not yet recorded: the coverage test fails
        return []
    with GOLDEN.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_the_golden_file_covers_every_run():
    assert [r[0] for r in _recorded()] == runs()


@pytest.mark.parametrize("line", _recorded(), ids=lambda r: " ".join(r[0]))
def test_output_is_unchanged(line, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MUPCF_FUEL", raising=False)
    assert run(line[0]) == line


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("MUPCF_FUEL", None)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for argv in runs():
            fh.write(json.dumps(run(argv)) + "\n")
