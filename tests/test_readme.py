"""The README's library example and its console sessions run as written."""

import re
import shlex
from pathlib import Path

from mupcf import cli

ROOT = Path(__file__).resolve().parent.parent


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 11
    assert rows[0] == "{'input': 0, 'witness': 1, 'verdict': 'pass', " \
        "'steps': 25}"
    assert all("'verdict': 'pass'" in row for row in rows)


def _console_runs():
    """(command, expected lines) for each `$ ` line of README's console
    blocks, in order; the expected lines run to the next `$ ` line."""
    runs = []
    for block in re.findall(r"```console\n(.*?)```", _readme(), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            runs.append((command, shown))
    return runs


def _shows(pattern, line):
    """Whether line is the README line pattern, where ... is any text."""
    return re.fullmatch(".*".join(map(re.escape, pattern.split("..."))),
                        line) is not None


def test_readme_console_blocks_run_as_shown(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MUPCF_FUEL", raising=False)
    runs = _console_runs()
    assert [c.split()[:2] for c, _ in runs] == [
        ["mupcf", "check"], ["mupcf", "extract"], ["mupcf", "relativize"],
        ["mupcf", "interp"], ["mupcf", "eval"], ["echo", "$?"],
        ["mupcf", "cps"]]
    code = None
    for command, shown in runs:
        if command == "echo $?":
            assert shown == [str(code)]
            continue
        program, *argv = shlex.split(command)
        assert program == "mupcf", command
        code = cli.main(argv)
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        shown = [line for line in shown if line]
        assert len(lines) == len(shown), (command, lines)
        for pattern, line in zip(shown, lines):
            assert _shows(pattern, line), (command, pattern, line)
