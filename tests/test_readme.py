"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 11
    assert rows[0] == "{'input': 0, 'witness': 1, 'verdict': 'pass', " \
        "'steps': 34}"
    assert all("'verdict': 'pass'" in row for row in rows)
