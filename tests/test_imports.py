"""Every module-level import in src/mupcf and tests/ is used, or allowed
below with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file relative to the repository root, bound name) -> why it stays
ALLOWED = {
    ("src/mupcf/format.py", "type_sexp"):
        "re-exported: cli and the benchmark's workloads import it from "
        "format with the other surface printers",
    ("src/mupcf/extract.py", "check_proof"):
        "the benchmark's spans wrap mupcf.extract.check_proof by name",
}


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def _sources():
    return sorted((ROOT / "src" / "mupcf").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))


def test_no_unused_module_level_imports():
    unused = [(str(p.relative_to(ROOT)), name)
              for p in _sources() for name in _unused_imports(p)]
    assert [u for u in unused if u not in ALLOWED] == []
    # every allowance is still needed
    assert sorted(set(ALLOWED) - set(unused)) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import os\nimport json as j\nfrom re import sub, match\n"
                 "print(j.dumps(sub))\n")
    assert _unused_imports(f) == ["os", "match"]
