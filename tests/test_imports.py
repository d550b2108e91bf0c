"""Every module-level import in src/mupcf and tests/ is used, and every
module-level definition in src/mupcf is reached from the command or the
benchmark, or each is allowed below with the reason it stays."""

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


# ---------- every definition in src/mupcf is reached ----------

# "module.name" -> why it stays although neither the command nor the
# benchmark reaches it
REACH_ALLOWED = {
    "format.proof_decl":
        "the documented declaration printer (README module map); the "
        "tests print corpus proofs back to source with it",
    "relativize.rel_individual_proof":
        "its tests are the only direct check of the rel evidence built for "
        "open and higher-sort individuals",
}


def _bench_mentions(bench_dir):
    """Every name and attribute in the benchmark's non-test code, and each
    dot-separated part of every string in it."""
    out = set()
    for path in sorted(bench_dir.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.update(n.value.split("."))
    return out


def _unreachable(src_dir, bench_dir):
    """The module-level definitions of the package in src_dir that no walk
    from cli.main, a module-level statement, a dunder such as __version__
    or a name the benchmark mentions reaches, as "module.name"."""
    defs, imports, roots = {}, {}, []
    for path in sorted(src_dir.glob("*.py")):
        mod = path.stem
        imports[mod] = {}
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for n in ast.walk(ast.Tuple(targets)):
                    if isinstance(n, ast.Name):
                        defs[mod, n.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    imports[mod][a.asname or a.name] = (node.module, a.name)
            else:
                roots.append((mod, node))

    def resolve(mod, name):
        while (mod, name) not in defs and name in imports.get(mod, {}):
            mod, name = imports[mod][name]
        return (mod, name) if (mod, name) in defs else None

    bench = _bench_mentions(bench_dir)
    todo = roots + [(m, defs[m, n]) for m, n in defs
                    if n in bench or n.startswith("__")
                    or (m, n) == ("cli", "main")]
    seen = {id(node) for _, node in todo}
    while todo:
        mod, node = todo.pop()
        for n in ast.walk(node):
            name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
            key = name and resolve(mod, name)
            if key and id(defs[key]) not in seen:
                seen.add(id(defs[key]))
                todo.append((key[0], defs[key]))
    return sorted(f"{m}.{n}" for (m, n), node in defs.items()
                  if id(node) not in seen)


def test_every_definition_is_reached():
    dead = _unreachable(ROOT / "src" / "mupcf", ROOT / "bench")
    assert [d for d in dead if d not in REACH_ALLOWED] == []
    # every allowance is still needed
    assert sorted(set(REACH_ALLOWED) - set(dead)) == []


def test_the_scan_sees_an_unreachable_definition(tmp_path):
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "cli.py").write_text(
        "from .util import used\n\ndef main():\n    return used()\n")
    (src / "util.py").write_text(
        "import re\n\nLIMIT = 3\nTABLE = {'k': LIMIT}\n\n"
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def planted():\n    return helper()\n\n"
        "def timed():\n    return 0\n\n__version__ = '1'\n"
        "print(TABLE)\n")
    (bench / "run.py").write_text("WRAP = ('mupcf.util.timed',)\n")
    (bench / "test_run.py").write_text("from util import planted\n")
    assert _unreachable(src, bench) == ["util.planted"]
