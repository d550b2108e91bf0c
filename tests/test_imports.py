"""Every module-level import in src/mupcf and tests/ is used, and every
module-level definition in src/mupcf is reached from the command or the
benchmark, or each is allowed below with the reason it stays. Every syntax
class that is printed declares its layout. Every Python file of the package,
its tests and its benchmark parses with the grammar of the oldest
interpreter pyproject.toml allows."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file relative to the repository root, bound name) -> why it stays
ALLOWED = {
    ("src/mupcf/format.py", "type_sexp"):
        "re-exported: cli and the benchmark's workloads import it from "
        "format with the other surface printers",
    ("src/mupcf/format.py", "formula_sexp"):
        "re-exported: cli and the tests import it from format with the "
        "other surface printers",
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
REACH_ALLOWED = {}


def _bench_roots(bench_dir):
    """The (module, name) pairs that the benchmark's non-test code imports
    from mupcf, or lists in a WRAPPED table of (module, attribute, span)."""
    out = set()
    for path in sorted(bench_dir.glob("*.py")):
        if path.name.startswith("test_"):
            continue
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.ImportFrom) and (n.module or "").startswith(
                    "mupcf."):
                out.update((n.module[6:], a.name) for a in n.names)
            elif isinstance(n, ast.Assign) and any(
                    getattr(t, "id", None) == "WRAPPED" for t in n.targets):
                out.update((m[6:], attr)
                           for m, attr, _ in ast.literal_eval(n.value))
    return out


def _unreachable(src_dir, bench_dir):
    """The module-level definitions of the package in src_dir that no walk
    from cli.main, a module-level statement, a dunder such as __version__
    or a benchmark root (_bench_roots) reaches, as "module.name"."""
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

    bench = {resolve(m, n) for m, n in _bench_roots(bench_dir)}
    todo = roots + [(m, defs[m, n]) for m, n in defs
                    if (m, n) in bench or n.startswith("__")
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
        "def timed():\n    return 0\n\n"
        "def imported():\n    return 2\n\n__version__ = '1'\n"
        "print(TABLE)\n")
    (bench / "spans.py").write_text(
        "WRAPPED = [('mupcf.util', 'timed', 'util.timed')]\n")
    # a name the benchmark only mentions, or imports in its tests, is no root
    (bench / "run.py").write_text(
        "from mupcf.util import imported\n"
        "NAMES = ('mupcf.util.planted', imported)\n")
    (bench / "test_run.py").write_text("from mupcf.util import planted\n")
    assert _unreachable(src, bench) == ["util.planted"]


# ---------- every memo is bounded ----------

# The intern tables of lambdamu.Node (one per interned class of logic) are
# no memo: they hold weak references, so an entry goes when its node dies.
# test_node.test_intern_tables_hold_only_live_nodes checks that.
_MEMOS = ("cache", "lru_cache")


def _is_memo(n):
    """Whether n names functools.cache or functools.lru_cache."""
    if isinstance(n, ast.Attribute):
        return n.attr in _MEMOS and getattr(n.value, "id", None) == "functools"
    return isinstance(n, ast.Name) and n.id in _MEMOS


def _memos(path):
    """(name, bounded) for each functools memo in path: the name of the
    function it wraps, or "<line N>" for a memo that wraps no def; bounded
    when it has an integer maxsize or its function takes no arguments (a
    function of none holds one value)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    wraps = {}  # id of a decorator -> the def it decorates
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in fn.decorator_list:
                wraps[id(d)] = fn
    out, seen = [], set()
    for n in ast.walk(tree):  # breadth first: a call before its func
        if id(n) in seen:
            continue
        if isinstance(n, ast.Call) and _is_memo(n.func):
            seen.add(id(n.func))
            size = n.args[0] if n.args else next(
                (k.value for k in n.keywords if k.arg == "maxsize"), None)
            sized = (isinstance(size, ast.Constant)
                     and type(size.value) is int)
        elif _is_memo(n):
            sized = False
        else:
            continue
        fn = wraps.get(id(n))
        a = fn and fn.args
        out.append((fn.name if fn else f"<line {n.lineno}>",
                    sized or fn is not None and not any((
                        a.posonlyargs, a.args, a.vararg, a.kwonlyargs,
                        a.kwarg))))
    return sorted(out)


def _unbounded_memos(path):
    """The names _memos gives the unbounded memos in path."""
    return [name for name, bounded in _memos(path) if not bounded]


def test_every_memo_is_bounded():
    unbounded = [(p.stem, name)
                 for p in sorted((ROOT / "src" / "mupcf").glob("*.py"))
                 for name in _unbounded_memos(p)]
    assert unbounded == []


def test_the_memo_scan_sees_each_unbounded_memo(tmp_path):
    f = tmp_path / "m.py"
    f.write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@functools.cache\ndef parser():\n    return 1\n\n"
        "@lru_cache(maxsize=8)\ndef sized(x):\n    return x\n\n"
        "@lru_cache(16)\ndef sized_positionally(x):\n    return x\n\n"
        "@cache\ndef forever(x):\n    return x\n\n"
        "@functools.lru_cache(maxsize=None)\ndef unbounded(x):\n"
        "    return x\n\n"
        "@lru_cache\ndef default_size(x):\n    return x\n\n"
        "class C:\n    @lru_cache()\n    def method(self):\n"
        "        return 0\n\n"
        "wrapped = lru_cache(maxsize=None)(len)\n"
        "fine = functools.lru_cache(maxsize=4)(len)\n")
    assert _unbounded_memos(f) == [
        "<line 33>", "default_size", "forever", "method", "unbounded"]
    assert [name for name, bounded in _memos(f) if bounded] == [
        "<line 34>", "parser", "sized", "sized_positionally"]


# ---------- syntax classes derive from lambdamu.Node ----------

SYNTAX_MODULES = ("lambdamu", "logic", "cps", "extract")
# "module.Class" in a syntax module -> why it is not a syntax tree
NOT_SYNTAX = {
    "logic.Theory": "a mutable table of axiom schemes",
    "lambdamu._KeyRef": "a weak reference that holds its node's table key",
}


def _node_violations(src_dir):
    """Lines naming each frozen dataclass, each class of a syntax module
    that is not a Node, and each syntax class that writes its own __eq__ or
    __hash__ (Node generates both from the fields)."""
    out, bases, bodies = [], {}, {}
    for path in sorted(src_dir.glob("*.py")):
        text = path.read_text()
        if "frozen=True" in text:
            out.append(f"{path.stem}: frozen=True")
        if path.stem not in SYNTAX_MODULES:
            continue
        for node in ast.parse(text, filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                key = f"{path.stem}.{node.name}"
                bases[key] = {getattr(b, "id", None) for b in node.bases}
                bodies[key] = node.body

    def is_node(key):
        name = key.split(".")[1]
        return name == "Node" or any(
            is_node(k) for k in bases if k.split(".")[1] in bases[key])

    for key, body in bodies.items():
        if key in NOT_SYNTAX:
            continue
        if not is_node(key):
            out.append(f"{key}: not a Node")
        for stmt in body:
            names = ([stmt.name] if isinstance(stmt, ast.FunctionDef) else
                     [t.id for t in getattr(stmt, "targets", ())
                      if isinstance(t, ast.Name)])
            out += [f"{key}: own {n}" for n in names
                    if n in ("__eq__", "__hash__")]
    return out


def test_syntax_classes_are_nodes():
    assert _node_violations(ROOT / "src" / "mupcf") == []
    for key in NOT_SYNTAX:  # every exception is still needed
        mod, name = key.split(".")
        assert f"class {name}" in (ROOT / "src" / "mupcf" /
                                    f"{mod}.py").read_text()


def test_the_node_scan_sees_each_violation(tmp_path):
    (tmp_path / "lambdamu.py").write_text(
        "class Node:\n    pass\n\nclass Term(Node):\n    pass\n\n"
        "class Var(Term):\n    name: str\n\n"
        "class Eq(Term):\n    def __eq__(self, other):\n        return 0\n\n"
        "class Plain:\n    __hash__ = None\n")
    (tmp_path / "format.py").write_text(
        "@dataclass(frozen=True)\nclass Pos:\n    line: int\n")
    assert _node_violations(tmp_path) == [
        "format: frozen=True", "lambdamu.Eq: own __eq__",
        "lambdamu.Plain: not a Node", "lambdamu.Plain: own __hash__"]


# ---------- every printed syntax class has a layout ----------

# the syntaxes that lambdamu.write prints; Sequent and the report nodes of
# extract are never printed
PRINTED = {"LType", "Term", "Sort", "Individual", "Formula", "Proof",
           "LamType", "LamTerm"}


def _layout_violations(src_dir):
    """"module.Class" for each concrete class below PRINTED in a syntax
    module that declares no layout= and writes no _parts (lambdamu.Node)."""
    classes = {}
    for path in sorted(src_dir.glob("*.py")):
        if path.stem in SYNTAX_MODULES:
            for node in ast.parse(path.read_text(), filename=str(path)).body:
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = (path.stem, node)
    bases = {name: {getattr(b, "id", None) for b in node.bases}
             for name, (_, node) in classes.items()}

    def printed(name):
        return any(b in PRINTED or b in bases and printed(b)
                   for b in bases[name])

    abstract = set().union(*bases.values())
    return [f"{mod}.{name}" for name, (mod, node) in classes.items()
            if printed(name) and name not in abstract
            and not any(k.arg == "layout" for k in node.keywords)
            and not any(isinstance(s, ast.FunctionDef) and s.name == "_parts"
                        for s in node.body)]


def test_every_printed_syntax_class_has_a_layout():
    assert _layout_violations(ROOT / "src" / "mupcf") == []


def test_the_layout_scan_sees_a_class_without_one(tmp_path):
    (tmp_path / "lambdamu.py").write_text(
        "class Node:\n    pass\n\nclass Term(Node):\n    pass\n\n"
        "class Var(Term, layout='{name}'):\n    name: str\n\n"
        "class App(Term):\n    fn: Term\n\n"
        "class Prim(Term):\n    def _parts(self):\n        return ()\n\n"
        "class Value(Term):\n    pass\n\nclass Zero(Value):\n    pass\n\n"
        "class Report(Node):\n    pass\n")
    (tmp_path / "format.py").write_text(
        "from .lambdamu import Term\n\nclass Pos(Term):\n    pass\n")
    assert _layout_violations(tmp_path) == ["lambdamu.App", "lambdamu.Zero"]


# ---------- the grammar of the oldest supported interpreter ----------

OLDEST = (3, 10)  # pyproject.toml: requires-python = ">=3.10"


def _too_new(paths):
    """(path, line) of each file that does not parse as Python OLDEST."""
    out = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=OLDEST)
        except SyntaxError as ex:
            out.append((path, ex.lineno))
    return out


def test_every_file_parses_as_the_oldest_supported_python():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    paths = [p for pattern in ("src/mupcf/*.py", "tests/*.py", "bench/*.py")
             for p in sorted(ROOT.glob(pattern))]
    assert len(paths) > 30
    assert _too_new(paths) == []


def test_the_grammar_scan_sees_newer_syntax(tmp_path):
    new = tmp_path / "new.py"  # an exception group handler is 3.11 grammar
    new.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    old = tmp_path / "old.py"
    old.write_text("match 1:\n    case 1:\n        pass\n")
    assert [path for path, _ in _too_new([new, old])] == [new]
