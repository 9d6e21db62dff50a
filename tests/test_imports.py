"""Source hygiene: every name a module imports is read in that module, every
name the package exports is one its users name, and every public function
or class has a caller outside the tests."""
from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads.

    `from __future__` imports bind no name; `import a.b` binds `a`.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport re\nfrom a import b, c as d\nd(re)\n"
    assert unused_imports(source) == ["b (line 4)", "os (line 2)"]


def test_no_unused_imports_in_src_and_tests():
    # package __init__ files import names to re-export them
    paths = [
        p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"
    ]
    assert paths
    unused = {}
    for path in paths:
        names = unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}


def test_benchmark_imports_resolve():
    # the benchmark is not collected here, so a deletion that breaks it
    # would otherwise first show in a benchmark run
    names = []
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "volkey":
                names += [(path.name, node.module, alias.name) for alias in node.names]
    assert names
    missing = [
        f"{file}: {module}.{name}"
        for file, module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_export_is_named_outside_the_tests():
    # the package's surface is what the README, the CLI and the benchmark
    # name; anything else belongs in its module, or in the tests as an oracle
    init = ast.parse((ROOT / "src" / "volkey" / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exported
    users = [ROOT / "README.md", ROOT / "src" / "volkey" / "cli.py"]
    users += sorted((ROOT / "benchmarks").glob("*.py"))
    # whole identifiers: `structure_tensor` does not name estimate_frame_structure_tensor
    named = {word for p in users for word in re.findall(r"\w+", p.read_text())}
    assert [name for name in exported if name not in named] == []


def test_one_module_tests_numbers():
    # scalar arguments go through errors.check_number: no other module
    # imports `numbers` or asks isinstance(..., bool)
    found = []
    for path in sorted((ROOT / "src" / "volkey").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            imports = isinstance(node, ast.ImportFrom) and node.module == "numbers"
            imports |= isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
            bool_test = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and "bool" in ast.unparse(node.args[1])
            )
            if imports or bool_test:
                found.append(f"{path.name}:{node.lineno}")
    assert found and all(place.startswith("errors.py:") for place in found), found


def test_one_module_holds_the_record_rule():
    # every feature stack, from a list or a file, is built and checked by
    # descriptors._stack: no other module words a reason it refuses a record
    reasons = ("frame is not a rotation", "ranks are not a permutation of 0..63")
    found = []
    for path in sorted((ROOT / "src" / "volkey").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(reason in node.value for reason in reasons):
                    found.append(f"{path.name}:{node.lineno}")
    assert found and all(place.startswith("descriptors.py:") for place in found), found


def unreferenced_definitions(modules: dict[str, str], users: list[str]) -> list[str]:
    """module.name of each public module-level function or class in modules
    (name -> source) that no code names outside its own definition: no name,
    attribute or imported name in modules or users refers to it.  Docstrings
    are strings, not code, so naming a definition there does not count."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    referenced: dict[str, list[int]] = {}
    for tree in [*trees.values(), *map(ast.parse, users)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            for name in names:
                referenced.setdefault(name, []).append(id(node))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                inside = {id(n) for n in ast.walk(node)}
                if all(ref in inside for ref in referenced.get(node.name, [])):
                    found.append(f"{module}.{node.name}")
    return found


def test_unreferenced_definitions_are_found():
    module = 'def f():\n    return f()\n\ndef g():\n    """see h"""\n\ndef h():\n    pass\n\ndef _p():\n    pass\n'
    assert unreferenced_definitions({"m": module}, ["from m import g\n"]) == ["m.f", "m.h"]


def test_every_public_definition_has_a_caller_outside_the_tests():
    # a function or class that only the tests call belongs in the tests
    modules = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "volkey").glob("*.py"))}
    assert modules
    users = [p.read_text() for p in sorted((ROOT / "benchmarks").glob("*.py"))]
    assert unreferenced_definitions(modules, users) == []
