"""Every module-level import in src/fraclayer is used by its module, and the
third-party modules it imports are exactly the declared dependencies."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fraclayer"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in (args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg]):
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as "ProfileFn" name their types in a string
    for ann in _annotations(tree):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _used_names(ast.parse(sub.value, mode="eval"))
    return names


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in used:
                    out.append(f"{path.name}:{node.lineno}: {bound}")
    return out


def test_unused_import_finder_flags_an_unused_name(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import math\nimport os\nfrom typing import Any\n"
                 "def f(x: 'Any'):\n    return os.sep\n")
    assert _unused_imports(p) == ["m.py:1: math"]


def test_no_unused_module_imports():
    found = [u for p in sorted(PACKAGE.glob("*.py"))
             for u in _unused_imports(p)]
    assert found == []


def _third_party_imports(package: Path) -> set:
    """Top-level modules imported anywhere in the package, function-local
    imports included, that are neither stdlib nor the package itself."""
    found = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return {m for m in found
            if m not in sys.stdlib_module_names and m != package.name}


def _declared_dependencies(pyproject: Path) -> set:
    """Names in [project].dependencies, read by pattern (tomllib is 3.11+)."""
    text = pyproject.read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1),
                     re.M | re.S)
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower()
            for d in re.findall(r'"([^"]+)"', deps.group(1))}


def test_dependency_check_flags_an_undeclared_import(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text("import math\nimport numpy as np\n"
                              "from . import m\n"
                              "def f():\n    import yaml\n    return np\n")
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "pkg"\ndependencies = [\n    "numpy>=1.24",\n'
        '    "scipy",\n]\n\n[project.optional-dependencies]\n'
        'dev = ["pytest>=7"]\n')
    assert _third_party_imports(pkg) == {"numpy", "yaml"}
    assert _declared_dependencies(tmp_path / "pyproject.toml") == {
        "numpy", "scipy"}


def test_imports_match_declared_dependencies():
    assert _third_party_imports(PACKAGE) == _declared_dependencies(
        ROOT / "pyproject.toml")
