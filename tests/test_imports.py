"""Every module-level import in src/fraclayer is used by its module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fraclayer"


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
