"""Every module-level import in src/fraclayer is used by its module. The
program (src, perfbench and tools; tests are not callers) names every
top-level def and class elsewhere, reads every class member, passes every
defaulted parameter somewhere and leaves each default to at least one call:
a knob that only tests turn is a constant. Every parameter is read, the
third-party modules the package imports are exactly the declared
dependencies, the solver reads a grid only through the operator interface,
and a run of the program loads neither scipy nor mpmath."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fraclayer"
# the program's code: the callers and readers the guards below count
PROGRAM = [ROOT / d for d in ("src", "perfbench", "tools")]


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


def _referenced_names(node) -> set:
    """Names, attributes and imported names that a syntax tree refers to."""
    names = _used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {a.name for a in sub.names}
    return names


def _trees(roots) -> dict:
    return {path: ast.parse(path.read_text())
            for root in roots for path in sorted(root.rglob("*.py"))}


def _unreferenced_defs(package: Path, roots) -> list:
    """Top-level defs and classes of the package's modules that no code under
    the roots names outside their own definition. One of the roots must
    contain the package."""
    trees = _trees(roots)
    per_stmt = {path: [_referenced_names(stmt) for stmt in tree.body]
                for path, tree in trees.items()}
    out = []
    for path in sorted(package.glob("*.py")):
        elsewhere = set().union(*(n for q, stmts in per_stmt.items()
                                  if q != path for n in stmts))
        for i, node in enumerate(trees[path].body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            here = set().union(*(n for j, n in enumerate(per_stmt[path])
                                 if j != i))
            if node.name not in here | elsewhere:
                out.append(f"{path.name}:{node.lineno}: {node.name}")
    return out


def test_dead_code_finder_flags_an_unused_def(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "def used():\n    return 1\n\n"
        "def dead():\n    return dead()\n\n"
        "def helper():\n    return used()\n\n"
        "def by_attribute():\n    pass\n\n"
        "class Kept:\n    pass\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_m.py").write_text(
        "from pkg.m import helper\nimport pkg.m as m\n"
        "def test_x(k: 'Kept'):\n    assert helper() == 1\n"
        "    m.by_attribute()\n")
    assert _unreferenced_defs(pkg, [pkg, tests]) == ["m.py:4: dead"]


def test_every_def_is_named_elsewhere():
    """Program code only: a def that only tests name is dead."""
    assert _unreferenced_defs(PACKAGE, PROGRAM) == []


def _attribute_reads(tree, reads: dict) -> None:
    """Add to reads, per attribute name, the class-body statements that
    read it (the tree's root outside any). A read is an attribute load, or
    a string constant in a function that calls getattr."""

    def visit(node, owner, in_class_body):
        if in_class_body:
            owner = node
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.attr, set()).add(owner)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                and c.func.id == "getattr" for c in ast.walk(node)):
            for c in ast.walk(node):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    reads.setdefault(c.value, set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, isinstance(node, ast.ClassDef))

    visit(tree, tree, False)


def _unread_members(package: Path, roots) -> list:
    """Fields, methods and properties of the package's classes that no code
    under the roots reads outside their own definition. Dunder methods are
    left out: Python calls them itself."""
    trees = _trees(roots)
    reads: dict = {}
    for tree in trees.values():
        _attribute_reads(tree, reads)
    out = []
    for path in sorted(package.glob("*.py")):
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    name = node.target.id
                elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (node.name.startswith("__")
                               and node.name.endswith("__"))):
                    name = node.name
                else:
                    continue
                if not reads.get(name, set()) - {node}:
                    out.append(f"{path.name}:{node.lineno}: {cls.name}.{name}")
    return out


def test_unread_member_finder_flags_a_member_without_a_reader(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Rec:\n"
        "    used: int\n    by_name: int\n    dead: int\n\n"
        "    def again(self):\n        return self.again()\n\n"
        "    def total(self):\n        return self.used\n\n"
        "    @property\n    def doubled(self):\n        return 2\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_m.py").write_text(
        "def test_x(r):\n    r.dead = 1\n    assert r.total() < r.doubled\n"
        "    for f in ('by_name',):\n        getattr(r, f)\n")
    assert _unread_members(pkg, [pkg, tests]) == [
        "m.py:7: Rec.dead", "m.py:9: Rec.again"]


def test_every_member_is_read():
    """Program code only: a member that only tests read is dead."""
    assert _unread_members(PACKAGE, PROGRAM) == []


def _defaulted_params(fn) -> list:
    """(position, name) of each parameter with a default; the position of a
    keyword-only one is None."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(pos) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
               if d is not None])


def _callables(tree):
    """(call key, def, implicit leading arguments) of each top-level def and
    method. A top-level def's key is ("def", name), as is __init__'s under
    its class's name; a method's is ("method", name), and called on an
    object it gets self or cls implicitly, as __init__ does."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ("def", node.name), node, 0
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if m.name == "__init__":
                        yield ("def", node.name), m, 1
                    else:
                        static = any(isinstance(d, ast.Name)
                                     and d.id == "staticmethod"
                                     for d in m.decorator_list)
                        yield ("method", m.name), m, 0 if static else 1


def _module_parts(path: Path) -> tuple:
    """The path's parts without its suffix, a package's __init__ dropped."""
    parts = path.with_suffix("").parts
    return parts[:-1] if parts[-1] == "__init__" else parts


def _module_bindings(path: Path, tree, modules: set, tails: set) -> set:
    """Names that the file's imports bind to modules: each `import` alias,
    and each X of `from A import X` that is a scanned module itself: A.X is
    a tail of one of `modules` (the scanned files' parts), or with a
    relative import the file's package joined with A.X is one of them."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = tuple(node.module.split(".")) if node.module else ()
            found = tails
            if node.level:
                base = path.parts[:len(path.parts) - node.level] + base
                found = modules
            out |= {a.asname or a.name for a in node.names
                    if base + (a.name,) in found}
    return out


def _calls(roots) -> tuple:
    """The parsed files under the roots, and their calls by key: ("def", f)
    holds f(...) and mod.f(...) with mod a name that an import of the
    calling file binds to a module; ("method", m) holds every other
    attribute call x.m(...)."""
    trees = _trees(roots)
    modules = {_module_parts(path) for path in trees}
    tails = {m[i:] for m in modules for i in range(len(m))}
    calls: dict = {}
    for path, tree in trees.items():
        bound = _module_bindings(path, tree, modules, tails)
        for c in ast.walk(tree):
            if not isinstance(c, ast.Call):
                continue
            if isinstance(c.func, ast.Name):
                key = ("def", c.func.id)
            elif isinstance(c.func, ast.Attribute):
                on_module = (isinstance(c.func.value, ast.Name)
                             and c.func.value.id in bound)
                key = ("def" if on_module else "method", c.func.attr)
            else:
                continue
            calls.setdefault(key, []).append(c)
    return trees, calls


def _passes(call, pos, name: str, implicit: int) -> bool:
    """Whether the call may set the parameter: by keyword, by **mapping, by
    position, or by *sequence."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return pos is not None and (
        any(isinstance(a, ast.Starred) for a in call.args)
        or pos - implicit < len(call.args))


def _unpassed_params(package: Path, roots) -> list:
    """Defaulted parameters of the package's defs and methods that no call
    under the roots passes; calls match as _calls keys them. Dataclass
    constructors have no def and are left out."""
    trees, calls = _calls(roots)
    out = []
    for path in sorted(package.glob("*.py")):
        for key, fn, implicit in _callables(trees[path]):
            for pos, arg in _defaulted_params(fn):
                if not any(_passes(c, pos, arg, implicit)
                           for c in calls.get(key, ())):
                    out.append(f"{path.name}:{fn.lineno}: {key[1]}({arg})")
    return out


def test_unpassed_param_finder_flags_a_default_no_call_sets(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n    return f(a, *[b])\n\n"
        "class K:\n    def __init__(self, x=0):\n        self.x = x\n\n"
        "    def m(self, y=1, z=2):\n        return y + z\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    test_m = tests / "test_m.py"
    test_m.write_text("from pkg.m import K, f\n"
                      "def test_x():\n    f(0, d=4)\n    K(1).m(5)\n")
    assert _unpassed_params(pkg, [pkg, tests]) == ["m.py:8: m(z)"]
    test_m.write_text("from pkg.m import K, f\n"
                      "def test_x():\n    f(0, d=4)\n    K().m(z=5)\n")
    assert _unpassed_params(pkg, [pkg, tests]) == [
        "m.py:5: K(x)", "m.py:8: m(y)"]


def test_every_default_is_passed_somewhere():
    """Program code only: a default that only tests override is a
    constant."""
    assert _unpassed_params(PACKAGE, PROGRAM) == []


def _overridden_defaults(package: Path, roots) -> list:
    """Defaulted parameters of the package's defs and methods that every
    call under the roots sets by keyword or plain position, so that no call
    relies on the default; calls match as _calls keys them. A call with
    *sequence or **mapping may rely on it."""
    trees, calls = _calls(roots)

    def sets(call, pos, arg, implicit):
        plain = next((i for i, a in enumerate(call.args)
                      if isinstance(a, ast.Starred)), len(call.args))
        return any(k.arg == arg for k in call.keywords) or (
            pos is not None and pos - implicit < plain)

    out = []
    for path in sorted(package.glob("*.py")):
        for key, fn, implicit in _callables(trees[path]):
            for pos, arg in _defaulted_params(fn):
                if all(sets(c, pos, arg, implicit)
                       for c in calls.get(key, ())):
                    out.append(f"{path.name}:{fn.lineno}: {key[1]}({arg})")
    return out


def test_overridden_default_finder_flags_a_default_every_call_sets(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n    return f(a, 5, d=4)\n\n"
        "def g(a, b=1):\n    return g(*a)\n\n"
        "class K:\n    def m(self, y=1, z=2):\n        return y + z\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_m.py").write_text(
        "from pkg.m import K, f\n"
        "def test_x():\n    f(0, 1, d=4)\n    K().m(5, **{})\n")
    assert _overridden_defaults(pkg, [pkg, tests]) == [
        "m.py:1: f(b)", "m.py:1: f(d)", "m.py:8: m(y)"]


def test_every_default_is_relied_on():
    """Program code only: a default that every program call overrides is a
    required parameter."""
    assert _overridden_defaults(PACKAGE, PROGRAM) == []


def test_guards_do_not_count_tests_as_callers(tmp_path):
    """A default that only a test sets, and a member that only a test
    reads, pass with tests among the roots and are flagged with program
    code alone."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Rec:\n    used: int\n    probe: int\n\n"
        "def f(r, n=4):\n    return r.used * n\n\n"
        "def g():\n    return f(Rec(1, 2))\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_m.py").write_text(
        "from pkg.m import Rec, f\n"
        "def test_x():\n    r = Rec(1, 2)\n    assert f(r, n=2) == r.probe\n")
    assert _unpassed_params(pkg, [pkg, tests]) == []
    assert _unread_members(pkg, [pkg, tests]) == []
    assert _unpassed_params(pkg, [pkg]) == ["m.py:8: f(n)"]
    assert _unread_members(pkg, [pkg]) == ["m.py:6: Rec.probe"]


def test_guards_tell_a_def_from_a_same_named_method(tmp_path):
    """op.energy(u) calls the method Op.energy, not the module's energy, so
    the bare and module-qualified calls that all set energy's op flag its
    default; m.energy(...) through `from . import m` is a call of the def,
    which leaves the method's scale unpassed."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "m.py").write_text(
        "def energy(g, op=None):\n    return op.energy(g)\n\n"
        "class Op:\n    def energy(self, u, scale=1.0):\n"
        "        return u * scale\n\n"
        "def run(op):\n    return energy(1, op) + energy(2, op=op)\n")
    (pkg / "n.py").write_text(
        "from . import m\n\ndef go(op):\n    return m.energy(3, op)\n")
    assert _overridden_defaults(pkg, [pkg]) == ["m.py:1: energy(op)"]
    assert _unpassed_params(pkg, [pkg]) == ["m.py:5: energy(scale)"]


def _unread_params(source: str, exempt=()) -> list:
    """Parameters of the source's defs that their bodies never read. The
    first parameter of a method (self, cls) and defs named in exempt are
    left out."""
    tree = ast.parse(source)
    methods = {m for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for m in c.body}
    out = []
    for fn in ast.walk(tree):
        if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                or fn.name in exempt):
            continue
        a = fn.args
        params = [p for p in (a.posonlyargs + a.args + a.kwonlyargs
                              + [a.vararg, a.kwarg]) if p is not None]
        if fn in methods and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list):
            params = params[1:]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        out += [f"{fn.lineno}: {fn.name}({p.arg})" for p in params
                if p.arg not in read]
    return out


def test_unread_param_finder_flags_a_parameter_the_body_ignores():
    source = ("def f(a, b, *rest, c=1):\n    return a + c\n\n"
              "def g(x):\n    def inner(y):\n        return x\n"
              "    return inner\n\n"
              "class K:\n    def m(self, z):\n        return 1\n\n"
              "    @staticmethod\n    def s(w):\n        return 2\n\n"
              "def cmd_x(cfg, out):\n    return out\n")
    assert _unread_params(source, exempt={"cmd_x"}) == [
        "1: f(b)", "1: f(rest)", "5: inner(y)", "10: m(z)", "14: s(w)"]


def _dispatch_table(source: str) -> set:
    """The handler names that cli.py's COMMANDS maps subcommands to."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "COMMANDS"):
            return {v.id for v in node.value.values}
    return set()


def test_every_parameter_is_read():
    """The subcommand handlers share the signature (cfg, out, seed, mode)
    through COMMANDS, whether or not each reads every argument."""
    handlers = _dispatch_table((PACKAGE / "cli.py").read_text())
    assert handlers
    found = {p.name: _unread_params(p.read_text(), handlers)
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


# what solver.py may read of the grid operator (op) and of a GridProfile
# (g, g0): the interface an operator on another grid implements
SOLVER_READS = {
    "op": {"apply", "update_exterior", "exterior_sensitivity", "energy",
           "lyapunov", "jacobian_apply", "precondition", "tau_bounds"},
    "g": {"x", "values", "ext_left", "ext_right", "copy_with"},
}
SOLVER_READS["g0"] = SOLVER_READS["g"]


def _foreign_reads(source: str) -> list:
    """Attributes of op, g or g0 that the source uses outside SOLVER_READS."""
    return [f"{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr not in SOLVER_READS.get(node.value.id, {node.attr})]


def test_interface_check_flags_a_grid_internal():
    source = ("def f(g, op, u):\n    e = op.energy(u, g.values)\n"
              "    return e + g.h * op.offset[0] + u.size\n")
    assert _foreign_reads(source) == ["3: g.h", "3: op.offset"]


def test_solver_reads_the_grid_through_the_operator_interface():
    assert _foreign_reads((PACKAGE / "solver.py").read_text()) == []


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


def test_program_loads_no_scipy_and_no_mpmath():
    """In a fresh interpreter: import every module of the package, build the
    desk profile and invert it at a few graded nodes, call threshold_params
    and run a small solve. No scipy module is loaded (scipy.optimize alone
    costs about 0.45 s and 45 MB of resident memory to import, scipy.sparse
    about 0.4 s), and no mpmath module: only the mpmath oracles import it,
    inside their bodies."""
    modules = sorted(p.stem for p in PACKAGE.glob("*.py")
                     if p.stem != "__init__")
    code = "\n".join([
        "import importlib, sys",
        f"for m in {modules!r}:",
        "    importlib.import_module('fraclayer.' + m)",
        "from fraclayer.construction import (LayerParams, build_profile,",
        "                                    threshold_params)",
        "from fraclayer.kernels import fractional_kernel",
        "from fraclayer.potentials import WellParams, make_potential",
        "from fraclayer.reconstruct import graded_nodes, invert_profile",
        "from fraclayer.solver import SolveConfig, make_grid, minimize_energy",
        "prof = build_profile(LayerParams(s=0.5, alpha=5.8, beta=5.0,",
        "                                 gamma=5.5, delta=5.0, rho=2.1))",
        "for r in graded_nodes(8.0, 12)[::40]:",
        "    invert_profile(prof, float(r))",
        "threshold_params(0.5, rho_target=2.05)",
        "pot = make_potential(WellParams(alpha=4, beta=4, gamma=4, delta=4,",
        "                                mu=0.5))",
        "res = minimize_energy(make_grid(40.0, 128), pot,",
        "                      fractional_kernel(0.5), SolveConfig(tol=1e-5))",
        "assert res.residual < 1e-5",
        "loaded = sorted(m for m in sys.modules",
        "                if m.startswith(('scipy', 'mpmath')))",
        "assert not loaded, loaded",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
