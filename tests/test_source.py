"""Checks over the package source and what importing it loads."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hierdde"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_only_harness_reads_or_writes_files():
    # how a file looks is decided in one module: no other imports json or
    # opens a file
    speaking = sorted(p.name for p in MODULES
                      if re.search(r"^import json|open\(", p.read_text(),
                                   re.MULTILINE))
    assert speaking == ["harness.py"]


def test_only_harness_builds_file_text():
    # file text is filled from row templates in one module: no other
    # applies % to a tuple(...) of values
    filling = sorted({
        p.name for p in MODULES for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
        and isinstance(node.right, ast.Call)
        and getattr(node.right.func, "id", None) == "tuple"})
    assert filling == ["harness.py"]


def _callers(name):
    """``module:function`` (``module:Class.method``) of every call of a
    function named ``name``, by plain name or as an attribute."""
    out = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owners = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owners[child] = node
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and name in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))):
                continue
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = owners[scope]
            owner = owners.get(scope)
            where = (f"{owner.name}.{scope.name}"
                     if isinstance(owner, ast.ClassDef) else
                     getattr(scope, "name", "<module>"))
            out.append(f"{path.stem}:{where}")
    return out


def test_only_the_level_evaluates_level_polynomials():
    # one root solver: it is taken in _Level's methods, and once for the
    # ladder's level-1 pencil; its pencils go to pencil_roots alone
    callers = _callers("poly_roots_batch")
    assert callers and all(
        c.startswith("manifolds:_Level.")
        or c == "degeneracy:strong_stable_spectrum" for c in callers), callers
    assert _callers("pencil_roots") == ["linalg:poly_roots_batch"]


def test_the_level_takes_one_coordinate_form():
    # points and lattices reach the level evaluator in one form, the
    # coordinate arrays (omega, phi_1, ..., phi_{k-1}) that broadcast
    # together, and no method tells the two apart by type
    tree = ast.parse((SRC / "manifolds.py").read_text())
    (level,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "_Level"]
    methods = {node.name: node for node in level.body
               if isinstance(node, ast.FunctionDef)}
    for name in ("B", "roots", "gammas"):
        args = [a.arg for a in methods[name].args.args]
        assert args == ["self", "coords"], (name, args)
    typed = sorted(name for name, node in methods.items() if any(
        getattr(call.func, "id", None) == "isinstance"
        for call in ast.walk(node) if isinstance(call, ast.Call)))
    assert typed == [], typed


def test_only_polish_runs_newton():
    # seeds, one-zero cells and clusters are polished through one entry
    assert _callers("_newton_batch") == ["rootfinder:_polish"]


def test_only_the_backend_takes_determinants():
    # every determinant is _backend._det: closed forms for d <= 2, LU beyond
    calls = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "det"
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"):
                calls.append(path.name)
    assert calls and set(calls) == {"_backend.py"}, calls


def test_import_does_not_load_scipy_spatial():
    # about 0.45 s of import time, paid only by run_validate
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, hierdde; assert 'scipy.spatial' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _definitions(tree):
    """Names of the module-level functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def _references(tree):
    """Names read, attributes taken and strings listed in ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            for elt in ast.walk(node.value):
                if isinstance(elt, ast.Constant) and isinstance(elt.value,
                                                                str):
                    yield elt.value


def test_every_definition_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in _definitions(tree)
                  if name not in used and name != "__all__")
    assert dead == [], f"unreferenced definitions {dead}"
