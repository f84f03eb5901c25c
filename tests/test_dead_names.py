"""Every module-level name in capax has a caller.

A def, class or assigned name at the top of a module in src/capax must be
read somewhere in the package beyond its definition (a load, an
attribute access or an import from another module), be imported by
the acceptance suite, or be a module hook that Python itself calls.  Code that only its own unit tests reach fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "capax"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
HOOKS = {"__getattr__"}  # a module's attribute fallback, called on a missing name (PEP 562)


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _imported(tree: ast.Module) -> set[str]:
    return {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names}


def _used(tree: ast.Module) -> set[str]:
    names = _imported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_module_name_has_a_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    used = set().union(*map(_used, trees.values()))
    used |= _imported(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    dead = sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in _defined(tree) - used - HOOKS)
    assert not dead, f"module-level names that nothing in src/capax reads: {dead}"
