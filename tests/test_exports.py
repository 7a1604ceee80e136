"""Every name ``dhmc`` exports is read by the program itself, and every
module-level private name is read by its own module.

The package sources (without ``dhmc/__init__.py``) and the benchmark under
``perfbench/`` are parsed; a name counts as used when it is loaded there as a
bare name or as an attribute.
"""

import ast
from pathlib import Path

import dhmc

ROOT = Path(__file__).resolve().parents[1]

# Exported on purpose although only tests reach it.
KEEP = {
    "dhmc_step": "the step API that acceptance 02 and 05 check",
}


def _loaded_names():
    files = [p for p in (ROOT / "src" / "dhmc").rglob("*.py")
             if p != ROOT / "src" / "dhmc" / "__init__.py"]
    files += list((ROOT / "perfbench").rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_is_used_by_the_program():
    loaded = _loaded_names()
    unused = sorted(set(dhmc.__all__) - loaded - set(KEEP))
    assert unused == [], f"exported but only tests reach them: {unused}"
    assert set(KEEP) <= set(dhmc.__all__)


def _private_definitions(tree):
    """Names with one leading underscore bound at the top of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_is_read_by_its_module():
    dead = []
    for path in sorted((ROOT / "src" / "dhmc").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead += [f"{path.relative_to(ROOT)}:{name}"
                 for name in sorted(_private_definitions(tree) - loaded)]
    assert dead == [], f"module-level private names nothing reads: {dead}"
