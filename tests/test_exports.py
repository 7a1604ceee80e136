"""Every name ``dhmc`` exports is read by the program itself, every
module-level private name is read by its own module, only ``EmbeddingMap``
applies the cell rule to its knots, and no module imports ``scipy.special``.

The package sources (without ``dhmc/__init__.py``) and the benchmark under
``perfbench/`` are parsed; a name counts as used when it is loaded there as a
bare name or as an attribute.  A fresh interpreter checks which modules the
package and its command line load.
"""

import ast
import json
import os
import subprocess
import sys
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


def _mentions_knots(node):
    return any(isinstance(n, ast.Name) and n.id == "knots"
               or isinstance(n, ast.Attribute) and n.attr == "knots"
               for n in ast.walk(node))


def test_only_the_embedding_map_applies_the_cell_rule():
    # ``EmbeddingMap.cell`` and ``cells`` say which cell holds a value; other
    # code may read a knot for a width or a centre, but neither searches the
    # knots nor compares a value with them.  ``np.searchsorted(taus, ...)``
    # in arch_cp assigns times to segments and reads no knots.
    found = []
    for path in sorted((ROOT / "src" / "dhmc").rglob("*.py")):
        if path.name == "embedding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "searchsorted"):
                operands = [node.func.value, *node.args[:1]]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            else:
                continue
            if any(_mentions_knots(x) for x in operands):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == [], f"cell lookups outside EmbeddingMap: {found}"


def _imported_names(node):
    """Dotted names an import statement loads: ``from a import b`` gives
    ``a`` and ``a.b``, a relative import none."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def test_no_module_imports_scipy_special():
    # the models take their special functions from ``math`` and
    # ``dhmc.models.special``; scipy's cost a third of a second of start-up
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src" / "dhmc").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if any(name == "scipy.special" or name.startswith("scipy.special.")
                    for name in _imported_names(node))]
    assert found == [], f"scipy.special imported at {found}"


# Imports the package and the command line and builds three light models,
# then every other bundled model, with the CLI's default parameters.
_IMPORT_PROBE = """
import json, sys
import dhmc, dhmc.cli
from dhmc.models import __all__ as exported, build_model
for name in ("ar1", "gen_bayes", "pmf"):
    build_model(name, {}, None, 0)
loaded = [m for m in ("scipy.special", "concurrent.futures.process")
          if m in sys.modules]
for name in ("gaussian", "banana", "binomial_n", "jolly_seber", "arch_cp"):
    build_model(name, {}, None, 0)
print(json.dumps({"exported": exported, "loaded": loaded,
                  "special_after": "scipy.special" in sys.modules}))
"""


def test_models_load_only_when_built():
    src_dir = str(Path(dhmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["exported"] == ["build_model"]
    assert seen["loaded"] == [], "loaded before any model needs them"
    assert not seen["special_after"], "a bundled model loads scipy.special"
