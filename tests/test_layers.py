import ast
from pathlib import Path

import entropy_lab

PACKAGE = Path(entropy_lab.__file__).parent

# The module layers of the package, lowest first. A module may import only
# from layers strictly below its own, so toeplitz and fejer, which share a
# layer, import neither each other nor anything above torus_sets.
LAYERS = [("torus_sets",), ("toeplitz", "fejer"), ("oracle",), ("scaling",),
          ("specio",), ("cli",)]
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _package_imports(tree: ast.AST) -> set[str]:
    """Modules of the package that ``tree`` imports, at any depth:
    ``from .x import ...`` and ``from . import x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_modules_import_only_from_lower_layers():
    back_edges = []
    for name, rank in RANK.items():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for imported in sorted(_package_imports(tree)):
            if RANK.get(imported, len(LAYERS)) >= rank:
                back_edges.append(f"{name} -> {imported}")
    assert back_edges == []


def test_the_import_parser_sees_each_form():
    source = ("from .scaling import scan\n"
              "from . import cli, specio\n"
              "def f():\n"
              "    from .toeplitz import spectrum\n"
              "from numpy import linalg\n")
    assert _package_imports(ast.parse(source)) == {"scaling", "cli", "specio", "toeplitz"}
