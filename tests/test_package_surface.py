"""The package holds only what its commands or the benchmark reach.

Every top-level public function and class of ``src/walkdelta`` must be
named somewhere in the package or in ``bench/`` besides its own
definition. A name counts only as code reads it (an ``ast.Name``, an
``ast.Attribute`` or an import alias), never in a docstring or comment. A
definition that only the tests call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "walkdelta").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# name -> why it stays in the package with no caller there
ALLOWED = {
    "hoeffding_samples": "the sample count of the noise plan (ROADMAP Direction 8)",
    "plan_noise": "the eta and theta of the noise plan (ROADMAP Direction 8)",
}


def _referenced(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _public_definitions(path: Path) -> list[str]:
    return [
        node.name
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_public_definition_has_a_caller():
    referenced = set().union(*map(_referenced, PACKAGE + BENCH))
    unused = {
        f"{path.stem}.{name}": name
        for path in PACKAGE
        for name in _public_definitions(path)
        if name not in referenced
    }
    assert sorted(where for where, name in unused.items() if name not in ALLOWED) == []
    # an allowed name that gains a caller, or is deleted, leaves the list
    assert set(ALLOWED) <= set(unused.values())
