"""Phases are stored once, as integers: a guard on the source tree.

The library keeps every phase as an integer numerator (the Gram matrix
over the level, twists over the order of the term table).  `PhaseMod1`
and `PhaseMod2` may be named only in `exactkernel`, which defines them,
and in the three read-only views that build them on demand.
"""

import ast
from pathlib import Path

import genusforge

PHASES = {"PhaseMod1", "PhaseMod2"}
ROOT = Path(genusforge.__file__).parent
VIEWS = {("quadspace/space.py", "q_gen"), ("quadspace/space.py", "b_matrix"),
         ("modcat/data.py", "twists")}


def phase_names(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(innermost enclosing function or None, line) of every name, attribute
    or import of a phase class."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id in PHASES
                or isinstance(node, ast.Attribute) and node.attr in PHASES
                or isinstance(node, ast.alias) and node.name.split(".")[-1] in PHASES):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_the_scan_sees_every_way_of_naming_a_phase():
    source = ("from genusforge.exactkernel import PhaseMod1\n"
              "import genusforge.exactkernel as ek\n"
              "def f(x) -> PhaseMod2:\n"
              "    return ek.PhaseMod1(x)\n")
    assert sorted(phase_names(ast.parse(source)), key=lambda f: f[1]) == [
        (None, 1), ("f", 3), ("f", 4)]


def test_phases_are_named_only_in_exactkernel_and_the_views():
    seen = set()
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if rel.startswith("exactkernel/"):
            continue
        for func, line in phase_names(ast.parse(path.read_text(encoding="utf-8"), rel)):
            assert (rel, func) in VIEWS, f"{rel}:{line} names a phase class outside a view"
            seen.add((rel, func))
    assert seen == VIEWS
