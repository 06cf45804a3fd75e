"""Phases and modular data are stored once, as integers: guards on the
source tree.

The library keeps every phase as an integer numerator (the Gram matrix
over the level, twists over the order of the term table).  `PhaseMod1`
and `PhaseMod2` may be named only in `exactkernel`, which defines them,
and in the three read-only views that build them on demand.

Modular data keep one table of root-of-unity exponents, and `modcat`
reads nothing else: `CyclotomicNumber` may be named there only where
outside entries are validated (`build_modular_data`, `_cyclo_from_json`)
and where non-pointed dims are inverted (`inverse_dims`).
"""

import ast
from pathlib import Path

import genusforge

PHASES = {"PhaseMod1", "PhaseMod2"}
ROOT = Path(genusforge.__file__).parent
VIEWS = {("quadspace/space.py", "q_gen"), ("quadspace/space.py", "b_matrix"),
         ("modcat/data.py", "twists")}
CYCLOTOMIC = {"CyclotomicNumber"}
CYCLOTOMIC_INPUT = {("modcat/data.py", "build_modular_data"),
                    ("modcat/data.py", "_cyclo_from_json"),
                    ("modcat/data.py", "inverse_dims")}


def class_names(tree: ast.AST, classes: set[str] = PHASES) -> list[tuple[str | None, int]]:
    """(innermost enclosing function or None, line) of every name, attribute
    or import of one of the classes."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Name) and node.id in classes
                or isinstance(node, ast.Attribute) and node.attr in classes
                or isinstance(node, ast.alias) and node.name.split(".")[-1] in classes):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def places(classes: set[str], under: str) -> dict[tuple[str, str | None], int]:
    """(file, function) -> a line naming one of the classes, over the source
    files whose path matches `under`."""
    seen = {}
    for path in sorted(ROOT.glob(under)):
        rel = path.relative_to(ROOT).as_posix()
        for func, line in class_names(ast.parse(path.read_text(encoding="utf-8"), rel), classes):
            seen.setdefault((rel, func), line)
    return seen


def test_the_scan_sees_every_way_of_naming_a_phase():
    source = ("from genusforge.exactkernel import PhaseMod1\n"
              "import genusforge.exactkernel as ek\n"
              "def f(x) -> PhaseMod2:\n"
              "    return ek.PhaseMod1(x)\n")
    assert sorted(class_names(ast.parse(source)), key=lambda f: f[1]) == [
        (None, 1), ("f", 3), ("f", 4)]


def test_phases_are_named_only_in_exactkernel_and_the_views():
    seen = {k: v for k, v in places(PHASES, "**/*.py").items()
            if not k[0].startswith("exactkernel/")}
    for (rel, func), line in seen.items():
        assert (rel, func) in VIEWS, f"{rel}:{line} names a phase class outside a view"
    assert set(seen) == VIEWS


def test_modcat_names_cyclotomic_numbers_only_at_its_input():
    seen = places(CYCLOTOMIC, "modcat/*.py")
    for (rel, func), line in seen.items():
        assert (rel, func) in CYCLOTOMIC_INPUT, f"{rel}:{line} names CyclotomicNumber"
    assert set(seen) == CYCLOTOMIC_INPUT
