"""No engine module, test module or demo imports a name it never uses, and
no private module-level name of the engine is left unread.

No linter is part of the toolchain, so this walks the syntax tree of each
module under src/g2orbits/ (the package's __init__.py re-exports names and
is skipped), tests/ and demos/.  An import kept on purpose is marked
``# noqa: F401`` on its line; under src/ only the binding sites named in
TRACER_BINDING_SITES may be.  A module-level name of src/g2orbits/ that
starts with one underscore must be read somewhere under src/, tests/,
demos/ or perfbench/, so that a helper a simplification leaves behind
cannot stay.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "g2orbits"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))
READERS = ("src", "tests", "demos", "perfbench")


#: The marked imports under src/: binding sites kept only because
#: perfbench's tracer self-test wraps them (ROADMAP item 2(a) frees them).
TRACER_BINDING_SITES = {
    "orbits.expm",
    "orbits.orthonormalize",
    "classify.mean_curvature",
    "classify.orbit_frame",
    "classify.shape_norm_sq",
}


def bound_imports(source: str, marked: bool) -> dict[str, int]:
    """Name -> line of each name an import of ``source`` binds, on lines
    marked ``# noqa: F401`` or on the others, past ``from __future__``."""
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if ("# noqa: F401" in lines[alias.lineno - 1]) == marked:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    """Names bound by an import of ``source`` and never read, except on
    lines marked ``# noqa: F401`` and in ``from __future__`` imports."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    imported = bound_imports(source, marked=False)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_detects_a_marked_import():
    source = "import os  # noqa: F401\nfrom math import pi, tau  # noqa: F401\nimport sys\n"
    assert bound_imports(source, marked=True) == {"os": 1, "pi": 2, "tau": 2}


def test_only_the_tracer_binding_sites_are_marked():
    # A new marked import fails here until it is named, so unused imports
    # cannot pile up behind the marker.
    marked = {
        f"{module.stem}.{name}"
        for module in PACKAGE.glob("*.py")
        for name in bound_imports(module.read_text(), marked=True)
    }
    assert marked == TRACER_BINDING_SITES


def private_definitions(source: str) -> list[str]:
    """Module-level names of ``source`` that start with one underscore:
    functions, classes and assignment targets."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Every name ``source`` reads, bare (``x``) or as an attribute (``m.x``)."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def test_detects_an_unread_private_name():
    source = "_A = 1\n_B = 2\n__all__ = []\n\ndef _f():\n    return _A\n\nclass _C:\n    pass\n"
    assert private_definitions(source) == ["_A", "_B", "_f", "_C"]
    unread = [n for n in private_definitions(source) if n not in names_read(source + "m._C\n")]
    assert unread == ["_B", "_f"]


def test_every_private_name_is_read():
    reads = set().union(
        *(names_read(p.read_text()) for d in READERS for p in (ROOT / d).rglob("*.py"))
    )
    unread = [
        f"{module.name}: {name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in private_definitions(module.read_text())
        if name not in reads
    ]
    assert unread == []
