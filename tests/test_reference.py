"""Tests for the split between the production tables and their checks.

The protocol modules read every table off qubit-pair marginals, and
``qrgames.reference`` holds the dense paths that check them.  These
tests read the import statements, so a dense primitive that slips back
into a production module, or a reference path that starts leaning on
the code it checks, fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qrgames
from qrgames import reference, repeated10

SOURCE = Path(qrgames.__file__).parent
# The qstate names that build, measure or read whole registers.
DENSE = {
    "apply_flips",
    "measure_pair",
    "expectation",
    "Ensemble",
    "DiagonalObservable",
    "FlipLayer",
}
# The modules whose tables the reference paths check, and their callers.
CHECKED = {"repeated10", "iqbaltoor", "mw", "equilibria", "claims", "cli"}
PRODUCTION = ("mw", "iqbaltoor", "repeated10", "equilibria", "stagegames")


def imports(source: str) -> list[tuple[str, tuple[str, ...]]]:
    """Every ``(qrgames submodule, names taken from it)`` that a module's
    source imports, at any depth (a ``TYPE_CHECKING`` block, a function
    body).  A whole-module import takes no names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qrgames."):
                    found.append((alias.name.split(".")[1], ()))
        elif isinstance(node, ast.ImportFrom):
            names = tuple(alias.name for alias in node.names)
            if node.module is None or (node.level == 0 and node.module == "qrgames"):
                found.extend((name, ()) for name in names)
            elif node.level == 1 or node.module.startswith("qrgames."):
                found.append((node.module.split(".")[-1], names))
    return found


def imports_of(module: str) -> list[tuple[str, tuple[str, ...]]]:
    return imports((SOURCE / f"{module}.py").read_text())


def test_imports_sees_every_spelling_of_a_package_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from . import mw\n"
        "from qrgames import cli\n"
        "import qrgames.claims\n"
        "from qrgames.qstate import measure_pair\n"
        "if TYPE_CHECKING:\n"
        "    from .repeated10 import RepGame\n"
        "def late():\n"
        "    from .iqbaltoor import ITGame\n"
    )
    assert imports(source) == [
        ("mw", ()),
        ("cli", ()),
        ("claims", ()),
        ("qstate", ("measure_pair",)),
        ("repeated10", ("RepGame",)),
        ("iqbaltoor", ("ITGame",)),
    ]


def test_reference_imports_only_the_state_core_and_the_stage_games():
    modules = {module for module, _ in imports_of("reference")}
    assert modules & CHECKED == set()
    assert modules == {"qstate", "stagegames"}


def test_production_modules_take_no_dense_primitive_and_no_reference_path():
    for module in PRODUCTION:
        found = imports_of(module)
        assert ("qstate", ()) not in found, module
        from_qstate = [names for source, names in found if source == "qstate"]
        assert set().union(*from_qstate).isdisjoint(DENSE), module
        from_reference = [names for source, names in found if source == "reference"]
        expected = [("play_sequential",)] if module == "repeated10" else []
        assert from_reference == expected, module


def test_every_public_name_resolves():
    assert len(set(qrgames.__all__)) == len(qrgames.__all__)
    assert [name for name in qrgames.__all__ if not hasattr(qrgames, name)] == []
    # The object the benchmark's tracer looks up as repeated10.play_sequential.
    assert repeated10.play_sequential is reference.play_sequential
    assert qrgames.play_sequential is reference.play_sequential
