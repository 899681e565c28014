"""Start-up guard for the package's import graph.

A single CLI call spends most of its time importing, so the package may
import only its own modules and the standard-library modules below.  A
new import, even one inside a function, fails this test until it is
added here on purpose.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trisect"
STDLIB = {"__future__", "json", "math", "sys", "types"}
# dataclasses loads inspect, ast and dis, so only the modules whose classes
# perfbench/test_oracles.py alters with dataclasses.replace may import it:
# OrbitGraph in moves and SixTuple in vertical.
ALLOWED = {("moves.py", "dataclasses"), ("vertical.py", "dataclasses")}


def _imported_modules(tree, siblings):
    # (module, is_sibling) for every import statement anywhere in tree.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield alias.name, top == "trisect"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                top = node.module.split(".")[0]
                yield node.module, top == "trisect"
            elif node.level == 1 and node.module is None:
                for alias in node.names:
                    yield "." + alias.name, alias.name in siblings
            else:
                yield "." * node.level + node.module, (
                    node.level == 1 and node.module.split(".")[0] in siblings
                )


def test_package_imports_only_siblings_and_known_stdlib():
    files = sorted(PACKAGE.glob("*.py"))
    siblings = {p.stem for p in files}
    assert {"cli", "diagram", "document", "lattice", "moves", "vertical"} <= siblings
    outside = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, is_sibling in _imported_modules(tree, siblings):
            if not is_sibling and module not in STDLIB:
                outside.add((path.name, module))
    assert outside - ALLOWED == set()


def test_import_guard_catches_new_imports():
    siblings = {"cli", "lattice"}
    source = (
        "import math\n"
        "from .lattice import pair2\n"
        "from . import cli\n"
        "import inspect\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "from ..other import x\n"
        "from . import nothere\n"
    )
    found = list(_imported_modules(ast.parse(source), siblings))
    assert found == [
        ("math", False),
        (".lattice", True),
        (".cli", True),
        ("inspect", False),
        ("..other", False),
        (".nothere", False),
        ("fractions", False),
    ]


def _mark_uses(tree):
    # Every use of the validity mark's name and every __setattr__ access.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("_valid", "__setattr__"):
            yield node.attr
        elif isinstance(node, ast.Name) and node.id == "_valid":
            yield node.id
        elif isinstance(node, ast.Constant) and node.value == "_valid":
            yield repr(node.value)
        elif isinstance(node, ast.alias) and node.name == "_valid":
            yield node.name


def test_only_diagram_touches_the_validity_mark():
    # diagram.py decides when a diagram counts as validated; every other
    # module goes through its helpers.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "diagram.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found.update((path.name, use) for use in _mark_uses(tree))
    assert found == set()
    source = (
        "from .diagram import require_valid_torus, _valid\n"
        "def f(d, out):\n"
        "    object.__setattr__(out, '_valid', True)\n"
        "    return d._valid or require_valid_torus(d)\n"
    )
    assert sorted(_mark_uses(ast.parse(source))) == ["'_valid'", "__setattr__", "_valid", "_valid"]


# The validity rules of diagram.py; cli.py reaches them through torus_of.
_VALIDITY = {
    "validate_torus", "validate_genus2", "surgery_project", "require_valid_torus",
    "require_valid_genus2",
}


def _gate_bypasses(tree):
    # Every use of a validity rule's name, and every call of open() or of
    # json.load, json.loads or a method named open.
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _VALIDITY:
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr in _VALIDITY:
            yield node.attr
        elif isinstance(node, ast.alias) and node.name in _VALIDITY:
            yield node.name
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "open":
                yield "open"
            elif isinstance(f, ast.Attribute) and (
                f.attr == "open"
                or (f.attr in ("load", "loads") and ast.unparse(f.value) == "json")
            ):
                yield ast.unparse(f)


def test_cli_reaches_documents_and_validity_only_through_document():
    # trisect.document reads and writes documents and holds the one
    # validity rule, torus_of; cli.py decides neither itself.
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(_gate_bypasses(tree)) == set()
    source = (
        "import json\n"
        "from .diagram import surgery_project, validate_torus as v\n"
        "def f(d, path):\n"
        "    with open(path) as fh, path.open() as g:\n"
        "        return json.load(fh), json.loads(g.read()), diagram.require_valid_genus2(d)\n"
    )
    assert sorted(_gate_bypasses(ast.parse(source))) == [
        "json.load", "json.loads", "open", "path.open", "require_valid_genus2", "surgery_project",
        "validate_torus",
    ]
