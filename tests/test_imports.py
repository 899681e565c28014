"""Start-up guard for the package's import graph.

A single CLI call spends most of its time importing, so the package may
import only its own modules and the standard-library modules below.  A
new import, even one inside a function, fails this test until it is
added here on purpose.
"""

import ast
from pathlib import Path

import trisect
from test_cli import run_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trisect"
STDLIB = {"__future__", "json", "math", "sys", "types"}
# (file, enclosing class and function names, module) of each import allowed
# beyond those.  dataclasses loads inspect, ast and dis, so no module imports
# it at module level.  The one import of it runs in the descriptor that makes
# SixTuple's and OrbitGraph's field table, which only dataclasses itself
# reads: by then the caller has loaded it, and the import costs nothing.
ALLOWED = {("diagram.py", "_FieldTable.__get__", "dataclasses")}


def _imported_modules(tree, siblings, where=()):
    # (enclosing class and function names, module, is_sibling) for every
    # import statement anywhere in tree, in source order.
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imported_modules(node, siblings, (*where, node.name))
            continue
        scope = ".".join(where)
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield scope, alias.name, top == "trisect"
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                top = node.module.split(".")[0]
                yield scope, node.module, top == "trisect"
            elif node.level == 1 and node.module is None:
                for alias in node.names:
                    yield scope, "." + alias.name, alias.name in siblings
            else:
                yield scope, "." * node.level + node.module, (
                    node.level == 1 and node.module.split(".")[0] in siblings
                )
        yield from _imported_modules(node, siblings, where)


def _outside_imports(sources):
    # (file, scope, module) of every import in the {file name: source} map
    # that is neither a sibling nor in STDLIB.
    siblings = {Path(name).stem for name in sources}
    outside = set()
    for name, source in sources.items():
        tree = ast.parse(source, filename=name)
        for scope, module, is_sibling in _imported_modules(tree, siblings):
            if not is_sibling and module not in STDLIB:
                outside.add((name, scope, module))
    return outside


def _package_sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_package_imports_only_siblings_and_known_stdlib():
    sources = _package_sources()
    modules = {"cli", "diagram", "document", "lattice", "moves", "vertical"}
    assert {f"{name}.py" for name in modules} <= set(sources)
    assert _outside_imports(sources) == ALLOWED


def test_import_guard_catches_new_imports():
    siblings = {"cli", "lattice"}
    source = (
        "import math\n"
        "from .lattice import pair2\n"
        "from . import cli\n"
        "import inspect\n"
        "class A:\n"
        "    def f(self):\n"
        "        from fractions import Fraction\n"
        "from ..other import x\n"
        "from . import nothere\n"
    )
    found = list(_imported_modules(ast.parse(source), siblings))
    assert found == [
        ("", "math", False),
        ("", ".lattice", True),
        ("", ".cli", True),
        ("", "inspect", False),
        ("A.f", "fractions", False),
        ("", "..other", False),
        ("", ".nothere", False),
    ]
    # A module-level dataclasses import is flagged, though the one inside
    # the field-table descriptor is allowed.
    sources = _package_sources()
    sources["vertical.py"] = "import dataclasses\n" + sources["vertical.py"]
    assert _outside_imports(sources) - ALLOWED == {("vertical.py", "", "dataclasses")}


# (file, name) of each name a module imports only to pass it on: perfbench/
# imports parse_document from trisect.cli, and trisect.document hands the
# CLI diagram.torus_of.
REEXPORTS = {("cli.py", "parse_document"), ("document.py", "torus_of")}


def _unused_imports(sources):
    # (file, name) of every name an import statement binds in a module of
    # the {file name: source} map and the module never reads.
    unused = set()
    for name, source in sources.items():
        tree = ast.parse(source, filename=name)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unused.update((name, n) for n in bound - read)
    return unused


def test_every_import_is_used():
    assert _unused_imports(_package_sources()) == REEXPORTS


def test_unused_import_guard_catches_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "import math as m\n"
        "from .diagram import _marked_torus, require_valid_torus as rv\n"
        "def f(d) -> Vec2:\n"
        "    return json.dumps(rv(d)), m.gcd(1, 2)\n"
    )
    assert _unused_imports({"x.py": source}) == {("x.py", "os"), ("x.py", "_marked_torus")}
    # An import a module no longer needs is flagged, in any scope.
    sources = _package_sources()
    sources["moves.py"] = "from .diagram import _marked_genus2\n" + sources["moves.py"]
    sources["vertical.py"] = sources["vertical.py"].replace(
        "\ndef ", "\ndef _helper():\n    from .lattice import pair4 as unread\n\ndef ", 1
    )
    assert _unused_imports(sources) - REEXPORTS == {
        ("moves.py", "_marked_genus2"), ("vertical.py", "unread"),
    }


# A public function stays in the package when a module calls it, when the
# acceptance suite or perfbench/ imports it, or when README "Library" names
# the paper question it answers.  These are the last kind, each with the
# phrase of that section that names it.
LIBRARY = {
    "reflect": "`reflect` and `rotate` are its symmetries",
    "rotate": "`reflect` and `rotate` are its symmetries",
    "rotations_inequivalent": "which `rotations_inequivalent` in `trisect.diagram` returns",
}


def _unread_functions(sources, public):
    # Names in public of the functions defined at the top level of a module
    # of the {file name: source} map that no module of the map reads.
    defined, read = set(), set()
    for name, source in sources.items():
        tree = ast.parse(source, filename=name)
        defined.update(node.name for node in tree.body if isinstance(node, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return (defined & set(public)) - read


def _trisect_imports(paths):
    # Every name that a from-trisect import binds in the files.
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trisect":
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_has_a_user():
    importers = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    imported = _trisect_imports(importers)
    sources = _package_sources()
    # Exactly the LIBRARY functions have no other user, so the set holds no
    # name a module or an importer already keeps.
    assert _unread_functions(sources, trisect.__all__) - imported == set(LIBRARY)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = " ".join(readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0].split())
    for name, phrase in LIBRARY.items():
        assert phrase in library, name
    # An exported function that nothing reads is flagged; a read of it in
    # any module, or as an attribute, keeps it.
    sources["lattice.py"] += "\n\ndef orphan(v):\n    return v\n"
    public = [*trisect.__all__, "orphan"]
    assert _unread_functions(sources, public) - imported == {*LIBRARY, "orphan"}
    for use in ("orphan((1, 0))", "lattice.orphan"):
        used = {**sources, "cli.py": sources["cli.py"] + f"\n\ndef _user():\n    return {use}\n"}
        assert _unread_functions(used, public) - imported == set(LIBRARY)


def _argument_rules(tree):
    # Every raise of ZeroVectorError or NonPrimitiveError, by name or as an
    # attribute, and every spelling of the flag rule, "x is not True and x
    # is not False".
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name in ("ZeroVectorError", "NonPrimitiveError"):
                yield name
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            tested = {
                (ast.unparse(v.left), v.comparators[0].value)
                for v in node.values
                if isinstance(v, ast.Compare) and [type(op) for op in v.ops] == [ast.IsNot]
                and isinstance(v.comparators[0], ast.Constant)
            }
            for x, value in tested:
                if value is True and (x, False) in tested:
                    yield f"{x} is not True and {x} is not False"


def test_argument_rules_live_in_lattice():
    # lattice.py states the primitive-class rule (_require_class) and the
    # flag rule (_require_bool); every other module calls them.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "lattice.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found.update((path.name, rule) for rule in _argument_rules(tree))
    assert found == set()
    source = (
        "def f(v, flag):\n"
        "    if not any(v):\n"
        "        raise lattice.ZeroVectorError('meridian class is zero')\n"
        "    if flag is not True and flag is not False:\n"
        "        raise TypeError(flag)\n"
        "    if v is not None and v is not True:\n"
        "        raise NonPrimitiveError\n"
    )
    assert sorted(_argument_rules(ast.parse(source))) == [
        "NonPrimitiveError", "ZeroVectorError", "flag is not True and flag is not False",
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


# The validity rules of diagram.py; cli.py reaches them through torus_of,
# which diagram.py defines and document.py passes on.
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
    # trisect.document reads and writes documents and passes on the one
    # validity rule, diagram.torus_of; cli.py decides neither itself.
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


def _code_generators(tree, where=()):
    # (enclosing class and function names, callee) for every call of exec,
    # eval or compile, by name or as an attribute.
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _code_generators(node, (*where, node.name))
            continue
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("exec", "eval", "compile"):
                yield ".".join(where), name
        yield from _code_generators(node, where)


def test_only_the_value_base_generates_code():
    # _Value.__init_subclass__ writes each value class's constructors; no
    # other code in the package compiles or runs source text.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update((path.name, *call) for call in _code_generators(tree))
    assert found == {
        ("diagram.py", "_Value.__init_subclass__", "exec"),
        ("diagram.py", "_Value.__init_subclass__", "compile"),
    }
    source = (
        "x = eval('1')\n"
        "class A:\n"
        "    def f(self):\n"
        "        exec(compile('', '<f>', 'exec'))\n"
        "        def g():\n"
        "            return re.compile('a'), builtins.eval\n"
    )
    assert sorted(_code_generators(ast.parse(source))) == [
        ("", "eval"), ("A.f", "compile"), ("A.f", "exec"), ("A.f.g", "compile"),
    ]


# Lists the compile calls of one CLI call by the file name each gets, with
# the functions each compiled source defines, leaving out the import
# system's compiles of modules without bytecode.
_COUNT_COMPILES = """
import builtins, contextlib, io, sys
compiled = []
real = builtins.compile
def counting(source, filename, *args, **kwargs):
    if str(filename).startswith("<"):
        compiled.append((filename, source))
    return real(source, filename, *args, **kwargs)
builtins.compile = counting
from trisect.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
builtins.compile = real
import ast
for filename, source in compiled:
    defs = [n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)]
    print(filename, *defs)
sys.exit(status)
"""

_DIAGRAM_CLASSES = ["Genus2Diagram", "HypothesisReport", "Monodromy", "TorusDiagram"]
# The classes with a validity mark, which also get _build_marked.
_MARKED = ("Genus2Diagram", "TorusDiagram")


def test_each_value_class_compiles_once_per_cli_call():
    # Start-up pays one compile per value class the verb loads, with the
    # marked builder of the diagram classes in the same call: 4 for the
    # verbs that load diagram.py alone, 7 for those that also load
    # moves.py or vertical.py.  Each source defines the constructors
    # alone; == and hash are ordinary methods of the base.
    fixture = str(PACKAGE.parent.parent / "fixtures" / "family3.json")
    moves = sorted(_DIAGRAM_CLASSES + ["EquivalenceWitness", "OrbitGraph", "OrbitNode"])
    vertical = sorted(_DIAGRAM_CLASSES + ["FamilyMatch", "LensSpace", "SixTuple"])
    calls = {
        ("--help",): _DIAGRAM_CLASSES,
        ("validate", fixture): _DIAGRAM_CLASSES,
        ("invariant", fixture): _DIAGRAM_CLASSES,
        ("check-theorem", fixture): _DIAGRAM_CLASSES,
        ("move", fixture, "--word", "D2"): moves,
        ("orbit", fixture, "--depth", "1"): moves,
        ("six-tuple", fixture): vertical,
        ("classify", fixture): vertical,
        ("lens", "9", "4", "9", "2"): vertical,
    }
    for argv, classes in calls.items():
        proc = run_python(_COUNT_COMPILES, *argv)
        assert proc.returncode == 0, proc.stderr
        assert sorted(proc.stdout.split("\n")[:-1]) == [
            f"<{name} generated methods> _build" + (" _build_marked" if name in _MARKED else "")
            for name in classes
        ], argv
