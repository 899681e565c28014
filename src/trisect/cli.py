"""Command line front end.

Diagrams travel as JSON documents.  Torus model:

    {"model": "torus", "a2": [1, 0], "b2": [0, 1], "c2": [1, 1],
     "monodromy": {"type": "twist", "core": [-1, 1], "exponent": 1},
     "sign": 1}

Genus-2 model: "model": "genus2", six length-4 classes a1..c2, and a
monodromy without a core field (the core is recovered by surgery).  The
identity monodromy is {"type": "identity"}.  Integer entries may be JSON
numbers or decimal strings, so values beyond 64 bits survive any writer.

A genus-2 document is valid when it passes the genus-2 checks and
surgery_project turns it into a valid torus diagram; every verb refuses
the others.

Exit codes: 0 success (including negative verdicts), 1 invalid diagram,
2 unreadable or malformed input, unwritable output, or usage errors.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

# Only diagram and lattice load with this module: parse_document and the
# error handling in main need them.  Each verb imports what else it uses,
# so that one call loads no module its verb does not need.
from .diagram import (
    EXPONENT_CORE_MISMATCH,
    ExponentCoreMismatchError,
    Genus2Diagram,
    InvalidDiagramError,
    Monodromy,
    TorusDiagram,
    intersection_invariant,
    require_valid_torus,
    surgery_project,
    theorem_hypotheses,
    validate_torus,
)
from .lattice import NonPrimitiveError, ZeroVectorError


class DocumentError(ValueError):
    """The JSON document could not be read or does not match the schema."""


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        # Only JSON whitespace: str.strip() would also take any Unicode
        # space and the C0 and C1 separators, as in "\x1c7".
        text = value.strip(" \t\r\n")
        digits = text[1:] if text[:1] in ("+", "-") else text
        shown = repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
        # Only ASCII [+-]?[0-9]+: int() alone also accepts underscores, as
        # in "1_0", and non-ASCII decimal digits such as fullwidth ones.
        if not (digits.isascii() and digits.isdigit()):
            raise DocumentError(f"{where}: {shown} is not a decimal integer")
        try:
            return int(text)
        except ValueError:
            # On ASCII digits int() fails only past the int/str digit limit.
            limit = sys.get_int_max_str_digits()
            raise DocumentError(
                f"{where}: {shown} exceeds the {limit}-digit integer-conversion limit"
            ) from None
    raise DocumentError(f"{where}: expected an integer, got {type(value).__name__}")


def _as_vec(value, n: int, where: str) -> tuple:
    if type(value) is list and len(value) == n:
        # Fast path for plain JSON integers; anything else is checked below.
        for c in value:
            if type(c) is not int:
                break
        else:
            return tuple(value)
    if not isinstance(value, list) or len(value) != n:
        raise DocumentError(f"{where}: expected a list of {n} integers")
    return tuple(_as_int(c, f"{where}[{i}]") for i, c in enumerate(value))


# The exact key sets of the schema.  A document whose key set matches is
# read without further key checks; any other key set goes to _check_keys,
# which names what is missing or unknown.
_TORUS_KEYS = frozenset(("model", "a2", "b2", "c2", "monodromy", "sign"))
_GENUS2_KEYS = frozenset(("model", "a1", "b1", "c1", "a2", "b2", "c2", "monodromy"))
_TWIST_CORE_KEYS = frozenset(("type", "core", "exponent"))
_TWIST_KEYS = frozenset(("type", "exponent"))
_IDENTITY_KEYS = frozenset(("type",))


def _check_keys(obj: dict, fields: frozenset, where: str):
    missing = fields - obj.keys()
    unknown = obj.keys() - fields
    if missing:
        raise DocumentError(f"{where}: missing fields {sorted(missing)}")
    if unknown:
        raise DocumentError(f"{where}: unknown fields {sorted(unknown)}")


def _parse_monodromy(obj, with_core: bool) -> tuple:
    # Returns (core or None, exponent).
    if not isinstance(obj, dict):
        raise DocumentError("monodromy: expected an object")
    kind = obj.get("type")
    if kind == "identity":
        if obj.keys() != _IDENTITY_KEYS:
            _check_keys(obj, _IDENTITY_KEYS, "monodromy")
        return (None, 0)
    if kind == "twist":
        fields = _TWIST_CORE_KEYS if with_core else _TWIST_KEYS
        if obj.keys() != fields:
            _check_keys(obj, fields, "monodromy")
        core = _as_vec(obj["core"], 2, "monodromy.core") if with_core else None
        return (core, _as_int(obj["exponent"], "monodromy.exponent"))
    raise DocumentError(f"monodromy.type: expected 'identity' or 'twist', got {kind!r}")


def parse_document(obj) -> TorusDiagram | Genus2Diagram:
    """Strict schema check; all violations raise DocumentError."""
    if not isinstance(obj, dict):
        raise DocumentError("document: expected a JSON object")
    model = obj.get("model")
    if model == "torus":
        if obj.keys() != _TORUS_KEYS:
            _check_keys(obj, _TORUS_KEYS, "document")
        # The monodromy is read first, so its errors come first.
        core, exponent = _parse_monodromy(obj["monodromy"], with_core=True)
        return TorusDiagram(
            _as_vec(obj["a2"], 2, "a2"),
            _as_vec(obj["b2"], 2, "b2"),
            _as_vec(obj["c2"], 2, "c2"),
            Monodromy(core, exponent),
            _as_int(obj["sign"], "sign"),
        )
    if model == "genus2":
        if obj.keys() != _GENUS2_KEYS:
            _check_keys(obj, _GENUS2_KEYS, "document")
        _core, exponent = _parse_monodromy(obj["monodromy"], with_core=False)
        return Genus2Diagram(
            _as_vec(obj["a1"], 4, "a1"),
            _as_vec(obj["b1"], 4, "b1"),
            _as_vec(obj["c1"], 4, "c1"),
            _as_vec(obj["a2"], 4, "a2"),
            _as_vec(obj["b2"], 4, "b2"),
            _as_vec(obj["c2"], 4, "c2"),
            exponent,
        )
    raise DocumentError(f"model: expected 'torus' or 'genus2', got {model!r}")


def load_document(path: str) -> TorusDiagram | Genus2Diagram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: invalid JSON ({e})") from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None
    return parse_document(obj)


def serialize_document(d: TorusDiagram | Genus2Diagram) -> dict:
    if isinstance(d, Genus2Diagram):
        mono = {"type": "identity"} if d.exponent == 0 else {"type": "twist", "exponent": d.exponent}
        return {
            "model": "genus2",
            "a1": list(d.a1),
            "b1": list(d.b1),
            "c1": list(d.c1),
            "a2": list(d.a2),
            "b2": list(d.b2),
            "c2": list(d.c2),
            "monodromy": mono,
        }
    if d.monodromy.is_identity:
        mono = {"type": "identity"}
    else:
        mono = {"type": "twist", "core": list(d.monodromy.core), "exponent": d.monodromy.exponent}
    return {
        "model": "torus",
        "a2": list(d.a2),
        "b2": list(d.b2),
        "c2": list(d.c2),
        "monodromy": mono,
        "sign": d.sign,
    }


def document_text(d) -> str:
    # One field per line with vectors inline; deterministic, so identical
    # diagrams always serialize to identical bytes.
    obj = serialize_document(d)
    items = list(obj.items())
    lines = ["{"]
    for i, (k, v) in enumerate(items):
        comma = "," if i < len(items) - 1 else ""
        lines.append(f'  "{k}": {json.dumps(v)}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _as_torus(d) -> TorusDiagram:
    """Commands on vertical pieces and invariants take either model."""
    if isinstance(d, Genus2Diagram):
        return surgery_project(d)
    return d


def _fmt_triple(t) -> str:
    return "(" + ", ".join(str(c) for c in t) + ")"


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _errors(d) -> list[str]:
    """Validation error codes; a genus-2 diagram must also project."""
    if not isinstance(d, Genus2Diagram):
        return validate_torus(d)
    try:
        surgery_project(d)
    except InvalidDiagramError as e:
        return e.errors
    except ExponentCoreMismatchError:
        return [EXPONENT_CORE_MISMATCH]
    return []


def cmd_validate(args) -> int:
    errors = _errors(load_document(args.path))
    if args.json:
        print(json.dumps({"ok": not errors, "errors": errors}, indent=2))
    else:
        if errors:
            for e in errors:
                print(e)
        else:
            print("ok")
    return 1 if errors else 0


def cmd_invariant(args) -> int:
    inv = intersection_invariant(_as_torus(load_document(args.path)))
    _emit(args, {"invariant": list(inv)}, f"I = {_fmt_triple(inv)}")
    return 0


def cmd_move(args) -> int:
    from .moves import WordError, parse_word, word_to_diagram, word_to_torus

    try:
        word = parse_word(args.word)
    except WordError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    d = load_document(args.path)
    # Refuse what every other verb refuses, even for an empty word.
    require_valid_torus(_as_torus(d))
    try:
        if isinstance(d, Genus2Diagram):
            moved = word_to_diagram(d, word)
        else:
            moved = word_to_torus(d, word)
    except WordError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    text = document_text(moved)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
        _emit(args, {"word": list(word), "out": args.out}, f"wrote {args.out}")
    else:
        if args.json:
            print(json.dumps({"word": list(word), "diagram": serialize_document(moved)}, indent=2))
        else:
            print(text, end="")
    return 0


def cmd_six_tuple(args) -> int:
    from .vertical import six_tuple

    t = six_tuple(_as_torus(load_document(args.path)))
    if args.json:
        print(json.dumps({"tuple": {name: str(l) for name, l in t.slots()}}, indent=2))
    else:
        rows = [[f"{name}={l}" for name, l in row] for row in
                (t.slots()[:3], t.slots()[3:])]
        widths = [max(len(rows[0][i]), len(rows[1][i])) for i in range(3)]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def cmd_classify(args) -> int:
    from .vertical import classify, six_tuple

    match = classify(six_tuple(_as_torus(load_document(args.path))), oriented=args.oriented)
    if args.json:
        payload = {"family": None}
        if match is not None:
            payload = {
                "family": match.family,
                "q": match.q,
                "epsilon": match.epsilon,
                "rotations": match.rotations,
                "reflected": match.reflected,
            }
        print(json.dumps(payload, indent=2))
    else:
        if match is None:
            print("no family match")
        else:
            parts = [f"family {match.family}"]
            if match.q is not None:
                parts.append(f"q={match.q}")
            if match.epsilon is not None:
                parts.append(f"epsilon={'+1' if match.epsilon == 1 else '-1'}")
            where = f"(rotations={match.rotations}, reflected={'yes' if match.reflected else 'no'})"
            print(", ".join(parts) + " " + where)
    return 0


def cmd_check_theorem(args) -> int:
    from .moves import apply_sigma2

    d = _as_torus(load_document(args.path))
    report = theorem_hypotheses(d)
    d1 = apply_sigma2(d)
    d2 = apply_sigma2(d1)
    triples = [intersection_invariant(x) for x in (d, d1, d2)]
    distinct = len(set(triples)) == 3
    certified = report.all_hold and distinct
    if certified:
        verdict = "three pairwise-inequivalent diagrams certified"
    elif report.all_hold:
        verdict = "hypotheses hold but the invariant does not separate the rotations"
    else:
        verdict = "hypotheses not met: " + "; ".join(report.failures())
    if args.json:
        print(
            json.dumps(
                {
                    "hypotheses": {
                        "monodromy_nontrivial": report.monodromy_nontrivial,
                        "b2_c2_independent": report.b2_c2_independent,
                        "a2_pulled_c2_independent": report.a2_pulled_c2_independent,
                    },
                    "invariants": [list(t) for t in triples],
                    "certified": certified,
                    "verdict": verdict,
                },
                indent=2,
            )
        )
    else:
        yn = lambda b: "yes" if b else "no"
        print(f"monodromy nontrivial: {yn(report.monodromy_nontrivial)}")
        print(f"b2 independent of c2: {yn(report.b2_c2_independent)}")
        print(f"a2 independent of mu^-1(c2): {yn(report.a2_pulled_c2_independent)}")
        print(f"I(V)      = {_fmt_triple(triples[0])}")
        print(f"I(s2 V)   = {_fmt_triple(triples[1])}")
        print(f"I(s2^2 V) = {_fmt_triple(triples[2])}")
        print(f"verdict: {verdict}")
    return 0


def _fmt_node_diagram(d: TorusDiagram) -> str:
    parts = [f"a2={_fmt_triple(d.a2)}", f"b2={_fmt_triple(d.b2)}", f"c2={_fmt_triple(d.c2)}"]
    if d.monodromy.is_identity:
        parts.append("mu=id")
    else:
        parts.append(f"core={_fmt_triple(d.monodromy.core)}")
        parts.append(f"k={d.monodromy.exponent}")
    parts.append(f"s={'+1' if d.sign == 1 else '-1'}")
    return " ".join(parts)


def cmd_orbit(args) -> int:
    from .moves import orbit

    d = load_document(args.path)
    if isinstance(d, Genus2Diagram):
        graph = orbit(surgery_project(d), args.depth, include_sigma1=True)
    else:
        graph = orbit(d, args.depth)
    if args.json:
        print(
            json.dumps(
                {
                    "nodes": [
                        {
                            "index": n.index,
                            "invariant": list(n.invariant),
                            "diagram": serialize_document(n.diagram),
                        }
                        for n in graph.nodes
                    ],
                    "edges": [list(e) for e in graph.edges],
                },
                indent=2,
            )
        )
        return 0
    if args.format == "dot":
        print("digraph orbit {")
        for n in graph.nodes:
            label = f"I={_fmt_triple(n.invariant)}"
            print(f'  n{n.index} [label="{label}"];')
        for src, token, dst in graph.edges:
            print(f'  n{src} -> n{dst} [label="{token}"];')
        print("}")
    else:
        for n in graph.nodes:
            print(f"node {n.index}: {_fmt_node_diagram(n.diagram)} I={_fmt_triple(n.invariant)}")
        for src, token, dst in graph.edges:
            print(f"edge {src} -{token}-> {dst}")
    return 0


def cmd_lens(args) -> int:
    from .vertical import LensSpace, lens_equiv

    try:
        left = LensSpace.from_pq(args.p, args.q)
        right = LensSpace.from_pq(args.p2, args.q2)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    eq = lens_equiv(left, right, oriented=args.oriented)
    _emit(
        args,
        {"equivalent": eq, "left": str(left), "right": str(right), "oriented": args.oriented},
        "equivalent" if eq else "not equivalent",
    )
    return 0


def _text(text: str, name: str) -> str:
    return text


def _output_format(text: str, name: str) -> str:
    if text not in ("text", "dot"):
        raise DocumentError(f"{name}: expected text or dot, got {text!r}")
    return text


# The default of an option that must be given.
_REQUIRED = object()

# The command line: verb -> (handler, help, arguments).  The arguments map
# each name, in usage order, to (help, converter, default).  A name without
# dashes is a positional.  A converter of None makes a flag, which is False
# unless given; any other converter reads the text of the value and raises
# DocumentError on a bad one.  An option whose default is _REQUIRED must be
# given.  --depth and the lens arguments are read by _as_int, the rule that
# integer entries of documents follow.
_PATH = {"path": ("JSON diagram document", _text, None)}
_ORIENTED = {"--oriented": ("compare lens spaces with orientation", None, False)}
_JSON = {"--json": ("machine-readable output", None, False)}
VERBS = {
    "validate": (cmd_validate, "check the diagram invariants", {**_PATH, **_JSON}),
    "invariant": (cmd_invariant, "print the intersection invariant triple", {**_PATH, **_JSON}),
    "move": (
        cmd_move,
        "apply a move word and write the result",
        {
            **_PATH,
            "--word": ("comma-separated tokens D1, D1', D2, D2'", _text, _REQUIRED),
            "--out": ("output path (default: print the document)", _text, None),
            **_JSON,
        },
    ),
    "six-tuple": (cmd_six_tuple, "print the six vertical pieces", {**_PATH, **_JSON}),
    "classify": (
        cmd_classify,
        "match the six vertical pieces against the families",
        {**_PATH, **_ORIENTED, **_JSON},
    ),
    "check-theorem": (
        cmd_check_theorem, "evaluate the certification hypotheses", {**_PATH, **_JSON}
    ),
    "orbit": (
        cmd_orbit,
        "move orbit of the diagram",
        {
            **_PATH,
            "--depth": ("number of move levels", _as_int, _REQUIRED),
            "--format": ("output format: text (default) or dot", _output_format, "text"),
            **_JSON,
        },
    ),
    "lens": (
        cmd_lens,
        "compare two lens spaces L(p,q) and L(p2,q2)",
        {
            "p": ("p of the first lens space L(p,q)", _as_int, None),
            "q": ("q of the first lens space L(p,q)", _as_int, None),
            "p2": ("p2 of the second lens space L(p2,q2)", _as_int, None),
            "q2": ("q2 of the second lens space L(p2,q2)", _as_int, None),
            **_ORIENTED,
            **_JSON,
        },
    ),
}


class _UsageError(Exception):
    """The command line does not match VERBS; main exits 2."""

    def __init__(self, message: str, verb: str | None = None):
        super().__init__(message)
        self.verb = verb


def _is_option(token: str) -> bool:
    # As in argparse, "-" alone and negative numbers such as "-5" are values.
    return token[:1] == "-" and token != "-" and not token[1:2].isdigit()


def _value(verb: str, name: str, text: str):
    _, convert, _ = VERBS[verb][2][name]
    try:
        return convert(text, name)
    except DocumentError as e:
        raise _UsageError(str(e), verb) from None


def _parse_args(argv: list) -> tuple:
    """(handler, arguments) for one command line; raises _UsageError.

    One pass over argv.  Options may come before, between or after the
    positionals, and take their value as "--name value" or "--name=value";
    a repeated option keeps its last value.  After "--" every token is a
    positional.  -h or --help gives the help handler.
    """
    if not argv:
        raise _UsageError(f"missing verb (choose from {', '.join(VERBS)})")
    verb = argv[0]
    if verb in ("-h", "--help"):
        return _print_help, None
    spec = VERBS.get(verb)
    if spec is None:
        raise _UsageError(f"unknown verb {verb!r} (choose from {', '.join(VERBS)})")
    handler, _, arguments = spec
    positionals = [name for name in arguments if name[0] != "-"]
    values = {name[2:]: default for name, (_, _, default) in arguments.items() if name[0] == "-"}
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_option(token):
            given.append(token)
        elif token == "--":
            given += tokens
        elif token in ("-h", "--help"):
            return _print_help, verb
        else:
            name, eq, text = token.partition("=")
            if name not in arguments:
                raise _UsageError(f"unknown option {token!r}", verb)
            if arguments[name][1] is None:
                if eq:
                    raise _UsageError(f"{name} takes no value, got {token!r}", verb)
                values[name[2:]] = True
            else:
                if not eq:
                    text = next(tokens, None)
                    if text is None or _is_option(text):
                        raise _UsageError(f"{name} expects a value", verb)
                values[name[2:]] = _value(verb, name, text)
    for name, value in values.items():
        if value is _REQUIRED:
            raise _UsageError(f"missing option --{name}", verb)
    if len(given) < len(positionals):
        raise _UsageError(f"missing argument {positionals[len(given)]}", verb)
    if len(given) > len(positionals):
        raise _UsageError(f"unexpected argument {given[len(positionals)]!r}", verb)
    for name, text in zip(positionals, given):
        values[name] = _value(verb, name, text)
    return handler, SimpleNamespace(**values)


def _usage(verb: str | None) -> str:
    if verb is None:
        return "usage: trisect <verb> [arguments]"
    words = ["usage: trisect", verb]
    for name, (_, convert, default) in VERBS[verb][2].items():
        if name[0] != "-":
            words.append(name)
        elif convert is None:
            words.append(f"[{name}]")
        else:
            word = f"{name} {name[2:].upper()}"
            words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _print_help(verb: str | None) -> int:
    if verb is None:
        lines = [
            _usage(None),
            "",
            "Exact homology-level computations on simplified genus-2 trisection diagrams.",
            "",
            "verbs:",
            *(f"  {name:<14} {text}" for name, (_, text, _) in VERBS.items()),
            "",
            "trisect <verb> --help describes the arguments of one verb.",
        ]
    else:
        _, text, arguments = VERBS[verb]
        lines = [_usage(verb), "", text, ""]
        lines += (f"  {name:<11} {about}" for name, (about, _, _) in arguments.items())
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    try:
        handler, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as e:
        print(_usage(e.verb), file=sys.stderr)
        print(f"trisect{'' if e.verb is None else ' ' + e.verb}: error: {e}", file=sys.stderr)
        return 2
    try:
        return handler(args)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvalidDiagramError as e:
        for code in e.errors:
            print(code, file=sys.stderr)
        return 1
    except (ExponentCoreMismatchError, NonPrimitiveError, ZeroVectorError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # Bad argument values that are not diagram defects (for example a
        # negative orbit depth) are usage errors.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
