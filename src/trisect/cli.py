"""Command line front end.

Each verb reads one JSON diagram document (see trisect.document) and
builds one payload, a dict: --json prints it, and the text form is
formatted from it alone.  main is the only caller that prints or picks
an exit code.

Exit codes: 0 success (including negative verdicts), 1 invalid diagram,
2 unreadable or malformed input, unwritable output, or usage errors.  The
answers on a valid document always print, however long their integers.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

# Only document, diagram and lattice load with this module: main reads
# the document and handles their errors.  Each verb imports what else it
# uses, so that one call loads no module its verb does not need.
from .diagram import (
    EXPONENT_CORE_MISMATCH,
    ExponentCoreMismatchError,
    Genus2Diagram,
    InvalidDiagramError,
    _rotations,
    intersection_invariant,
    theorem_hypotheses,
)
from .document import (
    DocumentError,
    _as_int,
    _document_json,
    load_document,
    parse_document,  # unused here: perfbench/ imports it from trisect.cli
    serialize_document,
    torus_of,
    write_document,
)
from .lattice import NonPrimitiveError, ZeroVectorError


class _RefusedError(ValueError):
    """A valid diagram that the verb cannot act on as asked; main exits 1."""


def _fmt_triple(t) -> str:
    return "(" + ", ".join(str(c) for c in t) + ")"


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_validate(d, args) -> dict:
    try:
        torus_of(d)
        errors = []
    except InvalidDiagramError as e:
        errors = e.errors
    except ExponentCoreMismatchError:
        errors = [EXPONENT_CORE_MISMATCH]
    return {"ok": not errors, "errors": errors}


def text_validate(payload: dict, args) -> str:
    return "\n".join(payload["errors"]) or "ok"


def cmd_invariant(d, args) -> dict:
    return {"invariant": list(intersection_invariant(torus_of(d)))}


def text_invariant(payload: dict, args) -> str:
    return f"I = {_fmt_triple(payload['invariant'])}"


def cmd_move(d, args) -> dict:
    from .moves import WordError, parse_word, word_to_diagram

    word = parse_word(args.word)
    # Refuse what every other verb refuses, even for an empty word.
    torus_of(d)
    try:
        moved = word_to_diagram(d, word)
    except WordError as e:
        # The word parsed, so this is a D1 token on a torus document.
        raise _RefusedError(str(e)) from None
    if not args.out:
        return {"word": list(word), "diagram": serialize_document(moved)}
    # main lifts the int/str digit limit for the answers, but the file is
    # read back under it.
    write_document(args.out, moved, args.digit_limit)
    return {"word": list(word), "out": args.out}


def text_move(payload: dict, args) -> str:
    return f"wrote {payload['out']}" if "out" in payload else _document_json(payload["diagram"])


def cmd_six_tuple(d, args) -> dict:
    from .vertical import six_tuple

    return {"tuple": {name: str(l) for name, l in six_tuple(torus_of(d)).slots()}}


def text_six_tuple(payload: dict, args) -> str:
    cells = [f"{name}={l}" for name, l in payload["tuple"].items()]
    rows = (cells[:3], cells[3:])
    widths = [max(len(top), len(bottom)) for top, bottom in zip(*rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows)


def cmd_classify(d, args) -> dict:
    from .vertical import classify, six_tuple

    match = classify(six_tuple(torus_of(d)), oriented=args.oriented)
    if match is None:
        return {"family": None}
    return {k: getattr(match, k) for k in ("family", "q", "epsilon", "rotations", "reflected")}


def text_classify(payload: dict, args) -> str:
    if payload["family"] is None:
        return "no family match"
    parts = [f"family {payload['family']}"]
    if payload["q"] is not None:
        parts.append(f"q={payload['q']}")
    if payload["epsilon"] is not None:
        parts.append(f"epsilon={'+1' if payload['epsilon'] == 1 else '-1'}")
    where = f"(rotations={payload['rotations']}, reflected={_yes_no(payload['reflected'])})"
    return ", ".join(parts) + " " + where


def cmd_check_theorem(d, args) -> dict:
    d = torus_of(d)
    report = theorem_hypotheses(d)
    # The rows I(V), I(s2 V), I(s2^2 V), as diagram._rotations proves them.
    rows = _rotations(intersection_invariant(d))
    certified = report.all_hold and len(set(rows)) == 3
    if certified:
        verdict = "three pairwise-inequivalent diagrams certified"
    elif report.all_hold:
        verdict = "hypotheses hold but the invariant does not separate the rotations"
    else:
        verdict = "hypotheses not met: " + "; ".join(report.failures())
    # rotations_inequivalent in closed form: I(V) != (0, 0, 0).
    inequivalent = rows[0] != (0, 0, 0)
    if inequivalent:
        reason = None
    elif report.monodromy_nontrivial:
        reason = "all classes are \u00b1core"
    else:
        reason = "identity monodromy"
    return {
        "hypotheses": {name: getattr(report, name) for name in report._fields},
        "invariants": [list(row) for row in rows],
        "certified": certified,
        "verdict": verdict,
        "rotations_inequivalent": inequivalent,
        "reason": reason,
    }


def text_check_theorem(payload: dict, args) -> str:
    h = payload["hypotheses"]
    rows = payload["invariants"]
    lines = [
        f"monodromy nontrivial: {_yes_no(h['monodromy_nontrivial'])}",
        f"b2 independent of c2: {_yes_no(h['b2_c2_independent'])}",
        f"a2 independent of mu^-1(c2): {_yes_no(h['a2_pulled_c2_independent'])}",
        f"I(V)      = {_fmt_triple(rows[0])}",
        f"I(s2 V)   = {_fmt_triple(rows[1])}",
        f"I(s2^2 V) = {_fmt_triple(rows[2])}",
    ]
    if all(h.values()) and not payload["certified"]:
        # The tie locus: I(V) has three equal entries, none of them 0, so
        # rotations_inequivalent holds.
        lines.append("rotations: pairwise inequivalent, though I(V) does not separate them")
    lines.append(f"verdict: {payload['verdict']}")
    return "\n".join(lines)


def cmd_orbit(d, args) -> dict:
    from .moves import _check_depth, orbit

    # An argument error comes before the projection can refuse the document.
    _check_depth(args.depth)
    # On a genus-2 document the orbit includes the outer rotations.
    graph = orbit(torus_of(d), args.depth, include_sigma1=isinstance(d, Genus2Diagram))
    return {
        "nodes": [
            {
                "index": n.index,
                "invariant": list(n.invariant),
                "diagram": serialize_document(n.diagram),
            }
            for n in graph.nodes
        ],
        "edges": [list(e) for e in graph.edges],
    }


def _fmt_node_diagram(doc: dict) -> str:
    # doc is a serialized torus document.
    parts = [f"{k}={_fmt_triple(doc[k])}" for k in ("a2", "b2", "c2")]
    mono = doc["monodromy"]
    if mono["type"] == "identity":
        parts.append("mu=id")
    else:
        parts += [f"core={_fmt_triple(mono['core'])}", f"k={mono['exponent']}"]
    parts.append(f"s={'+1' if doc['sign'] == 1 else '-1'}")
    return " ".join(parts)


def text_orbit(payload: dict, args) -> str:
    nodes, edges = payload["nodes"], payload["edges"]
    if args.format == "dot":
        lines = ["digraph orbit {"]
        lines += (f'  n{n["index"]} [label="I={_fmt_triple(n["invariant"])}"];' for n in nodes)
        lines += (f'  n{src} -> n{dst} [label="{token}"];' for src, token, dst in edges)
        lines.append("}")
    else:
        lines = [
            f"node {n['index']}: {_fmt_node_diagram(n['diagram'])} I={_fmt_triple(n['invariant'])}"
            for n in nodes
        ]
        lines += (f"edge {src} -{token}-> {dst}" for src, token, dst in edges)
    return "\n".join(lines)


def cmd_lens(args) -> dict:
    from .vertical import LensSpace, lens_equiv

    left = LensSpace.from_pq(args.p, args.q)
    right = LensSpace.from_pq(args.p2, args.q2)
    eq = lens_equiv(left, right, oriented=args.oriented)
    return {"equivalent": eq, "left": str(left), "right": str(right), "oriented": args.oriented}


def text_lens(payload: dict, args) -> str:
    return "equivalent" if payload["equivalent"] else "not equivalent"


def _text(text: str, name: str) -> str:
    return text


def _output_format(text: str, name: str) -> str:
    if text not in ("text", "dot"):
        raise DocumentError(f"{name}: expected text or dot, got {text!r}")
    return text


# The default of an option that must be given.
_REQUIRED = object()

# The command line: verb -> (builder, formatter, help, arguments).  The
# builder takes the document main read from "path" (cmd_lens has none)
# and the arguments, to which main adds digit_limit, the int/str digit
# limit the input was read under, and returns the payload that --json
# prints.  The formatter turns that payload, as --json prints it, into the
# text output without its final newline; only text_orbit reads the
# arguments.  The arguments map each name, in usage order, to (help,
# converter, default).
# A name without dashes is a positional.  A converter of None makes a
# flag, which is False unless given; any other converter reads the text
# of the value and raises DocumentError on a bad one.  An option whose
# default is _REQUIRED must be given.  --depth and the lens arguments are
# read by _as_int, the rule that integer entries of documents follow.
_PATH = {"path": ("JSON diagram document", _text, None)}
_ORIENTED = {"--oriented": ("compare lens spaces with orientation", None, False)}
_JSON = {"--json": ("machine-readable output", None, False)}
_DOC = {**_PATH, **_JSON}
VERBS = {
    "validate": (cmd_validate, text_validate, "check the diagram invariants", _DOC),
    "invariant": (cmd_invariant, text_invariant, "print the intersection invariant triple", _DOC),
    "move": (
        cmd_move,
        text_move,
        "apply a move word and write the result",
        {
            **_PATH,
            "--word": ("comma-separated tokens D1, D1', D2, D2'", _text, _REQUIRED),
            "--out": ("output path (default: print the document)", _text, None),
            **_JSON,
        },
    ),
    "six-tuple": (cmd_six_tuple, text_six_tuple, "print the six vertical pieces", _DOC),
    "classify": (
        cmd_classify,
        text_classify,
        "match the six vertical pieces against the families",
        {**_PATH, **_ORIENTED, **_JSON},
    ),
    "check-theorem": (
        cmd_check_theorem, text_check_theorem, "evaluate the certification hypotheses", _DOC
    ),
    "orbit": (
        cmd_orbit,
        text_orbit,
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
        text_lens,
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
    _, convert, _ = VERBS[verb][3][name]
    try:
        return convert(text, name)
    except DocumentError as e:
        raise _UsageError(str(e), verb) from None


def _parse_args(argv: list) -> tuple:
    """(verb, arguments) for one command line; raises _UsageError.

    One pass over argv.  Options may come before, between or after the
    positionals, and take their value as "--name value" or "--name=value";
    a repeated option keeps its last value.  After "--" every token is a
    positional.  -h or --help gives arguments None, and a verb of None
    for the top-level help.
    """
    if not argv:
        raise _UsageError(f"missing verb (choose from {', '.join(VERBS)})")
    verb = argv[0]
    if verb in ("-h", "--help"):
        return None, None
    if verb not in VERBS:
        raise _UsageError(f"unknown verb {verb!r} (choose from {', '.join(VERBS)})")
    arguments = VERBS[verb][3]
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
            return verb, None
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
    return verb, SimpleNamespace(**values)


def _usage(verb: str | None) -> str:
    if verb is None:
        return "usage: trisect <verb> [arguments]"
    words = ["usage: trisect", verb]
    for name, (_, convert, default) in VERBS[verb][3].items():
        if name[0] != "-":
            words.append(name)
        elif convert is None:
            words.append(f"[{name}]")
        else:
            word = f"{name} {name[2:].upper()}"
            words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(verb: str | None) -> str:
    if verb is None:
        lines = [
            _usage(None),
            "",
            "Exact homology-level computations on simplified genus-2 trisection diagrams.",
            "",
            "verbs:",
            *(f"  {name:<14} {text}" for name, (_, _, text, _) in VERBS.items()),
            "",
            "trisect <verb> --help describes the arguments of one verb.",
        ]
    else:
        _, _, text, arguments = VERBS[verb]
        lines = [_usage(verb), "", text, ""]
        lines += (f"  {name:<11} {about}" for name, (about, _, _) in arguments.items())
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        verb, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as e:
        print(_usage(e.verb), file=sys.stderr)
        print(f"trisect{'' if e.verb is None else ' ' + e.verb}: error: {e}", file=sys.stderr)
        return 2
    if args is None:
        print(_help(verb))
        return 0
    build, fmt, _, arguments = VERBS[verb]
    limit = args.digit_limit = sys.get_int_max_str_digits()
    try:
        doc = load_document(args.path) if "path" in arguments else None
        # The input was read under the int/str digit limit, but the answers
        # on a valid document can be longer: a pairing multiplies two
        # entries.  They are built and printed without the limit.
        sys.set_int_max_str_digits(0)
        payload = build(args) if doc is None else build(doc, args)
        print(json.dumps(payload, indent=2) if args.json else fmt(payload, args))
        return 1 if verb == "validate" and not payload["ok"] else 0
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvalidDiagramError as e:
        for code in e.errors:
            print(code, file=sys.stderr)
        return 1
    except (ExponentCoreMismatchError, NonPrimitiveError, _RefusedError, ZeroVectorError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # Bad argument values that are not diagram defects (a negative
        # orbit depth, an unknown move token, p and q of no lens space) are
        # usage errors.
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
