"""What each workload's answers must be, and the checks that compare them.

Every check returns None when the answer is right and a short reason when
it is wrong.  The references are independent of the path being measured:
a genus-2 document must give the answers of the torus diagram it was
lifted from, a torus document those of the same diagram in another
basis, an orbit the canonical forms of the diagram's three inner
rotations, and a census round the known tallies of its box, whatever the
enumeration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from trisect import (
    ExponentCoreMismatchError,
    Genus2Diagram,
    InvalidDiagramError,
    LensSpace,
    NonPrimitiveError,
    WordError,
    ZeroVectorError,
    apply_sigma2,
    canonical_form,
    classify,
    intersection_invariant,
    lens_equiv,
    parse_word,
    six_tuple,
    surgery_project,
    theorem_hypotheses,
    validate_genus2,
    validate_torus,
    word_to_diagram,
    word_to_torus,
)
from trisect.cli import DocumentError, load_document, parse_document


@dataclass(frozen=True)
class Answers:
    """What check-theorem and classify report for one torus diagram."""

    six: object
    family: object
    hypotheses: object
    invariants: tuple


def answers(t) -> Answers:
    six = six_tuple(t)
    t1 = apply_sigma2(t)
    t2 = apply_sigma2(t1)
    return Answers(
        six,
        classify(six),
        theorem_hypotheses(t),
        tuple(intersection_invariant(x) for x in (t, t1, t2)),
    )


def check_document(doc, parsed, torus, got: Answers | None) -> str | None:
    """Compare one batch document's outcome with its reference.

    parsed and torus are what the pipeline parsed and projected (None
    past the stage that refused the document); got is its answers, None
    if the document was refused.  Which stage refuses an invalid document
    is not checked here; the per-layer counts record it.
    """
    if doc.kind == "invalid":
        return None if got is None else "invalid document answered"
    if got is None:
        return f"valid {doc.kind} document refused"
    if parsed != doc.parsed:
        return "parsed diagram differs from the generated one"
    if got != answers(doc.reference):
        return "answers differ from the reference diagram's"
    if canonical_form(torus)[0] != canonical_form(doc.reference)[0]:
        return "canonical form differs from the reference diagram's"
    return None


def rotation_forms(t) -> set:
    """Canonical forms of t, sigma2 t and sigma2^2 t: the closed-form orbit."""
    t1 = apply_sigma2(t)
    return {canonical_form(x)[0] for x in (t, t1, apply_sigma2(t1))}


def check_orbit(reference, graph) -> str | None:
    nodes = [n.diagram for n in graph.nodes]
    if len(nodes) not in (1, 3):
        return f"orbit has {len(nodes)} nodes, not 1 or 3"
    if set(nodes) != rotation_forms(reference) or len(set(nodes)) != len(nodes):
        return "orbit nodes differ from the canonical forms of the three rotations"
    return None


@dataclass(frozen=True)
class CensusTally:
    raw: int
    canonical: int
    families: dict
    unmatched: int
    ties: int


# Census of the box of radius R (a2 = (1, 0), sign +1, k in {+-1, +-4}):
# families 2/3/4/5, diagrams matching no family, and "ties" whose
# certification hypotheses hold while I(V) does not separate the rotations.
CENSUS = {
    3: CensusTally(131_072, 9_476, {2: 50, 3: 12, 4: 16, 5: 18}, 9_380, 172),
    4: CensusTally(442_368, 31_972, {2: 70, 3: 12, 4: 16, 5: 18}, 31_856, 292),
}


def check_census(radius: int, tally: CensusTally) -> str | None:
    want = CENSUS[radius]
    if tally != want:
        return f"census at R={radius} gave {tally}, expected {want}"
    return None


# ------------------------------------------------------------------- the CLI


def _cli_library_answer(verb, d, extra):
    genus2 = isinstance(d, Genus2Diagram)
    if verb == "validate":
        errors = validate_genus2(d) if genus2 else validate_torus(d)
        return (1 if errors else 0), (not errors, errors)
    if verb == "invariant":
        return 0, intersection_invariant(d)
    if verb == "move":
        word = parse_word(extra[extra.index("--word") + 1])
        return 0, (word_to_diagram if genus2 else word_to_torus)(d, word)
    t = surgery_project(d) if genus2 else d
    if verb == "six-tuple":
        return 0, tuple((name, str(lens)) for name, lens in six_tuple(t).slots())
    if verb == "classify":
        m = classify(six_tuple(t), oriented="--oriented" in extra)
        return 0, None if m is None else (m.family, m.q, m.epsilon, m.rotations, m.reflected)
    if verb == "check-theorem":
        a = answers(t)
        h = a.hypotheses
        flags = (h.monodromy_nontrivial, h.b2_c2_independent, h.a2_pulled_c2_independent)
        return 0, (flags, a.invariants, h.all_hold and len(set(a.invariants)) == 3)
    if verb == "orbit":
        forms = rotation_forms(t)
        return 0, (frozenset(forms), len(forms))
    raise ValueError(f"no library answer for verb {verb!r}")


def cli_library(verb, path, extra) -> tuple[int, object]:
    """Exit code and answer the documented CLI contract gives for one call,
    computed with library calls: 0 success, 1 invalid diagram, 2 parse or
    usage error."""
    if verb == "lens":
        p, q, p2, q2 = (int(x) for x in extra[:4])
        try:
            left, right = LensSpace.from_pq(p, q), LensSpace.from_pq(p2, q2)
        except ValueError:
            return 2, None
        return 0, lens_equiv(left, right, oriented="--oriented" in extra)
    try:
        d = load_document(path)
    except DocumentError:
        return 2, None
    try:
        return _cli_library_answer(verb, d, extra)
    except (
        ExponentCoreMismatchError,
        InvalidDiagramError,
        NonPrimitiveError,
        WordError,
        ZeroVectorError,
    ):
        return 1, None


def cli_json_answer(verb, payload):
    """The answer a --json payload states, in the form cli_library gives."""
    if verb == "validate":
        return (payload["ok"], payload["errors"])
    if verb == "invariant":
        return tuple(payload["invariant"])
    if verb == "move":
        return parse_document(payload["diagram"])
    if verb == "six-tuple":
        return tuple(payload["tuple"].items())
    if verb == "classify":
        if payload["family"] is None:
            return None
        return tuple(payload[k] for k in ("family", "q", "epsilon", "rotations", "reflected"))
    if verb == "check-theorem":
        h = payload["hypotheses"]
        flags = (h["monodromy_nontrivial"], h["b2_c2_independent"], h["a2_pulled_c2_independent"])
        return (flags, tuple(tuple(t) for t in payload["invariants"]), payload["certified"])
    if verb == "orbit":
        nodes = [parse_document(n["diagram"]) for n in payload["nodes"]]
        return (frozenset(nodes), len(nodes))
    if verb == "lens":
        return payload["equivalent"]
    raise ValueError(f"no JSON answer for verb {verb!r}")


@dataclass(frozen=True)
class CliExpectation:
    """What one CLI call must do: the library's exit code and answer, and
    the standard output of the same call made in-process."""

    verb: str
    json: bool
    code: int
    answer: object
    stdout: str


def check_cli(want: CliExpectation, code: int, out: str) -> str | None:
    if code != want.code:
        return f"{want.verb}: exit code {code}, expected {want.code}"
    if out != want.stdout:
        return f"{want.verb}: output differs from the in-process call"
    if want.json and code == 0:
        try:
            got = cli_json_answer(want.verb, json.loads(out))
        except (ValueError, KeyError, TypeError) as e:
            return f"{want.verb}: unreadable --json answer ({e})"
        if got != want.answer:
            return f"{want.verb}: --json answer differs from the library's"
    return None
