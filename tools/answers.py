"""Print the answers of the public API on a fixed-seed corpus, one line per call.

Each line is a label and either the repr of the result or the type and
message of the exception raised.  The corpus is deterministic: seeded
torus and genus-2 diagrams (some with entries near 2^70), invalid
variants of both models, orbits at whole, fractional and NaN depths, SL2
completions, lens spaces, entries of the wrong type or shape, copies and
pickle round trips of each value class, equivalence witnesses, and every
fixture through trisect.cli.main, with a few more documents and outputs,
one document per refusal of trisect.document among them, in a temporary
directory.
To compare two checkouts, run on each

    PYTHONPATH=<tree>/src python3 tools/answers.py > <tree>.txt

and diff the two files.  Only the standard library, trisect and the seeded
generators of tests/conftest.py are used.

With --digest the tool prints, instead, the digest that
tests/answers.sha256 holds (see digest).  A change that means to change
answers regenerates that file with

    PYTHONPATH=src python3 tools/answers.py --digest > tests/answers.sha256
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import pickle
import random
import shutil
import sys
import tempfile
from pathlib import Path

import trisect
from trisect import (
    Genus2Diagram,
    LensSpace,
    Monodromy,
    SymplecticReduction,
    TorusDiagram,
    apply_sigma1,
    apply_sigma1_inverse,
    apply_sigma2,
    apply_sigma2_inverse,
    canonical_form,
    case_diagram,
    classify,
    embed_torus,
    equivalent_torus,
    handle_slide,
    intersection_invariant,
    lens_equiv,
    lens_from_pair,
    orbit,
    reflect,
    rotate,
    rotations_inequivalent,
    sigma2_cubed_witness,
    six_tuple,
    sl2_complete,
    surgery_project,
    theorem_hypotheses,
    transvect,
    validate_genus2,
    validate_torus,
    word_to_diagram,
    word_to_torus,
)
from trisect.cli import main
from trisect.document import document_text, load_document

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from conftest import (  # noqa: E402
    basis_change,
    rand_genus2_diagram,
    rand_primitive_vec2,
    rand_torus_diagram,
)

FIXTURES = ROOT / "fixtures"
SEED = 8080
BIG = 2**70


def show(label: str, f, *args, **kwargs) -> None:
    try:
        out = repr(f(*args, **kwargs))
    except Exception as e:  # every refusal is an answer too
        out = f"{type(e).__name__}: {e}"
    print(f"{label} -> {out}")


# The field names of the two models, in constructor order.
FIELDS = {
    TorusDiagram: ("a2", "b2", "c2", "monodromy", "sign"),
    Genus2Diagram: ("a1", "b1", "c1", "a2", "b2", "c2", "exponent"),
}


def variant(d, **changes):
    """A new diagram of d's type with the given fields changed.

    It goes through the constructor and reads each field by name, so it
    works on any version of the diagram classes.
    """
    names = FIELDS[type(d)]
    assert set(changes) <= set(names), changes
    return type(d)(**{name: changes.get(name, getattr(d, name)) for name in names})


# The paper's case diagrams, one or two of each family.
CASES = tuple(
    case_diagram(family, **kwargs) for family, kwargs in (
        (1, {}), (2, {"q": 3}), (2, {"q": -4, "upper": False}), (3, {}), (3, {"upper": False}),
        (4, {"eps2": -1}), (5, {"epsilon": 1}), (5, {"epsilon": -1, "upper": False}),
    )
)


def torus_inputs(rng):
    yield from CASES
    for _ in range(400):
        yield rand_torus_diagram(rng)
    for _ in range(50):
        a, b, c, core = (rand_primitive_vec2(rng, BIG) for _ in range(4))
        yield TorusDiagram(a, b, c, Monodromy.twist(core, rng.choice((1, -1, 4, -4))))
    good = TorusDiagram((1, 0), (0, 1), (1, 1), Monodromy.twist((-1, 1), 1))
    for bad in (
        variant(good, a2=(2, 0)),
        variant(good, a2=[0, 0]),
        variant(good, monodromy=Monodromy((-1, 1), 2)),
        variant(good, monodromy=Monodromy((2, 2), 1)),
        variant(good, monodromy=Monodromy((1, 0), 0)),
        variant(good, monodromy=Monodromy(None, 1)),
        variant(good, monodromy=Monodromy.identity(), c2=(1, 2)),
        variant(good, sign=2),
        variant(good, monodromy=Monodromy((1, 1), 4.0)),
        variant(good, monodromy=Monodromy(None, 0.0)),
        variant(good, sign=1.0),
        variant(good, sign=True),
        variant(good, a2=(1.0, 0)),
        variant(good, monodromy=Monodromy((-1.0, 1), 1)),
        variant(good, a2=[1, 0]),
        variant(good, a2=None, monodromy=Monodromy.identity(), c2=(-1, -1)),
        variant(good, monodromy=None),
        variant(good, a2=(2, 0), monodromy=None, sign=3),
        # Shapes gcd takes: bool entries, and classes or cores of another length.
        variant(good, a2=(True, False)),
        variant(good, b2=(0, 1, 0)),
        variant(good, b2=(0, 1, 0), monodromy=Monodromy.identity(), c2=(-1, -1)),
        variant(good, monodromy=Monodromy((-1, 1, 0), 1)),
        variant(good, monodromy=Monodromy((False, True), 4)),
    ):
        yield bad


def genus2_inputs(rng):
    for _ in range(300):
        yield rand_genus2_diagram(rng, mixes=4)
    lift = embed_torus(case_diagram(3))
    for bad in (
        variant(lift, a1=(2, 0, 0, 0)),
        variant(lift, b1=(0, 2, 0, 0)),
        variant(lift, a2=(0, 1, 1, 0)),
        variant(lift, a2=(0, 0, 2, 0)),
        variant(lift, exponent=2),
        variant(lift, exponent=0),
        variant(lift, exponent=1.0),
        variant(lift, a1=(1.0, 0, 0, 0)),
        variant(lift, a2=(0, 0, 1.0, 0)),
        variant(lift, a1=[1, 0, 0, 0]),
        variant(lift, b1=(0, 1.0, 0, 0)),
        variant(lift, c2=(0, 0, 5, -1.0)),
        variant(lift, a2=None),
        variant(lift, a2=(0, 0, "1", 0)),
        variant(lift, a1=None, exponent=0),
        # Passes validate_genus2; the core projects to (2, 0).
        Genus2Diagram(
            (1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 2, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 0), 1
        ),
        # Shapes gcd takes: bool entries, and classes of another length.
        variant(lift, a1=(True, False, False, False)),
        variant(lift, b2=(0, 0, False, True)),
        variant(lift, c2=(0, 0, 1)),
        variant(lift, a1=(1, 0, 0)),
        variant(lift, a2=(0, 0, 1, 0, 0)),
        *mismatched_lifts(),
    ):
        yield bad


def mismatched_lifts():
    """Two lifts that pass validate_genus2 whose core disagrees with the
    exponent: a1+b1+c1 projects to (1, 0) under the identity, and to zero
    under a twist."""
    return (
        Genus2Diagram(
            (1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 1, 0),
            (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, -1), 0,
        ),
        variant(embed_torus(case_diagram(3)), c1=(-1, -1, 0, 0)),
    )


def torus_answers(i: int, d) -> None:
    tag = f"torus[{i}]"
    show(f"{tag} validate_torus", validate_torus, d)
    show(f"{tag} six_tuple", six_tuple, d)
    try:
        t = six_tuple(d)
    except Exception:
        t = None
    if t is not None:
        images = [t, rotate(t), rotate(rotate(t))]
        for j, img in enumerate(images + [reflect(x) for x in images]):
            for oriented in (False, True):
                show(f"{tag} classify[{j}, oriented={oriented}]", classify, img, oriented)
    show(f"{tag} theorem_hypotheses", theorem_hypotheses, d)
    show(f"{tag} intersection_invariant", intersection_invariant, d)
    show(f"{tag} rotations_inequivalent", rotations_inequivalent, d)
    show(f"{tag} apply_sigma2", apply_sigma2, d)
    show(f"{tag} apply_sigma2_inverse", apply_sigma2_inverse, d)
    show(f"{tag} canonical_form", canonical_form, d)
    show(f"{tag} sigma2_cubed_witness", sigma2_cubed_witness, d)
    show(f"{tag} embed_torus", embed_torus, d)
    orbit_answers(tag, d)
    show(f"{tag} word_to_torus", word_to_torus, d, ("D2", "D2", "D2'"))
    show(f"{tag} equivalent_torus", equivalent_torus, d, d)


def genus2_answers(i: int, g) -> None:
    tag = f"genus2[{i}]"
    show(f"{tag} validate_genus2", validate_genus2, g)
    show(f"{tag} SymplecticReduction", lambda a: SymplecticReduction(a).basis, g.a1)
    show(f"{tag} surgery_project", surgery_project, g)
    show(f"{tag} intersection_invariant", intersection_invariant, g)
    show(f"{tag} rotations_inequivalent", rotations_inequivalent, g)
    show(f"{tag} handle_slide", handle_slide, g, "b2", -1)
    show(f"{tag} apply_sigma1", apply_sigma1, g)
    show(f"{tag} apply_sigma1_inverse", apply_sigma1_inverse, g)
    show(f"{tag} apply_sigma2", apply_sigma2, g)
    show(f"{tag} word_to_diagram", word_to_diagram, g, ("D1", "D2"))
    try:
        t = surgery_project(g)
    except Exception:
        return
    # A change of torus basis moves the literal projection and the witness
    # matrix, but not the canonical diagram.
    show(f"{tag} canonical_form projected", lambda t: canonical_form(t)[0], t)
    orbit_answers(f"{tag} projected", t, g)


def orbit_answers(tag: str, d, lift=None) -> None:
    for depth in (0, 1, 2, 3, 0.5, 1.5, float("nan")):
        for sigma1 in (False, True):
            show(f"{tag} orbit[{depth}, sigma1={sigma1}]", orbit, d, depth, sigma1, lift)


def completion_answers(rng) -> None:
    vectors = [(1, 0), (-1, 0), (0, 1), (0, -1), (5, -1), (0, 0), (2, 4), (2, 0), (BIG, 0),
               (BIG, 1), (1, BIG), (BIG + 1, BIG), (-BIG, BIG - 1),
               (1.0, 0.0), (1.0, 2), (0, 1.0), (0.0, 0.0)]
    for _ in range(300):
        vectors.append(tuple(
            rng.choice((1, -1)) * BIG + rng.randint(-1_000, 1_000) if rng.random() < 0.7
            else rng.randint(-5, 5)
            for _ in range(2)
        ))
    for i, v in enumerate(vectors):
        show(f"sl2_complete[{i}] {v!r}", sl2_complete, v)


def lens_answers(rng) -> None:
    pairs = [((0, 0), (1, 0)), ([0, 0], (1, 0)), ((1, 0), [0, 0]), ((2, 0), (0, 1)),
             ((1, 0), (2, 2)), ([2, 1], [0, 1]), ((1, 0), (1, 0)), ((1, 0), (0, 1))]
    pairs += [(rand_primitive_vec2(rng, 30), rand_primitive_vec2(rng, 30)) for _ in range(300)]
    pairs += [(rand_primitive_vec2(rng, BIG), rand_primitive_vec2(rng, BIG)) for _ in range(30)]
    for i, (v, w) in enumerate(pairs):
        show(f"lens_from_pair[{i}] {v!r} {w!r}", lens_from_pair, v, w)
    spaces = [LensSpace(1, 0), LensSpace(0, 1)]
    for p in range(2, 14):
        spaces += [LensSpace(p, q) for q in range(1, p) if math.gcd(p, q) == 1]
    for l1 in spaces:
        for l2 in spaces:
            if l1.p == l2.p:
                for oriented in (False, True):
                    show(f"lens_equiv {l1} {l2} oriented={oriented}", lens_equiv, l1, l2, oriented)
    for p in range(-6, 10):
        for q in range(-6, 10):
            show(f"from_pq {p} {q}", LensSpace.from_pq, p, q)


def shape_answers() -> None:
    """Entries of the wrong type or shape: lens spaces, reductions, words,
    completions, transvections and case arguments."""
    for p, q in ((2, True), (True, False), (5, 2.0), (5.0, 2)):
        show(f"LensSpace {p!r} {q!r}", LensSpace, p, q)
    for a in ([1, 0, 0, 0], [0, 0, 1, 0], (1, 0, 0), (1, 0, 0, 0, 0)):
        show(f"SymplecticReduction {a!r}", lambda a: SymplecticReduction(a).basis, a)
    d = case_diagram(3)
    show("word_to_torus 'D2'", word_to_torus, d, "D2")
    show("word_to_diagram 'D2,D1'", word_to_diagram, embed_torus(d), "D2,D1")
    for p, q in ((1.0, 5), (-1.0, 3), (0.0, 1.0), (0, True), (True, 0), (2.0, 1), (5, 2.0)):
        show(f"from_pq {p!r} {q!r}", LensSpace.from_pq, p, q)
    # Each model's validators and six_tuple on a diagram of the other model.
    show("validate_torus genus2", validate_torus, embed_torus(d))
    show("six_tuple genus2", six_tuple, embed_torus(d))
    show("validate_genus2 torus", validate_genus2, d)
    # Each word applier on the other model: D2 keeps the model, D1 needs genus 2.
    for word in (("D1",), ("D2",)):
        show(f"word_to_torus genus2 {word!r}", word_to_torus, embed_torus(d), word)
        show(f"word_to_diagram torus {word!r}", word_to_diagram, d, word)
    # Slide signs equal to +-1 that are not exact ints.
    for sign in (1.0, True):
        show(f"handle_slide sign {sign!r}", handle_slide, embed_torus(d), "a2", sign)
    show("word_to_torus ('D9',)", word_to_torus, d, ("D9",))
    show("transvect (1, 0) (0, 1, 0, 0)", transvect, (1, 0), 1, (0, 1, 0, 0))
    for k in (1.0, True):
        show(f"transvect k={k!r}", transvect, (1, 0), k, (0, 1))
    # bool and float entries that compare equal to ints.
    for v in ((True, False), (1, True), (1.0, 0)):
        show(f"sl2_complete {v!r}", sl2_complete, v)
    for a in ((True, 0, 0, 0), (1.0, 0, 0, 0), (0, 0, True, 0), (0.0, 0, 0, 0)):
        show(f"SymplecticReduction {a!r}", lambda a: SymplecticReduction(a).basis, a)
    for v, w in (((True, False), (0, 1)), ((1, 0), (False, True)), ((1.0, 0), (0, 1))):
        show(f"lens_from_pair {v!r} {w!r}", lens_from_pair, v, w)
    for family, kwargs in (
        (2, {"q": 1.5}), (2, {"q": True}), (1, {"sign": 2}), (3, {"sign": 1.0}),
        (3, {"sign": True}), (4, {"eps2": 1.0}), (5, {"epsilon": 1.0}), (3, {"q": 1.5}),
        (1, {"q": 0}),
    ):
        show(f"case_diagram {family} {kwargs!r}", case_diagram, family, **kwargs)


def copy_answers() -> None:
    """copy, deepcopy and a pickle round trip of one value of each class,
    each with whether it equals the original."""
    d = case_diagram(3)
    t = six_tuple(d)
    graph = orbit(d, 1)
    clones = (("copy", copy.copy), ("deepcopy", copy.deepcopy),
              ("pickle", lambda x: pickle.loads(pickle.dumps(x))))
    for x in (d, d.monodromy, embed_torus(d), theorem_hypotheses(d), t, t.bb, classify(t),
              equivalent_torus(d, d), graph.nodes[0], graph):
        for name, clone in clones:
            y = clone(x)
            print(f"{name} {type(x).__name__} -> {(y, y == x)!r}")


def move_answers() -> None:
    """equivalent_torus of each case diagram against two partners.  The
    first partner is the diagram under the basis change ((2, 1), (1, 1))
    with b2 negated, so its witness flips b2; the second is its sigma2
    image, equivalent exactly when I(V) = (0, 0, 0)."""
    m = ((2, 1), (1, 1))
    for i, d in enumerate(CASES):
        moved = basis_change(d, m)
        partner = variant(moved, b2=tuple(-x for x in moved.b2))
        show(f"equivalent_torus[{i}] basis change", equivalent_torus, d, partner)
        show(f"equivalent_torus[{i}] sigma2", equivalent_torus, d, apply_sigma2(d))


def cli_answers() -> None:
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    names += sorted("invalid/" + p.name for p in (FIXTURES / "invalid").glob("*.json"))
    forms = [
        ["validate"], ["invariant"], ["six-tuple"], ["classify"], ["classify", "--oriented"],
        ["check-theorem"], ["orbit", "--depth", "2"], ["orbit", "--depth", "1", "--format", "dot"],
        ["move", "--word", "D2,D2'"], ["move", "--word", "D1"],
    ]
    argvs = [[verb, name, *rest, *js] for name in names for verb, *rest in forms
             for js in ([], ["--json"])]
    argvs += [["lens", *map(str, pq), *js]
              for pq in ((5, 2, 5, 3), (7, 2, 7, 4), (0, 1, 1, 0), (4, 2, 5, 1))
              for js in ([], ["--json"], ["--oriented"])]
    # The command line itself: option forms and order, help, usage errors
    # and integer spellings.
    argvs += [
        ["orbit", "--depth=2", "--format=dot", "family3.json"],
        ["classify", "--oriented", "--json", "family3.json"],
        ["move", "--word=D2", "--out=", "family3.json"],
        ["validate", "--", "family3.json"],
        ["orbit", "family3.json", "--depth", "1", "--depth", "2"],
        ["orbit", "family3.json", "--depth", "2", "--format", "text", "--format", "dot"],
        ["orbit", "family3.json", "--depth", "-1"],
        ["orbit", "family3.json", "--depth", "+1"],
        ["orbit", "family3.json", "--depth", " 2 "],
        ["lens", "-5", "1", "5", "4"],
        ["lens", "5", "-1", "5", "4", "--json"],
        ["lens", "-9", "4", "9", "5", "--oriented"],
        [], ["-h"], ["--help"], ["orbit", "--help"], ["lens", "5", "-h"],
        ["no-such-verb", "family3.json"], ["--json", "validate", "family3.json"],
        ["validate"], ["validate", "family3.json", "identity.json"], ["lens", "5", "1", "5"],
        ["validate", "family3.json", "--bogus"], ["validate", "family3.json", "-x"],
        ["validate", "family3.json", "--json=1"],
        ["move", "family3.json"], ["move", "family3.json", "--word"],
        ["move", "family3.json", "--word", "--json"],
        ["orbit", "family3.json"], ["orbit", "family3.json", "--format", "dot"],
        ["orbit", "family3.json", "--depth", "2", "--format", "svg"],
        ["orbit", "family3.json", "--depth", "1.5"],
        ["orbit", "family3.json", "--depth", "1_0"],
        ["orbit", "family3.json", "--depth", "\uff12"],
        ["lens", "5", "1_0", "5", "4"],
        ["validate", "family3.json", "--js"],
        ["orbit", "family3.json", "--dep", "2"],
        ["classify", "family3.json", "--orient"],
        # A bad word, on a valid document and on an unreadable one.
        ["move", "family3.json", "--word", "D3"],
        ["move", "invalid/malformed.json", "--word", "D3"],
    ]
    here = os.getcwd()
    os.chdir(FIXTURES)
    try:
        for argv in argvs:
            cli_answer(argv)
    finally:
        os.chdir(here)
    # Documents and outputs in a scratch directory, named by relative
    # paths so that the lines do not depend on where it is.  long_answers.json
    # is valid, with 3,001-digit entries whose pairings pass the int/str
    # digit limit.  tie.json lies on the tie locus, and core.json has every
    # class equal to +-core.  bad_genus2.json has the twist exponent 3.
    # mismatch0.json and mismatch1.json are the mismatched lifts.  Each of
    # refused_documents but strings.json is refused by one check of
    # load_document; latin1.json is not UTF-8, and missing.json does not
    # exist.
    big = 10**3000
    long_answers = TorusDiagram((1, 0), (0, 1), (big, 1), Monodromy.twist((1, big), 1))
    tie = TorusDiagram((0, 1), (1, 1), (-1, 1), Monodromy.twist((1, 0), 1))
    core = TorusDiagram((2, 1), (-2, -1), (2, 1), Monodromy.twist((2, 1), 4), -1)
    bad_genus2 = variant(load_document(FIXTURES / "genus2_q3.json"), exponent=3)
    refused = refused_documents()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            shutil.copy(FIXTURES / "family3.json", "family3.json")
            text = (FIXTURES / "family3.json").read_text(encoding="utf-8")
            for name, doc in (
                ("long.json", text.replace("[1, 0]", "[1" + "0" * 5_000 + ", 0]", 1)),
                ("dup.json", text.replace('"sign": 1', '"sign": 1, "sign": -1')),
                ("dup_monodromy.json", text.replace('"type"', '"type": "identity", "type"')),
                ("long_answers.json", document_text(long_answers)),
                ("tie.json", document_text(tie)),
                ("core.json", document_text(core)),
                ("bad_genus2.json", document_text(bad_genus2)),
                *((f"mismatch{i}.json", document_text(g))
                  for i, g in enumerate(mismatched_lifts())),
                *refused,
            ):
                Path(name).write_text(doc, encoding="utf-8")
            Path("latin1.json").write_bytes(text.replace('"torus"', '"t\xf6rus"').encode("latin-1"))
            for argv in (
                ["move", "family3.json", "--word", "D2", "--out", "no_such_dir/x.json"],
                ["move", "family3.json", "--word", "D2", "--out", "out.json"],
                ["validate", "long.json"],
                ["validate", "dup.json"],
                ["validate", "dup_monodromy.json", "--json"],
                *(
                    [verb, "long_answers.json", *rest, *js]
                    for verb, *rest in (
                        ["invariant"], ["check-theorem"], ["six-tuple"], ["move", "--word", "D2"],
                        ["orbit", "--depth", "1"],
                    )
                    for js in ([], ["--json"])
                ),
                ["move", "long_answers.json", "--word", "D2", "--out", "long_out.json"],
                *(["check-theorem", name, *js] for name in ("tie.json", "core.json")
                  for js in ([], ["--json"])),
                # The depth is refused before the document.
                *(["orbit", "bad_genus2.json", "--depth", "-1", *js] for js in ([], ["--json"])),
                *(["classify", name, *js] for name in ("tie.json", "core.json")
                  for js in ([], ["--json"])),
                *([verb, f"mismatch{i}.json", *rest] for i in range(2)
                  for verb, *rest in (["validate", "--json"], ["invariant"])),
                *(["validate", name] for name, _ in refused),
                ["validate", "latin1.json"],
                ["validate", "missing.json"],
            ):
                cli_answer(argv)
            for name in ("out.json", "long_out.json"):
                show(f"file {name}", Path(name).read_text, encoding="utf-8")
        finally:
            os.chdir(here)


def refused_documents() -> list[tuple[str, str]]:
    """(name, text) of documents built from fixtures/family3.json and
    fixtures/genus2_q3.json: strings.json, read with decimal-string entries,
    and one document per refusal of the schema and the JSON reader."""
    torus_doc = json.loads((FIXTURES / "family3.json").read_text(encoding="utf-8"))
    genus2_doc = json.loads((FIXTURES / "genus2_q3.json").read_text(encoding="utf-8"))
    docs = [
        ("strings.json", {**torus_doc, "a2": ["1", "0"], "c2": ["+5", " -1 "], "sign": "1"}),
        ("bool.json", {**torus_doc, "sign": True}),
        ("float.json", {**torus_doc, "b2": [0, 1.0]}),
        ("not_list.json", {**torus_doc, "a2": "1, 0"}),
        ("length3.json", {**torus_doc, "c2": [5, -1, 0]}),
        ("monodromy_list.json", {**torus_doc, "monodromy": [-3, 1]}),
        ("monodromy_type.json", {**torus_doc, "monodromy": {"type": 2}}),
        ("no_core.json", {**torus_doc, "monodromy": {"type": "twist", "exponent": 1}}),
        ("identity_core.json", {**torus_doc, "monodromy": {"type": "identity", "core": [-3, 1]}}),
        ("twist0.json", {**genus2_doc, "monodromy": {"type": "twist", "exponent": 0}}),
        ("no_c1.json", {k: v for k, v in genus2_doc.items() if k != "c1"}),
        ("sphere.json", {**torus_doc, "model": "sphere"}),
        ("array.json", [torus_doc]),
        ("digits.json", {**torus_doc, "a2": ["1" * 5_000, "0"]}),
    ]
    return [(name, json.dumps(doc)) for name, doc in docs] + [
        ("deep.json", "[" * 100_000 + "]" * 100_000),
    ]


def cli_answer(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as e:
            code = f"{type(e).__name__}: {e}"
    print(f"main {argv!r} -> {code!r} {out.getvalue()!r} {err.getvalue()!r}")


def families(text: str) -> dict[str, list[str]]:
    """The lines of an answers text by label family, in order.  The family
    is the first word of a line without its index: torus[3] is torus.
    Lines end at "\n" only, as print ends them."""
    out = {}
    for line in text.removesuffix("\n").split("\n"):
        out.setdefault(line.split(" ", 1)[0].split("[", 1)[0], []).append(line)
    return out


def fingerprint(line: str) -> str:
    """Four hex digits of the line's SHA-256, enough to find the first
    changed line of a family whose digest changed."""
    return hashlib.sha256(line.encode()).hexdigest()[:4]


def digest(text: str) -> str:
    """Per label family, its line count and the SHA-256 of its lines, one
    family a row as "family count sha256", sorted by family.  Then each
    family's line fingerprints, 16 lines a row as "@family hex...".  The
    table decides equality; the fingerprints only locate a change."""
    grouped = sorted(families(text).items())
    rows = []
    for family, lines in grouped:
        sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        rows.append(f"{family} {len(lines)} {sha}")
    for family, lines in grouped:
        for i in range(0, len(lines), 16):
            rows.append(f"@{family} " + "".join(map(fingerprint, lines[i:i + 16])))
    return "\n".join(rows) + "\n"


def answers_text() -> str:
    """The output of run(), as one string."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run()
    return out.getvalue()


def run() -> None:
    rng = random.Random(SEED)
    print(f"# trisect answers, seed {SEED}, package {Path(trisect.__file__).parent.name}")
    for i, d in enumerate(torus_inputs(rng)):
        torus_answers(i, d)
    for i, g in enumerate(genus2_inputs(rng)):
        genus2_answers(i, g)
    lens_answers(rng)
    completion_answers(rng)
    shape_answers()
    copy_answers()
    cli_answers()
    move_answers()


if __name__ == "__main__":
    if sys.argv[1:] == ["--digest"]:
        sys.stdout.write(digest(answers_text()))
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--digest]")
    else:
        run()
    sys.stdout.flush()
