import errno
import glob
import importlib.metadata
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import trisect.cli
import trisect.moves
from trisect import (
    ExponentCoreMismatchError,
    Genus2Diagram,
    InvalidDiagramError,
    Monodromy,
    TorusDiagram,
    apply_sigma2,
    canonical_form,
    intersection_invariant,
    orbit,
    six_tuple,
    surgery_project,
    theorem_hypotheses,
)
from trisect.cli import main
from trisect.document import (
    DocumentError,
    document_text,
    load_document,
    parse_document,
    serialize_document,
)

from conftest import FIXTURES, fixture, rand_genus2_diagram, rand_torus_diagram
from test_moves import _orbit_bfs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, diagram, name="d.json"):
    path = tmp_path / name
    path.write_text(document_text(diagram), encoding="utf-8")
    return str(path)


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", fixture("identity.json"))
    assert (code, out, err) == (0, "ok\n", "")
    code, out, _ = run(capsys, "validate", fixture("genus2_q3.json"), "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "errors": []}


def test_validate_invalid_diagram(capsys):
    code, out, err = run(capsys, "validate", fixture("invalid/nonprimitive.json"))
    assert code == 1
    assert out == "NonPrimitive\n"
    code, out, _ = run(capsys, "validate", fixture("invalid/bad_exponent.json"), "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "errors": ["BadExponent"]}


def test_document_errors_exit_2(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "validate", fixture("invalid/malformed.json"))
    assert code == 2 and "invalid JSON" in err
    code, _, err = run(capsys, "validate", fixture("invalid/unknown_field.json"))
    assert code == 2 and "unknown fields" in err and "color" in err
    # Every refusal of a document file names the file, schema errors too.
    assert err.startswith(f"error: {fixture('invalid/unknown_field.json')}: "), err
    code, _, err = run(capsys, "validate", fixture("no_such_file.json"))
    assert code == 2 and "cannot read" in err
    # A message echoes a long value, or a long list of field names, only in
    # part, so a huge document gives a short error.  The relative path keeps
    # the message independent of where the test runs.
    monkeypatch.chdir(tmp_path)
    text = Path(fixture("family3.json")).read_text(encoding="utf-8")
    doc = json.loads(text)
    long = "x" * 100_000
    cases = [
        (json.dumps({**doc, "model": long}), "model: expected 'torus' or 'genus2', got 'xxx"),
        (json.dumps({**doc, "model": [0] * 50_000}), "model: expected 'torus' or 'genus2', got [0, "),
        (json.dumps({**doc, "monodromy": {"type": long}}), "monodromy.type: expected"),
        (json.dumps({**doc, long: 1}), "document: unknown fields ['xxx"),
        (
            json.dumps({**doc, **{f"k{i}": 0 for i in range(20_000)}}),
            "document: unknown fields ['k0', 'k1', 'k10', ...] (20000 fields)",
        ),
        (text.replace('"sign": 1', f'"{long}": 1, "{long}": 2, "sign": 1'), "duplicate key 'xxx"),
    ]
    for body, message in cases:
        Path("long.json").write_text(body, encoding="utf-8")
        code, out, err = run(capsys, "validate", "long.json")
        assert (code, out) == (2, ""), message
        assert err.startswith("error: long.json: ") and message in err, err[:300]
        assert len(err) < 200, err[:300]


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["move", fixture("identity.json")]) == 2  # missing --word
    capsys.readouterr()


# The argv reader: (argv, exit code, stdout fragment, stderr fragment), with
# FIXTURE standing for fixtures/family3.json.  Usage errors print nothing
# on stdout.
FIXTURE = "FIXTURE"
ARGV_CASES = [
    # --name=value, options before the path, and "--" before a positional
    (["orbit", "--depth=2", "--format=dot", FIXTURE], 0, 'n0 -> n1 [label="D2"];', ""),
    (["classify", "--oriented", FIXTURE], 0, "family 3, epsilon=-1", ""),
    (["move", "--word=D2,D2'", "--out=", FIXTURE], 0, '"model": "torus"', ""),
    (["validate", "--", FIXTURE], 0, "ok\n", ""),
    # a repeated option keeps its last value
    (["orbit", FIXTURE, "--depth", "2", "--format", "text", "--format", "dot"], 0, "digraph", ""),
    (["orbit", FIXTURE, "--depth", "-1", "--depth", "0"], 0, "node 0:", ""),
    # negative numbers are values and positionals
    (["orbit", FIXTURE, "--depth", "-1"], 2, "", "depth must be nonnegative"),
    (["lens", "-9", "4", "9", "5"], 0, "equivalent\n", ""),
    (["lens", "9", "-4", "9", "5", "--oriented"], 0, "equivalent\n", ""),
    # help, at the top level and for one verb
    (["-h"], 0, "check-theorem", ""),
    (["--help"], 0, "six-tuple", ""),
    (["orbit", FIXTURE, "--help"], 0, "--depth", ""),
    # usage errors
    ([], 2, "", "missing verb"),
    (["no-such-verb", FIXTURE], 2, "", "unknown verb 'no-such-verb'"),
    (["validate", FIXTURE, "--bogus"], 2, "", "unknown option '--bogus'"),
    (["validate", FIXTURE, "-x"], 2, "", "unknown option '-x'"),
    (["validate", FIXTURE, "--json=yes"], 2, "", "--json takes no value"),
    (["validate"], 2, "", "missing argument path"),
    (["lens", "5", "1", "5"], 2, "", "missing argument q2"),
    (["validate", FIXTURE, FIXTURE], 2, "", "unexpected argument"),
    (["move", FIXTURE], 2, "", "missing option --word"),
    (["move", FIXTURE, "--word"], 2, "", "--word expects a value"),
    (["move", FIXTURE, "--word", "--json"], 2, "", "--word expects a value"),
    (["orbit", FIXTURE, "--format", "dot"], 2, "", "missing option --depth"),
    (["orbit", FIXTURE, "--depth", "2", "--format", "svg"], 2, "", "--format"),
    # integers follow the document rule: ASCII [+-]?[0-9]+ only
    (["orbit", FIXTURE, "--depth", "+1"], 0, "node 0:", ""),
    (["orbit", FIXTURE, "--depth", "1_0"], 2, "", "--depth: '1_0' is not a decimal integer"),
    (["orbit", FIXTURE, "--depth", "\uff12"], 2, "", "is not a decimal integer"),
    (["orbit", FIXTURE, "--depth", "1.5"], 2, "", "is not a decimal integer"),
    (["lens", "5", "1_0", "5", "4"], 2, "", "q: '1_0' is not a decimal integer"),
    # option prefixes are not expanded
    (["validate", FIXTURE, "--js"], 2, "", "unknown option '--js'"),
    (["orbit", FIXTURE, "--dep", "2"], 2, "", "unknown option '--dep'"),
]


@pytest.mark.parametrize("argv, code, out_part, err_part", ARGV_CASES)
def test_argv_reader(capsys, argv, code, out_part, err_part):
    argv = [fixture("family3.json") if a == FIXTURE else a for a in argv]
    got, out, err = run(capsys, *argv)
    assert got == code
    assert out_part in out and err_part in err
    if code == 2:
        assert out == ""


def test_help_lists_every_verb_and_argument(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert all(f"  {verb} " in out for verb in trisect.cli.VERBS)
    for verb, (_, _, text, arguments) in trisect.cli.VERBS.items():
        code, out, err = run(capsys, verb, "-h")
        assert (code, err) == (0, "")
        assert text in out
        for name, (about, _, _) in arguments.items():
            assert f"  {name} " in out and about in out, (verb, name)


def test_document_value_rules(tmp_path, capsys):
    # decimal strings are accepted for integers, booleans are not
    doc = {
        "model": "torus",
        "a2": ["1", "0"],
        "b2": [0, 1],
        "c2": ["-1", "-1"],
        "monodromy": {"type": "identity"},
        "sign": "1",
    }
    p = tmp_path / "strs.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(p))
    assert (code, out) == (0, "ok\n")
    doc["sign"] = True
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2 and "boolean" in err


def test_deeply_nested_json_exit_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert "nested too deeply" in err and "Traceback" not in err


def test_overlong_decimal_string_exit_2(tmp_path, capsys, monkeypatch):
    # Past the interpreter's integer-conversion limit the value is still a
    # decimal integer; the error says so, names the file and echoes only a
    # prefix of the value.  The relative path keeps the length bound a
    # measure of the echo alone.
    monkeypatch.chdir(tmp_path)
    doc = {
        "model": "torus",
        "a2": ["1" * 5_001, "0"],
        "b2": [0, 1],
        "c2": [1, 1],
        "monodromy": {"type": "identity"},
        "sign": 1,
    }
    p = Path("long.json")
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", "long.json")
    assert code == 2 and err.startswith("error: long.json: a2[0]: ")
    assert "4300-digit integer-conversion limit" in err
    assert "not a decimal integer" not in err and len(err) < 200
    doc["a2"][0] = "x" * 5_001
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", "long.json")
    assert code == 2 and err.startswith("error: long.json: a2[0]: ")
    assert "not a decimal integer" in err and len(err) < 200


def test_oversized_json_number_exit_2(tmp_path, capsys):
    # A bare JSON number past the integer-conversion limit is refused with
    # the file name, as a decimal string is; one at the limit is read.
    limit = sys.get_int_max_str_digits()
    text = Path(fixture("family3.json")).read_text(encoding="utf-8")
    p = tmp_path / "long.json"
    p.write_text(text.replace("[1, 0]", "[1" + "0" * limit + ", 0]", 1), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(p))
    message = f"error: {p}: a JSON number exceeds the {limit}-digit integer-conversion limit\n"
    assert (code, out, err) == (2, "", message)
    p.write_text(text.replace("[1, 0]", "[1" + "0" * (limit - 1) + ", 0]", 1), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out, err) == (1, "NonPrimitive\n", "")


def test_long_answers_print(tmp_path, capsys):
    # Entries of 3,001 digits are read under the int/str digit limit, and
    # the answers, whose pairings have 6,000 digits, still print.
    limit = sys.get_int_max_str_digits()
    big = 10**3000
    t = TorusDiagram((1, 0), (0, 1), (big, 1), Monodromy.twist((1, big), 1))
    path = write_doc(tmp_path, t, "long_answers.json")
    out_path = str(tmp_path / "moved.json")
    payloads = {}
    for argv in (
        ["invariant"],
        ["check-theorem"],
        ["six-tuple"],
        ["move", "--word", "D2"],
        ["orbit", "--depth", "1"],
    ):
        for js in ([], ["--json"]):
            code, out, err = run(capsys, argv[0], path, *argv[1:], *js)
            assert (code, err) == (0, ""), argv
            assert sys.get_int_max_str_digits() == limit
            payloads[argv[0]] = out
    # A document with such entries could not be read back, so --out
    # refuses it (see test_move_out_refuses_unreadable_documents).
    assert run(capsys, "move", path, "--word", "D2", "--out", out_path)[0] == 2
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payloads = {verb: json.loads(out) for verb, out in payloads.items()}
        slots = {name: str(lens) for name, lens in six_tuple(t).slots()}
    finally:
        sys.set_int_max_str_digits(limit)
    i0, i1, i2 = intersection_invariant(t)
    assert payloads["invariant"] == {"invariant": [i0, i1, i2]} and i2 > 10**limit
    assert payloads["check-theorem"]["invariants"] == [[i0, i1, i2], [i1, i2, i0], [i2, i0, i1]]
    report = theorem_hypotheses(t)
    assert payloads["check-theorem"]["hypotheses"] == {
        "monodromy_nontrivial": report.monodromy_nontrivial,
        "b2_c2_independent": report.b2_c2_independent,
        "a2_pulled_c2_independent": report.a2_pulled_c2_independent,
    }
    assert payloads["six-tuple"] == {"tuple": slots}
    assert payloads["move"]["diagram"] == serialize_document(apply_sigma2(t))
    nodes = orbit(t, 1).nodes
    assert [(n["index"], n["invariant"]) for n in payloads["orbit"]["nodes"]] == [
        (n.index, list(n.invariant)) for n in nodes
    ]
    assert [n["diagram"] for n in payloads["orbit"]["nodes"]] == [
        serialize_document(n.diagram) for n in nodes
    ]
    # The limit still holds for the input of a later call.
    text = Path(fixture("family3.json")).read_text(encoding="utf-8")
    p = tmp_path / "long.json"
    p.write_text(text.replace("[1, 0]", "[1" + "0" * limit + ", 0]", 1), encoding="utf-8")
    code, out, err = run(capsys, "invariant", str(p))
    message = f"error: {p}: a JSON number exceeds the {limit}-digit integer-conversion limit\n"
    assert (code, out, err) == (2, "", message)


def test_move_out_refuses_unreadable_documents(tmp_path, capsys):
    # move --out writes only what load_document reads back: an entry past
    # the int/str digit limit exits 2 and writes no file.
    limit = sys.get_int_max_str_digits()
    big = 10**3000
    t = TorusDiagram((1, 0), (0, 1), (big, 1), Monodromy.twist((1, big), 1))
    path = write_doc(tmp_path, t, "long_answers.json")
    out_path = tmp_path / "moved.json"
    for word in ("D2", "D2,D2,D2'"):
        code, out, err = run(capsys, "move", path, "--word", word, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot write {out_path}: an entry exceeds the {limit}-digit"
            " integer-conversion limit, so the document could not be read back\n"
        )
        assert not out_path.exists()
    # Entries of exactly the limit's length are written and read back; the
    # identity monodromy keeps them unchanged.
    n = 10**limit - 1
    t = TorusDiagram((1, 0), (n - 1, 1), (n, 1), Monodromy.identity(), -1)
    path = write_doc(tmp_path, t, "at_limit.json")
    assert run(capsys, "move", path, "--word", "D2", "--out", str(out_path)) == (
        0, f"wrote {out_path}\n", ""
    )
    assert load_document(str(out_path)) == apply_sigma2(t)
    assert run(capsys, "validate", str(out_path)) == (0, "ok\n", "")


def test_duplicate_keys_exit_2(tmp_path, capsys):
    # Readers disagree on which of two equal keys wins, so a document with
    # one is refused, at the top level and inside the monodromy alike.
    text = Path(fixture("family3.json")).read_text(encoding="utf-8")
    p = tmp_path / "dup.json"
    for doc, key in (
        (text.replace('"sign": 1', '"sign": 1, "sign": -1'), "sign"),
        (text.replace('"sign": 1', '"sign": 1, "sign": 1'), "sign"),
        (text.replace('"type"', '"type": "identity", "type"'), "type"),
        (text.replace('"exponent": 1', '"exponent": 1, "exponent": 4'), "exponent"),
    ):
        p.write_text(doc, encoding="utf-8")
        with pytest.raises(DocumentError) as info:
            load_document(str(p))
        assert str(info.value) == f"{p}: duplicate key {key!r}"
        for verb in ("validate", "check-theorem"):
            code, out, err = run(capsys, verb, str(p))
            assert (code, out, err) == (2, "", f"error: {p}: duplicate key {key!r}\n")


def test_parse_document_integer_entries():
    # Plain JSON integers take a fast path; every other entry gives the
    # value or the error message it gave before that path existed.
    base = {
        "model": "torus",
        "a2": [1, 0],
        "b2": [0, 1],
        "monodromy": {"type": "twist", "core": [-1, 1], "exponent": 1},
        "sign": 1,
    }
    accepted = {
        "7": (7, 0),
        " -3 ": (-3, 0),
        "\t\r\n 5\n": (5, 0),
        "+012": (12, 0),
        2**80: (2**80, 0),
    }
    for entry, c2 in accepted.items():
        d = parse_document({**base, "c2": [entry, 0]})
        assert d == TorusDiagram((1, 0), (0, 1), c2, Monodromy.twist((-1, 1), 1))
        assert type(d.c2) is tuple and all(type(c) is int for c in d.c2)
    refused = [
        ([True, 0], "c2[0]: expected an integer, got a boolean"),
        ([0, False], "c2[1]: expected an integer, got a boolean"),
        ([1.0, 0], "c2[0]: expected an integer, got float"),
        ([0, None], "c2[1]: expected an integer, got NoneType"),
        (
            ["1" * 5_001, 0],
            "c2[0]: '11111111111111111111'... (5001 characters) exceeds the "
            "4300-digit integer-conversion limit",
        ),
        (["x" * 50, 0], "c2[0]: 'xxxxxxxxxxxxxxxxxxxx'... (50 characters) is not a decimal integer"),
        # int() accepts these three; a decimal string is ASCII [+-]?[0-9]+.
        (["1_0", 0], "c2[0]: '1_0' is not a decimal integer"),
        (["\uff13", 0], "c2[0]: '\uff13' is not a decimal integer"),
        ([0, " -\u0663 "], "c2[1]: ' -\u0663 ' is not a decimal integer"),
        (["+", 0], "c2[0]: '+' is not a decimal integer"),
        # str.strip() removes these; JSON whitespace is only space, tab, CR, LF.
        (["\u3000 7 ", 0], "c2[0]: '\\u3000 7 ' is not a decimal integer"),
        (["\x1c7", 0], "c2[0]: '\\x1c7' is not a decimal integer"),
        ([0, "\x857"], "c2[1]: '\\x857' is not a decimal integer"),
        ([1], "c2: expected a list of 2 integers"),
        ([1, 0, 0], "c2: expected a list of 2 integers"),
        ((1, 0), "c2: expected a list of 2 integers"),
        ({"x": 1}, "c2: expected a list of 2 integers"),
        ("10", "c2: expected a list of 2 integers"),
    ]
    for c2, message in refused:
        with pytest.raises(DocumentError) as info:
            parse_document({**base, "c2": c2})
        assert str(info.value) == message
    genus2 = json.loads(Path(fixture("genus2_q3.json")).read_text(encoding="utf-8"))
    for b2, message in (
        ([0, 0, True, 1], "b2[2]: expected an integer, got a boolean"),
        ([0, 0, 1, 1.0], "b2[3]: expected an integer, got float"),
        ([0, 0, 1], "b2: expected a list of 4 integers"),
    ):
        with pytest.raises(DocumentError) as info:
            parse_document({**genus2, "b2": b2})
        assert str(info.value) == message


def test_parse_document_key_sets():
    # A document whose key set is exactly the schema's takes a fast path;
    # every near miss gives the message it gave before that path existed.
    torus = {
        "model": "torus",
        "a2": [1, 0],
        "b2": [0, 1],
        "c2": [1, 1],
        "monodromy": {"type": "twist", "core": [-1, 1], "exponent": 1},
        "sign": 1,
    }
    genus2 = json.loads(Path(fixture("genus2_q3.json")).read_text(encoding="utf-8"))

    def without(doc, *keys):
        return {k: v for k, v in doc.items() if k not in keys}

    def renamed(doc, key, new):
        return {(new if k == key else k): v for k, v in doc.items()}

    refused = [
        (renamed(torus, "a2", "A2"), "document: missing fields ['a2']"),
        ({**torus, "color": "red"}, "document: unknown fields ['color']"),
        (without(torus, "sign"), "document: missing fields ['sign']"),
        (without(torus, "b2", "sign"), "document: missing fields ['b2', 'sign']"),
        ({**renamed(torus, "sign", "sgn"), "x": 1}, "document: missing fields ['sign']"),
        (renamed(genus2, "c1", "c3"), "document: missing fields ['c1']"),
        ({**genus2, "core": [1, 0]}, "document: unknown fields ['core']"),
        (without(genus2, "monodromy"), "document: missing fields ['monodromy']"),
        (
            {**torus, "monodromy": {"type": "twist", "exponent": 1}},
            "monodromy: missing fields ['core']",
        ),
        (
            {**torus, "monodromy": {**torus["monodromy"], "name": "t"}},
            "monodromy: unknown fields ['name']",
        ),
        (
            {**torus, "monodromy": {"type": "twist", "core": [-1, 1]}},
            "monodromy: missing fields ['exponent']",
        ),
        (
            {**torus, "monodromy": {"type": "identity", "core": [-1, 1]}},
            "monodromy: unknown fields ['core']",
        ),
        (
            {**genus2, "monodromy": {"type": "identity", "exponent": 0}},
            "monodromy: unknown fields ['exponent']",
        ),
        (
            {**genus2, "monodromy": {"type": "twist", "core": [1, 0], "exponent": 1}},
            "monodromy: unknown fields ['core']",
        ),
        (
            {**genus2, "monodromy": {"type": "twist", "exp": 1}},
            "monodromy: missing fields ['exponent']",
        ),
        # A twist of exponent 0 is refused in both models, not read as the identity.
        (
            {**torus, "monodromy": {"type": "twist", "core": [-1, 1], "exponent": 0}},
            "monodromy.exponent: a twist has a nonzero exponent",
        ),
        (
            {**genus2, "monodromy": {"type": "twist", "exponent": 0}},
            "monodromy.exponent: a twist has a nonzero exponent",
        ),
        # The monodromy is read before the classes.
        (
            {**torus, "a2": [1], "monodromy": {"type": "twist", "core": [1], "exponent": 1}},
            "monodromy.core: expected a list of 2 integers",
        ),
        (
            {**genus2, "a1": [1], "monodromy": {"type": "twist", "exponent": "x"}},
            "monodromy.exponent: 'x' is not a decimal integer",
        ),
    ]
    for doc, message in refused:
        with pytest.raises(DocumentError) as info:
            parse_document(doc)
        assert str(info.value) == message
    # Valid documents parse to the same diagram in any key order.
    identity = {"type": "identity"}
    expected = [
        (torus, TorusDiagram((1, 0), (0, 1), (1, 1), Monodromy((-1, 1), 1), 1)),
        (
            {**torus, "c2": [-1, -1], "monodromy": identity},
            TorusDiagram((1, 0), (0, 1), (-1, -1), Monodromy(None, 0), 1),
        ),
        (
            genus2,
            Genus2Diagram(
                (1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, -1, 1),
                (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1), 1,
            ),
        ),
        (
            {**genus2, "c1": [-1, -1, 0, 0], "monodromy": identity},
            Genus2Diagram(
                (1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0),
                (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1), 0,
            ),
        ),
    ]
    rng = random.Random(4242)
    for doc, diagram in expected:
        for _ in range(50):
            items = list(doc.items())
            rng.shuffle(items)
            shuffled = dict(items)
            mono = list(doc["monodromy"].items())
            rng.shuffle(mono)
            shuffled["monodromy"] = dict(mono)
            d = parse_document(shuffled)
            assert d == diagram and type(d) is type(diagram)


def test_verbs_agree_on_validity(tmp_path, capsys):
    # Every verb that reads a diagram refuses the documents validate
    # refuses: it exits 1, prints nothing, and reports the error that
    # intersection_invariant raises, which for InvalidDiagramError is the
    # codes validate prints.  The two genus-2 documents pass
    # validate_genus2, but surgery_project refuses them.
    doc = json.loads(Path(fixture("genus2_q3.json")).read_text(encoding="utf-8"))
    genus2 = [
        ({**doc, "a2": [0, 0, 2, 0]}, ["NonPrimitive"]),
        ({**doc, "monodromy": {"type": "identity"}}, ["ExponentCoreMismatch"]),
    ]
    cases = [
        (fixture("invalid/bad_exponent.json"), ["BadExponent"]),
        (fixture("invalid/nonprimitive.json"), ["NonPrimitive"]),
    ]
    for i, (bad, errors) in enumerate(genus2):
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        cases.append((str(p), errors))
    for path, errors in cases:
        code, out, _ = run(capsys, "validate", path, "--json")
        assert (code, json.loads(out)) == (1, {"ok": False, "errors": errors})
        codes = "".join(e + "\n" for e in errors)
        assert run(capsys, "validate", path) == (1, codes, "")
        with pytest.raises((InvalidDiagramError, ExponentCoreMismatchError)) as info:
            intersection_invariant(load_document(path))
        if isinstance(info.value, InvalidDiagramError):
            reported = codes
        else:
            assert errors == ["ExponentCoreMismatch"]
            reported = f"error: {info.value}\n"
        for argv in (
            ["invariant"],
            ["move", "--word", "D1,D2"],
            ["move", "--word", ""],
            ["six-tuple"],
            ["classify"],
            ["check-theorem"],
            ["orbit", "--depth", "2"],
        ):
            assert run(capsys, argv[0], path, *argv[1:]) == (1, "", reported), (path, argv)
    # A fixed-seed corpus, about half of it broken in one field by _corrupt:
    # every document verb exits as validate does, with validate's stderr on
    # exit 2, its codes on stderr on exit 1 (one error line for
    # ExponentCoreMismatch), and nothing on stderr on exit 0.
    rng = random.Random(2727)
    seen = []
    for i in range(150):
        d = rand_genus2_diagram(rng) if rng.random() < 0.5 else rand_torus_diagram(rng)
        doc = serialize_document(d)
        if rng.random() < 0.5:
            _corrupt(rng, doc)
        path = tmp_path / f"corpus{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        seen.append(out if code == 1 else code)
        for argv in (
            ["invariant"],
            ["six-tuple"],
            ["classify"],
            ["check-theorem"],
            ["orbit", "--depth", "2"],
            ["move", "--word", "D2,D2'"],
        ):
            verb_code, _, verb_err = run(capsys, argv[0], str(path), *argv[1:])
            assert verb_code == code, (doc, argv)
            if out == "ExponentCoreMismatch\n":
                assert verb_err.startswith("error: ") and verb_err.count("\n") == 1
            else:
                assert verb_err == {0: "", 1: out, 2: err}[code], (doc, argv)
    assert 60 <= seen.count(0) <= 90
    codes = {"NonPrimitive\n", "BadExponent\n", "BadSign\n", "IdentityCaseViolation\n"}
    assert codes <= set(seen)


def _corrupt(rng, doc):
    """Break doc, a serialized diagram, in one field: a class (the twist core
    included) made non-primitive or zero, exponent 2, a twist of exponent 0
    (a document error), sign 0, a1 made non-primitive, or identity
    monodromy on a twisted genus-2 document."""
    mono = doc["monodromy"]
    places = [(doc, k) for k in ("b1", "c1", "a2", "b2", "c2") if k in doc]
    if "core" in mono:
        places.append((mono, "core"))
    kinds = ["non-primitive", "zero"]
    if mono["type"] == "twist":
        kinds.append("exponent")
    if doc["model"] == "genus2":
        kinds += ["a1", "identity"] if mono["type"] == "twist" else ["a1"]
    else:
        kinds.append("sign")
    kind = rng.choice(kinds)
    if kind == "zero" and "a1" in doc:
        places.append((doc, "a1"))
    if kind in ("non-primitive", "zero"):
        where, key = rng.choice(places)
        where[key] = [2 * x if kind == "non-primitive" else 0 for x in where[key]]
    elif kind == "exponent":
        mono["exponent"] = rng.choice((2, 0))
    elif kind == "sign":
        doc["sign"] = 0
    elif kind == "a1":
        doc["a1"] = [3 * x for x in doc["a1"]]
    else:
        doc["monodromy"] = {"type": "identity"}


def test_move_refuses_invalid_torus_with_empty_word(capsys):
    code, out, err = run(capsys, "move", fixture("invalid/nonprimitive.json"), "--word", "")
    assert (code, out, err) == (1, "", "NonPrimitive\n")
    code, out, _ = run(capsys, "move", fixture("identity.json"), "--word", "")
    assert code == 0 and out == document_text(load_document(fixture("identity.json")))


def test_invariant_output(capsys):
    code, out, _ = run(capsys, "invariant", fixture("family2_q3.json"))
    assert (code, out) == (0, "I = (1, 1, 2)\n")
    code, out, _ = run(capsys, "invariant", fixture("genus2_q3.json"), "--json")
    assert code == 0
    assert json.loads(out) == {"invariant": [1, 1, 2]}
    code, out, _ = run(capsys, "invariant", fixture("identity.json"))
    assert (code, out) == (0, "I = (0, 0, 0)\n")


def test_move_round_trip_is_byte_identical(tmp_path, capsys):
    src = fixture("family2_q3.json")
    once = str(tmp_path / "once.json")
    back = str(tmp_path / "back.json")
    code, out, _ = run(capsys, "move", src, "--word", "D2", "--out", once)
    assert code == 0 and out == f"wrote {once}\n"
    code, out, _ = run(capsys, "move", once, "--word", "D2'", "--out", back)
    assert code == 0
    with open(src, "rb") as f1, open(back, "rb") as f2:
        assert f1.read() == f2.read()


def test_move_unwritable_out_exit_2(tmp_path, capsys):
    src = fixture("family2_q3.json")
    missing = str(tmp_path / "no_such_dir" / "x.json")
    code, out, err = run(capsys, "move", src, "--word", "D2", "--out", missing)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {missing}: {os.strerror(errno.ENOENT)}\n"
    code, out, err = run(capsys, "move", src, "--word", "D2", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path}: ") and "Traceback" not in err


def test_non_utf8_document_exit_2(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"model": "torus", "a2": ["\u00e9", 0]}'.encode("latin-1"))
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out, err) == (2, "", f"error: {p}: not UTF-8 text\n")


def test_move_prints_document(capsys):
    code, out, _ = run(capsys, "move", fixture("family2_q3.json"), "--word", "D2,D2,D2")
    assert code == 0
    moved = parse_document(json.loads(out))
    original = load_document(fixture("family2_q3.json"))
    assert moved.monodromy == original.monodromy
    assert canonical_form(moved)[0] == canonical_form(original)[0]


def test_move_word_errors(capsys):
    code, _, err = run(capsys, "move", fixture("family2_q3.json"), "--word", "D3")
    assert code == 2 and "unknown move token" in err
    code, _, err = run(capsys, "move", fixture("family2_q3.json"), "--word", "D1")
    assert code == 1 and "sigma1 requires genus2 model" in err


def test_move_genus2_outer_rotation(capsys):
    code, out, _ = run(capsys, "move", fixture("genus2_q3.json"), "--word", "D1,D1,D1")
    assert code == 0
    moved = parse_document(json.loads(out))
    original = load_document(fixture("genus2_q3.json"))
    assert (moved.a1, moved.b1, moved.c1) == (original.a1, original.b1, original.c1)
    assert canonical_form(surgery_project(moved))[0] == canonical_form(
        surgery_project(original)
    )[0]


def test_six_tuple_output(capsys):
    code, out, _ = run(capsys, "six-tuple", fixture("family2_q3.json"))
    assert code == 0
    assert out.split() == ["aa=S3", "bb=S3", "cc=L(4,3)", "ba=S1xS2", "cb=S3", "ac=L(3,2)"]
    code, out, _ = run(capsys, "six-tuple", fixture("family3.json"), "--json")
    assert code == 0
    assert json.loads(out) == {
        "tuple": {
            "aa": "S3",
            "bb": "L(9,4)",
            "cc": "L(4,3)",
            "ba": "L(2,1)",
            "cb": "L(5,4)",
            "ac": "S3",
        }
    }


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", fixture("family3.json"))
    assert (code, out) == (0, "family 3, epsilon=+1 (rotations=0, reflected=no)\n")
    code, out, _ = run(capsys, "classify", fixture("identity.json"))
    assert (code, out) == (0, "family 1 (rotations=0, reflected=no)\n")
    code, out, _ = run(capsys, "classify", fixture("family2_q3.json"), "--json")
    assert code == 0
    assert json.loads(out) == {
        "family": 2,
        "q": 3,
        "epsilon": 1,
        "rotations": 0,
        "reflected": False,
    }
    code, out, _ = run(capsys, "classify", fixture("family5_neg.json"))
    assert (code, out) == (0, "family 5, epsilon=-1 (rotations=0, reflected=no)\n")


def test_classify_no_match(tmp_path, capsys):
    d = TorusDiagram((1, 0), (0, 1), (1, 1), Monodromy.twist((1, 2), 1))
    path = write_doc(tmp_path, d)
    code, out, _ = run(capsys, "classify", path)
    assert (code, out) == (0, "no family match\n")
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == 0
    assert json.loads(out) == {"family": None}


def test_classify_oriented_flag(capsys):
    code, out, _ = run(capsys, "classify", fixture("family3.json"), "--oriented")
    assert code == 0
    assert out == "family 3, epsilon=-1 (rotations=0, reflected=no)\n"


def test_check_theorem_certified(capsys):
    code, out, _ = run(capsys, "check-theorem", fixture("family3.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "monodromy nontrivial: yes",
        "b2 independent of c2: yes",
        "a2 independent of mu^-1(c2): yes",
        "I(V)      = (1, 3, 2)",
        "I(s2 V)   = (3, 2, 1)",
        "I(s2^2 V) = (2, 1, 3)",
        "verdict: three pairwise-inequivalent diagrams certified",
    ]


def test_check_theorem_not_met(capsys):
    code, out, _ = run(capsys, "check-theorem", fixture("identity.json"))
    assert code == 0
    assert out.splitlines()[-1] == "verdict: hypotheses not met: monodromy is identity"
    code, out, _ = run(capsys, "check-theorem", fixture("family5_neg.json"))
    assert code == 0
    assert (
        out.splitlines()[-1] == "verdict: hypotheses not met: b2 and c2 are parallel"
    )


def test_check_theorem_inseparable(tmp_path, capsys):
    d = TorusDiagram((0, 1), (1, 1), (-1, 1), Monodromy.twist((1, 0), 1))
    path = write_doc(tmp_path, d)
    code, out, _ = run(capsys, "check-theorem", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == [
        "monodromy nontrivial: yes",
        "b2 independent of c2: yes",
        "a2 independent of mu^-1(c2): yes",
    ]
    assert lines[-2:] == [
        "rotations: pairwise inequivalent, though I(V) does not separate them",
        "verdict: hypotheses hold but the invariant does not separate the rotations",
    ]


def test_check_theorem_rows_match_rotated_diagrams():
    # The builder rotates I(V) instead of rotating the diagram; the rows
    # and the verdict must be what the rotated diagrams give.
    rng = random.Random(1212)
    diagrams = [load_document(path) for path in sorted(glob.glob(f"{FIXTURES}/*.json"))]
    diagrams += [rand_torus_diagram(rng) for _ in range(200)]
    diagrams += [rand_genus2_diagram(rng) for _ in range(50)]
    diagrams.append(TorusDiagram((0, 1), (1, 1), (-1, 1), Monodromy.twist((1, 0), 1)))
    diagrams.append(TorusDiagram((2, 1), (-2, -1), (2, 1), Monodromy.twist((2, 1), 4), -1))
    for d in diagrams:
        t = surgery_project(d) if isinstance(d, Genus2Diagram) else d
        rotations = [t, apply_sigma2(t), apply_sigma2(apply_sigma2(t))]
        triples = [list(intersection_invariant(x)) for x in rotations]
        payload = trisect.cli.cmd_check_theorem(d, None)
        assert payload["invariants"] == triples
        distinct = len({tuple(x) for x in triples}) == 3
        assert payload["certified"] == (theorem_hypotheses(t).all_hold and distinct)
        # The closed-form verdict against the breadth-first orbit.
        inequivalent = len(_orbit_bfs(t, 1).nodes) == 3
        assert payload["rotations_inequivalent"] is inequivalent
        if inequivalent:
            assert payload["reason"] is None
        elif t.monodromy.is_identity:
            assert payload["reason"] == "identity monodromy"
        else:
            assert payload["reason"] == "all classes are \u00b1core"


def test_check_theorem_json(capsys):
    code, out, _ = run(capsys, "check-theorem", fixture("family2_q3.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["invariants"] == [[1, 1, 2], [1, 2, 1], [2, 1, 1]]
    assert payload["hypotheses"] == {
        "monodromy_nontrivial": True,
        "b2_c2_independent": True,
        "a2_pulled_c2_independent": True,
    }
    # json.loads keeps the printed key order.
    assert list(payload["hypotheses"]) == [
        "monodromy_nontrivial",
        "b2_c2_independent",
        "a2_pulled_c2_independent",
    ]
    assert (payload["rotations_inequivalent"], payload["reason"]) == (True, None)


def test_check_theorem_json_reason(tmp_path, capsys):
    # The rotations are equivalent under identity monodromy and when a2,
    # b2 and c2 are all +-core; certified and the verdict keep their
    # meaning, and the text output adds no line.
    core = TorusDiagram((2, 1), (-2, -1), (2, 1), Monodromy.twist((2, 1), 4), -1)
    for path, reason, verdict in (
        (fixture("identity.json"), "identity monodromy", "monodromy is identity"),
        (write_doc(tmp_path, core), "all classes are \u00b1core", "b2 and c2 are parallel"),
    ):
        code, out, _ = run(capsys, "check-theorem", path, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["certified"] is False
        assert (payload["rotations_inequivalent"], payload["reason"]) == (False, reason)
        assert verdict in payload["verdict"]
        code, out, _ = run(capsys, "check-theorem", path)
        assert len(out.splitlines()) == 7 and "rotations:" not in out


# The verb forms that tools/answers.py runs on every fixture.
VERB_FORMS = [
    ["validate"], ["invariant"], ["six-tuple"], ["classify"], ["classify", "--oriented"],
    ["check-theorem"], ["orbit", "--depth", "2"], ["orbit", "--depth", "1", "--format", "dot"],
    ["move", "--word", "D2,D2'"], ["move", "--word", "D1"], ["move", "--word", "D3"],
]


def test_text_is_formatted_from_the_json_payload(tmp_path, capsys):
    # Each call runs twice, as text and with --json.  Both give the same
    # exit code and stderr, and the text is the verb's formatter applied
    # to the printed payload; a call that prints no payload prints no text.
    paths = sorted(glob.glob(f"{FIXTURES}/*.json") + glob.glob(f"{FIXTURES}/invalid/*.json"))
    text = Path(fixture("family3.json")).read_text(encoding="utf-8")
    for name, doc in (
        ("long.json", text.replace("[1, 0]", "[1" + "0" * 5_000 + ", 0]", 1)),
        ("dup.json", text.replace('"sign": 1', '"sign": 1, "sign": -1')),
    ):
        (tmp_path / name).write_text(doc, encoding="utf-8")
        paths.append(str(tmp_path / name))
    argvs = [[verb, path, *rest] for path in paths for verb, *rest in VERB_FORMS]
    argvs += [
        ["lens", *pq.split(), *rest]
        for pq in ("5 2 5 3", "7 2 7 4", "0 1 1 0", "4 2 5 1")
        for rest in ([], ["--oriented"])
    ]
    for out in (tmp_path / "no_such_dir" / "x.json", tmp_path / "out.json"):
        argvs.append(["move", fixture("family3.json"), "--word", "D2", "--out", str(out)])
    codes = set()
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        json_code, payload, json_err = run(capsys, *argv, "--json")
        assert (code, err) == (json_code, json_err), argv
        if payload:
            verb, args = trisect.cli._parse_args(argv)
            assert out == trisect.cli.VERBS[verb][1](json.loads(payload), args) + "\n", argv
        else:
            assert out == "", argv
        codes.add((code, bool(payload)))
    assert codes == {(0, True), (1, True), (1, False), (2, False)}


def test_orbit_text(capsys):
    code, out, _ = run(capsys, "orbit", fixture("family2_q3.json"), "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    node_lines = [l for l in lines if l.startswith("node ")]
    edge_lines = [l for l in lines if l.startswith("edge ")]
    assert len(node_lines) == 3 and len(edge_lines) == 6
    assert node_lines[0].startswith("node 0: a2=(1, 0)")
    assert "I=(1, 1, 2)" in node_lines[0]
    assert "edge 0 -D2-> 1" in edge_lines


def test_orbit_dot(capsys):
    code, out, _ = run(
        capsys, "orbit", fixture("family2_q3.json"), "--depth", "2", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph orbit {")
    assert out.rstrip().endswith("}")
    assert 'n0 [label="I=(1, 1, 2)"];' in out
    assert 'n0 -> n1 [label="D2"];' in out


def test_orbit_json(capsys):
    code, out, _ = run(
        capsys, "orbit", fixture("family2_q3.json"), "--depth", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 3 and len(payload["edges"]) == 6
    assert payload["nodes"][0]["invariant"] == [1, 1, 2]
    assert payload["nodes"][0]["diagram"]["model"] == "torus"
    assert all(len(e) == 3 and e[1] in ("D2", "D2'") for e in payload["edges"])


def test_orbit_genus2_uses_outer_rotations(capsys):
    code, out, _ = run(capsys, "orbit", fixture("genus2_q3.json"), "--depth", "2")
    assert code == 0
    labels = {l.split(" -")[1].split("-> ")[0] for l in out.splitlines() if l.startswith("edge ")}
    assert labels == {"D1", "D1'", "D2", "D2'"}


def test_orbit_negative_depth(capsys, tmp_path):
    # An argument error exits 2 before the document is validated, on
    # either model: the genus-2 document below has a bad exponent.
    doc = json.loads(Path(fixture("genus2_q3.json")).read_text(encoding="utf-8"))
    doc["monodromy"]["exponent"] = 3
    bad = tmp_path / "bad_genus2.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for path in (fixture("family2_q3.json"), fixture("invalid/bad_exponent.json"), str(bad)):
        for js in ([], ["--json"]):
            code, out, err = run(capsys, "orbit", path, "--depth", "-1", *js)
            assert (code, out, err) == (2, "", "error: depth must be nonnegative\n"), (path, js)
    assert run(capsys, "orbit", str(bad), "--depth", "-1", "--depth", "0") == (
        1, "", "BadExponent\n"
    )


def test_orbit_output_matches_bfs_oracle(capsys, monkeypatch):
    paths = sorted(glob.glob(f"{FIXTURES}/*.json") + glob.glob(f"{FIXTURES}/invalid/*.json"))
    calls = [
        ["orbit", path, "--depth", str(depth), *fmt]
        for path in paths
        for depth in (0, 1, 2, 3, 6)
        for fmt in ([], ["--format", "dot"], ["--json"])
    ]
    closed_form = [run(capsys, *argv) for argv in calls]
    # cmd_orbit looks orbit up in trisect.moves at each call.
    monkeypatch.setattr(trisect.moves, "orbit", _orbit_bfs)
    assert [run(capsys, *argv) for argv in calls] == closed_form


def test_lens_command(capsys):
    code, out, _ = run(capsys, "lens", "9", "4", "9", "2")
    assert (code, out) == (0, "equivalent\n")
    code, out, _ = run(capsys, "lens", "9", "4", "9", "2", "--oriented")
    assert (code, out) == (0, "not equivalent\n")
    code, out, _ = run(capsys, "lens", "9", "4", "9", "7", "--oriented")
    assert (code, out) == (0, "equivalent\n")
    code, _, err = run(capsys, "lens", "4", "2", "4", "1")
    assert code == 2 and "not a lens space" in err
    code, out, _ = run(capsys, "lens", "-9", "4", "9", "5", "--json")
    assert code == 0
    assert json.loads(out) == {
        "equivalent": True,
        "left": "L(9,5)",
        "right": "L(9,5)",
        "oriented": False,
    }


def test_exponent_core_mismatch_exit_1(tmp_path, capsys):
    doc = {
        "model": "genus2",
        "a1": [1, 0, 0, 0],
        "b1": [0, 1, 0, 0],
        "c1": [-1, -1, 0, 0],
        "a2": [0, 0, 1, 0],
        "b2": [0, 0, 0, 1],
        "c2": [0, 0, 1, 1],
        "monodromy": {"type": "twist", "exponent": 1},
    }
    p = tmp_path / "mismatch.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "six-tuple", str(p))
    assert code == 1 and "projects to zero" in err
    # the identity dual: a nonzero boundary with identity monodromy
    doc["c1"] = [-1, -1, 1, 0]
    doc["monodromy"] = {"type": "identity"}
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "classify", str(p))
    assert code == 1 and "identity monodromy but" in err


def test_output_deterministic(capsys):
    first = run(capsys, "orbit", fixture("family3.json"), "--depth", "3")
    second = run(capsys, "orbit", fixture("family3.json"), "--depth", "3")
    assert first == second


# Top-level modules whose loading _modules_after reports.
WATCHED = ("trisect", "argparse", "gettext", "locale", "dataclasses", "inspect")


def _modules_after(*argvs):
    """The WATCHED modules and their submodules loaded after main ran each
    argv, in a fresh interpreter."""
    code = (
        "import json, sys\n"
        "from trisect.cli import main\n"
        "for argv in json.loads(sys.argv[1]): main(argv)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = run_python(code, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {m for m in loaded if m.split(".")[0] in WATCHED}


def test_each_verb_imports_only_its_modules():
    loaded = _modules_after(["validate", fixture("family3.json")], ["lens", "9", "4", "9", "2"])
    core = {"trisect", "trisect.cli", "trisect.diagram", "trisect.document", "trisect.lattice"}
    # vertical keeps @dataclass, and dataclasses loads inspect.
    assert loaded == core | {"trisect.vertical", "dataclasses", "inspect"}
    # The verbs that need only document, diagram and lattice load neither.
    argvs = [
        [verb, fixture(name)]
        for name in ("family3.json", "genus2_q3.json")
        for verb in ("validate", "invariant", "check-theorem")
    ]
    assert _modules_after(*argvs, ["--help"]) == core


def test_package_attributes_load_on_first_use():
    # In a fresh interpreter, `import trisect` loads no submodule, and a
    # submodule or a re-exported name loads its module when first read.
    code = (
        "import sys, trisect\n"
        "assert not [m for m in sys.modules if m.startswith('trisect.')], sys.modules\n"
        "assert trisect.moves.orbit is trisect.orbit\n"
        "assert trisect.vertical.six_tuple is trisect.six_tuple\n"
        "assert trisect.lattice.pair2 is trisect.pair2 and callable(trisect.cli.main)\n"
        # perfbench/ imports these three from trisect.cli.
        "assert trisect.cli.parse_document is trisect.document.parse_document\n"
        "assert trisect.cli.load_document is trisect.document.load_document\n"
        "assert trisect.cli.DocumentError is trisect.document.DocumentError\n"
        "assert {'cli', 'diagram', 'document', 'moves', 'orbit'} <= set(dir(trisect))\n"
        "try:\n"
        "    trisect.nothere\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    proc = run_python(code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trisect.cli", "invariant", fixture("family2_q3.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "I = (1, 1, 2)\n"


PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")

# The body of the wrapper that pip generates for `trisect = "trisect.cli:main"`.
WRAPPER = "import sys; from trisect.cli import main; sys.exit(main())"


def declared_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def run_python(code, *argv):
    # The child imports the same trisect as the suite, whatever the caller
    # exported.
    package_root = os.path.dirname(os.path.dirname(trisect.__file__))
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def run_wrapper(*argv):
    return run_python(WRAPPER, *argv)


def test_console_script():
    """The `trisect` command declared in pyproject.toml works, with no install."""
    value = "trisect.cli:main"
    entry = importlib.metadata.EntryPoint(
        name="trisect", value=value, group="console_scripts"
    )
    assert entry.load() is trisect.cli.main
    proc = run_wrapper("lens", "9", "4", "9", "2")
    assert proc.returncode == 0
    assert proc.stdout == "equivalent\n"
    # main's return code reaches the shell as the exit status
    proc = run_wrapper("lens", "4", "2", "4", "1")
    assert proc.returncode == 2
    # Read last, so that without tomllib or tomli the checks above still
    # run before the skip.
    assert declared_scripts().get("trisect") == value


@pytest.mark.skipif(
    shutil.which("trisect") is None, reason="trisect console script not installed"
)
def test_installed_console_script():
    proc = subprocess.run(
        [shutil.which("trisect"), "lens", "9", "4", "9", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "equivalent\n"
