import errno
import glob
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import trisect.cli
from trisect import Monodromy, TorusDiagram, canonical_form, surgery_project
from trisect.cli import DocumentError, document_text, load_document, main, parse_document

from conftest import FIXTURES, fixture
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


def test_document_errors_exit_2(capsys):
    code, _, err = run(capsys, "validate", fixture("invalid/malformed.json"))
    assert code == 2 and "invalid JSON" in err
    code, _, err = run(capsys, "validate", fixture("invalid/unknown_field.json"))
    assert code == 2 and "unknown fields" in err and "color" in err
    code, _, err = run(capsys, "validate", fixture("no_such_file.json"))
    assert code == 2 and "cannot read" in err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["move", fixture("identity.json")]) == 2  # missing --word
    capsys.readouterr()


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


def test_overlong_decimal_string_exit_2(tmp_path, capsys):
    # Past the interpreter's integer-conversion limit the value is still a
    # decimal integer; the error says so and echoes only a prefix of it.
    doc = {
        "model": "torus",
        "a2": ["1" * 5_001, "0"],
        "b2": [0, 1],
        "c2": [1, 1],
        "monodromy": {"type": "identity"},
        "sign": 1,
    }
    p = tmp_path / "long.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "a2[0]" in err and "4300-digit integer-conversion limit" in err
    assert "not a decimal integer" not in err and len(err) < 200
    doc["a2"][0] = "x" * 5_001
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2 and "not a decimal integer" in err and len(err) < 200


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


def test_genus2_verbs_agree_on_validity(tmp_path, capsys):
    # Both documents pass validate_genus2, but surgery_project refuses
    # them, so every verb that reads a diagram exits 1.
    doc = json.loads(Path(fixture("genus2_q3.json")).read_text(encoding="utf-8"))
    cases = [
        ({**doc, "a2": [0, 0, 2, 0]}, ["NonPrimitive"]),
        ({**doc, "monodromy": {"type": "identity"}}, ["ExponentCoreMismatch"]),
    ]
    for i, (bad, errors) in enumerate(cases):
        p = tmp_path / f"bad{i}.json"
        p.write_text(json.dumps(bad), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(p), "--json")
        assert (code, json.loads(out)) == (1, {"ok": False, "errors": errors})
        code, out, _ = run(capsys, "validate", str(p))
        assert (code, out) == (1, "".join(e + "\n" for e in errors))
        for argv in (
            ["invariant"],
            ["move", "--word", "D1,D2"],
            ["move", "--word", ""],
            ["six-tuple"],
            ["classify"],
            ["check-theorem"],
            ["orbit", "--depth", "2"],
        ):
            code, out, _ = run(capsys, argv[0], str(p), *argv[1:])
            assert (code, out) == (1, ""), argv


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
    assert lines[-1] == (
        "verdict: hypotheses hold but the invariant does not separate the rotations"
    )


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


def test_orbit_negative_depth(capsys):
    code, _, err = run(capsys, "orbit", fixture("family2_q3.json"), "--depth", "-1")
    assert code == 2 and "depth must be nonnegative" in err


def test_orbit_output_matches_bfs_oracle(capsys, monkeypatch):
    paths = sorted(glob.glob(f"{FIXTURES}/*.json") + glob.glob(f"{FIXTURES}/invalid/*.json"))
    calls = [
        ["orbit", path, "--depth", str(depth), *fmt]
        for path in paths
        for depth in (0, 1, 2, 3, 6)
        for fmt in ([], ["--format", "dot"], ["--json"])
    ]
    closed_form = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(trisect.cli, "orbit", _orbit_bfs)
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


def run_wrapper(*argv):
    # The child imports the same trisect as the suite, whatever the caller
    # exported.
    package_root = os.path.dirname(os.path.dirname(trisect.__file__))
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    return subprocess.run(
        [sys.executable, "-c", WRAPPER, *argv],
        capture_output=True,
        text=True,
        env=env,
    )


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
