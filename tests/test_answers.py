"""Golden answers: tools/answers.py's output against tests/answers.sha256.

The digest holds, per label family of the output, the line count, the
SHA-256 of the lines and a short fingerprint of each line.  A change
that means to change answers regenerates it (see tools/answers.py) and
names the changed families.
"""

import hashlib
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_answers():
    spec = importlib.util.spec_from_file_location("answers", ROOT / "tools" / "answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parse(digest):
    """family -> (count, sha256), and family -> fingerprints, one per line."""
    table, prints = {}, {}
    for row in digest.splitlines():
        if row.startswith("@"):
            family, hexes = row[1:].split(" ")
            prints.setdefault(family, []).extend(hexes[i:i + 4] for i in range(0, len(hexes), 4))
        else:
            family, count, sha = row.split(" ")
            table[family] = (int(count), sha)
    return table, prints


def _changes(answers, digest, text):
    """One message per family of text whose line count or SHA-256 differs
    from digest, with the first changed line, found by the fingerprints."""
    want, want_prints = _parse(digest)
    got, _ = _parse(answers.digest(text))
    lines = answers.families(text)
    out = []
    for family in sorted(want.keys() | got.keys()):
        if want.get(family) == got.get(family):
            continue
        new, old = lines.get(family, []), want_prints.get(family, [])
        i = next(
            (i for i, line in enumerate(new) if i >= len(old) or answers.fingerprint(line) != old[i]),
            len(new),
        )
        first = new[i][:300] if i < len(new) else "(gone)"
        out.append(f"{family}: {len(new)} lines, was {len(old)}; first changed line {i + 1}: {first}")
    return out


def test_answers_match_the_checked_in_digest():
    answers = _load_answers()
    here, limit = os.getcwd(), sys.get_int_max_str_digits()
    try:
        text = answers.answers_text()
    finally:
        os.chdir(here)
        sys.set_int_max_str_digits(limit)
    digest = (ROOT / "tests" / "answers.sha256").read_text(encoding="utf-8")
    changed = _changes(answers, digest, text)
    assert not changed, "answers changed in these families:\n" + "\n".join(changed)


def test_digest_names_each_changed_family_and_its_first_changed_line():
    answers = _load_answers()
    text = "# header\ntorus[0] a -> 1\ntorus[1] b -> 2\ntorus[2] c -> 3\nmain x -> 0\n"
    digest = answers.digest(text)
    assert digest.splitlines()[:3] == [
        f"{family} {count} {hashlib.sha256(body.encode()).hexdigest()}"
        for family, count, body in (
            ("#", 1, "# header"), ("main", 1, "main x -> 0"),
            ("torus", 3, "torus[0] a -> 1\ntorus[1] b -> 2\ntorus[2] c -> 3"),
        )
    ]
    assert _changes(answers, digest, text) == []
    changed = text.replace("-> 2", "-> 5").replace("-> 3", "-> 6").replace("x -> 0", "x -> 1")
    assert _changes(answers, digest, changed) == [
        "main: 1 lines, was 1; first changed line 1: main x -> 1",
        "torus: 3 lines, was 3; first changed line 2: torus[1] b -> 5",
    ]
    assert _changes(answers, digest, text.replace("torus[2] c -> 3\n", "")) == [
        "torus: 2 lines, was 3; first changed line 3: (gone)",
    ]
