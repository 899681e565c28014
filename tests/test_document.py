"""Fixed-seed fuzzing of parse_document on arbitrary JSON-like values.

parse_document is the boundary every verb reads through: on any value a
JSON reader can produce it returns a diagram of exactly one public class,
or raises DocumentError.  The examples are derandomized and no example
database is kept, so every run checks the same values.
"""

import math

import pytest

from trisect import Genus2Diagram, TorusDiagram, case_diagram, embed_torus
from trisect.document import DocumentError, load_document, parse_document, serialize_document

from conftest import fixture

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

KEYS = ("model", "a1", "b1", "c1", "a2", "b2", "c2", "monodromy", "sign", "type", "core",
        "exponent")
WORDS = ("torus", "genus2", "identity", "twist", "1", "-4", " 7 ", "+0", "1_0", "\uff12", "")
# Short strings over a fixed alphabet: digits, signs, JSON and other
# whitespace, a letter and a non-ASCII digit.
text = st.text(alphabet="07+- \t\x1ca\uff12", max_size=4)

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.integers(-(2**80), 2**80)
    | st.sampled_from((math.nan, math.inf, 1.0, -0.0, 1.5))
    | st.sampled_from(KEYS + WORDS)
    | text
)
values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | text, children, max_size=8),
    max_leaves=10,
)
# Documents of the schema's key sets with values that are mostly of the
# right shape, and valid documents with up to two fields replaced, so that
# the examples reach the entry, vector and monodromy checks and the
# constructors, not only the checks of the model and the key set.
entries = (
    st.integers(-3, 3)
    | st.integers(-(2**80), 2**80)
    | st.sampled_from((True, None, 1.0, math.nan, "1", " -2 ", "1_0", "\uff12", 10**40))
)
classes = (
    st.lists(entries, min_size=2, max_size=2)
    | st.lists(entries, min_size=4, max_size=4)
    | values
)
monodromies = st.fixed_dictionaries(
    {"type": st.sampled_from(("identity", "twist", "Twist", None))},
    optional={"core": classes, "exponent": entries},
) | values
torus_docs = st.fixed_dictionaries(
    {"model": st.just("torus"), "a2": classes, "b2": classes, "c2": classes,
     "monodromy": monodromies, "sign": entries},
)
genus2_docs = st.fixed_dictionaries(
    {"model": st.just("genus2"), **{name: classes for name in ("a1", "b1", "c1", "a2", "b2", "c2")},
     "monodromy": monodromies},
)
VALID = [
    serialize_document(d)
    for d in (case_diagram(1), case_diagram(3), case_diagram(2, q=5), embed_torus(case_diagram(4)),
              embed_torus(case_diagram(1)), load_document(fixture("genus2_q3.json")))
]


def _with(doc, changes):
    """doc with each (key, value) of changes set; type, core and exponent
    are set in the monodromy while it is an object."""
    doc = dict(doc)
    for key, value in changes:
        if key not in ("type", "core", "exponent"):
            doc[key] = value
        elif type(doc["monodromy"]) is dict:
            doc["monodromy"] = {**doc["monodromy"], key: value}
    return doc


near_docs = st.builds(
    _with,
    st.sampled_from(VALID),
    st.lists(st.tuples(st.sampled_from(KEYS), entries | classes), max_size=2),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=180)
@given(values | torus_docs | genus2_docs | near_docs)
def test_parse_document_returns_a_diagram_or_raises_document_error(obj):
    try:
        out = parse_document(obj)
    except DocumentError:
        return
    assert type(out) in (TorusDiagram, Genus2Diagram), type(out)
