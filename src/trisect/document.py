"""JSON diagram documents: the one reader and writer, and the validity rule.

Torus model:

    {"model": "torus", "a2": [1, 0], "b2": [0, 1], "c2": [1, 1],
     "monodromy": {"type": "twist", "core": [-1, 1], "exponent": 1},
     "sign": 1}

Genus-2 model: "model": "genus2", six length-4 classes a1..c2, and a
monodromy without a core field (the core is recovered by surgery).  The
identity monodromy is {"type": "identity"}.  Integer entries may be JSON
numbers or decimal strings, so values beyond 64 bits survive any writer.

A document is valid when torus_of accepts it: a torus document passes
validate_torus, and a genus-2 one passes the genus-2 checks and
surgery_project turns it into a valid torus diagram.  trisect.diagram
defines torus_of; this module passes it on, so the CLI reaches documents
and validity through this module alone.
"""

from __future__ import annotations

import json
import sys

from .diagram import Genus2Diagram, Monodromy, TorusDiagram, torus_of


class DocumentError(ValueError):
    """The JSON document could not be read or does not match the schema."""


def _shown(value) -> str:
    # Every message echoes a value by this rule, so a huge one stays short.
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


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
        # Only ASCII [+-]?[0-9]+: int() alone also accepts underscores, as
        # in "1_0", and non-ASCII decimal digits such as fullwidth ones.
        if not (digits.isascii() and digits.isdigit()):
            raise DocumentError(f"{where}: {_shown(value)} is not a decimal integer")
        try:
            return int(text)
        except ValueError:
            # On ASCII digits int() fails only past the int/str digit limit.
            limit = sys.get_int_max_str_digits()
            raise DocumentError(
                f"{where}: {_shown(value)} exceeds the {limit}-digit integer-conversion limit"
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
    for kind, names in (("missing", fields - obj.keys()), ("unknown", obj.keys() - fields)):
        if names:
            names = sorted(names)
            shown = ", ".join(_shown(name) for name in names[:3])
            more = f", ...] ({len(names)} fields)" if len(names) > 3 else "]"
            raise DocumentError(f"{where}: {kind} fields [{shown}{more}")


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
    raise DocumentError(f"monodromy.type: expected 'identity' or 'twist', got {_shown(kind)}")


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
    raise DocumentError(f"model: expected 'torus' or 'genus2', got {_shown(model)}")


def _unique_keys(pairs: list) -> dict:
    # JSON readers disagree on a repeated key (first or last wins), so the
    # document means different things to different readers; refuse it.
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise DocumentError(f"duplicate key {_shown(key)}")
            seen.add(key)
    return obj


def load_document(path: str) -> TorusDiagram | Genus2Diagram:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError:
        raise DocumentError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: invalid JSON ({e})") from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None
    except DocumentError as e:
        raise DocumentError(f"{path}: {e}") from None
    except ValueError:
        # The one plain ValueError of json.load: a bare number past the
        # int/str digit limit.  _as_int says the same of a decimal string.
        limit = sys.get_int_max_str_digits()
        raise DocumentError(
            f"{path}: a JSON number exceeds the {limit}-digit integer-conversion limit"
        ) from None
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


def _document_json(obj: dict) -> str:
    # One field per line with vectors inline; deterministic, so identical
    # diagrams always serialize to identical bytes.
    return "{\n" + ",\n".join(f'  "{k}": {json.dumps(v)}' for k, v in obj.items()) + "\n}"


def document_text(d) -> str:
    return _document_json(serialize_document(d)) + "\n"


def write_document(path: str, d: TorusDiagram | Genus2Diagram, limit: int) -> None:
    """Write document_text(d) to path, or raise DocumentError.  An entry past
    limit digits (0: none), which load_document would refuse, writes nothing."""
    obj = serialize_document(d)
    vectors = [v for v in (*obj.values(), *obj["monodromy"].values()) if type(v) is list]
    bound = 10**limit
    if limit and any(abs(x) >= bound for v in vectors for x in v):
        raise DocumentError(
            f"cannot write {path}: an entry exceeds the {limit}-digit"
            " integer-conversion limit, so the document could not be read back"
        )
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_document_json(obj) + "\n")
    except OSError as e:
        raise DocumentError(f"cannot write {path}: {e.strerror or e}") from None
