"""Seeded inputs for the workloads.

The random diagrams follow the distributions of the package's property
test generators: torus diagrams with entries in [-9, 9], 30% of them with
identity monodromy, and genus-2 documents that are standard lifts moved
by up to three handle slides and up to two global symplectic
transvections (so about 39% keep a standard a1).  Every generated input
carries the reference the oracles compare against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from trisect import (
    MAT2_ID,
    Genus2Diagram,
    Monodromy,
    TorusDiagram,
    embed_torus,
    handle_slide,
    mat2_apply,
    mat2_mul,
    transvect,
)

TWIST_EXPONENTS = (1, -1, 4, -4)


def primitive2(rng, bound=9):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if math.gcd(*v) == 1:
            return v


def primitive4(rng, bound=2):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(4))
        if math.gcd(*v) == 1:
            return v


def unimodular(rng, entry_cap=20):
    """Random product of elementary matrices, redrawn if entries grow past the cap."""
    while True:
        m = MAT2_ID
        for _ in range(rng.randrange(1, 6)):
            t = rng.randrange(-3, 4)
            e = (((1, t), (0, 1)), ((1, 0), (t, 1)), ((0, -1), (1, 0)))[rng.randrange(3)]
            m = mat2_mul(m, e)
        if max(abs(c) for row in m for c in row) <= entry_cap:
            return m


def _pairwise_unit_triple(rng):
    # Unimodular image of the standard pairwise-unit triple, with each
    # class's sign flipped at random; still pairwise unit.
    m = unimodular(rng)
    out = []
    for v in ((1, 0), (0, 1), (1, 1)):
        flip = rng.choice((1, -1))
        x, y = mat2_apply(m, v)
        out.append((flip * x, flip * y))
    return tuple(out)


def torus(rng) -> TorusDiagram:
    sign = rng.choice((1, -1))
    if rng.random() < 0.3:
        a2, b2, c2 = _pairwise_unit_triple(rng)
        return TorusDiagram(a2, b2, c2, Monodromy.identity(), sign)
    k = rng.choice(TWIST_EXPONENTS)
    return TorusDiagram(
        primitive2(rng),
        primitive2(rng),
        primitive2(rng),
        Monodromy.twist(primitive2(rng), k),
        sign,
    )


def _transvect_all(g: Genus2Diagram, v, k) -> Genus2Diagram:
    return Genus2Diagram(
        *(transvect(v, k, w) for w in (g.a1, g.b1, g.c1, g.a2, g.b2, g.c2)), g.exponent
    )


def move_off_standard(rng, g: Genus2Diagram) -> Genus2Diagram:
    """Handle slides and global symplectic transvections; both keep the projection class."""
    for _ in range(rng.randrange(4)):
        g = handle_slide(g, rng.choice(("a2", "b2", "c2")), rng.choice((1, -1)))
    for _ in range(rng.randrange(3)):
        g = _transvect_all(g, primitive4(rng), rng.choice((1, -1)))
    return g


def basis_change(d: TorusDiagram, m) -> TorusDiagram:
    """The same diagram in another basis of the torus."""
    mono = d.monodromy
    if not mono.is_identity:
        mono = Monodromy.twist(mat2_apply(m, mono.core), mono.exponent)
    return TorusDiagram(
        mat2_apply(m, d.a2), mat2_apply(m, d.b2), mat2_apply(m, d.c2), mono, d.sign
    )


def document(d) -> dict:
    """Schema document for a diagram."""
    if isinstance(d, Genus2Diagram):
        mono = {"type": "identity"} if d.exponent == 0 else {"type": "twist", "exponent": d.exponent}
        doc = {"model": "genus2"}
        for name in ("a1", "b1", "c1", "a2", "b2", "c2"):
            doc[name] = list(getattr(d, name))
        doc["monodromy"] = mono
        return doc
    m = d.monodromy
    if m.is_identity and m.core is None:
        mono = {"type": "identity"}
    else:
        mono = {"type": "twist", "core": list(m.core), "exponent": m.exponent}
    return {
        "model": "torus",
        "a2": list(d.a2),
        "b2": list(d.b2),
        "c2": list(d.c2),
        "monodromy": mono,
        "sign": d.sign,
    }


# ---------------------------------------------------------------- batch-mixed


@dataclass(frozen=True)
class BatchDoc:
    """One JSON document and what the pipeline must make of it.

    kind is "genus2", "torus" or "invalid".  parsed is the diagram
    parse_document must return (None if it must reject the document).
    reference is a torus diagram whose answers a valid document must
    reproduce; an invalid document must be refused, at whatever stage.
    """

    text: str
    kind: str
    parsed: object
    reference: TorusDiagram | None


INVALID_SHARE = 0.06
GENUS2_SHARE = 0.47


def _schema_error(rng) -> str:
    doc = document(torus(rng))
    case = rng.randrange(6)
    if case == 0:
        doc["color"] = "blue"
    elif case == 1:
        del doc["sign"]
    elif case == 2:
        doc["sign"] = True
    elif case == 3:
        doc["a2"] = [doc["a2"][0], "1e3"]
    elif case == 4:
        doc["model"] = "sphere"
    else:
        doc["monodromy"] = {"type": "shear", "exponent": 1}
    return json.dumps(doc)


def _invalid_doc(rng) -> BatchDoc:
    case = rng.randrange(7)
    if case == 0:
        return BatchDoc(_schema_error(rng), "invalid", None, None)
    if case == 1:
        # Exponent outside {+-1, +-4}.
        t = torus(rng)
        core = t.monodromy.core or primitive2(rng)
        bad = TorusDiagram(t.a2, t.b2, t.c2, Monodromy(core, rng.choice((2, -3, 5))), t.sign)
        return BatchDoc(json.dumps(document(bad)), "invalid", bad, None)
    if case == 2:
        # A non-primitive torus class.
        t = torus(rng)
        bad = TorusDiagram((2 * t.a2[0], 2 * t.a2[1]), t.b2, t.c2, t.monodromy, t.sign)
        return BatchDoc(json.dumps(document(bad)), "invalid", bad, None)
    if case == 3:
        g = move_off_standard(rng, embed_torus(torus(rng)))
        bad = Genus2Diagram(g.a1, g.b1, g.c1, g.a2, g.b2, g.c2, rng.choice((2, 3, -5)))
        return BatchDoc(json.dumps(document(bad)), "invalid", bad, None)
    if case == 4:
        # Non-primitive a1 (which also breaks the triple pairing).
        g = embed_torus(torus(rng))
        bad = Genus2Diagram(tuple(2 * c for c in g.a1), g.b1, g.c1, g.a2, g.b2, g.c2, g.exponent)
        return BatchDoc(json.dumps(document(bad)), "invalid", bad, None)
    if case == 5:
        # Accepted by validate_genus2, refused by the projection: a
        # non-primitive a2 under twist monodromy.
        while True:
            t = torus(rng)
            if not t.monodromy.is_identity:
                break
        g = embed_torus(t)
        g = Genus2Diagram(g.a1, g.b1, g.c1, tuple(2 * c for c in g.a2), g.b2, g.c2, g.exponent)
        bad = move_off_standard(rng, g)
        return BatchDoc(json.dumps(document(bad)), "invalid", bad, None)
    # Accepted by validate_genus2, refused by the projection: identity
    # monodromy although a1+b1+c1 projects to a nonzero core.
    a2, b2, c2 = _pairwise_unit_triple(rng)
    g = embed_torus(TorusDiagram(a2, b2, c2, Monodromy.twist(primitive2(rng), 1), rng.choice((1, -1))))
    g = Genus2Diagram(g.a1, g.b1, g.c1, g.a2, g.b2, g.c2, 0)
    bad = move_off_standard(rng, g)
    return BatchDoc(json.dumps(document(bad)), "invalid", bad, None)


def batch_doc(rng) -> BatchDoc:
    r = rng.random()
    if r < INVALID_SHARE:
        return _invalid_doc(rng)
    t = torus(rng)
    if r < INVALID_SHARE + GENUS2_SHARE:
        g = move_off_standard(rng, embed_torus(t))
        return BatchDoc(json.dumps(document(g)), "genus2", g, t)
    # A torus document is checked against the same diagram in another
    # basis, so its answers must not depend on the basis it is written in.
    return BatchDoc(json.dumps(document(t)), "torus", t, basis_change(t, unimodular(rng)))


# ----------------------------------------------------------------- orbit-walk


@dataclass(frozen=True)
class OrbitItem:
    """A torus diagram, and the genus-2 lift to walk from instead (or None)."""

    diagram: TorusDiagram
    lift: Genus2Diagram | None


def orbit_item(rng, genus2: bool) -> OrbitItem:
    t = torus(rng)
    return OrbitItem(t, move_off_standard(rng, embed_torus(t)) if genus2 else None)


# --------------------------------------------------------------------- census


def box_primitives(radius: int) -> list[tuple[int, int]]:
    return [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if math.gcd(x, y) == 1
    ]


class CensusBox:
    """Torus diagrams with a2 = (1, 0), sign +1, b2, c2 and the core primitive
    in the box of the given radius, and exponent in {+-1, +-4}."""

    def __init__(self, radius: int):
        self.prims = box_primitives(radius)
        self.size = len(self.prims) ** 3 * len(TWIST_EXPONENTS)

    def diagram(self, i: int) -> TorusDiagram:
        n = len(self.prims)
        i, k = divmod(i, len(TWIST_EXPONENTS))
        i, core = divmod(i, n)
        b2, c2 = divmod(i, n)
        return TorusDiagram(
            (1, 0),
            self.prims[b2],
            self.prims[c2],
            Monodromy.twist(self.prims[core], TWIST_EXPONENTS[k]),
            1,
        )
