"""Reference-path moves on trisection diagrams and torus-diagram equivalence.

Two generating moves act on the models.  The inner-circle rotation (token
D2) cycles the second triple while pulling c2 back through the monodromy:
(a2, b2, c2) -> (b2, mu^-1(c2), a2).  Its cube acts entrywise by mu^-1,
which is a plain basis change of the torus; sigma2_cubed_witness returns
that matrix.  The outer-circle rotation (token D1) needs the genus-2
model: it cycles (a1, b1, c1) -> (b1, c1, a1) and twists the second
triple along t_{a1}(b1).

Words in the moves are free; no relations are imposed.  The derived word
ROTATION_WORD = (D1, D1, D1) restores the outer triple through the
standard lift; the projected torus diagram comes back changed by a
single twist along the core in the direction of the stored sign
(exactly unchanged for identity monodromy), so every canonical form is
fixed.

Torus diagrams are compared up to unimodular basis change and individual
sign flips of the classes, with exponent and sign field fixed:
canonical_form computes a unique orbit representative and
equivalent_torus produces an explicit witness.

On canonical forms the moves generate a small graph, which orbit builds
in closed form: the inner rotation cycles at most three nodes, because
its cube is a basis change, and the outer rotation fixes every node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (
    Genus2Diagram,
    Monodromy,
    TorusDiagram,
    _mark_genus2,
    _mark_torus,
    intersection_invariant,
    require_valid_genus2,
    require_valid_torus,
)
from .lattice import (
    Mat2,
    Vec2,
    mat2_apply,
    mat2_inv,
    mat2_mul,
    pair2,
    sl2_complete,
    transvect,
)

SIGMA1 = "D1"
SIGMA1_INV = "D1'"
SIGMA2 = "D2"
SIGMA2_INV = "D2'"
TOKENS = (SIGMA1, SIGMA1_INV, SIGMA2, SIGMA2_INV)
_INVERSE = {SIGMA1: SIGMA1_INV, SIGMA1_INV: SIGMA1, SIGMA2: SIGMA2_INV, SIGMA2_INV: SIGMA2}

ROTATION_WORD = (SIGMA1, SIGMA1, SIGMA1)


class WordError(ValueError):
    """A move word could not be parsed or applied."""


def parse_word(text: str) -> tuple[str, ...]:
    """Parse a comma-separated move word such as "D2,D2',D1"."""
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    for t in tokens:
        if t not in TOKENS:
            raise WordError(f"unknown move token {t!r} (expected one of {', '.join(TOKENS)})")
    return tuple(tokens)


def reduce_word(word) -> tuple[str, ...]:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    stack: list[str] = []
    for t in word:
        if stack and stack[-1] == _INVERSE[t]:
            stack.pop()
        else:
            stack.append(t)
    return tuple(stack)


def apply_sigma1(d: Genus2Diagram) -> Genus2Diagram:
    """Outer-circle rotation on the genus-2 model.

    Cycles the first triple to (b1, c1, a1) and applies the twist along
    t_{a1}(b1) to the second triple.  The new a1 = b1 stays disjoint from
    the twisted classes, so validity is preserved; so is the intersection
    invariant of the projection.
    """
    require_valid_genus2(d)
    core = transvect(d.a1, 1, d.b1)
    out = Genus2Diagram(
        a1=d.b1,
        b1=d.c1,
        c1=d.a1,
        a2=transvect(core, 1, d.a2),
        b2=transvect(core, 1, d.b2),
        c2=transvect(core, 1, d.c2),
        exponent=d.exponent,
    )
    return _mark_genus2(out)


def apply_sigma1_inverse(d: Genus2Diagram) -> Genus2Diagram:
    """Inverse of apply_sigma1: cycle to (c1, a1, b1), untwist along t_{c1}(a1)."""
    require_valid_genus2(d)
    core = transvect(d.c1, 1, d.a1)
    out = Genus2Diagram(
        a1=d.c1,
        b1=d.a1,
        c1=d.b1,
        a2=transvect(core, -1, d.a2),
        b2=transvect(core, -1, d.b2),
        c2=transvect(core, -1, d.c2),
        exponent=d.exponent,
    )
    return _mark_genus2(out)


def apply_sigma2(d):
    """Inner-circle rotation: (a2, b2, c2) -> (b2, mu^-1(c2), a2).

    Acts on both models.  On the genus-2 model mu^-1 lifts to the
    transvection along a1 + b1 + c1, which projects onto the twist core
    and pairs with a1-disjoint classes exactly as the core does, so the
    move commutes with surgery_project.
    """
    if isinstance(d, Genus2Diagram):
        require_valid_genus2(d)
        core = tuple(x + y + z for x, y, z in zip(d.a1, d.b1, d.c1))
        out = Genus2Diagram(
            a1=d.a1,
            b1=d.b1,
            c1=d.c1,
            a2=d.b2,
            b2=transvect(core, -d.exponent, d.c2),
            c2=d.a2,
            exponent=d.exponent,
        )
        return _mark_genus2(out)
    require_valid_torus(d)
    out = TorusDiagram(
        a2=d.b2,
        b2=d.monodromy.inverse_apply(d.c2),
        c2=d.a2,
        monodromy=d.monodromy,
        sign=d.sign,
    )
    return _mark_torus(out)


def apply_sigma2_inverse(d):
    """Inverse inner-circle rotation: (a2, b2, c2) -> (c2, a2, mu(b2))."""
    if isinstance(d, Genus2Diagram):
        require_valid_genus2(d)
        core = tuple(x + y + z for x, y, z in zip(d.a1, d.b1, d.c1))
        out = Genus2Diagram(
            a1=d.a1,
            b1=d.b1,
            c1=d.c1,
            a2=d.c2,
            b2=d.a2,
            c2=transvect(core, d.exponent, d.b2),
            exponent=d.exponent,
        )
        return _mark_genus2(out)
    require_valid_torus(d)
    out = TorusDiagram(
        a2=d.c2,
        b2=d.a2,
        c2=d.monodromy.apply(d.b2),
        monodromy=d.monodromy,
        sign=d.sign,
    )
    return _mark_torus(out)


def sigma2_cubed_witness(d: TorusDiagram) -> Mat2:
    """Basis change exhibiting the cube of the inner rotation as trivial.

    Three inner rotations send each class to its image under mu^-1 and fix
    the core, so the matrix of mu^-1 carries the diagram to its image.
    Identity monodromy returns the identity matrix.
    """
    require_valid_torus(d)
    col1 = d.monodromy.inverse_apply((1, 0))
    col2 = d.monodromy.inverse_apply((0, 1))
    return ((col1[0], col2[0]), (col1[1], col2[1]))


_TORUS_STEPS = {SIGMA2: apply_sigma2, SIGMA2_INV: apply_sigma2_inverse}
_GENUS2_STEPS = {
    SIGMA1: apply_sigma1,
    SIGMA1_INV: apply_sigma1_inverse,
    SIGMA2: apply_sigma2,
    SIGMA2_INV: apply_sigma2_inverse,
}


def word_to_diagram(d: Genus2Diagram, word) -> Genus2Diagram:
    """Apply a move word left to right on the genus-2 model."""
    for t in word:
        if t not in _GENUS2_STEPS:
            raise WordError(f"unknown move token {t!r}")
        d = _GENUS2_STEPS[t](d)
    return d


def word_to_torus(d: TorusDiagram, word) -> TorusDiagram:
    """Apply a move word on the torus model; D1 tokens need the genus-2 model."""
    for t in word:
        if t in (SIGMA1, SIGMA1_INV):
            raise WordError("sigma1 requires genus2 model")
        if t not in _TORUS_STEPS:
            raise WordError(f"unknown move token {t!r}")
        d = _TORUS_STEPS[t](d)
    return d


def _normalize_sign(v: Vec2) -> Vec2:
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def canonical_form(d: TorusDiagram) -> tuple[TorusDiagram, Mat2]:
    """Unique representative of the basis-change-and-flip orbit.

    Returns (canonical diagram, B) where B is a determinant-1 matrix with
    B applied to each class equal to the canonical class up to sign.  The
    recipe: send a2 to (1, 0) by sl2_complete, then pick the unique upper
    shear that lexicographically minimizes the sign-normalized image of
    the first class among (b2, c2, core) not parallel to a2, then
    sign-normalize every class.  Idempotent, and constant on orbits.
    """
    require_valid_torus(d)
    m0 = sl2_complete(d.a2)
    rest = [d.b2, d.c2]
    if not d.monodromy.is_identity:
        rest.append(d.monodromy.core)
    shear = 0
    for v in rest:
        x, y = mat2_apply(m0, v)
        if y == 0:
            continue
        m = abs(y)
        t0 = x % m
        if 2 * t0 < m:
            target = t0
        elif 2 * t0 > m or y > 0:
            target = t0 - m
        else:
            target = t0
        shear = (target - x) // y
        break
    b = mat2_mul(((1, shear), (0, 1)), m0)
    mono = d.monodromy
    if not mono.is_identity:
        mono = Monodromy.twist(_normalize_sign(mat2_apply(b, mono.core)), mono.exponent)
    out = TorusDiagram(
        a2=_normalize_sign(mat2_apply(b, d.a2)),
        b2=_normalize_sign(mat2_apply(b, d.b2)),
        c2=_normalize_sign(mat2_apply(b, d.c2)),
        monodromy=mono,
        sign=d.sign,
    )
    return _mark_torus(out), b


@dataclass(frozen=True)
class EquivalenceWitness:
    """Determinant-1 matrix and per-class signs carrying one diagram to another.

    flips lists the signs for (a2, b2, c2) and, for twist monodromy, the
    core, in that order: matrix applied to each source class equals the
    flip times the corresponding target class.
    """

    matrix: Mat2
    flips: tuple[int, ...]


def _witness_classes(d: TorusDiagram) -> list[Vec2]:
    out = [d.a2, d.b2, d.c2]
    if not d.monodromy.is_identity:
        out.append(d.monodromy.core)
    return out


def equivalent_torus(d1: TorusDiagram, d2: TorusDiagram) -> EquivalenceWitness | None:
    """Witness that d1 and d2 differ by a basis change and sign flips.

    Exponent and sign field must agree.  Returns None when no witness
    exists; existence coincides with equality of canonical forms.
    """
    require_valid_torus(d1)
    require_valid_torus(d2)
    if d1.sign != d2.sign or d1.monodromy.exponent != d2.monodromy.exponent:
        return None
    vs = _witness_classes(d1)
    ws = _witness_classes(d2)
    n = len(vs)
    pivot = None
    for i in range(n):
        for j in range(i + 1, n):
            if pair2(vs[i], vs[j]) != 0:
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        # Every source class is parallel to vs[0]; the basis change is
        # determined up to the stabilizer, any completion works.
        if any(pair2(ws[i], ws[j]) != 0 for i in range(n) for j in range(i + 1, n)):
            return None
        m = mat2_mul(mat2_inv(sl2_complete(ws[0])), sl2_complete(vs[0]))
        return _finish_witness(m, vs, ws)
    i, j = pivot
    p = pair2(vs[i], vs[j])
    vm = ((vs[i][0], vs[j][0]), (vs[i][1], vs[j][1]))
    adj = ((vm[1][1], -vm[0][1]), (-vm[1][0], vm[0][0]))
    for e1 in (1, -1):
        for e2 in (1, -1):
            wm = ((e1 * ws[i][0], e2 * ws[j][0]), (e1 * ws[i][1], e2 * ws[j][1]))
            num = mat2_mul(wm, adj)
            if any(c % p for row in num for c in row):
                continue
            m = tuple(tuple(c // p for c in row) for row in num)
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1:
                continue
            witness = _finish_witness(m, vs, ws)
            if witness is not None:
                return witness
    return None


def _finish_witness(m: Mat2, vs, ws) -> EquivalenceWitness | None:
    flips = []
    for v, w in zip(vs, ws):
        img = mat2_apply(m, v)
        if img == w:
            flips.append(1)
        elif img == (-w[0], -w[1]):
            flips.append(-1)
        else:
            return None
    return EquivalenceWitness(matrix=m, flips=tuple(flips))


@dataclass(frozen=True)
class OrbitNode:
    index: int
    diagram: TorusDiagram
    invariant: tuple[int, int, int]


@dataclass(frozen=True)
class OrbitGraph:
    nodes: tuple[OrbitNode, ...]
    edges: tuple[tuple[int, str, int], ...]


def _node_key(d: TorusDiagram):
    core = d.monodromy.core if d.monodromy.core is not None else (0, 0)
    return (d.monodromy.exponent, core, d.a2, d.b2, d.c2, d.sign)


def orbit(
    start: TorusDiagram,
    depth: int,
    include_sigma1: bool = False,
    lift: Genus2Diagram | None = None,
) -> OrbitGraph:
    """Move orbit of the canonical form of start, in closed form.

    Nodes are canonical torus diagrams.  The cube of the inner rotation is
    a basis change, so the orbit is {V, s2 V, s2^2 V}: one node, or three
    that the inner rotation cycles in index order.  The outer rotation
    (both directions, when include_sigma1 is set) changes the projection
    of any valid lift only by a basis change, so its edges are self-loops.
    lift, a genus-2 diagram projecting to start, is accepted for callers
    that hold one; it does not change the result.

    Edges are listed in breadth-first order: node 0 at depth 1, then nodes
    1 and 2 in lexicographic node-key order at depth 2 and beyond.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    v0, _ = canonical_form(start)
    diagrams = [v0]
    if depth > 0:
        v1, _ = canonical_form(apply_sigma2(v0))
        if v1 != v0:
            diagrams += [v1, canonical_form(apply_sigma2(v1))[0]]
    n = len(diagrams)
    expanded = [0] if depth > 0 else []
    if depth > 1:
        expanded += sorted(range(1, n), key=lambda i: _node_key(diagrams[i]))
    edges = []
    for i in expanded:
        edges += [(i, SIGMA2, (i + 1) % n), (i, SIGMA2_INV, (i - 1) % n)]
        if include_sigma1:
            edges += [(i, SIGMA1, i), (i, SIGMA1_INV, i)]

    nodes = tuple(
        OrbitNode(index=i, diagram=dgm, invariant=intersection_invariant(dgm))
        for i, dgm in enumerate(diagrams)
    )
    return OrbitGraph(nodes=nodes, edges=tuple(edges))
