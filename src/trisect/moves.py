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
equivalent_torus reads an explicit witness off the two canonical forms.

On canonical forms the moves generate a graph of one or three nodes,
which orbit builds in closed form; its docstring says why.
"""

from __future__ import annotations

from .diagram import (
    Genus2Diagram,
    Monodromy,
    TorusDiagram,
    _core_lift,
    _FieldTable,
    _IDENTITY,
    _invariant,
    _marked_torus,
    _moved_genus2,
    _moved_torus,
    _rotations,
    _Value,
    require_valid_genus2,
    require_valid_torus,
)
from .lattice import (
    Mat2,
    _complete,
    _require_bool,
    mat2_apply,
    mat2_inv,
    mat2_mul,
    transvect,
)

SIGMA1 = "D1"
SIGMA1_INV = "D1'"
SIGMA2 = "D2"
SIGMA2_INV = "D2'"
TOKENS = (SIGMA1, SIGMA1_INV, SIGMA2, SIGMA2_INV)

ROTATION_WORD = (SIGMA1, SIGMA1, SIGMA1)


class WordError(ValueError):
    """A move word could not be parsed or applied."""


def apply_sigma1(d: Genus2Diagram) -> Genus2Diagram:
    """Outer-circle rotation on the genus-2 model.

    Cycles the first triple to (b1, c1, a1) and applies the twist along
    t_{a1}(b1) to the second triple.  The new a1 = b1 stays disjoint from
    the twisted classes, so validity is preserved; so is the intersection
    invariant of the projection.
    """
    require_valid_genus2(d)
    return _outer(d, d.b1, d.c1, d.a1, transvect(d.a1, 1, d.b1), 1)


def apply_sigma1_inverse(d: Genus2Diagram) -> Genus2Diagram:
    """Inverse of apply_sigma1: cycle to (c1, a1, b1), untwist along t_{c1}(a1)."""
    require_valid_genus2(d)
    return _outer(d, d.c1, d.a1, d.b1, transvect(d.c1, 1, d.a1), -1)


def _outer(d: Genus2Diagram, a1, b1, c1, core, k: int) -> Genus2Diagram:
    """The step both outer rotations share: set the first triple to
    (a1, b1, c1), then twist the second triple k times along core."""
    return _moved_genus2(
        d, a1, b1, c1, transvect(core, k, d.a2), transvect(core, k, d.b2), transvect(core, k, d.c2)
    )


def apply_sigma2(d):
    """Inner-circle rotation: (a2, b2, c2) -> (b2, mu^-1(c2), a2).

    Acts on both models.  On the genus-2 model mu^-1 lifts to the
    transvection along a1 + b1 + c1, which projects onto the twist core
    and pairs with a1-disjoint classes exactly as the core does, so the
    move commutes with surgery_project.
    """
    if isinstance(d, Genus2Diagram):
        require_valid_genus2(d)
        c2 = transvect(_core_lift(d), -d.exponent, d.c2)
        return _moved_genus2(d, d.a1, d.b1, d.c1, d.b2, c2, d.a2)
    require_valid_torus(d)
    return _moved_torus(d, d.b2, d.monodromy.inverse_apply(d.c2), d.a2)


def apply_sigma2_inverse(d):
    """Inverse inner-circle rotation: (a2, b2, c2) -> (c2, a2, mu(b2))."""
    if isinstance(d, Genus2Diagram):
        require_valid_genus2(d)
        b2 = transvect(_core_lift(d), d.exponent, d.b2)
        return _moved_genus2(d, d.a1, d.b1, d.c1, d.c2, d.a2, b2)
    require_valid_torus(d)
    return _moved_torus(d, d.c2, d.a2, d.monodromy.apply(d.b2))


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


# Each token -> the move it applies.
_MOVES = {
    SIGMA1: apply_sigma1,
    SIGMA1_INV: apply_sigma1_inverse,
    SIGMA2: apply_sigma2,
    SIGMA2_INV: apply_sigma2_inverse,
}


def _move(t):
    """_MOVES[t]; WordError when t is no token, TypeError when it is unhashable."""
    if t in _MOVES:
        return _MOVES[t]
    raise WordError(f"unknown move token {t!r} (expected one of {', '.join(TOKENS)})")


def parse_word(text: str) -> tuple[str, ...]:
    """Parse a comma-separated move word such as "D2,D2',D1"."""
    if not isinstance(text, str):
        raise TypeError(f"move word must be a str, not {type(text).__name__}")
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    for t in tokens:
        _move(t)
    return tokens


def word_to_diagram(d, word):
    """Apply a move word, a sequence of tokens, left to right; the result
    has d's model, and a D1 token on a diagram that is not a Genus2Diagram
    is refused before it is looked up.  word_to_torus is this function."""
    # A str is a sequence of characters, so its tokens would be "D", "2".
    if isinstance(word, str):
        raise WordError(f"move word {word!r} is a str: pass parse_word(text)")
    for t in word:
        if t in (SIGMA1, SIGMA1_INV) and not isinstance(d, Genus2Diagram):
            raise WordError("sigma1 requires genus2 model")
        d = _move(t)(d)
    return d


word_to_torus = word_to_diagram


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
    return _canonical(d.a2, d.b2, d.c2, d.monodromy, d.sign, True)


def _canonical(a2, b2, c2, mono, sign, basis=False):
    """The canonical diagram of a valid diagram's classes, or canonical_form's
    pair (diagram, B) when basis is set; B is built only then."""
    p, q, r, s = _complete(*a2)
    b0, b1 = b2
    c0, c1 = c2
    xb, yb = p * b0 + q * b1, r * b0 + s * b1
    xc, yc = p * c0 + q * c1, r * c0 + s * c1
    k = mono.exponent
    if k:
        d0, d1 = mono.core
        xd, yd = p * d0 + q * d1, r * d0 + s * d1
    # The shear is picked by the first of b2, c2 and the core that is not
    # parallel to a2, the first whose image (x, y) has y != 0.
    x, y = (xb, yb) if yb else (xc, yc) if yc or not k else (xd, yd)
    t = 0
    if y:
        m = abs(y)
        t0 = x % m
        if 2 * t0 < m:
            target = t0
        elif 2 * t0 > m or y > 0:
            target = t0 - m
        else:
            target = t0
        t = (target - x) // y
    # B is the shear ((1, t), (0, 1)) times the completion; the shear fixes
    # (1, 0), so B sends a2 to (1, 0) exactly, and it adds t*y to each x.
    xb += t * yb
    xc += t * yc
    # Each image is sign-normalized: x > 0, or x == 0 and y > 0.
    b2 = (-xb, -yb) if xb < 0 or (xb == 0 and yb < 0) else (xb, yb)
    c2 = (-xc, -yc) if xc < 0 or (xc == 0 and yc < 0) else (xc, yc)
    if k:
        xd += t * yd
        core = (-xd, -yd) if xd < 0 or (xd == 0 and yd < 0) else (xd, yd)
        mono = Monodromy._build(Monodromy, core, k)
    else:
        mono = _IDENTITY
    # Every class is a tuple and the monodromy an exact Monodromy.
    v = _marked_torus((1, 0), b2, c2, mono, sign)
    return (v, ((p + t * r, q + t * s), (r, s))) if basis else v


class EquivalenceWitness(_Value):
    """Determinant-1 matrix and per-class signs carrying one diagram to another.

    flips lists the signs for (a2, b2, c2) and, for twist monodromy, the
    core, in that order: matrix applied to each source class equals the
    flip times the corresponding target class.
    """

    _fields = ("matrix", "flips")
    __slots__ = _fields


def equivalent_torus(d1: TorusDiagram, d2: TorusDiagram) -> EquivalenceWitness | None:
    """Witness that d1 and d2 differ by a basis change and sign flips.

    Exponent and sign field must agree.  Returns None exactly when the
    canonical forms differ; a witness exists exactly when they are equal.
    """
    # The canonical form keeps the exponent and the sign field, so equal
    # forms agree on both, and the core is on both sides or on neither.
    c1, b1 = canonical_form(d1)
    c2, b2 = canonical_form(d2)
    if c1 != c2:
        return None
    # b1 and b2 carry each class of d1 and d2 to the same canonical class up
    # to sign, so m = b2^-1 b1 carries each class of d1 to +- that of d2.
    m = mat2_mul(mat2_inv(b2), b1)
    pairs = [(d1.a2, d2.a2), (d1.b2, d2.b2), (d1.c2, d2.c2)]
    if d1.monodromy.exponent:
        pairs.append((d1.monodromy.core, d2.monodromy.core))
    # Compared as tuples, so a class given as a list matches too.
    flips = tuple([1 if mat2_apply(m, v) == (w0, w1) else -1 for v, (w0, w1) in pairs])
    return EquivalenceWitness(matrix=m, flips=flips)


class OrbitNode(_Value):
    _fields = ("index", "diagram", "invariant")
    __slots__ = _fields


class OrbitGraph(_Value):
    _fields = ("nodes", "edges")
    __slots__ = _fields
    __dataclass_fields__ = _FieldTable()
    nodes: tuple[OrbitNode, ...]
    edges: tuple[tuple[int, str, int], ...]


def _rotated_form(v: TorusDiagram) -> TorusDiagram:
    """Canonical form of the inner rotation of the valid diagram v, computed
    from the rotated classes (b2, mu^-1(c2), a2) without building the
    rotated diagram."""
    mono = v.monodromy
    return _canonical(v.b2, mono.inverse_apply(v.c2), v.a2, mono, v.sign)


def _orbit_edges(expanded, n) -> tuple[tuple, tuple]:
    """Edges of the expanded nodes of an n-node orbit, without and with
    the outer-rotation self-loops."""
    plain, outer = [], []
    for i in expanded:
        step = [(i, SIGMA2, (i + 1) % n), (i, SIGMA2_INV, (i - 1) % n)]
        plain += step
        outer += step + [(i, SIGMA1, i), (i, SIGMA1_INV, i)]
    return tuple(plain), tuple(outer)


# Every edge list orbit can return, indexed by the truth of include_sigma1.
_EDGES_ONE = _orbit_edges([0], 1)
_EDGES_DEPTH1 = _orbit_edges([0], 3)
_EDGES_12 = _orbit_edges([0, 1, 2], 3)
_EDGES_21 = _orbit_edges([0, 2, 1], 3)


def _check_depth(depth) -> None:
    if depth is True or depth is False:
        raise TypeError("depth must be a number, not bool")
    try:
        if not depth >= 0:
            raise ValueError("depth must be nonnegative")
    except TypeError:
        raise TypeError(f"depth must be a number, not {type(depth).__name__}") from None


def orbit(
    start: TorusDiagram,
    depth: int,
    include_sigma1: bool = False,
    lift: Genus2Diagram | None = None,
) -> OrbitGraph:
    """Move orbit of the canonical form of start, in closed form.

    Nodes are canonical torus diagrams.  The cube of the inner rotation is
    a basis change, so the orbit is {V, s2 V, s2^2 V}: one node, or three
    that the inner rotation cycles in index order.  It has three nodes
    exactly when I(V) != (0, 0, 0), as diagram.rotations_inequivalent
    proves, so a one-node orbit builds no rotated form.  The outer
    rotation (both directions, when include_sigma1 is set) changes the
    projection of any valid lift only by a basis change, so its edges are
    self-loops.  lift, a genus-2 diagram projecting to start, is accepted
    for callers that hold one; it does not change the result.

    Only node 0's invariant is computed; the three node invariants are
    the rows of diagram._rotations, whose docstring proves them.

    Edges come from fixed tables in breadth-first order: node 0 at depth
    1, then nodes 1 and 2 at depth 2 and beyond, in the lexicographic
    order of the key (exponent, core, a2, b2, c2, sign).  They are
    ordered by (core, b2, c2) alone.  Proof: canonical nodes all have
    a2 = (1, 0), and the moves keep the exponent and the sign, so the
    keys of nodes 1 and 2 agree there; a 3-node orbit has I(V) !=
    (0, 0, 0), so its exponent k is not 0 and every node has a core.
    """
    _check_depth(depth)
    _require_bool(include_sigma1, "include_sigma1")
    require_valid_torus(start)
    v0 = _canonical(start.a2, start.b2, start.c2, start.monodromy, start.sign)
    inv = _invariant(v0)
    node, graph = OrbitNode._build, OrbitGraph._build
    if not depth > 0:
        return graph(OrbitGraph, (node(OrbitNode, 0, v0, inv),), ())
    if inv == (0, 0, 0):
        return graph(OrbitGraph, (node(OrbitNode, 0, v0, inv),), _EDGES_ONE[include_sigma1])
    v1 = _rotated_form(v0)
    v2 = _rotated_form(v1)
    if not depth > 1:
        edges = _EDGES_DEPTH1
    elif (v1.monodromy.core, v1.b2, v1.c2) <= (v2.monodromy.core, v2.b2, v2.c2):
        edges = _EDGES_12
    else:
        edges = _EDGES_21
    inv0, inv1, inv2 = _rotations(inv)
    nodes = node(OrbitNode, 0, v0, inv0), node(OrbitNode, 1, v1, inv1), node(OrbitNode, 2, v2, inv2)
    return graph(OrbitGraph, nodes, edges[include_sigma1])
