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

On canonical forms the moves generate a small graph, which orbit builds
in closed form: the inner rotation cycles at most three nodes, because
its cube is a basis change, and the outer rotation fixes every node.
There is one node exactly when I(V) = (0, 0, 0), as
diagram.rotations_inequivalent proves.  Each rotation (b2, mu^-1(c2),
a2) is canonicalised straight from its classes, without building the
rotated diagram, and the node invariants are the rows of
diagram._rotations, whose docstring proves them.
"""

from __future__ import annotations

# OrbitGraph keeps a bare @dataclass(init=False, repr=False, eq=False), as
# vertical.SixTuple does, only because perfbench/test_oracles.py builds
# altered graphs with dataclasses.replace.  Every value class here is a
# diagram._Value.
from dataclasses import dataclass

from .diagram import (
    Genus2Diagram,
    Monodromy,
    TorusDiagram,
    _core_lift,
    _mark,
    _rotations,
    _trusted,
    _Value,
    intersection_invariant,
    require_valid_genus2,
    require_valid_torus,
)
from .lattice import (
    Mat2,
    Vec2,
    _complete,
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
    out = Genus2Diagram(
        a1=a1,
        b1=b1,
        c1=c1,
        a2=transvect(core, k, d.a2),
        b2=transvect(core, k, d.b2),
        c2=transvect(core, k, d.c2),
        exponent=d.exponent,
    )
    return _mark(out)


def apply_sigma2(d):
    """Inner-circle rotation: (a2, b2, c2) -> (b2, mu^-1(c2), a2).

    Acts on both models.  On the genus-2 model mu^-1 lifts to the
    transvection along a1 + b1 + c1, which projects onto the twist core
    and pairs with a1-disjoint classes exactly as the core does, so the
    move commutes with surgery_project.
    """
    if isinstance(d, Genus2Diagram):
        require_valid_genus2(d)
        return _inner(d, d.b2, transvect(_core_lift(d), -d.exponent, d.c2), d.a2)
    require_valid_torus(d)
    mono = d.monodromy
    return _mark(TorusDiagram(d.b2, mono.inverse_apply(d.c2), d.a2, mono, d.sign))


def apply_sigma2_inverse(d):
    """Inverse inner-circle rotation: (a2, b2, c2) -> (c2, a2, mu(b2))."""
    if isinstance(d, Genus2Diagram):
        require_valid_genus2(d)
        return _inner(d, d.c2, d.a2, transvect(_core_lift(d), d.exponent, d.b2))
    require_valid_torus(d)
    mono = d.monodromy
    return _mark(TorusDiagram(d.c2, d.a2, mono.apply(d.b2), mono, d.sign))


def _inner(d: Genus2Diagram, a2, b2, c2) -> Genus2Diagram:
    """The step both inner rotations share on the genus-2 model: keep the
    first triple and set the second to (a2, b2, c2)."""
    return _mark(Genus2Diagram(d.a1, d.b1, d.c1, a2, b2, c2, d.exponent))


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


# Each token -> (its inverse token, the move it applies).
_MOVES = {
    SIGMA1: (SIGMA1_INV, apply_sigma1),
    SIGMA1_INV: (SIGMA1, apply_sigma1_inverse),
    SIGMA2: (SIGMA2_INV, apply_sigma2),
    SIGMA2_INV: (SIGMA2, apply_sigma2_inverse),
}


def _move(t) -> tuple:
    """_MOVES[t]; WordError when t is no token, TypeError when it is unhashable."""
    if t in _MOVES:
        return _MOVES[t]
    raise WordError(f"unknown move token {t!r} (expected one of {', '.join(TOKENS)})")


def _refuse_str(word) -> None:
    # A str is a sequence of characters, so its tokens would be "D", "2".
    if isinstance(word, str):
        raise WordError(f"move word {word!r} is a str: pass parse_word(text)")


def parse_word(text: str) -> tuple[str, ...]:
    """Parse a comma-separated move word such as "D2,D2',D1"."""
    tokens = tuple(t.strip() for t in text.split(",") if t.strip())
    for t in tokens:
        _move(t)
    return tokens


def reduce_word(word) -> tuple[str, ...]:
    """Free reduction of a sequence of tokens: cancel adjacent inverse
    pairs until none remain."""
    _refuse_str(word)
    stack: list[str] = []
    for t in word:
        inverse, _ = _move(t)
        if stack and stack[-1] == inverse:
            stack.pop()
        else:
            stack.append(t)
    return tuple(stack)


def word_to_diagram(d, word):
    """Apply a move word, a sequence of tokens, left to right; the result
    has d's model, and a D1 token on a diagram that is not a Genus2Diagram
    is refused before it is looked up.  word_to_torus is this function."""
    _refuse_str(word)
    for t in word:
        if t in (SIGMA1, SIGMA1_INV) and not isinstance(d, Genus2Diagram):
            raise WordError("sigma1 requires genus2 model")
        d = _move(t)[1](d)
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
    return _canonical(d.a2, d.b2, d.c2, d.monodromy, d.sign)


def _canonical(a2, b2, c2, mono, sign) -> tuple[TorusDiagram, Mat2]:
    """canonical_form on the classes of a diagram known to be valid."""
    p, q, r, s = _complete(*a2)
    k = mono.exponent
    rest = (b2, c2) if k == 0 else (b2, c2, mono.core)
    t = 0
    for v0, v1 in rest:
        y = r * v0 + s * v1
        if y == 0:
            continue
        x = p * v0 + q * v1
        m = abs(y)
        t0 = x % m
        if 2 * t0 < m:
            target = t0
        elif 2 * t0 > m or y > 0:
            target = t0 - m
        else:
            target = t0
        t = (target - x) // y
        break
    # B is the shear ((1, t), (0, 1)) times the completion; the shear fixes
    # (1, 0), so B sends a2 to (1, 0) exactly.
    p += t * r
    q += t * s
    imgs = []
    for v0, v1 in rest:
        x = p * v0 + q * v1
        y = r * v0 + s * v1
        imgs.append((-x, -y) if x < 0 or (x == 0 and y < 0) else (x, y))
    # Every class and the monodromy are built here as new tuples and an
    # exact Monodromy.
    out = TorusDiagram(
        (1, 0), imgs[0], imgs[1], Monodromy(None, 0) if k == 0 else Monodromy(imgs[2], k), sign
    )
    return _trusted(out), ((p, q), (r, s))


class EquivalenceWitness(_Value):
    """Determinant-1 matrix and per-class signs carrying one diagram to another.

    flips lists the signs for (a2, b2, c2) and, for twist monodromy, the
    core, in that order: matrix applied to each source class equals the
    flip times the corresponding target class.
    """

    _fields = ("matrix", "flips")
    __slots__ = _fields


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
    # The canonical form keeps the exponent and the sign field, so equal
    # forms agree on both.
    c1, b1 = canonical_form(d1)
    c2, b2 = canonical_form(d2)
    if c1 != c2:
        return None
    # b1 and b2 carry each class of d1 and d2 to the same canonical class up
    # to sign, so b2^-1 b1 carries d1 to d2 up to sign.
    return _finish_witness(mat2_mul(mat2_inv(b2), b1), _witness_classes(d1), _witness_classes(d2))


def _finish_witness(m: Mat2, vs, ws) -> EquivalenceWitness | None:
    flips = []
    for v, (w0, w1) in zip(vs, ws):
        # Compared as tuples, so a class given as a list matches too.
        img = mat2_apply(m, v)
        if img == (w0, w1):
            flips.append(1)
        elif img == (-w0, -w1):
            flips.append(-1)
        else:
            return None
    return EquivalenceWitness(matrix=m, flips=tuple(flips))


class OrbitNode(_Value):
    _fields = ("index", "diagram", "invariant")
    __slots__ = _fields


@dataclass(init=False, repr=False, eq=False)
class OrbitGraph(_Value):
    _fields = ("nodes", "edges")
    __slots__ = _fields
    nodes: tuple[OrbitNode, ...]
    edges: tuple[tuple[int, str, int], ...]


def _node_key(d: TorusDiagram):
    core = d.monodromy.core if d.monodromy.core is not None else (0, 0)
    return (d.monodromy.exponent, core, d.a2, d.b2, d.c2, d.sign)


def _rotated_form(v: TorusDiagram) -> TorusDiagram:
    """Canonical form of the inner rotation of the valid diagram v, computed
    from the rotated classes (b2, mu^-1(c2), a2) without building the
    rotated diagram."""
    mono = v.monodromy
    return _canonical(v.b2, mono.inverse_apply(v.c2), v.a2, mono, v.sign)[0]


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
    if not depth >= 0:
        raise ValueError("depth must be nonnegative")


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
    1, then nodes 1 and 2 in lexicographic node-key order at depth 2 and
    beyond.
    """
    _check_depth(depth)
    v0, _ = canonical_form(start)
    inv = intersection_invariant(v0)
    if not depth > 0:
        return OrbitGraph((OrbitNode(0, v0, inv),), ())
    outer = 1 if include_sigma1 else 0
    if inv == (0, 0, 0):
        return OrbitGraph((OrbitNode(0, v0, inv),), _EDGES_ONE[outer])
    v1 = _rotated_form(v0)
    v2 = _rotated_form(v1)
    if not depth > 1:
        edges = _EDGES_DEPTH1
    elif _node_key(v1) <= _node_key(v2):
        edges = _EDGES_12
    else:
        edges = _EDGES_21
    inv0, inv1, inv2 = _rotations(inv)
    return OrbitGraph(
        (OrbitNode(0, v0, inv0), OrbitNode(1, v1, inv1), OrbitNode(2, v2, inv2)), edges[outer]
    )
