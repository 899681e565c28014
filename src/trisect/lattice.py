"""Exact integer symplectic linear algebra on Z^2 and Z^4.

Vectors are plain int tuples, so all arithmetic is arbitrary precision.
The rank-2 pairing is the determinant form; the rank-4 pairing is the
block sum of two copies on coordinates (x1, y1, x2, y2).  Conventions:

    pair2((v1, v2), (w1, w2)) = v1*w2 - v2*w1
    transvect(c, k, x) = x + k * pair(c, x) * c

so transvect(c, 1, .) is the right-handed Dehn twist about a curve with
homology class c, and transvect(c, -k, .) inverts transvect(c, k, .).
diagram.Monodromy applies the rank-2 case in closed form,
(x0 + m*c0, x1 + m*c1) with m = k * pair2(c, x), on the torus hot path.
sl2_complete takes its Bezout entry from pow(x, -1, |y|), and
SymplecticReduction is built from three such completions.
"""

from __future__ import annotations

import math

Vec2 = tuple[int, int]
Vec4 = tuple[int, int, int, int]
Mat2 = tuple[Vec2, Vec2]  # rows


class ZeroVectorError(ValueError):
    """A primitive class was required but the zero vector was supplied."""


class NonPrimitiveError(ValueError):
    """A primitive class was required; the gcd of the entries exceeds 1."""


def pair2(v: Vec2, w: Vec2) -> int:
    """Algebraic intersection number of two classes on the torus."""
    return v[0] * w[1] - v[1] * w[0]


def pair4(v: Vec4, w: Vec4) -> int:
    """Intersection pairing on the genus-2 surface, block sum of pair2."""
    return (v[0] * w[1] - v[1] * w[0]) + (v[2] * w[3] - v[3] * w[2])


def transvect(core, k: int, x):
    """Apply the k-th power of the transvection along core to x.

    Rank 2 and rank 4 inputs are both accepted; core and x must have the
    same length, or ValueError is raised, and k must be an exact int, or
    TypeError is raised.  k = +1 is the right-handed Dehn twist about
    core, and transvect(core, -k, transvect(core, k, x)) == x since the
    core pairs to zero with itself.
    """
    if type(k) is not int:
        _require_ints((k,))
    n = len(core)
    if n != len(x):
        raise ValueError(f"core {core} and class {x} have different lengths")
    m = k * (pair2(core, x) if n == 2 else pair4(core, x))
    return tuple(xi + m * ci for xi, ci in zip(x, core))


def _require_ints(v) -> None:
    # Worded as math.gcd refuses a float; gcd takes True, which this refuses.
    for x in v:
        if type(x) is not int:
            raise TypeError(f"{type(x).__name__!r} object cannot be interpreted as an integer")


def is_primitive(v) -> bool:
    """True when the entries of v have gcd exactly 1 (so v is nonzero).

    Raises TypeError on an entry that is not an exact int, bool included.
    """
    _require_ints(v)
    return math.gcd(*v) == 1


def mat2_apply(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat2_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat2_det(m: Mat2) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat2_inv(m: Mat2) -> Mat2:
    """Inverse of a determinant +-1 integer matrix (exact)."""
    d = mat2_det(m)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return ((d * m[1][1], -d * m[0][1]), (-d * m[1][0], d * m[0][0]))


MAT2_ID: Mat2 = ((1, 0), (0, 1))


def sl2_complete(v: Vec2) -> Mat2:
    """Canonical determinant-1 matrix sending v to (1, 0).

    The second row is forced to (-y, x) by the determinant condition, and
    the Bezout coefficient in the first row is reduced into the window
    (-|y|/2, |y|/2], which pins the matrix uniquely.  Raises
    ZeroVectorError on v = 0, TypeError on an entry that is not an exact
    int, and NonPrimitiveError when gcd(x, y) > 1.
    """
    x, y = v
    if x == 0 and y == 0:
        raise ZeroVectorError("cannot complete the zero vector")
    _require_ints(v)
    g = math.gcd(x, y)
    if g != 1:
        raise NonPrimitiveError(f"{v} is not primitive (gcd {g})")
    p, q, r, s = _complete(x, y)
    return ((p, q), (r, s))


def _complete(x: int, y: int) -> tuple[int, int, int, int]:
    """Entries (p, q, r, s) of sl2_complete((x, y)) for a primitive (x, y).

    Every first row (p, q) with p*x + q*y = 1 has p = x^-1 mod |y|, so the
    modular inverse moved into the window (-|y|/2, |y|/2] is the canonical
    p, and y divides 1 - p*x exactly.  For y = 0, x is +-1 and the matrix
    is x times the identity.  The caller has checked primitivity.
    """
    if y:
        m = abs(y)
        p = pow(x, -1, m)
        if 2 * p > m:
            p -= m
        return p, (1 - p * x) // y, -y, x
    return x, 0, 0, x


class SymplecticReduction:
    """Symplectic basis (e1, f1, e2, f2) of Z^4 with e1 a chosen class.

    Gram identities: pair4(e1, f1) = pair4(e2, f2) = 1 and the four cross
    pairings vanish.  For any w with pair4(e1, w) = 0 the coordinates of
    w in the complement plane span(e2, f2) are returned by project(); this
    is the class of w in the surgered torus.

    The basis is the columns of M^-1 for a symplectic M with M a = e1,
    built from three _complete calls.  Let g and g' be the gcds of the
    blocks (a0, a1) and (a2, a3), and u and u' their primitive directions,
    the block over its gcd, or (1, 0) for a zero block.  B = _complete(u)
    and B' = _complete(u') are in SL2(Z) and send the blocks to (g, 0) and
    (g', 0).  The block-diagonal pair (B, B') preserves pair4, the sum of
    one pair2 per block, since each has determinant 1, and sends a to
    (g, 0, g', 0).  As a is primitive, gcd(g, g') = 1, and
    A = _complete(g, g'), with first row (p, q), sends (g, g') to (1, 0).
    Acting by X -> AX on the x coordinates X = (x1, x2) and by
    Y -> A^-T Y on the y coordinates Y = (y1, y2) preserves
    pair4 = X.Y' - Y.X' too, because (AX).(A^-T Y') = X.Y', and sends
    (g, 0, g', 0) to e1.  So M = (A, A^-T)(B, B') is symplectic and
    M a = e1; then M^-1 is symplectic, so its columns have the Gram
    matrix of the standard basis, and its first column is a.  With
    (p1, q1) the first row of B, the columns of B^-1 are u and
    w = (-q1, p1), so pair2(u, w) = 1; likewise w' for B'.  Read off in
    blocks, the columns of M^-1 are

        e1 = (g u, g' u') = a      f1 = (p w, q w')
        e2 = (-q u, p u')          f2 = (-g' w, g w')

    On the standard class, u = u' = (1, 0), w = w' = (0, 1), g' = 0 and
    (p, q) = (1, 0), so the basis is exactly the standard one.

    a may be any sequence: it is read into a tuple first, so the basis
    holds no caller's list.  It raises ValueError on a length other than
    4, then ZeroVectorError on zero, then TypeError on a non-int entry,
    then NonPrimitiveError when the gcd of the entries exceeds 1.
    """

    def __init__(self, a: Vec4):
        a = tuple(a)
        if len(a) != 4:
            raise ValueError(f"{a} is not a rank-4 class")
        if not any(a):
            raise ZeroVectorError("cannot reduce along the zero class")
        _require_ints(a)
        a0, a1, a2, a3 = a
        g1, g2 = math.gcd(a0, a1), math.gcd(a2, a3)
        if math.gcd(g1, g2) != 1:
            raise NonPrimitiveError(f"{a} is not primitive")
        u0, u1 = (a0 // g1, a1 // g1) if g1 else (1, 0)
        u2, u3 = (a2 // g2, a3 // g2) if g2 else (1, 0)
        p1, q1, _, _ = _complete(u0, u1)
        p2, q2, _, _ = _complete(u2, u3)
        w0, w1, w2, w3 = -q1, p1, -q2, p2
        p, q, _, _ = _complete(g1, g2)
        self.basis: tuple[Vec4, Vec4, Vec4, Vec4] = (
            a,
            (p * w0, p * w1, q * w2, q * w3),
            (-q * u0, -q * u1, p * u2, p * u3),
            (-g2 * w0, -g2 * w1, g1 * w2, g1 * w3),
        )

    def project(self, w: Vec4) -> Vec2:
        """Class of w in the surgered torus; w must be disjoint from e1."""
        a, _f1, e2, f2 = self.basis
        if pair4(a, w) != 0:
            raise ValueError(f"{w} is not disjoint from the surgery class {a}")
        return (-pair4(f2, w), pair4(e2, w))

