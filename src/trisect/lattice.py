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
sl2_complete takes its Bezout entry from pow(x, -1, |y|); _xgcd stays
where its exact coefficients fix a basis (SymplecticReduction).
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
    same length, or ValueError is raised.  k = +1 is the right-handed Dehn
    twist about core, and transvect(core, -k, transvect(core, k, x)) == x
    since the core pairs to zero with itself.
    """
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
    """True when the entries of v have gcd exactly 1 (so v is nonzero)."""
    return math.gcd(*v) == 1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Returns (g, u, v) with u*a + v*b = g and g = gcd(a, b) >= 0.
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


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


def _echelon4(rows) -> list[Vec4]:
    """Integer row echelon basis of the lattice the rank-4 rows generate.

    Column by column, the first row with a nonzero entry is the pivot.
    Each later such row r is merged into it by the Bezout step of
    _xgcd(pivot[col], r[col]) = (g, s, t): pivot <- s*pivot + t*r, and r
    leaves the remainder (pivot[col]/g)*r - (r[col]/g)*pivot, which is
    zero in this column.  The pair moves by a determinant-one matrix, so
    the span is preserved exactly.  The next column works on the rows that
    were zero here, in order, then the nonzero remainders, in order.  A
    negative pivot is negated.  The result has strictly increasing
    positive pivots and is deterministic in the input order.
    """
    work = [r for r in rows if r != (0, 0, 0, 0)]
    out = []
    for col in range(4):
        if not work:
            break
        rest = []
        remainders = []
        pivot = None
        for r in work:
            rc = r[col]
            if not rc:
                rest.append(r)
            elif pivot is None:
                pivot = r
            else:
                pc = pivot[col]
                g, s, t = _xgcd(pc, rc)
                x, y = pc // g, rc // g
                p0, p1, p2, p3 = pivot
                r0, r1, r2, r3 = r
                pivot = (s * p0 + t * r0, s * p1 + t * r1, s * p2 + t * r2, s * p3 + t * r3)
                rem = (x * r0 - y * p0, x * r1 - y * p1, x * r2 - y * p2, x * r3 - y * p3)
                if rem != (0, 0, 0, 0):
                    remainders.append(rem)
        if pivot is not None:
            if pivot[col] < 0:
                pivot = (-pivot[0], -pivot[1], -pivot[2], -pivot[3])
            out.append(pivot)
        work = rest + remainders
    return out


class SymplecticReduction:
    """Symplectic basis (e1, f1, e2, f2) of Z^4 with e1 a chosen class.

    Gram identities: pair4(e1, f1) = pair4(e2, f2) = 1 and the four cross
    pairings vanish.  For any w with pair4(e1, w) = 0 the coordinates of
    w in the complement plane span(e2, f2) are returned by project(); this
    is the class of w in the surgered torus.

    Off the standard class the basis is built in two exact steps, each
    unrolled over rank 4 on tuples.  f1 solves pair4(a, f1) = 1 by a
    Bezout chain over the functional's coefficients (-a1, a0, -a3, a2),
    in that order.  Then _echelon4 reduces the projections of the four
    unit vectors, in coordinate order, onto the complement of
    span(a, f1).  The two rows it returns are e2 and f2, swapped if they
    pair to -1.

    a may be any sequence: it is read into a tuple first, so the basis
    holds no caller's list.  It raises ValueError on a length other than
    4, then ZeroVectorError on zero, then TypeError on a non-int entry.
    """

    def __init__(self, a: Vec4):
        a = tuple(a)
        if len(a) != 4:
            raise ValueError(f"{a} is not a rank-4 class")
        if not any(a):
            raise ZeroVectorError("cannot reduce along the zero class")
        _require_ints(a)
        if a == (1, 0, 0, 0):
            # Standard position, where every standard lift starts: the
            # general path below returns exactly the standard basis.
            self.basis = (a, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
            return
        if not is_primitive(a):
            raise NonPrimitiveError(f"{a} is not primitive")
        a0, a1, a2, a3 = a[0], a[1], a[2], a[3]
        # The Bezout chain for f1 skips zero coefficients: the running gcd
        # g is merged with each coefficient c by _xgcd(g, c) = (g', s, t),
        # the entries found so far are scaled by s and t is the new entry.
        # Since a is primitive, the chain ends at g = 1.
        g = u0 = u1 = u2 = u3 = 0
        if a1:
            g, _, u0 = _xgcd(g, -a1)
        if a0:
            g, s, u1 = _xgcd(g, a0)
            u0 *= s
        if a3:
            g, s, u2 = _xgcd(g, -a3)
            u0 *= s
            u1 *= s
        if a2:
            g, s, u3 = _xgcd(g, a2)
            u0 *= s
            u1 *= s
            u2 *= s
        f1 = (u0, u1, u2, u3)
        # The unit vector e_i projects to e_i - pair4(a, e_i) f1 +
        # pair4(f1, e_i) a.  In the minors m_ij = a_i u_j - a_j u_i, with
        # m01 + m23 = pair4(a, f1) = 1, the four projections are the rows
        # below.
        m01 = a0 * u1 - a1 * u0
        m02 = a0 * u2 - a2 * u0
        m03 = a0 * u3 - a3 * u0
        m12 = a1 * u2 - a2 * u1
        m13 = a1 * u3 - a3 * u1
        m23 = a2 * u3 - a3 * u2
        comp = _echelon4((
            (m23, 0, m12, m13),
            (0, m23, -m02, -m03),
            (-m03, -m13, m01, 0),
            (m02, m12, 0, m01),
        ))
        if len(comp) != 2:
            raise AssertionError("complement rank is not 2")
        e2, f2 = comp
        eps = pair4(e2, f2)
        if eps == -1:
            e2, f2 = f2, e2
        elif eps != 1:
            raise AssertionError("complement pairing is not unimodular")
        self.basis: tuple[Vec4, Vec4, Vec4, Vec4] = (a, f1, e2, f2)

    def project(self, w: Vec4) -> Vec2:
        """Class of w in the surgered torus; w must be disjoint from e1."""
        a, _f1, e2, f2 = self.basis
        if pair4(a, w) != 0:
            raise ValueError(f"{w} is not disjoint from the surgery class {a}")
        return (-pair4(f2, w), pair4(e2, w))

