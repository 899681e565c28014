"""Vertical 3-manifolds of a torus diagram and their lens-space names.

Each of the six vertical pieces is a union of two solid tori glued along
a torus, so it is determined by the pair of meridian classes (v, w): the
result is S^1 x S^2 when the classes are parallel, S^3 when they meet
once, and the lens space L(p, q) with p = |pair2(v, w)| otherwise, where
q reads off the image of w in a basis taking v to (1, 0).  The class q
is well defined mod p because the completion is unique up to upper
shears, which change the image of w by multiples of p.

Lens space conventions, oriented: L(p, q) = L(p, q') iff q' = q^{+-1}
mod p; mirror image L(p, p - q); L(-p, q) = L(p, -q).  Unoriented
comparison also allows q' = -q^{+-1} mod p.  S^3 = L(1, 0) and
S^1 x S^2 = L(0, 1) are stored in those normal forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import Monodromy, TorusDiagram, require_valid_torus
from .lattice import (
    NonPrimitiveError,
    Vec2,
    ZeroVectorError,
    is_primitive,
    sl2_complete,
)


@dataclass(frozen=True)
class LensSpace:
    """Normal form (p, q): (0, 1) for S^1 x S^2, (1, 0) for S^3, else
    p >= 2 with 0 < q < p and gcd(p, q) = 1."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p == 0:
            ok = q == 1
        elif p == 1:
            ok = q == 0
        else:
            ok = p >= 2 and 0 < q < p and math.gcd(p, q) == 1
        if not ok:
            raise ValueError(f"({p}, {q}) is not a lens space normal form")

    @classmethod
    def from_pq(cls, p: int, q: int) -> "LensSpace":
        """Normalize arbitrary coprime surgery data to the normal form."""
        if p < 0:
            p, q = -p, -q
        if p == 0:
            if abs(q) != 1:
                raise ValueError(f"L(0, {q}) is not a lens space (gcd {abs(q)})")
            return cls(0, 1)
        if p == 1:
            return cls(1, 0)
        q %= p
        if math.gcd(p, q) != 1:
            raise ValueError(f"L({p}, {q}) is not a lens space (gcd {math.gcd(p, q)})")
        return cls(p, q)

    @property
    def is_s3(self) -> bool:
        return self.p == 1

    @property
    def is_s1xs2(self) -> bool:
        return self.p == 0

    def mirror(self) -> "LensSpace":
        """Orientation reversal; S^3 and S^1 x S^2 are amphichiral."""
        if self.p <= 1:
            return self
        return LensSpace(self.p, self.p - self.q)

    def __str__(self) -> str:
        if self.is_s3:
            return "S3"
        if self.is_s1xs2:
            return "S1xS2"
        return f"L({self.p},{self.q})"


S3 = LensSpace(1, 0)
S1XS2 = LensSpace(0, 1)


def lens_equiv(l1: LensSpace, l2: LensSpace, oriented: bool = False) -> bool:
    """Homeomorphism of lens spaces: q' = q^{+-1} mod p, also negated
    when orientation is ignored.  S^3 and S^1 x S^2 only match themselves."""
    if l1.p != l2.p:
        return False
    p = l1.p
    if p <= 1:
        return True
    allowed = {l2.q, pow(l2.q, -1, p)}
    if not oriented:
        allowed |= {(p - q) % p for q in list(allowed)}
    return l1.q in allowed


def lens_from_pair(v: Vec2, w: Vec2) -> LensSpace:
    """Double solid torus with meridian classes v and w.

    Requires both classes primitive.  p = |pair2(v, w)|; q is the first
    coordinate of w after the canonical basis change taking v to (1, 0).
    """
    for u in (v, w):
        if u == (0, 0):
            raise ZeroVectorError("meridian class is zero")
        if not is_primitive(u):
            raise NonPrimitiveError(f"meridian class {u} is not primitive")
    return _lens(v, w)


def _lens(v: Vec2, w: Vec2) -> LensSpace:
    # lens_from_pair for classes already known to be primitive.  The
    # canonical completion sends w to (q, pair2(v, w)), a primitive
    # vector, so gcd(p, q) = 1 and q % p is already a normal form.
    v0, v1 = v
    w0, w1 = w
    p = abs(v0 * w1 - v1 * w0)
    if p == 0:
        return S1XS2
    if p == 1:
        return S3
    u0, u1 = sl2_complete(v)[0]
    return LensSpace(p, (u0 * w0 + u1 * w1) % p)


@dataclass(frozen=True)
class SixTuple:
    """The six vertical pieces, arranged as the 2 x 3 matrix

        ( aa  bb  cc )
        ( ba  cb  ac )

    where slot xy is glued from the x-class and the monodromy pullback of
    the y-class (the cb slot needs no pullback)."""

    aa: LensSpace
    bb: LensSpace
    cc: LensSpace
    ba: LensSpace
    cb: LensSpace
    ac: LensSpace

    def as_rows(self):
        return ((self.aa, self.bb, self.cc), (self.ba, self.cb, self.ac))

    def slots(self):
        return (
            ("aa", self.aa),
            ("bb", self.bb),
            ("cc", self.cc),
            ("ba", self.ba),
            ("cb", self.cb),
            ("ac", self.ac),
        )


def six_tuple(d: TorusDiagram) -> SixTuple:
    """Compute the six vertical pieces of a valid torus diagram."""
    require_valid_torus(d)
    # The classes are primitive once validated, and the monodromy is
    # unimodular, so every pull-back is primitive too.
    pull = d.monodromy.inverse_apply
    a, b, c = d.a2, d.b2, d.c2
    pa, pb, pc = pull(a), pull(b), pull(c)
    return SixTuple(
        aa=_lens(a, pa),
        bb=_lens(b, pb),
        cc=_lens(c, pc),
        ba=_lens(b, pa),
        cb=_lens(c, b),
        ac=_lens(a, pc),
    )


def reflect(t: SixTuple) -> SixTuple:
    """Reflection symmetry: swap the roles of b and c and reverse all
    orientations.  An involution."""
    return SixTuple(
        aa=t.aa.mirror(),
        bb=t.cc.mirror(),
        cc=t.bb.mirror(),
        ba=t.ac.mirror(),
        cb=t.cb.mirror(),
        ac=t.ba.mirror(),
    )


def rotate(t: SixTuple) -> SixTuple:
    """Rotation symmetry: cycle the columns of the 2 x 3 matrix.  Order 3."""
    return SixTuple(aa=t.cc, bb=t.aa, cc=t.bb, ba=t.ac, cb=t.ba, ac=t.cb)


@dataclass(frozen=True)
class FamilyMatch:
    """Which parametric family a six-tuple realizes, and how.

    rotations and reflected record the symmetry image that matched; q and
    epsilon are the family parameters (None where the family has none).
    """

    family: int
    q: int | None
    epsilon: int | None
    rotations: int
    reflected: bool


def _eq(l: LensSpace, p: int, q: int, oriented: bool) -> bool:
    return lens_equiv(l, LensSpace.from_pq(p, q), oriented)


def _match_family(t: SixTuple, family: int, oriented: bool):
    if family == 1:
        if (
            t.aa.is_s1xs2
            and t.bb.is_s1xs2
            and t.cc.is_s1xs2
            and t.ba.is_s3
            and t.cb.is_s3
            and t.ac.is_s3
        ):
            return (None, None)
        return None
    if family == 2:
        if not (t.aa.is_s3 and t.bb.is_s3 and t.ba.is_s1xs2):
            return None
        root = math.isqrt(t.cc.p)
        if root * root != t.cc.p or root == 0:
            return None
        for q in (1 + root, 1 - root):
            for eps in (1, -1):
                if (
                    _eq(t.cc, (q - 1) ** 2, eps * q, oriented)
                    and _eq(t.cb, q - 2, eps, oriented)
                    and _eq(t.ac, q, -eps, oriented)
                ):
                    return (q, eps)
        return None
    if family == 3:
        for eps in (1, -1):
            if (
                t.aa.is_s3
                and _eq(t.bb, 9, 2 * eps, oriented)
                and _eq(t.cc, 4, eps, oriented)
                and _eq(t.ba, 2, 1, oriented)
                and _eq(t.cb, 5, eps, oriented)
                and t.ac.is_s3
            ):
                return (None, eps)
        return None
    if family == 4:
        for eps in (1, -1):
            if (
                t.aa.is_s1xs2
                and _eq(t.bb, 4, 1, oriented)
                and _eq(t.cc, 4, 1, oriented)
                and t.ba.is_s3
                and _eq(t.cb, 4 + eps, 1, oriented)
                and t.ac.is_s3
            ):
                return (None, eps)
        return None
    if family == 5:
        for eps in (1, -1):
            if (
                t.aa.is_s1xs2
                and t.bb.is_s3
                and t.cc.is_s3
                and t.ba.is_s3
                and _eq(t.cb, 1 + eps, 1, oriented)
                and t.ac.is_s3
            ):
                return (None, eps)
        return None
    raise ValueError(f"no family {family}")


def classify(t: SixTuple, oriented: bool = False) -> FamilyMatch | None:
    """Match a six-tuple against the five parametric families.

    All six symmetry images (three rotations, with and without the
    reflection) are searched, family parameters are solved for, and the
    lowest matching family index wins.  Returns None when nothing fits.

    The search is skipped when the sorted slot orders p rule out every
    family: each family has at least two S^3 slots, and either an
    S^1 x S^2 slot or exactly family 3's orders (1, 1, 2, 4, 5, 9).  The
    symmetries only permute the slots and mirroring keeps p, so this
    condition is necessary and never changes the match found.
    """
    ps = sorted(l.p for l in (t.aa, t.bb, t.cc, t.ba, t.cb, t.ac))
    if ps.count(1) < 2 or (ps[0] != 0 and ps != [1, 1, 2, 4, 5, 9]):
        return None
    images = []
    for reflected in (False, True):
        img = reflect(t) if reflected else t
        for r in (0, 1, 2):
            images.append((reflected, r, img))
            img = rotate(img)
    for family in (1, 2, 3, 4, 5):
        for reflected, r, img in images:
            hit = _match_family(img, family, oriented)
            if hit is not None:
                q, eps = hit
                return FamilyMatch(
                    family=family, q=q, epsilon=eps, rotations=r, reflected=reflected
                )
    return None


def case_diagram(
    family: int,
    *,
    q: int | None = None,
    upper: bool = True,
    eps2: int = 1,
    epsilon: int = 1,
    sign: int = 1,
) -> TorusDiagram:
    """Calibrated case configurations realizing the five families.

    Every case has a2 = (1, 0) and b2 = (0, 1); upper selects the sign of
    the twist exponent, with the remaining data tied to it.  Family 2
    takes the integer parameter q (the lower branch realizes family
    parameter -q); family 4 takes the extra sign eps2; family 5's two
    sub-cases are selected by epsilon.  Family 1 is the identity-monodromy
    configuration.
    """
    a2, b2 = (1, 0), (0, 1)
    if family == 1:
        return TorusDiagram(a2, b2, (-1, -1), Monodromy.identity(), sign)
    if family == 2:
        if q is None:
            raise ValueError("family 2 requires the parameter q")
        if upper:
            c2, core, k = (q - 2, 1), (-1, 1), 1
        else:
            c2, core, k = (-q - 2, -1), (1, 1), -1
    elif family == 3:
        if upper:
            c2, core, k = (5, -1), (-3, 1), 1
        else:
            c2, core, k = (5, 1), (3, 1), -1
    elif family == 4:
        if eps2 not in (1, -1):
            raise ValueError("eps2 must be +1 or -1")
        k = 4 if upper else -4
        c2, core = (-1 + (k // 4) * 4 * eps2, eps2), (1, 0)
    elif family == 5:
        if epsilon == 1:
            c2 = (-2, -1) if upper else (-2, 1)
        elif epsilon == -1:
            c2 = (0, 1) if upper else (0, -1)
        else:
            raise ValueError("epsilon must be +1 or -1")
        core, k = (1, 0), 1 if upper else -1
    else:
        raise ValueError(f"no family {family}")
    return TorusDiagram(a2, b2, c2, Monodromy.twist(core, k), sign)
