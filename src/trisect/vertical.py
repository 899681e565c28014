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

from .diagram import Monodromy, TorusDiagram, _FieldTable, _Value, require_valid_torus
from .lattice import Vec2, _check_sign, _complete, _require_bool, _require_class


class LensSpace(_Value):
    """Normal form (p, q) of exact ints: (0, 1) for S^1 x S^2, (1, 0) for
    S^3, else p >= 2 with 0 < q < p and gcd(p, q) = 1.

    The constructor checks the normal form; code that has proven it
    builds through _lens instead.
    """

    _fields = ("p", "q")
    __slots__ = _fields

    def __new__(cls, p: int, q: int):
        if type(p) is not int or type(q) is not int:
            ok = False
        elif p == 0:
            ok = q == 1
        elif p == 1:
            ok = q == 0
        else:
            ok = p >= 2 and 0 < q < p and math.gcd(p, q) == 1
        if not ok:
            raise ValueError(f"({p}, {q}) is not a lens space normal form")
        return cls._build(cls, p, q)

    @classmethod
    def from_pq(cls, p: int, q: int) -> "LensSpace":
        """Normalize arbitrary coprime surgery data, two ints, to the normal form."""
        if type(p) is not int or type(q) is not int:
            raise ValueError(f"L({p!r}, {q!r}) is not a lens space (p and q must be ints)")
        if p < 0:
            p, q = -p, -q
        if p == 0:
            if abs(q) != 1:
                raise ValueError(f"L(0, {q}) is not a lens space (gcd {abs(q)})")
            return S1XS2
        if p == 1:
            return S3
        q %= p
        if math.gcd(p, q) != 1:
            raise ValueError(f"L({p}, {q}) is not a lens space (gcd {math.gcd(p, q)})")
        return _lens(p, q)

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
        return _lens(self.p, self.p - self.q)

    def __str__(self) -> str:
        if self.is_s3:
            return "S3"
        if self.is_s1xs2:
            return "S1xS2"
        return f"L({self.p},{self.q})"


S3 = LensSpace(1, 0)
S1XS2 = LensSpace(0, 1)


def _lens_key(p: int, q: int, oriented: bool) -> int:
    """Class key of L(p, q) among the lens spaces of order p.

    L(p, q) = L(p, q') iff q' = q^{+-1} mod p, oriented, and iff
    q' = +-q^{+-1} mod p, unoriented.  Inversion and negation generate a
    group acting on the units mod p, and each class is one orbit, so the
    least residue of the orbit, min{q, q^-1} or min{+-q, +-q^-1} mod p,
    names the class.  S^3 and S^1 x S^2 are alone in their orders, and
    key 0.  q need not be reduced; p is the order, at least 0.
    """
    if p < 2:
        return 0
    q %= p
    inv = pow(q, -1, p)
    if oriented:
        return min(q, inv)
    return min(q, inv, p - q, p - inv)


def lens_equiv(l1: LensSpace, l2: LensSpace, oriented: bool = False) -> bool:
    """Homeomorphism of lens spaces: equal orders and equal class keys
    (q' = q^{+-1} mod p, also negated when orientation is ignored).
    S^3 and S^1 x S^2 only match themselves."""
    _require_bool(oriented, "oriented")
    return l1.p == l2.p and _lens_key(l1.p, l1.q, oriented) == _lens_key(l2.p, l2.q, oriented)


_SMALL = (S1XS2, S3)  # the lens spaces of order p = 0 and p = 1


def _lens(p: int, q: int) -> LensSpace:
    """LensSpace(p, q mod p), unchecked, for an order p >= 0 and a class q
    that the caller has shown coprime to p."""
    return _SMALL[p] if p < 2 else LensSpace._build(LensSpace, p, q % p)


def lens_from_pair(v: Vec2, w: Vec2) -> LensSpace:
    """Double solid torus with meridian classes v and w.

    Requires both classes primitive, of exact ints.  p = |pair2(v, w)|; q
    is the first coordinate of w after a basis change taking v to (1, 0).
    Any Bezout row u of v (u . v = 1) is the first row of a
    determinant-one matrix with second row (-v1, v0), which takes v to
    (1, 0) and w to (u . w, pair2(v, w)) = (q, +-p); that vector is
    primitive, so gcd(p, q) = 1.  q mod p does not depend on the row: two
    Bezout rows differ by t * (-v1, v0), which moves u . w by
    t * pair2(v, w) = +-t * p.  So the first row of _complete serves, and
    q % p is the normal form.
    """
    for u in (v, w):
        _require_class(u, 2, "meridian class is zero", "meridian class {v} is not primitive")
    v0, v1 = v
    w0, w1 = w
    u0, u1, _, _ = _complete(v0, v1)
    return _lens(abs(v0 * w1 - v1 * w0), u0 * w0 + u1 * w1)


class SixTuple(_Value):
    """The six vertical pieces, arranged as the 2 x 3 matrix

        ( aa  bb  cc )
        ( ba  cb  ac )

    where slot xy is glued from the x-class and the monodromy pullback of
    the y-class (the cb slot needs no pullback)."""

    _fields = ("aa", "bb", "cc", "ba", "cb", "ac")
    __slots__ = _fields
    __dataclass_fields__ = _FieldTable()
    aa: LensSpace
    bb: LensSpace
    cc: LensSpace
    ba: LensSpace
    cb: LensSpace
    ac: LensSpace

    def slots(self):
        return tuple([(name, getattr(self, name)) for name in self._fields])


# The six-tuple of every valid identity-monodromy diagram (see six_tuple).
_IDENTITY_SIX = SixTuple(S1XS2, S1XS2, S1XS2, S3, S3, S3)


def six_tuple(d: TorusDiagram) -> SixTuple:
    """Compute the six vertical pieces of a valid torus diagram.

    Under identity monodromy the answer is _IDENTITY_SIX, in closed form.
    Proof.  The pull-back is the identity, so slot xy glues the classes
    x and y themselves.  A valid identity triple pairs pairwise to +-1.
    So each diagonal slot aa, bb, cc glues a class to itself, a parallel
    pair, and is S^1 x S^2; each other slot ba, cb, ac glues two classes
    that meet once, and is S^3.

    Under a twist mu = T_d^k every slot is read off the pairings, with no
    pulled-back class built.  Slot xy is the lens space of the pair
    (x, mu^-1 y), or (c, b) for cb.  The classes are primitive once
    validated and mu is unimodular, so both classes of a pair are
    primitive, and by lens_from_pair the order is |pair2| of the pair
    and the class is u_x . (mu^-1 y) mod the order, with u_x the first
    row of _complete(x); so each of a, b, c is completed once.  Write
    e_x = pair2(x, d).  Then mu^-1 x = x + k e_x d, as in
    Monodromy.inverse_apply, and since pair2 and the dot product are
    bilinear:
    - pair2(v, mu^-1 w) = pair2(v, w) + k e_w pair2(v, d)
      = pair2(v, w) + k e_v e_w;
    - u_v . mu^-1 w = u_v . w + k e_w (u_v . d).
    With pair2(x, x) = 0 and u_x . x = 1 this gives
    - p_xx = |k| e_x^2 and q_xx = 1 + k e_x (u_x . d), for x = a, b, c;
    - p_ba = |pair2(b, a) + k e_a e_b|, q_ba = u_b . a + k e_a (u_b . d);
    - p_ac = |pair2(a, c) + k e_a e_c|, q_ac = u_a . c + k e_c (u_a . d);
    - p_cb = |pair2(c, b)| and q_cb = u_c . b, with no pull-back.
    These are the exact integers the pulled-back classes give, so every
    slot, q reduced mod p as _lens does, is the same lens space.  Each
    slot and the tuple are built through _build, with no check repeated.
    """
    require_valid_torus(d)
    mono = d.monodromy
    k = mono.exponent
    if k == 0:
        return _IDENTITY_SIX
    d0, d1 = mono.core
    a0, a1 = d.a2
    b0, b1 = d.b2
    c0, c1 = d.c2
    ea, eb, ec = a0 * d1 - a1 * d0, b0 * d1 - b1 * d0, c0 * d1 - c1 * d0
    ua0, ua1, _, _ = _complete(a0, a1)
    ub0, ub1, _, _ = _complete(b0, b1)
    uc0, uc1, _, _ = _complete(c0, c1)
    ud_a, ud_b, ud_c = ua0 * d0 + ua1 * d1, ub0 * d0 + ub1 * d1, uc0 * d0 + uc1 * d1
    ka, kb, kc = k * ea, k * eb, k * ec
    # Each slot as _lens builds it, inline: q is computed only for p >= 2.
    build = LensSpace._build
    p = abs(ka * ea)
    aa = _SMALL[p] if p < 2 else build(LensSpace, p, (1 + ka * ud_a) % p)
    p = abs(kb * eb)
    bb = _SMALL[p] if p < 2 else build(LensSpace, p, (1 + kb * ud_b) % p)
    p = abs(kc * ec)
    cc = _SMALL[p] if p < 2 else build(LensSpace, p, (1 + kc * ud_c) % p)
    p = abs(b0 * a1 - b1 * a0 + ka * eb)
    ba = _SMALL[p] if p < 2 else build(LensSpace, p, (ub0 * a0 + ub1 * a1 + ka * ud_b) % p)
    p = abs(c0 * b1 - c1 * b0)
    cb = _SMALL[p] if p < 2 else build(LensSpace, p, (uc0 * b0 + uc1 * b1) % p)
    p = abs(a0 * c1 - a1 * c0 + ka * ec)
    ac = _SMALL[p] if p < 2 else build(LensSpace, p, (ua0 * c0 + ua1 * c1 + kc * ud_a) % p)
    return SixTuple._build(SixTuple, aa, bb, cc, ba, cb, ac)


# Slot permutations, in the slot order (aa, bb, cc, ba, cb, ac): slot i of
# rotate(t) is slot _ROTATE[i] of t, and of reflect(t) slot _REFLECT[i] of
# t, mirrored.  Slot i of each image (reflected, r, perm) in _IMAGES is
# slot perm[i] of the tuple, mirrored when reflected, in classify's search
# order: r = 0, 1, 2 rotations of the tuple, then of its reflection.
_ROTATE = (2, 0, 1, 5, 3, 4)
_REFLECT = (0, 2, 1, 5, 4, 3)
_IMAGES = tuple(
    (reflected, r, perm)
    for reflected, first in ((False, (0, 1, 2, 3, 4, 5)), (True, _REFLECT))
    for r, perm in enumerate(
        (first, tuple(first[i] for i in _ROTATE), tuple(first[_ROTATE[i]] for i in _ROTATE))
    )
)


def reflect(t: SixTuple) -> SixTuple:
    """Reflection symmetry: swap the roles of b and c and reverse all
    orientations.  An involution."""
    slots = (t.aa, t.bb, t.cc, t.ba, t.cb, t.ac)
    return SixTuple(*[slots[i].mirror() for i in _REFLECT])


def rotate(t: SixTuple) -> SixTuple:
    """Rotation symmetry: cycle the columns of the 2 x 3 matrix.  Order 3."""
    slots = (t.aa, t.bb, t.cc, t.ba, t.cb, t.ac)
    return SixTuple(*[slots[i] for i in _ROTATE])


class FamilyMatch(_Value):
    """Which parametric family a six-tuple realizes, and how.

    rotations and reflected record the symmetry image that matched; q and
    epsilon are the family parameters (None where the family has none).
    """

    _fields = ("family", "q", "epsilon", "rotations", "reflected")
    __slots__ = _fields


def _target(p: int, q: int, oriented: bool) -> tuple[int, int]:
    # (order, class key) of LensSpace.from_pq(p, q), without building it.
    if p < 0:
        p, q = -p, -q
    return p, _lens_key(p, q, oriented)


def _fixed_targets(oriented: bool) -> dict:
    # Families 3, 4 and 5 as (q, epsilon, slot targets) in the order they
    # are tried; a slot target is the (order, key) of the family's lens
    # space there.  Family 1 is decided before the search (see classify).
    s3, s1xs2 = (1, 0), (0, 0)

    def lens(p, q):
        return _target(p, q, oriented)

    return {
        3: [
            (None, eps, (s3, lens(9, 2 * eps), lens(4, eps), lens(2, 1), lens(5, eps), s3))
            for eps in (1, -1)
        ],
        4: [
            (None, eps, (s1xs2, lens(4, 1), lens(4, 1), s3, lens(4 + eps, 1), s3))
            for eps in (1, -1)
        ],
        5: [(None, eps, (s1xs2, s3, s3, s3, lens(1 + eps, 1), s3)) for eps in (1, -1)],
    }


_FIXED_TARGETS = {oriented: _fixed_targets(oriented) for oriented in (False, True)}
# The match of family 1's orders (see classify).
_FAMILY1 = FamilyMatch(1, None, None, 0, False)


def _family2_targets(image: tuple, oriented: bool) -> list:
    # Family 2: aa = bb = S^3, ba = S^1 x S^2, cc = L((q-1)^2, eps*q),
    # cb = L(q-2, eps), ac = L(q, -eps), with q - 1 = +-sqrt(p) for the
    # order p of cc, tried as q = 1 + root, 1 - root, then eps = 1, -1.
    if image[0] != (1, 0) or image[1] != (1, 0) or image[3] != (0, 0):
        return []
    p = image[2][0]
    root = math.isqrt(p)
    if root * root != p or root == 0:
        return []
    return [
        (
            q,
            eps,
            ((1, 0), (1, 0), _target(p, eps * q, oriented), (0, 0),
             _target(q - 2, eps, oriented), _target(q, -eps, oriented)),
        )
        for q in (1 + root, 1 - root)
        for eps in (1, -1)
    ]


def classify(t: SixTuple, oriented: bool = False) -> FamilyMatch | None:
    """Match a six-tuple against the five parametric families.

    All six symmetry images (three rotations, with and without the
    reflection) are searched, family parameters are solved for, and the
    lowest matching family index wins; within a family the first image,
    then the family's own q/epsilon order.  Returns None when nothing
    fits.

    Slots are compared as (order, class key) pairs (see _lens_key), so
    an image is six such pairs read off the tuple by index; mirroring
    keeps the order and maps q to -q, which changes only the oriented
    key.

    Family 1 is decided in closed form: it matches exactly when aa, bb
    and cc have order p = 0 and ba, cb and ac have p = 1, and the match is
    _FAMILY1, the unreflected image with no rotation.  Proof.  Every image
    in _IMAGES keeps each row of the 2 x 3 matrix, and mirroring keeps
    p, so an image has family 1's orders exactly when the tuple does.
    The normal forms of order 0 and 1 are S^1 x S^2 and S^3, whose keys
    are 0 whatever oriented is, so those orders are the whole of family
    1's targets.  Family 1 is tried first, and the first image is the
    tuple itself.

    The search is skipped when the sorted slot orders p rule out every
    family: each family has at least two S^3 slots, and either an
    S^1 x S^2 slot or exactly family 3's orders (1, 1, 2, 4, 5, 9).  The
    symmetries only permute the slots and mirroring keeps p, so this
    condition is necessary and never changes the match found.
    """
    _require_bool(oriented, "oriented")
    slots = (t.aa, t.bb, t.cc, t.ba, t.cb, t.ac)
    ps = [l.p for l in slots]
    if ps == [0, 0, 0, 1, 1, 1]:
        return _FAMILY1
    ps.sort()
    if ps.count(1) < 2 or (ps[0] != 0 and ps != [1, 1, 2, 4, 5, 9]):
        return None
    keyed = [(l.p, _lens_key(l.p, l.q, oriented)) for l in slots]
    mirrored = [(l.p, _lens_key(l.p, -l.q, oriented)) for l in slots] if oriented else keyed
    images = []
    for reflected, r, (aa, bb, cc, ba, cb, ac) in _IMAGES:
        k = mirrored if reflected else keyed
        images.append((reflected, r, (k[aa], k[bb], k[cc], k[ba], k[cb], k[ac])))
    fixed = _FIXED_TARGETS[oriented]
    for family in (2, 3, 4, 5):
        for reflected, r, image in images:
            targets = _family2_targets(image, oriented) if family == 2 else fixed[family]
            for q, eps, target in targets:
                if image == target:
                    return FamilyMatch(family, q, eps, r, reflected)
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
    takes the exact int parameter q (the lower branch realizes family
    parameter -q); family 4 takes the extra sign eps2; family 5's two
    sub-cases are selected by epsilon.  Family 1 is the identity-monodromy
    configuration.  Each sign argument must be an exact int +-1, and a q
    given for any other family, or a family that is not an exact int 1-5,
    is refused with ValueError; upper must be exactly True or False, or
    TypeError is raised.
    """
    _check_sign(sign, "sign")
    _require_bool(upper, "upper")
    if q is not None and family != 2:
        raise ValueError(f"only family 2 takes a parameter q, got q={q!r} for family {family}")
    if type(family) is not int or not 1 <= family <= 5:
        raise ValueError(f"no family {family}")
    a2, b2 = (1, 0), (0, 1)
    if family == 1:
        return TorusDiagram(a2, b2, (-1, -1), Monodromy.identity(), sign)
    if family == 2:
        if type(q) is not int:
            raise ValueError(f"family 2 requires an int parameter q, got {q!r}")
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
        _check_sign(eps2, "eps2")
        k = 4 if upper else -4
        c2, core = (-1 + (k // 4) * 4 * eps2, eps2), (1, 0)
    else:  # family 5
        _check_sign(epsilon, "epsilon")
        if epsilon == 1:
            c2 = (-2, -1) if upper else (-2, 1)
        else:
            c2 = (0, 1) if upper else (0, -1)
        core, k = (1, 0), 1 if upper else -1
    return TorusDiagram(a2, b2, c2, Monodromy.twist(core, k), sign)
