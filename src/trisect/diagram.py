"""Diagram models for simplified genus-2 trisections at the homology level.

Two models of the same data.  The genus-2 model records the six vanishing
cycles (a1, b1, c1, a2, b2, c2) in H_1 of the central surface.  The torus
model records the images of the second triple in the torus obtained by
surgery along a1, together with the monodromy of the fibration over the
inner boundary circle: either the identity or the k-th power of a Dehn
twist along a core class d, with k in {+-1, +-4}.

All classes are primitive; the first triple pairs pairwise with a common
sign s in {+1, -1} (the torus model stores s directly); the second triple
is disjoint from a1.  When the monodromy is the identity the (projected)
triple must pair pairwise to +-1, the configuration of three curves any
two of which meet once.
"""

from __future__ import annotations

from math import gcd

from .lattice import (
    SymplecticReduction,
    Vec2,
    Vec4,
    pair2,
    pair4,
)

TWIST_EXPONENTS = (1, -1, 4, -4)
_SEQUENCES = (tuple, list)

# Validation error codes.
NON_PRIMITIVE = "NonPrimitive"
BAD_EXPONENT = "BadExponent"
BAD_SIGN = "BadSign"
IDENTITY_CASE_VIOLATION = "IdentityCaseViolation"
NON_PRIMITIVE_A1 = "NonPrimitiveA1"
TRIPLE_PAIRING_INVALID = "TriplePairingInvalid"
A2_NOT_DISJOINT = "A2NotDisjoint"
# Reported by the CLI's validate verb when surgery_project raises
# ExponentCoreMismatchError.
EXPONENT_CORE_MISMATCH = "ExponentCoreMismatch"


class InvalidDiagramError(ValueError):
    """Raised when an operation requires a valid diagram and gets none."""

    def __init__(self, errors: list[str]):
        super().__init__("invalid diagram: " + ", ".join(errors))
        self.errors = errors


class ExponentCoreMismatchError(ValueError):
    """Twist exponent and surgered core class disagree about triviality."""


class _Value:
    """Base of the frozen value classes below.

    Each subclass names its fields in _fields, stores them in __slots__
    and writes out __init__, __eq__ and __hash__ over them, as
    @dataclass(frozen=True, slots=True) would generate them; this base
    refuses assignment and deletion, gives the dataclass repr, and builds
    changed copies with _replace.  copy, deepcopy and pickle rebuild an
    instance through its constructor (__reduce__).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def _replace(self, **changes):
        """A new, unmarked instance with the given fields changed."""
        out = self.__class__(*[changes.pop(name, getattr(self, name)) for name in self._fields])
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return out

    def __reduce__(self):
        # The copy is unmarked, as one from _replace is.
        return (self.__class__, tuple([getattr(self, name) for name in self._fields]))


# Fields are set once, in __init__, past the refusing __setattr__.
_set = object.__setattr__


class Monodromy(_Value):
    """Identity, or the k-th power of the twist along the core class."""

    _fields = ("core", "exponent")
    __slots__ = _fields

    def __init__(self, core: Vec2 | None, exponent: int):
        _set(self, "core", core)
        _set(self, "exponent", exponent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.core, self.exponent) == (other.core, other.exponent)
        return NotImplemented

    def __hash__(self):
        return hash((self.core, self.exponent))

    @classmethod
    def identity(cls) -> "Monodromy":
        return cls(None, 0)

    @classmethod
    def twist(cls, core: Vec2, exponent: int) -> "Monodromy":
        return cls(tuple(core), exponent)

    @property
    def is_identity(self) -> bool:
        return self.exponent == 0

    def inverse_apply(self, x: Vec2) -> Vec2:
        """Image of x under the inverse monodromy, identity if trivial."""
        if self.exponent == 0:
            return tuple(x)
        c0, c1 = self.core
        x0, x1 = x
        m = self.exponent * (c1 * x0 - c0 * x1)
        return (x0 + m * c0, x1 + m * c1)

    def apply(self, x: Vec2) -> Vec2:
        """Image of x under the monodromy, identity if trivial."""
        if self.exponent == 0:
            return tuple(x)
        c0, c1 = self.core
        x0, x1 = x
        m = self.exponent * (c0 * x1 - c1 * x0)
        return (x0 + m * c0, x1 + m * c1)


class TorusDiagram(_Value):
    """Surgered diagram: three classes on the torus plus the monodromy.

    sign is the common sign of the three pairwise pairings of the genus-2
    triple (a1, b1, c1) the diagram was projected from.
    """

    _fields = ("a2", "b2", "c2", "monodromy", "sign")
    # _valid: the validity mark (see _mark); not a field, so ==, hash and repr ignore it.
    __slots__ = (*_fields, "_valid")

    def __init__(self, a2: Vec2, b2: Vec2, c2: Vec2, monodromy: Monodromy, sign: int = 1):
        _set(self, "a2", a2)
        _set(self, "b2", b2)
        _set(self, "c2", c2)
        _set(self, "monodromy", monodromy)
        _set(self, "sign", sign)
        _set(self, "_valid", False)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a2, self.b2, self.c2, self.monodromy, self.sign) == (
                other.a2, other.b2, other.c2, other.monodromy, other.sign
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.a2, self.b2, self.c2, self.monodromy, self.sign))

    def classes(self) -> tuple[Vec2, Vec2, Vec2]:
        return (self.a2, self.b2, self.c2)


class Genus2Diagram(_Value):
    """Six vanishing cycles in H_1 of the genus-2 surface.

    exponent is the monodromy twist power; 0 encodes the identity.  The
    twist core is not stored: it is the surgery projection of a1+b1+c1.
    """

    _fields = ("a1", "b1", "c1", "a2", "b2", "c2", "exponent")
    # _valid: the validity mark (see _mark); not a field, so ==, hash and repr ignore it.
    __slots__ = (*_fields, "_valid")

    def __init__(self, a1: Vec4, b1: Vec4, c1: Vec4, a2: Vec4, b2: Vec4, c2: Vec4, exponent: int):
        _set(self, "a1", a1)
        _set(self, "b1", b1)
        _set(self, "c1", c1)
        _set(self, "a2", a2)
        _set(self, "b2", b2)
        _set(self, "c2", c2)
        _set(self, "exponent", exponent)
        _set(self, "_valid", False)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a1, self.b1, self.c1, self.a2, self.b2, self.c2, self.exponent) == (
                other.a1, other.b1, other.c1, other.a2, other.b2, other.c2, other.exponent
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.a1, self.b1, self.c1, self.a2, self.b2, self.c2, self.exponent))


def _pairwise_unit(x, y, z, pairing) -> bool:
    return all(abs(pairing(u, v)) == 1 for u, v in ((x, y), (y, z), (z, x)))


# The shape rule for classes, checked before any arithmetic: a tuple or
# list of exactly n entries of exact type int.  1.0 and True compare equal
# to integers and math.gcd takes True, and a class of another length would
# slip past gcd and the pairings.  Each validator checks all its classes in
# one call for their width, which reports the first class apart from the
# others: the torus core and the genus-2 a1 have rules of their own.
def _vec2_shapes(first, x, y, z) -> tuple[bool, bool]:
    """Whether first has the shape for n = 2, and whether x, y and z do."""
    return (
        type(first) in _SEQUENCES and len(first) == 2 and type(first[0]) is type(first[1]) is int,
        type(x) in _SEQUENCES
        and type(y) in _SEQUENCES
        and type(z) in _SEQUENCES
        and len(x) == len(y) == len(z) == 2
        and type(x[0]) is type(x[1]) is type(y[0]) is type(y[1]) is type(z[0]) is type(z[1]) is int,
    )


def _vec4_shapes(first, u, v, x, y, z) -> tuple[bool, bool]:
    """Whether first has the shape for n = 4, and whether u, v, x, y and z do."""
    return (
        type(first) in _SEQUENCES
        and len(first) == 4
        and type(first[0]) is type(first[1]) is type(first[2]) is type(first[3]) is int,
        type(u) in _SEQUENCES
        and type(v) in _SEQUENCES
        and type(x) in _SEQUENCES
        and type(y) in _SEQUENCES
        and type(z) in _SEQUENCES
        and len(u) == len(v) == len(x) == len(y) == len(z) == 4
        and type(u[0]) is type(u[1]) is type(u[2]) is type(u[3])
        is type(v[0]) is type(v[1]) is type(v[2]) is type(v[3])
        is type(x[0]) is type(x[1]) is type(x[2]) is type(x[3])
        is type(y[0]) is type(y[1]) is type(y[2]) is type(y[3])
        is type(z[0]) is type(z[1]) is type(z[2]) is type(z[3])
        is int,
    )


def _fields_or_none(d, cls) -> list:
    # Out of line: a comprehension in a validator would make d a closure cell.
    return [getattr(d, name, None) for name in cls._fields]


def validate_torus(d: TorusDiagram) -> list[str]:
    """Every violated invariant of the torus model, empty when valid.

    Each class and the core must first have the shape _vec2_shapes checks.
    A class that fails is not primitive, and the arithmetic rules are not
    applied to it.  The exponent and the sign must be exact ints too.  A
    field d lacks counts as None.  A valid diagram is marked (see _mark).
    """
    errors = []
    try:
        a, b, c = d.a2, d.b2, d.c2
        mono, sign = d.monodromy, d.sign
    except AttributeError:
        a, b, c, mono, sign = _fields_or_none(d, TorusDiagram)
    try:
        k, core = mono.exponent, mono.core
    except AttributeError:  # not a Monodromy: refused as BadExponent below
        k = core = None
    core_shaped, shaped = _vec2_shapes(core, a, b, c)
    if not (shaped and gcd(*a) == gcd(*b) == gcd(*c) == 1):
        errors.append(NON_PRIMITIVE)
    if type(k) is not int:
        errors.append(BAD_EXPONENT)
    elif k == 0:
        if core is not None:
            errors.append(BAD_EXPONENT)
        elif shaped and not _pairwise_unit(a, b, c, pair2):
            errors.append(IDENTITY_CASE_VIOLATION)
    elif k not in TWIST_EXPONENTS or core is None:
        errors.append(BAD_EXPONENT)
    elif not (core_shaped and gcd(*core) == 1):
        errors.append(NON_PRIMITIVE)
    if type(sign) is not int or sign not in (1, -1):
        errors.append(BAD_SIGN)
    if not errors:
        _mark(d)
    return errors


def validate_genus2(d: Genus2Diagram) -> list[str]:
    """Every violated invariant of the genus-2 model, empty when valid.

    Each class must first have the shape _vec4_shapes checks; a1 failing
    is NonPrimitiveA1, any other class failing is NonPrimitive, and the
    pairings are then not computed.  A field d lacks counts as None.  A
    valid diagram is marked (see _mark).  surgery_project can still refuse
    it: when the twist exponent and the core disagree, or when a projected
    class is not primitive.
    """
    errors = []
    try:
        a1, b1, c1 = d.a1, d.b1, d.c1
        a2, b2, c2 = d.a2, d.b2, d.c2
        k = d.exponent
    except AttributeError:
        a1, b1, c1, a2, b2, c2, k = _fields_or_none(d, Genus2Diagram)
    a1_shaped, shaped = _vec4_shapes(a1, b1, c1, a2, b2, c2)
    if not (a1_shaped and gcd(*a1) == 1):
        errors.append(NON_PRIMITIVE_A1)
    # The other classes need no gcd of their own: they project to the
    # torus classes, which surgery_project checks.
    if not shaped:
        errors.append(NON_PRIMITIVE)
    disjoint = False
    if shaped and a1_shaped:
        p_ab, p_bc, p_ca = pair4(a1, b1), pair4(b1, c1), pair4(c1, a1)
        if not (p_ab == p_bc == p_ca and p_ab in (1, -1)):
            errors.append(TRIPLE_PAIRING_INVALID)
        disjoint = pair4(a1, a2) == 0 and pair4(a1, b2) == 0 and pair4(a1, c2) == 0
        if not disjoint:
            errors.append(A2_NOT_DISJOINT)
    if type(k) is not int or (k != 0 and k not in TWIST_EXPONENTS):
        errors.append(BAD_EXPONENT)
    elif k == 0 and disjoint:
        # For classes disjoint from a1 the surgered pairing agrees with
        # pair4, so the identity-case constraint needs no projection.
        if not _pairwise_unit(a2, b2, c2, pair4):
            errors.append(IDENTITY_CASE_VIOLATION)
    if not errors:
        _mark(d)
    return errors


# The validity mark.  These two helpers are the only code that sets it,
# and _trusted alone writes it; require_valid_torus and
# require_valid_genus2 trust a marked diagram.
def _mark(d):
    """Mark d, known to be valid, and return it.

    Only an exact TorusDiagram whose classes and core are tuples, with an
    exact Monodromy, or an exact Genus2Diagram whose six classes are
    tuples, is marked, since a list could change after the check.  The
    validators, the moves, embed_torus and handle_slide mark by this rule.
    """
    if type(d) is TorusDiagram:
        mono = d.monodromy
        ok = (
            type(d.a2) is tuple
            and type(d.b2) is tuple
            and type(d.c2) is tuple
            and type(mono) is Monodromy
            and (mono.core is None or type(mono.core) is tuple)
        )
    else:
        ok = (
            type(d) is Genus2Diagram
            and type(d.a1) is tuple
            and type(d.b1) is tuple
            and type(d.c1) is tuple
            and type(d.a2) is tuple
            and type(d.b2) is tuple
            and type(d.c2) is tuple
        )
    return _trusted(d) if ok else d


def _trusted(out):
    """Mark out, whose every field the caller built as a new tuple or an
    exact Monodromy and has shown valid, and return it."""
    object.__setattr__(out, "_valid", True)
    return out


def _core_lift(d: Genus2Diagram) -> Vec4:
    """a1 + b1 + c1, which projects to the twist core under surgery."""
    x, y, z = d.a1, d.b1, d.c1
    return (x[0] + y[0] + z[0], x[1] + y[1] + z[1], x[2] + y[2] + z[2], x[3] + y[3] + z[3])


def require_valid_torus(d: TorusDiagram) -> None:
    if type(d) is TorusDiagram and d._valid:
        return
    errors = validate_torus(d)
    if errors:
        raise InvalidDiagramError(errors)


def require_valid_genus2(d: Genus2Diagram) -> None:
    if type(d) is Genus2Diagram and d._valid:
        return
    errors = validate_genus2(d)
    if errors:
        raise InvalidDiagramError(errors)


def surgery_project(d: Genus2Diagram) -> TorusDiagram:
    """Project a genus-2 diagram to the torus surgered along a1.

    The monodromy core is the projection of a1+b1+c1, which represents the
    boundary of the three-curve configuration.  A nonzero twist exponent
    with a vanishing core (or the converse) is geometrically impossible and
    raises ExponentCoreMismatchError.

    With (a1, f1, e2, f2) the basis of SymplecticReduction(a1), a class w
    disjoint from a1 projects to (-pair4(f2, w), pair4(e2, w)), computed
    inline.  The output is not passed through validate_torus: on a valid
    genus-2 diagram, every torus rule but primitivity already holds.
    - Exponent: validate_genus2 admits only an exact int in {0, +-1, +-4},
      and the exponent-core check pairs 0 with the identity and the
      others with a nonzero core.
    - Sign: pair4(a1, b1) is +-1 by the triple pairing, and an exact int
      because validate_genus2 admits exact int entries only.
    - Identity case: for classes disjoint from a1, pair2 of the
      projections equals pair4 of the classes, which validate_genus2
      requires to be +-1 pairwise.
    - Disjointness: A2NotDisjoint covers a2, b2 and c2, and
      pair4(a1, a1+b1+c1) = pair4(a1, b1) - pair4(c1, a1) = s - s = 0
      covers the core.
    A projected class or a nonzero core can still have gcd > 1: the lift
    ((1,0,0,0), (0,1,0,0), (-1,-1,2,0), (0,0,0,1), (0,0,1,1), (0,0,1,0), 1)
    passes validate_genus2 and projects to core (2, 0).  So primitivity is
    checked here, and refused with InvalidDiagramError(["NonPrimitive"])
    as validate_torus would.  validate_genus2 admits integer entries
    only, so the output is built of tuples and exact Monodromy and is
    marked with _trusted.
    """
    require_valid_genus2(d)
    _a, _f1, (e0, e1, e2, e3), (f0, f1, f2, f3) = SymplecticReduction(d.a1).basis
    core, a2, b2, c2 = [
        (f1 * w0 - f0 * w1 + f3 * w2 - f2 * w3, e0 * w1 - e1 * w0 + e2 * w3 - e3 * w2)
        for w0, w1, w2, w3 in (_core_lift(d), d.a2, d.b2, d.c2)
    ]
    k = d.exponent
    if k == 0:
        if core != (0, 0):
            raise ExponentCoreMismatchError(
                f"identity monodromy but a1+b1+c1 projects to {core}"
            )
        mono = Monodromy(None, 0)
        primitive = True
    else:
        if core == (0, 0):
            raise ExponentCoreMismatchError(
                f"twist exponent {k} but a1+b1+c1 projects to zero"
            )
        mono = Monodromy(core, k)
        primitive = gcd(*core) == 1
    if not (primitive and gcd(*a2) == 1 and gcd(*b2) == 1 and gcd(*c2) == 1):
        raise InvalidDiagramError([NON_PRIMITIVE])
    return _trusted(TorusDiagram(a2, b2, c2, mono, pair4(d.a1, d.b1)))


def embed_torus(d: TorusDiagram) -> Genus2Diagram:
    """Standard genus-2 lift of a torus diagram.

    The first triple is placed in the first coordinate block according to
    the stored sign s: a1 = alpha1 and, for s = +1, b1 = beta1 with
    c1 = -alpha1 - beta1 + dt, where dt is the core class placed in the
    second block (zero for identity monodromy); for s = -1, b1 = -beta1
    and c1 = -alpha1 + beta1 + dt.  In both cases a1 + b1 + c1 = dt, so
    surgery_project(embed_torus(d)) == d exactly, and the lift of a valid
    diagram is valid.
    """
    require_valid_torus(d)
    dx, dy = d.monodromy.core if d.monodromy.core is not None else (0, 0)
    a1 = (1, 0, 0, 0)
    if d.sign == 1:
        b1 = (0, 1, 0, 0)
        c1 = (-1, -1, dx, dy)
    else:
        b1 = (0, -1, 0, 0)
        c1 = (-1, 1, dx, dy)
    out = Genus2Diagram(
        a1=a1,
        b1=b1,
        c1=c1,
        a2=(0, 0) + tuple(d.a2),
        b2=(0, 0) + tuple(d.b2),
        c2=(0, 0) + tuple(d.c2),
        exponent=d.monodromy.exponent,
    )
    return _mark(out)


def intersection_invariant(d: TorusDiagram | Genus2Diagram) -> tuple[int, int, int]:
    """Unordered-boundary intersection triple of the diagram.

    On the torus model this is (|d.a2|, |d.b2|, |d.c2|) paired against the
    twist core, and (0, 0, 0) for identity monodromy.  A genus-2 diagram is
    projected by surgery_project first, so it is refused exactly when its
    projection is.
    """
    if isinstance(d, Genus2Diagram):
        d = surgery_project(d)
    require_valid_torus(d)
    mono = d.monodromy
    if mono.exponent == 0:
        return (0, 0, 0)
    x, y = mono.core
    a0, a1 = d.a2
    b0, b1 = d.b2
    c0, c1 = d.c2
    return (abs(x * a1 - y * a0), abs(x * b1 - y * b0), abs(x * c1 - y * c0))


def rotations_inequivalent(d: TorusDiagram | Genus2Diagram) -> bool:
    """Whether V, s2 V and s2^2 V are pairwise inequivalent, in closed form.

    Equivalence is the relation canonical_form decides: a determinant-1
    basis change and a sign flip of each class and the core, exponent and
    sign fixed.  With I(V) = (|pair2(d, a2)|, |pair2(d, b2)|,
    |pair2(d, c2)|) for the twist core d, and (0, 0, 0) under identity
    monodromy, the answer is I(V) != (0, 0, 0).  A genus-2 diagram is
    projected first, as intersection_invariant does.

    Proof.  s2 commutes with a basis change B (the core of BV is Bd, so
    its monodromy is B mu B^-1), and s2^3 V is the basis change mu^-1 of
    V.  So V ~ s2^2 V iff s2 V ~ V, and the three are pairwise
    inequivalent exactly when V and s2 V are not equivalent.
    - Twist mu = T_d^k, k in {+-1, +-4}.  Suppose B carries V to s2 V up
      to signs.  B sends d to +-d, so in a basis (d, e) B = +-T_d^n, and
      B commutes with mu.  Chasing a2 -> +-b2 -> +-mu^-1 c2 -> +-mu^-1 a2
      gives B^3 x = +-mu^-1 x, that is T_d^(3n+k) x = +-x, for each x in
      {a2, b2, c2}.  k is not a multiple of 3, so 3n + k != 0, and
      T_d^m x = +-x with m != 0 forces pair2(d, x) = 0, so x = +-d and
      I(V) = (0, 0, 0).  Conversely, if a2, b2 and c2 are all +-d, then
      mu^-1 fixes c2 and s2 V = (b2, c2, a2) is V up to sign flips.
    - Identity.  The classes pair pairwise to +-1, so (a2, b2) is a basis
      and c2 = x a2 + y b2 with x, y = +-1.  For e = +-1, the map
      a2 -> e b2, b2 -> -x e c2 has determinant 1 and sends c2 to
      -y e a2, so V ~ s2 V.
    """
    return intersection_invariant(d) != (0, 0, 0)


def _rotations(inv: tuple[int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """I(V), I(s2 V) and I(s2^2 V), from inv = I(V).

    Proof.  s2 sends (a2, b2, c2) to (b2, mu^-1(c2), a2), and mu^-1
    fixes the core d and preserves pair2, so I(s2 V) = (I_b, I_c, I_a);
    identity monodromy gives (0, 0, 0) throughout.  A canonical form
    changes each pairing with the core at most in sign, so I is the same
    on a diagram and its canonical form.  The rows are cyclic shifts of
    one triple, so they are pairwise distinct, and I separates the three
    rotations, exactly when the entries of inv are not all equal.
    """
    i0, i1, i2 = inv
    return inv, (i1, i2, i0), (i2, i0, i1)


def handle_slide(d: Genus2Diagram, target: str, sign: int = 1) -> Genus2Diagram:
    """Slide one of a2, b2, c2 over a1, replacing it by itself +- a1.

    Slides preserve validity, the surgery projection and the intersection
    invariant: the new class pairs with everything disjoint from a1
    exactly as the old one did.
    """
    require_valid_genus2(d)
    if target not in ("a2", "b2", "c2"):
        raise ValueError(f"slide target must be one of a2, b2, c2, got {target!r}")
    _check_sign(sign, "slide sign")
    moved = tuple(wi + sign * ai for wi, ai in zip(getattr(d, target), d.a1))
    return _mark(d._replace(**{target: moved}))


def _check_sign(value, name: str) -> None:
    # 1.0 and True compare equal to 1 but would build non-int classes.
    if type(value) is not int or value not in (1, -1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


class HypothesisReport(_Value):
    """Truth values of the three certification hypotheses.

    monodromy_nontrivial: the twist exponent is nonzero.
    b2_c2_independent: pair2(b2, c2) != 0.
    a2_pulled_c2_independent: pair2(a2, mu^-1(c2)) != 0, where mu is the
        monodromy.
    When all three hold, the diagram and its two successive inner-circle
    rotations are pairwise inequivalent.
    """

    _fields = ("monodromy_nontrivial", "b2_c2_independent", "a2_pulled_c2_independent")
    __slots__ = _fields

    def __init__(
        self, monodromy_nontrivial: bool, b2_c2_independent: bool, a2_pulled_c2_independent: bool
    ):
        _set(self, "monodromy_nontrivial", monodromy_nontrivial)
        _set(self, "b2_c2_independent", b2_c2_independent)
        _set(self, "a2_pulled_c2_independent", a2_pulled_c2_independent)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.monodromy_nontrivial, self.b2_c2_independent, self.a2_pulled_c2_independent
            ) == (
                other.monodromy_nontrivial, other.b2_c2_independent, other.a2_pulled_c2_independent
            )
        return NotImplemented

    def __hash__(self):
        return hash(
            (self.monodromy_nontrivial, self.b2_c2_independent, self.a2_pulled_c2_independent)
        )

    @property
    def all_hold(self) -> bool:
        return (
            self.monodromy_nontrivial
            and self.b2_c2_independent
            and self.a2_pulled_c2_independent
        )

    def failures(self) -> list[str]:
        out = []
        if not self.monodromy_nontrivial:
            out.append("monodromy is identity")
        if not self.b2_c2_independent:
            out.append("b2 and c2 are parallel")
        if not self.a2_pulled_c2_independent:
            out.append("a2 and mu^-1(c2) are parallel")
        return out


def theorem_hypotheses(d: TorusDiagram) -> HypothesisReport:
    """Evaluate the certification hypotheses on a valid torus diagram."""
    require_valid_torus(d)
    mono = d.monodromy
    a0, a1 = d.a2
    b0, b1 = d.b2
    c0, c1 = d.c2
    p0, p1 = mono.inverse_apply(d.c2)
    return HypothesisReport(
        mono.exponent != 0, b0 * c1 - b1 * c0 != 0, a0 * p1 - a1 * p0 != 0
    )
