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

from dataclasses import dataclass
from math import gcd

from .lattice import (
    SymplecticReduction,
    Vec2,
    Vec4,
    is_primitive,
    pair2,
    pair4,
    transvect,
)

TWIST_EXPONENTS = (1, -1, 4, -4)

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


@dataclass(frozen=True)
class Monodromy:
    """Identity, or the k-th power of the twist along the core class."""

    core: Vec2 | None
    exponent: int

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
        return transvect(self.core, -self.exponent, x)

    def apply(self, x: Vec2) -> Vec2:
        if self.exponent == 0:
            return tuple(x)
        return transvect(self.core, self.exponent, x)


@dataclass(frozen=True)
class TorusDiagram:
    """Surgered diagram: three classes on the torus plus the monodromy.

    sign is the common sign of the three pairwise pairings of the genus-2
    triple (a1, b1, c1) the diagram was projected from.
    """

    a2: Vec2
    b2: Vec2
    c2: Vec2
    monodromy: Monodromy
    sign: int = 1

    # Validity mark (see _mark_torus); not a field, so ==, hash and repr
    # ignore it.
    _valid = False

    def classes(self) -> tuple[Vec2, Vec2, Vec2]:
        return (self.a2, self.b2, self.c2)


@dataclass(frozen=True)
class Genus2Diagram:
    """Six vanishing cycles in H_1 of the genus-2 surface.

    exponent is the monodromy twist power; 0 encodes the identity.  The
    twist core is not stored: it is the surgery projection of a1+b1+c1.
    """

    a1: Vec4
    b1: Vec4
    c1: Vec4
    a2: Vec4
    b2: Vec4
    c2: Vec4
    exponent: int

    # Validity mark (see _mark_genus2); not a field, so ==, hash and repr
    # ignore it.
    _valid = False


def _pairwise_unit(x, y, z, pairing) -> bool:
    return all(abs(pairing(u, v)) == 1 for u, v in ((x, y), (y, z), (z, x)))


def validate_torus(d: TorusDiagram) -> list[str]:
    """Every violated invariant of the torus model, empty when valid.

    A valid diagram is marked (see _mark_torus).
    """
    errors = []
    a, b, c = d.a2, d.b2, d.c2
    if gcd(*a) != 1 or gcd(*b) != 1 or gcd(*c) != 1:
        errors.append(NON_PRIMITIVE)
    mono = d.monodromy
    if mono.exponent == 0:
        if mono.core is not None:
            errors.append(BAD_EXPONENT)
        elif not _pairwise_unit(a, b, c, pair2):
            errors.append(IDENTITY_CASE_VIOLATION)
    elif mono.exponent not in TWIST_EXPONENTS or mono.core is None:
        errors.append(BAD_EXPONENT)
    elif gcd(*mono.core) != 1:
        errors.append(NON_PRIMITIVE)
    if d.sign not in (1, -1):
        errors.append(BAD_SIGN)
    if not errors:
        _mark_torus(d)
    return errors


def validate_genus2(d: Genus2Diagram) -> list[str]:
    """Every violated invariant of the genus-2 model, empty when valid.

    A valid diagram is marked (see _mark_genus2).  surgery_project can
    still refuse it: when the twist exponent and the core disagree, or when
    a projected class is not primitive.
    """
    errors = []
    if not is_primitive(d.a1):
        errors.append(NON_PRIMITIVE_A1)
    p_ab, p_bc, p_ca = pair4(d.a1, d.b1), pair4(d.b1, d.c1), pair4(d.c1, d.a1)
    if not (p_ab == p_bc == p_ca and p_ab in (1, -1)):
        errors.append(TRIPLE_PAIRING_INVALID)
    disjoint = all(pair4(d.a1, w) == 0 for w in (d.a2, d.b2, d.c2))
    if not disjoint:
        errors.append(A2_NOT_DISJOINT)
    if d.exponent != 0 and d.exponent not in TWIST_EXPONENTS:
        errors.append(BAD_EXPONENT)
    if d.exponent == 0 and disjoint:
        # For classes disjoint from a1 the surgered pairing agrees with
        # pair4, so the identity-case constraint needs no projection.
        if not _pairwise_unit(d.a2, d.b2, d.c2, pair4):
            errors.append(IDENTITY_CASE_VIOLATION)
    if not errors:
        _mark_genus2(d)
    return errors


def _mark_torus(d: TorusDiagram) -> TorusDiagram:
    """Mark d, known to be valid, so that require_valid_torus trusts it.

    validate_torus and the moves that preserve validity call this.  Only a
    TorusDiagram whose classes and core are tuples is marked, since a list
    could change after the check.  Returns d.
    """
    if (
        type(d) is TorusDiagram
        and type(d.a2) is tuple
        and type(d.b2) is tuple
        and type(d.c2) is tuple
        and type(d.monodromy) is Monodromy
        and (d.monodromy.core is None or type(d.monodromy.core) is tuple)
    ):
        object.__setattr__(d, "_valid", True)
    return d


def _mark_genus2(d: Genus2Diagram) -> Genus2Diagram:
    """Mark d, known to be valid, so that require_valid_genus2 trusts it.

    As _mark_torus: only a Genus2Diagram whose six classes are tuples is
    marked.  Returns d.
    """
    if (
        type(d) is Genus2Diagram
        and type(d.a1) is tuple
        and type(d.b1) is tuple
        and type(d.c1) is tuple
        and type(d.a2) is tuple
        and type(d.b2) is tuple
        and type(d.c2) is tuple
    ):
        object.__setattr__(d, "_valid", True)
    return d


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
    """
    require_valid_genus2(d)
    red = SymplecticReduction(d.a1)
    total = tuple(x + y + z for x, y, z in zip(d.a1, d.b1, d.c1))
    core = red.project(total)
    if d.exponent == 0:
        if core != (0, 0):
            raise ExponentCoreMismatchError(
                f"identity monodromy but a1+b1+c1 projects to {core}"
            )
        mono = Monodromy.identity()
    else:
        if core == (0, 0):
            raise ExponentCoreMismatchError(
                f"twist exponent {d.exponent} but a1+b1+c1 projects to zero"
            )
        mono = Monodromy.twist(core, d.exponent)
    out = TorusDiagram(
        a2=red.project(d.a2),
        b2=red.project(d.b2),
        c2=red.project(d.c2),
        monodromy=mono,
        sign=pair4(d.a1, d.b1),
    )
    require_valid_torus(out)
    return out


def embed_torus(d: TorusDiagram) -> Genus2Diagram:
    """Standard genus-2 lift of a torus diagram.

    The first triple is placed in the first coordinate block according to
    the stored sign s: a1 = alpha1 and, for s = +1, b1 = beta1 with
    c1 = -alpha1 - beta1 + dt, where dt is the core class placed in the
    second block (zero for identity monodromy); for s = -1, b1 = -beta1
    and c1 = -alpha1 + beta1 + dt.  In both cases a1 + b1 + c1 = dt, so
    surgery_project(embed_torus(d)) == d exactly.
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
    return Genus2Diagram(
        a1=a1,
        b1=b1,
        c1=c1,
        a2=(0, 0) + tuple(d.a2),
        b2=(0, 0) + tuple(d.b2),
        c2=(0, 0) + tuple(d.c2),
        exponent=d.monodromy.exponent,
    )


def intersection_invariant(d: TorusDiagram | Genus2Diagram) -> tuple[int, int, int]:
    """Unordered-boundary intersection triple of the diagram.

    On the torus model this is (|d.a2|, |d.b2|, |d.c2|) paired against the
    twist core, and (0, 0, 0) for identity monodromy.  On the genus-2
    model the core is replaced by b1 + c1, which projects to the core, so
    the two computations agree through surgery_project.
    """
    if isinstance(d, Genus2Diagram):
        require_valid_genus2(d)
        if d.exponent == 0:
            return (0, 0, 0)
        bc = tuple(x + y for x, y in zip(d.b1, d.c1))
        return tuple(abs(pair4(bc, w)) for w in (d.a2, d.b2, d.c2))
    require_valid_torus(d)
    mono = d.monodromy
    if mono.is_identity:
        return (0, 0, 0)
    return tuple(abs(pair2(mono.core, w)) for w in d.classes())


def handle_slide(d: Genus2Diagram, target: str, sign: int = 1) -> Genus2Diagram:
    """Slide one of a2, b2, c2 over a1, replacing it by itself +- a1.

    Slides preserve validity, the surgery projection and the intersection
    invariant: the new class pairs with everything disjoint from a1
    exactly as the old one did.
    """
    require_valid_genus2(d)
    if target not in ("a2", "b2", "c2"):
        raise ValueError(f"slide target must be one of a2, b2, c2, got {target!r}")
    if sign not in (1, -1):
        raise ValueError(f"slide sign must be +1 or -1, got {sign!r}")
    w = getattr(d, target)
    moved = tuple(wi + sign * ai for wi, ai in zip(w, d.a1))
    out = {target: moved}
    slid = Genus2Diagram(
        a1=d.a1,
        b1=d.b1,
        c1=d.c1,
        a2=out.get("a2", d.a2),
        b2=out.get("b2", d.b2),
        c2=out.get("c2", d.c2),
        exponent=d.exponent,
    )
    return _mark_genus2(slid)


@dataclass(frozen=True)
class HypothesisReport:
    """Truth values of the three certification hypotheses.

    monodromy_nontrivial: the twist exponent is nonzero.
    b2_c2_independent: pair2(b2, c2) != 0.
    a2_pulled_c2_independent: pair2(a2, mu^-1(c2)) != 0, where mu is the
        monodromy.
    When all three hold, the diagram and its two successive inner-circle
    rotations are pairwise inequivalent.
    """

    monodromy_nontrivial: bool
    b2_c2_independent: bool
    a2_pulled_c2_independent: bool

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
    return HypothesisReport(
        monodromy_nontrivial=not mono.is_identity,
        b2_c2_independent=pair2(d.b2, d.c2) != 0,
        a2_pulled_c2_independent=pair2(d.a2, mono.inverse_apply(d.c2)) != 0,
    )
