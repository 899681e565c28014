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
    Vec2,
    Vec4,
    _check_sign,
    _reduce,
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

    Each subclass names its fields in _fields and stores them in
    __slots__; _field_defaults gives defaults for trailing fields, as in
    namedtuple.  __init_subclass__ generates from _fields the subclass's
    constructors, and nothing else; __eq__ and __hash__ are this base's.

    Construction.  Assignment is refused, and a store through
    object.__setattr__ costs a call per field.  So each subclass gets an
    open twin, made with one type() call: a subclass with no slots of its
    own, and so the same layout, whose __setattr__ and __delattr__ are
    object's.  The generated _build(cls, *fields) makes the object as the
    twin, stores each field plainly, sets each slot outside _fields (the
    validity mark of the diagram classes) to False, and switches the
    object's class to cls, so no value leaves it as the twin.  _build is
    the class's __new__ unless the class writes its own, as LensSpace
    does to check its normal form first.  A subclass builds through its
    own twin, so one with an instance dict builds too.  A class with a
    validity mark also gets _build_marked(*fields), from the same compile
    call: the same steps, with the mark set to True and the class fixed.
    Only diagram.py calls it, through _marked_torus, _marked_genus2,
    _moved_torus and _moved_genus2; the constructor, _replace, copy and
    pickle all build unmarked.

    Semantics, those of @dataclass(eq=True, frozen=True): == compares
    the field tuples of two instances of one class, and the hash is that
    of the field tuple.  An __eq__ or __hash__ that the class itself
    writes stays, as TorusDiagram's do, and must keep these semantics; a
    subclass, which may add fields, takes this base's pair again, and a
    class that writes __eq__ alone gets this base's __hash__.  This base also
    refuses assignment and deletion, gives the dataclass repr, and builds
    changed copies with _replace.  copy, deepcopy and pickle rebuild an
    instance through its constructor (__reduce__).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _field_defaults: dict = {}

    def __init_subclass__(cls, twin=False):
        if twin:
            return
        fields, defaults = cls._fields, cls._field_defaults
        marks = [n for k in cls.__mro__ for n in vars(k).get("__slots__", ()) if n not in fields]
        params = "".join(f", {n}=defaults[{n!r}]" if n in defaults else f", {n}" for n in fields)
        stores = "".join(f"    self.{name} = {name}\n" for name in fields)
        source = (
            f"def _build(cls{params}):\n"
            "    self = new(cls._open)\n"
            + stores
            + "".join(f"    self.{name} = False\n" for name in marks)
            + "    self.__class__ = cls\n"
            "    return self\n"
        )
        if marks:
            source += (
                f"def _build_marked({params[2:]}):\n"
                "    self = new(twin)\n"
                + stores
                + "".join(f"    self.{name} = True\n" for name in marks)
                + "    self.__class__ = owner\n"
                "    return self\n"
            )
        methods = {}
        namespace = {"new": object.__new__, "defaults": defaults, "owner": cls}
        exec(compile(source, f"<{cls.__qualname__} generated methods>", "exec"), namespace, methods)
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
        own = vars(cls)
        if "__eq__" not in own:
            cls.__eq__ = _Value.__eq__
        # Writing __eq__ alone sets __hash__ to None in the class.
        if own.get("__hash__") is None:
            cls.__hash__ = _Value.__hash__
        build = staticmethod(methods["_build"])
        # A __new__ that the class or a base below _Value wrote stays; an
        # inherited generated one gives way to this class's.
        if cls.__new__ is object.__new__ or cls.__new__ is getattr(cls, "_build", None):
            cls.__new__ = build
        cls._build = build
        cls._open = namespace["twin"] = type(cls.__name__, (cls,), {
            "__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__,
            "__module__": cls.__module__, "__qualname__": f"{cls.__qualname__}._open",
        }, twin=True)
        if marks:
            cls._build_marked = staticmethod(methods["_build_marked"])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

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
        return (self.__class__, self._values())


class _FieldTable:
    """__dataclass_fields__ of a _Value class that dataclasses must accept.
    Only dataclasses reads that name, so importing it on the first read loads
    nothing new; the bare dataclass() then puts the real table over this one.
    Threads that race here each apply it and get equal tables, so no lock."""

    def __get__(self, obj, cls):
        from dataclasses import dataclass
        return dataclass(init=False, repr=False, eq=False)(cls).__dataclass_fields__


class Monodromy(_Value):
    """Identity, or the k-th power of the twist along the core class."""

    _fields = ("core", "exponent")
    __slots__ = _fields

    @classmethod
    def identity(cls) -> "Monodromy":
        """The identity; on Monodromy itself, the one shared _IDENTITY."""
        return _IDENTITY if cls is Monodromy else cls(None, 0)

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
    _field_defaults = {"sign": 1}
    # _valid: the validity mark (see below); not a field, so ==, hash and repr ignore it.
    __slots__ = (*_fields, "_valid")

    # The base generates only constructors; this is a fast path of its
    # pair, with an exact Monodromy's two fields read in place, so that no
    # nested Python call is made.  The hash of the tuple (core, exponent)
    # is that of the Monodromy, so the hash is still that of the field
    # tuple.  Any other monodromy takes the field tuple itself.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        m, n = self.monodromy, other.monodromy
        if m.__class__ is Monodromy and n.__class__ is Monodromy:
            return (self.a2, self.b2, self.c2, m.core, m.exponent, self.sign) == (
                other.a2, other.b2, other.c2, n.core, n.exponent, other.sign
            )
        return self._values() == other._values()

    def __hash__(self):
        m = self.monodromy
        if m.__class__ is Monodromy:
            m = (m.core, m.exponent)
        return hash((self.a2, self.b2, self.c2, m, self.sign))


class Genus2Diagram(_Value):
    """Six vanishing cycles in H_1 of the genus-2 surface.

    exponent is the monodromy twist power; 0 encodes the identity.  The
    twist core is not stored: it is the surgery projection of a1+b1+c1.
    """

    _fields = ("a1", "b1", "c1", "a2", "b2", "c2", "exponent")
    # _valid: the validity mark (see below); not a field, so ==, hash and repr ignore it.
    __slots__ = (*_fields, "_valid")


_IDENTITY = Monodromy(None, 0)


# The validity mark; require_valid_torus and require_valid_genus2 trust a
# marked diagram.  validate_torus and validate_genus2 alone inspect a
# diagram and mark it: an exact TorusDiagram whose classes and core are
# tuples, with an exact Monodromy, or an exact Genus2Diagram whose six
# classes are tuples, since a list could change after the check.  Any
# other code builds a diagram marked only from tuples it made itself
# (surgery_project, embed_torus and moves._canonical, through _marked_torus
# and _marked_genus2) or from the fields of a marked input (the moves,
# through _moved_torus and _moved_genus2); everything else builds unmarked.
_marked_torus = TorusDiagram._build_marked
_marked_genus2 = Genus2Diagram._build_marked


def _moved_torus(d: TorusDiagram, a2, b2, c2) -> TorusDiagram:
    """d with the classes (a2, b2, c2), for a move on the valid torus
    diagram d that builds each class as d's own class or a new tuple: marked
    exactly when d is."""
    if type(d) is TorusDiagram and d._valid:
        return _marked_torus(a2, b2, c2, d.monodromy, d.sign)
    return TorusDiagram(a2, b2, c2, d.monodromy, d.sign)


def _moved_genus2(d: Genus2Diagram, a1, b1, c1, a2, b2, c2) -> Genus2Diagram:
    """d with the classes (a1, b1, c1, a2, b2, c2), for a move on the valid
    genus-2 diagram d that builds each class as d's own class or a new
    tuple: marked exactly when d is."""
    if type(d) is Genus2Diagram and d._valid:
        return _marked_genus2(a1, b1, c1, a2, b2, c2, d.exponent)
    return Genus2Diagram(a1, b1, c1, a2, b2, c2, d.exponent)


def _pairwise_unit(x, y, z, pairing) -> bool:
    return all(abs(pairing(u, v)) == 1 for u, v in ((x, y), (y, z), (z, x)))


# The shape rule for a class, checked before any arithmetic: a tuple or
# list of exactly n entries of exact type int.  1.0 and True compare equal
# to integers and math.gcd takes True, and a class of another length would
# slip past gcd and the pairings.
def _is_vec2(v) -> bool:
    return type(v) in _SEQUENCES and len(v) == 2 and type(v[0]) is type(v[1]) is int


def _is_vec4(v) -> bool:
    return (
        type(v) in _SEQUENCES
        and len(v) == 4
        and type(v[0]) is type(v[1]) is type(v[2]) is type(v[3]) is int
    )


def _fields_or_none(d, cls) -> list:
    # Out of line: a comprehension in a validator would make d a closure cell.
    return [getattr(d, name, None) for name in cls._fields]


def validate_torus(d: TorusDiagram) -> list[str]:
    """Every violated invariant of the torus model, empty when valid.

    Each class and the core must first have the shape _is_vec2 checks.
    A class that fails is not primitive, and the arithmetic rules are not
    applied to it.  The exponent and the sign must be exact ints too.  A
    field d lacks counts as None.  A valid diagram is marked when the rule
    above allows.
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
    shaped = _is_vec2(a) and _is_vec2(b) and _is_vec2(c)
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
    elif not (_is_vec2(core) and gcd(*core) == 1):
        errors.append(NON_PRIMITIVE)
    if type(sign) is not int or sign not in (1, -1):
        errors.append(BAD_SIGN)
    if not errors and (
        type(d) is TorusDiagram
        and type(a) is type(b) is type(c) is tuple
        and type(mono) is Monodromy
        and (core is None or type(core) is tuple)
    ):
        object.__setattr__(d, "_valid", True)
    return errors


def validate_genus2(d: Genus2Diagram) -> list[str]:
    """Every violated invariant of the genus-2 model, empty when valid.

    Each class must first have the shape _is_vec4 checks; a1 failing
    is NonPrimitiveA1, any other class failing is NonPrimitive, and the
    pairings are then not computed.  A field d lacks counts as None.  A
    valid diagram is marked when the rule above allows.  surgery_project
    can still refuse it: when the twist exponent and the core disagree, or
    when a projected class is not primitive.
    """
    errors = []
    try:
        a1, b1, c1 = d.a1, d.b1, d.c1
        a2, b2, c2 = d.a2, d.b2, d.c2
        k = d.exponent
    except AttributeError:
        a1, b1, c1, a2, b2, c2, k = _fields_or_none(d, Genus2Diagram)
    a1_shaped = _is_vec4(a1)
    shaped = _is_vec4(b1) and _is_vec4(c1) and _is_vec4(a2) and _is_vec4(b2) and _is_vec4(c2)
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
    if not errors and (
        type(d) is Genus2Diagram
        and type(a1) is type(b1) is type(c1) is type(a2) is type(b2) is type(c2) is tuple
    ):
        object.__setattr__(d, "_valid", True)
    return errors


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
    disjoint from a1 projects to (-pair4(f2, w), pair4(e2, w)).  e2 and
    f2 come from lattice._reduce, the constructor's formula without its
    checks, which validate_genus2 has made.  a1, b1 and c1 are unpacked
    once; the core lift a1+b1+c1, a2, b2 and c2 are projected inline, and
    the sign pair4(a1, b1) too.  The output is not passed through
    validate_torus: on a valid genus-2 diagram, every torus rule but
    primitivity already holds.
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
    checked here, core first, then a2, b2 and c2, and refused with
    InvalidDiagramError(["NonPrimitive"]) as validate_torus would.
    validate_genus2 admits integer entries only, so every class is a new
    tuple and the monodromy an exact Monodromy, and the output is built
    marked, by _marked_torus.
    """
    require_valid_genus2(d)
    x0, x1, x2, x3 = d.a1
    y0, y1, y2, y3 = d.b1
    z0, z1, z2, z3 = d.c1
    _, (e0, e1, e2, e3), (f0, f1, f2, f3) = _reduce(x0, x1, x2, x3)
    w0, w1, w2, w3 = x0 + y0 + z0, x1 + y1 + z1, x2 + y2 + z2, x3 + y3 + z3
    d0, d1 = f1 * w0 - f0 * w1 + f3 * w2 - f2 * w3, e0 * w1 - e1 * w0 + e2 * w3 - e3 * w2
    w0, w1, w2, w3 = d.a2
    a0, a1 = f1 * w0 - f0 * w1 + f3 * w2 - f2 * w3, e0 * w1 - e1 * w0 + e2 * w3 - e3 * w2
    w0, w1, w2, w3 = d.b2
    b0, b1 = f1 * w0 - f0 * w1 + f3 * w2 - f2 * w3, e0 * w1 - e1 * w0 + e2 * w3 - e3 * w2
    w0, w1, w2, w3 = d.c2
    c0, c1 = f1 * w0 - f0 * w1 + f3 * w2 - f2 * w3, e0 * w1 - e1 * w0 + e2 * w3 - e3 * w2
    k = d.exponent
    if k == 0:
        if d0 or d1:
            raise ExponentCoreMismatchError(
                f"identity monodromy but a1+b1+c1 projects to {(d0, d1)}"
            )
        mono = _IDENTITY
    else:
        if not (d0 or d1):
            raise ExponentCoreMismatchError(
                f"twist exponent {k} but a1+b1+c1 projects to zero"
            )
        if gcd(d0, d1) != 1:
            raise InvalidDiagramError([NON_PRIMITIVE])
        mono = Monodromy._build(Monodromy, (d0, d1), k)
    if gcd(a0, a1) != 1 or gcd(b0, b1) != 1 or gcd(c0, c1) != 1:
        raise InvalidDiagramError([NON_PRIMITIVE])
    return _marked_torus(
        (a0, a1), (b0, b1), (c0, c1), mono, x0 * y1 - x1 * y0 + x2 * y3 - x3 * y2
    )


def torus_of(d: TorusDiagram | Genus2Diagram) -> TorusDiagram:
    """The valid torus diagram d stands for: d itself or its surgery
    projection.  Raises InvalidDiagramError or ExponentCoreMismatchError."""
    if isinstance(d, Genus2Diagram):
        return surgery_project(d)
    require_valid_torus(d)
    return d


def embed_torus(d: TorusDiagram) -> Genus2Diagram:
    """Standard genus-2 lift of a torus diagram.

    The first triple is placed in the first coordinate block according to
    the stored sign s: a1 = alpha1 and, for s = +1, b1 = beta1 with
    c1 = -alpha1 - beta1 + dt, where dt is the core class placed in the
    second block (zero for identity monodromy); for s = -1, b1 = -beta1
    and c1 = -alpha1 + beta1 + dt.  In both cases a1 + b1 + c1 = dt, so
    surgery_project(embed_torus(d)) == d exactly, and the lift of a valid
    diagram is valid.  Every class is a new tuple, so it is built marked.
    """
    require_valid_torus(d)
    s = d.sign
    dx, dy = d.monodromy.core if d.monodromy.core is not None else (0, 0)
    return _marked_genus2(
        (1, 0, 0, 0),
        (0, s, 0, 0),
        (-1, -s, dx, dy),
        (0, 0) + tuple(d.a2),
        (0, 0) + tuple(d.b2),
        (0, 0) + tuple(d.c2),
        d.monodromy.exponent,
    )


def intersection_invariant(d: TorusDiagram | Genus2Diagram) -> tuple[int, int, int]:
    """Unordered-boundary intersection triple of the diagram.

    On the torus model this is (|d.a2|, |d.b2|, |d.c2|) paired against the
    twist core, and (0, 0, 0) for identity monodromy.  A genus-2 diagram is
    projected by surgery_project first, so it is refused exactly when its
    projection is.
    """
    return _invariant(torus_of(d))


def _invariant(d: TorusDiagram) -> tuple[int, int, int]:
    """intersection_invariant of the valid torus diagram d, unchecked."""
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
    exactly as the old one did.  The output is an exact Genus2Diagram,
    marked exactly when d is.
    """
    require_valid_genus2(d)
    if target not in ("a2", "b2", "c2"):
        raise ValueError(f"slide target must be one of a2, b2, c2, got {target!r}")
    _check_sign(sign, "slide sign")
    classes = {"a2": d.a2, "b2": d.b2, "c2": d.c2}
    classes[target] = tuple(wi + sign * ai for wi, ai in zip(classes[target], d.a1))
    return _moved_genus2(d, d.a1, d.b1, d.c1, *classes.values())


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
    """Evaluate the certification hypotheses on a valid torus diagram.

    pair2(a2, mu^-1(c2)) is read off in closed form, with no pulled-back
    class built.  Proof.  Write e_x = pair2(x, d) for the twist core d.
    Under mu = T_d^k, mu^-1 x = x + k e_x d, as in Monodromy.inverse_apply,
    so by bilinearity pair2(a2, mu^-1 c2) = pair2(a2, c2) + k e_c
    pair2(a2, d) = pair2(a2, c2) + k e_a e_c, the identity six_tuple uses
    for its ac slot.  Under the identity, k = 0 and it is pair2(a2, c2).
    """
    require_valid_torus(d)
    mono = d.monodromy
    k = mono.exponent
    a0, a1 = d.a2
    b0, b1 = d.b2
    c0, c1 = d.c2
    pulled = a0 * c1 - a1 * c0
    if k:
        d0, d1 = mono.core
        pulled += k * (a0 * d1 - a1 * d0) * (c0 * d1 - c1 * d0)
    return HypothesisReport._build(HypothesisReport, k != 0, b0 * c1 - b1 * c0 != 0, pulled != 0)
