import copy
import operator
import pickle
import random
import types

import pytest

import trisect.diagram
from trisect import (
    EquivalenceWitness,
    ExponentCoreMismatchError,
    FamilyMatch,
    Genus2Diagram,
    HypothesisReport,
    InvalidDiagramError,
    LensSpace,
    Monodromy,
    OrbitGraph,
    OrbitNode,
    SixTuple,
    SymplecticReduction,
    TorusDiagram,
    WordError,
    apply_sigma1,
    apply_sigma1_inverse,
    apply_sigma2,
    apply_sigma2_inverse,
    canonical_form,
    case_diagram,
    classify,
    embed_torus,
    equivalent_torus,
    handle_slide,
    intersection_invariant,
    orbit,
    pair2,
    pair4,
    sigma2_cubed_witness,
    six_tuple,
    surgery_project,
    theorem_hypotheses,
    transvect,
    validate_genus2,
    validate_torus,
    word_to_diagram,
    word_to_torus,
)
from trisect.diagram import require_valid_genus2, require_valid_torus
from trisect.document import parse_document, serialize_document

from conftest import (
    rand_genus2_diagram,
    rand_primitive_vec2,
    rand_primitive_vec4,
    rand_torus_diagram,
    sweep_case_configs,
    torus_reference_inputs,
)


def twist(core, k):
    return Monodromy.twist(core, k)


def test_monodromy_closed_form_matches_transvect():
    rng = random.Random(5353)
    for i in range(2_000):
        # Every other case has entries far beyond 64 bits.
        bound = 9 if i % 2 else 2**80
        core = rand_primitive_vec2(rng, bound)
        k = rng.choice((1, -1, 4, -4))
        x = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if i % 5 == 0:
            x = list(x)
        mono = twist(core, k)
        image, preimage = mono.apply(x), mono.inverse_apply(x)
        assert image == transvect(core, k, x)
        assert preimage == transvect(core, -k, x)
        assert type(image) is tuple and type(preimage) is tuple
        assert mono.inverse_apply(image) == tuple(x) == mono.apply(preimage)
    ident = Monodromy.identity()
    for x in ((3, -5), [3, -5]):
        for out in (ident.apply(x), ident.inverse_apply(x)):
            assert out == (3, -5) and type(out) is tuple


def _invariant_reference(d):
    """Torus intersection_invariant as a generator over the classes."""
    mono = d.monodromy
    if mono.is_identity:
        return (0, 0, 0)
    return tuple(abs(pair2(mono.core, w)) for w in d.classes())


def _hypotheses_reference(d):
    """theorem_hypotheses through pair2 and transvect."""
    mono = d.monodromy
    pulled = d.c2 if mono.is_identity else transvect(mono.core, -mono.exponent, d.c2)
    return HypothesisReport(
        monodromy_nontrivial=not mono.is_identity,
        b2_c2_independent=pair2(d.b2, d.c2) != 0,
        a2_pulled_c2_independent=pair2(d.a2, pulled) != 0,
    )


def test_invariant_and_hypotheses_match_reference():
    held = 0
    for d in torus_reference_inputs():
        assert intersection_invariant(d) == _invariant_reference(d), d
        report = theorem_hypotheses(d)
        assert report == _hypotheses_reference(d), d
        held += report.all_hold
    assert held > 1_000


def _bad_shapes(v):
    """Each way a class like v, a tuple of ints, can break the shape rule:
    a bool, a float or a str in each position or in every position, one
    entry short or long, None, and a dict (a non-sequence with integer
    entries at 0, 1, ...).  A class of one type throughout catches a rule
    that only compares the entries' types with each other."""
    shapes = [v[:-1], v + (0,), None, dict(enumerate(v))]
    for cast in (bool, float, str):
        shapes.append(tuple(map(cast, v)))
        for i, entry in enumerate(v):
            shapes.append(v[:i] + (cast(entry),) + v[i + 1:])
    return shapes


def test_validate_torus_examples():
    ok = TorusDiagram((1, 0), (0, 1), (1, 1), twist((-1, 1), 1))
    assert validate_torus(ok) == []
    assert validate_torus(TorusDiagram((2, 0), (0, 1), (1, 1), twist((-1, 1), 1))) == [
        "NonPrimitive"
    ]
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (1, 1), twist((-1, 1), 2))) == [
        "BadExponent"
    ]
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (1, 2), Monodromy.identity())) == [
        "IdentityCaseViolation"
    ]
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (-1, -1), Monodromy.identity())) == []
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (1, 1), twist((-1, 1), 1), sign=2)) == [
        "BadSign"
    ]
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (1, 1), twist((2, 2), 1))) == [
        "NonPrimitive"
    ]
    # inconsistent monodromy states
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (-1, -1), Monodromy((1, 0), 0))) == [
        "BadExponent"
    ]
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (1, 1), Monodromy(None, 1))) == [
        "BadExponent"
    ]
    # Only exact ints: equal floats and bools are refused, and a
    # non-integer class entry is not primitive.
    ok_core = (-1, 1)
    for mono, sign, codes in (
        (Monodromy(ok_core, 4.0), 1, ["BadExponent"]),
        (Monodromy(ok_core, True), 1, ["BadExponent"]),
        (Monodromy(None, 0.0), 1, ["BadExponent"]),
        (twist(ok_core, 1), 1.0, ["BadSign"]),
        (twist(ok_core, 1), True, ["BadSign"]),
        (Monodromy((-1.0, 1), 1), 1, ["NonPrimitive"]),
        (Monodromy(ok_core, 4.0), 1.0, ["BadExponent", "BadSign"]),
    ):
        assert validate_torus(TorusDiagram((1, 0), (0, 1), (1, 1), mono, sign)) == codes
    assert validate_torus(TorusDiagram((1.0, 0), (0, 1), (1, 1), twist(ok_core, 1))) == [
        "NonPrimitive"
    ]
    # Integer classes that are not primitive are still paired.
    ident = Monodromy.identity()
    assert validate_torus(TorusDiagram((2, 0), (0, 1), (1, 2), ident)) == [
        "NonPrimitive",
        "IdentityCaseViolation",
    ]
    # Each class and the twist core is checked by the shape rule on its own:
    # a class that breaks it is not primitive and is not paired, and a core
    # that breaks it is not primitive, or a bad exponent when it is None.
    # Both bases are valid and have entries 0 and 1 only, so a bool or float
    # shape equals the entry it replaces: a shape check that let one through
    # would answer differently.
    for base in (
        TorusDiagram((1, 0), (0, 1), (1, 1), twist((1, 0), 1)),
        TorusDiagram((1, 0), (0, 1), (1, 1), ident),
    ):
        assert validate_torus(base) == []
        bad = [
            (base._replace(**{field: shape}), ["NonPrimitive"])
            for field in ("a2", "b2", "c2")
            for shape in _bad_shapes(getattr(base, field))
        ]
        if base.monodromy.exponent:
            bad += [
                (base._replace(monodromy=Monodromy(shape, 1)),
                 ["BadExponent" if shape is None else "NonPrimitive"])
                for shape in _bad_shapes(base.monodromy.core)
            ]
        for d, codes in bad:
            assert validate_torus(d) == codes, d
            assert not d._valid
            with pytest.raises(InvalidDiagramError):
                apply_sigma2(d)
    # A monodromy that is not a Monodromy is a bad exponent, not a crash.
    assert validate_torus(TorusDiagram((1, 0), (0, 1), (1, 1), None)) == ["BadExponent"]
    assert validate_torus(TorusDiagram((2, 0), (0, 1), (1, 1), None, sign=3)) == [
        "NonPrimitive",
        "BadExponent",
        "BadSign",
    ]
    with pytest.raises(InvalidDiagramError) as e:
        six_tuple(TorusDiagram((1, 0), (0, 1), (1, 1), None))
    assert e.value.errors == ["BadExponent"]


def test_validate_genus2_examples():
    g = embed_torus(case_diagram(2, q=3))
    assert validate_genus2(g) == []
    assert validate_genus2(
        Genus2Diagram((2, 0, 0, 0), g.b1, g.c1, g.a2, g.b2, g.c2, g.exponent)
    ) == ["NonPrimitiveA1", "TriplePairingInvalid"]
    # mixed pairing signs
    bad_triple = Genus2Diagram(
        (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), g.a2, g.b2, g.c2, 0
    )
    assert "TriplePairingInvalid" in validate_genus2(bad_triple)
    assert validate_genus2(
        Genus2Diagram(g.a1, g.b1, g.c1, (0, 1, 0, 0), g.b2, g.c2, g.exponent)
    ) == ["A2NotDisjoint"]
    assert validate_genus2(
        Genus2Diagram(g.a1, g.b1, g.c1, g.a2, g.b2, g.c2, 3)
    ) == ["BadExponent"]
    for exponent in (1.0, 0.0, True):
        assert validate_genus2(
            Genus2Diagram(g.a1, g.b1, g.c1, g.a2, g.b2, g.c2, exponent)
        ) == ["BadExponent"]
    assert validate_genus2(
        Genus2Diagram((1.0, 0, 0, 0), g.b1, g.c1, g.a2, g.b2, g.c2, g.exponent)
    ) == ["NonPrimitiveA1"]
    # A float entry off a1 is refused as not primitive, so no move or
    # projection carries it.
    floaty = Genus2Diagram(g.a1, g.b1, g.c1, (0, 0, 1.0, 0), g.b2, g.c2, g.exponent)
    assert validate_genus2(floaty) == ["NonPrimitive"]
    with pytest.raises(InvalidDiagramError) as e:
        surgery_project(floaty)
    assert e.value.errors == ["NonPrimitive"]
    for move in (lambda x: handle_slide(x, "a2"), apply_sigma1):
        with pytest.raises(InvalidDiagramError) as e:
            move(floaty)
        assert e.value.errors == ["NonPrimitive"]
    # Each class is checked by the shape rule on its own, for twist and
    # identity monodromy alike: a1 breaking it is NonPrimitiveA1, any other
    # class NonPrimitive, and none is paired.
    ident = embed_torus(case_diagram(1))
    for base in (g, ident):
        for field in ("a1", "b1", "c1", "a2", "b2", "c2"):
            codes = ["NonPrimitiveA1"] if field == "a1" else ["NonPrimitive"]
            for shape in _bad_shapes(getattr(base, field)):
                bad = base._replace(**{field: shape})
                assert validate_genus2(bad) == codes, (field, shape)
                assert not bad._valid
                with pytest.raises(InvalidDiagramError) as e:
                    surgery_project(bad)
                assert e.value.errors == codes
    assert validate_genus2(g._replace(a2=None, exponent=2)) == [
        "NonPrimitive",
        "BadExponent",
    ]

    # A class with an entry of any type with __index__, which gcd takes,
    # breaks the shape rule too.
    class _IndexOnly:
        def __index__(self):
            return 0

    for base in (g, ident):
        bad = base._replace(a2=(0, 0, _IndexOnly(), 1))
        assert validate_genus2(bad) == ["NonPrimitive"]
        assert not bad._valid
    assert validate_genus2(ident) == []
    assert "IdentityCaseViolation" in validate_genus2(
        Genus2Diagram(ident.a1, ident.b1, ident.c1, ident.a2, ident.b2, (0, 0, 1, 2), 0)
    )


def test_validate_accepts_case_tables():
    for family, kwargs in sweep_case_configs():
        for sign in (1, -1):
            d = case_diagram(family, sign=sign, **kwargs)
            assert validate_torus(d) == [], (family, kwargs, sign)
            g = embed_torus(d)
            assert validate_genus2(g) == [], (family, kwargs, sign)


def test_surgery_standard_a1_lifts():
    # Standard lifts moved by handle slides keep a1 = (1, 0, 0, 0), on
    # which the reduction returns the standard basis.
    rng = random.Random(515)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        g = embed_torus(d)
        for _ in range(rng.randrange(5)):
            g = handle_slide(g, rng.choice(("a2", "b2", "c2")), rng.choice((1, -1)))
        assert g.a1 == (1, 0, 0, 0)
        assert surgery_project(g) == d
    # The refusals still happen on standard lifts: identity monodromy with
    # a nonzero boundary class, and a non-primitive a2.
    g = embed_torus(case_diagram(1))
    with pytest.raises(ExponentCoreMismatchError):
        surgery_project(Genus2Diagram(g.a1, g.b1, (-1, -1, 0, 1), g.a2, g.b2, g.c2, 0))
    g = embed_torus(case_diagram(3))
    bad = Genus2Diagram(g.a1, g.b1, g.c1, (0, 0, 2, 0), g.b2, g.c2, g.exponent)
    assert validate_genus2(bad) == []
    with pytest.raises(InvalidDiagramError) as e:
        surgery_project(bad)
    assert e.value.errors == ["NonPrimitive"]


def test_embed_torus_both_signs():
    d = case_diagram(3)
    for sign in (1, -1):
        dd = TorusDiagram(d.a2, d.b2, d.c2, d.monodromy, sign)
        g = embed_torus(dd)
        assert g.a1 == (1, 0, 0, 0)
        total = tuple(x + y + z for x, y, z in zip(g.a1, g.b1, g.c1))
        assert total == (0, 0) + dd.monodromy.core
        assert surgery_project(g) == dd
    ident = embed_torus(case_diagram(1))
    assert ident.c1 == (-1, -1, 0, 0)


def test_projection_invariant_under_global_symplectic_change():
    # A global symplectic transvection moves the lift off standard
    # position but only changes the projected diagram by a basis change,
    # so canonical forms agree.
    rng = random.Random(606)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        g = embed_torus(d)
        v = rand_primitive_vec4(rng)
        k = rng.choice((1, -1))
        mixed = Genus2Diagram(
            *(transvect(v, k, w) for w in (g.a1, g.b1, g.c1, g.a2, g.b2, g.c2)),
            g.exponent,
        )
        assert validate_genus2(mixed) == []
        assert canonical_form(surgery_project(mixed))[0] == canonical_form(d)[0]


def test_projection_block_swap_lift():
    # A lift with a1 = (0,0,1,0): swap the two coordinate blocks of the
    # standard lift (a symplectic map), then project back.
    d = case_diagram(2, q=3)
    g = embed_torus(d)
    swap = lambda v: (v[2], v[3], v[0], v[1])
    swapped = Genus2Diagram(
        swap(g.a1), swap(g.b1), swap(g.c1), swap(g.a2), swap(g.b2), swap(g.c2), g.exponent
    )
    assert swapped.a1 == (0, 0, 1, 0)
    assert validate_genus2(swapped) == []
    assert canonical_form(surgery_project(swapped))[0] == canonical_form(d)[0]


def _surgery_project_reference(d):
    """surgery_project as four SymplecticReduction.project calls,
    Monodromy.twist and a full validate_torus of the output."""
    require_valid_genus2(d)
    red = SymplecticReduction(d.a1)
    a1, b1, c1 = d.a1, d.b1, d.c1
    core = red.project(
        (a1[0] + b1[0] + c1[0], a1[1] + b1[1] + c1[1], a1[2] + b1[2] + c1[2], a1[3] + b1[3] + c1[3])
    )
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
        red.project(d.a2), red.project(d.b2), red.project(d.c2), mono, pair4(a1, b1)
    )
    require_valid_torus(out)
    return out


class _Integer:
    """An integer type other than int: math.gcd takes it through __index__,
    and its arithmetic stays in the type."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n

    def _lift(op):
        return lambda self, other: _Integer(op(self.n, operator.index(other)))

    __add__ = __radd__ = _lift(operator.add)
    __mul__ = __rmul__ = _lift(operator.mul)
    __sub__ = _lift(operator.sub)
    __rsub__ = _lift(lambda x, y: y - x)

    def __neg__(self):
        return _Integer(-self.n)

    def __eq__(self, other):
        return self.n == other

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"_Integer({self.n})"


def _projection_inputs(rng):
    """Genus-2 diagrams for the projection: valid lifts, standard and moved
    off standard, some with entries near 2^70, and lifts that
    validate_genus2 or the projection refuses."""

    def moved(g):
        # Global symplectic transvections keep every genus-2 check and
        # change the projection only by a basis change.
        for _ in range(rng.randrange(4)):
            v, k = rand_primitive_vec4(rng), rng.choice((1, -1))
            classes = (g.a1, g.b1, g.c1, g.a2, g.b2, g.c2)
            g = Genus2Diagram(*(transvect(v, k, w) for w in classes), g.exponent)
        return g

    for _ in range(400):
        yield rand_genus2_diagram(rng, mixes=1)
        yield rand_genus2_diagram(rng)
    big = 2**70
    for _ in range(100):
        k = rng.choice((1, -1, 4, -4))
        core = rand_primitive_vec2(rng, big)
        classes = [rand_primitive_vec2(rng, big) for _ in range(3)]
        d = TorusDiagram(*classes, Monodromy.twist(core, k), rng.choice((1, -1)))
        yield embed_torus(d)
        yield moved(embed_torus(d))
    for _ in range(100):
        lift = embed_torus(rand_torus_diagram(rng, allow_identity=False))
        m = rng.choice((0, 2, 3, 2**70))
        # A non-primitive (or zero) projected a2, b2 or c2.
        x, y = rand_primitive_vec2(rng)
        target = rng.choice(("a2", "b2", "c2"))
        yield moved(lift._replace(**{target: (0, 0, m * x, m * y)}))
        # A non-primitive core: the second block of c1, and so the core, is
        # a multiple of (x, y).
        x, y = rand_primitive_vec2(rng)
        c1 = (lift.c1[0], lift.c1[1], max(m, 2) * x, max(m, 2) * y)
        yield moved(lift._replace(c1=c1))
        # Both exponent-core mismatches, and identity monodromy on classes
        # that do not pair to +-1.
        yield moved(lift._replace(c1=(lift.c1[0], lift.c1[1], 0, 0)))
        ident = rand_torus_diagram(rng)
        while not ident.monodromy.is_identity:
            ident = rand_torus_diagram(rng)
        ident = embed_torus(ident)
        yield moved(ident._replace(c1=(ident.c1[0], ident.c1[1], x, y)))
        yield moved(lift._replace(exponent=0))
        # A float entry in any class, and an integer type other than int.
        name, i = rng.choice(("a1", "b1", "c1", "a2", "b2", "c2")), rng.randrange(4)
        w = list(getattr(lift, name))
        w[i] = float(w[i])
        yield moved(lift._replace(**{name: tuple(w)}))
        w = list(getattr(lift, name))
        w[i] = _Integer(w[i])
        yield lift._replace(**{name: tuple(w)})
    yield Genus2Diagram(
        (1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 2, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 0), 1
    )


def _projection_outcome(project, g):
    # A fresh copy, so that neither implementation sees the other's mark.
    try:
        out = project(g._replace())
    except (InvalidDiagramError, ExponentCoreMismatchError) as e:
        return type(e), getattr(e, "errors", None), str(e)
    return out, out._valid


def test_surgery_project_matches_reference():
    rng = random.Random(7373)
    outcomes = {}
    for g in _projection_inputs(rng):
        got = _projection_outcome(surgery_project, g)
        assert got == _projection_outcome(_surgery_project_reference, g), g
        if isinstance(got[0], TorusDiagram):
            out = got[0]
            assert out._valid
            entries = [*out.a2, *out.b2, *out.c2, *(out.monodromy.core or ()), out.sign]
            assert all(type(c) is int for c in entries)
            outcome = "projected"
        else:
            # The mismatch message starts "identity" or "twist".
            outcome = (got[0].__name__, tuple(got[1] or got[2].split()[:1]))
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # Every kind of outcome is reached, and each more than once.
    assert set(outcomes) == {
        "projected",
        ("ExponentCoreMismatchError", ("identity",)),
        ("ExponentCoreMismatchError", ("twist",)),
        ("InvalidDiagramError", ("NonPrimitive",)),
        ("InvalidDiagramError", ("NonPrimitiveA1",)),
        ("InvalidDiagramError", ("IdentityCaseViolation",)),
    }, outcomes
    assert min(outcomes.values()) > 1, outcomes


def test_exponent_core_mismatch():
    # identity exponent, nonzero boundary class
    g = embed_torus(case_diagram(1))
    bad = Genus2Diagram(g.a1, g.b1, (-1, -1, 1, 0), g.a2, g.b2, g.c2, 0)
    assert validate_genus2(bad) == []
    with pytest.raises(ExponentCoreMismatchError):
        surgery_project(bad)
    # twist exponent, vanishing boundary class
    g2 = embed_torus(case_diagram(2, q=3))
    bad2 = Genus2Diagram(g2.a1, g2.b1, (-1, -1, 0, 0), g2.a2, g2.b2, g2.c2, 1)
    assert validate_genus2(bad2) == []
    with pytest.raises(ExponentCoreMismatchError):
        surgery_project(bad2)


def test_invariant_commutes_with_projection():
    rng = random.Random(808)
    for _ in range(1_000):
        g = rand_genus2_diagram(rng)
        assert intersection_invariant(g) == intersection_invariant(surgery_project(g))


def test_invariant_handle_slide_invariance():
    rng = random.Random(909)
    for _ in range(1_000):
        g = rand_genus2_diagram(rng)
        target = rng.choice(("a2", "b2", "c2"))
        s = rng.choice((1, -1))
        slid = handle_slide(g, target, s)
        assert validate_genus2(slid) == []
        assert intersection_invariant(slid) == intersection_invariant(g)
        assert surgery_project(slid) == surgery_project(g)


def test_handle_slide_arguments():
    g = embed_torus(case_diagram(1))
    with pytest.raises(ValueError):
        handle_slide(g, "a1")
    with pytest.raises(ValueError):
        handle_slide(g, "a2", 2)
    # Signs equal to +-1 but not exact ints would build non-int classes.
    lift = embed_torus(case_diagram(3))
    for sign in (1.0, -1.0, True, False, 1 + 0j):
        with pytest.raises(ValueError, match="slide sign must be"):
            handle_slide(lift, "a2", sign)


def test_operations_reject_invalid_diagrams():
    bad = TorusDiagram((2, 0), (0, 1), (1, 1), twist((-1, 1), 1))
    with pytest.raises(InvalidDiagramError):
        intersection_invariant(bad)
    with pytest.raises(InvalidDiagramError):
        embed_torus(bad)
    with pytest.raises(InvalidDiagramError):
        theorem_hypotheses(bad)
    bad_g = Genus2Diagram((2, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1), 1)
    with pytest.raises(InvalidDiagramError):
        surgery_project(bad_g)


def test_theorem_hypotheses_examples():
    r = theorem_hypotheses(case_diagram(3))
    assert (r.monodromy_nontrivial, r.b2_c2_independent, r.a2_pulled_c2_independent) == (
        True,
        True,
        True,
    )
    assert r.all_hold and r.failures() == []
    # parallel b2 and c2
    d = TorusDiagram((1, 0), (0, 1), (0, 1), twist((1, 0), 1))
    r = theorem_hypotheses(d)
    assert r.monodromy_nontrivial and not r.b2_c2_independent
    assert r.failures() == ["b2 and c2 are parallel"]
    # identity monodromy
    r = theorem_hypotheses(case_diagram(1))
    assert not r.monodromy_nontrivial
    assert "monodromy is identity" in r.failures()
    # a2 parallel to the pulled-back c2: mu^-1((-1,-1)) = (1,0) here
    d = TorusDiagram((1, 0), (0, 1), (-1, -1), twist((2, 1), 1))
    r = theorem_hypotheses(d)
    assert not r.a2_pulled_c2_independent
    assert r.failures() == ["a2 and mu^-1(c2) are parallel"]


def good_torus():
    return TorusDiagram((1, 0), (0, 1), (1, 1), twist((-1, 1), 1))


# Every public entry point that takes a diagram of one model.
TORUS_ENTRY_POINTS = (
    six_tuple,
    theorem_hypotheses,
    apply_sigma2,
    apply_sigma2_inverse,
    intersection_invariant,
    canonical_form,
    sigma2_cubed_witness,
    embed_torus,
    lambda d: equivalent_torus(d, d),
    lambda d: orbit(d, 2),
    lambda d: word_to_torus(d, ("D2",)),
)
GENUS2_ENTRY_POINTS = (
    surgery_project,
    intersection_invariant,
    lambda g: handle_slide(g, "b2"),
    apply_sigma1,
    apply_sigma1_inverse,
    apply_sigma2,
    apply_sigma2_inverse,
    lambda g: word_to_diagram(g, ("D1",)),
)


def test_invalid_diagrams_are_never_marked():
    good = good_torus()
    bad_torus = [
        good._replace(a2=(2, 0)),
        good._replace(monodromy=twist((-1, 1), 2)),
        good._replace(monodromy=twist((2, 2), 1)),
        good._replace(monodromy=Monodromy((1, 0), 0)),
        good._replace(monodromy=Monodromy.identity(), c2=(1, 2)),
        good._replace(sign=2),
        # Values equal to valid integers but of another type.
        good._replace(monodromy=Monodromy((1, 1), 4.0)),
        good._replace(monodromy=Monodromy(None, 0.0)),
        good._replace(sign=1.0),
        good._replace(sign=True),
        good._replace(a2=(1.0, 0)),
        good._replace(monodromy=Monodromy((-1.0, 1), 1)),
    ]
    lift = embed_torus(good)
    bad_genus2 = [
        lift._replace(a1=(2, 0, 0, 0)),
        lift._replace(b1=(0, 2, 0, 0)),
        lift._replace(a2=(0, 1, 1, 0)),
        lift._replace(exponent=2),
        lift._replace(exponent=1.0),
        lift._replace(a1=(1.0, 0, 0, 0)),
    ]
    for entry_points, bad, validate in (
        (TORUS_ENTRY_POINTS, bad_torus, validate_torus),
        (GENUS2_ENTRY_POINTS, bad_genus2, validate_genus2),
    ):
        for d in bad:
            assert validate(d)
            for _ in range(2):
                for f in entry_points:
                    with pytest.raises(InvalidDiagramError):
                        f(d)
            assert not d._valid


def test_validators_refuse_a_diagram_of_the_other_model():
    # A field the other model lacks counts as None, so the existing rules
    # report it instead of an AttributeError.
    d = good_torus()
    g = embed_torus(d)
    assert validate_torus(g) == ["NonPrimitive", "BadExponent", "BadSign"]
    assert validate_genus2(d) == ["NonPrimitiveA1", "NonPrimitive", "BadExponent"]
    # Only the missing field is None: a diagram short of one field breaks
    # only the rule that reads it.
    for x, missing, validate, codes in (
        (d, "sign", validate_torus, ["BadSign"]),
        (d, "monodromy", validate_torus, ["BadExponent"]),
        (g, "exponent", validate_genus2, ["BadExponent"]),
        (g, "c1", validate_genus2, ["NonPrimitive"]),
    ):
        fields = {name: getattr(x, name) for name in x._fields if name != missing}
        assert validate(types.SimpleNamespace(**fields)) == codes, missing
    torus_only = (
        six_tuple,
        theorem_hypotheses,
        canonical_form,
        sigma2_cubed_witness,
        embed_torus,
        lambda x: equivalent_torus(x, x),
        lambda x: orbit(x, 2),
    )
    genus2_only = (
        surgery_project,
        apply_sigma1,
        apply_sigma1_inverse,
        lambda x: handle_slide(x, "b2"),
    )
    for entry_points, x in ((torus_only, g), (genus2_only, d)):
        for f in entry_points:
            with pytest.raises(InvalidDiagramError):
                f(x)
    # A word refuses sigma1 on the torus model before any move runs.
    with pytest.raises(WordError, match="sigma1 requires genus2 model"):
        word_to_diagram(d, ("D1",))


def test_list_fields_are_never_marked():
    a2 = [1, 0]
    d = good_torus()._replace(a2=a2)
    assert validate_torus(d) == [] and theorem_hypotheses(d).all_hold
    rotated = apply_sigma2_inverse(d)  # (c2, a2, mu(b2)): shares the list
    assert intersection_invariant(rotated) == intersection_invariant(apply_sigma2_inverse(good_torus()))
    assert not d._valid and not rotated._valid
    a2[0] = 2
    for x in (d, rotated):
        with pytest.raises(InvalidDiagramError):
            intersection_invariant(x)

    core = [-1, 1]
    d = TorusDiagram((1, 0), (0, 1), (1, 1), Monodromy(core, 1))
    assert six_tuple(d) and not d._valid
    core[:] = [2, 2]
    with pytest.raises(InvalidDiagramError):
        six_tuple(d)

    a1 = [1, 0, 0, 0]
    g = embed_torus(good_torus())._replace(a1=a1)
    slid = handle_slide(g, "c2")
    assert surgery_project(g) and surgery_project(slid)
    assert not g._valid and not slid._valid
    a1[0] = 2
    for x in (g, slid):
        with pytest.raises(InvalidDiagramError):
            surgery_project(x)

    lift = embed_torus(good_torus())
    b1 = list(lift.b1)
    g = lift._replace(b1=b1)
    rotated = apply_sigma1(g)  # (b1, c1, a1): the new a1 is the list b1
    assert rotated.a1 is b1 and surgery_project(rotated) == surgery_project(apply_sigma1(lift))
    assert not g._valid and not rotated._valid
    b1[:] = [0, 2, 0, 0]
    for x in (g, rotated):
        with pytest.raises(InvalidDiagramError):
            surgery_project(x)


_COPIES = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))


def test_mark_is_not_a_field():
    # A copy of a marked diagram, by _replace, copy or pickle, is unmarked
    # until it is validated itself.
    for d, validate in ((good_torus(), validate_torus), (embed_torus(good_torus()), validate_genus2)):
        assert validate(d) == [] and d._valid
        for fresh in (d._replace(), *(clone(d) for clone in _COPIES)):
            assert not fresh._valid
            assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
            assert validate(fresh) == [] and fresh._valid
        assert "_valid" not in d._fields


def test_value_classes_keep_dataclass_semantics():
    d = good_torus()
    g = embed_torus(d)
    report = theorem_hypotheses(case_diagram(1))
    assert repr(d) == (
        "TorusDiagram(a2=(1, 0), b2=(0, 1), c2=(1, 1), "
        "monodromy=Monodromy(core=(-1, 1), exponent=1), sign=1)"
    )
    assert repr(g) == (
        "Genus2Diagram(a1=(1, 0, 0, 0), b1=(0, 1, 0, 0), c1=(-1, -1, -1, 1), "
        "a2=(0, 0, 1, 0), b2=(0, 0, 0, 1), c2=(0, 0, 1, 1), exponent=1)"
    )
    assert repr(report) == (
        "HypothesisReport(monodromy_nontrivial=False, b2_c2_independent=True, "
        "a2_pulled_c2_independent=True)"
    )
    assert repr(Monodromy.identity()) == "Monodromy(core=None, exponent=0)"
    lens = LensSpace(9, 4)
    assert repr(lens) == "LensSpace(p=9, q=4)"
    six = six_tuple(case_diagram(3))
    match = classify(six_tuple(case_diagram(2, q=3)))
    assert repr(match) == "FamilyMatch(family=2, q=3, epsilon=1, rotations=0, reflected=False)"
    graph = orbit(case_diagram(3), 2)
    node = graph.nodes[0]
    witness = equivalent_torus(d, d)
    node_reprs = (
        "OrbitNode(index=0, diagram=TorusDiagram(a2=(1, 0), b2=(0, 1), c2=(5, -1), "
        "monodromy=Monodromy(core=(3, -1), exponent=1), sign=1), invariant=(1, 3, 2))",
        "OrbitNode(index=1, diagram=TorusDiagram(a2=(1, 0), b2=(0, 1), c2=(1, -1), "
        "monodromy=Monodromy(core=(2, -3), exponent=1), sign=1), invariant=(3, 2, 1))",
        "OrbitNode(index=2, diagram=TorusDiagram(a2=(1, 0), b2=(0, 1), c2=(2, -1), "
        "monodromy=Monodromy(core=(1, -2), exponent=1), sign=1), invariant=(2, 1, 3))",
    )
    assert repr(node) == node_reprs[0]
    assert repr(graph) == (
        f"OrbitGraph(nodes=({', '.join(node_reprs)}), "
        "edges=((0, 'D2', 1), (0, \"D2'\", 2), (2, 'D2', 0), (2, \"D2'\", 1), "
        "(1, 'D2', 2), (1, \"D2'\", 0)))"
    )
    assert repr(witness) == "EquivalenceWitness(matrix=((1, 0), (0, 1)), flips=(1, 1, 1, 1))"
    fields = (
        (d, ((1, 0), (0, 1), (1, 1), Monodromy((-1, 1), 1), 1)),
        (g, (g.a1, g.b1, g.c1, g.a2, g.b2, g.c2, 1)),
        (d.monodromy, ((-1, 1), 1)),
        (report, (False, True, True)),
        (lens, (9, 4)),
        (six, (LensSpace(1, 0), LensSpace(9, 4), LensSpace(4, 3), LensSpace(2, 1),
               LensSpace(5, 4), LensSpace(1, 0))),
        (match, (2, 3, 1, 0, False)),
        (graph, (graph.nodes, graph.edges)),
        (node, (0, node.diagram, (1, 3, 2))),
        (witness, (((1, 0), (0, 1)), (1, 1, 1, 1))),
    )
    for x, values in fields:
        assert hash(x) == hash(values)
        assert x != values and values != x
        copy = x._replace()
        assert copy == x and copy is not x
        for name in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(ValueError):
            x._replace(nothere=1)
    assert d != g and g != d and d != d.monodromy
    assert lens != d.monodromy and d.monodromy != lens
    assert lens._fields == ("p", "q") and lens._replace(q=5) == LensSpace(9, 5)
    # A changed lens space goes through the checking constructor.
    with pytest.raises(ValueError, match="not a lens space normal form"):
        lens._replace(q=3)
    assert d._replace(sign=-1) != d and d._replace(sign=-1)._replace(sign=1) == d
    # Keyword construction, with sign defaulting to 1.
    assert TorusDiagram(
        a2=(1, 0), b2=(0, 1), c2=(1, 1), monodromy=Monodromy(core=(-1, 1), exponent=1)
    ) == d
    assert Genus2Diagram(
        a1=g.a1, b1=g.b1, c1=g.c1, a2=g.a2, b2=g.b2, c2=g.c2, exponent=1
    ) == g
    assert HypothesisReport(
        monodromy_nontrivial=False, b2_c2_independent=True, a2_pulled_c2_independent=True
    ) == report
    assert LensSpace(p=9, q=4) == lens
    assert SixTuple(**{name: getattr(six, name) for name in six._fields}) == six
    assert FamilyMatch(family=2, q=3, epsilon=1, rotations=0, reflected=False) == match
    assert OrbitGraph(nodes=graph.nodes, edges=graph.edges) == graph
    assert OrbitNode(index=0, diagram=node.diagram, invariant=(1, 3, 2)) == node
    assert EquivalenceWitness(matrix=((1, 0), (0, 1)), flips=(1, 1, 1, 1)) == witness
    # == and hash are generated from _fields, so a change to any one
    # field alone gives an unequal value.
    for x, _ in fields:
        for name in x._fields:
            new = {"p": 11, "q": 5}[name] if x is lens else None
            assert x._replace(**{name: new}) != x, (type(x).__name__, name)
    # A new subclass that declares only _fields and __slots__ gets the same
    # constructor, == and hash, and is frozen.
    class Pair(trisect.diagram._Value):
        _fields = ("x", "y")
        __slots__ = _fields

    class SubPair(Pair):
        __slots__ = ()

    p = Pair(1, (2, 3))
    assert type(p) is Pair and Pair(y=(2, 3), x=1) == p
    with pytest.raises(AttributeError):
        p.x = 2
    assert p == Pair(1, (2, 3)) and hash(p) == hash((1, (2, 3)))
    assert p != Pair(1, (2, 4)) and p != Pair(0, (2, 3))
    # Equal field tuples in another class, a subclass included, are not equal.
    for other in ((1, (2, 3)), Monodromy(1, (2, 3)), SubPair(1, (2, 3))):
        assert p != other and other != p
        assert p.__eq__(other) is NotImplemented
    assert SubPair(1, (2, 3)) == SubPair(1, (2, 3))
    # A traceback through the generated methods names the class.
    for method in (Pair.__eq__, Pair.__hash__):
        assert method.__qualname__.endswith("Pair." + method.__name__)
        assert "Pair" in method.__code__.co_filename


def test_value_classes_are_slotted_and_copy_to_equal_values():
    d = good_torus()
    # Each value leaves its constructor as the public class itself.
    xs = [
        (d, TorusDiagram), (d.monodromy, Monodromy), (embed_torus(d), Genus2Diagram),
        (theorem_hypotheses(d), HypothesisReport), (LensSpace(9, 4), LensSpace),
        (six_tuple(d), SixTuple), (classify(six_tuple(case_diagram(3))), FamilyMatch),
        (orbit(case_diagram(3), 2), OrbitGraph), (orbit(case_diagram(3), 2).nodes[0], OrbitNode),
        (equivalent_torus(d, d), EquivalenceWitness),
    ]
    for x, cls in xs:
        assert type(x) is cls, (type(x), cls)
        # Every field has a slot; a field added without one would bring
        # back the per-instance dict.
        assert not hasattr(x, "__dict__"), type(x).__name__
        for clone in _COPIES:
            y = clone(x)
            assert type(y) is type(x) and y == x and hash(y) == hash(x), (x, clone)


def test_certification_path_validates_each_document_once(monkeypatch):
    calls = []
    real = trisect.diagram.validate_torus

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(trisect.diagram, "validate_torus", counting)
    rng = random.Random(6061)
    docs = [serialize_document(rand_torus_diagram(rng)) for _ in range(300)]
    for doc in docs:
        t = parse_document(doc)
        calls.clear()
        # The work of check-theorem and classify.
        classify(six_tuple(t))
        theorem_hypotheses(t)
        t1 = apply_sigma2(t)
        t2 = apply_sigma2(t1)
        for x in (t, t1, t2):
            intersection_invariant(x)
        assert calls == [t]
    # A genus-2 document is checked by validate_genus2 alone: the projection
    # checks primitivity itself and marks its output.
    for _ in range(100):
        g = parse_document(serialize_document(rand_genus2_diagram(rng)))
        calls.clear()
        t = surgery_project(g)
        classify(six_tuple(t))
        theorem_hypotheses(t)
        intersection_invariant(apply_sigma2(t))
        assert calls == [] and t._valid
