import dataclasses
import random

import pytest

import trisect.diagram
from trisect import (
    ExponentCoreMismatchError,
    Genus2Diagram,
    InvalidDiagramError,
    Monodromy,
    TorusDiagram,
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
from trisect.cli import parse_document, serialize_document

from conftest import (
    rand_genus2_diagram,
    rand_primitive_vec4,
    rand_torus_diagram,
    sweep_case_configs,
)


def twist(core, k):
    return Monodromy.twist(core, k)


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
    ident = embed_torus(case_diagram(1))
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


def test_surgery_round_trip_randomized():
    rng = random.Random(505)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        assert surgery_project(embed_torus(d)) == d


def test_surgery_standard_a1_lifts():
    # Standard lifts moved by handle slides keep a1 = (1, 0, 0, 0), the
    # class the reduction handles without the general echelon path.
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


def test_invariant_values_on_case_tables():
    for upper in (True, False):
        for q in range(-10, 11):
            if q == 1:
                continue
            d = case_diagram(2, q=q, upper=upper)
            expect = abs(1 - q) if upper else abs(1 + q)
            assert intersection_invariant(d) == (1, 1, expect), (q, upper)
        assert intersection_invariant(case_diagram(3, upper=upper)) == (1, 3, 2)
        for eps2 in (1, -1):
            assert intersection_invariant(case_diagram(4, upper=upper, eps2=eps2)) == (0, 1, 1)
        for epsilon in (1, -1):
            assert intersection_invariant(case_diagram(5, upper=upper, epsilon=epsilon)) == (
                0,
                1,
                1,
            )
    assert intersection_invariant(case_diagram(1)) == (0, 0, 0)


def test_invariant_identity_is_zero():
    rng = random.Random(707)
    for _ in range(500):
        d = rand_torus_diagram(rng, allow_identity=True)
        if d.monodromy.is_identity:
            assert intersection_invariant(d) == (0, 0, 0)


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


def test_theorem_hypotheses_on_case_grid():
    # The excluded family-2 parameters are exactly where a hypothesis
    # fails; everywhere else the invariant triple is non-constant, so the
    # three rotations are separated.
    from trisect import apply_sigma2

    for family, kwargs in sweep_case_configs():
        d = case_diagram(family, **kwargs)
        r = theorem_hypotheses(d)
        if family == 2:
            q = kwargs["q"]
            excluded = {0, 2} if kwargs["upper"] else {0, -2}
            assert r.all_hold == (q not in excluded), (kwargs, r)
        elif family == 1:
            assert not r.monodromy_nontrivial
        elif family == 5 and kwargs["epsilon"] == -1:
            assert not r.b2_c2_independent
        else:
            assert r.all_hold, (family, kwargs, r)
        if r.all_hold:
            triples = [intersection_invariant(x) for x in (d, apply_sigma2(d), apply_sigma2(apply_sigma2(d)))]
            assert len(set(triples)) == 3, (family, kwargs, triples)


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
        dataclasses.replace(good, a2=(2, 0)),
        dataclasses.replace(good, monodromy=twist((-1, 1), 2)),
        dataclasses.replace(good, monodromy=twist((2, 2), 1)),
        dataclasses.replace(good, monodromy=Monodromy((1, 0), 0)),
        dataclasses.replace(good, monodromy=Monodromy.identity(), c2=(1, 2)),
        dataclasses.replace(good, sign=2),
    ]
    lift = embed_torus(good)
    bad_genus2 = [
        dataclasses.replace(lift, a1=(2, 0, 0, 0)),
        dataclasses.replace(lift, b1=(0, 2, 0, 0)),
        dataclasses.replace(lift, a2=(0, 1, 1, 0)),
        dataclasses.replace(lift, exponent=2),
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


def test_list_fields_are_never_marked():
    a2 = [1, 0]
    d = dataclasses.replace(good_torus(), a2=a2)
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
    g = dataclasses.replace(embed_torus(good_torus()), a1=a1)
    slid = handle_slide(g, "c2")
    assert surgery_project(g) and surgery_project(slid)
    assert not g._valid and not slid._valid
    a1[0] = 2
    for x in (g, slid):
        with pytest.raises(InvalidDiagramError):
            surgery_project(x)


def test_mark_is_not_a_field():
    for d, validate in ((good_torus(), validate_torus), (embed_torus(good_torus()), validate_genus2)):
        fresh = dataclasses.replace(d)
        assert validate(d) == [] and d._valid and not fresh._valid
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)
        assert "_valid" not in {f.name for f in dataclasses.fields(d)}


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
    # A genus-2 document is checked once more, after its projection.
    g = parse_document(serialize_document(rand_genus2_diagram(rng)))
    calls.clear()
    t = surgery_project(g)
    classify(six_tuple(t))
    theorem_hypotheses(t)
    assert calls == [t]
