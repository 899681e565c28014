"""Acceptance suite: one test per acceptance criterion.

Each criterion runs at its stated tolerance (exact integers, exact lens
equivalence, fixed seeds) and prints one PASS line; a failed assertion in
any of them is a failed criterion.
"""

import json
import math
import random
import time

from trisect import (
    LensSpace,
    TorusDiagram,
    apply_sigma1,
    apply_sigma2,
    canonical_form,
    case_diagram,
    classify,
    embed_torus,
    equivalent_torus,
    handle_slide,
    intersection_invariant,
    lens_equiv,
    lens_from_pair,
    mat2_apply,
    mat2_det,
    orbit,
    pair2,
    pair4,
    sigma2_cubed_witness,
    six_tuple,
    surgery_project,
    transvect,
    word_to_torus,
)
from trisect.cli import main
from trisect.document import document_text

from conftest import (
    basis_change,
    rand_primitive_vec2,
    rand_primitive_vec4,
    rand_torus_diagram,
    rand_unimodular,
    sweep_case_configs,
)

QS = [q for q in range(-10, 11) if q != 1]


def rotations(t):
    i1, i2, i3 = t
    return (t, (i2, i3, i1), (i3, i1, i2))


def test_criterion_1_invariant_tables():
    for upper in (True, False):
        for q in QS:
            d = case_diagram(2, q=q, upper=upper)
            expect = (1, 1, abs(1 - q) if upper else abs(1 + q))
            assert intersection_invariant(d) == expect, (q, upper)
        d = case_diagram(3, upper=upper)
        assert intersection_invariant(d) == (1, 3, 2), upper
        for eps2 in (1, -1):
            assert intersection_invariant(case_diagram(4, upper=upper, eps2=eps2)) == (
                0,
                1,
                1,
            )
        for epsilon in (1, -1):
            assert intersection_invariant(
                case_diagram(5, upper=upper, epsilon=epsilon)
            ) == (0, 1, 1)
    assert intersection_invariant(case_diagram(1)) == (0, 0, 0)
    # the two inner rotations cycle the triple
    for family, kwargs in sweep_case_configs():
        d = case_diagram(family, **kwargs)
        expected = rotations(intersection_invariant(d))
        d1 = apply_sigma2(d)
        d2 = apply_sigma2(d1)
        assert (intersection_invariant(d), intersection_invariant(d1), intersection_invariant(d2)) == expected
    print("ACCEPTANCE 1 (case invariant tables, exact integers): PASS")


def family_pattern(family, q=None, epsilon=None):
    """Calibrated six-tuple of each family, as (p, q) surgery data."""
    S3_, S1S2 = (1, 0), (0, 1)
    if family == 1:
        return (S1S2, S1S2, S1S2, S3_, S3_, S3_)
    if family == 2:
        return (S3_, S3_, ((q - 1) ** 2, q), S1S2, (q - 2, 1), (q, 1))
    if family == 3:
        return (S3_, (9, 2), (4, 1), (2, 1), (5, 1), S3_)
    if family == 4:
        return (S1S2, (4, 1), (4, 1), S3_, (4 + epsilon, 1), S3_)
    return (S1S2, S3_, S3_, S3_, (1 + epsilon, 1), S3_)


def expected_classification(family, kwargs):
    if family == 1:
        return (1, None, None)
    if family == 2:
        q = kwargs["q"] if kwargs["upper"] else -kwargs["q"]
        if q == 1:
            # the parameter-1 tuple degenerates to the family-5 pattern
            return (5, None, -1)
        return (2, q, 1)
    if family == 3:
        return (3, None, 1)
    if family == 4:
        k_sign = 1 if kwargs["upper"] else -1
        return (4, None, -k_sign * kwargs["eps2"])
    return (5, None, kwargs["epsilon"])


def test_criterion_2_classification_tables():
    for family, kwargs in sweep_case_configs():
        d = case_diagram(family, **kwargs)
        t = six_tuple(d)
        exp_family, exp_q, exp_eps = expected_classification(family, kwargs)
        if family == 2:
            q = kwargs["q"] if kwargs["upper"] else -kwargs["q"]
            pattern = family_pattern(2, q=q)
        elif family == 4:
            pattern = family_pattern(4, epsilon=exp_eps)
        elif family == 5:
            pattern = family_pattern(5, epsilon=kwargs["epsilon"])
        else:
            pattern = family_pattern(family)
        for (name, lens), (p, qq) in zip(t.slots(), pattern):
            assert lens_equiv(lens, LensSpace.from_pq(p, qq)), (
                family,
                kwargs,
                name,
                lens,
                (p, qq),
            )
        match = classify(t)
        assert match is not None, (family, kwargs)
        assert (match.family, match.q, match.epsilon) == (exp_family, exp_q, exp_eps), (
            family,
            kwargs,
            match,
        )
    print("ACCEPTANCE 2 (classification tables, exact lens equivalence): PASS")


def test_criterion_3_theorem_certification(tmp_path, capsys):
    def failing_hypothesis(family, kwargs):
        if family == 1:
            return "monodromy is identity"
        if family == 5 and kwargs["epsilon"] == -1:
            return "b2 and c2 are parallel"
        if family == 2:
            q = kwargs["q"]
            if (kwargs["upper"] and q == 2) or (not kwargs["upper"] and q == -2):
                return "b2 and c2 are parallel"
            if q == 0:
                return "a2 and mu^-1(c2) are parallel"
        return None

    path = tmp_path / "case.json"
    for family, kwargs in sweep_case_configs():
        d = case_diagram(family, **kwargs)
        path.write_text(document_text(d), encoding="utf-8")
        code = main(["check-theorem", str(path), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        expected_failure = failing_hypothesis(family, kwargs)
        if expected_failure is None:
            assert payload["certified"] is True, (family, kwargs, payload)
            triples = [tuple(t) for t in payload["invariants"]]
            assert len(set(triples)) == 3, (family, kwargs, triples)
            assert payload["verdict"] == "three pairwise-inequivalent diagrams certified"
        else:
            assert payload["certified"] is False, (family, kwargs, payload)
            assert expected_failure in payload["verdict"], (family, kwargs, payload)
    print("ACCEPTANCE 3 (theorem certification on the case grid, exact): PASS")


def test_criterion_4_property_suites():
    t0 = time.monotonic()

    # I(sigma1 V) = I(V) on valid genus-2 diagrams, both sign models
    rng = random.Random(1001)
    for _ in range(1_000):
        base = rand_torus_diagram(rng)
        for sign in (1, -1):
            g = embed_torus(
                TorusDiagram(base.a2, base.b2, base.c2, base.monodromy, sign)
            )
            assert intersection_invariant(apply_sigma1(g)) == intersection_invariant(g)

    # I invariance under handle-slides w -> w +- a1
    rng = random.Random(1002)
    for _ in range(1_000):
        g = embed_torus(rand_torus_diagram(rng))
        slid = handle_slide(g, rng.choice(("a2", "b2", "c2")), rng.choice((1, -1)))
        assert intersection_invariant(slid) == intersection_invariant(g)

    # sigma2 cubed is the entrywise monodromy-inverse transvection, with
    # an equivalence witness
    rng = random.Random(1003)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        w = sigma2_cubed_witness(d)
        cubed = word_to_torus(d, ("D2", "D2", "D2"))
        assert mat2_det(w) == 1
        assert mat2_apply(w, d.a2) == cubed.a2
        assert mat2_apply(w, d.b2) == cubed.b2
        assert mat2_apply(w, d.c2) == cubed.c2
        witness = equivalent_torus(d, cubed)
        assert witness is not None
        srcs = [d.a2, d.b2, d.c2]
        dsts = [cubed.a2, cubed.b2, cubed.c2]
        if not d.monodromy.is_identity:
            srcs.append(d.monodromy.core)
            dsts.append(cubed.monodromy.core)
        for f, sv, dv in zip(witness.flips, srcs, dsts):
            assert mat2_apply(witness.matrix, sv) == (f * dv[0], f * dv[1])

    # surgery_project o embed_torus = id; projection commutes with sigma2
    rng = random.Random(1004)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        g = embed_torus(d)
        assert surgery_project(g) == d
        assert surgery_project(apply_sigma2(g)) == apply_sigma2(d)

    # transvections preserve the pairing; canonical_form is idempotent
    # and basis-change invariant
    rng = random.Random(1005)
    for _ in range(1_000):
        v2 = rand_primitive_vec2(rng)
        x2, y2 = rand_primitive_vec2(rng), rand_primitive_vec2(rng)
        k = rng.choice((1, -1, 4, -4))
        assert pair2(transvect(v2, k, x2), transvect(v2, k, y2)) == pair2(x2, y2)
        v4 = rand_primitive_vec4(rng)
        x4, y4 = rand_primitive_vec4(rng), rand_primitive_vec4(rng)
        assert pair4(transvect(v4, k, x4), transvect(v4, k, y4)) == pair4(x4, y4)
        d = rand_torus_diagram(rng)
        c, _ = canonical_form(d)
        assert canonical_form(c)[0] == c
        m = rand_unimodular(rng)
        assert canonical_form(basis_change(d, m))[0] == c

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"property suites took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 (property suites, 5x1000 instances in {elapsed:.1f}s): PASS")


def brute_force_lens_q(v, w, p):
    """Every small Bezout completion of v must read off the same residue."""
    x, y = v
    qs = set()
    if y == 0:
        for b in range(-60, 61):
            qs.add((x * w[0] + b * w[1]) % p)
    else:
        for a in range(-60, 61):
            num = 1 - a * x
            if num % y == 0:
                b = num // y
                qs.add((a * w[0] + b * w[1]) % p)
    return qs


def test_criterion_5_lens_oracle():
    rng = random.Random(2001)
    checked = 0
    while checked < 10_000:
        v = rand_primitive_vec2(rng, 50)
        w = rand_primitive_vec2(rng, 50)
        lens = lens_from_pair(v, w)
        assert lens.p == abs(pair2(v, w))
        if lens.p == 0:
            assert lens == LensSpace(0, 1)
            checked += 1
            continue
        qs = brute_force_lens_q(v, w, lens.p)
        assert len(qs) == 1, (v, w, qs)
        assert qs == {lens.q % lens.p if lens.p > 1 else 0}
        checked += 1

    # lens_equiv is an equivalence relation, exhaustively for p <= 50
    for p in range(2, 51):
        units = [q for q in range(1, p) if math.gcd(p, q) == 1]
        classes = {}
        for q in units:
            inv = pow(q, -1, p)
            classes[q] = frozenset({q, p - q, inv, (p - inv) % p})
        for q1 in units:
            assert lens_equiv(LensSpace(p, q1), LensSpace(p, q1))
            for q2 in units:
                eq = lens_equiv(LensSpace(p, q1), LensSpace(p, q2))
                assert eq == (q2 in classes[q1])
                assert eq == lens_equiv(LensSpace(p, q2), LensSpace(p, q1))
                # members of one class share the whole class: transitive
                if eq:
                    assert classes[q1] == classes[q2]
    print("ACCEPTANCE 5 (lens oracle, 10000 pairs + exhaustive p<=50): PASS")


def test_criterion_6_trivial_monodromy_collapse():
    d = case_diagram(1)
    graph = orbit(d, 3)
    assert len(graph.nodes) == 1
    assert graph.nodes[0].invariant == (0, 0, 0)
    rotated = apply_sigma2(d)
    witness = equivalent_torus(d, rotated)
    assert witness is not None
    assert mat2_det(witness.matrix) == 1
    for f, sv, dv in zip(
        witness.flips, (d.a2, d.b2, d.c2), (rotated.a2, rotated.b2, rotated.c2)
    ):
        assert mat2_apply(witness.matrix, sv) == (f * dv[0], f * dv[1])
    # the same collapse for an arbitrary identity-monodromy diagram
    rng = random.Random(3001)
    for _ in range(50):
        d = rand_torus_diagram(rng)
        if not d.monodromy.is_identity:
            continue
        assert len(orbit(d, 3).nodes) == 1
        assert equivalent_torus(d, apply_sigma2(d)) is not None
    print("ACCEPTANCE 6 (trivial-monodromy collapse): PASS")
