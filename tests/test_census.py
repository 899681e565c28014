"""Census of the radius-3 box of torus diagrams.

The box: a2 = (1, 0), sign +1, b2, c2 and the twist core primitive with
entries in [-3, 3], exponent in {+-1, +-4}.  Every diagram is reduced to
its canonical form, and each form gets the answers of check-theorem and
classify.  The tallies are fixed figures of the library; a change to
canonical_form, six_tuple, classify, theorem_hypotheses or the invariant
that alters any answer on the box moves at least one of them.  Each form
also gets its orbit size from canonical forms (the rotate-and-compare
reference), which rotations_inequivalent must match.
"""

import math
from collections import Counter

from trisect import (
    Monodromy,
    TorusDiagram,
    apply_sigma2,
    canonical_form,
    classify,
    intersection_invariant,
    rotations_inequivalent,
    six_tuple,
    theorem_hypotheses,
)
from trisect.moves import _rotated_form

RADIUS = 3
EXPONENTS = (1, -1, 4, -4)


def test_census_radius_3():
    prims = [
        (x, y)
        for x in range(-RADIUS, RADIUS + 1)
        for y in range(-RADIUS, RADIUS + 1)
        if math.gcd(x, y) == 1
    ]
    raw = 0
    forms = set()
    for b2 in prims:
        for c2 in prims:
            for core in prims:
                for k in EXPONENTS:
                    d = TorusDiagram((1, 0), b2, c2, Monodromy.twist(core, k), 1)
                    forms.add(canonical_form(d)[0])
                    raw += 1
    families = Counter()
    unmatched = ties = 0
    tie_forms, equal_entry_forms = set(), set()
    # (hypotheses hold, I(V) separates the rotations, orbit nodes) per form.
    table = Counter()
    for t in forms:
        match = classify(six_tuple(t))
        if match is None:
            unmatched += 1
        else:
            families[match.family] += 1
        t1 = apply_sigma2(t)
        invariants = {intersection_invariant(x) for x in (t, t1, apply_sigma2(t1))}
        held = theorem_hypotheses(t).all_hold
        if held and len(invariants) < 3:
            ties += 1
            tie_forms.add(t)
        if held and len(set(intersection_invariant(t))) == 1:
            equal_entry_forms.add(t)
        nodes = 3 if _rotated_form(t) != t else 1
        assert rotations_inequivalent(t) is (nodes == 3), t
        table[held, len(invariants) == 3, nodes] += 1
    assert raw == 131_072
    assert len(forms) == 9_476
    assert dict(families) == {2: 50, 3: 12, 4: 16, 5: 18}
    assert unmatched == 9_380
    assert ties == 172
    # The tie locus is exactly where the hypotheses hold and the three
    # entries of I(V) are equal.
    assert tie_forms == equal_entry_forms
    assert len(equal_entry_forms) == 172
    # The homology-level verdict: every twist form off the +-core locus
    # has three pairwise-inequivalent rotations, hypotheses or not.
    assert table == {
        (True, True, 3): 8_766,
        (True, False, 3): 172,
        (False, True, 3): 474,
        (False, False, 3): 60,
        (False, False, 1): 4,
    }
    assert sum(table.values()) == 9_476
