"""Shared deterministic generators for the property suites.

Every test seeds its own random.Random, so runs are reproducible; these
helpers build valid objects from a supplied generator.  The one exception
is torus_reference_inputs, the fixed-seed corpus that the kernel oracles
share.
"""

import math
import os
import random

from trisect import (
    MAT2_ID,
    Genus2Diagram,
    Monodromy,
    TorusDiagram,
    case_diagram,
    embed_torus,
    handle_slide,
    mat2_apply,
    mat2_mul,
    pair4,
    sl2_complete,
    surgery_project,
    transvect,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def project(reduction, w):
    """Class of w in the surgered torus of a SymplecticReduction: its
    coordinates in the complement plane span(e2, f2); w must be disjoint
    from e1."""
    e1, _f1, e2, f2 = reduction.basis
    assert pair4(e1, w) == 0, (w, e1)
    return (-pair4(f2, w), pair4(e2, w))


def rand_primitive_vec2(rng, bound=9):
    while True:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0) and math.gcd(abs(v[0]), abs(v[1])) == 1:
            return v


def rand_primitive_vec4(rng, bound=2):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(4))
        if any(v) and math.gcd(*(abs(c) for c in v)) == 1:
            return v


def rand_unimodular(rng, entry_cap=20):
    # Random product of elementary matrices, rejected if entries blow up.
    while True:
        m = MAT2_ID
        for _ in range(rng.randrange(1, 6)):
            t = rng.randrange(-3, 4)
            which = rng.randrange(3)
            if which == 0:
                e = ((1, t), (0, 1))
            elif which == 1:
                e = ((1, 0), (t, 1))
            else:
                e = ((0, -1), (1, 0))
            m = mat2_mul(m, e)
        if max(abs(c) for row in m for c in row) <= entry_cap:
            return m


def rand_torus_diagram(rng, allow_identity=True):
    sign = rng.choice((1, -1))
    if allow_identity and rng.random() < 0.3:
        # Any unimodular image of the standard pairwise-unit triple is
        # again pairwise-unit, as are sign flips of its entries.
        m = rand_unimodular(rng)

        def cls(v, flip):
            w = mat2_apply(m, v)
            return (flip * w[0], flip * w[1])

        flips = [rng.choice((1, -1)) for _ in range(3)]
        return TorusDiagram(
            a2=cls((1, 0), flips[0]),
            b2=cls((0, 1), flips[1]),
            c2=cls((1, 1), flips[2]),
            monodromy=Monodromy.identity(),
            sign=sign,
        )
    k = rng.choice((1, -1, 4, -4))
    return TorusDiagram(
        a2=rand_primitive_vec2(rng),
        b2=rand_primitive_vec2(rng),
        c2=rand_primitive_vec2(rng),
        monodromy=Monodromy.twist(rand_primitive_vec2(rng), k),
        sign=sign,
    )


def rand_genus2_diagram(rng, allow_identity=True, mixes=3):
    """Standard lift moved off standard position by slides and global
    symplectic transvections (both preserve validity)."""
    g = embed_torus(rand_torus_diagram(rng, allow_identity))
    for _ in range(rng.randrange(4)):
        g = handle_slide(g, rng.choice(("a2", "b2", "c2")), rng.choice((1, -1)))
    for _ in range(rng.randrange(mixes)):
        v = rand_primitive_vec4(rng)
        k = rng.choice((1, -1))
        g = Genus2Diagram(
            *(transvect(v, k, w) for w in (g.a1, g.b1, g.c1, g.a2, g.b2, g.c2)),
            g.exponent,
        )
    return g


def sweep_case_configs():
    """Every calibrated case configuration over the acceptance grids:
    (family, kwargs) pairs covering both exponent signs, both family-4
    eps2 values, both family-5 sub-cases, and q in [-10, 10] \\ {1}."""
    out = [(1, {})]
    for upper in (True, False):
        for q in range(-10, 11):
            if q == 1:
                continue
            out.append((2, {"q": q, "upper": upper}))
        out.append((3, {"upper": upper}))
        for eps2 in (1, -1):
            out.append((4, {"upper": upper, "eps2": eps2}))
        for epsilon in (1, -1):
            out.append((5, {"upper": upper, "epsilon": epsilon}))
    return out


def basis_change(d, m):
    """The torus diagram d under the unimodular basis change m."""
    mono = d.monodromy
    if not mono.is_identity:
        mono = Monodromy.twist(mat2_apply(m, mono.core), mono.exponent)
    return TorusDiagram(
        mat2_apply(m, d.a2), mat2_apply(m, d.b2), mat2_apply(m, d.c2), mono, d.sign
    )


def torus_reference_inputs():
    """Fixed-seed torus corpus for the kernel oracles: the case grid in
    both signs, random diagrams (about 30% identity monodromy), projections
    of moved genus-2 lifts, and entries near 2^70."""
    for family, kwargs in sweep_case_configs():
        for sign in (1, -1):
            yield case_diagram(family, sign=sign, **kwargs)
    rng = random.Random(4041)
    for _ in range(2_000):
        yield rand_torus_diagram(rng)
    # Projections of genus-2 lifts moved off the standard position.
    moved = 0
    while moved < 1_000:
        g = rand_genus2_diagram(rng, mixes=4)
        if g.a1 != (1, 0, 0, 0):
            yield surgery_project(g)
            moved += 1
    # Entries near 2^70: random classes, whose slots are huge, and large
    # basis changes of calibrated and random diagrams, whose slots are not.
    big = 2**70
    configs = sweep_case_configs()
    for i in range(300):
        if i % 2:
            a, b, c, core = (rand_primitive_vec2(rng, big) for _ in range(4))
            yield TorusDiagram(a, b, c, Monodromy.twist(core, rng.choice((1, -1, 4, -4))))
            continue
        if i % 4:
            d = rand_torus_diagram(rng)
        else:
            family, kwargs = configs[rng.randrange(len(configs))]
            d = case_diagram(family, **kwargs)
        v = (big + rng.randrange(big), big + rng.randrange(big))
        while math.gcd(*v) != 1:
            v = (v[0] + 1, v[1])
        yield basis_change(d, sl2_complete(v))
