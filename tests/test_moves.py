import dataclasses
import random

import pytest

from trisect import (
    MAT2_ID,
    ROTATION_WORD,
    SIGMA1,
    SIGMA1_INV,
    SIGMA2,
    SIGMA2_INV,
    Monodromy,
    OrbitGraph,
    OrbitNode,
    TorusDiagram,
    WordError,
    apply_sigma1,
    apply_sigma1_inverse,
    apply_sigma2,
    apply_sigma2_inverse,
    canonical_form,
    case_diagram,
    embed_torus,
    equivalent_torus,
    handle_slide,
    intersection_invariant,
    mat2_apply,
    mat2_det,
    orbit,
    parse_word,
    reduce_word,
    sigma2_cubed_witness,
    surgery_project,
    transvect,
    validate_genus2,
    validate_torus,
    word_to_diagram,
    word_to_torus,
)
from trisect.moves import _node_key

from conftest import rand_genus2_diagram, rand_torus_diagram, rand_unimodular


def rand_word(rng, n):
    return tuple(rng.choice((SIGMA1, SIGMA1_INV, SIGMA2, SIGMA2_INV)) for _ in range(n))


def inverse_word(word):
    inv = {SIGMA1: SIGMA1_INV, SIGMA1_INV: SIGMA1, SIGMA2: SIGMA2_INV, SIGMA2_INV: SIGMA2}
    return tuple(inv[t] for t in reversed(word))


def test_parse_word():
    assert parse_word("D2,D2',D1") == ("D2", "D2'", "D1")
    assert parse_word(" D1' , D2 ") == ("D1'", "D2")
    assert parse_word("") == ()
    assert parse_word("D2,,D2") == ("D2", "D2")
    with pytest.raises(WordError):
        parse_word("D3")
    with pytest.raises(WordError):
        parse_word("d2")


def test_reduce_word():
    assert reduce_word(("D2", "D2'")) == ()
    assert reduce_word(("D1", "D2", "D2'", "D1'")) == ()
    assert reduce_word(("D2", "D1", "D1'", "D2")) == ("D2", "D2")
    assert reduce_word(ROTATION_WORD) == ROTATION_WORD
    rng = random.Random(11)
    for _ in range(500):
        w = rand_word(rng, rng.randrange(12))
        assert reduce_word(w + inverse_word(w)) == ()
        assert reduce_word(reduce_word(w)) == reduce_word(w)


def test_sigma2_frozen_values():
    d = case_diagram(2, q=3)
    fwd = apply_sigma2(d)
    assert (fwd.a2, fwd.b2, fwd.c2) == ((0, 1), (-1, 3), (1, 0))
    assert fwd.monodromy == d.monodromy and fwd.sign == d.sign
    back = apply_sigma2_inverse(d)
    assert (back.a2, back.b2, back.c2) == ((1, 1), (1, 0), (1, 0))
    # identity monodromy: plain rotation, cube is the literal identity
    ident = case_diagram(1)
    rot = apply_sigma2(ident)
    assert (rot.a2, rot.b2, rot.c2) == ((0, 1), (-1, -1), (1, 0))
    assert word_to_torus(ident, (SIGMA2, SIGMA2, SIGMA2)) == ident


def test_sigma_round_trips():
    rng = random.Random(21)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        assert apply_sigma2_inverse(apply_sigma2(d)) == d
        assert apply_sigma2(apply_sigma2_inverse(d)) == d
        g = rand_genus2_diagram(rng)
        for fwd, back in (
            (apply_sigma1, apply_sigma1_inverse),
            (apply_sigma2, apply_sigma2_inverse),
        ):
            assert back(fwd(g)) == g
            assert fwd(back(g)) == g


def test_sigma2_rotates_invariant():
    rng = random.Random(31)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        i1, i2, i3 = intersection_invariant(d)
        assert intersection_invariant(apply_sigma2(d)) == (i2, i3, i1)
        assert intersection_invariant(apply_sigma2_inverse(d)) == (i3, i1, i2)


def test_sigma2_cubed_witness():
    d = case_diagram(2, q=3)
    w = sigma2_cubed_witness(d)
    assert w == ((0, -1), (1, 2))
    assert sigma2_cubed_witness(case_diagram(1)) == MAT2_ID
    rng = random.Random(41)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        w = sigma2_cubed_witness(d)
        cubed = word_to_torus(d, (SIGMA2, SIGMA2, SIGMA2))
        assert mat2_det(w) == 1
        for v, img in zip(
            (d.a2, d.b2, d.c2), (cubed.a2, cubed.b2, cubed.c2)
        ):
            assert mat2_apply(w, v) == img
        if not d.monodromy.is_identity:
            assert mat2_apply(w, d.monodromy.core) == d.monodromy.core
        witness = equivalent_torus(d, cubed)
        assert witness is not None and mat2_det(witness.matrix) == 1


def test_sigma2_commutes_with_projection():
    rng = random.Random(51)
    for _ in range(1_000):
        g = rand_genus2_diagram(rng)
        for step in (apply_sigma2, apply_sigma2_inverse):
            assert surgery_project(step(g)) == step(surgery_project(g))


def test_sigma1_fixes_standard_lift_projection():
    # The forward rotation twists along b1 + s*a1, which misses the
    # second block entirely, so the projection is fixed pointwise; the
    # inverse twists along a class containing the core and only fixes
    # the projection up to basis change and flips.
    rng = random.Random(61)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        g = embed_torus(d)
        assert surgery_project(apply_sigma1(g)) == d
        inv = surgery_project(apply_sigma1_inverse(g))
        assert canonical_form(inv)[0] == canonical_form(d)[0]


def test_sigma1_preserves_projection_class():
    # Off standard position a single outer rotation still leaves the
    # projected diagram in the same basis-change-and-flip class.
    rng = random.Random(71)
    for _ in range(1_000):
        g = rand_genus2_diagram(rng)
        base = canonical_form(surgery_project(g))[0]
        for step in (apply_sigma1, apply_sigma1_inverse):
            h = step(g)
            assert canonical_form(surgery_project(h))[0] == base
            assert intersection_invariant(h) == intersection_invariant(g)


def test_rotation_word_property():
    # Three outer rotations restore the outer triple; the projection
    # comes back twisted once along the core in the direction of the
    # stored sign, hence unchanged exactly when the monodromy is trivial
    # and always unchanged as a canonical form.
    rng = random.Random(81)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        g = embed_torus(d)
        rotated = word_to_diagram(g, ROTATION_WORD)
        assert (rotated.a1, rotated.b1, rotated.c1) == (g.a1, g.b1, g.c1)
        proj = surgery_project(rotated)
        assert proj.monodromy == d.monodromy and proj.sign == d.sign
        if d.monodromy.is_identity:
            assert proj == d
        else:
            core = d.monodromy.core
            for name in ("a2", "b2", "c2"):
                assert getattr(proj, name) == transvect(core, d.sign, getattr(d, name))
        assert canonical_form(proj)[0] == canonical_form(d)[0]


def test_word_application_errors():
    d = case_diagram(2, q=3)
    with pytest.raises(WordError, match="sigma1 requires genus2 model"):
        word_to_torus(d, (SIGMA1,))
    with pytest.raises(WordError, match="sigma1 requires genus2 model"):
        word_to_torus(d, (SIGMA2, SIGMA1_INV))
    with pytest.raises(WordError):
        word_to_torus(d, ("D9",))
    with pytest.raises(WordError):
        word_to_diagram(embed_torus(d), ("D9",))


def test_word_round_trip_genus2():
    rng = random.Random(91)
    for _ in range(300):
        g = rand_genus2_diagram(rng)
        w = rand_word(rng, rng.randrange(8))
        assert word_to_diagram(word_to_diagram(g, w), inverse_word(w)) == g


def _trusted_outputs(rng):
    """(output, validator) for every construction that marks its output.

    Each construction is applied to a fresh random diagram and, to reach
    inputs that are themselves marked outputs, to the output of a random
    earlier step.
    """
    t = rand_torus_diagram(rng)
    for _ in range(3):
        outs = [apply_sigma2(t), apply_sigma2_inverse(t), canonical_form(t)[0]]
        yield from ((out, validate_torus) for out in outs)
        t = rng.choice(outs)
    g = rand_genus2_diagram(rng)
    for _ in range(3):
        outs = [apply_sigma1(g), apply_sigma1_inverse(g), apply_sigma2(g), apply_sigma2_inverse(g)]
        outs += [handle_slide(g, target, sign) for target in ("a2", "b2", "c2") for sign in (1, -1)]
        yield from ((out, validate_genus2) for out in outs)
        g = rng.choice(outs)


def test_trusted_outputs_are_valid():
    # A marked output skips validation downstream, so the full validator
    # must accept an unmarked copy of it.
    rng = random.Random(7207)
    for _ in range(2000):
        for out, validate in _trusted_outputs(rng):
            assert out._valid
            copy = dataclasses.replace(out)
            assert not copy._valid
            assert validate(copy) == [], out


def test_canonical_form_shape_and_idempotence():
    rng = random.Random(111)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        c, b = canonical_form(d)
        assert mat2_det(b) == 1
        assert c.a2 == (1, 0)
        assert c.sign == d.sign
        assert c.monodromy.exponent == d.monodromy.exponent
        assert canonical_form(c)[0] == c
        # b carries each class to the canonical class up to sign
        pairs = [(d.a2, c.a2), (d.b2, c.b2), (d.c2, c.c2)]
        if not d.monodromy.is_identity:
            pairs.append((d.monodromy.core, c.monodromy.core))
        for src, dst in pairs:
            img = mat2_apply(b, src)
            assert img == dst or img == (-dst[0], -dst[1])
        assert intersection_invariant(c) == intersection_invariant(d)


def test_canonical_form_orbit_invariance():
    rng = random.Random(121)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        m = rand_unimodular(rng)
        flips = [rng.choice((1, -1)) for _ in range(4)]

        def img(v, f):
            w = mat2_apply(m, v)
            return (f * w[0], f * w[1])

        mono = d.monodromy
        if not mono.is_identity:
            mono = Monodromy.twist(img(mono.core, flips[3]), mono.exponent)
        moved = TorusDiagram(
            a2=img(d.a2, flips[0]),
            b2=img(d.b2, flips[1]),
            c2=img(d.c2, flips[2]),
            monodromy=mono,
            sign=d.sign,
        )
        assert canonical_form(moved)[0] == canonical_form(d)[0]


def test_canonical_form_all_parallel():
    d = TorusDiagram((1, 0), (-1, 0), (1, 0), Monodromy.twist((-1, 0), 4))
    c, _ = canonical_form(d)
    assert (c.a2, c.b2, c.c2, c.monodromy.core) == ((1, 0), (1, 0), (1, 0), (1, 0))


def test_equivalent_torus_reflexive_and_symmetric():
    rng = random.Random(131)
    for _ in range(300):
        d = rand_torus_diagram(rng)
        w = equivalent_torus(d, d)
        assert w is not None
        m = rand_unimodular(rng)
        flips = [rng.choice((1, -1)) for _ in range(4)]

        def img(v, f):
            u = mat2_apply(m, v)
            return (f * u[0], f * u[1])

        mono = d.monodromy
        if not mono.is_identity:
            mono = Monodromy.twist(img(mono.core, flips[3]), mono.exponent)
        moved = TorusDiagram(
            img(d.a2, flips[0]), img(d.b2, flips[1]), img(d.c2, flips[2]), mono, d.sign
        )
        for src, dst in ((d, moved), (moved, d)):
            w = equivalent_torus(src, dst)
            assert w is not None
            assert mat2_det(w.matrix) == 1
            srcs = [src.a2, src.b2, src.c2]
            dsts = [dst.a2, dst.b2, dst.c2]
            if not src.monodromy.is_identity:
                srcs.append(src.monodromy.core)
                dsts.append(dst.monodromy.core)
            for f, sv, dv in zip(w.flips, srcs, dsts):
                assert mat2_apply(w.matrix, sv) == (f * dv[0], f * dv[1])


def test_equivalent_torus_matches_canonical_forms():
    rng = random.Random(141)
    for _ in range(500):
        d1 = rand_torus_diagram(rng)
        d2 = rand_torus_diagram(rng)
        same = canonical_form(d1)[0] == canonical_form(d2)[0]
        assert (equivalent_torus(d1, d2) is not None) == same


def test_equivalent_torus_requires_matching_invariants():
    d = case_diagram(2, q=3)
    other_k = TorusDiagram(d.a2, d.b2, d.c2, Monodromy.twist(d.monodromy.core, 4), d.sign)
    assert equivalent_torus(d, other_k) is None
    flipped = TorusDiagram(d.a2, d.b2, d.c2, d.monodromy, -1)
    assert equivalent_torus(d, flipped) is None
    rotated = apply_sigma2(d)
    assert equivalent_torus(d, rotated) is None


def test_equivalent_torus_degenerate_branch():
    d1 = TorusDiagram((1, 0), (-1, 0), (1, 0), Monodromy.twist((1, 0), 1))
    m = ((2, 1), (1, 1))

    def img(v):
        return mat2_apply(m, v)

    d2 = TorusDiagram(
        img((1, 0)),
        (-img((1, 0))[0], -img((1, 0))[1]),
        img((1, 0)),
        Monodromy.twist(img((1, 0)), 1),
    )
    w = equivalent_torus(d1, d2)
    assert w is not None
    assert mat2_apply(w.matrix, d1.a2) in (d2.a2, (-d2.a2[0], -d2.a2[1]))
    # a non-parallel partner cannot be reached from an all-parallel diagram
    d3 = TorusDiagram((1, 0), (0, 1), (1, 0), Monodromy.twist((1, 0), 1))
    assert equivalent_torus(d1, d3) is None
    assert equivalent_torus(d3, d1) is None


def _orbit_bfs(start, depth, include_sigma1=False, lift=None):
    """Reference orbit: breadth-first search over the four generators.

    Outer rotations act through the standard lift, except on the start
    node when an explicit lift is supplied.  Frontier expansion is ordered
    lexicographically by node key.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    start_c, _ = canonical_form(start)
    start_key = _node_key(start_c)
    index = {start_key: 0}
    diagrams = [start_c]
    edges = []
    frontier = [start_key]

    def expand(key):
        node = diagrams[index[key]]
        succs = [
            (SIGMA2, canonical_form(apply_sigma2(node))[0]),
            (SIGMA2_INV, canonical_form(apply_sigma2_inverse(node))[0]),
        ]
        if include_sigma1:
            if lift is not None and key == start_key:
                g = lift
            else:
                g = embed_torus(node)
            for token, step in ((SIGMA1, apply_sigma1), (SIGMA1_INV, apply_sigma1_inverse)):
                succs.append((token, canonical_form(surgery_project(step(g)))[0]))
        return succs

    for _level in range(depth):
        new_keys = []
        for key in frontier:
            src = index[key]
            for token, succ in expand(key):
                skey = _node_key(succ)
                if skey not in index:
                    index[skey] = len(diagrams)
                    diagrams.append(succ)
                    new_keys.append(skey)
                edges.append((src, token, index[skey]))
        if not new_keys:
            break
        frontier = sorted(new_keys)

    nodes = tuple(
        OrbitNode(index=i, diagram=dgm, invariant=intersection_invariant(dgm))
        for i, dgm in enumerate(diagrams)
    )
    return OrbitGraph(nodes=nodes, edges=tuple(edges))


def test_orbit_matches_bfs_oracle():
    # Torus starts lift through the standard lift; genus-2 starts are
    # projected and lifted by the diagram itself, off standard position.
    rng = random.Random(2109)
    starts = [(d, embed_torus(d)) for d in (rand_torus_diagram(rng) for _ in range(1_000))]
    starts += [(surgery_project(g), g) for g in (rand_genus2_diagram(rng) for _ in range(1_000))]
    for start, g in starts:
        for depth in range(7):
            for include_sigma1 in (False, True):
                for lift in (None, g):
                    args = (start, depth, include_sigma1, lift)
                    assert orbit(*args) == _orbit_bfs(*args), args


def test_orbit_frozen_shapes():
    d = case_diagram(2, q=3)
    for depth, n_nodes, n_edges in ((0, 1, 0), (1, 3, 2), (2, 3, 6), (5, 3, 6)):
        g = orbit(d, depth)
        assert (len(g.nodes), len(g.edges)) == (n_nodes, n_edges), depth
    g = orbit(d, 2)
    assert g.nodes[0].diagram == canonical_form(d)[0]
    assert [n.invariant for n in g.nodes] == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert all(n.index == i for i, n in enumerate(g.nodes))
    # the inner rotation cycles the three nodes
    fwd = {src: dst for src, tok, dst in g.edges if tok == "D2"}
    assert fwd[0] != 0 and fwd[fwd[fwd[0]]] == 0 and len({0, fwd[0], fwd[fwd[0]]}) == 3


def test_orbit_identity_single_node():
    g = orbit(case_diagram(1), 3)
    assert len(g.nodes) == 1
    assert g.nodes[0].invariant == (0, 0, 0)
    assert g.edges == ((0, "D2", 0), (0, "D2'", 0))


def test_orbit_deterministic():
    d = case_diagram(3)
    assert orbit(d, 3) == orbit(d, 3)


def test_orbit_with_outer_rotation():
    d = case_diagram(2, q=3)
    g = orbit(d, 3, include_sigma1=True, lift=embed_torus(d))
    assert len(g.nodes) == 3
    d1_edges = [e for e in g.edges if e[1] in ("D1", "D1'")]
    assert d1_edges and all(src == dst for src, _tok, dst in d1_edges)
    # the supplied lift only affects the start node; default lifts agree
    assert g == orbit(d, 3, include_sigma1=True)


def test_orbit_rejects_negative_depth():
    with pytest.raises(ValueError):
        orbit(case_diagram(1), -1)
