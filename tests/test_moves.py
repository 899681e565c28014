import fractions
import itertools
import math
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
    mat2_inv,
    mat2_mul,
    orbit,
    pair2,
    parse_word,
    rotations_inequivalent,
    sigma2_cubed_witness,
    sl2_complete,
    surgery_project,
    transvect,
    validate_genus2,
    validate_torus,
    word_to_diagram,
    word_to_torus,
)
from trisect import diagram as diagram_module
from trisect.moves import _rotated_form

from conftest import (
    rand_genus2_diagram,
    rand_primitive_vec2,
    rand_torus_diagram,
    rand_unimodular,
    torus_reference_inputs,
)


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
    # A text that is not a str is refused by type, before it is split.
    for text, name in ((5, "int"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"move word must be a str, not {name}"):
            parse_word(text)


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
    # One function under two names.
    assert word_to_torus is word_to_diagram
    d = case_diagram(2, q=3)
    g = embed_torus(d)
    for apply, x, word, error, match in (
        (word_to_torus, d, (SIGMA1,), WordError, "sigma1 requires genus2 model"),
        (word_to_torus, d, (SIGMA2, SIGMA1_INV), WordError, "sigma1 requires genus2 model"),
        (word_to_torus, d, ("D9", SIGMA1), WordError, r"'D9' \(expected one of D1, D1'"),
        (word_to_diagram, g, ("D9",), WordError, "unknown move token 'D9'"),
        (word_to_diagram, g, (SIGMA1, "D9"), WordError, "unknown move token 'D9'"),
        # The model of the diagram decides, not which applier is called.
        (word_to_diagram, d, (SIGMA1,), WordError, "sigma1 requires genus2 model"),
        (word_to_diagram, d, (SIGMA2, SIGMA1_INV), WordError, "sigma1 requires genus2 model"),
        # A token that cannot be looked up at all.
        (word_to_torus, d, (["D2"],), TypeError, "unhashable"),
        (word_to_diagram, g, (["D2"],), TypeError, "unhashable"),
    ):
        with pytest.raises(error, match=match):
            apply(x, word)
    lift = embed_torus(case_diagram(3))
    assert word_to_torus(lift, (SIGMA1,)) == apply_sigma1(lift)
    assert word_to_torus(lift, (SIGMA1_INV, SIGMA2)) == apply_sigma2(apply_sigma1_inverse(lift))
    assert word_to_diagram(d, (SIGMA2,)) == apply_sigma2(d)


def test_words_are_token_sequences_not_strings():
    d = case_diagram(2, q=3)
    g = embed_torus(d)
    for apply, x, text in (
        (word_to_torus, d, "D2"), (word_to_diagram, g, "D2,D1"), (word_to_torus, d, "")
    ):
        with pytest.raises(WordError, match=r"pass parse_word\(text\)"):
            apply(x, text)
    assert word_to_torus(d, parse_word("D2")) == apply_sigma2(d)
    assert word_to_diagram(g, parse_word("D2,D1")) == apply_sigma1(apply_sigma2(g))


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
        yield from ((node.diagram, validate_torus) for node in orbit(t, 2).nodes)
        yield embed_torus(t), validate_genus2
        t = rng.choice(outs)
    g = rand_genus2_diagram(rng)
    for _ in range(3):
        outs = [apply_sigma1(g), apply_sigma1_inverse(g), apply_sigma2(g), apply_sigma2_inverse(g)]
        outs += [handle_slide(g, target, sign) for target in ("a2", "b2", "c2") for sign in (1, -1)]
        yield from ((out, validate_genus2) for out in outs)
        yield surgery_project(g), validate_torus
        g = rng.choice(outs)


def test_trusted_outputs_are_valid():
    # A marked output skips validation downstream, so the full validator
    # must accept an unmarked copy of it.  A torus output carries a plain
    # Monodromy.
    rng = random.Random(7207)
    for _ in range(2000):
        for out, validate in _trusted_outputs(rng):
            assert out._valid
            if validate is validate_torus:
                assert type(out.monodromy) is Monodromy
            copy = out._replace()
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
        assert canonical_form(_moved(rng, d))[0] == canonical_form(d)[0]


def test_canonical_form_all_parallel():
    d = TorusDiagram((1, 0), (-1, 0), (1, 0), Monodromy.twist((-1, 0), 4))
    c, _ = canonical_form(d)
    assert (c.a2, c.b2, c.c2, c.monodromy.core) == ((1, 0), (1, 0), (1, 0), (1, 0))


def _normalize_sign(v):
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def _canonical_form_reference(d):
    """Reference canonical_form: the same recipe through mat2_apply and
    mat2_mul, with B the shear times the completion."""
    m0 = sl2_complete(d.a2)
    rest = [d.b2, d.c2]
    if not d.monodromy.is_identity:
        rest.append(d.monodromy.core)
    shear = 0
    for v in rest:
        x, y = mat2_apply(m0, v)
        if y == 0:
            continue
        m = abs(y)
        t0 = x % m
        if 2 * t0 < m:
            target = t0
        elif 2 * t0 > m or y > 0:
            target = t0 - m
        else:
            target = t0
        shear = (target - x) // y
        break
    b = mat2_mul(((1, shear), (0, 1)), m0)
    mono = d.monodromy
    if not mono.is_identity:
        mono = Monodromy.twist(_normalize_sign(mat2_apply(b, mono.core)), mono.exponent)
    out = TorusDiagram(
        a2=_normalize_sign(mat2_apply(b, d.a2)),
        b2=_normalize_sign(mat2_apply(b, d.b2)),
        c2=_normalize_sign(mat2_apply(b, d.c2)),
        monodromy=mono,
        sign=d.sign,
    )
    return out, b


def test_canonical_form_matches_reference():
    rng = random.Random(5555)
    inputs = [rand_torus_diagram(rng) for _ in range(2_000)]
    for _ in range(200):
        # Every class parallel to a2, so no shear is chosen.
        v = rand_primitive_vec2(rng, rng.choice((9, 2**70)))
        b, c, core = ((f * v[0], f * v[1]) for f in rng.choices((1, -1), k=3))
        k = rng.choice((1, -1, 4, -4))
        inputs.append(TorusDiagram(v, b, c, Monodromy.twist(core, k), rng.choice((1, -1))))
    for _ in range(300):
        a, b, c, core = (rand_primitive_vec2(rng, 2**70) for _ in range(4))
        inputs.append(TorusDiagram(a, b, c, Monodromy.twist(core, rng.choice((1, -1, 4, -4)))))
    # Every 11th diagram of the radius-3 census box of 131,072.
    prims = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1]
    box = itertools.product(prims, prims, prims, (1, -1, 4, -4))
    for b2, c2, core, k in itertools.islice(box, 0, None, 11):
        inputs.append(TorusDiagram((1, 0), b2, c2, Monodromy.twist(core, k), 1))
    assert len(inputs) == 2_500 + 11_916
    identities = 0
    for d in inputs:
        out, b = canonical_form(d)
        assert (out, b) == _canonical_form_reference(d), d
        assert out._valid
        identities += d.monodromy.is_identity
    assert identities > 400
    # The inner rotation canonicalised from the rotated classes.
    for v in torus_reference_inputs():
        rotated = _rotated_form(v)
        assert rotated == canonical_form(apply_sigma2(v))[0], v
        assert type(rotated) is TorusDiagram and rotated._valid


def test_equivalent_torus_reflexive_and_symmetric():
    rng = random.Random(131)
    for _ in range(300):
        d = rand_torus_diagram(rng)
        w = equivalent_torus(d, d)
        assert w is not None
        moved = _moved(rng, d)
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


def _classes(d):
    """a2, b2, c2 and, under a twist, the core: the classes a witness carries."""
    core = (d.monodromy.core,) if d.monodromy.exponent else ()
    return (d.a2, d.b2, d.c2, *core)


def _flips(m, vs, ws):
    """The signs f with m v = f w for each pair (v, w), or None when some
    image is neither w nor -w."""
    flips = []
    (p, q), (r, s) = m
    for (v0, v1), (w0, w1) in zip(vs, ws):
        img = (p * v0 + q * v1, r * v0 + s * v1)
        if img == (w0, w1):
            flips.append(1)
        elif img == (-w0, -w1):
            flips.append(-1)
        else:
            return None
    return tuple(flips)


def _equivalent_torus_reference(d1, d2):
    """Reference equivalent_torus: solve for the basis change on a pair of
    independent source classes, trying every sign pattern on the targets.
    Returns the flips of a witness, or None."""
    if d1.sign != d2.sign or d1.monodromy.exponent != d2.monodromy.exponent:
        return None
    vs = _classes(d1)
    ws = _classes(d2)
    n = len(vs)
    pivot = None
    for i in range(n):
        for j in range(i + 1, n):
            if pair2(vs[i], vs[j]) != 0:
                pivot = (i, j)
                break
        if pivot:
            break
    if pivot is None:
        # Every source class is parallel to vs[0]; the basis change is
        # determined up to the stabilizer, any completion works.
        if any(pair2(ws[i], ws[j]) != 0 for i in range(n) for j in range(i + 1, n)):
            return None
        m = mat2_mul(mat2_inv(sl2_complete(ws[0])), sl2_complete(vs[0]))
        return _flips(m, vs, ws)
    i, j = pivot
    p = pair2(vs[i], vs[j])
    vm = ((vs[i][0], vs[j][0]), (vs[i][1], vs[j][1]))
    adj = ((vm[1][1], -vm[0][1]), (-vm[1][0], vm[0][0]))
    for e1 in (1, -1):
        for e2 in (1, -1):
            wm = ((e1 * ws[i][0], e2 * ws[j][0]), (e1 * ws[i][1], e2 * ws[j][1]))
            num = mat2_mul(wm, adj)
            if any(c % p for row in num for c in row):
                continue
            m = tuple(tuple(c // p for c in row) for row in num)
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1:
                continue
            flips = _flips(m, vs, ws)
            if flips is not None:
                return flips
    return None


def _moved(rng, d):
    """d under a random unimodular basis change and per-class sign flips."""
    m = rand_unimodular(rng)
    flips = [rng.choice((1, -1)) for _ in range(4)]

    def img(v, f):
        u = mat2_apply(m, v)
        return (f * u[0], f * u[1])

    mono = d.monodromy
    if not mono.is_identity:
        mono = Monodromy.twist(img(mono.core, flips[3]), mono.exponent)
    return TorusDiagram(img(d.a2, flips[0]), img(d.b2, flips[1]), img(d.c2, flips[2]), mono, d.sign)


def test_equivalent_torus_matches_pivot_reference():
    # Whether a witness exists agrees with the pivot search, and every
    # witness has determinant 1 and carries each class to +-its target.
    rng = random.Random(7301)
    pairs = []
    for _ in range(400):
        d = rand_torus_diagram(rng)
        pairs += [(d, d), (d, word_to_torus(d, (SIGMA2, SIGMA2, SIGMA2))), (d, _moved(rng, d))]
        pairs.append((d, rand_torus_diagram(rng)))
        pairs.append((d, apply_sigma2(d)))
    for _ in range(100):
        a, b, c, core = (rand_primitive_vec2(rng, 2**70) for _ in range(4))
        d = TorusDiagram(a, b, c, Monodromy.twist(core, rng.choice((1, -1, 4, -4))))
        pairs += [(d, d), (d, word_to_torus(d, (SIGMA2, SIGMA2, SIGMA2))), (d, apply_sigma2(d))]
    found = 0
    for d1, d2 in pairs:
        w = equivalent_torus(d1, d2)
        assert (w is None) == (_equivalent_torus_reference(d1, d2) is None), (d1, d2)
        if w is None:
            continue
        found += 1
        assert mat2_det(w.matrix) == 1
        assert w.flips == _flips(w.matrix, _classes(d1), _classes(d2)), (d1, d2)
    # 1,400 pairs are equivalent by construction; most of the rest are not.
    assert 1_400 <= found < len(pairs) - 500


def test_equivalent_torus_list_classes():
    # validate_torus accepts classes given as lists; a witness still exists
    # exactly when the canonical forms agree, and it verifies.
    rng = random.Random(7303)
    for _ in range(300):
        d = rand_torus_diagram(rng)
        e = _moved(rng, d)
        listed = TorusDiagram(list(e.a2), list(e.b2), list(e.c2), e.monodromy, e.sign)
        for src, dst in ((d, listed), (listed, d)):
            w = equivalent_torus(src, dst)
            assert w is not None and mat2_det(w.matrix) == 1
            assert w.flips == _flips(w.matrix, _classes(src), _classes(dst))


def _node_key(d):
    """The search's node order: exponent, core ((0, 0) for identity
    monodromy), the classes, then the sign."""
    core = d.monodromy.core if d.monodromy.core is not None else (0, 0)
    return (d.monodromy.exponent, core, d.a2, d.b2, d.c2, d.sign)


def _orbit_bfs(start, depth, include_sigma1=False, lift=None):
    """Reference orbit: breadth-first search over the four generators.

    Outer rotations act through the standard lift, except on the start
    node when an explicit lift is supplied.  Frontier expansion is ordered
    lexicographically by node key.  A fractional depth expands as its
    ceiling, as orbit reads it.
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
            g = lift if lift is not None and key == start_key else embed_torus(node)
            for token, step in ((SIGMA1, apply_sigma1), (SIGMA1_INV, apply_sigma1_inverse)):
                succs.append((token, canonical_form(surgery_project(step(g)))[0]))
        return succs

    for _level in range(math.ceil(depth)):
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

    nodes = tuple(OrbitNode(i, dgm, intersection_invariant(dgm)) for i, dgm in enumerate(diagrams))
    return OrbitGraph(nodes=nodes, edges=tuple(edges))


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
    # NaN compares false with everything, so only "not depth >= 0" refuses it.
    for depth in (-1, -0.5, float("nan")):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            orbit(case_diagram(1), depth)


def test_orbit_refuses_a_flag_or_depth_of_another_type():
    # bool("no") is True, so a string once added the outer-rotation loops
    # (12 edges against 6); a bool depth is a flag in the depth's place.
    d = case_diagram(3)
    for depth in (0, 2):
        for flag in ("no", "", 0, 1, None):
            with pytest.raises(TypeError, match="include_sigma1 must be a bool"):
                orbit(d, depth, include_sigma1=flag)
    for depth in (True, False):
        with pytest.raises(TypeError, match="depth must be a number, not bool"):
            orbit(d, depth)
    # A depth that does not compare with 0 is refused by type.
    for depth, name in (("2", "str"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"depth must be a number, not {name}"):
            orbit(d, depth)
    assert orbit(d, fractions.Fraction(5, 2)) == orbit(d, math.inf) == orbit(d, 2)
    assert len(orbit(d, 2, include_sigma1=False).edges) == 6


def _orbit_starts(rng):
    """Seeded orbit starts: torus diagrams, about 30% with identity
    monodromy, projected genus-2 lifts, twist diagrams near 2^70, further
    identity-monodromy starts, twist diagrams with equal invariant entries,
    and the only 1-node orbits, a2 = b2 = c2 = core = (1, 0), for each
    exponent and sign."""
    starts = [rand_torus_diagram(rng) for _ in range(500)]
    starts += [surgery_project(rand_genus2_diagram(rng)) for _ in range(500)]
    for _ in range(100):
        a, b, c, core = (rand_primitive_vec2(rng, 2**70) for _ in range(4))
        starts.append(TorusDiagram(a, b, c, Monodromy.twist(core, rng.choice((1, -1, 4, -4)))))
    starts += [
        d for d in (rand_torus_diagram(rng) for _ in range(300)) if d.monodromy.is_identity
    ]
    # Twist diagrams whose invariant entries are all equal, moved by a
    # basis change: the candidates for the tie locus.
    ties = 0
    while ties < 200:
        b, c, core = (rand_primitive_vec2(rng, 3) for _ in range(3))
        d = TorusDiagram((1, 0), b, c, Monodromy.twist(core, rng.choice((1, -1, 4, -4))))
        if len(set(intersection_invariant(d))) == 1:
            m = rand_unimodular(rng)
            a2, b2, c2, core = (mat2_apply(m, v) for v in (d.a2, b, c, core))
            starts.append(TorusDiagram(a2, b2, c2, Monodromy.twist(core, d.monodromy.exponent)))
            ties += 1
    e = (1, 0)
    starts += [TorusDiagram(e, e, e, Monodromy.twist(e, k), s) for k in (1, -1, 4, -4)
               for s in (1, -1)]
    # The same locus off standard position: a2, b2 and c2 each +-core,
    # with cores small and near 2^70.
    for bound in (9, 2**70):
        for _ in range(20):
            core = x, y = rand_primitive_vec2(rng, bound)
            a2, b2, c2 = ((f * x, f * y) for f in rng.choices((1, -1), k=3))
            k = rng.choice((1, -1, 4, -4))
            starts.append(TorusDiagram(a2, b2, c2, Monodromy.twist(core, k), rng.choice((1, -1))))
    return starts


def _assert_orbit_matches_bfs(genus2):
    """orbit against the search on seeded starts with a lift each: torus
    diagrams with their standard lift or, if genus2, genus-2 diagrams
    projected and lifted by the diagram itself, off standard position.

    A lift is read only with sigma1 on, and depths above 3 take orbit's
    depth > 1 branch after the search has stopped growing.
    """
    rng = random.Random(2109)
    pairs = [(d, embed_torus(d)) for d in (rand_torus_diagram(rng) for _ in range(1_000))]
    if genus2:
        pairs = [(surgery_project(g), g) for g in (rand_genus2_diagram(rng) for _ in range(1_000))]
    for start, lift in pairs:
        for depth in range(4):
            for args in ((start, depth, False, None), (start, depth, True, None),
                         (start, depth, True, lift)):
                assert orbit(*args) == _orbit_bfs(*args), args


def test_orbit_matches_bfs_oracle_torus_starts():
    _assert_orbit_matches_bfs(genus2=False)


def test_orbit_matches_bfs_oracle_genus2_lifts():
    _assert_orbit_matches_bfs(genus2=True)


def test_orbit_matches_bfs_oracle_special_starts():
    # Fractional depths reach the same branches as the search expanding to
    # the ceiling of the depth.
    rng = random.Random(7321)
    one_node = identities = 0
    for start in _orbit_starts(rng):
        for depth in (0, 0.5, 1, 1.5, 2, 3):
            for include_sigma1 in (False, True):
                args = (start, depth, include_sigma1)
                assert orbit(*args) == _orbit_bfs(*args), args
        one_node += len(orbit(start, 1).nodes) == 1
        identities += start.monodromy.is_identity
    assert one_node >= 48 and identities > 300


def test_rotations_inequivalent_matches_bfs_oracle():
    # The closed form I(V) != (0, 0, 0) against the node count of the
    # breadth-first orbit at depth 1, on seeded starts with entries up to
    # 2^70, identity monodromy and the +-core locus; genus-2 diagrams give
    # the answer of their projection.
    rng = random.Random(7327)
    counts = {True: 0, False: 0}
    twist_equal = 0
    for start in _orbit_starts(rng):
        got = rotations_inequivalent(start)
        nodes = len(_orbit_bfs(start, 1).nodes)
        assert got is (nodes == 3) and len(orbit(start, 1).nodes) == nodes, start
        counts[got] += 1
        twist_equal += not got and not start.monodromy.is_identity
    for _ in range(300):
        g = rand_genus2_diagram(rng)
        assert rotations_inequivalent(g) is (len(_orbit_bfs(surgery_project(g), 1).nodes) == 3)
    assert counts[True] > 900 and counts[False] > 300 and twist_equal == 48


def test_orbit_invariants_rotate():
    # Each node's invariant is that node's intersection_invariant, and
    # node 1 and node 2 carry the cyclic rotations (i1, i2, i0) and
    # (i2, i0, i1) of node 0's.  So I(V) separates the three nodes exactly
    # when its entries are not all equal.
    rng = random.Random(7323)
    ties = 0
    for start in _orbit_starts(rng):
        g = orbit(start, 2)
        i0, i1, i2 = inv = intersection_invariant(start)
        assert g.nodes[0].invariant == inv
        for node in g.nodes:
            assert node.invariant == intersection_invariant(node.diagram)
        if len(g.nodes) == 3:
            assert g.nodes[1].invariant == (i1, i2, i0)
            assert g.nodes[2].invariant == (i2, i0, i1)
            separated = len({node.invariant for node in g.nodes}) == 3
            assert separated == (not i0 == i1 == i2)
            ties += not separated
    assert ties > 150


class _SubMonodromy(Monodromy):
    pass


def test_orbit_and_canonical_outputs_are_marked():
    # test_trusted_outputs_are_valid checks random orbit and canonical
    # outputs; a Monodromy subclass is never carried into a marked output.
    ident = case_diagram(1)
    sub = TorusDiagram(ident.a2, ident.b2, ident.c2, _SubMonodromy(None, 0), ident.sign)
    assert validate_torus(sub) == [] and not sub._valid
    out, _ = canonical_form(sub)
    assert type(out.monodromy) is Monodromy and out._valid
    assert out == canonical_form(ident)[0]
    # The subclass has an instance dict and builds through its own open
    # twin; it is still frozen, and equal to no Monodromy.
    twist = _SubMonodromy((1, 0), 1)
    assert type(twist) is _SubMonodromy and twist.__dict__ == {}
    for name in ("core", "exponent", "other"):
        with pytest.raises(AttributeError):
            setattr(twist, name, None)
    assert twist == _SubMonodromy((1, 0), 1) and hash(twist) == hash(((1, 0), 1))
    assert twist != Monodromy((1, 0), 1) and Monodromy((1, 0), 1) != twist


def test_orbit_validates_its_start_once(monkeypatch):
    calls = []
    real = diagram_module.validate_torus

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(diagram_module, "validate_torus", counting)
    rng = random.Random(7341)
    for _ in range(200):
        d = rand_torus_diagram(rng)
        for depth in range(4):
            for include_sigma1 in (False, True):
                unmarked = d._replace()
                calls.clear()
                orbit(unmarked, depth, include_sigma1)
                assert len(calls) == 1
                marked = canonical_form(d)[0]
                calls.clear()
                orbit(marked, depth, include_sigma1)
                assert calls == []


def _three_node_orbits(rng):
    """Depth-2 orbits of 3 nodes: 1,000 from torus diagrams and projected
    genus-2 lifts, then 500 from twist diagrams with entries in [-2, 2],
    where nodes 1 and 2 often share a canonical core."""
    graphs = []
    for i in itertools.count():
        if len(graphs) == 1_500:
            return graphs
        if len(graphs) < 1_000:
            start = rand_torus_diagram(rng) if i % 2 else surgery_project(rand_genus2_diagram(rng))
        else:
            a2, b2, c2, core = (rand_primitive_vec2(rng, 2) for _ in range(4))
            k = rng.choice((1, -1, 4, -4))
            start = TorusDiagram(a2, b2, c2, Monodromy.twist(core, k), rng.choice((1, -1)))
        g = orbit(start, 2)
        if len(g.nodes) == 3:
            graphs.append(g)


def test_orbit_nodes_are_marked_canonical_and_in_key_order():
    # orbit builds its nodes and graph through _build and orders nodes 1
    # and 2 by (core, b2, c2) alone.  Each node is still an exact, marked
    # TorusDiagram equal to its own canonical form, and the edge table
    # expands nodes 1 and 2 in the search's _node_key order.
    shared_core = shared_b2 = 0
    for g in _three_node_orbits(random.Random(7351)):
        assert type(g) is OrbitGraph and [type(n) for n in g.nodes] == [OrbitNode] * 3
        for node in g.nodes:
            d = node.diagram
            assert type(d) is TorusDiagram and type(d.monodromy) is Monodromy and d._valid
            assert canonical_form(d)[0] == d and canonical_form(d._replace())[0] == d
        expanded = list(dict.fromkeys(src for src, _, _ in g.edges))
        assert expanded[0] == 0 and sorted(expanded) == [0, 1, 2]
        first, second = (g.nodes[i].diagram for i in expanded[1:])
        assert _node_key(first) < _node_key(second)
        if first.monodromy.core == second.monodromy.core:
            shared_core += 1
            shared_b2 += first.b2 == second.b2
    assert shared_core >= 50 and shared_b2 >= 1
