import math
import random

import pytest

from trisect import (
    MAT2_ID,
    NonPrimitiveError,
    SymplecticReduction,
    ZeroVectorError,
    is_primitive,
    mat2_apply,
    mat2_det,
    mat2_inv,
    mat2_mul,
    pair2,
    pair4,
    sl2_complete,
    transvect,
)

from trisect.lattice import _complete

from conftest import rand_genus2_diagram, rand_primitive_vec2, rand_primitive_vec4


def test_pairing_values():
    assert pair2((-3, 1), (5, -1)) == -2
    assert pair2((1, 0), (0, 1)) == 1
    assert pair4((0, 1, 0, 0), (-1, -1, -1, 1)) == 1
    assert pair4((1, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert pair4((0, 0, 1, 0), (0, 0, 0, 1)) == 1


def test_pairing_antisymmetry_bilinearity():
    rng = random.Random(101)
    for _ in range(10_000):
        v = tuple(rng.randint(-50, 50) for _ in range(2))
        w = tuple(rng.randint(-50, 50) for _ in range(2))
        u = tuple(rng.randint(-50, 50) for _ in range(2))
        assert pair2(v, w) == -pair2(w, v)
        assert pair2(v, v) == 0
        s = rng.randint(-5, 5)
        assert pair2(tuple(a + s * b for a, b in zip(v, u)), w) == pair2(v, w) + s * pair2(u, w)
        v4 = tuple(rng.randint(-50, 50) for _ in range(4))
        w4 = tuple(rng.randint(-50, 50) for _ in range(4))
        u4 = tuple(rng.randint(-50, 50) for _ in range(4))
        assert pair4(v4, w4) == -pair4(w4, v4)
        assert pair4(tuple(a + s * b for a, b in zip(v4, u4)), w4) == pair4(v4, w4) + s * pair4(u4, w4)


def test_transvect_values():
    assert transvect((-3, 1), -1, (0, 1)) == (-9, 4)
    assert transvect((1, 0), -4, (0, 1)) == (-4, 1)
    assert transvect((-1, 1), -1, (1, 0)) == (0, 1)
    # the twist fixes its own core
    assert transvect((-3, 1), 7, (-3, 1)) == (-3, 1)
    # a core and a class of different lengths
    for core, x in (((1, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 1))):
        with pytest.raises(ValueError, match="different lengths"):
            transvect(core, 1, x)
    # An exponent that is not an exact int, even one equal to an int.
    for k in (1.0, 0.0, -1.0, True, False, "1", None):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            transvect((1, 0), k, (0, 1))
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            transvect((0, 0, 1, 0), k, (0, 0, 0, 1))


def test_transvect_preserves_pairing_and_inverts():
    rng = random.Random(202)
    for _ in range(10_000):
        rank = rng.choice((2, 4))
        if rank == 2:
            core = rand_primitive_vec2(rng)
            pairing = pair2
        else:
            core = rand_primitive_vec4(rng, bound=5)
            pairing = pair4
        x = tuple(rng.randint(-30, 30) for _ in range(rank))
        y = tuple(rng.randint(-30, 30) for _ in range(rank))
        k = rng.randint(-5, 5)
        tx, ty = transvect(core, k, x), transvect(core, k, y)
        assert pairing(tx, ty) == pairing(x, y)
        assert transvect(core, -k, tx) == x


def test_transvect_powers_compose():
    rng = random.Random(203)
    for _ in range(2_000):
        core = rand_primitive_vec2(rng)
        x = tuple(rng.randint(-30, 30) for _ in range(2))
        j, k = rng.randint(-4, 4), rng.randint(-4, 4)
        assert transvect(core, j, transvect(core, k, x)) == transvect(core, j + k, x)


def test_sl2_complete_values():
    assert sl2_complete((5, -1)) == ((0, -1), (1, 5))
    assert sl2_complete((0, 1)) == ((0, 1), (-1, 0))
    assert sl2_complete((1, 0)) == MAT2_ID
    assert sl2_complete((3, 1)) == ((0, 1), (-1, 3))
    assert sl2_complete((-1, 0)) == ((-1, 0), (0, -1))


def test_sl2_complete_exhaustive_small():
    # Every primitive vector with entries up to 100: determinant one,
    # v maps to (1, 0), forced second row, Bezout entry in the canonical
    # window.
    for x in range(-100, 101):
        for y in range(-100, 101):
            if (x, y) == (0, 0) or math.gcd(abs(x), abs(y)) != 1:
                continue
            m = sl2_complete((x, y))
            assert mat2_det(m) == 1
            assert mat2_apply(m, (x, y)) == (1, 0)
            assert m[1] == (-y, x)
            u = m[0][0]
            if y == 0:
                assert m[0] == (x, 0)
            else:
                assert -abs(y) < 2 * u <= abs(y)


def test_sl2_complete_errors():
    with pytest.raises(ZeroVectorError):
        sl2_complete((0, 0))
    with pytest.raises(NonPrimitiveError):
        sl2_complete((2, 4))
    with pytest.raises(NonPrimitiveError):
        sl2_complete((2, 0))


def test_is_primitive():
    assert is_primitive((1, 0))
    assert is_primitive((3, 5))
    assert not is_primitive((0, 0))
    assert not is_primitive((2, 4))
    assert is_primitive((0, 1, 0, 0))
    assert not is_primitive((2, 2, 2, 2))
    # Entries that compare equal to ints are refused, as by sl2_complete.
    for v in ((True, False), (1, True), (False, False), (1.0, 0), (0.0, 0.0), (0, 0, 1.0, 0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            is_primitive(v)


def test_is_primitive_matches_abs_gcd():
    # Reference: the gcd of the absolute values, which math.gcd computes
    # anyway; zero, negative and wider-than-64-bit entries included.
    big = 2**70
    vectors = [
        (), (0,), (0, 0), (0, 0, 0, 0), (1,), (-1,), (-1, 0), (0, -1), (-2, -4),
        (-3, 5), (6, -10, 15, 0), (big, 1), (big, big + 1), (-big, 2 * big),
        (3 * big, -5 * big, 0, 0), (2**64 + 1, -(2**64 - 1)), (-(2**63), 2**63 - 1),
    ]
    rng = random.Random(121)
    for _ in range(2_000):
        n = rng.choice((2, 4))
        scale = rng.choice((1, 2, 3, big))
        vectors.append(tuple(scale * rng.randint(-50, 50) for _ in range(n)))
    for v in vectors:
        assert is_primitive(v) == (math.gcd(*(abs(c) for c in v)) == 1), v


def test_mat2_helpers():
    rng = random.Random(303)
    for _ in range(1_000):
        # Build a unimodular matrix from a random primitive column.
        v = rand_primitive_vec2(rng)
        m = sl2_complete(v)
        assert mat2_mul(m, mat2_inv(m)) == MAT2_ID
        assert mat2_mul(mat2_inv(m), m) == MAT2_ID
    with pytest.raises(ValueError):
        mat2_inv(((2, 0), (0, 1)))


def test_symplectic_reduce_standard_position():
    r = SymplecticReduction((1, 0, 0, 0))
    assert r.basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert r.project((0, 0, 5, 7)) == (5, 7)
    assert r.project((3, 0, -2, 9)) == (-2, 9)


def test_symplectic_reduce_standard_class_matches_reference():
    # The single construction, with no branch for the standard class,
    # returns the standard basis there, as the reference below does.
    standard = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    r = SymplecticReduction((1, 0, 0, 0))
    assert r.basis == standard == _reduction_basis_reference((1, 0, 0, 0))
    rng = random.Random(141)
    for _ in range(200):
        w = (rng.randint(-30, 30), 0, rng.randint(-30, 30), rng.randint(-30, 30))
        assert r.project(w) == (w[2], w[3])


# The reduction as generic 4x4 integer matrices on (x1, y1, x2, y2): M1
# is the block sum of the completions of the two blocks' directions, M2
# acts as A on the x coordinates and as A^-T on the y coordinates, with
# A the completion of the two block gcds.  M = M2 M1 is symplectic, so
# M^-1 = J^-1 M^T J = -J M^T J, and the basis is its columns.
_J = ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def _matmul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(len(n))) for j in range(len(n[0])))
        for i in range(len(m))
    )


def _transpose(m):
    return tuple(zip(*m))


def _reduction_basis_reference(a):
    gcds = [math.gcd(a[0], a[1]), math.gcd(a[2], a[3])]
    (b00, b01), (b10, b11) = _sl2_complete_reference(
        (a[0] // gcds[0], a[1] // gcds[0]) if gcds[0] else (1, 0)
    )
    (c00, c01), (c10, c11) = _sl2_complete_reference(
        (a[2] // gcds[1], a[3] // gcds[1]) if gcds[1] else (1, 0)
    )
    m1 = ((b00, b01, 0, 0), (b10, b11, 0, 0), (0, 0, c00, c01), (0, 0, c10, c11))
    (p, q), (r, s) = _sl2_complete_reference(tuple(gcds))
    # A^-T for A = ((p, q), (r, s)) of determinant 1 is ((s, -r), (-q, p)).
    m2 = ((p, 0, q, 0), (0, s, 0, -r), (r, 0, s, 0), (0, -q, 0, p))
    m = _matmul(m2, m1)
    assert _matmul(_matmul(_transpose(m), _J), m) == _J
    assert _matmul(m, tuple((x,) for x in a)) == ((1,), (0,), (0,), (0,))
    minus_j = tuple(tuple(-x for x in row) for row in _J)
    inverse = _matmul(_matmul(minus_j, _transpose(m)), _J)
    assert _matmul(m, inverse) == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    return tuple(tuple(col) for col in _transpose(inverse))


def test_symplectic_reduce_matches_reference():
    rng = random.Random(161)
    classes = []
    for bound in (1, 2, 15, 2**70):
        classes += [rand_primitive_vec4(rng, bound=bound) for _ in range(1_000)]
    # a1 of genus-2 lifts moved off the standard position, as
    # surgery_project meets them.
    moved = 0
    while moved < 1_000:
        a1 = rand_genus2_diagram(rng, mixes=4).a1
        if a1 != (1, 0, 0, 0):
            classes.append(a1)
            moved += 1
    # Near 2^70: a large multiple of a small class plus a unit shift.
    big = 2**70
    for _ in range(300):
        v = rand_primitive_vec4(rng, bound=3)
        classes.append(tuple(big * c + rng.randint(-2, 2) for c in v))
    checked = 0
    for a in classes:
        if math.gcd(*a) != 1:
            continue
        basis = SymplecticReduction(a).basis
        assert basis == _reduction_basis_reference(a), a
        # e1 = a, and the Gram matrix of the basis is that of the
        # standard basis, which is _J.
        assert basis[0] == a
        assert tuple(tuple(pair4(u, v) for v in basis) for u in basis) == _J, a
        # A list is read as a tuple and gives the same basis.
        assert SymplecticReduction(list(a)).basis == basis, a
        checked += 1
    assert checked > 5_000


def test_symplectic_reduce_swapped_block():
    r = SymplecticReduction((0, 0, 1, 0))
    a, f1, e2, f2 = r.basis
    assert a == (0, 0, 1, 0)
    # The projection of a class disjoint from a is a unit vector exactly
    # when the class extends the complement basis.
    p = r.project((0, 1, 0, 0))
    assert sorted(abs(c) for c in p) == [0, 1]


def test_symplectic_reduce_gram_identities():
    rng = random.Random(404)
    for _ in range(1_000):
        a = rand_primitive_vec4(rng, bound=15)
        r = SymplecticReduction(a)
        e1, f1, e2, f2 = r.basis
        assert e1 == a
        assert pair4(e1, f1) == 1
        assert pair4(e2, f2) == 1
        for u, v in ((e1, e2), (e1, f2), (f1, e2), (f1, f2)):
            assert pair4(u, v) == 0
        # projection: exact coordinates in the complement plane
        w = tuple(rng.randint(-20, 20) for _ in range(4))
        w = tuple(wi - pair4(a, w) * fi for wi, fi in zip(w, f1))
        assert pair4(a, w) == 0
        lam2, mu2 = r.project(w)
        lam1 = -pair4(f1, w)
        rebuilt = tuple(
            lam1 * x + lam2 * y + mu2 * z for x, y, z in zip(e1, e2, f2)
        )
        assert rebuilt == w


def test_symplectic_reduce_projection_requires_disjoint():
    r = SymplecticReduction((1, 0, 0, 0))
    with pytest.raises(ValueError):
        r.project((0, 1, 0, 0))


def test_symplectic_reduce_reads_a_sequence_of_four():
    standard = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    a = [1, 0, 0, 0]
    r = SymplecticReduction(a)
    assert r.basis == standard and type(r.basis[0]) is tuple
    a[0] = 2
    assert r.basis == standard
    a = [0, 0, 1, 0]
    r = SymplecticReduction(a)
    a[2] = 5
    assert r.basis == SymplecticReduction((0, 0, 1, 0)).basis and r.basis[0] == (0, 0, 1, 0)
    for a in ((1, 0, 0), (1, 0, 0, 0, 0), [0, 1], ()):
        with pytest.raises(ValueError, match="is not a rank-4 class"):
            SymplecticReduction(a)


def test_symplectic_reduce_errors():
    with pytest.raises(ZeroVectorError):
        SymplecticReduction((0, 0, 0, 0))
    with pytest.raises(NonPrimitiveError):
        SymplecticReduction((2, 0, 2, 0))
    # Entries that compare equal to ints, on the standard shortcut and off
    # it; the zero check comes first and keeps its error.
    for a in ((1.0, 0, 0, 0), (True, 0, 0, 0), (True, False, False, False), (0, 1, 0, True)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SymplecticReduction(a)
    for a in ((0.0, 0, 0, 0), (False, False, False, False)):
        with pytest.raises(ZeroVectorError):
            SymplecticReduction(a)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # Returns (g, u, v) with u*a + v*b = g and g = gcd(a, b) >= 0.
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# sl2_complete as first written, on the extended gcd, kept verbatim as the
# reference for the modular-inverse completion.
def _sl2_complete_reference(v):
    x, y = v
    if x == 0 and y == 0:
        raise ZeroVectorError("cannot complete the zero vector")
    g, u, w = _xgcd(x, y)
    if g != 1:
        raise NonPrimitiveError(f"{v} is not primitive (gcd {g})")
    if y != 0:
        m = abs(y)
        u %= m
        if 2 * u > m:
            u -= m
        w = (1 - u * x) // y
    else:
        u, w = x, 0
    return ((u, w), (-y, x))


def _completion_outcome(complete, v):
    try:
        return complete(v)
    except ValueError as e:
        return type(e), str(e)


def test_sl2_complete_matches_xgcd_reference():
    # The exhaustive box, zero and non-primitive vectors included, so the
    # error types and messages are compared too; then seeded pairs near
    # 2^70, each entry near +-2^70 or small.
    vectors = [(x, y) for x in range(-60, 61) for y in range(-60, 61)]
    rng = random.Random(171)
    big = 2**70

    def entry():
        if rng.random() < 0.7:
            return rng.choice((1, -1)) * big + rng.randint(-1_000, 1_000)
        return rng.randint(-5, 5)

    vectors += [(entry(), entry()) for _ in range(20_000)]
    primitive = 0
    for v in vectors:
        want = _completion_outcome(_sl2_complete_reference, v)
        assert _completion_outcome(sl2_complete, v) == want, v
        if type(want[0]) is tuple:
            assert _complete(*v) == want[0] + want[1], v
            primitive += 1
    assert primitive > 15_000


def test_sl2_complete_refuses_floats():
    # The gcd is math.gcd, which takes only integers; the zero check
    # comes first and keeps its error.
    for v in ((1.0, 0.0), (1.0, 2), (0, 1.0), (3.0, 5.0), (True, False), (0, True), (2, True)):
        with pytest.raises(TypeError):
            sl2_complete(v)
    with pytest.raises(ZeroVectorError):
        sl2_complete((0.0, 0.0))
