import itertools
import math
import random

import pytest

from trisect import (
    S1XS2,
    S3,
    LensSpace,
    FamilyMatch,
    NonPrimitiveError,
    SixTuple,
    ZeroVectorError,
    apply_sigma1,
    apply_sigma1_inverse,
    apply_sigma2,
    apply_sigma2_inverse,
    canonical_form,
    case_diagram,
    surgery_project,
    classify,
    lens_equiv,
    lens_from_pair,
    mat2_apply,
    pair2,
    reflect,
    rotate,
    six_tuple,
    sl2_complete,
)

from conftest import (
    basis_change,
    rand_genus2_diagram,
    rand_primitive_vec2,
    rand_torus_diagram,
    rand_unimodular,
    torus_reference_inputs,
)


def L(p, q):
    return LensSpace.from_pq(p, q)


def tup(aa, bb, cc, ba, cb, ac):
    return SixTuple(aa=aa, bb=bb, cc=cc, ba=ba, cb=cb, ac=ac)


def test_normal_form_validation():
    assert LensSpace(0, 1) == S1XS2
    assert LensSpace(1, 0) == S3
    LensSpace(5, 2)
    for p, q in ((0, 0), (0, 2), (0, -1), (1, 1), (2, 0), (4, 2), (5, 5), (3, -1), (-2, 1)):
        with pytest.raises(ValueError):
            LensSpace(p, q)


def test_lens_space_entries_are_exact_ints():
    # 1.0 and True compare equal to integers, and math.gcd takes True.
    for p, q in (
        (2, True), (True, False), (False, True), (5, 2.0), (5.0, 2), (0, 1.0), ("5", 2), (None, 0)
    ):
        with pytest.raises(ValueError, match=r"is not a lens space normal form"):
            LensSpace(p, q)
    # from_pq refuses them too, for p in {0, +-1}, where no arithmetic
    # would catch them, and beyond.
    for p, q in (
        (1.0, 5), (-1.0, 3), (0.0, 1.0), (0, True), (True, 0), (0, 1.0), (-1, 2.0),
        (2.0, 1), (5, 2.0), (2, True), (True, False), (-3, True), ("5", 2), (None, 0),
    ):
        with pytest.raises(ValueError, match=r"is not a lens space \(p and q must be ints\)"):
            L(p, q)


def test_from_pq_normalization():
    assert L(-2, 1) == LensSpace(2, 1)
    assert L(0, -1) == S1XS2
    assert L(9, -4) == LensSpace(9, 5)
    assert L(1, 7) == S3
    assert L(-1, 3) == S3
    assert L(7, 10) == LensSpace(7, 3)
    assert L(5, -13) == LensSpace(5, 2)
    with pytest.raises(ValueError):
        L(0, 2)
    with pytest.raises(ValueError):
        L(4, 2)


def test_display_and_flags():
    assert str(S3) == "S3" and S3.is_s3 and not S3.is_s1xs2
    assert str(S1XS2) == "S1xS2" and S1XS2.is_s1xs2
    assert str(LensSpace(9, 4)) == "L(9,4)"
    assert LensSpace(9, 4).mirror() == LensSpace(9, 5)
    assert S3.mirror() == S3 and S1XS2.mirror() == S1XS2
    for p in range(2, 30):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert LensSpace(p, q).mirror().mirror() == LensSpace(p, q)


def test_lens_equiv_exhaustive_partition():
    # For each order p the unoriented class of q is {q, p-q, q^-1, p-q^-1}
    # and the oriented class drops the negations; check every pair.
    for p in range(2, 51):
        units = [q for q in range(1, p) if math.gcd(p, q) == 1]
        for q in units:
            inv = pow(q, -1, p)
            unor = {q, p - q, inv, (p - inv) % p}
            ori = {q, inv}
            for q2 in units:
                assert lens_equiv(LensSpace(p, q), LensSpace(p, q2)) == (q2 in unor)
                assert lens_equiv(
                    LensSpace(p, q), LensSpace(p, q2), oriented=True
                ) == (q2 in ori)
    assert lens_equiv(S3, S3) and lens_equiv(S1XS2, S1XS2)
    assert not lens_equiv(S3, S1XS2)
    assert not lens_equiv(LensSpace(4, 1), LensSpace(8, 1))
    assert not lens_equiv(S3, LensSpace(2, 1))


def test_lens_from_pair_frozen_values():
    assert lens_from_pair((0, 1), (-9, 4)) == LensSpace(9, 4)
    assert lens_from_pair((1, 0), (1, 0)) == S1XS2
    assert lens_from_pair((1, 0), (-1, 0)) == S1XS2
    assert lens_from_pair((1, 0), (0, 1)) == S3
    assert lens_from_pair((0, 1), (4, -1)) == LensSpace(4, 3)
    assert lens_from_pair((2, 1), (0, 1)) == LensSpace(2, 1)
    with pytest.raises(ZeroVectorError):
        lens_from_pair((0, 0), (1, 0))
    with pytest.raises(ZeroVectorError):
        lens_from_pair([0, 0], (1, 0))
    with pytest.raises(ZeroVectorError):
        lens_from_pair((1, 0), [0, 0])
    with pytest.raises(NonPrimitiveError):
        lens_from_pair((2, 0), (0, 1))
    with pytest.raises(NonPrimitiveError):
        lens_from_pair((1, 0), (2, 2))
    # Entries that compare equal to ints; a zero class keeps its error.
    for v, w in (((True, False), (0, 1)), ((1.0, 0), (0, 1)), ((1, 0), (0, 1.0)),
                 ((1, 0), (False, True))):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            lens_from_pair(v, w)
    with pytest.raises(ZeroVectorError):
        lens_from_pair((0.0, 0), (1, 0))
    # Only the zero vector is a ZeroVectorError: falsy entries that are not
    # numbers are refused by type.
    for v, w in (((None, None), (1, 0)), ((1, 0), (None, None))):
        with pytest.raises(TypeError, match="'NoneType' object cannot be interpreted"):
            lens_from_pair(v, w)
    # A class of the wrong length is refused by name.
    for v, w in (((1,), (0, 1)), ((1, 0, 0), (0, 1)), ((1, 0), (0, 1, 0)), ((1, 0), [1])):
        with pytest.raises(ValueError, match="is not a rank-2 class"):
            lens_from_pair(v, w)


def test_lens_from_pair_symmetries():
    rng = random.Random(17)
    for _ in range(2_000):
        v = rand_primitive_vec2(rng, 30)
        w = rand_primitive_vec2(rng, 30)
        lens = lens_from_pair(v, w)
        assert lens_from_pair((-v[0], -v[1]), w) == lens.mirror()
        assert lens_from_pair(v, (-w[0], -w[1])) == lens.mirror()
        swapped = lens_from_pair(w, v)
        if lens.p > 1:
            assert swapped == LensSpace(lens.p, pow(lens.q, -1, lens.p))
        else:
            assert swapped == lens
        assert lens_equiv(lens, swapped, oriented=True)
        m = rand_unimodular(rng)
        assert lens_from_pair(mat2_apply(m, v), mat2_apply(m, w)) == lens


def test_six_tuple_frozen_cases():
    assert six_tuple(case_diagram(1)) == tup(
        S1XS2, S1XS2, S1XS2, S3, S3, S3
    )
    assert six_tuple(case_diagram(2, q=3)) == tup(
        S3, S3, L(4, 3), S1XS2, S3, L(3, 2)
    )
    assert six_tuple(case_diagram(3)) == tup(
        S3, L(9, 4), L(4, 3), L(2, 1), L(5, 4), S3
    )
    assert six_tuple(case_diagram(4)) == tup(
        S1XS2, L(4, 1), L(4, 1), S3, L(3, 1), S3
    )
    assert six_tuple(case_diagram(5, epsilon=1)) == tup(
        S1XS2, S3, S3, S3, L(2, 1), S3
    )
    assert six_tuple(case_diagram(5, epsilon=-1)) == tup(
        S1XS2, S3, S3, S3, S1XS2, S3
    )


def test_reflect_and_rotate():
    t = six_tuple(case_diagram(3))
    assert reflect(t) == tup(S3, L(4, 1), L(9, 5), S3, L(5, 1), L(2, 1))
    assert reflect(reflect(t)) == t
    assert rotate(t) == tup(L(4, 3), S3, L(9, 4), S3, L(2, 1), L(5, 4))
    assert rotate(rotate(rotate(t))) == t
    # reflection conjugates rotation to its inverse
    assert reflect(rotate(t)) == rotate(rotate(reflect(t)))


def test_six_tuple_invariance():
    rng = random.Random(37)
    for _ in range(1_000):
        d = rand_torus_diagram(rng)
        t = six_tuple(d)
        assert six_tuple(basis_change(d, rand_unimodular(rng))) == t
        # canonical form also flips signs, which can mirror single slots
        ct = six_tuple(canonical_form(d)[0])
        for (name, lens), (cname, clens) in zip(t.slots(), ct.slots()):
            assert name == cname
            assert lens_equiv(lens, clens), (name, lens, clens)


def test_moves_act_on_the_six_tuple():
    # sigma2 acts on the six-tuple as rotate twice, its inverse as rotate,
    # and sigma1 fixes the six-tuple of the projection: oracles for the
    # moves that do not go through I(V).
    rng = random.Random(11)
    for _ in range(4_000):
        d = rand_torus_diagram(rng)
        t = six_tuple(d)
        assert six_tuple(apply_sigma2(d)) == rotate(rotate(t)), d
        assert six_tuple(apply_sigma2_inverse(d)) == rotate(t), d
    for _ in range(2_000):
        g = rand_genus2_diagram(rng)
        t = six_tuple(surgery_project(g))
        assert six_tuple(surgery_project(apply_sigma1(g))) == t, g
        assert six_tuple(surgery_project(apply_sigma1_inverse(g))) == t, g


def test_classify_symmetry_images():
    base = six_tuple(case_diagram(2, q=3))
    t = base
    for r in range(3):
        m = classify(t)
        assert (m.family, m.q, m.rotations, m.reflected) == (2, 3, (3 - r) % 3, False)
        t = rotate(t)
    # the reflected family-2 tuple realizes the parameter 2 - q directly
    m = classify(reflect(base))
    assert (m.family, m.q, m.reflected) == (2, -1, False)
    # family 3 reflections need the reflected image
    m = classify(reflect(six_tuple(case_diagram(3))))
    assert (m.family, m.epsilon, m.rotations, m.reflected) == (3, 1, 0, True)


def test_classify_oriented():
    m = classify(six_tuple(case_diagram(2, q=3)), oriented=True)
    assert (m.family, m.q, m.epsilon) == (2, 3, 1)
    # the calibrated family-3 chart matches the mirror parametrization in
    # the oriented reading, and the lower branch matches only unoriented
    m = classify(six_tuple(case_diagram(3)), oriented=True)
    assert (m.family, m.epsilon) == (3, -1)
    assert classify(six_tuple(case_diagram(3, upper=False)), oriented=True) is None
    m = classify(six_tuple(case_diagram(5, epsilon=1)), oriented=True)
    assert (m.family, m.epsilon) == (5, 1)


def test_oriented_flag_must_be_a_bool():
    # bool("no") is True, so a string once gave the oriented answers:
    # epsilon -1 for family 3, and L(5, 1) apart from L(5, 4).
    family3, family1 = six_tuple(case_diagram(3)), six_tuple(case_diagram(1))
    for flag in ("no", "", 0, 1, None):
        for call in (
            lambda: classify(family3, oriented=flag),
            lambda: classify(family1, oriented=flag),
            lambda: lens_equiv(LensSpace(5, 1), LensSpace(5, 4), oriented=flag),
        ):
            with pytest.raises(TypeError, match="oriented must be a bool"):
                call()
    assert classify(family3, oriented=False).epsilon == 1
    assert lens_equiv(LensSpace(5, 1), LensSpace(5, 4), oriented=False)


def test_classify_no_match():
    assert classify(tup(S3, S3, S3, S3, S3, S3)) is None
    seven = LensSpace(7, 1)
    assert classify(tup(seven, seven, seven, seven, seven, seven)) is None


def test_case_diagram_argument_errors():
    with pytest.raises(ValueError):
        case_diagram(6)
    with pytest.raises(ValueError):
        case_diagram(2)
    with pytest.raises(ValueError):
        case_diagram(4, eps2=0)
    with pytest.raises(ValueError):
        case_diagram(5, epsilon=2)
    # Arguments that would build a diagram of non-int classes or sign.
    for family, kwargs in (
        (2, {"q": 1.5}), (2, {"q": 3.0}), (2, {"q": True}), (2, {"q": "3"}),
        (1, {"sign": 2}), (3, {"sign": 1.0}), (3, {"sign": True}), (2, {"q": 3, "sign": 0}),
        (4, {"eps2": 1.0}), (4, {"eps2": True}), (5, {"epsilon": 1.0}),
    ):
        with pytest.raises(ValueError):
            case_diagram(family, **kwargs)
    # Only family 2 takes q; any other family refuses it, even an int.
    for family, q in ((1, 0), (3, 1.5), (3, 3), (4, True), (5, 0)):
        with pytest.raises(ValueError, match="only family 2 takes a parameter q"):
            case_diagram(family, q=q)
    # A family or an upper that only compares equal to an accepted value,
    # or is merely truthy, is refused.
    for family in (True, False, 3.0, "3", None, 0, 6):
        with pytest.raises(ValueError, match=f"^no family {family}$"):
            case_diagram(family)
    for upper in ("no", 0, 1, None, 1.0):
        with pytest.raises(TypeError, match=f"^upper must be a bool, not {type(upper).__name__}$"):
            case_diagram(3, upper=upper)
    assert case_diagram(3, upper=False) != case_diagram(3, upper=True)
    assert case_diagram(1, sign=-1).sign == -1


def test_six_tuple_matches_pair_table():
    # spot-check the slot recipe on a diagram with every pairing distinct
    d = case_diagram(3)
    pull = d.monodromy.inverse_apply
    t = six_tuple(d)
    assert t.aa == lens_from_pair(d.a2, pull(d.a2))
    assert t.cb == lens_from_pair(d.c2, d.b2)
    assert t.ba == lens_from_pair(d.b2, pull(d.a2))
    assert abs(pair2(d.b2, pull(d.b2))) == t.bb.p


# References: the per-slot lens recipe, the set-based lens comparison and
# the family matcher on SixTuple objects, as first written.  They build
# on sl2_complete, LensSpace.from_pq, reflect and rotate only.
def _lens_reference(v, w):
    v0, v1 = v
    w0, w1 = w
    p = abs(v0 * w1 - v1 * w0)
    if p == 0:
        return S1XS2
    if p == 1:
        return S3
    u0, u1 = sl2_complete(v)[0]
    return LensSpace(p, (u0 * w0 + u1 * w1) % p)


def _six_tuple_reference(d):
    """Reference six-tuple: the slot recipe, one completion per slot."""
    pull = d.monodromy.inverse_apply
    a, b, c = d.a2, d.b2, d.c2
    pa, pb, pc = pull(a), pull(b), pull(c)
    return SixTuple(
        aa=_lens_reference(a, pa),
        bb=_lens_reference(b, pb),
        cc=_lens_reference(c, pc),
        ba=_lens_reference(b, pa),
        cb=_lens_reference(c, b),
        ac=_lens_reference(a, pc),
    )


def _lens_equiv_reference(l1, l2, oriented=False):
    if l1.p != l2.p:
        return False
    p = l1.p
    if p <= 1:
        return True
    allowed = {l2.q, pow(l2.q, -1, p)}
    if not oriented:
        allowed |= {(p - q) % p for q in list(allowed)}
    return l1.q in allowed


def _eq(l, p, q, oriented):
    return _lens_equiv_reference(l, LensSpace.from_pq(p, q), oriented)


def _match_family(t, family, oriented):
    if family == 1:
        if (
            t.aa.is_s1xs2
            and t.bb.is_s1xs2
            and t.cc.is_s1xs2
            and t.ba.is_s3
            and t.cb.is_s3
            and t.ac.is_s3
        ):
            return (None, None)
        return None
    if family == 2:
        if not (t.aa.is_s3 and t.bb.is_s3 and t.ba.is_s1xs2):
            return None
        root = math.isqrt(t.cc.p)
        if root * root != t.cc.p or root == 0:
            return None
        for q in (1 + root, 1 - root):
            for eps in (1, -1):
                if (
                    _eq(t.cc, (q - 1) ** 2, eps * q, oriented)
                    and _eq(t.cb, q - 2, eps, oriented)
                    and _eq(t.ac, q, -eps, oriented)
                ):
                    return (q, eps)
        return None
    if family == 3:
        for eps in (1, -1):
            if (
                t.aa.is_s3
                and _eq(t.bb, 9, 2 * eps, oriented)
                and _eq(t.cc, 4, eps, oriented)
                and _eq(t.ba, 2, 1, oriented)
                and _eq(t.cb, 5, eps, oriented)
                and t.ac.is_s3
            ):
                return (None, eps)
        return None
    if family == 4:
        for eps in (1, -1):
            if (
                t.aa.is_s1xs2
                and _eq(t.bb, 4, 1, oriented)
                and _eq(t.cc, 4, 1, oriented)
                and t.ba.is_s3
                and _eq(t.cb, 4 + eps, 1, oriented)
                and t.ac.is_s3
            ):
                return (None, eps)
        return None
    if family == 5:
        for eps in (1, -1):
            if (
                t.aa.is_s1xs2
                and t.bb.is_s3
                and t.cc.is_s3
                and t.ba.is_s3
                and _eq(t.cb, 1 + eps, 1, oriented)
                and t.ac.is_s3
            ):
                return (None, eps)
        return None
    raise ValueError(f"no family {family}")


def _classify_reference(t, oriented=False):
    """Reference classification: the full symmetry search, no prefilter."""
    images = []
    for reflected in (False, True):
        img = reflect(t) if reflected else t
        for r in (0, 1, 2):
            images.append((reflected, r, img))
            img = rotate(img)
    for family in (1, 2, 3, 4, 5):
        for reflected, r, img in images:
            hit = _match_family(img, family, oriented)
            if hit is not None:
                q, eps = hit
                return FamilyMatch(
                    family=family, q=q, epsilon=eps, rotations=r, reflected=reflected
                )
    return None


def test_six_tuple_matches_reference():
    for d in torus_reference_inputs():
        assert six_tuple(d) == _six_tuple_reference(d), d


def test_six_tuple_identity_closed_form():
    # Under identity monodromy six_tuple answers in closed form; the
    # per-slot reference computes every slot.
    rng = random.Random(4071)
    inputs = [case_diagram(1), case_diagram(1, sign=-1)]
    while len(inputs) < 500:
        d = rand_torus_diagram(rng)
        if d.monodromy.is_identity:
            inputs.append(d)
    lifts = 0
    while lifts < 300:
        g = rand_genus2_diagram(rng, mixes=4)
        if g.exponent == 0:
            inputs.append(surgery_project(g))
            lifts += 1
    want = SixTuple(S1XS2, S1XS2, S1XS2, S3, S3, S3)
    for d in inputs:
        assert d.monodromy.is_identity
        assert six_tuple(d) == _six_tuple_reference(d) == want, d


def test_lens_equiv_matches_reference():
    rng = random.Random(4051)
    spaces = [S3, S1XS2]
    for p in list(range(2, 40)) + [2**70 + 1, 2**89 - 1]:
        for _ in range(6):
            q = rng.randrange(1, p)
            if math.gcd(p, q) == 1:
                inv = pow(q, -1, p)
                spaces += [LensSpace(p, x) for x in (q, inv, p - q, p - inv)]
    for l1 in spaces:
        for l2 in spaces:
            if l1.p != l2.p and rng.random() < 0.9:
                continue
            for oriented in (False, True):
                assert lens_equiv(l1, l2, oriented) == _lens_equiv_reference(
                    l1, l2, oriented
                ), (l1, l2, oriented)


def test_classify_matches_reference():
    matched = 0
    for d in torus_reference_inputs():
        t = six_tuple(d)
        # every symmetry image, so that matches reach every branch
        images = [t, rotate(t), rotate(rotate(t))]
        images += [reflect(img) for img in images]
        for img in images:
            for oriented in (False, True):
                want = _classify_reference(img, oriented)
                assert classify(img, oriented) == want, (d, img, oriented)
                matched += want is not None
    assert matched > 1_000


def test_classify_family1_closed_form():
    # Every arrangement of S^1 x S^2 and S^3 over the six slots, among them
    # the 20 with three of each: family 1 matches exactly its own
    # arrangement, as the reference's search finds.
    family1 = FamilyMatch(1, None, None, 0, False)
    found = []
    for spaces in itertools.product((S1XS2, S3), repeat=6):
        t = SixTuple(*spaces)
        for oriented in (False, True):
            want = _classify_reference(t, oriented)
            assert classify(t, oriented) == want, (spaces, oriented)
            if want is not None and want.family == 1:
                found.append((spaces, oriented, want))
    family1_slots = (S1XS2, S1XS2, S1XS2, S3, S3, S3)
    assert found == [(family1_slots, False, family1), (family1_slots, True, family1)]
