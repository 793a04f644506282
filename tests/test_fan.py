import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from chain_runs import chain_runs
from sftoric.disks import enumerate_admissible
from sftoric.errors import (
    NotComplete,
    NotCounterclockwise,
    NotPrimitive,
    NotSmooth,
    ParameterMismatch,
)
from sftoric.fan import (
    F0_RAYS,
    F2_RAYS,
    P2_RAYS,
    Fan,
    classify_semi_fano,
    fans_isomorphic,
)
from sftoric.surfaces import BUNDLED, load_bundled

X1_RAYS = ((1, 0), (0, 1), (-1, -2), (0, -1))
X3_RAYS = ((1, 0), (0, 1), (-1, -1), (0, -1), (1, -1), (2, -1))
F3_RAYS = ((1, 0), (0, 1), (-1, -3), (0, -1))


def random_fan(rng, blowups=4):
    """A valid (not necessarily semi-Fano) fan built by random blowups."""
    fan = Fan(rng.choice((P2_RAYS, F0_RAYS, F2_RAYS)))
    for _ in range(rng.randrange(blowups + 1)):
        fan = fan.blowup(rng.randrange(1, fan.d + 1))
    return fan


def test_validate_examples():
    assert Fan(P2_RAYS).rays == P2_RAYS
    assert Fan(X1_RAYS).d == 4
    with pytest.raises(NotPrimitive):
        Fan([(1, 0), (0, 2), (-1, -1)])
    # a ray with a third entry is refused, not cut to its first two
    with pytest.raises(NotPrimitive, match=r"^ray \(1, 0, 5\) is not a primitive vector of Z\^2$"):
        Fan([(1, 0, 5), (0, 1), (-1, -1)])
    # a ray that is not a sequence is refused with the same error
    with pytest.raises(NotPrimitive, match="^ray 1 is not a sequence of exact integers$"):
        Fan([1, 2, 3])
    # bytes iterate as ints, but a ray given as text or bytes is refused too
    for ray in (b"\x01\x00", bytearray(b"\x01\x00"), memoryview(b"\x01\x00"), "10"):
        with pytest.raises(NotPrimitive, match="^ray .* is not a sequence of exact integers$"):
            Fan([ray, (0, 1), (-1, -1)])
    # so are rays that are not a sequence: a set has no cyclic order
    for rays in (5, set(F0_RAYS), dict.fromkeys(F0_RAYS)):
        with pytest.raises(NotPrimitive, match="^rays .* are not a sequence$"):
            Fan(rays)
    with pytest.raises(NotCounterclockwise):
        Fan([(0, 1), (1, 0), (-1, -1)])
    with pytest.raises(NotSmooth):
        Fan([(1, 0), (1, 2), (-1, -1)])
    with pytest.raises(NotComplete):
        Fan([(1, 0), (1, 1)])
    # dets are +1 around each step but the angles never wrap: not a fan
    with pytest.raises((NotComplete, NotCounterclockwise)):
        Fan([(1, 0), (1, 1), (1, 2)])
    # every step has det +1, but the rays go round w times: 3d + sum D^2 = 12 w
    with pytest.raises(NotComplete, match=r"^ray angles wrap 2 times, expected once$"):
        Fan(P2_RAYS * 2)
    with pytest.raises(NotComplete, match=r"^ray angles wrap 3 times, expected once$"):
        Fan(F0_RAYS * 3)


def test_fan_copy_and_pickle_round_trip():
    for rays in (P2_RAYS, F0_RAYS, X3_RAYS):
        fan = Fan(rays)
        fan.canonical_form()
        disks = enumerate_admissible(fan)  # a filled memo copies as an empty one
        for twin in (copy.copy(fan), copy.deepcopy(fan), pickle.loads(pickle.dumps(fan))):
            assert type(twin) is Fan and twin == fan and twin.rays == rays
            assert twin.canonical_form() == fan.canonical_form()
            assert enumerate_admissible(twin) == disks
            with pytest.raises(AttributeError, match="Fan is immutable"):
                twin.rays = ()


def test_self_intersection_examples():
    p2 = Fan(P2_RAYS)
    assert [p2.self_intersection(i) for i in (1, 2, 3)] == [1, 1, 1]
    assert Fan(X1_RAYS).self_intersection(4) == -2
    f0 = Fan(F0_RAYS)
    assert set(f0.self_intersections()) == {0}


def test_self_intersection_defining_relation():
    # v_{i-1} + v_{i+1} + D_i^2 v_i = 0 for every ray of random valid fans
    rng = random.Random(7)
    for _ in range(60):
        fan = random_fan(rng)
        for i in range(1, fan.d + 1):
            a, v, b = fan.ray(i - 1), fan.ray(i), fan.ray(i + 1)
            s = fan.self_intersection(i)
            assert (a[0] + b[0] + s * v[0], a[1] + b[1] + s * v[1]) == (0, 0)


def test_noether_sum_on_bundled(bundled):
    for name, (fan, _) in bundled.items():
        assert sum(fan.self_intersections()) == 12 - 3 * fan.d, name


def test_is_semi_fano():
    assert Fan(X1_RAYS).is_semi_fano()
    assert not Fan(F3_RAYS).is_semi_fano()
    assert Fan(P2_RAYS).is_semi_fano()


def test_minus_two_chains_examples():
    x3 = Fan(X3_RAYS)
    assert x3.minus_two_chains() == ((1,), (4, 5))
    assert x3.minus_two_chains() is x3.minus_two_chains()  # stored, not copied
    assert Fan(P2_RAYS).minus_two_chains() == ()
    assert Fan(X1_RAYS).minus_two_chains() == ((4,),)


def test_minus_two_chains_wrap_around():
    # rotate X3 so its (4,5)-chain starts the list, then so it crosses the
    # index seam, where the tuple keeps the cyclic order (6, 1)
    assert Fan(X3_RAYS[3:] + X3_RAYS[:3]).minus_two_chains() == ((1, 2), (4,))
    assert Fan(X3_RAYS[4:] + X3_RAYS[:4]).minus_two_chains() == ((3,), (6, 1))


def chain_comparison_fans() -> list[Fan]:
    """Every rotation and reflection of the 16 semi-Fano classes, the bundled
    fans and 300 seeded blow-up words from P^2, many of them not semi-Fano."""
    fans = []
    for fan in classify_semi_fano(9):
        reflected = tuple((y, x) for x, y in reversed(fan.rays))
        for rays in (fan.rays, reflected):
            fans += [Fan(rays[r:] + rays[:r]) for r in range(len(rays))]
    fans += [load_bundled(name)[0] for name in BUNDLED]
    rng = random.Random(28)
    for _ in range(300):
        fan = Fan(P2_RAYS)
        for _ in range(rng.randrange(1, 7)):
            fan = fan.blowup(rng.randrange(1, fan.d + 1))
        fans.append(fan)
    return fans


def test_minus_two_chains_match_the_cyclic_runs():
    fans = chain_comparison_fans()
    assert len(fans) == 192 + 16 + 300
    assert sum(not fan.is_semi_fano() for fan in fans) == 123
    for fan in fans:
        assert fan.minus_two_chains() == chain_runs(fan), fan


def test_minus_two_chain_geometry(bundled):
    # midpoint relation and collinear heads along every chain
    for name, (fan, _) in bundled.items():
        for idx in fan.minus_two_chains():
            for j in range(1, len(idx) - 1):
                a, v, b = fan.ray(idx[j - 1]), fan.ray(idx[j]), fan.ray(idx[j + 1])
                assert (a[0] + b[0], a[1] + b[1]) == (2 * v[0], 2 * v[1]), name
            heads = [fan.ray(i) for i in (idx[0] - 1,) + idx + (idx[-1] + 1,)]
            for a, b, c in zip(heads, heads[1:], heads[2:]):
                u = (b[0] - a[0], b[1] - a[1])
                w = (c[0] - b[0], c[1] - b[1])
                assert u[0] * w[1] - u[1] * w[0] == 0, name


def test_blowup_examples():
    p2 = Fan(P2_RAYS)
    f1 = p2.blowup(1)
    assert f1.rays == ((1, 0), (1, 1), (0, 1), (-1, -1))
    assert f1.d == p2.d + 1
    assert fans_isomorphic(f1, Fan(((1, 0), (0, 1), (-1, -1), (0, -1))))
    f0 = Fan(F0_RAYS)
    up = f0.blowup(1)
    assert up.ray(2) == (1, 1) and up.self_intersection(2) == -1


def test_ray_accessors_take_exact_integer_indices():
    x3 = Fan(X3_RAYS)
    for accessor in (x3.ray, x3.self_intersection):
        for i in (1.5, "1", 1.0, None, Fraction(1, 2)):
            with pytest.raises(ParameterMismatch, match="^ray index"):
                accessor(i)
        # integral Fractions are integers, and the index stays cyclic
        assert accessor(Fraction(2)) == accessor(2) == accessor(2 + x3.d)


def test_blowup_index_is_an_exact_integer():
    p2 = Fan(P2_RAYS)
    for i in ("1", 1.5, None):
        with pytest.raises(ParameterMismatch, match="^blowup index"):
            p2.blowup(i)
    # integral Fractions are integers, and the index stays cyclic
    assert p2.blowup(Fraction(2)) == p2.blowup(2)
    assert p2.blowup(0) == p2.blowup(3) and p2.blowup(4) == p2.blowup(1)


def test_blowup_self_intersection_bookkeeping():
    rng = random.Random(11)
    for _ in range(40):
        fan = random_fan(rng)
        i = rng.randrange(1, fan.d + 1)
        up = fan.blowup(i)
        before = fan.self_intersections()
        after = up.self_intersections()
        assert after[i % up.d] == -1  # the new ray sits at position i+1
        # neighbours drop by exactly one, everything else is unchanged
        assert after[(i - 1) % up.d] == before[(i - 1) % fan.d] - 1
        assert after[(i + 1) % up.d] == before[i % fan.d] - 1
        rest_before = [before[(i + 1 + t) % fan.d] for t in range(fan.d - 2)]
        rest_after = [after[(i + 2 + t) % up.d] for t in range(fan.d - 2)]
        assert rest_before == rest_after


def test_fans_isomorphic_examples():
    p2 = Fan(P2_RAYS)
    assert fans_isomorphic(p2, Fan(P2_RAYS[1:] + P2_RAYS[:1]))
    assert fans_isomorphic(Fan(X1_RAYS), Fan(F2_RAYS))
    assert not fans_isomorphic(Fan(F0_RAYS), Fan(F2_RAYS))
    # orientation reversal is allowed
    mirrored = tuple((v[1], v[0]) for v in reversed(X3_RAYS))
    assert fans_isomorphic(Fan(X3_RAYS), Fan(mirrored))


def test_classify_small():
    assert len(classify_semi_fano(3)) == 1
    with pytest.raises(NotComplete, match="max_rays must be at least 3"):
        classify_semi_fano(2)
    for bad in ("9", 9.0, Fraction(19, 2), None):  # the bound is an exact integer
        with pytest.raises(ParameterMismatch, match="^max_rays"):
            classify_semi_fano(bad)
    four = classify_semi_fano(4)
    assert len(four) == 4
    assert classify_semi_fano(Fraction(4)) == four
    # oracle: every 4-ray complete smooth fan is some F_m (normalize the first
    # two rays to (1,0),(0,1); then v3=(-1,m), v4=(x,-1) with m*x = 0), so the
    # semi-Fano ones up to isomorphism are F_0, F_1, F_2 plus P^2 from level 3
    hirzebruch = []
    for m in range(-6, 7):
        fan = Fan(((1, 0), (0, 1), (-1, m), (0, -1)))
        if fan.is_semi_fano() and not any(fans_isomorphic(fan, g) for g in hirzebruch):
            hirzebruch.append(fan)
    assert len(hirzebruch) == 3
    for fan in hirzebruch:
        assert any(fans_isomorphic(fan, g) for g in four)


def test_classify_past_nine_rays():
    # no semi-Fano toric surface has more than nine rays, so the list stops there
    counts = [len(classify_semi_fano(n)) for n in range(3, 13)]
    assert counts == [1, 4, 6, 10, 12, 15, 16, 16, 16, 16]
    assert [f.rays for f in classify_semi_fano(12)] == [f.rays for f in classify_semi_fano(9)]


def test_classify_full(bundled):
    fans = classify_semi_fano(9)
    assert len(fans) == 16
    assert sum(1 for f in fans if f.is_fano()) == 5
    non_fano = [f for f in fans if not f.is_fano()]
    for name in ("X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11"):
        bf = bundled[name][0]
        assert sum(1 for f in non_fano if fans_isomorphic(bf, f)) == 1, name
    # no two classes are isomorphic
    for a, b in combinations(fans, 2):
        assert not fans_isomorphic(a, b)
