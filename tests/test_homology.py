import random
from fractions import Fraction
from itertools import combinations

import pytest

from sftoric.errors import ParameterMismatch
from sftoric.fan import Fan, P2_RAYS
from sftoric.homology import (
    chern_number,
    fiber_classes,
    intersection,
    linear_relations,
    pair,
    profile,
    reduce_class,
    solve_linear,
    unit_vector,
)

from dual_basis import dual_basis


def test_intersection_examples(bundled):
    x3 = bundled["X3"][0]
    assert intersection(x3, 2, 4) == 0
    assert intersection(x3, 3, 4) == 1
    assert intersection(x3, 1, 1) == -2
    assert intersection(x3, 6, 1) == 1  # cyclic adjacency


def test_chern_examples(bundled):
    x3 = bundled["X3"][0]
    assert chern_number(x3, (0, 0, 1, 0, 0, 0)) == 2
    assert chern_number(x3, (0, 0, 1, 1, 0, 0)) == 2
    assert chern_number(x3, (1, 0, 0, 0, 1, 1)) == 1
    assert chern_number(x3, (1, 0, 0, 1, 1, 1)) == 1
    # adjunction: c1(D_k) = 2 + D_k^2, so (-2)-divisors have Chern number zero
    for name, (fan, _) in bundled.items():
        for k in range(1, fan.d + 1):
            ck = chern_number(fan, unit_vector(fan.d, k))
            assert ck == 2 + fan.self_intersection(k), name


def test_linear_relations(bundled):
    x3 = bundled["X3"][0]
    l1, l2 = linear_relations(x3)
    assert l1 == (1, 0, -1, 0, 1, 2)
    assert l2 == (0, 1, -1, -1, -1, -1)
    p2 = Fan(P2_RAYS)
    m1, m2 = linear_relations(p2)
    assert m1 == (1, 0, -1) and m2 == (0, 1, -1)
    # the relations pair to zero with every divisor class
    for name, (fan, _) in bundled.items():
        for rel in linear_relations(fan):
            assert profile(fan, rel) == (0,) * fan.d, name


def test_dual_bases_gram(bundled):
    # every coordinate basis of H^2 that the intersection form makes
    # nondegenerate has a dual basis with pair(D_a, D^b) = delta_ab
    for name, (fan, _) in bundled.items():
        if fan.d < 4:
            continue
        found = 0
        for subset in combinations(range(1, fan.d + 1), fan.d - 2):
            dual = dual_basis(fan, subset)
            if dual is None:
                continue
            found += 1
            for a, i in enumerate(subset):
                for b, db in enumerate(dual):
                    assert pair(fan, unit_vector(fan.d, i), db) == (1 if a == b else 0), (name, subset)
        assert found, name


def test_dual_bases_paper_choice(bundled):
    x3 = bundled["X3"][0]
    dual = dual_basis(x3, (1, 4, 5, 6))
    paper_dual = [
        (0, 1, 0, 0, 0, 0),  # D2
        (0, 0, 1, 0, 0, 0),  # D3
        (0, 0, 2, 1, 0, 0),  # D4 + 2 D3
        (1, 2, 0, 0, 0, 0),  # D1 + 2 D2
    ]
    assert len(dual) == len(paper_dual)
    for mine, theirs in zip(dual, paper_dual):
        assert reduce_class(x3, mine) == reduce_class(x3, theirs)


def test_dual_bases_f0(bundled):
    f0 = bundled["F0"][0]
    dual = dual_basis(f0, (1, 2))
    assert reduce_class(f0, dual[0]) == reduce_class(f0, unit_vector(4, 2))
    assert reduce_class(f0, dual[1]) == reduce_class(f0, unit_vector(4, 1))


def test_fiber_classes_examples(bundled):
    f0 = bundled["F0"][0]
    fibers = dict(fiber_classes(f0))
    assert set(fibers) == {(1, 3), (2, 4)}
    assert reduce_class(f0, fibers[(2, 4)]) == reduce_class(f0, unit_vector(4, 1))
    x3 = bundled["X3"][0]
    fibers = dict(fiber_classes(x3))
    assert set(fibers) == {(2, 4)}
    assert reduce_class(x3, fibers[(2, 4)]) == reduce_class(x3, unit_vector(6, 3))
    assert fiber_classes(Fan(P2_RAYS)) == []


def test_fiber_class_pairing_profile(bundled):
    for name, (fan, _) in bundled.items():
        for (a, b), f in fiber_classes(fan):
            prof = profile(fan, f)
            expected = tuple(1 if k in (a, b) else 0 for k in range(1, fan.d + 1))
            assert prof == expected, name
            assert pair(fan, f, f) == 0, name
            assert chern_number(fan, f) == 2, name
            assert all(m >= 0 for m in f), name


def test_reduce_class_properties(bundled):
    rng = random.Random(5)
    for name, (fan, _) in bundled.items():
        l1, l2 = linear_relations(fan)
        for _ in range(20):
            x = tuple(rng.randrange(-3, 4) for _ in range(fan.d))
            shifted = tuple(
                a + 2 * b - c for a, b, c in zip(x, l1, l2)
            )
            r = reduce_class(fan, x)
            assert r == reduce_class(fan, shifted), name
            # one relation: the Gram kernel is span(L_1, L_2), so the
            # canonical representative and the pairing profile agree
            y = tuple(rng.randrange(-3, 4) for _ in range(fan.d))
            for other in (shifted, r, y, tuple(a + b for a, b in zip(y, l1))):
                same = profile(fan, x) == profile(fan, other)
                equal = reduce_class(fan, x) == reduce_class(fan, other)
                assert equal == same, name
            assert profile(fan, x) == profile(fan, r), name
            assert r[-2:] == (0, 0), name
            assert all(type(v) is int for v in r), name
    f0 = bundled["F0"][0]
    for x in ((1, 0, 0), (1, 0, 0, 0, 1)):
        with pytest.raises(ParameterMismatch):
            reduce_class(f0, x)


def test_class_vectors_must_have_one_entry_per_ray(bundled):
    # F0 has four rays: a short or a long vector is an error, not a pairing
    f0 = bundled["F0"][0]
    with pytest.raises(ParameterMismatch):
        pair(f0, (1, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ParameterMismatch):
        pair(f0, (0, 1, 0, 0), (1, 0, 0, 0, 1))
    for x in ((1, 0, 0), (1, 0, 0, 0, 1)):
        with pytest.raises(ParameterMismatch):
            profile(f0, x)
        with pytest.raises(ParameterMismatch):
            chern_number(f0, x)
    # a vector that is not a sequence is refused before its length is read;
    # a set of four entries would be paired in no fixed order, and text or
    # bytes of four characters is no class vector either
    unit = b"\x01\x00\x00\x00"
    for x in (5, {1, 2, 3, 4}, dict.fromkeys(range(4), 1),
              "1000", unit, bytearray(unit), memoryview(unit)):
        for call in (
            lambda: pair(f0, x, (1, 0, 0, 0)),
            lambda: pair(f0, (1, 0, 0, 0), x),
            lambda: profile(f0, x),
            lambda: chern_number(f0, x),
            lambda: reduce_class(f0, x),
        ):
            with pytest.raises(ParameterMismatch, match="is not a sequence$"):
                call()
    assert pair(f0, (1, 0, 0, 0), (0, 1, 0, 0)) == 1
    assert profile(f0, (1, 0, 0, 0)) == (0, 1, 0, 1)


def test_solve_linear_rectangular_rank_deficient():
    # rows 1 and 2 are dependent: rank 2 of 3 rows, two unknowns
    matrix = [[1, 2], [2, 4], [0, Fraction(1, 3)]]
    rhs = [[1, 1, 0], [2, 3, 0], [1, 0, 0]]
    rank, sols = solve_linear(matrix, rhs)
    assert rank == 2
    assert sols[0] == [Fraction(-5), Fraction(3)]
    assert sols[1] is None  # 2 * (row 1) != row 2 on this column
    assert sols[2] == [0, 0]
    # a free unknown is set to zero
    rank, sols = solve_linear([[1, 1, 1]], [[Fraction(3, 2)]])
    assert rank == 1 and sols == [[Fraction(3, 2), 0, 0]]
    # no right-hand side: the rank alone
    assert solve_linear([[0, 0], [0, 0]], [(), ()]) == (0, [])


@pytest.mark.parametrize(
    "matrix, rhs",
    [
        ([], []),  # no rows
        ([[1, 0], [1]], [[1], [1]]),  # ragged M
        ([[1, 0], [0, 1]], [[1], [1, 2]]),  # ragged B
        ([[1, 0], [0, 1]], [[1]]),  # B short of a row
        ([[1, 0]], [[1], [5]]),  # B with a row more than M, once cut short
        (5, 5),  # neither M nor B a sequence
        ([[1]], 5),  # B not a sequence
    ],
)
def test_solve_linear_refuses_a_system_of_the_wrong_shape(matrix, rhs):
    with pytest.raises(ParameterMismatch, match="rows in M and in B"):
        solve_linear(matrix, rhs)
