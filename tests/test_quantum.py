import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from presentations import GENERATORS, presentation
from sftoric import disks, quantum
from sftoric.disks import DiskClass, open_gw
from sftoric.errors import IsP2, NotPrimitivePair, NotSemiFano, ParameterMismatch, WrongChern
from sftoric.fan import Fan, P2_RAYS, classify_semi_fano
from sftoric.homology import (
    chern_number,
    fiber_classes,
    linear_relations,
    pair,
    profile,
    reduce_class,
    unit_vector,
)
from sftoric.kahler import KahlerSpec
from sftoric.laurent import QPoly
from sftoric.potential import superpotential
from sftoric.verifier import default_q_sample, verify_homomorphism
from sftoric.surfaces import BUNDLED, bundled_text, load_bundled, parse_surface
from sftoric.quantum import (
    QHElement,
    c1_one_classes,
    c1_two_classes,
    gw_c1_1,
    gw_c1_2_point,
    primitive_pairs,
    quantum_product,
    quantum_sr_relations,
)

from dual_basis import dual_basis
from fiber_shapes import fiber_shapes
from jac_products import jac_products
from window_scan import window_scan


def qm(k, *exps_list):
    out = QPoly.zero(k)
    for item in exps_list:
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], int) and isinstance(item[1], tuple):
            c, exps = item
        else:
            c, exps = 1, item
        out = out + QPoly.monomial(k, exps, c)
    return out


def test_primitive_pairs_examples(bundled):
    assert primitive_pairs(bundled["F0"][0]) == [(1, 3), (2, 4)]
    assert primitive_pairs(bundled["X1"][0]) == [(1, 3), (2, 4)]
    assert len(primitive_pairs(bundled["X3"][0])) == 9
    with pytest.raises(IsP2):
        primitive_pairs(Fan(P2_RAYS))


def test_gw_c1_2_examples(bundled):
    x3 = bundled["X3"][0]
    assert gw_c1_2_point(x3, (0, 0, 1, 0, 0, 0)) == 1
    assert gw_c1_2_point(x3, (0, 0, 1, 1, 0, 0)) == 1
    assert gw_c1_2_point(x3, (0, 0, 1, 0, 1, 0)) == 0
    assert gw_c1_2_point(x3, (0, 0, 1, 1, 1, 0)) == 1
    assert gw_c1_2_point(x3, (0, 0, 1, 2, 1, 0)) == 0  # 2 D4 violates the endpoint
    with pytest.raises(WrongChern):
        gw_c1_2_point(x3, (0, 0, 2, 0, 0, 0))


def test_gw_c1_2_two_sided(bundled):
    # X8 pair {1,3}: the fiber D2 meets the singleton chains {1} and {3}
    x8 = bundled["X8"][0]
    assert gw_c1_2_point(x8, (1, 1, 1, 0, 0, 0, 0, 0)) == 1
    assert gw_c1_2_point(x8, (0, 1, 1, 0, 0, 0, 0, 0)) == 1
    assert gw_c1_2_point(x8, (1, 1, 0, 0, 0, 0, 0, 0)) == 1
    # multiplicity two on a singleton chain violates the endpoint condition
    assert gw_c1_2_point(x8, (2, 1, 0, 0, 0, 0, 0, 0)) == 0
    assert gw_c1_2_point(x8, (2, 1, 1, 0, 0, 0, 0, 0)) == 0
    # X9 pair {1,4}: fiber D2 + D3 between two singleton chains
    x9 = bundled["X9"][0]
    assert gw_c1_2_point(x9, (1, 1, 1, 1, 0, 0, 0, 0)) == 1
    assert gw_c1_2_point(x9, (0, 1, 1, 0, 0, 0, 0, 0)) == 1


def test_gw_c1_1_examples(bundled):
    x3 = bundled["X3"][0]
    assert gw_c1_1(x3, (1, 0, 0, 0, 1, 1)) == 1
    assert gw_c1_1(x3, (0, 0, 0, 0, 0, 1)) == 1
    assert gw_c1_1(x3, (1, 0, 0, 1, 1, 1)) == 1
    # disconnected support: D1 + D6 are adjacent, D1 + D5 are not
    assert gw_c1_1(x3, (1, 0, 0, 0, 0, 1)) == 1
    with pytest.raises(WrongChern):
        gw_c1_1(x3, (0, 0, 1, 0, 0, 0))


def test_gw_values_are_zero_or_one(bundled):
    rng = random.Random(13)
    for name in ("X3", "X8", "X11"):
        fan = bundled[name][0]
        for _ in range(200):
            alpha = tuple(rng.randrange(3) for _ in range(fan.d))
            c1 = chern_number(fan, alpha)
            if c1 == 2:
                assert gw_c1_2_point(fan, alpha) in (0, 1)
            elif c1 == 1:
                assert gw_c1_1(fan, alpha) in (0, 1)


def test_sphere_counts_depend_on_the_class_only(bundled):
    # every class that counts one, and each of these plus a random (-2)-divisor
    # (most count zero), shifted by random m1 L1 + m2 L2 on all sixteen surfaces
    rng = random.Random(11)
    for name, (fan, _) in bundled.items():
        l1, l2 = linear_relations(fan)
        minus_two = [k for k in range(1, fan.d + 1) if fan.self_intersection(k) == -2]
        for gw, classes in ((gw_c1_2_point, c1_two_classes), (gw_c1_1, c1_one_classes)):
            reps = classes(fan)
            alphas = list(reps)
            for rep in reps if minus_two else ():
                k = rng.choice(minus_two)
                alphas.append(tuple(m + (a == k - 1) for a, m in enumerate(rep)))
            for alpha in alphas:
                n = gw(fan, alpha)
                assert n == 1 or alpha not in reps, (name, alpha)
                for _ in range(2):
                    m1, m2 = rng.randrange(-3, 4), rng.randrange(-3, 4)
                    shifted = tuple(a + m1 * x + m2 * y for a, x, y in zip(alpha, l1, l2))
                    assert gw(fan, shifted) == n, (name, alpha, shifted)


def _rotations_and_reflections():
    # every rotation and reflection of every semi-Fano class with up to nine
    # rays, so (-2)-chains meet the index seam on either side of a (-1)-ray
    fans = []
    for fan in classify_semi_fano(9):
        reflected = tuple((v[1], v[0]) for v in reversed(fan.rays))
        for rays in (fan.rays, reflected):
            fans.extend(Fan(rays[r:] + rays[:r]) for r in range(fan.d))
    assert len(fans) == 192
    return fans


def test_c1_one_classes_match_the_window_scan():
    for fan in _rotations_and_reflections():
        assert c1_one_classes(fan) == window_scan(fan), fan


def test_c1_two_classes_match_the_fiber_shapes():
    for fan in _rotations_and_reflections():
        assert c1_two_classes(fan) == fiber_shapes(fan), fan


def test_enumerated_classes_are_bounded(bundled):
    for name, (fan, _) in bundled.items():
        for rep in c1_two_classes(fan) + c1_one_classes(fan):
            assert all(0 <= m <= fan.d + 2 for m in rep), name


def x3_worked_example(k):
    """D2 * D4 on X3, worked out by hand."""
    scalar = qm(k, (1, 0, 1, 2)) + QPoly.monomial(k, (1, 1, 1, 2), -1)
    # q1q3q4 (D1+D5+D6) - q1q2q3q4 (D1+D4+D5+D6), reduced: coordinates 5, 6
    # are eliminated, leaving q1q3q4(D1+D2-D3-D4) - q1q2q3q4(D1+D2-D3)
    a = qm(k, (1, 0, 1, 1))
    b = qm(k, (1, 1, 1, 1))
    return QHElement(scalar, (a - b, a - b, b - a, -a, QPoly.zero(k), QPoly.zero(k)))


def test_quantum_product_x3_worked_example(bundled):
    fan, spec = bundled["X3"]
    el = quantum_product(fan, spec, 2, 4)
    expected = x3_worked_example(spec.k)
    assert el.scalar == expected.scalar
    assert el.divisor == expected.divisor


def test_quantum_product_reads_its_pair_from_the_stored_relations(bundled, monkeypatch):
    # one product is its entry of the relations stored on the spec, read
    # without a call through quantum_sr_relations
    def refuse(*args):
        raise AssertionError("quantum_product called quantum_sr_relations")

    monkeypatch.setattr(quantum, "quantum_sr_relations", refuse)
    fan, spec = bundled["X3"]
    el = quantum_product(fan, spec, 2, 4)
    assert el == x3_worked_example(spec.k)
    assert el is dict(quantum._relations(spec))[(2, 4)]


def test_curve_classes_are_found_once_per_fan(bundled, monkeypatch):
    # the first call stores the classes on the fan; later products and counts
    # read them there and never enumerate again
    fan, spec = bundled["X3"]
    expected = quantum_product(fan, spec, 2, 4)

    def refuse(fan):
        raise AssertionError("curve classes enumerated again")

    monkeypatch.setattr(quantum, "_cores", refuse)
    assert quantum_product(fan, spec, 2, 4) == expected
    assert dict(quantum_sr_relations(fan, spec))[(2, 4)] == expected
    assert gw_c1_2_point(fan, (0, 0, 1, 1, 1, 0)) == 1
    assert gw_c1_1(fan, (1, 0, 0, 1, 1, 1)) == 1


def test_disk_classes_are_found_once_per_fan(monkeypatch):
    # after one W the admissible classes live on the fan: the potential, the
    # counts and the curve classes built on them never enumerate again
    fan, spec = load_bundled("X3")
    w = superpotential(spec).w

    def refuse(n, p):
        raise AssertionError("disk classes enumerated again")

    monkeypatch.setattr(disks, "_chain_parts", refuse)
    assert superpotential(spec).w == w
    assert open_gw(fan, DiskClass(5, (0, 0, 0, 1, 1, 0))) == 1
    assert quantum_product(fan, spec, 2, 4) == x3_worked_example(spec.k)
    assert gw_c1_2_point(fan, (0, 0, 1, 1, 1, 0)) == 1


def test_products_of_one_surface_store_equal_coefficients_once(bundled):
    # the relations keep one object per equal coefficient polynomial and per
    # equal coefficient tuple, with the values of the single products
    fan, spec = bundled["X11"]
    relations = quantum_sr_relations(fan, spec)
    coeffs = [c for _, el in relations for c in (el.scalar, *el.divisor) if not c.is_zero()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)
    assert len({id(c._coeffs) for c in coeffs}) == len({c._coeffs for c in coeffs})
    for pr, el in relations:
        assert quantum_product(fan, spec, *pr) == el


def test_load_bundled_shares_one_pair_per_name():
    for name in BUNDLED:
        pair = load_bundled(name)
        assert load_bundled(name) is pair, name
        fan, spec = parse_surface(bundled_text(name))
        assert pair[0] == fan and (pair[1].k, pair[1].rows) == (spec.k, spec.rows), name
    # other names, unhashable ones too, are refused with KeyError as before
    for name in ("X12", ["X1"]):
        with pytest.raises(KeyError):
            load_bundled(name)


def test_shared_relations_answer_without_building_a_product(monkeypatch):
    # after one build the shared spec holds its relations: the products, the
    # relations and the report never build a product again, and their values
    # are those of a fresh spec
    def refuse(*args):
        raise AssertionError("a product was built again")

    def values(fan, spec):
        return (
            quantum_sr_relations(fan, spec),
            [quantum_product(fan, spec, j, i) for i, j in primitive_pairs(fan)],
            verify_homomorphism(spec),
        )

    shared, expected = {}, {}
    for name in BUNDLED[1:]:
        shared[name] = load_bundled(name)
        quantum_sr_relations(*shared[name])
        expected[name] = values(*parse_surface(bundled_text(name)))
    monkeypatch.setattr(quantum, "_product", refuse)
    for name, (fan, spec) in shared.items():
        assert values(fan, spec) == expected[name], name


def test_copies_of_a_shared_spec_rebuild_equal_relations():
    fan, spec = load_bundled("X8")
    relations = quantum_sr_relations(fan, spec)
    for twin in (copy.copy(spec), pickle.loads(pickle.dumps(spec))):
        assert not twin._memo
        rebuilt = quantum_sr_relations(twin.fan, twin)
        assert rebuilt == relations and rebuilt is not relations


def test_the_report_keeps_the_pairs_of_the_relation_tuple(bundled):
    fan, spec = bundled["X11"]
    relations = quantum_sr_relations(fan, spec)
    assert type(relations) is tuple and quantum_sr_relations(fan, spec) is relations
    report = verify_homomorphism(spec)
    assert len(report.relations) == len(relations)
    for (pr, _), (reported, _) in zip(relations, report.relations):
        assert reported is pr


def _at_sample(spec, el):
    # a product at the default sample, as jac_products gives it
    q = default_q_sample(spec.k)
    assert all(c.is_zero() for c in el.divisor[-2:])
    return el.scalar.specialize(q), tuple(c.specialize(q) for c in el.divisor[:-2])


def test_products_are_read_off_the_jacobian_ring(monkeypatch):
    # every primitive pair of the 15 surfaces with pairs: the unique x in
    # H^0 + H^2 with psi(D_i) psi(D_j) - psi(x) in the Jacobian ideal, found
    # from W alone, is the product of the curve-class rule
    def refuse(*args):
        raise AssertionError("the reference read the curve classes")

    count = 0
    for name in BUNDLED:
        fan, spec = load_bundled(name)
        if fan.d == 3:
            continue
        w = superpotential(spec).w
        expected = {pr: _at_sample(spec, el) for pr, el in quantum_sr_relations(fan, spec)}
        with monkeypatch.context() as m:
            m.setattr(quantum, "_cores", refuse)
            m.setattr(quantum, "_classes", refuse)
            assert jac_products(spec, w) == expected, name
        count += len(expected)
    assert count == 167


@pytest.mark.parametrize("name", ["X3", "X8", "X11"])
@pytest.mark.parametrize("c1", [2, 1])
def test_a_dropped_curve_class_changes_a_jacobian_product(monkeypatch, name, c1):
    # the reference sees one missing count: without the first class of that
    # c_1 some product differs from the one read off Jac(W); a fresh spec,
    # since the shared one of load_bundled may already hold its relations
    fan, spec = parse_surface(bundled_text(name))
    reference = jac_products(spec, superpotential(spec).w)
    found = quantum._classes

    def dropped(fan):
        classes = found(fan)
        return {**classes, c1: classes[c1][1:]}

    monkeypatch.setattr(quantum, "_classes", dropped)
    got = {pr: _at_sample(spec, el) for pr, el in quantum_sr_relations(fan, spec)}
    assert got.keys() == reference.keys()
    assert any(got[pr] != reference[pr] for pr in got)


def test_quantum_product_f0(bundled):
    fan, spec = bundled["F0"]
    el13 = quantum_product(fan, spec, 1, 3)
    assert el13.scalar == qm(2, (1, 0))
    assert all(c.is_zero() for c in el13.divisor)
    el24 = quantum_product(fan, spec, 2, 4)
    assert el24.scalar == qm(2, (0, 1))
    assert all(c.is_zero() for c in el24.divisor)


def test_quantum_product_x1(bundled):
    fan, spec = bundled["X1"]
    el13 = quantum_product(fan, spec, 1, 3)
    assert el13.scalar == qm(2, (1, 1))
    assert all(c.is_zero() for c in el13.divisor)
    el24 = quantum_product(fan, spec, 2, 4)
    assert el24.scalar == qm(2, (1, 0)) + QPoly.monomial(2, (1, 1), -1)
    assert all(c.is_zero() for c in el24.divisor)


def test_quantum_product_is_the_relation_entry(bundled):
    # one code path: the product of a pair, in either order and with indices
    # taken cyclically, is its entry in the relations of the surface
    for name, (fan, spec) in bundled.items():
        if fan.d == 3:
            continue
        for (i, j), el in quantum_sr_relations(fan, spec):
            assert quantum_product(fan, spec, i, j) == el, (name, i, j)
            assert quantum_product(fan, spec, j + fan.d, i) == el, (name, i, j)


def test_quantum_product_errors(bundled):
    fan, spec = bundled["X3"]
    with pytest.raises(NotPrimitivePair):
        quantum_product(fan, spec, 1, 2)
    with pytest.raises(NotPrimitivePair):
        quantum_product(fan, spec, 3, 3)
    # the indices are exact integers; an integral Fraction is its int
    assert quantum_product(fan, spec, Fraction(2), 4) == quantum_product(fan, spec, 2, 4)
    for i in (2.0, "2", None, Fraction(5, 2)):
        with pytest.raises(ParameterMismatch, match="^ray index pair"):
            quantum_product(fan, spec, i, 4)
        with pytest.raises(ParameterMismatch, match="^ray index pair"):
            quantum_product(fan, spec, 4, i)
    p2fan, p2spec = bundled["P2"]
    with pytest.raises(IsP2):
        quantum_product(p2fan, p2spec, 1, 2)


def test_quantum_products_reject_a_fan_that_is_not_the_specs(bundled):
    x1, x1_spec = bundled["X1"]
    x2, x2_spec = bundled["X2"]
    f0 = bundled["F0"][0]
    for fan, spec in ((x1, x2_spec), (x2, x1_spec), (f0, x1_spec)):
        with pytest.raises(ParameterMismatch):
            quantum_sr_relations(fan, spec)
        with pytest.raises(ParameterMismatch):
            quantum_product(fan, spec, 1, 3)


def test_quantum_products_reject_non_semi_fano():
    # the Hirzebruch surface F3 has D2^2 = -3; its curve classes are not the
    # ones the enumeration knows, so no count or product may be given for it
    fan = Fan(((1, 0), (0, 1), (-1, 3), (0, -1)))
    spec = KahlerSpec(fan, ((0, 0), (0, 0), (1, 0), (0, 1)), name="F3")
    for count in (c1_two_classes, c1_one_classes):
        with pytest.raises(NotSemiFano, match="curve class enumeration"):
            count(fan)
    with pytest.raises(NotSemiFano):
        gw_c1_2_point(fan, (1, 0, 0, 0))  # c_1(D1) = 2
    with pytest.raises(NotSemiFano):
        gw_c1_1(fan, (1, 1, 0, 0))  # c_1(D1 + D2) = 2 - 1
    with pytest.raises(NotSemiFano):
        quantum_product(fan, spec, 2, 4)
    with pytest.raises(NotSemiFano):
        quantum_sr_relations(fan, spec)


def test_curve_class_is_its_own_poincare_dual(bundled):
    # sum_m (D^m.a) D_m = [a] for every dual pair of bases of H^2, which is
    # why quantum products need no dual basis; checked on every coordinate
    # basis and, for X3, on the paper's hand-picked duals of (D1, D4, D5, D6)
    x3, paper = bundled["X3"][0], (1, 4, 5, 6)
    paper_dual = [
        (0, 1, 0, 0, 0, 0),  # D2
        (0, 0, 1, 0, 0, 0),  # D3
        (0, 0, 2, 1, 0, 0),  # D4 + 2 D3
        (1, 2, 0, 0, 0, 0),  # D1 + 2 D2
    ]
    for mine, theirs in zip(dual_basis(x3, paper), paper_dual):
        assert reduce_class(x3, mine) == reduce_class(x3, theirs)
    for name, (fan, _) in bundled.items():
        if fan.d == 3:
            continue
        bases = [(paper, paper_dual)] if name == "X3" else []
        for subset in combinations(range(1, fan.d + 1), fan.d - 2):
            dual = dual_basis(fan, subset)
            if dual is not None:
                bases.append((subset, dual))
        assert len(bases) > 1, name
        for subset, dual in bases:
            basis = [unit_vector(fan.d, i) for i in subset]
            for m, u in enumerate(dual):
                assert [pair(fan, b, u) for b in basis] == list(unit_vector(len(basis), m + 1))
            for a in c1_one_classes(fan):
                # both sum_m (D^m.a) D_m and sum_m (D_m.a) D^m give [a]
                for left, right in ((dual, basis), (basis, dual)):
                    expanded = [0] * fan.d
                    for x, y in zip(left, right):
                        c = pair(fan, x, a)
                        expanded = [e + c * v for e, v in zip(expanded, y)]
                    canon = reduce_class(fan, a)
                    assert reduce_class(fan, expanded) == canon, (name, subset, a)


def test_quantum_product_basis_independence(bundled):
    # the H^2 part by the paper's formula, sum_m (sum_a (D_i.a)(D_j.a)(D^m.a)
    # q^a) D_m, with dual bases built here, against the product itself
    fan, spec = bundled["X3"]
    d, k = fan.d, spec.k
    for subset in ((1, 4, 5, 6), (3, 4, 5, 6), (2, 3, 4, 5)):
        dual = dual_basis(fan, subset)
        for i, j in primitive_pairs(fan):
            vec = [QPoly.zero(k)] * d
            for a in c1_one_classes(fan):
                c = pair(fan, unit_vector(d, i), a) * pair(fan, unit_vector(d, j), a)
                qa = QPoly.monomial(k, spec.curve_area(a))
                for m, u in zip(subset, dual):
                    vec[m - 1] = vec[m - 1] + qa.scale(c * pair(fan, u, a))
            product = quantum_product(fan, spec, i, j)
            assert reduce_class(fan, vec) == product.divisor, (subset, i, j)


def test_positive_q_weight_and_classical_limit(bundled):
    # every monomial of every product has positive area at the sample point,
    # so the q -> 0 limit inside the Kahler cone recovers D_i D_j = 0
    for name, (fan, spec) in bundled.items():
        if fan.d == 3:
            continue
        for _, el in quantum_sr_relations(fan, spec):
            polys = (el.scalar,) + el.divisor
            for qp in polys:
                for exps in qp.terms:
                    weight = sum(e * t for e, t in zip(exps, spec.sample_point))
                    assert weight > 0, (name, exps)


def test_relation_count(bundled):
    for name, (fan, spec) in bundled.items():
        if fan.d == 3:
            continue
        rels = quantum_sr_relations(fan, spec)
        assert len(rels) == fan.d * (fan.d - 3) // 2, name


def test_relations_share_zero_and_store_int_coefficients(bundled):
    # identity and type checks, stable across Python versions where byte
    # sizes are not: one zero object, and integral coefficients stored as int
    fan, spec = bundled["X11"]
    zero = QPoly.zero(spec.k)
    coefficients = 0
    for _, el in quantum_sr_relations(fan, spec):
        for qp in (el.scalar, *el.divisor):
            if not qp:
                assert qp is zero
            for c in qp.terms.values():
                assert type(c) is int
                coefficients += 1
    assert coefficients


def _bundled_profiles(base, M, fan, reps):
    """Sorted pairing profiles on ``base`` of classes given on its presentation ``fan``.

    Ray k of the presentation is M v for the ray v of base at index sigma[k];
    a class moves to base by that relabelling, which keeps the intersection
    form, so the profile is taken there.
    """
    image = {
        (M[0][0] * a + M[0][1] * b, M[1][0] * a + M[1][1] * b): k
        for k, (a, b) in enumerate(base.rays)
    }
    sigma = [image[v] for v in fan.rays]
    out = []
    for rep in reps:
        moved = [0] * base.d
        for k, m in zip(sigma, rep):
            moved[k] = m
        out.append(profile(base, moved))
    return sorted(out)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@example(name="X8", generator="S", shift=5)  # the (-2)-chain (8, 1, 2) meets a fiber end
@example(name="X11", generator="F", shift=2)  # the (-2)-chain (9, 1) meets a fiber end
@given(
    name=st.sampled_from(BUNDLED[1:]),
    generator=st.sampled_from(sorted(GENERATORS)),
    shift=st.integers(0, 8),
)
def test_curve_classes_of_presentations_are_the_bundled_ones(name, generator, shift):
    # the fibers and the c_1 = 2, 1 classes depend on the surface, not on
    # its presentation: not on GL(2, Z), the ray order or where the index
    # seam cuts a (-2)-chain
    base = load_bundled(name)[0]
    M = GENERATORS[generator]
    fan = presentation(name, M, shift % base.d).fan
    identity = ((1, 0), (0, 1))

    def fibers(f):
        return [rep for _, rep in fiber_classes(f)]

    for classes in (fibers, c1_two_classes, c1_one_classes):
        expected = _bundled_profiles(base, identity, base, classes(base))
        assert _bundled_profiles(base, M, fan, classes(fan)) == expected, classes
