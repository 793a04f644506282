import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from appendix_data import X3_PSI, build_signed
from groebner_oracle import (
    InfiniteDimensional,
    _groebner_basis,
    _standard_monomial_count,
    groebner_dimension,
    groebner_membership,
    normal_forms,
)
from kouchnirenko import newton_dimension
from mirror_oracle import mirror_mismatches
from presentations import GENERATORS, presentation
from sftoric import cli
from sftoric.errors import DegenerateEdge, InvalidKahlerData, IsP2, OutOfRange, ParameterMismatch
from sftoric.fan import Fan
from sftoric.homology import linear_relations, solve_linear, unit_vector
from sftoric.kahler import KahlerSpec
from sftoric.laurent import LaurentPoly, QPoly
from sftoric.potential import Superpotential, superpotential, z_beta
from sftoric.disks import DiskClass
from sftoric.quantum import QHElement, quantum_product
from sftoric.surfaces import BUNDLED, load_bundled
from sftoric.verifier import (
    VerificationReport,
    cofactor_certificates,
    default_q_sample,
    edge_factorisation,
    jac_dimension,
    jacobian_ideal,
    off_cone_edge,
    psi_divisor,
    psi_qh,
    verify_homomorphism,
    verify_linear_identity,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def specialized(p, spec):
    return p.specialize_q(default_q_sample(spec.k))


def unit(d, i):
    return unit_vector(d, i)


def test_psi_x3_worked_example(bundled):
    fan, spec = bundled["X3"]
    for i in range(1, 7):
        expected = build_signed(spec.k, X3_PSI[i - 1])
        assert psi_divisor(spec, unit(6, i)) == expected, i


def test_psi_divisor_rejects_a_vector_of_the_wrong_length(bundled):
    spec = bundled["F0"][1]
    for D in ((1, 0, 0), (1, 0, 0, 0, 1)):
        with pytest.raises(ParameterMismatch):
            psi_divisor(spec, D)


def test_psi_fano_is_hori_vafa_term(bundled):
    for name in ("P2", "F0", "F1", "dP2", "dP3"):
        fan, spec = bundled[name]
        for i in range(1, fan.d + 1):
            assert psi_divisor(spec, unit(fan.d, i)) == z_beta(
                spec, DiskClass.basic(fan, i)
            ), name


def test_linear_identity_all_bundled(bundled):
    for name, (fan, spec) in bundled.items():
        assert verify_linear_identity(spec), name


def test_psi_of_relations_in_ideal(bundled):
    fan, spec = bundled["X3"]
    ideal = jacobian_ideal(superpotential(spec).w)
    sample = default_q_sample(spec.k)
    for rel in linear_relations(fan):
        assert groebner_membership(psi_divisor(spec, rel), ideal, sample)


def test_groebner_membership_examples(bundled):
    fan, spec = bundled["X3"]
    ideal = jacobian_ideal(superpotential(spec).w)
    g1, _ = ideal
    sample = default_q_sample(spec.k)
    assert groebner_membership(LaurentPoly.zero(spec.k), ideal, sample)
    assert groebner_membership(g1, ideal, sample)
    assert not groebner_membership(LaurentPoly.constant(spec.k, 1), ideal, sample)
    # the surjectivity identity from the worked example:
    # q1q2q3^2q4^3 / z1 = (1+q1) z1 z2 + (1+q3+q2q3) q1q4 z1 + 2 q1 z1^2
    # modulo the ideal; the difference is exactly -z2 * d_1 W
    k = spec.k
    p = (
        LaurentPoly.monomial(k, (-1, 0), QPoly.monomial(k, (1, 1, 2, 3)))
        - LaurentPoly.monomial(k, (1, 1), QPoly.one(k) + QPoly.monomial(k, (1, 0, 0, 0)))
        - LaurentPoly.monomial(
            k,
            (1, 0),
            QPoly.monomial(k, (1, 0, 0, 1))
            + QPoly.monomial(k, (1, 0, 1, 1))
            + QPoly.monomial(k, (1, 1, 1, 1)),
        )
        - LaurentPoly.monomial(k, (2, 0), QPoly.monomial(k, (1, 0, 0, 0), 2))
    )
    minus_z2 = LaurentPoly.monomial(k, (0, 1), QPoly.constant(k, -1))
    assert p == minus_z2 * g1
    assert groebner_membership(p, ideal, sample)


def test_membership_order_independence(bundled):
    fan, spec = bundled["X3"]
    ideal = jacobian_ideal(superpotential(spec).w)
    _, g2 = ideal
    sample = default_q_sample(spec.k)
    candidates = [
        g2,
        psi_divisor(spec, linear_relations(fan)[0]),
        LaurentPoly.constant(spec.k, 1),
        LaurentPoly.monomial(spec.k, (1, 0)),
        psi_divisor(spec, unit(6, 2)) * psi_divisor(spec, unit(6, 4))
        - psi_qh(spec, quantum_product(fan, spec, 2, 4)),
    ]
    for p in candidates:
        verdicts = {
            order: groebner_membership(p, ideal, sample, order=order)
            for order in ("grevlex", "grlex", "lex")
        }
        assert len(set(verdicts.values())) == 1, verdicts


def test_x3_exact_identity_with_paper_representative(bundled):
    fan, spec = bundled["X3"]
    k = spec.k
    lhs = psi_divisor(spec, unit(6, 2)) * psi_divisor(spec, unit(6, 4))
    a = QPoly.monomial(k, (1, 0, 1, 1))  # q1 q3 q4
    b = QPoly.monomial(k, (1, 1, 1, 1))  # q1 q2 q3 q4
    scalar = QPoly.monomial(k, (1, 0, 1, 2)) + QPoly.monomial(k, (1, 1, 1, 2), -1)
    rhs = LaurentPoly(k, {(0, 0): scalar})
    for coord, coeff in ((1, a - b), (4, -b), (5, a - b), (6, a - b)):
        rhs = rhs + psi_divisor(spec, unit(6, coord)).scale(coeff)
    assert (lhs - rhs).is_zero()


def test_surjectivity_identities_x3(bundled):
    fan, spec = bundled["X3"]
    k = spec.k
    one = QPoly.one(k)
    q1 = QPoly.monomial(k, (1, 0, 0, 0))
    q2 = QPoly.monomial(k, (0, 1, 0, 0))
    q3 = QPoly.monomial(k, (0, 0, 1, 0))
    q2q3 = q2 * q3
    z1 = LaurentPoly.monomial(k, (1, 0))
    z2 = LaurentPoly.monomial(k, (0, 1))
    psi1 = psi_divisor(spec, unit(6, 1))
    psi2 = psi_divisor(spec, unit(6, 2))
    psi4 = psi_divisor(spec, unit(6, 4))
    psi5 = psi_divisor(spec, unit(6, 5))
    # z1 = psi((1-q1)^{-1} D1), cleared of the denominator
    assert z1.scale(one - q1) == psi1
    # z2 = psi(D2 - q1 (1-q1)^{-1} D1), cleared
    assert z2.scale(one - q1) == psi2.scale(one - q1) - psi1.scale(q1)
    # z2^{-1} = psi([q1q3q4^2(1-q2)(1-q2q3)]^{-1} D4
    #               - [q1q4^2(1-q3)(1-q2q3)]^{-1} D5), cleared
    zinv = LaurentPoly.monomial(k, (0, -1), QPoly.monomial(k, (1, 0, 1, 2)))
    lhs = zinv.scale((one - q2) * (one - q3) * (one - q2q3))
    rhs = psi4.scale(one - q3) - psi5.scale(q3 * (one - q2))
    assert lhs == rhs


def test_jac_dimension_examples(bundled):
    # P^2: critical points of z1 + z2 + q/(z1 z2) have z1 = z2, z1^3 = q,
    # three simple solutions
    _, p2 = bundled["P2"]
    assert jac_dimension(p2, default_q_sample(1)) == 3
    # F0: z1^2 = q1, z2^2 = q2 give four critical points
    _, f0 = bundled["F0"]
    assert jac_dimension(f0, default_q_sample(2)) == 4
    _, x3 = bundled["X3"]
    assert jac_dimension(x3, default_q_sample(4)) == 6
    # the reference count does not depend on the monomial order
    w = specialized(superpotential(x3).w, x3)
    assert groebner_dimension(w, "grevlex") == groebner_dimension(w, "grlex") == 6


def test_verify_homomorphism_x3_report(bundled):
    fan, spec = bundled["X3"]
    report = verify_homomorphism(spec)
    assert report.passed
    assert report.dimension == 6 and report.expected_dimension == 6
    assert len(report.relations) == 9
    assert report.q_sample == default_q_sample(4)
    text = report.to_text()
    assert text.splitlines()[0] == "surface X3"
    assert "relation D2*D4 membership PASS" in text
    assert text.splitlines()[-1] == "RESULT PASS"


def test_verify_homomorphism_explicit_sample(bundled):
    fan, spec = bundled["X1"]
    report = verify_homomorphism(spec, [Fraction(1, 3), Fraction(1, 5)])
    assert report.passed
    assert report.q_sample == (Fraction(1, 3), Fraction(1, 5))
    # a float q-value is refused, not read as its binary fraction
    with pytest.raises(ParameterMismatch, match="^q-sample "):
        verify_homomorphism(spec, (0.1, Fraction(1, 3)))


def test_verify_homomorphism_p2_raises(bundled):
    # P^2 is refused by quantum.primitive_pairs, after the sample is checked
    p2 = bundled["P2"][1]
    for qvals in (None, [Fraction(1, 3)]):
        with pytest.raises(IsP2, match=r"^P\^2 has no two-element primitive collections$"):
            verify_homomorphism(p2, qvals)
    with pytest.raises(OutOfRange, match=r"^q value 2 is not in \(0, 1\)$"):
        verify_homomorphism(p2, [2])
    with pytest.raises(ParameterMismatch, match="^2 values for k=1$"):
        verify_homomorphism(p2, [Fraction(1, 2), Fraction(1, 3)])


def test_infinite_dimensional_detected():
    # <z1 - 1> leaves Q[z2^{\pm 1}] as the quotient: not finite-dimensional
    g = LaurentPoly.monomial(0, (1, 0)) - LaurentPoly.constant(0, 1)
    G = _groebner_basis((g, g), (), "grevlex")
    with pytest.raises(InfiniteDimensional):
        _standard_monomial_count(G, "grevlex")


@pytest.mark.parametrize("name", BUNDLED)
def test_newton_dimension_matches_groebner_reference(name):
    # Kouchnirenko's count against the standard monomials of a Groebner
    # basis, on the surface and on its image under every generator
    for M in (((1, 0), (0, 1)), *GENERATORS.values()):
        spec = presentation(name, M)
        sample = default_q_sample(spec.k)
        G = _groebner_basis(jacobian_ideal(superpotential(spec).w), sample, "grevlex")
        reference = _standard_monomial_count(G, "grevlex")
        w = specialized(superpotential(spec).w, spec)
        assert newton_dimension(spec.fan, w) == reference == spec.fan.d, M
        assert jac_dimension(spec, sample) == reference, M


@pytest.mark.parametrize("name", BUNDLED)
def test_edge_polynomials_factor_in_every_presentation(name):
    # on every GL(2, Z) image, cyclic relabelling and translated polytope the
    # symbolic W has the closed-form product on each edge, and jac_dimension
    # agrees with the Kouchnirenko reference at the default sample
    k = load_bundled(name)[1].k
    U = (tuple(range(1, k + 1)), (-1,) * k)
    for M in GENERATORS.values():
        for shift in (0, 1, 3):
            spec = presentation(name, M, shift, U)
            w = superpotential(spec).w
            assert edge_factorisation(spec, w) == spec.fan.d, (M, shift)
            sample = default_q_sample(k)
            reference = newton_dimension(spec.fan, w.specialize_q(sample))
            assert jac_dimension(spec, sample) == reference == spec.fan.d, (M, shift)


def test_edge_factorisation_refuses_a_w_it_cannot_judge(bundled):
    # X3's own W specialized at the default sample is over k = 0, not k = 4
    _, spec = bundled["X3"]
    w = superpotential(spec).w
    for other in (w.specialize_q(default_q_sample(spec.k)), LaurentPoly.zero(3), QPoly.one(4)):
        with pytest.raises(ParameterMismatch, match="^w is not a LaurentPoly over k=4$"):
            edge_factorisation(spec, other)
    assert edge_factorisation(spec, w) == 6
    # a monomial off the origin and the rays leaves the Newton polygon
    assert edge_factorisation(spec, w + LaurentPoly.monomial(spec.k, (2, 0))) is None


def test_chains_and_the_corner_walk_read_one_helper(bundled, monkeypatch):
    # the (-2)-chains and the edges of the dimension check both come from
    # Fan._corner_pairs: with it broken, neither can be computed
    _, spec = bundled["X3"]
    w = superpotential(spec).w

    def broken(fan):
        raise RuntimeError("no corners")

    monkeypatch.setattr(Fan, "_corner_pairs", broken)
    with pytest.raises(RuntimeError, match="^no corners$"):
        Fan(spec.fan.rays).minus_two_chains()  # a fresh fan, nothing memoised
    with pytest.raises(RuntimeError, match="^no corners$"):
        edge_factorisation(spec, w)


def test_w_off_the_edge_identity_has_no_dimension(bundled, monkeypatch):
    # one q-monomial more on the (-2)-ray (0,-1) of X1 breaks the product on
    # its edge: the dimension is undefined and the report fails on that line
    import sftoric.verifier as verifier

    fan, spec = bundled["X1"]
    assert fan.self_intersection(4) == -2
    true = superpotential(spec)
    extra = LaurentPoly.monomial(spec.k, fan.ray(4), QPoly.monomial(spec.k, (1, 1)))
    tampered = Superpotential(true.w + extra, true.classes)
    assert edge_factorisation(spec, true.w) == 4
    assert edge_factorisation(spec, tampered.w) is None
    monkeypatch.setattr(verifier, "superpotential", lambda s: tampered)
    report = verify_homomorphism(spec)
    assert report.dimension is None and not report.passed
    assert "jacobian-dimension undefined expected 4 FAIL" in report.to_text()


# the published table's monomial of one basic disk where the package differs:
# ray index i and the printed q-exponents (1/q3 on X10, 1/q7 on X11)
PRINTED = {"X10": (4, (-1, 0, -1, 2, 1, 0)), "X11": (3, (-2, 1, 2, 3, 1, -1, -1))}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_the_printed_table_entries_fail_the_checks(bundled, monkeypatch, name):
    # README "What the reproduction found": with the printed monomial in W
    # the edge through that corner ray does not factor and psi(L_j) is not
    # z_j dW/dz_j, while the package's W passes both
    import sftoric.verifier as verifier

    i, printed = PRINTED[name]
    fan, spec = bundled[name]
    ours = spec.disk_coefficient(i)
    assert sum(a != b for a, b in zip(printed, ours)) == 1
    true = superpotential(spec)
    swap = LaurentPoly.monomial(
        spec.k, fan.ray(i), QPoly.monomial(spec.k, printed) - QPoly.monomial(spec.k, ours)
    )
    tampered = Superpotential(true.w + swap, true.classes)
    assert edge_factorisation(spec, true.w) == fan.d and verify_linear_identity(spec)
    assert edge_factorisation(spec, tampered.w) is None
    monkeypatch.setattr(verifier, "superpotential", lambda s: tampered)
    assert not verify_linear_identity(spec)
    assert jac_dimension(spec, default_q_sample(spec.k)) is None
    # the open mirror theorem reads only the chain rays, so it passes both
    assert mirror_mismatches(spec, tampered.w) == [] == mirror_mismatches(spec, true.w)


def test_degenerate_edge_leaves_the_dimension_undefined(bundled):
    # on X1 the edge through the (-2)-ray (0,-1) carries 1 + c x + x^2,
    # which has a double root for c = 2; two critical points then escape to
    # infinity and the Jacobian ring drops to dimension 2
    fan = bundled["X1"][0]
    assert fan.self_intersection(4) == -2

    def w(c):
        terms = {(1, 0): 1, (0, 1): 1, (0, -1): c, (-1, -2): 1}
        return LaurentPoly(0, {ze: QPoly.constant(0, v) for ze, v in terms.items()})

    assert newton_dimension(fan, w(3)) == groebner_dimension(w(3)) == 4
    assert newton_dimension(fan, w(2)) is None
    assert groebner_dimension(w(2)) == 2
    # W off the lattice points of the polygon is not judged either
    assert newton_dimension(fan, w(3) + LaurentPoly.monomial(0, (2, 0))) is None
    # a report with an undefined dimension fails on that line
    report = VerificationReport("X1", (), True, [((2, 4), True)], None, 4)
    assert not report.passed
    assert "jacobian-dimension undefined expected 4 FAIL" in report.to_text()


def test_sample_on_a_wall_is_degenerate_and_rejected(bundled):
    # q3 = q1^2 gives the (-2)-curve D3 of X8 zero area: the sample lies on
    # a wall of the Kahler cone, W is degenerate on the edge through v3 and
    # the Groebner reference finds two critical points fewer
    fan, spec = bundled["X8"]
    assert sum(a * t for a, t in zip(spec.edge_length(3), (1, 1, 2, 1, 1, 1))) == 0
    q = [Fraction(1, 2)] * 6
    q[2] = Fraction(1, 4)
    w_at = superpotential(spec).w.specialize_q(q)
    assert newton_dimension(fan, w_at) is None
    assert groebner_dimension(w_at) == 6
    # both entry points reject the sample instead of reporting a dimension
    with pytest.raises(OutOfRange, match="edge 3 "):
        jac_dimension(spec, q)
    with pytest.raises(OutOfRange, match="edge 3 "):
        verify_homomorphism(spec, q)


@pytest.mark.parametrize(
    "name, q, edge",
    [
        ("X8", "1/2,1/2,1/4,1/2,1/2,1/2", 3),
        ("X10", "1/2,1/2,1/4,1/3,1/2,1/2", 3),
        ("X11", "1/2,1/2,1/2,1/2,1/2,1/4,1/2", 2),
    ],
)
def test_samples_off_the_kahler_cone_are_rejected(bundled, name, q, edge):
    # the q-monomial of the named edge is exactly one at these samples
    spec = bundled[name][1]
    qvals = [Fraction(v) for v in q.split(",")]
    assert off_cone_edge(spec, qvals) == edge
    monomial = 1
    for v, e in zip(qvals, spec.edge_length(edge)):
        monomial *= v**e
    assert monomial == 1
    with pytest.raises(OutOfRange, match=f"edge {edge} "):
        verify_homomorphism(spec, qvals)
    with pytest.raises(OutOfRange, match=f"edge {edge} "):
        jac_dimension(spec, qvals)


def test_sample_is_checked_before_w_is_built(bundled, monkeypatch):
    # an off-cone sample is refused before either entry point builds W or psi
    import sftoric.verifier as verifier

    def unreachable(spec):
        raise AssertionError("W built before the sample was checked")

    monkeypatch.setattr(verifier, "superpotential", unreachable)
    spec = bundled["X8"][1]
    q = [Fraction(1, 2)] * 2 + [Fraction(1, 4)] + [Fraction(1, 2)] * 3
    with pytest.raises(OutOfRange, match="edge 3 "):
        verify_homomorphism(spec, q)
    with pytest.raises(OutOfRange, match="edge 3 "):
        jac_dimension(spec, q)


def test_default_samples_lie_in_the_kahler_cone(bundled):
    for name, (fan, spec) in bundled.items():
        if fan.d > 3:
            assert off_cone_edge(spec, default_q_sample(spec.k)) is None, name


def test_default_sample_has_one_value_per_parameter():
    first = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    for k in range(15):
        assert default_q_sample(k) == tuple(Fraction(1, p) for p in first[:k]), k
    assert default_q_sample(Fraction(2)) == default_q_sample(2)
    for k in (1.5, Fraction(3, 2), "2", None, -1):
        with pytest.raises(ParameterMismatch):
            default_q_sample(k)


def test_auto_resampling_skips_samples_off_the_cone(bundled, monkeypatch):
    # put the default sample on the wall of X8: it is skipped, not raised,
    # and the checks run at q_l = 2^(-t_l) at the certified Kahler point
    import sftoric.verifier as verifier

    fan, spec = bundled["X8"]
    wall = (Fraction(1, 2),) * 2 + (Fraction(1, 4),) + (Fraction(1, 2),) * 3
    monkeypatch.setattr(verifier, "default_q_sample", lambda k: wall)
    report = verify_homomorphism(spec)
    assert report.passed
    fallback = tuple(Fraction(1, 2**t) for t in spec.sample_point)
    assert report.samples_tried == [fallback] and report.q_sample == fallback


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@example(name="F0", k=2, entries=[0, 0, 0, 0, 0, 0, 1, -3, 0, 0, 1, 0])
@given(
    name=st.sampled_from(("F0", "F1", "X1")),
    k=st.integers(1, 3),
    entries=st.lists(st.integers(-3, 3), min_size=12, max_size=12),
)
def test_every_accepted_kahler_class_verifies(name, k, entries):
    # whatever rows KahlerSpec accepts, the default sample (or the fallback
    # at its certified point) lies in the cone and the verification passes
    fan = load_bundled(name)[0]
    rows = [entries[3 * i : 3 * i + k] for i in range(fan.d)]
    _assert_accepted_rows_verify(fan, rows, name)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(("dP2", "dP3", "X2", "X3", "X4", "X5")),
    entries=st.lists(st.integers(-2, 2), min_size=24, max_size=24),
)
def test_every_accepted_kahler_class_verifies_on_five_and_six_rays(name, entries):
    # generic rows on five or six rays are nearly always rejected, so the
    # rows are the bundled ones moved by entries in [-2, 2], with k <= 4
    fan, spec = load_bundled(name)
    steps = [entries[4 * i : 4 * i + spec.k] for i in range(fan.d)]
    rows = [[c + e for c, e in zip(row, step)] for row, step in zip(spec.rows, steps)]
    _assert_accepted_rows_verify(fan, rows, name)


def _assert_accepted_rows_verify(fan, rows, name):
    try:
        spec = KahlerSpec(fan, rows, name)
    except (InvalidKahlerData, DegenerateEdge):
        assume(False)
    assert edge_factorisation(spec, superpotential(spec).w) == fan.d
    report = verify_homomorphism(spec)
    fallback = tuple(Fraction(1, 2**t) for t in spec.sample_point)
    assert report.q_sample in (default_q_sample(spec.k), fallback)
    assert off_cone_edge(spec, report.q_sample) is None
    assert report.passed and report.dimension == fan.d


def test_constant_has_no_certificate(bundled):
    fan, spec = bundled["X3"]
    ideal = jacobian_ideal(specialized(superpotential(spec).w, spec))
    g1, g2 = ideal
    one = LaurentPoly.constant(0, 1)
    certs = cofactor_certificates(fan, ideal, [one, g1])
    assert certs[0] is None
    a, b = certs[1]
    assert a * g1 + b * g2 == g1
    assert not groebner_membership(LaurentPoly.constant(spec.k, 1),
                                   jacobian_ideal(superpotential(spec).w),
                                   default_q_sample(spec.k))


def test_relation_without_certificate_fails(bundled, monkeypatch):
    # adding 1 to the scalar part of D2*D4 moves its psi-relation by the
    # constant -1, which is not in the ideal: that relation alone fails
    import sftoric.verifier as verifier

    fan, spec = bundled["X3"]
    real = verifier.quantum_sr_relations

    def perturbed(fan, spec):
        return [
            (pr, QHElement(el.scalar + QPoly.one(spec.k), el.divisor) if pr == (2, 4) else el)
            for pr, el in real(fan, spec)
        ]

    monkeypatch.setattr(verifier, "quantum_sr_relations", perturbed)
    report = verify_homomorphism(spec)
    assert [pr for pr, ok in report.relations if not ok] == [(2, 4)]
    assert report.dimension == 6 and not report.passed
    text = report.to_text()
    assert "relation D2*D4 membership FAIL" in text
    assert text.splitlines()[-1] == "RESULT FAIL"


def test_certificates_agree_with_groebner_membership(bundled):
    # every X3 relation has a certificate, and a perturbed relation has none
    fan, spec = bundled["X3"]
    sample = default_q_sample(spec.k)
    ideal = jacobian_ideal(superpotential(spec).w)
    z1 = LaurentPoly.monomial(spec.k, (1, 0))
    polys = []
    for (i, j) in ((2, 4), (1, 3), (3, 6)):
        p = psi_divisor(spec, unit(6, i)) * psi_divisor(spec, unit(6, j)) - psi_qh(
            spec, quantum_product(fan, spec, i, j)
        )
        polys += [p, p + z1]
    certs = cofactor_certificates(
        fan, jacobian_ideal(specialized(superpotential(spec).w, spec)),
        [specialized(p, spec) for p in polys],
    )
    for p, cert in zip(polys, certs):
        assert (cert is not None) == groebner_membership(p, ideal, sample)
    assert [cert is not None for cert in certs] == [True, False] * 3


def test_bundled_verify_needs_no_fallback_nor_sympy():
    # a fresh interpreter in which sympy cannot be imported at all verifies
    # every bundled surface through the CLI, byte for byte as here, and
    # takes dim Jac(W) at the default sample
    code = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
from sftoric import BUNDLED, cli, jac_dimension, load_bundled
from sftoric.verifier import default_q_sample
out = {}
for name in BUNDLED:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", name])
    spec = load_bundled(name)[1]
    out[name] = [code, buf.getvalue(), jac_dimension(spec, default_q_sample(spec.k))]
# the records are named tuples: nothing imports dataclasses and its inspect
assert not {"dataclasses", "inspect"} & set(sys.modules), "dataclasses or inspect loaded"
print(json.dumps(out))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out) == set(BUNDLED)
    for name, (exit_code, stdout, dim) in out.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            expected = cli.main(["verify", name])
        assert exit_code == expected == 0 and stdout == buf.getvalue(), name
        assert stdout.endswith("RESULT PASS\n"), name
        assert dim == load_bundled(name)[0].d, name


SHEARS = st.tuples(st.sampled_from("TU"), st.sampled_from((-2, -1, 1, 2)))


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@example(name="X8", word=[("T", 2), ("U", -2), ("T", 1), ("U", -1)], shift=0, entries=[0] * 16)
@given(
    name=st.sampled_from(BUNDLED[1:]),
    word=st.lists(SHEARS, min_size=4, max_size=4),
    shift=st.integers(0, 8),
    entries=st.lists(st.sampled_from((-1, 0, 1)), min_size=16, max_size=16),
)
def test_multi_shear_presentations_verify(name, word, shift, entries):
    # words of four shears sent a Groebner computation past 100 s on X8; the
    # certificates and the Newton polygon do not depend on the presentation
    M = ((1, 0), (0, 1))
    for kind, k in word:
        G = ((1, k), (0, 1)) if kind == "T" else ((1, 0), (k, 1))
        M = tuple(
            tuple(sum(M[r][t] * G[t][c] for t in range(2)) for c in range(2))
            for r in range(2)
        )
    fan, base = load_bundled(name)
    U = (tuple(entries[: base.k]), tuple(entries[8 : 8 + base.k]))
    spec = presentation(name, M, shift % fan.d, U)
    report = verify_homomorphism(spec)
    assert report.passed
    assert report.dimension == spec.fan.d


def _rank(columns: list[dict]) -> int:
    """Rank over Q of vectors given as monomial -> coefficient dicts."""
    rows = sorted({m for c in columns for m in c})
    matrix = [[c.get(m, 0) for c in columns] for m in rows]
    return solve_linear(matrix, [[] for _ in rows])[0] if rows else 0


@pytest.mark.parametrize("name", BUNDLED[1:])
def test_certificates_are_complete_by_the_rank_identity(name):
    # J cap L(2 Delta) = L(Delta) g1 + L(Delta) g2: the span of the products
    # of g1, g2 with the monomials on {0} u rays and the image of L(2 Delta)
    # in Jac(W) add up to all 3d + 1 lattice points of 2 Delta, so a relation
    # (which lies in L(2 Delta)) is in J exactly when it has a certificate
    fan, spec = load_bundled(name)
    delta = [(0, 0), *fan.rays]
    rays = [fan.ray(i) for i in range(1, fan.d + 2)]
    r = 2 * max(abs(c) for v in fan.rays for c in v)
    box = range(-r, r + 1)
    two_delta = [
        (x, y)
        for x in box
        for y in box
        if all(
            (b[0] - a[0]) * (y - 2 * a[1]) - (b[1] - a[1]) * (x - 2 * a[0]) >= 0
            for a, b in zip(rays, rays[1:])
        )
    ]
    assert len(two_delta) == 3 * fan.d + 1
    for shift in range(3):
        # the k primes from the (shift+1)-th on, i.e. 1/7.., 1/11.., 1/13..
        w = superpotential(spec).w.specialize_q(default_q_sample(spec.k + shift)[shift:])
        assert newton_dimension(fan, w) == fan.d, shift
        ideal = jacobian_ideal(w)
        products = [LaurentPoly.monomial(0, m) * g for m in delta for g in ideal]
        assert {m for p in products for m in p.terms} <= set(two_delta)
        G = _groebner_basis(ideal, (), "grevlex")
        forms = normal_forms(G, [LaurentPoly.monomial(0, m) for m in two_delta])
        vectors = [{m: c.specialize(()) for m, c in p.terms.items()} for p in products]
        assert _rank(vectors) + _rank(forms) == len(two_delta), shift


def test_long_edge_discriminants_are_area_factors(bundled):
    # on an edge of Delta through (-2)-rays the edge polynomial of W has
    # positive end coefficients and a discriminant whose non-monomial
    # factors are q^A - 1 up to a q-monomial, A a sum of the areas of
    # consecutive (-2)-curves on the edge: no root is repeated while every
    # such area is positive, i.e. anywhere in the open Kahler cone
    import sympy

    x = sympy.Symbol("x")
    long_edges = 0
    for name, (fan, spec) in bundled.items():
        w = superpotential(spec).w
        qs = sympy.symbols(f"q1:{spec.k + 1}")

        def expr(qp):
            total = 0
            for e, c in qp.terms.items():
                term = sympy.Rational(c.numerator, c.denominator)
                for q, k in zip(qs, e):
                    term *= q**k
                total += term
            return total

        corners = [i for i in range(1, fan.d + 1) if fan.self_intersection(i) != -2]
        for a, b in zip(corners, corners[1:] + [corners[0] + fan.d]):
            if b - a < 2:
                continue
            long_edges += 1
            coeffs = [w.coefficient(fan.ray(i)) for i in range(a, b + 1)]
            for end in (coeffs[0], coeffs[-1]):
                assert end and all(c > 0 for c in end.terms.values()), (name, a)
            areas = [spec.edge_length(i) for i in range(a + 1, b)]
            sums = {
                tuple(map(sum, zip(*areas[s:e])))
                for s in range(len(areas))
                for e in range(s + 1, len(areas) + 1)
            }
            f = sum(expr(c) * x**t for t, c in enumerate(coeffs))
            num, den = sympy.fraction(sympy.together(sympy.discriminant(f, x)))
            assert len(sympy.Poly(den, *qs).terms()) == 1, (name, a)
            _, factors = sympy.factor_list(num, *qs)
            found = set()
            for g, mult in factors:
                terms = sympy.Poly(g, *qs).terms()
                if len(terms) == 1:
                    continue
                assert len(terms) == 2 and {terms[0][1], terms[1][1]} == {1, -1}, (name, a, g)
                A = tuple(u - v for u, v in zip(terms[0][0], terms[1][0]))
                A = A if A in sums else tuple(-u for u in A)
                assert A in sums and mult % 2 == 0, (name, a, g, mult)
                found.add(A)
            assert found, (name, a)
    assert long_edges == 24


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@example(name="X11", r=Fraction(2, 3), offsets=[0, 0, 0, 0, 2, 1, 0, 0])
@given(
    name=st.sampled_from(BUNDLED[1:]),
    r=st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))),
    offsets=st.lists(st.integers(0, 3), min_size=8, max_size=8),
)
def test_samples_inside_the_kahler_cone_verify(name, r, offsets):
    # q_l = r^(t_l) at a positive integer point t of the open Kahler cone,
    # away from the default sample: W is nondegenerate, every relation has a
    # certificate and the verification passes
    fan, spec = load_bundled(name)
    t = [s + o for s, o in zip(spec.sample_point, offsets)]
    areas = [sum(a * x for a, x in zip(spec.edge_length(i), t)) for i in range(1, fan.d + 1)]
    assume(all(area > 0 for area in areas))
    q = [r**tl for tl in t]
    assert off_cone_edge(spec, q) is None
    assert newton_dimension(fan, superpotential(spec).w.specialize_q(q)) == fan.d
    report = verify_homomorphism(spec, q)
    assert all(ok for _, ok in report.relations)
    assert report.passed and report.dimension == fan.d
