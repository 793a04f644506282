"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import time
from itertools import product

from appendix_data import EXPECTED_W, build_signed, build_unit, X3_PSI
from sftoric.disks import _chain_parts
from sftoric.fan import Fan, classify_semi_fano, fans_isomorphic
from sftoric.homology import unit_vector
from sftoric.laurent import LaurentPoly, QPoly, canonical_string
from sftoric.potential import hori_vafa, superpotential
from sftoric.quantum import quantum_product, quantum_sr_relations
from sftoric.surfaces import BUNDLED_NON_FANO
from sftoric.verifier import (
    default_q_sample,
    jac_dimension,
    psi_divisor,
    verify_homomorphism,
    verify_linear_identity,
)

FANO = ("P2", "F0", "F1", "dP2", "dP3")


def verdict(n, label, ok):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_golden_superpotentials(bundled):
    ok = True
    for name in BUNDLED_NON_FANO:
        _, spec = bundled[name]
        t0 = time.monotonic()
        w = superpotential(spec).w
        elapsed = time.monotonic() - t0
        expected = build_unit(spec.k, EXPECTED_W[name])
        ok = ok and w == expected
        ok = ok and canonical_string(w) == canonical_string(expected)
        ok = ok and elapsed < 1.0
    verdict(1, "golden superpotentials, bit-exact, < 1 s each", ok)


def test_criterion_2_fano_degeneration(bundled):
    ok = True
    for name in FANO:
        _, spec = bundled[name]
        sp = superpotential(spec)
        ok = ok and sp.w == hori_vafa(spec)
        ok = ok and all(b.alpha == (0,) * spec.fan.d for b, _ in sp.classes)
    verdict(2, "Fano surfaces have W = W0 exactly", ok)


def test_criterion_3_x3_worked_example(bundled):
    fan, spec = bundled["X3"]
    t0 = time.monotonic()
    k = spec.k
    ok = all(
        psi_divisor(spec, unit_vector(6, i)) == build_signed(k, X3_PSI[i - 1])
        for i in range(1, 7)
    )
    el = quantum_product(fan, spec, 2, 4)
    a = QPoly.monomial(k, (1, 0, 1, 1))
    b = QPoly.monomial(k, (1, 1, 1, 1))
    scalar = QPoly.monomial(k, (1, 0, 1, 2)) + QPoly.monomial(k, (1, 1, 1, 2), -1)
    ok = ok and el.scalar == scalar
    ok = ok and el.divisor == (a - b, a - b, b - a, -a, QPoly.zero(k), QPoly.zero(k))
    # psi(D2) psi(D4) equals psi of the product written on the published
    # representative q1q3q4(D1+D5+D6) - q1q2q3q4(D1+D4+D5+D6), exactly
    lhs = psi_divisor(spec, unit_vector(6, 2)) * psi_divisor(spec, unit_vector(6, 4))
    rhs = LaurentPoly(k, {(0, 0): scalar})
    for coord, coeff in ((1, a - b), (4, -b), (5, a - b), (6, a - b)):
        rhs = rhs + psi_divisor(spec, unit_vector(6, coord)).scale(coeff)
    ok = ok and (lhs - rhs).is_zero()
    ok = ok and time.monotonic() - t0 < 1.0
    verdict(3, "X3 worked example: psi images, D2*D4, exact identity", ok)


def test_criterion_4_symbolic_linear_identity(bundled):
    t0 = time.monotonic()
    ok = all(verify_linear_identity(spec) for _, spec in bundled.values())
    ok = ok and time.monotonic() - t0 < 1.0
    verdict(4, "psi(sum v_i^j D_i) = d_j W symbolically on all 16", ok)


def test_criterion_5_isomorphism_verification(bundled):
    t0 = time.monotonic()
    ok = True
    for name in BUNDLED_NON_FANO:
        report = verify_homomorphism(bundled[name][1])
        ok = ok and report.passed
        ok = ok and report.q_sample == default_q_sample(bundled[name][1].k)
        ok = ok and report.dimension == bundled[name][0].d
    # the dimension equality holds across the full list, P^2 included
    for name, (fan, spec) in bundled.items():
        ok = ok and jac_dimension(spec, default_q_sample(spec.k)) == fan.d
    ok = ok and time.monotonic() - t0 < 600.0
    verdict(5, "certified membership + Newton dim Jac = rank H* on all surfaces", ok)


def test_criterion_6_classification(bundled):
    t0 = time.monotonic()
    fans = classify_semi_fano(9)
    ok = len(fans) == 16
    ok = ok and sum(1 for f in fans if f.is_fano()) == 5
    non_fano = [f for f in fans if not f.is_fano()]
    for name in BUNDLED_NON_FANO:
        ok = ok and sum(1 for f in non_fano if fans_isomorphic(bundled[name][0], f)) == 1
    # X1 is the second Hirzebruch surface
    ok = ok and fans_isomorphic(bundled["X1"][0], Fan(((1, 0), (0, 1), (-1, 2), (0, -1))))
    ok = ok and time.monotonic() - t0 < 60.0
    verdict(6, "classification: 16 classes, 5 Fano, X1..X11 matched", ok)


def test_criterion_7_property_suites(bundled):
    ok = True
    # (a) admissible sequences against exhaustive brute force
    for length in range(1, 5):
        for center in range(length):
            admissible = {
                values
                for values in product(range(1, 6), repeat=length)
                if values[0] <= 1
                and values[-1] <= 1
                and all(
                    0 <= values[i + 1] - values[i] <= 1
                    for i in range(length - 1)
                    if i < center
                )
                and all(
                    -1 <= values[i + 1] - values[i] <= 0
                    for i in range(length - 1)
                    if i >= center
                )
            }
            generated = {part for part in _chain_parts(length, center) if all(part)}
            ok = ok and generated == admissible
    # (b) midpoint relation on every (-2)-chain of every bundled fan
    for fan, _ in bundled.values():
        for idx in fan.minus_two_chains():
            for j in range(len(idx)):
                prev = fan.ray(idx[j] - 1) if j == 0 else fan.ray(idx[j - 1])
                nxt = fan.ray(idx[j] + 1) if j == len(idx) - 1 else fan.ray(idx[j + 1])
                v = fan.ray(idx[j])
                ok = ok and (prev[0] + nxt[0], prev[1] + nxt[1]) == (2 * v[0], 2 * v[1])
    # (c) Noether-type sum
    for fan, _ in bundled.values():
        ok = ok and sum(fan.self_intersections()) == 12 - 3 * fan.d
    # (d) q -> 0 limit of every quantum product vanishes: strictly positive
    # area weight at the certified Kahler sample point
    for name, (fan, spec) in bundled.items():
        if fan.d == 3:
            continue
        for _, el in quantum_sr_relations(fan, spec):
            for qp in (el.scalar,) + el.divisor:
                for exps in qp.terms:
                    ok = ok and sum(e * t for e, t in zip(exps, spec.sample_point)) > 0
    # (e) Laurent ring axioms and the derivation law, >= 1000 randomized cases
    import random

    from sftoric.laurent import LaurentPoly as LP

    rng = random.Random(123)

    def rand_poly(k):
        p = LP.zero(k)
        for _ in range(rng.randrange(4)):
            ze = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            qp = QPoly.zero(k)
            for _ in range(rng.randrange(3)):
                exps = tuple(rng.randrange(-2, 3) for _ in range(k))
                qp = qp + QPoly.monomial(k, exps, rng.randrange(-3, 4))
            p = p + LP.monomial(k, ze, qp)
        return p

    cases = 0
    for _ in range(350):
        k = rng.randrange(0, 3)
        a, b, c = rand_poly(k), rand_poly(k), rand_poly(k)
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * b == b * a
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        for j in (1, 2):
            ok = ok and (a * b).log_derivative(j) == a.log_derivative(
                j
            ) * b + a * b.log_derivative(j)
        cases += 6
    ok = ok and cases >= 1000
    verdict(7, "property suites (a)-(e)", ok)
