import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from appendix_data import EXPECTED_W, build_unit
from presentations import GENERATORS, presentation
from psi_reference import psi_by_pairing
from sftoric.disks import DiskClass, enumerate_admissible, open_gw
from sftoric.errors import (
    InvalidKahlerData,
    NonIntegralPairing,
    NotPrimitive,
    NotSemiFano,
    OutOfRange,
    ParameterMismatch,
)
from sftoric.fan import Fan
from sftoric.homology import linear_relations, solve_linear, unit_vector
from sftoric.kahler import KahlerSpec
from sftoric.laurent import LaurentPoly, QPoly, canonical_string
from sftoric.potential import (
    bulk_superpotential,
    hori_vafa,
    psi_divisor,
    superpotential,
    z_beta,
)
from sftoric.surfaces import BUNDLED, BUNDLED_NON_FANO, bundled_text, load_bundled, parse_surface
from sftoric.verifier import (
    default_q_sample,
    jac_dimension,
    verify_homomorphism,
    verify_linear_identity,
)


def dc(fan, i, **mult):
    alpha = [0] * fan.d
    for key, v in mult.items():
        alpha[int(key[1:]) - 1] = v
    return DiskClass(i, tuple(alpha))


def test_z_beta_examples(bundled):
    fan, x1 = bundled["X1"]
    assert z_beta(x1, DiskClass.basic(fan, 3)) == LaurentPoly.monomial(
        2, (-1, -2), QPoly.monomial(2, (2, 1))
    )
    fan3, x3 = bundled["X3"]
    assert z_beta(x3, dc(fan3, 4, D4=1)) == LaurentPoly.monomial(
        4, (0, -1), QPoly.monomial(4, (1, 1, 1, 2))
    )
    assert z_beta(x1, DiskClass.basic(fan, 1)) == LaurentPoly.monomial(
        2, (1, 0), QPoly.one(2)
    )


def test_z_beta_checks_its_disk_class_as_open_gw_does(bundled):
    fan, x3 = bundled["X3"]
    zero = (0,) * fan.d
    for i in (0, 99, -1):  # an index off 1..d is refused, not read cyclically
        with pytest.raises(ParameterMismatch, match=f"^basic index {i} is not a ray index 1..6$"):
            z_beta(x3, DiskClass(i, zero))
    for i in (1.5, "1", None):
        with pytest.raises(ParameterMismatch, match="^basic index .* is not a sequence of exact"):
            z_beta(x3, DiskClass(i, zero))
    with pytest.raises(ParameterMismatch, match="^sphere part"):
        z_beta(x3, DiskClass(1, (Fraction(1, 2),) + zero[1:]))
    with pytest.raises(ParameterMismatch):
        z_beta(x3, DiskClass(1, (0, 0)))  # one entry per ray
    for b in (DiskClass(0, zero), DiskClass(1.5, zero), DiskClass(1, (0, 0))):
        with pytest.raises(ParameterMismatch):
            open_gw(fan, b)
    # an integral Fraction is the integer it equals
    assert z_beta(x3, DiskClass(Fraction(4), zero)) == z_beta(x3, DiskClass(4, zero))


def test_superpotentials_match_published_tables(bundled):
    for name in BUNDLED_NON_FANO:
        _, spec = bundled[name]
        expected = build_unit(spec.k, EXPECTED_W[name])
        assert superpotential(spec).w == expected, name


def test_superpotential_p2(bundled):
    _, p2 = bundled["P2"]
    w = superpotential(p2).w
    assert canonical_string(w) == "q1*z1^-1*z2^-1 + z1 + z2"
    assert w == hori_vafa(p2)


def test_superpotential_rejects_non_semi_fano():
    fan = Fan(((1, 0), (0, 1), (-1, -3), (0, -1)))
    spec = KahlerSpec(fan, [(0, 0), (0, 0), (3, 1), (1, 0)])
    with pytest.raises(NotSemiFano):
        superpotential(spec)
    with pytest.raises(NotSemiFano):
        hori_vafa(spec)
    assert not spec._memo  # a raise stores nothing
    # the check sits in the enumeration itself, so the counts reject it too
    with pytest.raises(NotSemiFano, match="disk count formula"):
        enumerate_admissible(fan)
    with pytest.raises(NotSemiFano, match="disk count formula"):
        open_gw(fan, DiskClass.basic(fan, 1))


def test_provenance_records(bundled):
    for name in ("X1", "X3", "X11"):
        fan, spec = bundled[name]
        sp = superpotential(spec)
        total = LaurentPoly.zero(spec.k)
        for b, term in sp.classes:
            assert len(term.terms) == 1
            total = total + term
        assert total == sp.w
        assert [b for b, _ in sp.classes] == enumerate_admissible(fan)


def test_hori_vafa_examples(bundled):
    fan, x1 = bundled["X1"]
    w0 = hori_vafa(x1)
    # X1's W minus the single correction q1*q2/z2
    assert superpotential(x1).w - w0 == LaurentPoly.monomial(
        2, (0, -1), QPoly.monomial(2, (1, 1))
    )
    for name in ("P2", "F0", "F1", "dP2", "dP3"):
        _, spec = bundled[name]
        assert superpotential(spec).w == hori_vafa(spec), name


def test_corrections_vanish_deep_in_the_cone(bundled):
    # every correction monomial has strictly positive area at the sample point
    for name, (fan, spec) in bundled.items():
        diff = superpotential(spec).w - hori_vafa(spec)
        for ze, qp in diff.terms.items():
            for exps in qp.terms:
                weight = sum(e * t for e, t in zip(exps, spec.sample_point))
                assert weight > 0, (name, ze, exps)


def test_w_supported_on_ray_exponents(bundled):
    for name, (fan, spec) in bundled.items():
        assert set(superpotential(spec).w.terms) <= set(fan.rays), name


def test_bulk_trivial_cases(bundled):
    _, spec = bundled["X1"]
    w = superpotential(spec).w
    b0 = bulk_superpotential(spec, 0, None)
    assert b0.parts == {0: w}
    b5 = bulk_superpotential(spec, 5, (0, 0, 0, 0))
    assert b5.parts == {0: w + LaurentPoly.constant(spec.k, 5)}


def test_bulk_divisor_pairings(bundled):
    fan, spec = bundled["X1"]
    bulk = bulk_superpotential(spec, 0, (0, 0, 0, 1))  # D = D_4
    z = {i: z_beta(spec, DiskClass.basic(fan, i)) for i in (1, 2, 3, 4)}
    corr = z_beta(spec, dc(fan, 4, D4=1))
    assert bulk.parts[0] == z[1] + z[2] + z[3]
    assert bulk.parts[1] == z[4]  # <beta_4, D_4> = 1
    assert bulk.parts[-1] == corr  # <beta_4 + D_4, D_4> = 1 - 2 = -1
    text = bulk.canonical_string()
    assert text.startswith("exp(-1)*(") and "exp(1)*(" in text


def test_bulk_errors(bundled):
    _, spec = bundled["X1"]
    with pytest.raises(NonIntegralPairing):
        bulk_superpotential(spec, 0, (Fraction(1, 2), 0, 0, 0))
    with pytest.raises(ParameterMismatch, match="divisor class with 2 entries for 4 rays"):
        bulk_superpotential(spec, 0, (1, 0))


@settings(max_examples=72, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(BUNDLED)),
    bad=st.sampled_from([0.5, "1", None, Fraction(1, 2)]),
    data=st.data(),
)
def test_entries_must_be_exact(name, bad, data):
    # one entry swapped for a float, a str or None raises the site's
    # ToricError, and so does a non-integral Fraction where an integer is
    # needed; the same entry as an integral Fraction builds what the int builds.
    # Every site is checked in every example, at its own drawn entry.
    fan, spec = load_bundled(name)
    d, k = fan.d, spec.k
    ints = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    a = data.draw(st.integers(-2, 2))
    disk, w = enumerate_admissible(fan)[-1], superpotential(spec).w
    sites = {  # entries, what they build, error if not exact, error for 1/2
        "ray": (
            [x for v in fan.rays for x in v],
            lambda e: repr(Fan(list(zip(e[::2], e[1::2]))).rays),
            NotPrimitive,
            NotPrimitive,
        ),
        "row": (
            [x for row in spec.rows for x in row],
            lambda e: repr(KahlerSpec(fan, [e[r * k : (r + 1) * k] for r in range(d)]).rows),
            InvalidKahlerData,
            InvalidKahlerData,
        ),
        "psi divisor": (
            ints,
            lambda e: canonical_string(psi_divisor(spec, e)),
            ParameterMismatch,
            None,
        ),
        "bulk constant": (
            [a],
            lambda e: bulk_superpotential(spec, e[0], ints).canonical_string(),
            ParameterMismatch,
            None,
        ),
        "bulk divisor": (
            ints,
            lambda e: bulk_superpotential(spec, a, e).canonical_string(),
            ParameterMismatch,
            NonIntegralPairing,
        ),
        "q-sample": (
            list(default_q_sample(k)),
            lambda e: jac_dimension(spec, e),
            ParameterMismatch,
            None,
        ),
        "exponent": (
            ints[:k],
            lambda e: repr(QPoly.monomial(k, e)),
            ParameterMismatch,
            ParameterMismatch,
        ),
        "coefficient": (  # QPoly.constant takes the first entry, scale the second
            [a, ints[0]],
            lambda e: (repr(QPoly.constant(k, e[0])), canonical_string(w.scale(e[1]))),
            ParameterMismatch,
            None,
        ),
        "coefficient key": (
            list(fan.ray(1)),
            lambda e: repr(w.coefficient(e)),
            ParameterMismatch,
            ParameterMismatch,
        ),
        "linear system": (  # the entries of [M | B], two rows
            [*ints[:2], a, *ints[-2:], 1],
            lambda e: solve_linear([e[0:2], e[3:5]], [e[2:3], e[5:6]]),
            ParameterMismatch,
            None,
        ),
        "disk class": (
            [disk.i, *disk.alpha],
            lambda e: open_gw(fan, DiskClass(e[0], tuple(e[1:]))),
            ParameterMismatch,
            ParameterMismatch,
        ),
    }
    for site, (entries, build, error, half_error) in sites.items():
        pos = data.draw(st.integers(0, len(entries) - 1))

        def swapped(x):
            return build([x if n == pos else e for n, e in enumerate(entries)])

        assert swapped(Fraction(entries[pos])) == build(entries), site
        if isinstance(bad, Fraction):
            error = half_error
        if error is None:
            try:
                swapped(bad)  # a rational entry is accepted here
            except OutOfRange:
                assert site == "q-sample"  # q = 1/2 may leave the open Kahler cone
        else:
            with pytest.raises(error):
                swapped(bad)
    # a whole vector as text or bytes is refused at every vector site, though
    # bytes iterate as ints: the drawn entries, made non-negative
    small = [abs(x) for x in ints]
    for wrap in (bytes, bytearray, lambda v: memoryview(bytes(v)), lambda v: "".join(map(str, v))):
        for call in (
            lambda v: psi_divisor(spec, v),
            lambda v: bulk_superpotential(spec, a, v),
            lambda v: open_gw(fan, DiskClass(disk.i, v)),
            lambda v: QPoly.monomial(k, v[:k]),
            lambda v: w.coefficient(v[:2]),
            lambda v: solve_linear([v[:2]], [[1]]),
        ):
            with pytest.raises(ParameterMismatch):
                call(wrap(small))


def _psi_cases(spec):
    # the unit vectors, both L_j and one rational class
    d = spec.fan.d
    rational = tuple(Fraction(i - 2, 3 + i % 2) for i in range(d))
    return [unit_vector(d, i) for i in range(1, d + 1)] + [*linear_relations(spec.fan), rational]


@pytest.mark.parametrize("generator", [None, *GENERATORS])
def test_psi_is_the_pairing_sum(bundled, generator):
    # the bundled files, then each generator on every seventh surface with
    # shifted rows and a translated polytope
    names = sorted(BUNDLED)
    if generator is not None:
        j = list(GENERATORS).index(generator)
        names = names[j :: len(GENERATORS)]
    for name in names:
        spec = bundled[name][1]
        if generator is not None:
            U = ((1,) * spec.k, tuple(range(spec.k)))
            spec = presentation(name, GENERATORS[generator], shift=1, U=U)
        for D in _psi_cases(spec):
            assert psi_divisor(spec, D) == psi_by_pairing(spec, D), (name, generator, D)


def test_psi_of_the_first_chern_class_is_w(bundled):
    # every counted sphere part has c_1 = 0, so <b, c_1> = 1 for every b:
    # on each bundled surface and its image under each generator
    for name in sorted(BUNDLED):
        spec = bundled[name][1]
        specs = [spec] + [
            presentation(name, M, shift=1, U=((1,) * spec.k, tuple(range(spec.k))))
            for M in GENERATORS.values()
        ]
        for s in specs:
            assert psi_divisor(s, (1,) * s.fan.d) == superpotential(s).w, (name, s.fan)


def test_w_is_built_once_per_spec(monkeypatch):
    # after one W the spec holds it: psi, the bulk potential and the checks
    # read it and never build a Z_b again, with the values of a fresh spec
    import sftoric.potential as potential

    def values(spec):
        d, k = spec.fan.d, spec.k
        return (
            [psi_divisor(spec, D) for D in _psi_cases(spec)],
            hori_vafa(spec),
            bulk_superpotential(spec, Fraction(1, 2), unit_vector(d, d)).canonical_string(),
            verify_linear_identity(spec),
            d > 3 and verify_homomorphism(spec),
            jac_dimension(spec, default_q_sample(k)),
        )

    def refuse(spec, b):
        raise AssertionError("Z_b built again")

    for name in ("P2", "X3", "X11"):
        spec = load_bundled(name)[1]
        # load_bundled shares its spec, so the reference values come from a fresh one
        expected = values(parse_surface(bundled_text(name))[1])
        sp = superpotential(spec)
        with monkeypatch.context() as m:
            m.setattr(potential, "z_beta", refuse)
            assert superpotential(spec) is sp
            assert values(spec) == expected, name
        # copy and pickle rebuild the spec without the stored W
        for twin in (copy.copy(spec), pickle.loads(pickle.dumps(spec))):
            assert not twin._memo
            assert superpotential(twin) == sp and superpotential(twin) is not sp


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(sorted(BUNDLED)),
    entries=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
)
def test_bulk_parts_sum_to_w_and_weight_to_psi(name, entries):
    # at e = 0 the bulk potential W_{eD} is W, and its first-order part is psi(D)
    _, spec = load_bundled(name)
    d = spec.fan.d
    D = tuple(entries[:d])
    parts = bulk_superpotential(spec, 0, D).parts
    assert sum(parts.values(), LaurentPoly.zero(spec.k)) == superpotential(spec).w
    weighted = sum((p.scale(m) for m, p in parts.items()), LaurentPoly.zero(spec.k))
    assert weighted == psi_divisor(spec, D) == psi_by_pairing(spec, D)
    # the length is checked before integrality
    with pytest.raises(ParameterMismatch):
        bulk_superpotential(spec, 0, (Fraction(1, 2),) + D)
