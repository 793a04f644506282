import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sftoric.errors import OutOfRange, ParameterMismatch
from sftoric.laurent import LaurentPoly, QPoly, canonical_string, qpoly_string


def qmono(k, exps, c=1):
    return QPoly.monomial(k, exps, c)


def lp(k, *terms):
    out = LaurentPoly.zero(k)
    for ze, qp in terms:
        out = out + LaurentPoly.monomial(k, ze, qp)
    return out


def random_qpoly(rng, k):
    p = QPoly.zero(k)
    for _ in range(rng.randrange(3)):
        exps = tuple(rng.randrange(-2, 3) for _ in range(k))
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        p = p + qmono(k, exps, c)
    return p


def random_laurent(rng, k):
    p = LaurentPoly.zero(k)
    for _ in range(rng.randrange(4)):
        ze = (rng.randrange(-2, 3), rng.randrange(-2, 3))
        p = p + LaurentPoly.monomial(k, ze, random_qpoly(rng, k))
    return p


def test_mul_add_examples():
    k = 1
    z1 = lp(k, ((1, 0), QPoly.one(k)))
    z2 = lp(k, ((0, 1), QPoly.one(k)))
    assert z1 * z2 == lp(k, ((1, 1), QPoly.one(k)))
    one_plus_q = QPoly.one(k) + qmono(k, (1,))
    p = lp(k, ((1, 0), one_plus_q)) + lp(k, ((1, 0), QPoly.constant(k, -1)))
    assert p == lp(k, ((1, 0), qmono(k, (1,))))
    k = 2
    a = lp(k, ((0, -1), qmono(k, (1, 0)) + qmono(k, (1, 1))))
    z2 = lp(k, ((0, 1), QPoly.one(k)))
    assert a * z2 == lp(k, ((0, 0), qmono(k, (1, 0)) + qmono(k, (1, 1))))


def test_parameter_mismatch():
    with pytest.raises(ParameterMismatch):
        QPoly.one(1) + QPoly.one(2)
    with pytest.raises(ParameterMismatch):
        LaurentPoly.constant(1, 1) * LaurentPoly.constant(2, 1)
    # an exponent vector is a sequence: a set or a dict has no order
    for exps in (5, {5: "a", 7: "b"}, {1, 2}):
        with pytest.raises(ParameterMismatch, match="^exponent vector .* is not a sequence"):
            QPoly.monomial(2, exps)
        with pytest.raises(ParameterMismatch, match="^exponent vector .* is not a sequence"):
            LaurentPoly.monomial(2, exps)
    # a Laurent coefficient is a QPoly, not a rational or a LaurentPoly
    for c in (5, Fraction(1, 2), LaurentPoly.constant(1, 1)):
        with pytest.raises(ParameterMismatch, match="is not a QPoly"):
            LaurentPoly(1, {(0, 0): c})
    with pytest.raises(ParameterMismatch, match="is not a QPoly"):
        LaurentPoly.monomial(1, (1, 0), 3)
    # a coefficient is looked up at exactly two exact integers
    z1 = LaurentPoly.monomial(0, [1, 0])
    assert z1.coefficient([1, 0]) == z1.coefficient((Fraction(1), 0)) == QPoly.one(0)
    for key in ((1,), (1, 0, 0), 5, {1, 0}, (1.0, 0), ("1", 0)):
        with pytest.raises(ParameterMismatch, match="^exponent vector"):
            z1.coefficient(key)
    # the log-derivative index is an exact integer; an int off 1, 2 is out of range
    assert z1.log_derivative(Fraction(1)) == z1
    for j in (1.0, "1", None, Fraction(1, 2)):
        with pytest.raises(ParameterMismatch, match="^log-derivative index"):
            z1.log_derivative(j)
    with pytest.raises(OutOfRange):
        z1.log_derivative(0)


def test_parameter_count_is_an_exact_integer_at_least_zero():
    from sftoric import laurent

    constructors = (
        lambda k: QPoly(k, {}), lambda k: LaurentPoly(k, {}),
        QPoly.zero, LaurentPoly.zero, QPoly.one,
        lambda k: QPoly.constant(k, 1), lambda k: LaurentPoly.constant(k, 2),
        lambda k: QPoly.monomial(k, (1, 0)), lambda k: LaurentPoly.monomial(k, (1, 0)),
    )
    zeros = dict(laurent._ZEROS)
    for make in constructors:
        for k in (1.5, 2.0, "2", [1], None, Fraction(3, 2)):
            with pytest.raises(ParameterMismatch, match="^parameter count .* is not a sequence"):
                make(k)
        for k in (-1, -3, Fraction(-2)):
            with pytest.raises(ParameterMismatch, match=f"^parameter count {k} is negative$"):
                make(k)
    # no zero is cached for a refused k
    assert laurent._ZEROS == zeros
    # an integral Fraction is the int it equals
    assert QPoly(Fraction(2), {}) is QPoly.zero(Fraction(2)) is QPoly.zero(2)
    for p, q in ((QPoly.one(Fraction(2)), QPoly.one(2)),
                 (QPoly.monomial(Fraction(2), (1, 0)), QPoly.monomial(2, (1, 0))),
                 (LaurentPoly.constant(Fraction(1), 3), LaurentPoly.constant(1, 3))):
        assert p == q and type(p.k) is int


def test_sparse_constructor_and_guards():
    # a Laurent coefficient lives over the polynomial's own k
    with pytest.raises(ParameterMismatch, match="^coefficient over k=2 in a polynomial over k=1$"):
        LaurentPoly(1, {(0, 0): QPoly.one(2)})
    # an exponent vector of integral Fractions is normalised; a float is refused
    p = QPoly(2, {(Fraction(1), Fraction(-2)): 3})
    assert p == QPoly.monomial(2, (1, -2), 3)
    assert all(type(x) is int for e in p.terms for x in e)
    for e in ((1.0, 0), (Fraction(1, 2), 0)):
        with pytest.raises(ParameterMismatch, match="^exponent vector .* of exact integers$"):
            QPoly(2, {e: 1})
    # an exponent vector has k entries (QPoly) or two (LaurentPoly)
    with pytest.raises(ParameterMismatch, match=r"^exponent vector \(1,\) does not have length 2$"):
        QPoly(2, {(1,): 1})
    with pytest.raises(ParameterMismatch, match=r"^exponent vector \(1, 0, 0\) does not have"):
        LaurentPoly(0, {(1, 0, 0): QPoly.one(0)})
    # values are immutable
    for p in (QPoly.one(1), LaurentPoly.constant(1, 1)):
        for name in ("k", "_exps", "_coeffs", "other"):
            with pytest.raises(AttributeError, match=f"^{type(p).__name__} is immutable$"):
                setattr(p, name, 0)
    # the two polynomial types do not mix
    with pytest.raises(TypeError, match="^cannot combine QPoly with LaurentPoly$"):
        QPoly.one(1) + LaurentPoly.constant(1, 1)
    with pytest.raises(TypeError, match="^cannot combine LaurentPoly with QPoly$"):
        LaurentPoly.constant(1, 1) - QPoly.one(1)


def test_ring_axioms_randomized():
    # criterion asks for >= 1000 randomized cases in total
    rng = random.Random(2024)
    for _ in range(400):
        k = rng.randrange(0, 3)
        a, b, c = (random_laurent(rng, k) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero(k) == a
        assert a * LaurentPoly.constant(k, 1) == a
        assert (a - a).is_zero()


def test_log_derivative_examples():
    k = 1
    w = lp(
        k,
        ((1, 0), QPoly.one(k)),
        ((0, 1), QPoly.one(k)),
        ((-1, -1), qmono(k, (1,))),
    )
    assert w.log_derivative(1) == lp(
        k, ((1, 0), QPoly.one(k)), ((-1, -1), qmono(k, (1,), -1))
    )
    z1 = lp(k, ((1, 0), QPoly.one(k)))
    assert z1.log_derivative(2).is_zero()


def test_log_derivative_x3(bundled):
    # d_1 W for X3, written out term by term in the worked example's notation
    from sftoric.potential import superpotential

    _, spec = bundled["X3"]
    k = spec.k
    w = superpotential(spec).w
    expected = (
        lp(k, ((1, 0), QPoly.one(k) + qmono(k, (1, 0, 0, 0))))
        + lp(k, ((-1, -1), qmono(k, (1, 1, 2, 3), -1)))
        + lp(
            k,
            (
                (1, -1),
                qmono(k, (1, 0, 0, 1)) + qmono(k, (1, 0, 1, 1)) + qmono(k, (1, 1, 1, 1)),
            ),
        )
        + lp(k, ((2, -1), qmono(k, (1, 0, 0, 0), 2)))
    )
    assert w.log_derivative(1) == expected


def test_derivation_law_randomized():
    rng = random.Random(99)
    for _ in range(300):
        k = rng.randrange(0, 3)
        a, b = random_laurent(rng, k), random_laurent(rng, k)
        for j in (1, 2):
            lhs = (a * b).log_derivative(j)
            rhs = a.log_derivative(j) * b + a * b.log_derivative(j)
            assert lhs == rhs


def test_specialize_examples():
    k = 1
    p = lp(k, ((1, 0), QPoly.one(k) + qmono(k, (1,))))
    s = p.specialize_q([Fraction(1, 2)])
    assert s == LaurentPoly(0, {(1, 0): QPoly.constant(0, Fraction(3, 2))})
    q = QPoly.monomial(2, (2, 1))
    assert q.specialize([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 12)
    with pytest.raises(OutOfRange):
        p.specialize_q([Fraction(2)])
    with pytest.raises(OutOfRange):
        p.specialize_q([Fraction(0)])
    # specialize takes q-values in (0, 1) only, like specialize_q
    inverse = QPoly.monomial(1, (-1,), 3)
    assert inverse.specialize([Fraction(1, 2)]) == 6
    for bad in (0, 1, 2, Fraction(3, 2), -Fraction(1, 2)):
        with pytest.raises(OutOfRange):
            inverse.specialize([bad])


def test_specialize_is_ring_homomorphism():
    rng = random.Random(17)
    vals = [Fraction(1, 3), Fraction(2, 5)]
    for _ in range(300):
        a, b = random_laurent(rng, 2), random_laurent(rng, 2)
        assert (a + b).specialize_q(vals) == a.specialize_q(vals) + b.specialize_q(vals)
        assert (a * b).specialize_q(vals) == a.specialize_q(vals) * b.specialize_q(vals)


def test_canonical_string_examples():
    k = 1
    w = lp(
        k,
        ((1, 0), QPoly.one(k)),
        ((0, 1), QPoly.one(k)),
        ((-1, -1), qmono(k, (1,))),
    )
    assert canonical_string(w) == "q1*z1^-1*z2^-1 + z1 + z2"
    assert canonical_string(LaurentPoly.zero(3)) == "0"
    k = 2
    p = lp(k, ((0, -1), qmono(k, (1, 0)) + qmono(k, (1, 1))))
    assert canonical_string(p) == "(q1 + q1*q2)*z2^-1"
    # sign-aware joins and coefficient formats; terms sort by rendered string
    q = lp(
        k,
        ((1, 0), QPoly.one(k) - qmono(k, (1, 0))),
        ((0, 0), QPoly.constant(k, Fraction(-3, 2))),
        ((2, 0), qmono(k, (0, 1), -1)),
    )
    assert canonical_string(q) == "(1 - q1)*z1 + -3/2 + -q2*z1^2"


def test_canonical_string_refuses_what_is_not_a_laurent_poly():
    for p in (QPoly.one(1), None, "z1"):
        with pytest.raises(ParameterMismatch, match="is not a LaurentPoly$"):
            canonical_string(p)


def test_qpoly_string_order():
    k = 3
    p = QPoly.one(k) + qmono(k, (0, 1, 1)) + qmono(k, (0, 0, 1))
    assert qpoly_string(p) == "1 + q3 + q2*q3"


def parse_canonical(text, k):
    """Minimal inverse of canonical_string, used only for round-trip tests."""
    if text == "0":
        return LaurentPoly.zero(k)

    def parse_qmono(tok):
        c = Fraction(1)
        if tok.startswith("-"):
            c, tok = -c, tok[1:]
        exps = [0] * k
        for part in tok.split("*") if tok else []:
            if part.startswith("q"):
                if "^" in part:
                    var, e = part.split("^")
                    exps[int(var[1:]) - 1] = int(e)
                else:
                    exps[int(part[1:]) - 1] = 1
            else:
                c *= Fraction(part)
        return QPoly.monomial(k, tuple(exps), c)

    def parse_qpoly(body):
        total = QPoly.zero(k)
        sign = 1
        for chunk in re.split(r" ([+-]) ", body):
            if chunk == "+":
                sign = 1
            elif chunk == "-":
                sign = -1
            else:
                total = total + parse_qmono(chunk).scale(sign)
                sign = 1
        return total

    def parse_zmono(parts):
        ze = [0, 0]
        for zp in parts:
            if "^" in zp:
                var, e = zp.split("^")
                ze[int(var[1:]) - 1] = int(e)
            else:
                ze[int(zp[1:]) - 1] = 1
        return tuple(ze)

    # split into top-level terms (multi-term coefficients live inside parens)
    terms, cur = [], ""
    for piece in text.split(" + "):
        cur = cur + (" + " if cur else "") + piece
        if cur.count("(") == cur.count(")"):
            terms.append(cur)
            cur = ""
    assert not cur
    out = LaurentPoly.zero(k)
    for term in terms:
        if term.startswith("("):
            close = term.rindex(")")
            qp = parse_qpoly(term[1:close])
            rest = term[close + 1 :]
            ze = parse_zmono(rest.lstrip("*").split("*")) if rest else (0, 0)
        else:
            parts = term.split("*")
            zstart = next(
                (n for n, p in enumerate(parts) if p.lstrip("-").startswith("z")),
                len(parts),
            )
            mono, zparts = parts[:zstart], parts[zstart:]
            neg = False
            if zparts and zparts[0].startswith("-"):
                neg, zparts = True, [zparts[0][1:]] + zparts[1:]
            qp = parse_qmono("*".join(mono)) if mono else QPoly.one(k)
            if neg:
                qp = -qp
            ze = parse_zmono(zparts) if zparts else (0, 0)
        out = out + LaurentPoly.monomial(k, ze, qp)
    return out


def test_canonical_string_round_trip():
    rng = random.Random(31)
    for _ in range(300):
        k = rng.randrange(0, 3)
        p = random_laurent(rng, k)
        assert parse_canonical(canonical_string(p), k) == p


def test_canonical_string_injective_on_samples():
    rng = random.Random(47)
    seen = {}
    for _ in range(400):
        p = random_laurent(rng, 2)
        s = canonical_string(p)
        if s in seen:
            assert seen[s] == p
        seen[s] = p


# --- the kernel against a naive dict-of-Fraction reference ---

FRACTIONS = st.sampled_from(
    [Fraction(n, m) for n in range(-3, 4) for m in (1, 2, 3)]
)


def q_dicts(k):
    return st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * k), FRACTIONS, max_size=4
    )


def z_dicts(k):
    return st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), q_dicts(k), max_size=3
    )


def ref_q(d):
    return {e: Fraction(c) for e, c in d.items() if c}


def ref_z(d):
    out = {ze: ref_q(q) for ze, q in d.items()}
    return {ze: q for ze, q in out.items() if q}


def ref_q_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_q(out)


def ref_q_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_q(out)


def ref_z_add(a, b, sign=1):
    out = dict(a)
    for ze, q in b.items():
        out[ze] = ref_q_add(out.get(ze, {}), q, sign)
    return ref_z(out)


def ref_z_mul(a, b):
    out = {}
    for z1, q1 in a.items():
        for z2, q2 in b.items():
            ze = (z1[0] + z2[0], z1[1] + z2[1])
            out[ze] = ref_q_add(out.get(ze, {}), ref_q_mul(q1, q2))
    return ref_z(out)


def ref_specialize(d, qvals):
    total = Fraction(0)
    for e, c in d.items():
        for x, q in zip(e, qvals):
            c *= q**x
        total += c
    return total


def terms_q(p):
    return {e: Fraction(c) for e, c in p.terms.items()}


def terms_z(p):
    return {ze: terms_q(q) for ze, q in p.terms.items()}


def assert_clean_q(p, k):
    assert p.k == k
    if not p.terms:
        assert p is QPoly.zero(k)
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == k and all(type(x) is int for x in e)
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


def assert_clean_z(p, k):
    assert p.k == k
    for ze, q in p.terms.items():
        assert type(ze) is tuple and len(ze) == 2 and all(type(x) is int for x in ze)
        assert q.terms
        assert_clean_q(q, k)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data(), k=st.integers(0, 2), c=FRACTIONS, cancel=st.booleans())
def test_qpoly_kernel_matches_reference(data, k, c, cancel):
    da = data.draw(q_dicts(k))
    # with cancel, b is -a and the sum cancels to the shared zero
    db = {e: -v for e, v in da.items()} if cancel else data.draw(q_dicts(k))
    a, b = QPoly(k, da), QPoly(k, db)
    ra, rb = ref_q(da), ref_q(db)
    results = {
        "add": (a + b, ref_q_add(ra, rb)),
        "sub": (a - b, ref_q_add(ra, rb, -1)),
        "self-sub": (a - a, {}),
        "neg": (-a, {e: -v for e, v in ra.items()}),
        "mul": (a * b, ref_q_mul(ra, rb)),
        "scale": (a.scale(c), ref_q({e: c * v for e, v in ra.items()})),
        "rmul": (c * a, ref_q({e: c * v for e, v in ra.items()})),
    }
    for name, (got, want) in results.items():
        assert_clean_q(got, k)
        assert terms_q(got) == want, name
    assert a.scale(1) is a
    qvals = [Fraction(1, 2), Fraction(2, 3)][:k]
    assert a.specialize(qvals) == ref_specialize(ra, qvals)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data(), k=st.integers(0, 2), c=FRACTIONS, cancel=st.booleans())
def test_laurent_kernel_matches_reference(data, k, c, cancel):
    da = data.draw(z_dicts(k))
    if cancel:
        db = {ze: {e: -v for e, v in q.items()} for ze, q in da.items()}
    else:
        db = data.draw(z_dicts(k))
    dq = data.draw(q_dicts(k))
    a = LaurentPoly(k, {ze: QPoly(k, q) for ze, q in da.items()})
    b = LaurentPoly(k, {ze: QPoly(k, q) for ze, q in db.items()})
    qc = QPoly(k, dq)
    ra, rb, rq = ref_z(da), ref_z(db), ref_q(dq)
    results = {
        "add": (a + b, ref_z_add(ra, rb)),
        "sub": (a - b, ref_z_add(ra, rb, -1)),
        "neg": (-a, {ze: {e: -v for e, v in q.items()} for ze, q in ra.items()}),
        "mul": (a * b, ref_z_mul(ra, rb)),
        "scale": (a.scale(c), ref_z({ze: {e: c * v for e, v in q.items()} for ze, q in ra.items()})),
        "scale-qpoly": (a.scale(qc), ref_z({ze: ref_q_mul(q, rq) for ze, q in ra.items()})),
    }
    for j in (1, 2):
        results[f"log-derivative {j}"] = (
            a.log_derivative(j),
            ref_z({ze: {e: ze[j - 1] * v for e, v in q.items()} for ze, q in ra.items()}),
        )
    for name, (got, want) in results.items():
        assert_clean_z(got, k)
        assert terms_z(got) == want, name
    assert (a - a).terms == {}
    assert a.coefficient((9, 9)) is QPoly.zero(k)
    # .terms is a copy: writing into it changes neither type
    for p, key, value, text in (
        (a, (9, 9), QPoly.one(k), canonical_string),
        (qc, (9,) * k, 7, qpoly_string),
    ):
        twin, h, before = type(p)(k, p.terms), hash(p), text(p)
        p.terms[key] = value
        assert p == twin and hash(p) == h and text(p) == before
    assert LaurentPoly.zero(k) is LaurentPoly.zero(k)
    with pytest.raises(OutOfRange):
        a.log_derivative(3)
    qvals = [Fraction(1, 2), Fraction(2, 3)][:k]
    special = a.specialize_q(qvals)
    assert_clean_z(special, 0)
    assert {ze: q.specialize(()) for ze, q in special.terms.items()} == {
        ze: v for ze, q in ra.items() if (v := ref_specialize(q, qvals))
    }


def test_copy_and_pickle_round_trips(bundled):
    import copy
    import pickle

    from sftoric.disks import DiskClass
    from sftoric.potential import bulk_superpotential, superpotential
    from sftoric.quantum import quantum_product
    from sftoric.verifier import verify_homomorphism

    w = superpotential(bundled["X11"][1]).w
    values = [w, w.specialize_q([Fraction(1, 3)] * 7), LaurentPoly.zero(2),
              QPoly.one(3), QPoly.monomial(2, (1, -2), Fraction(-3, 4)), QPoly.zero(0)]
    round_trips = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))
    for f in round_trips:
        for v in values:
            out = f(v)
            assert type(out) is type(v) and out == v and hash(out) == hash(v)
    # the zero QPoly of each k stays the one shared object
    assert pickle.loads(pickle.dumps(QPoly.zero(4))) is QPoly.zero(4)
    assert copy.deepcopy(QPoly.zero(1)) is QPoly.zero(1)
    # the records: a pinned repr, a round trip and no assignment
    p2, f0 = bundled["P2"][1], bundled["F0"][1]
    records = {
        "DiskClass(i=2, alpha=(0, 1, 0, 0))": DiskClass(2, (0, 1, 0, 0)),
        "Superpotential(w=LaurentPoly('q1*z1^-1*z2^-1 + z1 + z2'), classes=("
        "(DiskClass(i=1, alpha=(0, 0, 0)), LaurentPoly('z1')), "
        "(DiskClass(i=2, alpha=(0, 0, 0)), LaurentPoly('z2')), "
        "(DiskClass(i=3, alpha=(0, 0, 0)), LaurentPoly('q1*z1^-1*z2^-1'))))": superpotential(p2),
        "BulkPotential(parts={1: LaurentPoly('z1'), 0: LaurentPoly('q1*z1^-1*z2^-1 + z2')})":
            bulk_superpotential(p2, 0, (1, 0, 0)),
        "QHElement(scalar=QPoly('q1'), divisor=(QPoly('0'), QPoly('0'), QPoly('0'), QPoly('0')))":
            quantum_product(f0.fan, f0, 1, 3),
        "VerificationReport(surface='F0', q_sample=(Fraction(1, 7), Fraction(1, 11)), "
        "linear_identity=True, relations=[((1, 3), True), ((2, 4), True)], dimension=4, "
        "expected_dimension=4)":
            verify_homomorphism(f0),
    }
    for text, record in records.items():
        assert repr(record) == text
        for f in round_trips:
            out = f(record)
            assert type(out) is type(record) and out == record and repr(out) == text
        first_field = text[text.index("(") + 1 : text.index("=")]
        with pytest.raises(AttributeError):
            setattr(record, first_field, None)
        with pytest.raises(AttributeError):
            record.extra = None
    b = DiskClass(2, (0, 1, 0, 0))
    assert hash(b) == hash((b.i, b.alpha)) == hash(pickle.loads(pickle.dumps(b)))
    assert repr(LaurentPoly.zero(1)) == "LaurentPoly('0')"
