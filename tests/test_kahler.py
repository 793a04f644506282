import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from presentations import GENERATORS, presentation
from sftoric.errors import DegenerateEdge, InvalidKahlerData, ParameterMismatch
from sftoric.fan import Fan
from sftoric.kahler import KahlerSpec
from sftoric.surfaces import BUNDLED, load_bundled


def value_at(form, t):
    """Value of the integer linear form sum_l form[l] * t_l at the point t."""
    return sum(a * x for a, x in zip(form, t))


def combine(m, x, n, y):
    """The form m x + n y."""
    return tuple(m * a + n * b for a, b in zip(x, y))


# --- reference: the moment polytope's vertices by Cramer's rule ---


def facet_constant(spec, i):
    """c_i of the facet <v_i, x> >= c_i, as a form in the t_l (c_i = -row_i)."""
    return tuple(-a for a in spec.rows[(i - 1) % spec.d])


def vertex(spec, i):
    """Vertex on facets i and i+1: solves <v_i,x> = c_i, <v_{i+1},x> = c_{i+1}.

    The facet normals form a basis with determinant one, so the solution
    is an integer form (Cramer with the adjugate).
    """
    u, w = spec.fan.ray(i), spec.fan.ray(i + 1)
    ci, cj = facet_constant(spec, i), facet_constant(spec, i + 1)
    return combine(w[1], ci, -u[1], cj), combine(u[0], cj, -w[0], ci)


def assert_edges_match_vertices(spec):
    """Edge i runs from vertex i-1 to vertex i along (v_i^2, -v_i^1) for edge_length(i)."""
    for i in range(1, spec.d + 1):
        a, b = vertex(spec, i - 1), vertex(spec, i)
        v = spec.fan.ray(i)
        length = spec.edge_length(i)
        assert combine(1, b[0], -1, a[0]) == tuple(v[1] * x for x in length), i
        assert combine(1, b[1], -1, a[1]) == tuple(-v[0] * x for x in length), i


def test_vertex_examples(bundled):
    _, x1 = bundled["X1"]
    # facets 3 and 4 meet at (t2, t1)
    assert vertex(x1, 3) == ((0, 1), (1, 0))
    _, p2 = bundled["P2"]
    assert vertex(p2, 1) == ((0,), (0,))
    _, x3 = bundled["X3"]
    # facets 4 and 5 meet at (t3 + t4, t1 + t3 + 2 t4)
    assert vertex(x3, 4) == ((0, 0, 1, 1), (1, 0, 1, 2))


def test_vertex_satisfies_facet_equations(bundled):
    for name, (fan, spec) in bundled.items():
        for i in range(1, fan.d + 1):
            x = vertex(spec, i)
            for j in (i, i + 1):
                v = fan.ray(j)
                lhs = combine(v[0], x[0], v[1], x[1])
                assert lhs == facet_constant(spec, j), (name, i, j)


def test_vertices_inside_polytope_at_sample(bundled):
    for name, (fan, spec) in bundled.items():
        t = spec.sample_point
        for i in range(1, fan.d + 1):
            x = [value_at(c, t) for c in vertex(spec, i)]
            for j in range(1, fan.d + 1):
                v = fan.ray(j)
                assert v[0] * x[0] + v[1] * x[1] >= value_at(facet_constant(spec, j), t), (
                    name, i, j,
                )


def test_edge_lengths_match_the_polytope_vertices(bundled):
    # edge_length comes from the intersection form: L_i = omega . D_i
    for name, (_, spec) in bundled.items():
        assert_edges_match_vertices(spec)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(BUNDLED),
    generator=st.sampled_from(sorted(GENERATORS)),
    shift=st.integers(0, 8),
    entries=st.lists(st.sampled_from((-1, 0, 1)), min_size=16, max_size=16),
)
def test_edge_lengths_match_the_vertices_of_presentations(name, generator, shift, entries):
    fan, base = load_bundled(name)
    U = (tuple(entries[: base.k]), tuple(entries[8 : 8 + base.k]))
    spec = presentation(name, GENERATORS[generator], shift % fan.d, U)
    assert_edges_match_vertices(spec)


def test_edge_length_examples(bundled):
    _, x3 = bundled["X3"]
    assert x3.edge_length(4) == (0, 1, 0, 0)
    assert x3.edge_length(5) == (0, 0, 1, 0)
    _, p2 = bundled["P2"]
    assert p2.edge_length(1) == (1,)


def test_edge_lengths_positive_at_sample(bundled):
    for name, (fan, spec) in bundled.items():
        for i in range(1, fan.d + 1):
            assert value_at(spec.edge_length(i), spec.sample_point) > 0, (name, i)


def test_x7_needs_off_diagonal_sample(bundled):
    _, x7 = bundled["X7"]
    assert x7.sample_point == (1, 1, 2, 1, 1)
    assert sum(x7.edge_length(2)) == 0  # degenerate on the diagonal
    others = [n for n in ("X1", "X3", "X8", "X10", "X11")]
    for name in others:
        assert bundled[name][1].sample_point == (1,) * bundled[name][1].k


def test_polygon_closes(bundled):
    # sum of edge lengths times primitive edge directions vanishes
    for name, (fan, spec) in bundled.items():
        total = ((0,) * spec.k, (0,) * spec.k)
        for i in range(1, fan.d + 1):
            v = fan.ray(i)
            e = spec.edge_length(i)
            total = (combine(1, total[0], v[1], e), combine(1, total[1], -v[0], e))
        assert not any(total[0]) and not any(total[1]), name


def test_curve_area_examples(bundled):
    fan, x3 = bundled["X3"]
    assert x3.curve_area((0, 0, 0, 1, 0, 0)) == (0, 1, 0, 0)
    assert x3.curve_area((0,) * 6) == (0, 0, 0, 0)
    assert x3.curve_area((0, 0, 0, 1, 1, 0)) == (0, 1, 1, 0)


def test_curve_area_additive(bundled):
    fan, spec = bundled["X8"]
    rng = random.Random(3)
    for _ in range(50):
        a = tuple(rng.randrange(4) for _ in range(fan.d))
        b = tuple(rng.randrange(4) for _ in range(fan.d))
        ab = tuple(x + y for x, y in zip(a, b))
        assert spec.curve_area(ab) == combine(1, spec.curve_area(a), 1, spec.curve_area(b))


def test_disk_coefficient_examples(bundled):
    _, x1 = bundled["X1"]
    assert x1.disk_coefficient(3) == (2, 1)
    assert x1.disk_coefficient(1) == (0, 0)
    _, x3 = bundled["X3"]
    assert x3.disk_coefficient(4) == (1, 0, 1, 2)  # q1 q3 q4^2
    _, x7 = bundled["X7"]
    assert x7.disk_coefficient(3) == (-1, 1, 1, 0, -1)  # negative entries occur


def test_invalid_kahler_data():
    fan = Fan(((1, 0), (0, 1), (-1, -1)))
    with pytest.raises(DegenerateEdge, match="^edge 1 has identically zero length$"):
        KahlerSpec(fan, [(0,), (0,), (0,)])  # point polytope, all edges zero
    with pytest.raises(DegenerateEdge, match="^edge 1 has identically zero length$"):
        KahlerSpec(fan, [(), (), ()])  # no parameters: every edge form is empty
    with pytest.raises(InvalidKahlerData, match="^2 constant rows for a fan with 3 rays$"):
        KahlerSpec(fan, [(0,), (0,)])  # row count
    # rows of unequal width: the first that differs from row 1 is named
    with pytest.raises(InvalidKahlerData, match=r"^row 2 \(1,\) does not have 2 entries like row 1$"):
        KahlerSpec(fan, [(0, 0), (1,), (1, 2, 3)])
    # rows that are not a sequence: a set has no order and drops repeated rows
    for rows in (5, {(1,), (2,), (3,)}, iter([(1,), (1,), (1,)])):
        with pytest.raises(InvalidKahlerData, match="^rows .* are not a sequence$"):
            KahlerSpec(fan, rows)
    with pytest.raises(InvalidKahlerData, match="^no small positive integer point"):
        # a valid t-form mix that is never positive: c3 with the wrong sign
        KahlerSpec(fan, [(0,), (0,), (-1,)])
    # a segment: F0 with only D2 weighted; the first zero edge is edge 2
    f0 = Fan(((1, 0), (0, 1), (-1, 0), (0, -1)))
    with pytest.raises(DegenerateEdge, match="^edge 2 has identically zero length$"):
        KahlerSpec(f0, [(0, 0), (1, 0), (0, 0), (0, 0)])


def test_curve_area_length_mismatch(bundled):
    _, x3 = bundled["X3"]
    with pytest.raises(ParameterMismatch):
        x3.curve_area((1, 0))
    for alpha in (5, {1, 2, 3, 4, 5, 6}):  # not a sequence
        with pytest.raises(ParameterMismatch, match="is not a sequence$"):
            x3.curve_area(alpha)


def test_curve_area_takes_exact_integers_only(bundled):
    _, x3 = bundled["X3"]
    for alpha in ((1.5, 0, 0, 0, 0, 0), (1.0, 0, 0, 0, 0, 0), ("1", 0, 0, 0, 0, 0),
                  (Fraction(1, 2), 0, 0, 0, 0, 0)):
        with pytest.raises(ParameterMismatch, match="^curve class"):
            x3.curve_area(alpha)
    # integral Fractions are integers
    assert x3.curve_area((Fraction(1), 0, 0, 0, 0, 0)) == x3.curve_area((1, 0, 0, 0, 0, 0))


def test_spec_accessors_take_exact_integer_indices(bundled):
    _, x3 = bundled["X3"]
    for accessor in (x3.edge_length, x3.disk_coefficient):
        for i in (1.5, "1", 1.0, None, Fraction(1, 2)):
            with pytest.raises(ParameterMismatch, match="^ray index"):
                accessor(i)
        # integral Fractions are integers, and the index stays cyclic
        assert accessor(Fraction(2)) == accessor(2) == accessor(2 + x3.d)


def test_kahler_spec_copy_and_pickle_round_trip(bundled):
    for name in ("F0", "X3", "X7"):
        fan, spec = bundled[name]
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert type(twin) is KahlerSpec and twin.fan == fan, name
            assert (twin.k, twin.rows, twin.name) == (spec.k, spec.rows, spec.name), name
            assert twin.sample_point == spec.sample_point, name
            assert [twin.edge_length(i) for i in range(1, fan.d + 1)] == [
                spec.edge_length(i) for i in range(1, fan.d + 1)
            ], name
            with pytest.raises(AttributeError, match="KahlerSpec is immutable"):
                twin.k = 0
