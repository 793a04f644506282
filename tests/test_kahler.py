import random

import pytest

from sftoric.errors import DegenerateEdge, InvalidKahlerData, ParameterMismatch
from sftoric.fan import Fan
from sftoric.kahler import KahlerSpec


def value_at(form, t):
    """Value of the integer linear form sum_l form[l] * t_l at the point t."""
    return sum(a * x for a, x in zip(form, t))


def combine(m, x, n, y):
    """The form m x + n y."""
    return tuple(m * a + n * b for a, b in zip(x, y))


def test_vertex_examples(bundled):
    _, x1 = bundled["X1"]
    # facets 3 and 4 meet at (t2, t1)
    assert x1.vertex(3) == ((0, 1), (1, 0))
    _, p2 = bundled["P2"]
    assert p2.vertex(1) == ((0,), (0,))
    _, x3 = bundled["X3"]
    # facets 4 and 5 meet at (t3 + t4, t1 + t3 + 2 t4)
    assert x3.vertex(4) == ((0, 0, 1, 1), (1, 0, 1, 2))


def test_vertex_satisfies_facet_equations(bundled):
    for name, (fan, spec) in bundled.items():
        for i in range(1, fan.d + 1):
            x = spec.vertex(i)
            for j in (i, i + 1):
                v = fan.ray(j)
                lhs = combine(v[0], x[0], v[1], x[1])
                assert lhs == spec.c(j), (name, i, j)


def test_vertices_inside_polytope_at_sample(bundled):
    for name, (fan, spec) in bundled.items():
        t = spec.sample_point
        for i in range(1, fan.d + 1):
            x = [value_at(c, t) for c in spec.vertex(i)]
            for j in range(1, fan.d + 1):
                v = fan.ray(j)
                assert v[0] * x[0] + v[1] * x[1] >= value_at(spec.c(j), t), (name, i, j)


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
    with pytest.raises(DegenerateEdge):
        KahlerSpec(fan, 1, [(0,), (0,), (0,)])  # point polytope, all edges zero
    with pytest.raises(InvalidKahlerData):
        KahlerSpec(fan, 1, [(0,), (0,)])  # row count
    with pytest.raises(InvalidKahlerData):
        KahlerSpec(fan, 2, [(0,), (0,), (1,)])  # row width
    with pytest.raises(InvalidKahlerData):
        # a valid t-form mix that is never positive: c3 with the wrong sign
        KahlerSpec(fan, 1, [(0,), (0,), (-1,)])


def test_curve_area_length_mismatch(bundled):
    _, x3 = bundled["X3"]
    with pytest.raises(ParameterMismatch):
        x3.curve_area((1, 0))
