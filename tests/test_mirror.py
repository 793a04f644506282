import pytest
from hypothesis import assume, given, settings, strategies as st

from mirror_oracle import mirror_mismatches
from presentations import GENERATORS, presentation
from sftoric.homology import gram_matrix, solve_linear
from sftoric.kahler import KahlerSpec
from sftoric.laurent import LaurentPoly, QPoly
from sftoric.potential import superpotential
from sftoric.surfaces import BUNDLED, BUNDLED_NON_FANO, load_bundled


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_w_satisfies_the_open_mirror_theorem(name):
    _, spec = load_bundled(name)
    assert mirror_mismatches(spec, superpotential(spec).w) == []


@pytest.mark.parametrize("name", BUNDLED_NON_FANO)
def test_presentations_satisfy_the_open_mirror_theorem(name):
    # every GL(2, Z) generator, a cyclic relabelling and a translated polytope
    k = load_bundled(name)[1].k
    for shift, M in enumerate(GENERATORS.values()):
        spec = presentation(name, M, shift, ((1,) * k, tuple(range(k))))
        assert mirror_mismatches(spec, superpotential(spec).w) == [], (name, M, shift)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(BUNDLED_NON_FANO),
    moves=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 6), st.sampled_from((-1, 1))), max_size=4
    ),
)
def test_random_kahler_rows_satisfy_the_open_mirror_theorem(name, moves):
    # three times the bundled rows with a few entries moved by one, kept when
    # every edge stays positive at the bundled sample point (rejecting other
    # rows costs a grid search); the theorem reads delta_i in the chain areas,
    # so it needs them independent
    fan, spec = load_bundled(name)
    rows = [[3 * c for c in row] for row in spec.rows]
    for j, l, step in moves:
        rows[j % fan.d][l % spec.k] += step
    heights = [sum(c * t for c, t in zip(row, spec.sample_point)) for row in rows]
    assume(all(sum(g * h for g, h in zip(line, heights)) > 0 for line in gram_matrix(fan)))
    spec = KahlerSpec(fan, rows, name)
    for chain in fan.minus_two_chains():
        lengths = [spec.edge_length(r) for r in chain]
        matrix = [[length[l] for length in lengths] for l in range(spec.k)]
        assume(solve_linear(matrix, [[]] * spec.k)[0] == len(chain))
    assert mirror_mismatches(spec, superpotential(spec).w) == []


@pytest.mark.parametrize("name", BUNDLED_NON_FANO)
def test_a_mutated_count_breaks_the_open_mirror_theorem(name):
    # dropping, doubling or raising the top term of one delta_i fails at i only
    fan, spec = load_bundled(name)
    w = superpotential(spec).w
    for chain in fan.minus_two_chains():
        for i in chain:
            v = fan.ray(i)
            exps = max(w.coefficient(v).terms, key=sum)
            top = LaurentPoly.monomial(spec.k, v, QPoly.monomial(spec.k, exps))
            raised = [x + y for x, y in zip(exps, spec.edge_length(i))]
            for mutated in (
                w - top,
                w + top,
                w + LaurentPoly.monomial(spec.k, v, QPoly.monomial(spec.k, raised)),
            ):
                assert mirror_mismatches(spec, mutated) == [i], (name, i)
