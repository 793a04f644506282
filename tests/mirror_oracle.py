"""The open mirror theorem as a check of W, independent of the disk enumeration.

For a semi-Fano toric surface Chan-Lau-Leung-Tseng (arXiv:1209.6119) and
Gonzalez-Iritani (arXiv:1103.4171) give the sphere corrections of W in closed
form.  Write the coefficient of z^{v_i} in W as q^{C_i} (1 + delta_i(q)).  For
a ray i on a (-2)-chain, with one variable y_r per ray r of that chain,

    1 + delta_i(Q(y)) = exp g_i(y),
    g_i(y) = sum_d (-1)^{D_i.d} (-D_i.d - 1)! / prod_{j != i} (D_j.d)! y^d,
    Q_r(y) = y_r exp(-sum_j g_j(y) D_j.D_r),

where d = sum_r d_r D_r runs over the nonzero classes supported on the chain
with D_i.d < 0 and D_j.d >= 0 for every other ray j (classes meeting two
chains have some D_j.d < 0 on each, so they never enter), and Q_r = q^{L_r}
is the q-monomial of the area L_r of D_r.  Both sides are compared as exact
power series in y truncated above a total degree beyond every admissible
multiplicity, so every higher term of delta_i must vanish too.

delta_i is read off the polynomial W itself: each q-exponent of
W.coefficient(v_i) / q^{C_i} is written in the chain's edge lengths L_r,
which are linearly independent, so a wrong, missing or doubled count shows.
Only Fraction and truncated multivariate series are used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from sftoric.homology import gram_matrix, solve_linear

Series = dict  # exponent tuple in the chain variables -> nonzero Fraction


def _mul(a: Series, b: Series, top: int) -> Series:
    out: Series = {}
    for ea, ca in a.items():
        da = sum(ea)
        for eb, cb in b.items():
            if da + sum(eb) <= top:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _exp(g: Series, n: int, top: int) -> Series:
    """exp g for a series g without constant term, truncated above degree top."""
    one = {(0,) * n: Fraction(1)}
    out, power = dict(one), one
    for k in range(1, top + 1):
        power = {e: c / k for e, c in _mul(power, g, top).items()}
        for e, c in power.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _g_series(gram, chain: tuple[int, ...], top: int) -> dict[int, Series]:
    """g_i(y) for every ray i of the chain, truncated above degree top."""
    n, d = len(chain), len(gram)
    g: dict[int, Series] = {i: {} for i in chain}
    for e in product(range(top + 1), repeat=n):
        if not 0 < sum(e) <= top:
            continue
        pairing = [sum(m * gram[j][r - 1] for m, r in zip(e, chain)) for j in range(d)]
        negative = [j for j in range(d) if pairing[j] < 0]
        if len(negative) != 1:
            continue
        i = negative[0]
        coeff = Fraction((-1) ** pairing[i] * factorial(-pairing[i] - 1))
        for j in range(d):
            if j != i:
                coeff /= factorial(pairing[j])
        g[i + 1][e] = coeff
    return g


def _delta_exponents(spec, w, chain: tuple[int, ...], i: int):
    """1 + delta_i read off w as {chain multiplicities: coefficient}, or None.

    None when some q-exponent is not an integer combination of the chain's
    edge lengths.
    """
    base = spec.disk_coefficient(i)
    lengths = [spec.edge_length(r) for r in chain]
    matrix = [[length[l] for length in lengths] for l in range(spec.k)]
    out = {}
    for exps, c in w.coefficient(spec.fan.ray(i)).terms.items():
        rhs = [[x - y] for x, y in zip(exps, base)]
        rank, (sol,) = solve_linear(matrix, rhs)
        assert rank == len(chain)  # the edge lengths of a chain are independent
        if sol is None or any(x.denominator != 1 or x < 0 for x in sol):
            return None
        out[tuple(int(x) for x in sol)] = c
    return out


@lru_cache(maxsize=None)
def _mirror_side(gram: tuple, chain: tuple[int, ...]):
    """(top, [Q_r(y) per chain ray r], {i: exp g_i(y)}), truncated above degree top."""
    n = len(chain)
    # an admissible sequence on n rays has total multiplicity <= (n+1)^2/4
    top = max(2 * n + 2, (n + 1) ** 2 // 4 + 1)
    g = _g_series(gram, chain, top)
    q = []
    for r in chain:
        arg: Series = {}
        for j in chain:
            for e, c in g[j].items():
                arg[e] = arg.get(e, 0) - c * gram[j - 1][r - 1]
        unit = tuple(int(s == r) for s in chain)
        q.append(_mul({unit: Fraction(1)}, _exp(arg, n, top), top))
    return top, q, {i: _exp(g[i], n, top) for i in chain}


@lru_cache(maxsize=None)
def _q_power(gram: tuple, chain: tuple[int, ...], mult: tuple[int, ...]) -> Series:
    """prod_r Q_r(y)^{mult_r}, truncated as in ``_mirror_side``."""
    top, q, _ = _mirror_side(gram, chain)
    if not any(mult):
        return {mult: Fraction(1)}
    r = next(p for p, m in enumerate(mult) if m)
    lower = mult[:r] + (mult[r] - 1,) + mult[r + 1 :]
    return _mul(_q_power(gram, chain, lower), q[r], top)


def mirror_mismatches(spec, w) -> list[int]:
    """The chain rays i at which w breaks 1 + delta_i(Q(y)) = exp g_i(y)."""
    gram = tuple(map(tuple, gram_matrix(spec.fan)))
    bad = []
    for chain in spec.fan.minus_two_chains():
        top, _, exp_g = _mirror_side(gram, chain)
        for i in chain:
            delta = _delta_exponents(spec, w, chain, i)
            if not delta or max(map(sum, delta)) >= top:
                bad.append(i)
                continue
            lhs: Series = {}
            for mult, c in delta.items():
                for e, x in _q_power(gram, chain, mult).items():
                    lhs[e] = lhs.get(e, 0) + c * x
            if {e: x for e, x in lhs.items() if x} != exp_g[i]:
                bad.append(i)
    return bad
