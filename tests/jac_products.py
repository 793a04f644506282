"""Quantum products read off Jac(W), used only by the tests.

psi is an isomorphism QH*(X) -> Jac(W) (Fukaya-Oh-Ohta-Ono, arXiv:0810.5654;
``verify`` checks it), so for a primitive pair D_i * D_j is the unique x in
H^0 + H^2 with psi(D_i) psi(D_j) - psi(x) in the Jacobian ideal, and by the
Newton-filtration argument of ``sftoric.verifier`` cofactors on the lattice
points of Delta (the origin and the rays) suffice.  This reference shares
only W and ``solve_linear`` with the package: it reads no disk or curve class
list, and it builds psi from W alone.

The weighted pass: let R_l be column l of the constant rows, read as a
divisor class, and L_1, L_2 the linear relations.  Every counted Z_b has
q-exponent <b, R_l> in q_l and z-exponent (<b, L_1>, <b, L_2>), so once
D = sum_l lam_l R_l + mu_1 L_1 + mu_2 L_2 is solved, psi(D) scales each
monomial q^e z^v of W by <lam, e> + <mu, v>.  That needs R and L to span
Q^d, as they do on every bundled surface and its presentations.
"""

from __future__ import annotations

from sftoric.homology import solve_linear
from sftoric.laurent import LaurentPoly, QPoly
from sftoric.verifier import default_q_sample


def psi_units(spec, w) -> list[LaurentPoly]:
    """psi(D_1), ..., psi(D_d) by the weighted pass over w, one solve for all."""
    fan, k, d = spec.fan, spec.k, spec.fan.d
    columns = [[row[l] for row in spec.rows] for l in range(k)]
    columns += [[v[j] for v in fan.rays] for j in (0, 1)]
    rank, weights = solve_linear(
        [[c[r] for c in columns] for r in range(d)],
        [[int(r == m) for m in range(d)] for r in range(d)],
    )
    assert rank == d, "the rows and the linear relations do not span the divisor classes"
    out = []
    for x in weights:
        lam, mu = x[:k], x[k:]
        terms = {}
        for v, coeff in w.terms.items():
            qp = QPoly.zero(k)
            for e, c in coeff.terms.items():
                weight = sum(a * b for a, b in zip(lam, e)) + mu[0] * v[0] + mu[1] * v[1]
                qp = qp + QPoly.monomial(k, e, c * weight)
            terms[v] = qp
        out.append(LaurentPoly(k, terms))
    return out


def jac_products(spec, w) -> dict:
    """(i, j) -> (scalar, coordinates on D_1..D_{d-2}) of D_i * D_j at the default sample.

    One elimination per surface: the columns are z^s g1 and z^s g2 for s in
    {0} and the rays (g_j = z_j dW/dz_j), then 1 and psi(D_m) for
    m = 1 .. d - 2, and each primitive pair is one right-hand side
    psi(D_i) psi(D_j).  The x part is asserted unique: the rank exceeds that
    of the cofactor columns alone by d - 1.
    """
    fan, d = spec.fan, spec.fan.d
    sample = default_q_sample(spec.k)
    psi = [p.specialize_q(sample) for p in psi_units(spec, w)]
    at = w.specialize_q(sample)
    ideal = (at.log_derivative(1), at.log_derivative(2))
    cofactors = [LaurentPoly.monomial(0, s) * g for g in ideal for s in [(0, 0), *fan.rays]]
    columns = cofactors + [LaurentPoly.constant(0, 1), *psi[: d - 2]]
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 2, d + 1) if j - i != d - 1]
    rhs = [psi[i - 1] * psi[j - 1] for i, j in pairs]
    rows = sorted({m for p in (*columns, *rhs) for m in p.terms})

    def dense(ps):
        return [[p.coefficient(m).specialize(()) for p in ps] for m in rows]

    base, _ = solve_linear(dense(cofactors), [[]] * len(rows))
    rank, solutions = solve_linear(dense(columns), dense(rhs))
    assert rank == base + d - 1, "psi(1), psi(D_1), ..., psi(D_{d-2}) are dependent in Jac(W)"
    n = len(cofactors)
    out = {}
    for pr, x in zip(pairs, solutions):
        assert x is not None, f"no x in H^0 + H^2 for the pair {pr}"
        out[pr] = (x[n], tuple(x[n + 1 :]))
    return out
