"""Expected outputs, taken from the repository's golden files, and the checks
that compare an op's outputs with them.

Superpotentials are compared as plain term tables,
``{z-exponent: {q-exponent: Fraction}}``, built without the package's own
arithmetic: the eleven non-Fano surfaces come from ``EXPECTED_W`` in
``tests/appendix_data.py`` (and their canonical strings from
``tests/golden/appendix_table.txt``); the five Fano surfaces have no sphere
corrections, so their W is the Hori-Vafa sum of ``q^C_i z^v_i`` over the rows
of their ``.fan`` file.  Both golden files are only read.
"""

from __future__ import annotations

import runpy
from fractions import Fraction
from pathlib import Path

Terms = dict  # {(e1, e2): {q-exponent tuple: Fraction}}


class CheckFailed(Exception):
    """An op produced an output that differs from the expected one."""


def read_fan(text: str):
    """(name, k, rays, rows) from surface-file text; bundled files only."""
    name, k, rays, rows = None, None, [], []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "surface":
            name = fields[1]
        elif fields[0] == "params":
            k = int(fields[1])
        elif fields[0] == "ray":
            rays.append((int(fields[1]), int(fields[2])))
            rows.append(tuple(int(f) for f in fields[4:]))
    return name, k, rays, rows


def _add(out: Terms, ze, qe, c) -> None:
    ze, qe = tuple(ze), tuple(qe)
    coeff = out.setdefault(ze, {})
    total = coeff.get(qe, 0) + Fraction(c)
    if total:
        coeff[qe] = total
    else:
        coeff.pop(qe, None)
        if not coeff:
            del out[ze]


def terms_of(poly) -> Terms:
    """Term table of a LaurentPoly."""
    return {ze: dict(qp.terms) for ze, qp in poly.terms.items()}


def hori_vafa_terms(rays, rows) -> Terms:
    out: Terms = {}
    for v, row in zip(rays, rows):
        _add(out, v, row, 1)
    return out


def transform_terms(terms: Terms, M, U) -> Terms:
    """W of the presentation: z^v -> z^(M v), times q^(-<M v, U>) per term.

    M is the lattice automorphism applied to the rays and U the 2 x k integer
    matrix of the t-linear translation of the moment polytope.
    """
    out: Terms = {}
    k = len(U[0])
    for (a, b), coeff in terms.items():
        w = (M[0][0] * a + M[0][1] * b, M[1][0] * a + M[1][1] * b)
        shift = [-(w[0] * U[0][l] + w[1] * U[1][l]) for l in range(k)]
        for qe, c in coeff.items():
            _add(out, w, [e + s for e, s in zip(qe, shift)], c)
    return out


def log_derivative_terms(terms: Terms, j: int) -> Terms:
    """z_j dW/dz_j."""
    out: Terms = {}
    for ze, coeff in terms.items():
        for qe, c in coeff.items():
            _add(out, ze, qe, c * ze[j - 1])
    return out


def weighted_sum(polys, weights) -> Terms:
    out: Terms = {}
    for poly, w in zip(polys, weights):
        for ze, coeff in terms_of(poly).items():
            for qe, c in coeff.items():
                _add(out, ze, qe, c * w)
    return out


class Golden:
    """Golden superpotentials of the sixteen bundled surfaces."""

    def __init__(self, root: Path):
        tests = root / "tests"
        self.table = {}
        for line in (tests / "golden" / "appendix_table.txt").read_text("utf-8").splitlines():
            if line.strip():
                name, body = line.split(": ", 1)
                self.table[name] = body
        self.table_text = (tests / "golden" / "appendix_table.txt").read_text("utf-8")
        expected_w = runpy.run_path(str(tests / "appendix_data.py"))["EXPECTED_W"]
        self.fan_texts = {}
        self.w: dict[str, Terms] = {}
        for path in sorted((root / "src" / "sftoric" / "data").glob("*.fan")):
            text = path.read_text("utf-8")
            name, k, rays, rows = read_fan(text)
            self.fan_texts[name] = text
            if name in expected_w:
                terms: Terms = {}
                for ze, monomials in expected_w[name]:
                    for qe in monomials:
                        _add(terms, ze, qe, 1)
                self.w[name] = terms
            else:
                self.w[name] = hori_vafa_terms(rays, rows)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_pipeline(result: dict, expected_w: Terms, d: int, golden_string=None) -> None:
    """Check the outputs of one in-process pipeline op.

    ``result`` holds ``w`` (LaurentPoly), ``w_string``, ``psi`` (one LaurentPoly
    per divisor), ``rays``, and either ``relations`` and ``report`` or
    ``linear_identity`` (P2).
    """
    expect(terms_of(result["w"]) == expected_w, "W differs from the expected terms")
    if golden_string is not None:
        expect(result["w_string"] == golden_string, "W string differs from the golden table")
    rays = result["rays"]
    psi = result["psi"]
    expect(len(psi) == d, "psi not computed for every divisor")
    for j in (1, 2):
        lhs = weighted_sum(psi, [v[j - 1] for v in rays])
        expect(
            lhs == log_derivative_terms(expected_w, j),
            f"sum of v_i^{j} psi(D_i) differs from z{j} dW/dz{j}",
        )
    if d == 3:
        expect(result["linear_identity"] is True, "linear identity failed on P2")
        return
    primitive = {
        (i, j)
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
        if (j - i) % d not in (1, d - 1)
    }
    expect({pr for pr, _ in result["relations"]} == primitive, "relations not on primitive pairs")
    report = result["report"]
    expect(report.passed, "verify verdict is not PASS")
    expect(report.dimension == d, f"dim Jac(W) = {report.dimension}, expected {d}")
    expect(len(report.relations) == len(primitive), "verify skipped relations")


def check_cli(argv, code: int, out: str, oracle, golden: Golden) -> None:
    """A CLI child's exit code and stdout against the in-process run."""
    expect(code == oracle[0], f"exit code {code}, in-process run gave {oracle[0]}")
    expect(out == oracle[1], "stdout differs from the in-process run")
    expect(code == 0, f"exit code {code}")
    command = argv[0]
    if command == "superpotential" and len(argv) == 2 and argv[1] in golden.table:
        expect(out.strip() == golden.table[argv[1]], "W string differs from the golden table")
    elif command == "table":
        expect(out == golden.table_text, "table differs from the golden table")
    elif command == "verify":
        expect(out.rstrip().endswith("RESULT PASS"), "verify verdict is not PASS")
