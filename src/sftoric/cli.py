"""Command line interface.

Exit codes: 0 on success, 1 when a verification fails, 2 on input errors.
A FILE argument is a path to a surface file; a bare bundled name (P2, F0,
F1, dP2, dP3, X1..X11) also works.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .errors import IsP2, ToricError
from .fan import classify_semi_fano
from .homology import unit_vector
from .laurent import canonical_string, term_string
from .potential import bulk_superpotential, hori_vafa, psi_divisor, superpotential
from .quantum import QHElement, quantum_sr_relations
from .surfaces import BUNDLED, BUNDLED_NON_FANO, load_bundled, parse_surface_file
from .verifier import verify_homomorphism, verify_linear_identity


# an integer, a/b or a plain decimal; Fraction would also expand exponents
_RATIONAL = re.compile(r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+|\d+\.)\s*")


def _rational(text: str, option: str) -> Fraction:
    """The value of an option such as --q; ValueError (exit 2) off the forms above.

    A value past the interpreter's limit on integer digits or with a zero
    denominator is refused by name.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text.strip()!r} is not an integer, a/b or a plain decimal")
    try:
        return Fraction(text)
    except ValueError:
        digits = sum(c.isdigit() for c in text)
        raise ValueError(f"{option} value with {digits} digits is too long") from None
    except ZeroDivisionError:
        raise ValueError(f"{option} value {text.strip()!r} has a zero denominator") from None


def _load(path: str):
    if not os.path.exists(path) and path in BUNDLED:
        return load_bundled(path)
    return parse_surface_file(path)


def _qh_string(el: QHElement) -> str:
    # a coefficient is wrapped in parentheses as in W: term_string at z^0
    chunks = [] if el.scalar.is_zero() else [term_string((0, 0), el.scalar)]
    for coord, c in enumerate(el.divisor, start=1):
        if not c.is_zero():
            chunks.append(f"{term_string((0, 0), c)}*D{coord}")
    return " + ".join(chunks) if chunks else "0"


def cmd_check(args) -> int:
    fan, spec = _load(args.file)
    print(f"surface {spec.name}: {fan.d} rays, {spec.k} Kahler parameters")
    for i in range(1, fan.d + 1):
        v = fan.ray(i)
        print(f"ray {i}: ({v[0]}, {v[1]})  D{i}^2 = {fan.self_intersection(i)}")
    semi = fan.is_semi_fano()
    print(f"semi-Fano: {'yes' if semi else 'no'}")
    if semi:
        chains = " ".join("[" + " ".join(map(str, c)) + "]" for c in fan.minus_two_chains())
        print(f"(-2)-chains: {chains or 'none'}")
        print(f"Fano: {'yes' if fan.is_fano() else 'no'}")
    return 0


def cmd_superpotential(args) -> int:
    if args.hori_vafa and (args.bulk_divisor is not None or args.bulk_constant is not None):
        raise ValueError("--hori-vafa takes neither --bulk-divisor nor --bulk-constant")
    D = a = None
    if args.bulk_divisor is not None:
        D = tuple(_rational(x, "--bulk-divisor") for x in args.bulk_divisor.split(","))
    if args.bulk_constant is not None:
        a = _rational(args.bulk_constant, "--bulk-constant")
    fan, spec = _load(args.file)
    if args.hori_vafa:
        print(canonical_string(hori_vafa(spec)))
        return 0
    if D is not None or a is not None:
        print(bulk_superpotential(spec, a or 0, D).canonical_string())
        return 0
    print(canonical_string(superpotential(spec).w))
    return 0


def cmd_psi(args) -> int:
    fan, spec = _load(args.file)
    for i in range(1, fan.d + 1):
        print(f"psi(D{i}) = {canonical_string(psi_divisor(spec, unit_vector(fan.d, i)))}")
    return 0


def cmd_qh(args) -> int:
    fan, spec = _load(args.file)
    for (i, j), el in quantum_sr_relations(fan, spec):
        print(f"D{i}*D{j} = {_qh_string(el)}")
    return 0


def cmd_verify(args) -> int:
    """The verify_homomorphism report; on its IsP2 (after --q) the linear identity alone."""
    qvals = None if args.q is None else [_rational(v, "--q") for v in args.q.split(",")]
    _, spec = _load(args.file)
    try:
        report = verify_homomorphism(spec, qvals)
    except IsP2 as exc:
        ok = verify_linear_identity(spec)
        print(f"surface {spec.name}")
        print(f"linear-identity {'PASS' if ok else 'FAIL'}")
        print(f"quantum relations: {exc};")
        print("its quantum cohomology presentation is out of scope here")
        print(f"RESULT {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    print(report.to_text())
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    fans = classify_semi_fano(args.max_rays)
    for fan in fans:
        rays = " ".join(f"({v[0]},{v[1]})" for v in fan.rays)
        print(f"{fan.d} rays: {rays}{'  [Fano]' if fan.is_fano() else ''}")
    print(f"{len(fans)} classes, {sum(fan.is_fano() for fan in fans)} Fano")
    return 0


def cmd_table(args) -> int:
    for name in BUNDLED_NON_FANO:
        _, spec = load_bundled(name)
        print(f"{name}: {canonical_string(superpotential(spec).w)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sftoric",
        description="Open Gromov-Witten invariants, superpotentials and "
        "quantum cohomology of semi-Fano toric surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a surface file and print fan data")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("superpotential", help="print the superpotential W")
    p.add_argument("file")
    p.add_argument("--hori-vafa", action="store_true", help="leading part W0 only")
    p.add_argument("--bulk-divisor", help="comma-separated divisor multiplicities")
    p.add_argument("--bulk-constant", help="constant bulk term a")
    p.set_defaults(func=cmd_superpotential)

    p = sub.add_parser("psi", help="print psi(D_i) for every toric divisor")
    p.add_argument("file")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("qh", help="print the quantum products of primitive pairs")
    p.add_argument("file")
    p.set_defaults(func=cmd_qh)

    p = sub.add_parser("verify", help="verify QH*(X) = Jac(W) for a surface")
    p.add_argument("file")
    p.add_argument("--q", help="comma-separated rational q values in (0,1)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify semi-Fano fans up to isomorphism")
    p.add_argument("--max-rays", type=int, default=9)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", help="regenerate the bundled superpotential table")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as "-1/2" for an option string: pass
    # "--q=-1/2", also after a unique prefix of the name, as argparse accepts
    numeric = ("--bulk-divisor", "--bulk-constant", "--q")
    for k in range(len(argv) - 1, 0, -1):
        opt = argv[k - 1]
        unique = opt.startswith("--") and sum(n.startswith(opt) for n in numeric) == 1
        if unique and re.match(r"-[\d./]", argv[k]):
            argv[k - 1 : k + 1] = [opt + "=" + argv[k]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ToricError, OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
