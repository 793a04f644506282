"""Seeded inputs of the three workloads.

Every workload is a sequence of cycles.  A run executes whole cycles, so the
inputs a run measures have the same make-up whatever the seed: the seed picks
the order and the free choices inside a cycle, never how many ops of each
kind it holds.  The same (workload, seed, cycle index) always gives the same
ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import Golden, Terms, read_fan, transform_terms

BUNDLED = (
    "P2", "F0", "F1", "dP2", "dP3",
    "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10", "X11",
)

# GL(2, Z) generators, grouped into strata.  A presentation applies one
# generator; each cycle gives every surface two distinct generators from each
# stratum (so both of a pair of shears), because the Groebner cost depends on
# the generator and every run must hold the same mix.  Known defect, shown
# here on purpose: under a negative unit shear X11 still verifies but takes
# about 8-10 s instead of about 1.3 s, and X10 about 2.5-4 s instead of 0.6 s
# (2-vCPU x86-64 machine, Python 3.11, sympy 1.14).
# Products of several shears are worse (four shears with |k| <= 2 sent X8
# past 100 s); one such op would outlast a whole run, so words are one
# generator long and those stalls are recorded as a defect, not generated.
ROTATIONS_AND_REFLECTION = {
    "S": ((0, -1), (1, 0)),  # rotation of order 4
    "R": ((1, -1), (1, 0)),  # rotation of order 6
    "F": ((0, 1), (1, 0)),  # reflection; the ray order is reversed
}
POSITIVE_SHEARS = {"T": ((1, 1), (0, 1)), "U": ((1, 0), (1, 1))}
NEGATIVE_SHEARS = {"T-1": ((1, -1), (0, 1)), "U-1": ((1, 0), (-1, 1))}
STRATA = (ROTATIONS_AND_REFLECTION, POSITIVE_SHEARS, NEGATIVE_SHEARS)


@dataclass(frozen=True)
class PipelineOp:
    """The full in-process pipeline on one surface.

    ``text`` is None for a bundled surface (the op calls ``load_bundled``),
    else the surface file text that the op parses.
    """

    label: str
    name: str
    text: str | None
    d: int
    expected_w: Terms
    golden_string: str | None


@dataclass(frozen=True)
class CliOp:
    """One ``python -m sftoric.cli`` invocation."""

    argv: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def bundled_cycle(golden: Golden, seed: int, cycle: int) -> list[PipelineOp]:
    """All sixteen bundled surfaces in the fixed order, started at seed mod 16."""
    start = seed % len(BUNDLED)
    names = BUNDLED[start:] + BUNDLED[:start]
    return [
        PipelineOp(
            label=name,
            name=name,
            text=None,
            d=len(read_fan(golden.fan_texts[name])[2]),
            expected_w=golden.w[name],
            golden_string=golden.table.get(name),
        )
        for name in names
    ]


def present(golden: Golden, name: str, M, rng: random.Random, label: str) -> PipelineOp:
    """A presentation of a bundled surface isomorphic to it over the lattice.

    Rays go to M v; a reflection reverses the cyclic order so that the rays
    stay counterclockwise.  The rows are relabelled cyclically and the
    polytope is translated by U t, U a random 2 x k matrix with entries in
    {-1, 0, 1}, which multiplies each z^w term of W by q^(-<w, U>).
    """
    _, k, rays, rows = read_fan(golden.fan_texts[name])
    U = [[rng.choice((-1, 0, 1)) for _ in range(k)] for _ in range(2)]
    pairs = []
    for (a, b), row in zip(rays, rows):
        w = (M[0][0] * a + M[0][1] * b, M[1][0] * a + M[1][1] * b)
        pairs.append((w, [c - (w[0] * U[0][l] + w[1] * U[1][l]) for l, c in enumerate(row)]))
    if M[0][0] * M[1][1] - M[0][1] * M[1][0] < 0:
        pairs.reverse()
    shift = rng.randrange(len(pairs))
    pairs = pairs[shift:] + pairs[:shift]
    lines = [f"surface {label}", f"params {k}"]
    lines += [f"ray {w[0]} {w[1]} : " + " ".join(map(str, row)) for w, row in pairs]
    return PipelineOp(
        label=label,
        name=name,
        text="\n".join(lines) + "\n",
        d=len(rays),
        expected_w=transform_terms(golden.w[name], M, U),
        golden_string=None,
    )


def presentations_cycle(golden: Golden, seed: int, cycle: int) -> list[PipelineOp]:
    """Each bundled surface but P2 under two generators of every stratum
    (90 ops), with seeded translations and relabellings, in a seeded order.

    P2 is left out because it has no quantum relations and no Groebner step,
    which is what this workload measures.
    """
    rng = _rng("presentations", seed, cycle)
    ops = []
    for name in BUNDLED[1:]:
        for stratum in STRATA:
            members = sorted(stratum)
            first = rng.randrange(len(members))
            for gen in (members[first], members[(first + 1) % len(members)]):
                label = f"{name}.{gen}.c{cycle}"
                ops.append(present(golden, name, stratum[gen], rng, label))
    rng.shuffle(ops)
    return ops


def cli_cycle(golden: Golden, seed: int, cycle: int) -> list[CliOp]:
    """Fourteen invocations covering all seven subcommands.

    Twelve distinct bundled surfaces per cycle, drawn by the seed; ``qh``
    never gets P2, which has no primitive pairs.
    """
    rng = _rng("cli-oneshot", seed, cycle)
    qh = rng.sample(BUNDLED[1:], 2)
    rest = rng.sample([n for n in BUNDLED if n not in qh], 10)
    divisor_surface = rest[3]
    d = len(read_fan(golden.fan_texts[divisor_surface])[2])
    divisor = ",".join(str(rng.choice((-1, 0, 1, 2))) for _ in range(d))
    constant = f"{rng.choice((-3, -1, 1, 2, 5))}/{rng.choice((1, 2, 3, 7))}"
    argvs = [
        ("check", rest[0]),
        ("check", rest[1]),
        ("superpotential", rest[2]),
        ("superpotential", rest[4]),
        ("superpotential", rest[5], "--hori-vafa"),
        ("superpotential", divisor_surface, f"--bulk-divisor={divisor}",
         f"--bulk-constant={constant}"),
        ("psi", rest[6]),
        ("psi", rest[7]),
        ("qh", qh[0]),
        ("qh", qh[1]),
        ("verify", rest[8]),
        ("verify", rest[9]),
        ("classify", "--max-rays", str(rng.randint(6, 9))),
        ("table",),
    ]
    rng.shuffle(argvs)
    return [CliOp(tuple(a)) for a in argvs]
