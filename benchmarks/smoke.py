#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

For every workload one op runs and must pass its checks; the same op is then
checked against a deliberately corrupted expected output, and run once with
a deadline it cannot meet, and both must be counted as failed by the same
code that counts failures in a benchmark run.  Run from the root of a
checkout; exits 0 when everything holds:

    python3 benchmarks/smoke.py
"""

from __future__ import annotations

import dataclasses
import signal
import sys

import run
from spans import Spans
from workloads import CliOp


def corrupted(op):
    """The op with one coefficient of its expected W changed."""
    expected = {ze: dict(coeff) for ze, coeff in op.expected_w.items()}
    ze = min(expected)
    qe = min(expected[ze])
    expected[ze][qe] += 1
    return dataclasses.replace(op, expected_w=expected)


def smoke(workload: str) -> list[str]:
    spans = Spans(False)
    ctx = run.Context(workload, 0, spans)
    ops = ctx.cycle(0)
    if isinstance(ops[0], CliOp):
        op = ops[0]
    else:
        op = min((o for o in ops if o.d > 3), key=lambda o: o.d)
    good = run.execute(ctx, spans, op, 0, run.DEADLINE_S)
    run.check_samples(ctx, spans, [good])
    if isinstance(op, CliOp):
        bad = run.execute(ctx, spans, op, 1, run.DEADLINE_S)
        code, out = ctx.oracle(op.argv, spans, run.DEADLINE_S)
        ctx.oracles[op.argv] = (code, out + "corrupted\n")
    else:
        bad = run.execute(ctx, spans, op, 1, run.DEADLINE_S)
        bad.op = corrupted(op)
    run.check_samples(ctx, spans, [bad])
    late = run.execute(ctx, spans, op, 2, 0.001)
    tally = run.tally([good, bad, late])
    problems = []
    if good.error:
        problems.append(f"the op failed: {good.error}")
    if not (bad.error or "").startswith("wrong output"):
        problems.append("a corrupted expected output was not counted as a failure")
    if not (late.error or "").startswith("deadline"):
        problems.append("an op past its deadline was not counted as a failure")
    if (tally["attempted"], tally["failed"], tally["correct"]) != (3, 2, False):
        problems.append(f"tally {tally} should count 3 attempted, 2 failed, not correct")
    print(f"{workload}: [{op.label}] {'ok' if not problems else '; '.join(problems)}")
    return problems


def main() -> int:
    signal.signal(signal.SIGALRM, run._alarm)
    problems = [p for workload in run.WORKLOADS for p in smoke(workload)]
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
