#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of sftoric.

Run from the root of a checkout (standard library only; the package is
imported from ``src/`` of that checkout, never from an installed copy):

    python3 benchmarks/run.py --workload bundled-sweep --seed 1 --seconds 50 --trace 0

Workloads.  One op is one unit of user work; one caller runs one op at a
time (closed loop) in one process with no extra threads, and a run executes
whole cycles of ops for about ``--seconds`` (see ``measure``).

  bundled-sweep  an op is the full in-process pipeline on one bundled surface:
                 load_bundled -> superpotential -> canonical_string ->
                 quantum_sr_relations -> psi_divisor for every D_k ->
                 verify_homomorphism (P2: verify_linear_identity).  A cycle is
                 all sixteen surfaces in a fixed order, so inputs repeat.
  cli-oneshot    an op is one fresh ``python -m sftoric.cli`` process; a
                 cycle holds fourteen invocations of all seven subcommands on
                 seeded bundled surfaces.  Interpreter start and imports
                 dominate.
  presentations  an op is the full pipeline on a fresh seeded presentation of
                 a bundled surface (a GL(2, Z) generator, a cyclic relabelling
                 and a t-linear translation of the polytope); a cycle holds
                 every surface but P2 under two generators of each stratum.
                 No two inputs share work and the Groebner step dominates.

Every output is checked: superpotentials against the golden table and
``EXPECTED_W`` (carried through the transform for presentations), psi
against z_j dW/dz_j, verify verdicts and dim Jac(W) = d, and CLI exit codes
and stdout against an in-process ``cli.main`` run.  Each op has a deadline of
DEADLINE_S, enforced in this process (SIGALRM for in-process ops, a kill for
CLI children); an op past it is abandoned and counted as failed, and so is
an op with a wrong output.  Failed ops count as taking the deadline in the
latency figures.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes of start until the first op can run), ops_per_s (correct ops per
wall second), op_p50_ms, op_tail_ms (Harrell-Davis estimates of the median
and of the percentile in TAIL_PERCENTILE, printed with that percentile and
the sample count),
fail_ratio (printed; in the JSON as ``failed``/``attempted``) and
peak_rss_mb (for cli-oneshot the largest child).  --trace 1 runs every op
twice in a row, untraced and with spans around each call into sftoric (in
alternating order), probes the stages the ops do not call on their own,
prints the per-layer metrics and the tracing overhead (traced over untraced
time of the same ops), and writes the spans to .bench_trace/.

Timing is process-local only: time.perf_counter in this process and
getrusage of its own children.  No cache is dropped and nothing system-wide
is traced.  Timings are medians and tails, never minima.  The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckFailed, Golden, check_cli, check_pipeline
from spans import Spans
from workloads import BUNDLED, CliOp, PipelineOp, bundled_cycle, cli_cycle, presentations_cycle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REQUIRED = (
    SRC / "sftoric" / "__init__.py",
    ROOT / "tests" / "golden" / "appendix_table.txt",
    ROOT / "tests" / "appendix_data.py",
)
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("bundled-sweep", "cli-oneshot", "presentations")
DEADLINE_S = 30.0
# Measuring stops starting ops after MAX_LOOP_S, even inside a cycle, and
# every phase ends by RUN_BUDGET_S after start, so a run exits within 180 s.
# One presentations cycle takes about 55 s on a 2-vCPU x86-64 machine, so
# MAX_LOOP_S leaves room for a machine twice as slow to finish it.
MAX_LOOP_S = 115.0
RUN_BUDGET_S = 155.0
SETUP_PROBES = 7
IMPORT_PROBES = 3
# op_p50_ms and op_tail_ms are Harrell-Davis estimates (see hd_quantile) at
# fixed percentiles.  A cycle mixes surfaces of very different cost, so one
# order statistic jumps from one surface's cost to another's between runs
# wherever two surfaces' costs meet; a weighted mean of the order statistics
# around the percentile moves smoothly instead.  The tail percentile is fixed
# per workload, not derived from each run's sample count, and is the highest
# one with at least ten samples beyond it in a run of 50 s: bundled-sweep
# holds 128-176 ops (p90 lies in the block of X8, the second costliest of the
# sixteen), presentations one cycle of 90 ops, cli-oneshot 70-112 ops.
TAIL_PERCENTILE = {"bundled-sweep": 90, "cli-oneshot": 85, "presentations": 88}
CLI_COMMANDS = ("check", "superpotential", "psi", "qh", "verify", "classify", "table")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an in-process op; not an Exception, so no
    handler inside the package or sympy can swallow it."""


def _alarm(signum, frame):
    raise OpDeadline


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def import_sftoric():
    sys.path.insert(0, str(SRC))
    import sftoric
    from sftoric import cli, quantum, verifier

    if Path(sftoric.__file__).resolve().parent != (SRC / "sftoric").resolve():
        raise SystemExit(f"error: sftoric imported from {sftoric.__file__}, not {SRC}")
    return sftoric, cli, quantum, verifier


@dataclass
class Sample:
    op: object
    op_id: int
    seconds: float
    output: object = None
    error: str | None = None
    rss_kb: int = 0


class Context:
    """Everything set up before the first op: the package, golden data and
    the seeded cycle generator."""

    def __init__(self, workload: str, seed: int, spans: Spans):
        self.workload = workload
        self.seed = seed
        self.sf, self.cli, self.quantum, self.verifier = import_sftoric()
        self.golden = Golden(ROOT)
        for name in BUNDLED:
            spans.call("surfaces.parse_surface", self.sf.parse_surface, self.golden.fan_texts[name])
        self.env = child_env()
        self._cycles: dict[int, list] = {}
        self.oracles: dict[tuple, tuple] = {}
        self.cycle(0)

    def cycle(self, index: int) -> list:
        if index not in self._cycles:
            if self.workload == "bundled-sweep":
                ops = bundled_cycle(self.golden, self.seed, index)
            elif self.workload == "presentations":
                ops = presentations_cycle(self.golden, self.seed, index)
            else:
                ops = cli_cycle(self.golden, self.seed, index)
            self._cycles[index] = ops
        return self._cycles[index]

    def oracle(self, argv: tuple, spans: Spans, deadline: float):
        """(exit code, stdout) of an in-process cli.main run, memoized."""
        if argv not in self.oracles:
            spans.op = "cli " + " ".join(argv)
            self.oracles[argv] = run_in_process(
                lambda: spans.call(f"cli.main.{argv[0]}", cli_in_process, self.cli, argv),
                deadline,
            )[0]
        return self.oracles[argv]


def cli_in_process(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_pipeline(ctx: Context, spans: Spans, op: PipelineOp) -> dict:
    sf = ctx.sf
    if op.text is None:
        fan, spec = spans.call("surfaces.load_bundled", sf.load_bundled, op.name)
    else:
        fan, spec = spans.call("surfaces.parse_surface", sf.parse_surface, op.text)
    pot = spans.call("potential.superpotential", sf.superpotential, spec)
    spans.count("potential.superpotential.terms", len(pot.w.terms))
    out = {
        "w": pot.w,
        "w_string": spans.call("laurent.canonical_string", sf.canonical_string, pot.w),
        "rays": fan.rays,
    }
    d = fan.d
    if d > 3:
        out["relations"] = spans.call(
            "quantum.quantum_sr_relations", sf.quantum_sr_relations, fan, spec
        )
        spans.count("quantum.quantum_sr_relations.relations", len(out["relations"]))
    units = [tuple(int(a == i) for a in range(d)) for i in range(d)]
    out["psi"] = [spans.call("verifier.psi_divisor", sf.psi_divisor, spec, u) for u in units]
    if d == 3:
        out["linear_identity"] = spans.call(
            "verifier.verify_linear_identity", sf.verify_linear_identity, spec
        )
    else:
        report = spans.call("verifier.verify_homomorphism", sf.verify_homomorphism, spec)
        spans.count("verifier.verify_homomorphism.resamples", len(report.samples_tried) - 1)
        spans.count("verifier.samples_tried", len(report.samples_tried))
        spans.count("verifier.samples_passed", int(report.passed))
        out["report"] = report
    return out


def run_in_process(fn, deadline: float):
    """(result, error) of fn() under a SIGALRM deadline."""
    try:
        signal.setitimer(signal.ITIMER_REAL, max(deadline, 0.001))
        try:
            return fn(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        return None, f"deadline of {deadline:.1f} s passed"
    except Exception as exc:  # the loop must go on; the op counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def read_until_eof(pipe, end: float) -> tuple[bytes, bool]:
    """All bytes from pipe, or (partial, True) if time.perf_counter passes end."""
    chunks = []
    with selectors.DefaultSelector() as sel:
        sel.register(pipe, selectors.EVENT_READ)
        while True:
            remaining = end - time.perf_counter()
            if remaining <= 0:
                return b"".join(chunks), True
            if not sel.select(remaining):
                continue
            chunk = os.read(pipe.fileno(), 65536)
            if not chunk:
                return b"".join(chunks), False
            chunks.append(chunk)


def run_cli_child(ctx: Context, op: CliOp, deadline: float) -> tuple:
    """(exit code, stdout, peak RSS in KiB, error) of one CLI process."""
    cmd = [sys.executable, "-m", "sftoric.cli", *op.argv]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=ctx.env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    ) as proc:
        out, timed_out = read_until_eof(proc.stdout, start + deadline)
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    error = f"deadline of {deadline:.1f} s passed" if timed_out else None
    return proc.returncode, out.decode("utf-8"), usage.ru_maxrss, error


def execute(ctx: Context, spans: Spans, op, op_id: int, deadline: float) -> Sample:
    spans.op = op_id
    start = time.perf_counter()
    if isinstance(op, CliOp):
        code, out, rss, error = spans.call("op.cli", run_cli_child, ctx, op, deadline)
        return Sample(op, op_id, time.perf_counter() - start, (code, out), error, rss)
    output, error = run_in_process(
        lambda: spans.call("op.pipeline", run_pipeline, ctx, spans, op), deadline
    )
    return Sample(op, op_id, time.perf_counter() - start, output, error)


def measure(ctx: Context, spans: Spans, seconds: float, stop_at: float, run_end: float):
    """Run whole cycles for about ``seconds``; (samples, wall seconds).

    The first cycle always runs; another starts only if, taking as long as
    the last one, it would end within ``seconds``.  So every run holds whole
    cycles of the same make-up, and a cycle longer than ``seconds`` (one of
    presentations takes about 55 s) runs once.

    No op starts after ``stop_at`` or MAX_LOOP_S, and none runs past
    ``run_end``.  With spans enabled, every op runs twice in a row, once
    traced and once not, the traced run first on every other op; the samples
    of the untraced runs come first in the returned list, each at the same
    position as its traced twin in the second half.
    """
    paired = spans.enabled
    plain: list[Sample] = []
    samples: list[Sample] = []
    start = cycle_start = time.perf_counter()
    cycle = 0
    while True:
        for op in ctx.cycle(cycle):
            now = time.perf_counter()
            if now - start >= MAX_LOOP_S or now >= stop_at:
                return plain + samples, now - start
            order = ((True, False) if len(samples) % 2 == 0 else (False, True)) if paired else (False,)
            for traced in order:
                spans.enabled = traced
                deadline = min(DEADLINE_S, run_end - time.perf_counter())
                sample = execute(ctx, spans, op, len(plain) + len(samples), deadline)
                (samples if traced else plain).append(sample)
            spans.enabled = paired
        cycle += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return plain + samples, now - start
        cycle_start = now


def check_samples(ctx: Context, spans: Spans, samples: list[Sample]) -> None:
    """Mark every sample whose output is wrong as failed; drop the outputs."""
    for s in samples:
        if s.error is None:
            try:
                if isinstance(s.op, CliOp):
                    oracle = ctx.oracle(s.op.argv, spans, DEADLINE_S)
                    if oracle is None:
                        raise CheckFailed("the in-process reference run failed")
                    check_cli(s.op.argv, s.output[0], s.output[1], oracle, ctx.golden)
                else:
                    check_pipeline(s.output, s.op.expected_w, s.op.d, s.op.golden_string)
            except CheckFailed as exc:
                s.error = f"wrong output: {exc}"
        s.output = None


def tally(samples: list[Sample]) -> dict:
    """Counts for the result line.  An op past its deadline fails without
    making the run incorrect; a wrong output or an exception does both."""
    return {
        "correct": all(s.error is None or s.error.startswith("deadline") for s in samples),
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.error),
    }


def latency_ms(samples: list[Sample]) -> list[float]:
    """Sorted op latencies; a failed op counts as taking the deadline."""
    return sorted(1000 * (max(s.seconds, DEADLINE_S) if s.error else s.seconds) for s in samples)


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1) of sorted values.

    The i-th of n order statistics gets the weight of the Beta(p(n+1),
    (1-p)(n+1)) distribution on ((i-1)/n, i/n], integrated here by
    Simpson's rule.
    """
    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 16
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        points = [density((i * steps + k) * h) for k in range(steps + 1)]
        inner = sum((4 if k % 2 else 2) * points[k] for k in range(1, steps))
        weights.append((points[0] + points[-1] + inner) * h / 3)
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def subprocess_ready_time(cmd: list[str], env: dict) -> float:
    """Seconds from starting cmd until it prints its first line."""
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"{cmd[1:]} exited with {proc.returncode}")
    return elapsed


def measure_setup(workload: str, seed: int) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--setup-only",
    ]
    return statistics.median(
        subprocess_ready_time(cmd, child_env()) for _ in range(SETUP_PROBES)
    )


def import_time(module: str) -> float:
    """Median in-child time of ``import module`` in fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    values = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        values.append(float(out.strip()))
    return statistics.median(values)


def environment(args) -> dict:
    git = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sftoric").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".fan"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    import sympy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git,
        "src_sha256": digest.hexdigest()[:16],
    }


def print_failures(samples: list[Sample]) -> None:
    failed = [s for s in samples if s.error]
    for s in failed[:10]:
        print(f"FAILED op {s.op_id} [{s.op.label}] after {s.seconds:.3f} s: {s.error}")
    if len(failed) > 10:
        print(f"... and {len(failed) - 10} more failed ops")


def end_to_end(args, run_end: float) -> tuple[dict, list[Sample], list[str]]:
    setup_s = measure_setup(args.workload, args.seed)
    spans = Spans(False)
    ctx = Context(args.workload, args.seed, spans)
    samples, wall = measure(ctx, spans, args.seconds, run_end, run_end)
    if args.workload == "cli-oneshot":
        peak_kb = max(s.rss_kb for s in samples)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_samples(ctx, spans, samples)
    lat = latency_ms(samples)
    pct = TAIL_PERCENTILE[args.workload]
    p50_ms = hd_quantile(lat, 0.5)
    tail_ms = hd_quantile(lat, pct / 100)
    beyond = len(lat) - math.ceil(pct / 100 * len(lat))
    correct = sum(1 for s in samples if s.error is None)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": correct / wall,
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_kb / 1024,
    }
    notes = [
        f"setup_s      {setup_s:.4f} s   median of {SETUP_PROBES} fresh processes",
        f"ops_per_s    {metrics['ops_per_s']:.4f} 1/s {correct} correct ops in {wall:.3f} s",
        f"op_p50_ms    {p50_ms:.4f} ms  Harrell-Davis p50 of {len(lat)} ops",
        f"op_tail_ms   {tail_ms:.4f} ms  Harrell-Davis p{pct} of {len(lat)} ops, "
        f"{beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than ten)"),
        f"fail_ratio   {(len(samples) - correct) / len(samples):.4f}     "
        f"{len(samples) - correct} failed of {len(samples)} attempted",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.4f} MB  "
        + ("largest CLI child" if args.workload == "cli-oneshot" else "this process"),
    ]
    return metrics, samples, notes


# --- the traced run ---

# Per-layer metric -> (unit, the end-to-end metric it should move, on which
# workload).  ``.ms`` and counts are means per call; residual_ms is verify
# time minus its separately timed stages, i.e. memberships and re-derivation.
PER_LAYER = {
    "import.sympy_s": ("s", "setup_s on all; op_p50_ms on cli-oneshot"),
    "import.sftoric_s": ("s", "setup_s on all; op_p50_ms on cli-oneshot"),
    "surfaces.parse_surface.ms": ("ms", "setup_s on all; op_p50_ms on presentations"),
    "fan.classify_semi_fano.ms": ("ms", "classify ops of cli-oneshot"),
    "disks.enumerate_admissible.ms": ("ms", "ops_per_s on bundled-sweep"),
    "disks.enumerate_admissible.classes": ("count", "ops_per_s on bundled-sweep"),
    "potential.superpotential.ms": ("ms", "ops_per_s on bundled-sweep"),
    "potential.superpotential.terms": ("count", "ops_per_s on bundled-sweep"),
    "quantum.c1_two_classes.count": ("count", "op_tail_ms, ops_per_s on bundled-sweep"),
    "quantum.c1_one_classes.count": ("count", "op_tail_ms, ops_per_s on bundled-sweep"),
    "quantum.quantum_sr_relations.ms": ("ms", "op_tail_ms, ops_per_s on bundled-sweep"),
    "quantum.quantum_sr_relations.relations": ("count", "op_tail_ms, ops_per_s on bundled-sweep"),
    "verifier.psi_divisor.ms": ("ms", "ops_per_s on bundled-sweep"),
    "verifier.verify_linear_identity.ms": ("ms", "ops_per_s on bundled-sweep"),
    "verifier.jac_dimension.ms": ("ms", "op_tail_ms on presentations"),
    "verifier.jac_dimension.op_share": ("ratio", "op_tail_ms, ops_per_s on presentations"),
    "verifier.verify_homomorphism.ms": ("ms", "ops_per_s on bundled-sweep"),
    "verifier.verify_homomorphism.resamples": ("count", "ops_per_s on bundled-sweep"),
    "verifier.samples_useful_ratio": ("ratio", "ops_per_s on bundled-sweep"),
    "verifier.verify_homomorphism.residual_ms": ("ms", "ops_per_s on bundled-sweep"),
    "laurent.canonical_string.ms": ("ms", "op_p50_ms on cli-oneshot"),
    **{f"cli.main.{c}.ms": ("ms", f"{c} ops of cli-oneshot") for c in CLI_COMMANDS},
    "import.sympy.op_p50_share": ("ratio", "op_p50_ms on cli-oneshot"),
    "trace.overhead_pct": ("%", "none: traced minus untraced op time, same ops"),
}


def stage_probe(ctx: Context, spans: Spans, label: str, op: PipelineOp, deadline: float):
    """Time the stages the ops do not call on their own, for one input."""
    sf = ctx.sf
    spans.op = f"probe {label}"

    def probe():
        fan, spec = sf.parse_surface(op.text) if op.text else sf.load_bundled(op.name)
        classes = spans.call("disks.enumerate_admissible", sf.enumerate_admissible, fan)
        spans.count("disks.enumerate_admissible.classes", len(classes))
        spans.call("verifier.verify_linear_identity", sf.verify_linear_identity, spec)
        if fan.d > 3:
            two = spans.call("quantum.c1_two_classes", ctx.quantum.c1_two_classes, fan)
            one = spans.call("quantum.c1_one_classes", ctx.quantum.c1_one_classes, fan)
            spans.count("quantum.c1_two_classes.count", len(two))
            spans.count("quantum.c1_one_classes.count", len(one))
            sample = ctx.verifier.default_q_sample(spec.k)
            spans.call("verifier.jac_dimension", sf.jac_dimension, spec, sample)

    return run_in_process(probe, deadline)[1]


def traced(args, run_end: float) -> tuple[dict, list[Sample], list[str]]:
    sympy_s = import_time("sympy")
    sftoric_s = import_time("sftoric")
    spans = Spans(True)
    ctx = Context(args.workload, args.seed, spans)
    now = time.perf_counter()
    stop_at = now + min(0.5 * (run_end - now), args.seconds)
    both, _ = measure(ctx, spans, args.seconds, stop_at, run_end)
    plain, samples = both[: len(both) // 2], both[len(both) // 2 :]
    labels = {s.op_id: s.op.label for s in samples}

    notes = []
    if args.workload == "cli-oneshot":
        # The ops run in children; time the pipeline in process on the
        # surfaces they name, for the layer metrics.
        argvs = [s.op.argv for s in samples]
        named = {a[1] for a in argvs if len(a) > 1}
        pipeline_ops = {
            op.label: op for op in bundled_cycle(ctx.golden, args.seed, 0) if op.name in named
        }
        for label, op in pipeline_ops.items():
            spans.op = f"pipeline {label}"
            labels[spans.op] = label
            run_in_process(
                lambda: spans.call("op.pipeline", run_pipeline, ctx, spans, op),
                min(DEADLINE_S, run_end - time.perf_counter()),
            )
    else:
        # One cycle of CLI invocations in process, for the cli.main metrics.
        argvs = [op.argv for op in cli_cycle(ctx.golden, args.seed, 0)]
        pipeline_ops = {s.op.label: s.op for s in samples}
        for argv in argvs:
            ctx.oracle(argv, spans, DEADLINE_S)
    for argv in argvs:
        if argv[0] == "classify":
            spans.op = f"cli {' '.join(argv)}"
            spans.call("fan.classify_semi_fano", ctx.sf.classify_semi_fano, int(argv[2]))
    for label, op in pipeline_ops.items():
        remaining = run_end - time.perf_counter()
        if remaining <= 0:
            notes.append("stage probes stopped at the run budget")
            break
        error = stage_probe(ctx, spans, label, op, min(DEADLINE_S, remaining))
        if error:
            notes.append(f"stage probe {label}: {error}")
    check_samples(ctx, spans, plain + samples)

    metrics = layer_metrics(spans, labels, plain, samples, sympy_s, sftoric_s)
    path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    spans.write(path)
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return metrics, plain + samples, notes


def layer_metrics(spans, labels, plain, samples, sympy_s, sftoric_s) -> dict:
    verify = spans.per_op_ms("verifier.verify_homomorphism")
    quantum = spans.per_op_ms("quantum.quantum_sr_relations")
    psi = spans.per_op_ms("verifier.psi_divisor")
    linear_probe = spans.per_op_ms("verifier.verify_linear_identity")
    jac_probe = spans.per_op_ms("verifier.jac_dimension")
    residual, jac_total, op_total = [], 0.0, 0.0
    for op, total in spans.per_op_ms("op.pipeline").items():
        jac = jac_probe.get(f"probe {labels[op]}")
        linear = linear_probe.get(f"probe {labels[op]}")
        if jac is None or linear is None:
            continue
        jac_total += jac
        op_total += total
        if op in verify:
            residual.append(verify[op] - quantum.get(op, 0.0) - psi.get(op, 0.0) - linear - jac)

    def paired_sum(rows):
        return sum(s.seconds for s in rows[: min(len(plain), len(samples))])

    plain_p50_ms = 1000 * statistics.median(s.seconds for s in plain)
    tried = spans.total_count("verifier.samples_tried")
    metrics = {
        "import.sympy_s": sympy_s,
        "import.sftoric_s": sftoric_s,
        "verifier.jac_dimension.op_share": jac_total / op_total if op_total else None,
        "verifier.verify_homomorphism.residual_ms": statistics.fmean(residual) if residual else None,
        "verifier.samples_useful_ratio": (
            spans.total_count("verifier.samples_passed") / tried if tried else None
        ),
        "import.sympy.op_p50_share": 1000 * sympy_s / plain_p50_ms,
        "trace.overhead_pct": 100 * (paired_sum(samples) / paired_sum(plain) - 1),
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".ms"):
            metrics[name] = spans.mean_ms(name[: -len(".ms")])
        else:
            metrics[name] = spans.mean_count(name)
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        raise RuntimeError(f"no measurement for {', '.join(missing)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    run_end = time.perf_counter() + RUN_BUDGET_S

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a sftoric checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    if args.setup_only:
        Context(args.workload, args.seed, Spans(False))
        print("ready", flush=True)
        return 0

    if args.trace:
        metrics, samples, notes = traced(args, run_end)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics, samples, notes = end_to_end(args, run_end)
        units = END_TO_END_UNITS
    print(f"sftoric benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(
        "timing is process-local (time.perf_counter, getrusage of own children); "
        "no cache dropping, no system-wide tracing; medians and tails, not minima"
    )
    for line in notes:
        print(line)
    if args.trace:
        for name, (unit, moves) in PER_LAYER.items():
            print(f"{name:42s} {metrics[name]:12.6g} {unit:6s} -> {moves}")
    print_failures(samples)
    result = tally(samples)
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
