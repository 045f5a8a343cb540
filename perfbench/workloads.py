"""The three workloads: operations, reference checks, timed passes and traced passes.

Every workload is a closed loop with one client in this one process: the
next operation starts when the last one returns.  An operation is one call
of `canonform.cli.main([...])` with stdout and stderr captured, the same
code `canonform norm` / `canonform validate` runs minus interpreter
start-up.  Next to it the generated module (`emit --format code`, exec'd
once) normalizes the same input terms as tuples.

A run repeats whole passes over a seeded list of operations, as many as
bring the measured time (CLI and generated module) closest to `--seconds`,
so every run measures the same mix.

Reported times are wall times scaled to a reference interpreter speed.  On
a shared machine the speed of the CPU shifts by up to 40% for tens of
seconds at a time, in CPU time as much as in wall time, which no run length
within the time budget averages away.  So after every
CALIBRATION_WINDOW_S of operations the run times a fixed pure-Python kernel
(the benchmark's own reference code on fixed sums, nothing from canonform)
and multiplies that window's times by CALIBRATION_REFERENCE_S / (median
kernel time of the probes within CALIBRATION_SMOOTH_S of the window).
CALIBRATION_REFERENCE_S defines the unit: a reported second is a second at
the speed where the kernel takes that long.

Outputs of the first pass go through the benchmark's own reference checks
(outside the measured time); later passes must print the same text.  An
operation that raises, or whose output fails a check, is a failure: its
time is counted, its leaves and terms are not, and in the latency
percentiles it reads as the total time of all the run's calls of its kind,
longer than any one call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from . import gen, model

CALIBRATION_REFERENCE_S = 0.025  # the kernel's time at the reference speed
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_SMOOTH_S = 2.5  # the speed shifts over tens of seconds, probes are noisier

# Size grids: 13-340 leaves (the top point is past today's recursion limit
# of about 320 on chains), and 14-113 leaves for sharing, where a 113-leaf
# sum already takes seconds.
NORM_PLAIN = dict(slices=8, min_leaves=10, max_leaves=430)
NORM_SHARED = dict(slices=4, min_leaves=10, max_leaves=160)

# Accepted fixtures, pinned in defs/: (name, --size, extra arguments).
VALIDATE_FIXTURES = (
    ("vec", 9, ()),
    ("left_group", 9, ()),
    ("exp", 9, ()),
    ("aci", 9, ()),
    ("acnil", 9, ()),
    ("free", 9, ()),
    ("neu_rules", 8, ("--budget", "40000")),
)

_SHARING_LINE = re.compile(r"sharing: nodes=(\d+) edges=(\d+)\n")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """canonform.cli.main with stdout and stderr captured."""
    from canonform import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def innermost_package_frame(exc: BaseException) -> str:
    tb, where = exc.__traceback__, "?"
    while tb is not None:
        code = tb.tb_frame.f_code
        if "canonform" in code.co_filename:
            where = f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"
        tb = tb.tb_next
    return where


@dataclass
class Op:
    """One operation of a pass: the CLI call and the same input for the generated module."""

    key: str
    definition: str
    argv: list[str]
    leaves: int  # input leaves (validate: over every enumerated term)
    terms: int  # input terms (validate: enumerated terms, counted by arity)
    emit_inputs: list[tuple]
    emit_refs: list[tuple]  # the benchmark's own canonical forms of emit_inputs
    check: Callable[["Op", int, str, str], Optional[str]]
    expected: Optional[str] = None  # stdout of the first pass, once checked
    failure: Optional[str] = None  # why the operation fails, once known; "crash: ..." if it raised
    emit_failure: Optional[str] = None

    @property
    def wrong(self) -> bool:
        """An output was produced and it is wrong (as opposed to a crash)."""
        return any(f and not f.startswith("crash:") for f in (self.failure, self.emit_failure))


@dataclass
class Samples:
    """Timed samples of one kind of call, one list of (seconds, ok) per operation."""

    per_op: dict[str, list[tuple[float, bool]]] = field(default_factory=dict)  # scaled times
    leaves: int = 0
    terms: int = 0

    def add(self, op: Op, dt: float, ok: bool) -> None:
        self.per_op.setdefault(op.key, []).append((dt, ok))
        if ok:
            self.leaves += op.leaves
            self.terms += op.terms

    @property
    def count(self) -> int:
        return sum(map(len, self.per_op.values()))

    @property
    def failed(self) -> int:
        return sum(not ok for xs in self.per_op.values() for _, ok in xs)

    @property
    def seconds(self) -> float:
        return sum(dt for xs in self.per_op.values() for dt, _ in xs)


# The percentile norm_tail_ms reports.  It is below the highest one with ten
# operations beyond it (p93 on norm_plain, p87 on norm_shared), because
# above these the per-operation times are sparse: the O(n^2) chains and the
# largest sums, one operation per grid cell, whose order changes with the
# seed.  On ten seeds, single passes, nearest rank, the IQR/median of p90 was
# 0.14-0.30 on norm_plain and 0.12-0.23 on norm_shared, against 0.06-0.08 at
# p80 on norm_plain and 0.07-0.10 at p70 on norm_shared.  On norm_plain p93
# would also read a failure on every seed (12 of the 160 sums raise today).
# validate_fixtures has seven operations, so its tail is the slowest fixture.
TAIL_PERCENTILE = {"norm_plain": 80, "norm_shared": 70, "validate_fixtures": 100}


def percentile(s: Samples, p: float) -> float:
    """Nearest-rank percentile over operations of each one's median time.

    The median over passes damps one-off pauses.  An operation that failed
    in any pass reads as `s.seconds`, the total time of every sample, which
    exceeds any one call and stays finite for the JSON result line.
    """
    failed = s.seconds
    xs = sorted(
        statistics.median(dt for dt, _ in v) if all(ok for _, ok in v) else failed
        for v in s.per_op.values()
    )
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


# ---------------------------------------------------------------------------
# building the operation lists


def _norm_ops(seed: int, params: dict, sharing: bool) -> list[Op]:
    ops = []
    for i, s in enumerate(gen.sums(seed, **params)):
        argv = ["norm", str(model.def_path(s.definition)), "-e", model.fmt(s.term)]
        if sharing:
            argv.append("--sharing")
        ops.append(
            Op(
                key=f"{i}:{s.definition}:{s.shape}:{s.leaves}",
                definition=s.definition,
                argv=argv,
                leaves=s.leaves,
                terms=1,
                emit_inputs=[s.term],
                emit_refs=[model.canonical(s.definition, s.term)],
                check=_check_norm_shared if sharing else _check_norm,
            )
        )
    return ops


def _check_output(op: Op, rc: int, out: str) -> Optional[str]:
    ref = model.fmt(op.emit_refs[0])
    if rc != 0 or out != ref + "\n":
        return "output differs from the reference canonical form"
    try:
        again = run_cli(["norm", op.argv[1], "-e", ref])
    except Exception as exc:
        return f"crash: {type(exc).__name__} in {innermost_package_frame(exc)} on its own output"
    if again[:2] != (0, out):
        return "output is not a printing fixpoint"
    return None


def _check_norm(op: Op, rc: int, out: str, err: str) -> Optional[str]:
    return _check_output(op, rc, out) or ("unexpected stderr" if err else None)


def _check_norm_shared(op: Op, rc: int, out: str, err: str) -> Optional[str]:
    bad = _check_output(op, rc, out)
    if bad:
        return bad
    m = _SHARING_LINE.fullmatch(err)
    if m is None:
        return "no sharing line on stderr"
    return model.sharing_mismatch(op.definition, op.emit_inputs[0], op.emit_refs[0], int(m.group(1)), int(m.group(2)))


def _validate_ops(seed: int) -> list[Op]:
    order = list(VALIDATE_FIXTURES)
    random.Random(seed).shuffle(order)
    ops = []
    for name, size, extra in order:
        terms, leaves = model.count_terms(name, size)
        inputs = model.enumerate_terms(name, size)
        if len(inputs) != terms:
            raise RuntimeError(f"enumeration of {name} disagrees with the count by arity")
        ops.append(
            Op(
                key=name,
                definition=name,
                argv=["validate", str(model.def_path(name)), "--size", str(size), *extra],
                leaves=leaves,
                terms=terms,
                emit_inputs=inputs,
                emit_refs=[model.canonical(name, t) for t in inputs],
                check=_check_validate,
            )
        )
    return ops


def _check_validate(op: Op, rc: int, out: str, err: str) -> Optional[str]:
    if rc != 0 or out != f"valid at scale {op.argv[3]}\n" or err:
        return "validate did not report the fixture valid"
    return None


def build_ops(workload: str, seed: int) -> list[Op]:
    if workload == "norm_plain":
        return _norm_ops(seed, NORM_PLAIN, sharing=False)
    if workload == "norm_shared":
        return _norm_ops(seed, NORM_SHARED, sharing=True)
    if workload == "validate_fixtures":
        return _validate_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def definitions(ops: list[Op]) -> list[str]:
    return sorted({op.definition for op in ops})


def load_generated(names: list[str]) -> dict[str, dict]:
    """Emit and exec the generated module of each definition; its namespace by name."""
    from canonform import compile_family, parse_definition
    from canonform.emit import emit_code

    out = {}
    for name in names:
        sig, spec = parse_definition(model.def_path(name).read_text())
        code = emit_code(compile_family(sig, spec))
        namespace: dict = {"__generated_source__": code}
        exec(compile(code, f"<generated {name}>", "exec"), namespace)
        out[name] = namespace
    return out


# ---------------------------------------------------------------------------
# running


def call(op: Op) -> tuple[float, Optional[tuple[int, str, str]], Optional[Exception]]:
    """Time one CLI call: (seconds, (exit code, stdout, stderr) or None, exception or None)."""
    t0 = perf_counter()
    try:
        result = run_cli(op.argv)
    except Exception as exc:  # RecursionError today; counted, never dropped
        return perf_counter() - t0, None, exc
    return perf_counter() - t0, result, None


def judge(op: Op, raised: Optional[Exception], result) -> bool:
    """Check one CLI result; the first one goes through the reference checks."""
    if raised is not None:
        if op.expected is None and op.failure is None:
            op.failure = f"crash: {type(raised).__name__} in {innermost_package_frame(raised)}"
        return False
    rc, out, err = result
    if op.expected is None and op.failure is None:
        op.failure = op.check(op, rc, out, err)
        if op.failure is None:
            op.expected = out
    elif op.expected is not None and out != op.expected:
        op.failure = "output changed between passes"
    return op.failure is None


def call_generated(op: Op, normalize) -> tuple[float, Optional[str]]:
    """Time the generated module on the operation's inputs; (seconds, failure or None)."""
    t0 = perf_counter()
    try:
        outs = [normalize(t) for t in op.emit_inputs]
    except Exception as exc:  # RecursionError on deep inputs, as in the library
        return perf_counter() - t0, f"crash: {type(exc).__name__} in generated normalize"
    dt = perf_counter() - t0
    if outs != op.emit_refs:
        return dt, "generated module output differs from the reference"
    return dt, None


def run_generated(op: Op, normalize) -> tuple[float, bool]:
    dt, failure = call_generated(op, normalize)
    op.emit_failure = op.emit_failure or failure
    return dt, failure is None


class SpeedProbe:
    """Times a fixed pure-Python kernel: the benchmark's own reference code
    on sums that do not depend on the seed.  GC is off while it runs, so
    the program's heap does not change the kernel's cost."""

    def __init__(self) -> None:
        self._sums = [(s.definition, s.term) for s in gen.sums(0, 3, 20, 60)]

    def seconds(self) -> float:
        gc.disable()
        try:
            t0 = perf_counter()
            for definition, term in self._sums:
                model.fmt(model.canonical(definition, term))
            return perf_counter() - t0
        finally:
            gc.enable()


def measure(ops: list[Op], generated: dict[str, dict], seconds: float) -> tuple[Samples, Samples, int, float]:
    """Whole passes, as many as bring the measured wall time closest to
    `seconds` (a pass always runs once); times scaled per window.

    Returns the CLI and generated-module samples, the pass count and the
    measured wall time.
    """
    probe = SpeedProbe()
    probes = [(perf_counter(), probe.seconds())]
    windows: list[list[tuple]] = [[]]
    measured = window_s = 0.0
    passes = 0
    while passes == 0 or measured + measured / passes / 2 < seconds:
        for op in ops:
            dt_cli, result, raised = call(op)
            ok_cli = judge(op, raised, result)
            dt_emit, ok_emit = run_generated(op, generated[op.definition]["normalize"])
            windows[-1].append((op, dt_cli, ok_cli, dt_emit, ok_emit))
            measured += dt_cli + dt_emit
            window_s += dt_cli + dt_emit
            if window_s >= CALIBRATION_WINDOW_S:
                probes.append((perf_counter(), probe.seconds()))
                windows.append([])
                window_s = 0.0
        passes += 1
    if windows[-1]:
        probes.append((perf_counter(), probe.seconds()))
    else:
        windows.pop()

    cli_s, emit_s = Samples(), Samples()
    for i, window in enumerate(windows):
        # window i lies between probes i and i + 1
        start, end = probes[i][0], probes[i + 1][0]
        near = [p for t, p in probes if start - CALIBRATION_SMOOTH_S <= t <= end + CALIBRATION_SMOOTH_S]
        scale = CALIBRATION_REFERENCE_S / statistics.median(near)
        for op, dt_cli, ok_cli, dt_emit, ok_emit in window:
            cli_s.add(op, dt_cli * scale, ok_cli)
            emit_s.add(op, dt_emit * scale, ok_emit)
    return cli_s, emit_s, passes, measured


@dataclass
class TraceResult:
    leaves: int = 0  # input leaves of the operations both runs finished
    nodes: int = 0
    edges: int = 0
    untraced_s: float = 0.0
    traced_s: float = 0.0
    ops: int = 0
    trace_only_failures: int = 0


def traced_pass(ops: list[Op], generated: dict[str, dict], tracer) -> TraceResult:
    """One pass; each operation runs untraced, then traced.  Only operations
    that both runs finish are committed to the tracer's totals."""
    res = TraceResult()
    for op in ops:
        namespace = generated[op.definition]
        for part in ("cli", "generated"):
            if part == "cli":
                dt_u, result, raised = call(op)
                ok_u = judge(op, raised, result)
            else:
                dt_u, ok_u = run_generated(op, namespace["normalize"])
            tracer.install(extra=(("emit.generated.normalize", namespace, "normalize"),))
            tracer.begin(f"{op.key}:{part}")
            try:
                if part == "cli":
                    dt_t, result, raised = call(op)
                    ok_t = raised is None and result[1] == op.expected
                else:
                    dt_t, failure = call_generated(op, namespace["normalize"])
                    ok_t = failure is None
            finally:
                tracer.uninstall()
            if not (ok_u and ok_t):
                res.trace_only_failures += ok_u
                continue
            tracer.commit()
            res.untraced_s += dt_u
            res.traced_s += dt_t
            if part == "cli":
                res.ops += 1
                res.leaves += op.leaves
                m = _SHARING_LINE.fullmatch(result[2])
                if m:
                    res.nodes += int(m.group(1))
                    res.edges += int(m.group(2))
    return res
