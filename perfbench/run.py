"""canonform benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  norm_plain         `norm DEF -e SUM` on a seeded stream of AC sums
  norm_shared        the same generator with --sharing, smaller sizes
  validate_fixtures  `validate DEF --size N` on the seven accepted definitions

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 a separate traced pass gives the per-layer metrics (self time and
calls of the package's public functions, wrapped from outside the package).
Either way the line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it carries the environment and the
details of the run, which are also written to perfbench_out/.

End-to-end metrics, reported for every workload ("operation" is one CLI
call; on validate_fixtures its input terms and leaves are those of every
enumerated term).  Times are wall times scaled to a reference interpreter
speed by a calibration kernel timed between operations (see workloads.py):
  setup_s               fresh interpreter (pycache warm), from before
                        `import canonform` until every definition the workload
                        uses is parsed, compiled, emitted and exec'd;
                        median of SETUP_REPEATS
  norm_leaves_per_s     input leaves of successful operations / time of all operations
  norm_p50_ms           median over operations of each one's median time over
                        passes; a failed operation reads as the total time of
                        all the run's CLI calls
  norm_tail_ms          the same at the workload's TAIL_PERCENTILE (workloads.py):
                        p80 on norm_plain, p70 on norm_shared, the slowest
                        fixture on validate_fixtures
  emitted_leaves_per_s  the same for the generated module's normalize
  validate_terms_per_s  input terms of successful operations / time of all operations
  peak_rss_mb           ru_maxrss of this process
  ok_ratio              1 - fail_ratio, where fail_ratio = failed / attempted
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
SETUP_REPEATS = 9
WORKLOADS = ("norm_plain", "norm_shared", "validate_fixtures")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "canonform" / "__init__.py").is_file():
        fail(f"no canonform package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import canonform

    if Path(canonform.__file__).resolve().parent != SRC / "canonform":
        fail(f"imported canonform from {canonform.__file__}, not from {SRC}")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup(def_files: list[str]) -> float:
    """Median set-up time of SETUP_REPEATS fresh interpreters, each timed by
    itself from before `import canonform`, scaled like every other time (see
    workloads.py).  One unmeasured run warms pycache."""
    from perfbench import workloads as w

    argv = [sys.executable, str(ROOT / "perfbench" / "setup_child.py"), str(SRC), *def_files]
    probe = w.SpeedProbe()
    times, probes = [], []
    for i in range(SETUP_REPEATS + 1):
        probes.append(probe.seconds())
        proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, timeout=60)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != b"ready":
            fail(f"set-up probe failed with exit code {proc.returncode}")
        if i:
            times.append(float(words[1]))
    return statistics.median(times) * w.CALIBRATION_REFERENCE_S / statistics.median(probes)


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from perfbench import workloads as w

    ops = w.build_ops(workload, seed)
    names = w.definitions(ops)
    setup_s = measure_setup([str(w.model.def_path(n)) for n in names])
    generated = w.load_generated(names)
    cli_s, emit_s, passes, measured_s = w.measure(ops, generated, seconds)
    attempted = cli_s.count + emit_s.count
    failed = cli_s.failed + emit_s.failed
    cli_time = cli_s.seconds
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_leaves_per_s": (cli_s.leaves / cli_time, "leaves/s"),
        "norm_p50_ms": (w.percentile(cli_s, 50) * 1e3, "ms"),
        "norm_tail_ms": (w.percentile(cli_s, w.TAIL_PERCENTILE[workload]) * 1e3, "ms"),
        "emitted_leaves_per_s": (emit_s.leaves / emit_s.seconds, "leaves/s"),
        "validate_terms_per_s": (cli_s.terms / cli_time, "terms/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    details = {
        "operations": len(ops),
        "passes": passes,
        "measured_s": measured_s,
        "samples": cli_s.count,
        "tail_percentile": w.TAIL_PERCENTILE[workload],
        "fail_ratio": failed / attempted,
        "failures": {op.key: op.failure for op in ops if op.failure},
        "generated_failures": {op.key: op.emit_failure for op in ops if op.emit_failure},
    }
    result = _result(ops, attempted, failed, metrics)
    return result, details


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    from perfbench import tracing as tr
    from perfbench import workloads as w

    ops = w.build_ops(workload, seed)
    names = w.definitions(ops)
    tracer = tr.Tracer()
    tracer.install()
    tracer.begin("setup")
    try:
        generated = w.load_generated(names)
    finally:
        tracer.uninstall()
    tracer.commit()
    code_bytes = sum(len(g["__generated_source__"]) for g in generated.values())
    res = w.traced_pass(ops, generated, tracer)

    metrics: dict[str, tuple[float, str]] = {}
    for name, _, _ in tr.SPANNED + tr.HOT + (("emit.generated.normalize", None, None),):
        calls, self_s, total_s = tracer.totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in ("cli.main", "builder.normalize", "oracle.validate_family"):
        metrics[f"{name}.total_s"] = (tracer.totals.get(name, (0, 0.0, 0.0))[2], "s")
    calls = {name: t[0] for name, t in tracer.totals.items()}
    leaves = max(res.leaves, 1)
    found, attempts = tracer.found
    lookups = calls.get("hashcons.from_term", 0)
    metrics.update(
        {
            "builder.construct_calls_per_leaf": (calls.get("builder.construct", 0) / leaves, "calls/leaf"),
            "builder.delete.found_ratio": (found / attempts if attempts else 0.0, "ratio"),
            "terms.compare_calls_per_leaf": (calls.get("terms.compare", 0) / leaves, "calls/leaf"),
            "hashcons.nodes": (res.nodes, "count"),
            "hashcons.edges": (res.edges, "count"),
            "hashcons.hit_ratio": (1 - res.nodes / lookups if lookups else 0.0, "ratio"),
            "emit.code_bytes": (code_bytes, "bytes"),
            "trace.overhead_ratio": (res.traced_s / res.untraced_s if res.untraced_s else 0.0, "ratio"),
            "trace.only_failures": (res.trace_only_failures, "count"),
            "trace.ops": (res.ops, "count"),
        }
    )
    per_fixture = {name: 0.0 for name, _, _ in w.VALIDATE_FIXTURES}
    for op_id, _, _, name, t0, t1 in tracer.spans:
        if name == "oracle.validate_family":
            per_fixture[op_id.split(":")[0]] += t1 - t0
    for name, seconds in per_fixture.items():
        metrics[f"oracle.validate_family.{name}_s"] = (seconds, "s")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans_{workload}_seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["op", "span", "parent", "name", "start", "end"], "spans": tracer.spans}, fh)
    attempted = 2 * len(ops)
    failed = sum(bool(op.failure) + bool(op.emit_failure) for op in ops)
    details = {"operations": len(ops), "spans": len(tracer.spans)}
    return _result(ops, attempted, failed, metrics), details


def _result(ops, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()

    if args.trace:
        result, details = traced(args.workload, args.seed)
    else:
        result, details = untraced(args.workload, args.seed, args.seconds)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment(), **details}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
