"""Command-line driver.

    canonform check FILE
    canonform norm FILE -e EXPR [--sharing]
    canonform validate FILE [--size N] [--budget B]
    canonform emit FILE [--format report|code]

Exit codes: 0 success, 1 rejection or counterexample, 2 unreadable input,
3 validation finished with UNKNOWNs only.  Diagnostics go to standard error
as `line:col: error[code]: message` (position omitted where none applies).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .builder import CompiledFamily, compile_family, normalize
from .emit import emit_code, emit_report
from .errors import CanonError, ParseError, TheoryError
from .hashcons import HashConsTable
from .oracle import ClosureBudget, validate_family
from .syntax import parse_definition, parse_ground_term
from .terms import Signature, format_term
from .theory import COMPANIONS, TheorySpec


def _diag(err: CanonError) -> None:
    if isinstance(err, ParseError):
        print(err.render(), file=sys.stderr)
    elif isinstance(err, TheoryError):
        print(f"error[theory]: {err}", file=sys.stderr)
    else:
        print(f"error: {err}", file=sys.stderr)


def _load(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 at byte {exc.start}"
        print(f"error[io]: cannot read {path}: {reason}", file=sys.stderr)
        return None


def cmd_check(spec: TheorySpec, fam: CompiledFamily) -> int:
    cl = fam.classification
    for th in cl.theories:
        named = ((field, getattr(th, field)) for field, _, _ in COMPANIONS.values())
        extras = [f"{field}={name}" for field, name in named if name]
        extras.append(f"{th.orientation} combs")
        print(f"{th.ctor}: {th.variant.value} ({', '.join(extras)})")
    for c in cl.type1:
        n = sum(1 for r in spec.rules if r.lhs.ctor == c)
        print(f"{c}: {n} rewrite rule{'s' if n != 1 else ''}")
    for c in cl.free:
        print(f"{c}: free")
    return 0


def cmd_norm(sig: Signature, fam: CompiledFamily, expr: str, sharing: bool) -> int:
    t = parse_ground_term(expr, sig)
    table = HashConsTable(sig) if sharing else None
    v = normalize(t, fam, table)
    print(format_term(v))
    if table is not None:
        nodes, edges = table.sharing_stats()
        print(f"sharing: nodes={nodes} edges={edges}", file=sys.stderr)
    return 0


def cmd_validate(
    sig: Signature,
    spec: TheorySpec,
    fam: CompiledFamily,
    size: int,
    budget: Optional[int],
) -> int:
    bud = ClosureBudget(max_steps=budget) if budget is not None else None
    report = validate_family(fam, spec, sig, size, bud)
    for line in report.machine_lines():
        print(line)
    print(report.summary())
    if report.has_failures:
        return 1
    if report.unknowns:
        return 3
    return 0


def cmd_emit(fam: CompiledFamily, fmt: str) -> int:
    text = emit_report(fam) if fmt == "report" else emit_code(fam)
    sys.stdout.write(text)
    return 0


@functools.cache  # built once per process: parsing reads it, never changes it
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="canonform",
        description="compile relational data type definitions into "
        "canonical-form construction functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and classify a definition file")
    p.add_argument("file")

    p = sub.add_parser("norm", help="normalize one term")
    p.add_argument("file")
    p.add_argument("-e", "--expr", required=True, help="ground term to normalize")
    p.add_argument(
        "--sharing", action="store_true", help="intern values and report sharing"
    )

    p = sub.add_parser("validate", help="exhaustively validate up to a size bound")
    p.add_argument("file")
    p.add_argument("--size", type=int, default=6, help="maximum term size (default 6)")
    p.add_argument(
        "--budget", type=int, default=None, help="closure state budget (default 10000)"
    )

    p = sub.add_parser("emit", help="print compiled clauses or standalone code")
    p.add_argument("file")
    p.add_argument(
        "--format", choices=("report", "code"), default="report", dest="fmt"
    )
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    text = _load(args.file)
    if text is None:
        return 2
    try:
        sig, spec = parse_definition(text)
        fam = compile_family(sig, spec)
        if args.command == "check":
            return cmd_check(spec, fam)
        if args.command == "norm":
            return cmd_norm(sig, fam, args.expr, args.sharing)
        if args.command == "validate":
            return cmd_validate(sig, spec, fam, args.size, args.budget)
        return cmd_emit(fam, args.fmt)
    except CanonError as err:
        _diag(err)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
