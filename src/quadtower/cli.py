"""Command-line surface: classification, range scanning, verification wrappers.

Structured output is line-oriented JSON (one record per line, sorted keys,
no timing fields unless requested) so repeated runs are byte-identical and
scan files are append-friendly. Exit codes: 0 success, 2 precondition
failure, 3 no matching case row, 4 internal consistency failure, 5 resource
bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import arith, qform
from .arith import factor_discriminant
from .classify import (
    CaseRecord,
    InternalConsistencyError,
    NoRowMatchError,
    PreconditionError,
    RowComputationError,
    RowPatternsUnavailableError,
    classify,
    tower_verdict,
    verify_invariant_row,
)
from .conic import ProvablyInsolubleError, solve_conic
from .group2 import (
    TableGroup,
    abelian_invariants,
    build_64_150,
    check_derived_collapse,
    check_metabelian_descent,
    check_power_filtration,
    collapse_library,
    derived_subgroup,
    lower_central_series,
    maximal_subgroups,
)
from .units import NormMinusOneError, delta_invariant, fundamental_unit

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_NO_ROW = 3
EXIT_INTERNAL = 4
EXIT_BOUND = 5

DEFAULT_SCAN_BOUND = 10**7


@dataclass(frozen=True)
class ScanRecord:
    """One scanned field, serializable to a single JSON line."""

    d: int
    factors: tuple[int, ...]
    case_type: str
    label: str
    gplus: str
    verdict: str
    verification: str
    ms: float | None = None

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "factors": list(self.factors),
            "case_type": self.case_type,
            "label": self.label,
            "gplus": self.gplus,
            "verdict": self.verdict,
            "verification": self.verification,
        }
        if self.ms is not None:
            payload["ms"] = self.ms
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        raw = json.loads(line)
        return cls(
            d=raw["d"],
            factors=tuple(raw["factors"]),
            case_type=raw["case_type"],
            label=raw["label"],
            gplus=raw["gplus"],
            verdict=raw["verdict"],
            verification=raw["verification"],
            ms=raw.get("ms"),
        )

    def to_csv(self) -> str:
        ms = "" if self.ms is None else repr(self.ms)
        factors = "*".join(str(f) for f in self.factors)
        return (
            f"{self.d},{factors},{self.case_type},{self.label},"
            f"{self.gplus},{self.verdict},{self.verification},{ms}"
        )

    CSV_HEADER = "d,factors,case_type,label,gplus,verdict,verification,ms"


def _record_for(rec: CaseRecord, verdict: str, verification: str,
                ms: float | None = None) -> ScanRecord:
    return ScanRecord(
        d=rec.d,
        factors=rec.assignment,
        case_type=rec.case_type,
        label=rec.label,
        gplus=rec.gplus_label,
        verdict=verdict,
        verification=verification,
        ms=ms,
    )


# -- argument plumbing ---------------------------------------------------------


def _target(text: str) -> int:
    """An integer, or a factor expression like 8*17*-3*-47."""
    try:
        if "*" in text:
            value = 1
            for piece in text.split("*"):
                value *= int(piece)
            return value
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer or *-separated factor expression"
        ) from None


def _invariant_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers"
        ) from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _setting(args_value, config: dict, section: str, key: str, default):
    """Flag beats config beats default; flags use None as the unset marker."""
    if args_value is not None:
        return args_value
    return config.get(section, {}).get(key, default)


def _checkpoint_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("QUADTOWER_CHECKPOINT_DIR")
    if base and not path.is_absolute():
        return Path(base) / path
    return path


# -- classify ------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    rec = classify(args.d)
    verdict = tower_verdict(rec, external_octic_cl2=args.octic_cl2)
    if args.json:
        print(_record_for(rec, verdict.verdict.value, "skipped").to_json())
        return EXIT_OK
    factors = " * ".join(str(f) for f in factor_discriminant(rec.d))
    print(f"d = {rec.d} = {factors}")
    print(f"case: {rec.label} (type {rec.case_type})")
    names = ", ".join(f"d{i + 1}={v}" for i, v in enumerate(rec.assignment))
    print(f"assignment: {names}")
    print(f"nu: {rec.symbol_matrix}")
    print(f"G: {' | '.join(sorted(rec.g_type))}   G+: {rec.gplus_label}")
    if rec.g_order_formula is not None:
        print(f"order formula: {rec.g_order_formula}")
    print(f"verdict: {verdict.verdict.value} - {verdict.justification}")
    return EXIT_OK


# -- scan ----------------------------------------------------------------------


def _scan_one(payload: tuple[int, bool, bool]):
    d, verify, timing = payload
    start = time.perf_counter()
    try:
        rec = classify(d)
    except (PreconditionError, NoRowMatchError):
        return (d, None)
    verdict = tower_verdict(rec)
    verification = "skipped"
    if verify:
        try:
            report = verify_invariant_row(rec)
            if report.matched:
                verification = "matched"
            else:
                bad = ",".join(e.column for e in report.mismatches())
                verification = f"mismatch:{bad}"
        except RowPatternsUnavailableError:
            verification = "unavailable"
    ms = round((time.perf_counter() - start) * 1000.0, 3) if timing else None
    return (d, _record_for(rec, verdict.verdict.value, verification, ms))


def _load_checkpoint(path: Path, signature: dict) -> int | None:
    """Returns the last processed d, validating the scan signature."""
    if not path.exists():
        return None
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:  # empty or torn file
        state = None
    if not isinstance(state, dict) or not {"signature", "last"} <= state.keys():
        raise PreconditionError(
            f"checkpoint {path} is not a JSON object with 'signature' and 'last'"
        )
    if state["signature"] != signature:
        raise PreconditionError(
            f"checkpoint {path} belongs to a different scan "
            f"(saved {state['signature']}, requested {signature})"
        )
    return state["last"]


def cmd_scan(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    bound = _setting(args.bound, config, "scan", "bound", DEFAULT_SCAN_BOUND)
    jobs = _setting(args.jobs, config, "scan", "jobs", 1)
    lo, hi = args.min, args.max
    if lo >= hi:
        raise PreconditionError(f"need min < max, got [{lo}, {hi}]")
    if hi > bound:
        raise PreconditionError(f"max {hi} exceeds the configured bound {bound}")

    case_filter = set(args.case or [])
    verdict_filter = set(args.verdict or [])
    signature = {
        "min": lo,
        "max": hi,
        "case": sorted(case_filter),
        "verdict": sorted(verdict_filter),
        "verify": bool(args.verify_rows),
    }

    checkpoint = _checkpoint_path(args.checkpoint) if args.checkpoint else None
    start = lo
    resume = False
    if checkpoint is not None:
        last = _load_checkpoint(checkpoint, signature)
        if last is not None:
            start = last + 1
            resume = True

    candidates = [d for d in range(start, hi + 1) if d % 4 in (0, 1)]
    payloads = [(d, bool(args.verify_rows), bool(args.timing)) for d in candidates]

    if args.output:
        sink = open(args.output, "a" if resume else "w", encoding="utf-8")
    else:
        sink = sys.stdout
    histogram: Counter[str] = Counter()
    emitted = 0
    wall = time.perf_counter()
    try:
        if args.format == "csv" and not resume:
            print(ScanRecord.CSV_HEADER, file=sink)
        if jobs > 1:
            executor = ProcessPoolExecutor(max_workers=jobs)
            chunk = max(1, len(payloads) // (jobs * 8) or 1)
            results = executor.map(_scan_one, payloads, chunksize=chunk)
        else:
            executor = None
            results = map(_scan_one, payloads)
        try:
            for d, record in results:
                if record is not None:
                    keep = (not case_filter or record.label in case_filter) and (
                        not verdict_filter or record.verdict in verdict_filter
                    )
                    if keep:
                        line = (
                            record.to_csv()
                            if args.format == "csv"
                            else record.to_json()
                        )
                        print(line, file=sink)
                        sink.flush()
                        histogram[record.label] += 1
                        emitted += 1
                if checkpoint is not None:
                    checkpoint.write_text(
                        json.dumps({"signature": signature, "last": d}),
                        encoding="utf-8",
                    )
        finally:
            if executor is not None:
                executor.shutdown()
    finally:
        if sink is not sys.stdout:
            sink.close()
    elapsed = time.perf_counter() - wall
    for label in sorted(histogram):
        print(f"{label} {histogram[label]}", file=sys.stderr)
    print(
        f"scanned [{start}, {hi}], {emitted} records, {elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


# -- verification wrappers -----------------------------------------------------


def cmd_verify_row(args: argparse.Namespace) -> int:
    report = verify_invariant_row(args.d, max_steps=args.max_steps)
    print(
        f"d = {report.d}  case = {report.label}  "
        f"nu34 = {report.nu34}  N(eps12) = {report.eps_sign:+d}"
    )
    for entry in report.entries:
        mark = "yes" if entry.matched else "NO"
        print(
            f"column = {entry.column}  expected = {entry.expected}  "
            f"computed = {entry.computed}  match = {mark}"
        )
    if not report.matched:
        print("row verification FAILED", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_conic(args: argparse.Namespace) -> int:
    try:
        sol = solve_conic(args.delta1, args.delta2, bound=args.bound)
    except ProvablyInsolubleError as exc:
        print(f"no solution exists: {exc}")
        return EXIT_OK
    d1, d2 = sol.form_params
    lhs = sol.a * sol.a
    rhs = d1 * sol.b * sol.b + d2 * sol.c * sol.c
    print(f"x = {sol.a}  y = {sol.b}  z = {sol.c}")
    print(f"check: {sol.a}^2 = {d1}*{sol.b}^2 + {d2}*{sol.c}^2  ({lhs} = {rhs})")
    if lhs != rhs:
        print("identity check failed", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _integer_unit_form(u) -> str | None:
    x, ym = u.coords_over_radicand()
    if x % 2 or ym % 2:
        return None
    return f"{x // 2} + {ym // 2}*sqrt({u.m})"


def cmd_unit(args: argparse.Namespace) -> int:
    u = fundamental_unit(args.d, max_steps=args.max_steps)
    integer_form = _integer_unit_form(u)
    rendered = f"{u}" if integer_form is None else f"{u} = {integer_form}"
    print(f"epsilon = {rendered}")
    print(f"norm = {u.norm:+d}")
    try:
        print(f"delta = {delta_invariant(u).delta}")
    except NormMinusOneError:
        print("delta = undefined (norm -1)")
    return EXIT_OK


def cmd_classgroup(args: argparse.Namespace) -> int:
    cg = qform.class_group(args.d, narrow=args.narrow)
    kind = "narrow" if args.narrow else "ordinary"
    divisors = list(cg.elementary_divisors)
    print(f"d = {args.d}  ({kind})")
    print(f"h = {cg.h}")
    print(f"invariants = {divisors}")
    print(f"two_sylow = {qform.two_sylow(cg)}")
    return EXIT_OK


# -- group subcommands ---------------------------------------------------------

_CHECKS = {
    "derived-collapse": check_derived_collapse,
    "power-filtration": check_power_filtration,
    "metabelian-descent": check_metabelian_descent,
}


def _run_checks(group, which: list[str]) -> int:
    status = EXIT_OK
    for name in which:
        report = _CHECKS[name](group)
        if not report.applicable:
            print(f"{name}: not applicable ({report.reason})")
            status = max(status, EXIT_PRECONDITION)
        elif report.holds:
            print(f"{name}: pass")
        else:
            print(f"{name}: FAIL ({report})")
            status = max(status, EXIT_INTERNAL)
    return status


def _describe_table(T: TableGroup) -> None:
    gp = derived_subgroup(T)
    series = lower_central_series(T)
    print(f"order = {T.order}")
    print(f"derived subgroup order = {len(gp)}")
    print(f"lower central orders = {[len(s) for s in series]}")
    print(f"maximal subgroups = {len(maximal_subgroups(T))}")


def _requested_checks(selected: list[str] | None) -> list[str] | None:
    if selected and "all" in selected:
        return list(_CHECKS)
    return selected


def cmd_group(args: argparse.Namespace) -> int:
    if args.group_cmd == "build-64150":
        G = build_64_150()
        T = G.table_group()
        gp = derived_subgroup(T)
        print(f"order = {T.order}")
        print(
            f"derived subgroup: order {len(gp)}, "
            f"invariants {abelian_invariants(T, gp)}"
        )
        if args.dump:
            T.to_file(args.dump)
            print(f"table written to {args.dump}")
        which = _requested_checks(args.check)
        return _run_checks(T, which) if which else EXIT_OK
    if args.group_cmd == "check":
        T = TableGroup.from_file(args.table)
        which = _requested_checks(args.check)
        return _run_checks(T, which or list(_CHECKS))
    if args.group_cmd == "table":
        T = TableGroup.from_file(args.table)
        _describe_table(T)
        return EXIT_OK
    if args.group_cmd == "library":
        worst = EXIT_OK
        for name, g in collapse_library():
            report = check_derived_collapse(g)
            verdict = "counterexample" if report.counterexample else "ok"
            print(f"{name}: derived order {report.derived_order}, {verdict}")
            if report.counterexample:
                worst = EXIT_INTERNAL
        return worst
    raise AssertionError(f"unhandled group subcommand {args.group_cmd}")


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadtower",
        description=(
            "Classification and tower-length toolkit for real quadratic "
            "fields with four-prime discriminant and 2-class group (2, 2)."
        ),
    )
    parser.add_argument(
        "--config", default=None, help="optional JSON configuration file"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one discriminant")
    p.add_argument("d", type=_target, help="discriminant or factor expression")
    p.add_argument(
        "--octic-cl2",
        type=_invariant_list,
        default=None,
        metavar="2,4,4",
        help="externally computed octic 2-class group invariants",
    )
    p.add_argument("--json", action="store_true", help="one-line JSON record")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="scan a discriminant range")
    p.add_argument("min", type=int)
    p.add_argument("max", type=int)
    p.add_argument("--case", action="append", help="keep only this case label")
    p.add_argument("--verdict", action="append", help="keep only this verdict")
    p.add_argument("--output", default=None, help="write records to this file")
    p.add_argument("--checkpoint", default=None, help="resumable checkpoint file")
    p.add_argument("--jobs", type=int, default=None, help="worker processes")
    p.add_argument("--bound", type=int, default=None, help="maximum allowed max")
    p.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl",
        help="record format (jsonl is the primary, round-trippable one)",
    )
    p.add_argument(
        "--verify-rows", action="store_true",
        help="also run invariant-row verification per field",
    )
    p.add_argument(
        "--timing", action="store_true",
        help="include per-field wall time (breaks byte-identical reruns)",
    )
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-row", help="verify the invariant-table row")
    p.add_argument("d", type=_target)
    p.add_argument("--max-steps", type=int, default=10**6)
    p.set_defaults(func=cmd_verify_row)

    p = sub.add_parser("conic", help="solve x^2 = d1 y^2 + d2 z^2")
    p.add_argument("delta1", type=int)
    p.add_argument("delta2", type=int)
    p.add_argument("--bound", type=int, default=10**4)
    p.set_defaults(func=cmd_conic)

    p = sub.add_parser("unit", help="fundamental unit of a real discriminant")
    p.add_argument("d", type=_target)
    p.add_argument("--max-steps", type=int, default=10**6)
    p.set_defaults(func=cmd_unit)

    p = sub.add_parser("classgroup", help="form class group of a discriminant")
    p.add_argument("d", type=_target)
    p.add_argument("--narrow", action="store_true")
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("group", help="finite 2-group checks")
    gsub = p.add_subparsers(dest="group_cmd", required=True)
    g = gsub.add_parser("build-64150", help="build the order-64 group")
    g.add_argument(
        "--check", action="append", default=None,
        choices=tuple(_CHECKS) + ("all",),
    )
    g.add_argument("--dump", default=None, help="write the table to a file")
    g = gsub.add_parser("check", help="run checkers on a table file")
    g.add_argument("table")
    g.add_argument(
        "--check", action="append", default=None,
        choices=tuple(_CHECKS) + ("all",),
    )
    g = gsub.add_parser("table", help="load and describe a table file")
    g.add_argument("table")
    g = gsub.add_parser("library", help="derived-collapse sweep over the library")
    p.set_defaults(func=cmd_group)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoRowMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_ROW
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (RowComputationError, arith.BoundExceededError) as exc:
        # NoSolutionWithinBoundError is a BoundExceededError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (RowPatternsUnavailableError, ValueError) as exc:
        # PreconditionError, SignRuleError, InvalidTableError and
        # NotFundamentalError are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        target = exc.filename or "?"
        print(f"error: {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
