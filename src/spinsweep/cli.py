"""Command-line surface.

Subcommands: table, density, verify-kernel, sweep, selfcheck.  Results go
to stdout, diagnostics to stderr, so CSV and table output pipe cleanly.
`sweep --jobs` is its only scheduling setting: the windows of [3, X] follow
from it (see the `sweep` module), and no output depends on it.

Exit codes: 0 success/PASS, 1 usage error, 2 validation error (bad config
or arguments, with the violated condition named), 3 acceptance failure
(kernel disagreement, spin-relation violation, tolerance breach), 4 sweep
failed: at a prime (GeneratorNotFound, AmbiguousSign or
GeneratorSelfCheckFailed, named with the prime), or because a worker
process of a parallel sweep died (WorkerCrashed).
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

from . import checks, f2poly, residue
from .density import N15_ERRATUM_NOTE, density_report, format_table
from .numfield import FieldConfigError, load_spec, load_spec_file
from .sweep import (
    SEARCH_FAILURES,
    SweepConfig,
    SpinRelationViolation,
    WorkerCrashed,
    emit_csv,
    format_report,
    run_sweep,
)

USAGE_ERROR, VALIDATION_ERROR, ACCEPTANCE_FAIL, SWEEP_FAILED = 1, 2, 3, 4

BUILTIN_FIELDS = ("simplest-cubic-7", "cyclic-cubic-9")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_field(arg: str):
    """Resolve --field as a path, falling back to a packaged config name."""
    try:
        return load_spec_file(arg)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise FieldConfigError(f"field config unreadable: {arg}: {exc.strerror}") from None
    name = arg.removesuffix(".cfg")
    if name in BUILTIN_FIELDS:
        ref = resources.files("spinsweep.data") / f"{name}.cfg"
        return load_spec(ref.read_text(encoding="utf-8"))
    raise FieldConfigError(f"field config not found: {arg}")


def _parse_n_list(text: str):
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise FieldConfigError(f"bad degree list: {text!r}") from None
    if not values:
        raise FieldConfigError("empty degree list")
    for n in values:
        if n < 3 or n % 2 == 0:
            raise FieldConfigError(f"degree must be odd and >= 3, got {n}")
    return values


def _cmd_table(args) -> int:
    rows = _parse_n_list(args.n)
    print(format_table(rows))
    if 15 in rows:
        print(N15_ERRATUM_NOTE)
    return 0


def _cmd_density(args) -> int:
    rows = _parse_n_list(args.n)
    for n in rows:
        rep = density_report(n)
        print(f"n = {rep.n}")
        print(f"  s_plus  = {rep.s_plus}")
        print(f"  s_minus = {rep.s_minus}")
        for label, value in (
            ("d(F+|S+)", rep.dF_plus),
            ("d(F-|S-)", rep.dF_minus),
            ("d(F|S)", rep.dF),
            ("d(R+|S+)", rep.dR_plus),
            ("d(R-|S-)", rep.dR_minus),
            ("d(R|S)", rep.dR),
        ):
            print(f"  {label} = {value.numerator}/{value.denominator}")
        if n == 15:
            print(f"  {N15_ERRATUM_NOTE}")
    return 0


def _cmd_verify_kernel(args) -> int:
    spec = _load_field(args.field)
    family = residue.build_family(spec)
    star = checks.oracle_star_table(family)
    pairing = residue.build_matrix_A(family)
    closed, brute, convol = checks.kernel_routes(spec.n, star, pairing)
    agree = closed == brute == convol
    print(f"field = {spec.name}  (n = {spec.n})")
    print(f"normal basis generator y = {family.y}")
    print(f"pairing c-sequence = {pairing.c}")
    print(f"h(x) = {f2poly.poly_str(residue.h_poly(pairing))}")
    print(f"kernel counts  closed-form      = {closed}")
    print(f"kernel counts  star-table       = {brute}")
    print(f"kernel counts  autocorrelation  = {convol}")
    print("verdict:", "AGREE" if agree else "DISAGREE")
    return 0 if agree else ACCEPTANCE_FAIL


def _cmd_sweep(args) -> int:
    spec = _load_field(args.field)
    config = SweepConfig(spec=spec, limit=args.limit)
    # reject a bad --csv target before any prime is classified; run_sweep rejects a bad --jobs
    if args.csv and args.csv != "-":
        folder = os.path.dirname(os.path.abspath(args.csv))
        if os.path.isdir(args.csv) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
            raise ValueError(f"cannot write --csv target {args.csv}")
    try:
        result = run_sweep(config, jobs=args.jobs)
    except SpinRelationViolation as exc:
        print(f"hard consistency violation: {exc}", file=sys.stderr)
        return ACCEPTANCE_FAIL
    except (*SEARCH_FAILURES, WorkerCrashed) as exc:
        print(f"sweep failed [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return SWEEP_FAILED
    report_stream = sys.stdout
    if args.csv:
        text = emit_csv(result.records, spec.n)
        if args.csv == "-":
            sys.stdout.write(text)
            report_stream = sys.stderr  # keep piped CSV clean
        else:
            try:
                with open(args.csv, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write --csv target {args.csv}: {exc.strerror}") from None
            print(f"wrote {len(result.records)} rows to {args.csv}", file=sys.stderr)
    print(format_report(result), file=report_stream)
    return 0 if result.passed else ACCEPTANCE_FAIL


def _cmd_selfcheck(args) -> int:
    fields = [args.field] if args.field else list(BUILTIN_FIELDS)
    all_ok = True
    for name in fields:
        spec = _load_field(name)
        print(f"== {spec.name}")
        for row in checks.run_all(spec):
            print(f"{'PASS' if row.ok else 'FAIL'}  {row.name}"
                  + (f"  ({row.detail})" if row.detail else ""))
            all_ok &= row.ok
    print("selfcheck:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else ACCEPTANCE_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="spinsweep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="density table for a list of degrees")
    p.add_argument("--n", required=True, help="comma-separated odd degrees, e.g. 3,5,7")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("density", help="full density report for a list of degrees")
    p.add_argument("--n", required=True, help="comma-separated odd degrees")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("verify-kernel", help="three-way kernel count comparison")
    p.add_argument("--field", required=True, help="field config path or builtin name")
    p.set_defaults(func=_cmd_verify_kernel)

    p = sub.add_parser("sweep", help="empirical prime sweep against exact densities")
    p.add_argument("--field", required=True, help="field config path or builtin name")
    p.add_argument("--limit", type=int, required=True, help="sweep primes up to this bound")
    p.add_argument("--csv", help="write per-prime CSV here ('-' for stdout)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (0 = auto)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("selfcheck", help="run the exhaustive property suites")
    p.add_argument("--field", help="restrict to one field (default: all builtin)")
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except FieldConfigError as exc:
        print(f"validation error [{exc.condition}]: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
