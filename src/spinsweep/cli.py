"""Command-line surface.

Subcommands: table, density, verify-kernel, sweep, selfcheck.  Results go
to stdout, diagnostics to stderr, so CSV and table output pipe cleanly.
`sweep --jobs` is its only scheduling setting: the windows of [3, X] follow
from it (see the `sweep` module), and no output depends on it.

`verify-kernel` compares three kernel counts: the closed form, the star
table of the mod-8 oracle and the autocorrelation scan.  Above
`checks.MAX_ORACLE_DEGREE` the oracle is out of reach: the star-table line
reads `not run (...)`, and the verdict compares, and names, the other two.

Exit codes: 0 success/PASS, 1 usage error, 2 validation error (bad config
or arguments, with the violated condition named), 3 acceptance failure
(kernel disagreement, of all three routes or, above the oracle's degree, of
the two that ran; spin-relation violation, tolerance breach), 4 sweep
failed: at a prime (a `numfield.PrimeFailure` such as GeneratorNotFound
or RootNotSeparated, named with the prime), or because a worker process of
a parallel sweep died (WorkerCrashed).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from importlib import resources

from . import checks, f2poly, residue
from .density import N15_ERRATUM_NOTE, density_report, format_table
from .numfield import FieldConfigError, PrimeFailure, load_spec, load_spec_file
from .sweep import SpinRelationViolation, WorkerCrashed, emit_csv, format_report, run_sweep

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
    except UnicodeDecodeError:
        raise FieldConfigError(f"field config unreadable: {arg}: not UTF-8 text") from None
    name = arg.removesuffix(".cfg")
    if name in BUILTIN_FIELDS:
        ref = resources.files("spinsweep.data") / f"{name}.cfg"
        return load_spec(ref.read_text(encoding="utf-8"))
    raise FieldConfigError(f"field config not found: {arg}")


def _parse_n_list(text: str):
    try:
        values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"bad degree list: {text!r}") from None
    if not values:
        raise ValueError("empty degree list")
    for n in values:
        if n < 3 or n % 2 == 0:
            raise ValueError(f"degree must be odd and >= 3, got {n}")
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
    ring = residue.build_family(spec)
    oracle = spec.n <= checks.MAX_ORACLE_DEGREE
    pairing = ring.pairing
    closed, brute, convol = checks.kernel_routes(checks.oracle_star_table(ring) if oracle else None, pairing)
    agree = closed == convol and (not oracle or brute == closed)
    print(f"field = {spec.name}  (n = {spec.n})")
    print(f"normal basis generator y = {ring.coeffs(ring.y)}")
    print(f"pairing c-sequence = {pairing.c}")
    print(f"h(x) = {f2poly.poly_str(pairing.h)}")
    print(f"kernel counts  closed-form      = {closed}")
    if oracle:
        print(f"kernel counts  star-table       = {brute}")
    else:
        print(f"kernel counts  star-table       = not run (the mod-8 oracle runs at n <= "
              f"{checks.MAX_ORACLE_DEGREE}; at n = {spec.n} it would enumerate 8^{spec.n} elements)")
    print(f"kernel counts  autocorrelation  = {convol}")
    verdict = "AGREE" if agree else "DISAGREE"
    print("verdict:", verdict if oracle else f"{verdict}  (closed-form vs autocorrelation)")
    return 0 if agree else ACCEPTANCE_FAIL


def _csv_write_error(name, exc: OSError) -> ValueError:
    return ValueError(f"cannot write --csv target {name}: {exc.strerror}")


def _cmd_sweep(args) -> int:
    spec = _load_field(args.field)
    # open the --csv target before any prime is classified; run_sweep rejects a bad --limit or --jobs
    if args.csv in (None, "-"):
        out, partial = (sys.stdout if args.csv else None), None
    else:
        target = os.path.realpath(args.csv)
        partial = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
        try:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            out = open(partial, "x", encoding="utf-8")
        except OSError as exc:
            raise _csv_write_error(args.csv, exc) from None
    header = True

    def write_rows(records):
        nonlocal header
        try:
            out.write(emit_csv(records, spec.n, header=header))
        except OSError as exc:
            raise _csv_write_error(args.csv, exc) from None
        header = False

    try:
        result = run_sweep(spec, args.limit, jobs=args.jobs, sink=None if out is None else write_rows)
        if partial is not None:
            try:
                out.close()
                os.replace(partial, target)
            except OSError as exc:
                raise _csv_write_error(args.csv, exc) from None
            partial = None
    except SpinRelationViolation as exc:
        print(f"hard consistency violation: {exc}", file=sys.stderr)
        return ACCEPTANCE_FAIL
    except (PrimeFailure, WorkerCrashed) as exc:
        print(f"sweep failed [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return SWEEP_FAILED
    finally:
        if partial is not None:  # the sweep stopped before its report: the target stays as it was
            out.close()
            os.remove(partial)
    report_stream = sys.stdout
    if args.csv == "-":
        report_stream = sys.stderr  # keep piped CSV clean
    elif args.csv:
        print(f"wrote {result.tally.total()} rows to {args.csv}", file=sys.stderr)
    print(format_report(result), file=report_stream)
    return 0 if result.passed else ACCEPTANCE_FAIL


def _cmd_selfcheck(args) -> int:
    specs = [_load_field(name) for name in ([args.field] if args.field else BUILTIN_FIELDS)]
    for spec in specs:
        if spec.n > checks.MAX_SUITE_DEGREE:
            raise ValueError(f"selfcheck runs its exhaustive suites at n <= {checks.MAX_SUITE_DEGREE}, "
                             f"{spec.name} has n = {spec.n}")
    all_ok = True
    for spec in specs:
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
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, cut to the CPU count (0 = auto: CPU count, at most 8)")
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
