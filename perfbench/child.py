"""Measuring process of the spinsweep benchmark; `run.py` starts it fresh per run.

    python3 perfbench/child.py setup WORKLOAD
    python3 perfbench/child.py ref WORKLOAD
    python3 perfbench/child.py measure WORKLOAD --x X --seconds S --trace 0|1 --out DIR --tag TAG

`setup` times import + load_spec + build_tables of the workload's fields.
`ref` times a bare `import numpy`, the machine-speed reference that
`run.py` divides set-up time by.  `measure` repeats the workload for S
seconds, checks every output against the pinned values in workloads.py,
and prints one JSON line.  With --trace 1 each round is an untraced pass
followed by a traced pass, and there are at least two traced passes, so
their counts can be compared.  Every mode runs on the lowest CPU the
process may use, so probes and measurement share one CPU.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads  # sibling module; this file runs as a script
from workloads import WORKLOADS

# spinsweep is imported inside the functions, so set-up probes time the import.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _builtin_spec(name):
    """load_spec on one of the field configs shipped in spinsweep.data."""
    from importlib import resources

    from spinsweep import numfield

    text = (resources.files("spinsweep.data") / f"{name}.cfg").read_text(encoding="utf-8")
    return numfield.load_spec(text)


# -- setup probes -----------------------------------------------------------------


def ref_probe():
    t0 = perf_counter()
    import numpy  # noqa: F401

    return {"ref_s": perf_counter() - t0}


def setup_probe(name):
    t0 = perf_counter()
    from spinsweep import sweep

    wl = WORKLOADS[name]
    fields = workloads.CUBICS if wl.kind == "exact" else (wl.field,)
    for field in fields:
        sweep.build_tables(_builtin_spec(field))
    return {"setup_s": perf_counter() - t0}


# -- sweeps ---------------------------------------------------------------------


class SweepRunner:
    disagreements = 0  # a sweep evaluates no degree both by closed form and by scan

    def __init__(self, name, x, out_dir, tag):
        from spinsweep import sweep

        self.wl, self.x = WORKLOADS[name], x
        self.primes = sweep.odd_primes_in(3, x + 1)
        self.degree = _builtin_spec(self.wl.field).n
        self.csv_path = out_dir / f"{tag}.csv"
        self.reference_csv = None  # first pass's CSV; every later pass must match it

    def run_pass(self):
        """One CLI sweep: (wall seconds, split primes, failed primes, problems)."""
        from spinsweep import cli, sweep

        out, err = io.StringIO(), io.StringIO()
        failure = None
        self.csv_path.unlink(missing_ok=True)
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(["sweep", "--field", self.wl.field, "--limit", str(self.x),
                               "--jobs", "1", "--csv", str(self.csv_path)])
        # GeneratorNotFound, AmbiguousSign and the generator self-check all
        # subclass RuntimeError and escape cli.main.
        except (sweep.SpinRelationViolation, RuntimeError) as exc:
            rc, failure = None, exc
        wall = perf_counter() - t0
        if failure is not None:
            p = _failed_prime(failure)
            failed = sum(1 for q in self.primes if p is None or q >= p)
            return wall, 0, failed, [f"{type(failure).__name__} at p = {p}: {failure}"]
        if rc != 0:
            found = re.search(r"hard consistency violation: p=(\d+)", err.getvalue())
            if found:
                p = int(found.group(1))
                failed = sum(1 for q in self.primes if q >= p)
                return wall, 0, failed, [f"spin relation violated at p = {p}"]
            failing = [line for line in out.getvalue().splitlines() if line.endswith("FAIL")]
            return wall, 0, 0, [f"sweep exited with code {rc}: {failing or err.getvalue()[-300:]}"]
        text = self.csv_path.read_text(encoding="utf-8")
        self.csv_path.unlink()
        rows, problems = self.check_csv(text)
        return wall, rows, 0, problems

    def check_csv(self, text):
        problems = []
        lines = text.splitlines()
        ps = [int(line.split(",", 1)[0]) for line in lines[1:]]
        if any(a >= b for a, b in zip(ps, ps[1:])) or (ps and ps[-1] > self.x):
            problems.append("CSV rows are not strictly increasing primes <= X")
        shared = [lines[0]] + [line for line, p in zip(lines[1:], ps) if p < self.wl.x_lo]
        digest = hashlib.sha256(("\n".join(shared) + "\n").encode()).hexdigest()
        if len(shared) - 1 != self.wl.shared_rows or digest != self.wl.digest:
            problems.append(
                f"CSV rows below {self.wl.x_lo}: {len(shared) - 1} rows, sha256 {digest}; "
                f"pinned {self.wl.shared_rows} rows, sha256 {self.wl.digest}"
            )
        if self.reference_csv is None:
            self.reference_csv = text
        elif text != self.reference_csv:
            problems.append("CSV differs from the first pass of this run")
        return len(ps), problems


def _failed_prime(exc):
    """The prime classify_prime was working on when exc was raised."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        if frame.f_code.co_name == "classify_prime":
            return frame.f_locals.get("p")
    found = re.search(r"p=(\d+)", str(exc))
    return int(found.group(1)) if found else None


# -- exact kernels ----------------------------------------------------------------


class ExactRunner:
    disagreements = 0  # degrees where the closed form disagrees with the scan

    def __init__(self):
        self.specs = {name: _builtin_spec(name) for name in workloads.CUBICS}
        n5 = workloads.N5_SPEC
        self.specs[n5["name"]] = argparse.Namespace(**n5)

    def run_pass(self):
        """One pass over every exact kernel: (wall, 0, failed values, problems)."""
        from spinsweep import checks, density, residue

        good, problems = 0, []

        def check(label, got, want):
            nonlocal good
            if got == want:
                good += 1
            else:
                problems.append(f"{label}: got {got}, pinned {want}")

        t0 = perf_counter()
        try:
            for name, (kernels, c) in workloads.FIELD_EXPECT.items():
                family = residue.build_family(self.specs[name])
                star = residue.star_table(family)
                pairing = residue.build_matrix_A(family)
                check(f"{name} star kernels", (star.ker_plus, star.ker_minus), kernels)
                check(f"{name} pairing c", pairing.c, c)
            for name in workloads.CUBICS:
                rows = checks.run_all(self.specs[name])
                if len(rows) != workloads.SELFCHECK_ROWS:
                    problems.append(f"{name} selfcheck: {len(rows)} rows, pinned {workloads.SELFCHECK_ROWS}")
                for row in rows:
                    check(f"{name} {row.name}", "PASS" if row.ok else "FAIL", "PASS")
            scans = {}
            for n, want in workloads.SCAN_EXPECT.items():
                scans[n] = residue.kernel_counts_via_B(residue.CirculantA((1,) + (0,) * (n - 1)))
                check(f"scan n={n}", scans[n], want)
            self.disagreements = sum(density.s_pair(n) != scans[n] for n in scans)
            table = density.format_table(workloads.TABLE_DEGREES).splitlines()[1:]
            cells = {int(r.split(" | ")[0]): tuple(r.split(" | ")[1:]) for r in table}
            for n, want in workloads.TABLE_EXPECT.items():
                for i, cell in enumerate(want):
                    check(f"table n={n} column {i + 1}", cells[n][i], cell)
        except Exception as exc:  # a crash fails every value not yet checked
            problems.append(f"{type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        return wall, 0, workloads.EXACT_VALUES - good, problems


# -- measurement loop ------------------------------------------------------------------


class SpeedSampler:
    """CPU time of a fixed chunk of pure-Python arithmetic, sampled through each pass.

    On a shared virtual machine the speed of a vCPU drifts by tens of
    percent over seconds to minutes, independently on each vCPU.  A thread
    pinned to the CPU of the measured work runs the chunk (a few ms) every
    100 ms and records its thread CPU time; a pass's wall time divided by
    the mean chunk time over that pass cancels most of the drift.  The mean,
    not the median, because the wall time sums the slow and fast stretches
    of the pass alike.  The sampler takes a few percent of the CPU, in every
    pass alike.
    """

    PERIOD_S = 0.1

    def __init__(self, cpu):
        self.cpu = cpu
        self.samples = []  # (perf_counter at the end of a chunk, its CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        t0 = time.thread_time()
        acc = 0
        for i in range(20_000):
            acc = (acc * 1103515245 + i) % 2147483647
        self.samples.append((perf_counter(), time.thread_time() - t0))

    def _run(self):
        os.sched_setaffinity(0, {self.cpu})  # pid 0 pins this thread only
        while not self._stop.wait(self.PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()  # so a pass shorter than PERIOD_S still has a reference
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def chunk_s_since(self, t):
        """Mean chunk CPU time since t (over all samples if none is that recent)."""
        samples = list(self.samples)
        window = [c for end, c in samples if end >= t] or [c for _, c in samples]
        return statistics.fmean(window)


def measure(name, x, seconds, trace, out_dir, tag):
    import numpy

    wl = WORKLOADS[name]
    runner = SweepRunner(name, x, out_dir, tag) if wl.kind == "sweep" else ExactRunner()
    cpu = min(os.sched_getaffinity(0))  # main() pinned the process; the sampler shares the CPU
    walls, walls_ref, rounds, problems = [], [], [], []
    attempted = failed = split = 0
    per_op = len(runner.primes) if wl.kind == "sweep" else workloads.EXACT_VALUES
    start = perf_counter()

    with SpeedSampler(cpu) as speed:
        while True:
            t0 = perf_counter()
            wall, rows, bad, pass_problems = runner.run_pass()
            chunk_s = speed.chunk_s_since(t0)
            walls.append(wall)
            walls_ref.append(wall / chunk_s)
            attempted, failed, split = attempted + per_op, failed + bad, rows
            problems += pass_problems
            if pass_problems:
                break
            if trace:
                rounds.append(_traced_pass(runner, wl, speed, statistics.median(walls_ref), out_dir, tag, problems))
            if perf_counter() - start >= seconds:
                break
        # A sweep pass takes most of --seconds: add traced passes until two
        # can be compared, without more untraced ones.
        while trace and len(rounds) < 2 and not problems:
            rounds.append(_traced_pass(runner, wl, speed, statistics.median(walls_ref), out_dir, tag, problems))
    result = {
        "numpy": numpy.__version__,
        "walls": walls,
        "walls_ref": walls_ref,
        "attempted": attempted,
        "failed": failed,
        "split_primes": split,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "closed_form_disagreements": runner.disagreements,
        "problems": problems,
    }
    if rounds:
        result["per_layer"] = _combine_rounds(rounds, problems)
    return result


def _traced_pass(runner, wl, speed, ref_untraced, out_dir, tag, problems):
    """A traced pass of the command whose untraced passes took ref_untraced chunks (median)."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        wall_traced, rows, _, pass_problems = runner.run_pass()
    finally:
        tracer.uninstall()
    chunk_s = speed.chunk_s_since(t0)
    problems += pass_problems
    tracer.write(out_dir / f"{tag}.spans.csv")
    metrics = layer_metrics(tracer.spans)
    # Traced wall minus the untraced wall at the machine speed of this pass.
    metrics["trace.overhead_s"] = wall_traced - ref_untraced * chunk_s
    metrics["density.closed_form_disagreements"] = runner.disagreements
    if wl.kind == "sweep":
        if metrics["sweep.split_primes"] != rows:
            problems.append(f"traced split primes {metrics['sweep.split_primes']} != CSV rows {rows}")
        if metrics["sweep.identity_checks"] != 2 * (runner.degree - 1) * rows:
            problems.append(f"identity checks {metrics['sweep.identity_checks']} != 2(n-1) x {rows}")
    return metrics


def _combine_rounds(rounds, problems):
    """Median of each time over the traced passes; counts must repeat exactly."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "calls/gen")}
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if key in counts:
            if len(set(values)) != 1:
                problems.append(f"count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "ref", "measure"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--x", type=int)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tag", default="run")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.mode == "setup":
        result = setup_probe(args.workload)
    elif args.mode == "ref":
        result = ref_probe()
    else:
        result = measure(args.workload, args.x, args.seconds, args.trace, args.out, args.tag)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
