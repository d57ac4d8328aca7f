"""Run one spinsweep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed picks the workload's input (the
sweep limit X within a narrow band).  Each run starts fresh processes:
thirteen that time set-up (import + load_spec + build_tables), each between two
that time a bare `import numpy` as the machine's current speed, and one
that repeats the workload for S seconds and checks every output against
pinned values.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.  A
readable report goes first; the last line of stdout is the JSON result.
A full record (context, every pass, problems) goes to perfbench/out/.
Exit code 0 when every output checked out, 1 when one did not, 2 when the
program is missing or the run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True

import workloads  # noqa: E402  (sibling module; this file runs as a script)
from tracer import LAYER_TABLE  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
# Set-up probes run before and after the measuring process, so their median
# samples the machine over the whole run rather than one burst.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 6, 7
# The machine's speed drifts by tens of percent over seconds to minutes, and
# a pure-Python reference does not follow import-heavy set-up.  So each set-up
# probe is divided by the mean of the two fresh `import numpy` probes around
# it, and setup_s is the median ratio times REF_IMPORT_S: set-up seconds on a
# machine that imports numpy in 100 ms.
REF_IMPORT_S = 0.100
RUN_LIMIT_S = 170  # the whole run must end within 180 s


def _commit():
    """HEAD commit read from .git without running git; 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child(args, timeout):
    """Run child.py with args; its last stdout line is a JSON object."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_probes(workload, count, deadline):
    """count set-up probes, each between two reference probes: [(setup_s, ref_s)]."""
    def probe(mode):
        return _child([mode, workload], deadline - perf_counter())[f"{mode}_s"]

    refs, setups = [probe("ref")], []
    for _ in range(count):
        setups.append(probe("setup"))
        refs.append(probe("ref"))
    return [(t, (a + b) / 2) for t, a, b in zip(setups, refs, refs[1:])]


def _end_to_end(child, probes):
    return {
        "wall_ref": statistics.median(child["walls_ref"]),
        "setup_s": REF_IMPORT_S * statistics.median(t / ref for t, ref in probes),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "spinsweep" / "__init__.py").is_file():
        print(f"error: spinsweep sources not found under {ROOT / 'src'}; "
              "run from the root of a spinsweep checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = workloads.WORKLOADS[args.workload]
    x = wl.x_for_seed(args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = perf_counter() + RUN_LIMIT_S
    try:
        probes = _setup_probes(args.workload, SETUP_PROBES_BEFORE, deadline)
        measure = ["measure", args.workload, "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(OUT), "--tag", tag]
        if x is not None:
            measure += ["--x", str(x)]
        child = _child(measure, deadline - perf_counter())
        probes += _setup_probes(args.workload, SETUP_PROBES_AFTER, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload} could not complete: {exc}", file=sys.stderr)
        return 2

    values = child.get("per_layer", {}) if args.trace else _end_to_end(child, probes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    problems = list(child["problems"])
    if {m["name"] for m in spec["per_layer"]} != set(LAYER_TABLE):
        problems.append("BENCHMARK.json per_layer and LAYER_TABLE in tracer.py list different metrics")
    if missing:
        problems.append(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    correct = not problems and child["failed"] == 0

    wall = statistics.median(child["walls"])
    report = {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "context": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": child["numpy"],
            "machine": platform.machine(),
            "commit": _commit(),
            "x": x,
            "jobs": 1,
            "chunk_size": "CLI default" if wl.kind == "sweep" else None,
            "cpu_pinned": True,
        },
        "passes": len(child["walls"]),
        "wall_s": wall,
        "walls_s": child["walls"],
        "walls_ref": child["walls_ref"],
        "setup_probes_s": [t for t, _ in probes],
        "ref_import_s": [ref for _, ref in probes],
        "split_primes": child["split_primes"],
        "split_primes_per_s": child["split_primes"] / wall if wl.kind == "sweep" else None,
        "fail_frac": child["failed"] / child["attempted"],
        "problems": problems,
        "metrics": metrics,
        "layer_table": LAYER_TABLE if args.trace else None,
    }
    if wl.kind == "exact":
        report["closed_form_disagreements"] = child["closed_form_disagreements"]
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  X {x}  "
          f"passes {len(child['walls'])}  commit {report['context']['commit'][:12]}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']!s:>22} {m['unit']}")
    print(f"  {'wall_s':<36} {wall:>22.4f} s")
    if wl.kind == "sweep":
        print(f"  {'split_primes_per_s':<36} {report['split_primes_per_s']:>22.4f} 1/s")
    else:
        print(f"  {'closed_form_disagreements':<36} {child['closed_form_disagreements']:>22} count")
    print(f"  {'fail_frac':<36} {report['fail_frac']:>22.6f} ratio "
          f"({child['failed']} of {child['attempted']} operations)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
