"""Benchmark of the dtcodes library, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload classify-dedupe --seed 1 --seconds 36 --trace 0

The library is imported from ``./src`` and driven through its public
entry points with one worker.  A run

1. times ``setup_s``: fresh interpreters that import ``dtcodes`` (numpy
   and the reference tables included) and build GF(2), GF(3), GF(4);
2. warms every code path up on tiny inputs;
3. repeats passes over the workload's fixed job list, in an order drawn
   from ``--seed``, while another pass fits in ``--seconds`` (at least
   one pass), checking every output against the recorded tables;
4. prints one JSON line of run details (machine, versions, sample
   counts, percentiles, failures) and, as the last line, the result.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics of the traced passes together with the
tracing overhead (traced minus untraced pass time).

Exit codes: 0 when every output is correct, 1 when some output is
wrong (the result is still printed), 2 when the benchmark cannot run
(no library source, bad arguments); then no result is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

# One BLAS thread, fixed before numpy is imported: the library runs one
# worker, and a second BLAS thread on a two-core machine only adds
# scheduling noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Set-up probes, half before and half after the passes so that their
# median spans the same stretch of machine load as the passes.
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import dtcodes, dtcodes.reference_data; "
    "[dtcodes.GF(q) for q in (2, 3, 4)]; print('ready', flush=True)"
)

WORKLOADS = ("classify-dedupe", "search-scan", "verify-tables")

UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "slowest_item_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    leaf = name.split(".")
    if "madds_per_s" in leaf or name.endswith("_per_s"):
        return "1/s"
    if "bytes" in leaf:
        return "B"
    if any(part.endswith("_s") for part in leaf):
        return "s"
    if any(part.endswith(("_frac", "_share")) or part == "per_code" for part in leaf):
        return "ratio"
    return "count"


@dataclass
class Pass:
    seconds: float
    item_seconds: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_pass(items) -> Pass:
    """Run every item once; a wrong output or an exception is a failure."""
    result = Pass(0.0)
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # every item is attempted; failures are counted
            traceback.print_exc(file=sys.stderr)
            out = f"raised {type(exc).__name__}: {exc}"
        result.item_seconds.append(time.perf_counter() - t0)
        result.outputs.append(out)
        if out != item.expected:
            result.failures.append(f"{item.name}: expected {item.expected!r}, got {out!r}")
    result.seconds = time.perf_counter() - start
    return result


def summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals)}
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            out[f"p{p:g}"] = vals[rank - 1]
            break
    return out


def measure_setup(src: str, count: int) -> list[float]:
    """Fresh process to ready, ``count`` times."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, src], stdout=subprocess.PIPE, text=True
        ) as proc:
            try:
                line = proc.stdout.readline().strip()
                times.append(time.perf_counter() - t0)
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def run_metadata(root: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    src = os.path.join(root, "src", "dtcodes")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "commit": _git_commit(root),
        "source_sha256": digest.hexdigest()[:16],
        "workers": 1,
        "blas_threads": BLAS_THREADS,
    }


def _git_commit(root: str) -> str:
    """HEAD commit when the checkout is a git work tree, else "unknown"."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _measure(items, seconds: float, trace: bool):
    """Passes while another fits in ``seconds``; traced runs alternate pairs."""
    import tracing

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_pass(items))
        step = untraced[-1].seconds
        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                p = run_pass(items)
            traced.append((p, tracer))
            step += p.seconds
        if time.perf_counter() + step > deadline:
            return untraced, traced


def end_to_end_metrics(setup, untraced, failed: int, attempted: int) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(p.seconds for p in untraced),
        "slowest_item_s": statistics.median(max(p.item_seconds) for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_frac": 1 - failed / attempted,
    }


def layer_result(untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics (median over traced passes) and trace failures."""
    import tracing

    failures = []
    for p, _ in traced:
        if p.outputs != untraced[0].outputs:
            failures.append("traced pass outputs differ from untraced pass outputs")
    per_pass = [tracing.layer_metrics(tr, p.seconds) for p, tr in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    phase1, phase2, phase_failures = tracing.time_phase2(traced[0][1])
    failures += phase_failures
    metrics["search.phase1_s"] = phase1
    metrics["search.phase2_s"] = phase2
    solve = statistics.median(p.seconds for p, _ in traced)
    base = statistics.median(p.seconds for p in untraced)
    metrics["trace.solve_s"] = solve
    metrics["trace.untraced_solve_s"] = base
    metrics["trace.overhead_s"] = solve - base
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dtcodes", "__init__.py")):
        print("perfbench: no library source at ./src/dtcodes; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    measure_setup(src, 1)  # untimed: writes bytecode, fills the file cache
    setup = measure_setup(src, SETUP_PROBES // 2)

    import dtcodes
    import jobs

    if not os.path.abspath(dtcodes.__file__).startswith(src + os.sep):
        print(f"perfbench: imported dtcodes from {dtcodes.__file__}, not ./src", file=sys.stderr)
        return 2

    items = jobs.build(args.workload, args.seed)
    jobs.warm_up()
    untraced, traced = _measure(items, args.seconds, bool(args.trace))
    setup += measure_setup(src, SETUP_PROBES - SETUP_PROBES // 2)
    passes = untraced + [p for p, _ in traced]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.outputs) for p in passes)

    if args.trace:
        metrics, trace_failures = layer_result(untraced, traced)
        failures += trace_failures
    else:
        metrics = end_to_end_metrics(setup, untraced, len(failures), attempted)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": len(items),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "fail_frac": len(failures) / attempted,
        "pass_seconds": [p.seconds for p in passes],
        "timings": {
            "setup_s": summary(setup),
            "solve_s": summary(p.seconds for p in untraced),
            "item_s": summary(t for p in untraced for t in p.item_seconds),
        },
        "failures": failures[:20],
        **run_metadata(root),
    }
    print(json.dumps({"run": details}))
    for text in failures:
        print(f"perfbench: FAIL {text}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
