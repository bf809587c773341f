"""Benchmark of the multitrek CLI: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

Operations go through ``multitrek.cli.run(argv)`` in this process, one after
another (a closed loop with one client), with stdout captured; interpreter and
numpy start-up are paid once, in ``setup_s``.  The sequence of a workload is
repeated while the time budget lasts (at least three times); each operation is
checked for correctness after every pass.  A latency metric is the median over
every timed execution of its operation kind in the run; ``wall_s`` is the
median over passes of the sum of a pass's operation latencies.  Every timing
is reported at a reference machine speed: a fixed kernel (``calibrate.py``) is
timed every 0.1 s between operations, and each timing is multiplied by
``REFERENCE_S`` over the kernel's median within 2 s of it, so that a host that
runs faster or slower from one minute to the next moves the metrics less.  The
table prints the raw wall-clock value next to each.  ``--trace 1`` adds one pass with
the layer functions wrapped in spans and reports the per-layer metrics instead
of the end-to-end ones.  The last line of stdout is the result as one JSON
object.  ``attempted`` is the number of distinct operations of the workload and
``failed`` the number of them whose output failed its check in any pass, so both
depend on the seed only, not on how many passes fit in the time; ``correct`` is
false when any failure is other than the known defect named in
``workloads.KNOWN_DEFECT``.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported; at or below the core count of any machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
MIN_PASSES = 3
# Reference-kernel timings taken before each set-up and before the timed passes.
CAL_BURST = 5
# A p90 is printed where at least ten samples lie beyond it.
P90_MIN_SAMPLES = 100
SMOKE_SCALE = 0.05

UNITS = {"setup_s": "s", "wall_s": "s"}


def import_multitrek():
    """Import the package from src/ afresh, so each set-up pays for the import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "multitrek" or m.startswith("multitrek.")]:
        del sys.modules[name]
    mt = importlib.import_module("multitrek")
    importlib.import_module("multitrek.cli")
    return mt


def setup(workload: str, seed: int, workdir: Path, scale: float):
    """Import multitrek, generate the inputs, write them; returns (builder, digest)."""
    mt = import_multitrek()
    b = workloads.build(workload, seed, workdir, mt, scale)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    digest = hashlib.sha256()
    for name in sorted(b.files):
        data = b.files[name].encode("utf-8")
        (workdir / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    for op in b.ops:
        digest.update("\0".join(op.argv).replace(str(workdir), ".").encode() + b"\n")
    return b, digest.hexdigest()


def execute(cli, op) -> tuple[float, workloads.Result]:
    buf = io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(list(op.argv))
    except Exception as exc:  # an escaped exception is a failed operation, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, workloads.Result(code, buf.getvalue(), error)


def run_pass(cli, ops, cal=None):
    """Run every operation once, in order; returns (latencies, start times, results by key).

    With a calibrator, the reference kernel is timed between operations
    whenever its interval has passed; that time is in no latency.
    """
    latencies, starts = [], []
    results = {}
    for op in ops:
        starts.append(time.perf_counter())
        elapsed, result = execute(cli, op)
        latencies.append(elapsed)
        results[op.key] = result
        if cal is not None:
            cal.maybe()
    return latencies, starts, results


def check_pass(ops, results, failures: dict) -> None:
    """Check every output of one pass; ``failures`` maps an operation key to its first failure."""
    for op in ops:
        reason = op.check(op, results[op.key], results)
        if reason is not None:
            failure = failures.setdefault(op.key, {"kind": op.kind, "case": op.case, "reason": reason, "passes": 0})
            failure["passes"] += 1


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        commit = ref
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "multitrek").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 setup_repeats: int = SETUP_REPEATS, min_passes: int = MIN_PASSES) -> dict:
    """Set up, warm up, run passes for ``seconds`` (at least ``min_passes``), check every output."""
    workdir = WORK / f"{workload}-{seed}"
    cal = calibrate.Calibrator()
    setup_times, setup_starts = [], []
    digests = set()
    for _ in range(setup_repeats):
        cal.measure(CAL_BURST)
        setup_starts.append(time.perf_counter())
        b, digest = setup(workload, seed, workdir, scale)
        setup_times.append(time.perf_counter() - setup_starts[-1])
        digests.add(digest)
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different inputs")
    cli = sys.modules["multitrek.cli"]
    ops = b.ops

    failures: dict = {}
    warm = {}
    for op in ops:
        warm.setdefault(op.kind, op)
    for op in warm.values():
        execute(cli, op)
    cal.measure(CAL_BURST)

    samples, pass_starts = [], []
    timed_start = time.perf_counter()
    elapsed = last = 0.0
    while len(samples) < min_passes or elapsed + last <= seconds:
        latencies, starts, results = run_pass(cli, ops, cal)
        samples.append(latencies)
        pass_starts.append(starts)
        check_pass(ops, results, failures)
        last = time.perf_counter() - timed_start - elapsed
        elapsed += last

    def summarise(setups, passes) -> tuple[dict, dict]:
        """The end-to-end metrics, and the p90s that are printed only."""
        by_kind: dict[str, list[float]] = {kind: [] for kind in workloads.KINDS}
        for latencies in passes:
            for op, t in zip(ops, latencies):
                by_kind[op.kind].append(t * 1e3)
        out = {"setup_s": statistics.median(setups), "wall_s": statistics.median(sum(p) for p in passes)}
        out.update((f"{kind}_p50_ms", statistics.median(xs)) for kind, xs in by_kind.items())
        tails = {f"{kind}_p90_ms": statistics.quantiles(xs, n=10)[8]
                 for kind, xs in by_kind.items() if len(xs) >= P90_MIN_SAMPLES}
        return out, tails

    # Each timing at the reference speed, by the kernel's timings around it.
    metrics, tails = summarise(
        [t * cal.scale_at(s, t) for s, t in zip(setup_starts, setup_times)],
        [[t * cal.scale_at(s, t) for s, t in zip(starts, latencies)]
         for starts, latencies in zip(pass_starts, samples)],
    )
    raw, raw_tails = summarise(setup_times, samples)
    counts = {"setup_s": len(setup_times), "wall_s": len(samples)}
    for kind in workloads.KINDS:
        counts[f"{kind}_p50_ms"] = counts[f"{kind}_p90_ms"] = len(samples) * sum(op.kind == kind for op in ops)

    worst = sorted(((max(s[i] for s in samples), i) for i in range(len(ops))), reverse=True)[:5]
    slowest = [
        dict(ops[i].case, kind=ops[i].kind, ms=round(t * 1e3, 3), verdict=workloads.verdict_of(results[ops[i].ref.get("decision", ops[i].key)]))
        for t, i in worst
    ]

    layer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            latencies, starts, results = run_pass(cli, ops, cal)
        finally:
            tracer.unpatch()
        check_pass(ops, results, failures)
        layer = tracer.layer_values()
        # Both walls at the reference speed, so that a drift of the host
        # between the timed passes and the traced one does not show here.
        traced_wall = sum(t * cal.scale_at(s, t) for s, t in zip(starts, latencies))
        layer["bench.trace_overhead_ratio"] = traced_wall / metrics["wall_s"]
        n_spans = tracer.write(workdir / "spans.json")
    failures = list(failures.values())
    known = sum(f["reason"] == workloads.KNOWN_DEFECT for f in failures)
    return {
        "workload": workload,
        "seed": seed,
        "digest": next(iter(digests)),
        "operations": len(ops),
        "passes": len(samples),
        "metrics": metrics,
        "raw": raw,
        "tails": tails,
        "raw_tails": raw_tails,
        "counts": counts,
        "calibration": {"median_s": cal.median(), "samples": len(cal.times)},
        "layer": layer,
        "spans": n_spans if trace else None,
        "attempted": len(ops),
        "failed": len(failures),
        "known_defect_failures": known,
        "failures": failures,
        "slowest": slowest,
    }


def unit_of(name: str) -> str:
    return UNITS.get(name, "ms")


def print_report(rep: dict, trace: bool) -> dict:
    """Print the human-readable table; return the metrics of the final line."""
    print(f"workload {rep['workload']} seed {rep['seed']}: {rep['operations']} operations x "
          f"{rep['passes']} passes, inputs sha256 {rep['digest'][:16]}")
    out = {}
    if trace:
        for m in spans.LAYER_METRICS:
            value = rep["layer"][m.name]
            print(f"  {m.name:40s} {value:>16.6g} {m.unit:6s} moves {m.moves} on {m.on}")
            out[m.name] = {"value": value, "unit": m.unit}
        print(f"  spans recorded: {rep['spans']}")
    else:
        cal = rep["calibration"]
        print(f"  at the reference speed (reference kernel median {cal['median_s'] * 1e3:.4f} ms over "
              f"{cal['samples']} timings, {calibrate.REFERENCE_S * 1e3:g} ms at the reference speed); "
              f"raw wall-clock value after it")
        for name, value in rep["metrics"].items():
            unit = unit_of(name)
            print(f"  {name:22s} {value:>14.6g} {unit:6s} raw {rep['raw'][name]:>12.6g} {unit:6s} "
                  f"samples={rep['counts'][name]}")
            out[name] = {"value": value, "unit": unit}
        print("  printed only, not in the result line (their spread from run to run is too wide to bound):")
        for name, value in rep["tails"].items():
            print(f"  {name:22s} {value:>14.6g} ms     raw {rep['raw_tails'][name]:>12.6g} ms     "
                  f"samples={rep['counts'][name]}")
        print(f"  error_rate {rep['failed'] / rep['attempted']:.6g} "
              f"({rep['failed']} of {rep['attempted']}, {rep['known_defect_failures']} known defect)")
    for f in rep["failures"]:
        print(f"  FAILED {f['kind']} {json.dumps(f['case'], sort_keys=True)} "
              f"(in {f['passes']} of {rep['passes'] + bool(trace)} passes): {f['reason']}")
    print(json.dumps({"machine": machine_info(), "slowest": rep["slowest"],
                      "inputs_sha256": rep["digest"], "seed": rep["seed"], "workload": rep["workload"]},
                     sort_keys=True))
    return out


def smoke() -> int:
    """Every workload once at a tiny size; every BENCHMARK.json metric must be emitted."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    problems = []
    for workload in workloads.WORKLOADS:
        rep = run_workload(workload, 0, 0.0, trace=True, scale=SMOKE_SCALE, setup_repeats=1, min_passes=1)
        for names, got in ((end_to_end, rep["metrics"]), (per_layer, rep["layer"])):
            for name in names:
                value = got.get(name)
                if value is None or not math.isfinite(value):
                    problems.append(f"{workload}: {name} missing")
        unexpected = [f for f in rep["failures"] if f["reason"] != workloads.KNOWN_DEFECT]
        problems += [f"{workload}: {f['kind']} failed: {f['reason']}" for f in unexpected]
        print(f"smoke {workload}: {rep['operations']} operations, wall {rep['metrics']['wall_s']:.3f} s, "
              f"{rep['failed']} failed")
    for problem in problems:
        print(f"  {problem}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at a tiny size")
    args = parser.parse_args(argv)
    if not (SRC / "multitrek" / "__init__.py").is_file():
        print(f"no multitrek sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    rep = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = print_report(rep, bool(args.trace))
    # Failures of the documented known defect are counted in "failed" but do
    # not make the run incorrect; any other failure does.
    correct = rep["failed"] == rep["known_defect_failures"]
    print(json.dumps({"correct": correct, "attempted": rep["attempted"], "failed": rep["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
