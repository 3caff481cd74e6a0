"""Benchmark of the qmll toolchain over three workloads; see README.md.

    python3 perfbench/run.py --workload {wide,deep,corpus} --seed N --seconds S --trace {0,1}

Prints a summary, then as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Writes a record of the run (and with
--trace 1 its spans, as JSON lines) under .perfbench/ at the repository root.
Exits 1 when an output fails the correctness gate, 2 when the program's
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("wide", "deep", "corpus")
SETUP_REPEATS = 5
# one thread: the closed loop is a single client, and numpy's BLAS pool
# would otherwise add a thread per core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LATENCY_OPS = ("encode", "check", "extract", "normalize", "semantics", "run")
P90_MIN_SAMPLES = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, default=None, metavar="DIR",
                    help=argparse.SUPPRESS)  # one timed set-up, in a child process
    return ap.parse_args(argv)


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no thread count in /proc/self/status")


def timed_setups(args, workdir: Path) -> tuple[list[float], list[float]]:
    """Start-up, imports, input generation and writing, each in a fresh process.

    Returns each set-up's CPU time and wall time. `setup_s` uses CPU time: on
    a shared machine the wall time of a 0.3 s child jumps in 50 ms steps with
    the time it waits to be scheduled, which is not set-up work.
    """
    cpu, wall = [], []
    for r in range(SETUP_REPEATS):
        target = workdir / f"setup{r}"
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(target)],
                       check=True, timeout=170)
        wall.append(time.perf_counter() - t0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
    return cpu, wall


def percentile_summary(samples: list[float]) -> dict:
    out = {"n": len(samples), "p50": statistics.median(samples) if samples else None}
    if len(samples) >= P90_MIN_SAMPLES:
        out["p90"] = statistics.quantiles(samples, n=10)[-1]
    return out


def closed_loop(workload, ledger, seconds: float, each) -> int:
    """Call `each` on the inputs in order until `ledger` holds `seconds` of
    operations; returns how many inputs it took."""
    count = 0
    while ledger.busy_s < seconds:
        each(workload.items[count % len(workload.items)])
        count += 1
    return count


def base_record(item: dict) -> dict:
    return {k: item[k] for k in ("id", "qubits", "gates", "cnot_span") if k in item}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qmll" / "__init__.py").is_file():
        print(f"perfbench: no qmll sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import inputs
    if args.setup_only is not None:
        import qmll.cli  # noqa: F401  (what a CLI user's process pays at start-up)
        inputs.write_inputs(args.workload, args.seed, args.setup_only)
        return 0

    import qmll
    import workloads as wl
    if Path(qmll.__file__).resolve().parent != SRC / "qmll":
        print(f"perfbench: imported qmll from {qmll.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = timed_setups(args, workdir)
        data = workdir / f"setup{SETUP_REPEATS - 1}"
        kind = wl.CorpusWorkload if args.workload == "corpus" else wl.CircuitWorkload
        return measure(args, tag, kind(data, args.seed), setups)
    except wl.Mismatch as e:
        print(f"perfbench: correctness gate failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tag: str, workload, setups: tuple[list[float], list[float]]) -> int:
    import inputs
    import tracing
    import workloads as wl

    workload.process(workload.items[0], wl.Ledger())  # warm-up, not counted
    ledger = wl.Ledger()
    records: list[dict] = []
    layers = None
    if not args.trace:
        def each(item):
            records.append(base_record(item))
            workload.process(item, ledger, record=records[-1])

        n_inputs = closed_loop(workload, ledger, args.seconds, each)
    else:
        # each input runs both untraced and traced, in alternating order, so
        # drift in the machine's speed and any gain from a repeat fall on both
        # sides of the overhead alike
        tracer, traced = tracing.Tracer(), wl.Ledger()

        def each(item):
            records.append(base_record(item))
            tracer.input_id = item["id"]
            untraced_first = len(records) % 2
            if untraced_first:
                workload.process(item, ledger)
            workload.process(item, traced, tracer, records[-1])
            if not untraced_first:
                workload.process(item, ledger)

        n_inputs = closed_loop(workload, ledger, args.seconds / 2, each)
        tracer.write_jsonl(OUT / f"{tag}-spans.jsonl")
        layers = tracing.layer_metrics(tracer, n_inputs, records)
        layers["trace.untraced_s"] = (ledger.busy_s / n_inputs, "s/input")
        layers["trace.overhead_s"] = ((traced.busy_s - ledger.busy_s) / n_inputs, "s/input")
    untraced_busy = ledger.busy_s
    latency = {op: percentile_summary(v) for op, v in ledger.latency.items()}
    if args.trace:
        ledger.attempted += traced.attempted
        ledger.failed += traced.failed
        ledger.failures.update(traced.failures)
        for key, message in traced.messages.items():
            ledger.messages.setdefault(key, message)

    # the probes show known defects, so they stay out of the result line's
    # `attempted` and `failed`, which count the workload's own operations;
    # `failed_ratio` in the record counts both
    probes = []
    for probe in inputs.PROBES[args.workload]:
        outcome = workload.probe(probe)
        probes.append({"name": probe["name"], "expect": probe["expect"], "outcome": outcome,
                       "class": ("ok" if outcome == probe["expect"] else
                                 "known-defect" if outcome == probe["defect"] else "unexpected")})
    probe_failed = sum(p["outcome"] != p["expect"] for p in probes)

    setup_cpu, setup_wall = setups
    e2e = {"setup_s": (statistics.median(setup_cpu), "s"),
           "inputs_per_s": (n_inputs / untraced_busy, "1/s")}
    for op in LATENCY_OPS:
        if not latency.get(op, {}).get("p50"):
            print(f"perfbench: no completed {op} operation to time", file=sys.stderr)
            return 1
        e2e[f"{op}_s.p50"] = (latency[op]["p50"], "s")
    e2e["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    threads = thread_count()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": threads, "nproc": os.cpu_count(),
        "setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall,
        "inputs": n_inputs, "busy_s": untraced_busy,
        "latency": latency, "attempted": ledger.attempted, "failed": ledger.failed,
        "probes_attempted": len(probes), "probes_failed": probe_failed,
        "failed_ratio": (ledger.failed + probe_failed) / (ledger.attempted + len(probes)),
        "failures": [{"operation": op, "class": cls, "count": n,
                      "message": ledger.messages.get((op, cls), "")}
                     for (op, cls), n in sorted(ledger.failures.items())],
        "probes": probes, "end_to_end": {k: v[0] for k, v in e2e.items()},
        "per_layer": {k: v[0] for k, v in layers.items()} if layers else None,
        "input_properties": records,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {n_inputs} inputs, "
          f"{untraced_busy:.2f} s of operations, {threads} thread(s) of {os.cpu_count()} cores")
    for op, s in sorted(latency.items()):
        p90 = f"  p90 {s['p90']:.6f} s" if "p90" in s else ""
        print(f"  {op:<17} n={s['n']:<6} p50 {s['p50']:.6f} s{p90}")
    print(f"  failed_ratio {record['failed_ratio']:.6f} (operations {ledger.failed}/"
          f"{ledger.attempted}, probes {probe_failed}/{len(probes)})")
    for f in record["failures"]:
        print(f"    {f['operation']}: {f['class']} x{f['count']}")
    for p in probes:
        print(f"  probe {p['name']}: {p['outcome']} ({p['class']}; correct is {p['expect']})")
    metrics = layers if args.trace else e2e
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    print(json.dumps({"correct": True, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
