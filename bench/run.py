"""Run one workload of the sentepi benchmark and print its metrics.

Run from the repository root::

    python3 bench/run.py --workload opinion --seed 1 --seconds 30 --trace 0

The workload's inputs are made from ``--seed``. The run sets up
SETUP_REPEATS times, then repeats the workload's iteration (a closed
loop, one client) while the next iteration is expected to end within
``--seconds``. Every iteration's outputs are hashed and must equal the
first's. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
makes one untraced and one traced iteration and prints the per-layer
metrics, computed from spans that ``spans.py`` records, and writes the
spans to ``bench/_out/``.

The second-to-last line of output is a JSON run record (host, versions,
seed, hashes, failures); the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` of the checkout this file is in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    import sentepi

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "sentepi": sentepi.__version__,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def set_up(workload, repeats: int) -> tuple[list[float], dict[str, str]]:
    """Make the inputs ``repeats`` times; each set must hash the same."""
    times, reference = [], None
    for i in range(repeats):
        directory = workload.workdir / f"inputs{i}"
        directory.mkdir(parents=True)
        t0 = perf_counter()
        hashes = workload.setup(directory)
        times.append(perf_counter() - t0)
        if reference is None:
            reference = hashes
        else:
            workload.checks.check(hashes == reference, f"set-up {i} made different inputs")
            shutil.rmtree(workload.workdir / f"inputs{i - 1}")
    return times, reference


def iterate_checked(workload, reference: dict | None, in_process: bool = False):
    """One iteration, or None if it raised; outputs must match ``reference``.

    Every iteration starts from an empty collector, so the cyclic garbage
    collections inside it fall at the same points each time.
    """
    gc.collect()
    try:
        it = workload.iterate(in_process=in_process)
    except Exception as exc:  # counted as a failed operation; the run reports it
        workload.checks.check(False, f"iteration raised {type(exc).__name__}: {exc}")
        return None
    if reference is not None:
        workload.checks.check(it.hashes == reference, "outputs differ between iterations")
    return it


def timed_run(workload, seconds: float) -> tuple[dict[str, float], dict]:
    t0 = perf_counter()
    workload.import_modules()
    import_s = perf_counter() - t0
    setup_times, input_hashes = set_up(workload, SETUP_REPEATS)

    iterations = []
    start = perf_counter()
    while True:
        it = iterate_checked(workload, iterations[0].hashes if iterations else None)
        if it is None:
            break
        iterations.append(it)
        typical = statistics.median(i.total_s for i in iterations)
        if perf_counter() - start + typical > seconds:
            break
    if not iterations:
        raise RuntimeError("no iteration completed: " + "; ".join(workload.checks.failures))

    part1 = sum(statistics.median(i.part1[op] for i in iterations) for op in iterations[0].part1)
    part2 = sum(statistics.median(i.part2[op] for i in iterations) for op in iterations[0].part2)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "iteration_s": part1 + part2,
        "part1_s": part1,
        "part2_s": part2,
        "peak_rss_mb": peak_rss_mb(workload.rss_of_children),
    }
    record = {
        "import_s": import_s,
        "setup_s": setup_times,
        "iterations": [{**i.part1, **i.part2} for i in iterations],
        "input_sha256": input_hashes,
        "output_sha256": iterations[0].hashes,
    }
    return metrics, record


def traced_run(workload) -> tuple[dict[str, float], dict]:
    from layers import layer_metrics
    from spans import Tracer

    tracer = Tracer()
    workload.import_modules()
    with tracer.installed():
        _, input_hashes = set_up(workload, 1)
    extras = {}
    reference = None
    if workload.name == "pipeline-cli":
        extras.update(workload.import_breakdown())
        it = iterate_checked(workload, None)
        if it is not None:
            extras.update({f"cli.stage_{s}_s": t for s, t in {**it.part1, **it.part2}.items()})
            reference = it.hashes
    untraced = iterate_checked(workload, reference, in_process=True)
    if untraced is None:
        raise RuntimeError("; ".join(workload.checks.failures))
    with tracer.installed():
        traced = iterate_checked(workload, untraced.hashes, in_process=True)
    if traced is None:
        raise RuntimeError("; ".join(workload.checks.failures))
    if workload.name == "pipeline-cli":
        extras["cli.stage_failures"] = workload.stage_failures

    metrics = layer_metrics(tracer, extras)
    metrics["trace.untraced_iteration_s"] = untraced.total_s
    metrics["trace.traced_iteration_s"] = traced.total_s
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_iteration_s"] - metrics["trace.untraced_iteration_s"])
    checks = workload.checks
    checks.check(metrics["epi.stall_errors"] == 0, "redistribute raised StallError")
    if metrics["epi.redistribute_calls"]:
        checks.check(metrics["epi.achieved_r_min_margin"] >= 0.0,
                     "a sweep task ended below its target r")

    spans_path = BENCH / "_out" / f"spans-{workload.name}-seed{workload.seed}.csv"
    tracer.write_csv(spans_path)
    record = {
        "input_sha256": input_hashes,
        "output_sha256": untraced.hashes,
        "spans_csv": str(spans_path.relative_to(ROOT)),
    }
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sentepi" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'sentepi'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    end_to_end, per_layer = declared_metrics()
    checks = Checks()
    workdir = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](ROOT, workdir, args.seed, checks)
    try:
        if args.trace:
            metrics, record = traced_run(workload)
            units = per_layer
        else:
            metrics, record = timed_run(workload, args.seconds)
            units = end_to_end
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host_record(), attempted=checks.attempted,
                  failures=checks.failures)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
