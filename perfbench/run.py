"""Benchmark runner for subglue: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload disk_full --seed 1 --seconds 30 --trace 0

Each op starts after the previous one returns. The runner times its own
set-up (importing subglue from ./src and generating the seeded inputs) and,
between ops, that of a few fresh child processes. It runs ops until
--seconds have passed and checks every output against its closed-form
oracle. The last stdout line
is one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The line before it records the environment and the
run's details. A traced run alternates plain and traced ops on the same
scene, so its tracing overhead is measured in one process; its spans are
written to .perfbench/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("disk_full", "green_ball3d", "capacity")  # parsed before subglue is importable
SETUP_SAMPLES = 5  # the runner's own set-up plus that of four child processes
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
END_TO_END = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s",
              "peak_rss_mb": "MB", "oracle_err": "1"}


def pin_threads() -> int:
    """Pin BLAS and OpenMP pools to the CPUs this process may use; must run
    before numpy is imported."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def setup(workload: str, seed: int, size: str):
    """Import subglue from this checkout and generate the seeded inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import subglue

    if Path(subglue.__file__).resolve().parent != ROOT / "src" / "subglue":
        raise RuntimeError(f"imported subglue from {subglue.__file__}, not from ./src")
    import workloads

    wl = workloads.WORKLOADS[workload]
    scenes = wl.scenes(seed, workloads.SIZES[size][workload])
    return wl, scenes, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size,
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def environment(threads: int) -> dict:
    from importlib import metadata
    import platform

    import numpy
    import scipy

    with open("/proc/cpuinfo") as handle:
        models = [ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")]
    try:
        pytest_benchmark = metadata.version("pytest-benchmark")
    except metadata.PackageNotFoundError:
        pytest_benchmark = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "pytest_benchmark": pytest_benchmark,
    }


def run_ops(wl, scenes, seconds: float, traced: bool, work_dir: Path,
            probe=None, probes: int = 0):
    """The closed loop. An untraced run ends with a whole round of scenes,
    so each scene runs equally often. A traced run alternates a plain and a
    traced op on each scene. Every op's output is checked after its timer
    stops. ``probe`` measures a fresh child's set-up; it runs ``probes``
    times, spread over the run between ops, so the set-up samples see the
    machine the ops see. Their time does not count against ``seconds``."""
    from tracing import Tracer, direct_calls, install  # imports subglue, after setup()

    tracer = Tracer() if traced else None
    plain = direct_calls()
    wrapped = direct_calls(tracer) if traced else None
    ops, digests, probe_s = [], {}, []
    begin = time.perf_counter()
    deadline = begin + seconds
    round_len = 2 if traced else len(scenes)
    while len(ops) < round_len or (not traced and len(ops) % round_len) \
            or time.perf_counter() < deadline:
        if len(probe_s) < probes and time.perf_counter() >= begin + seconds * len(probe_s) / probes:
            probe_start = time.perf_counter()
            probe_s.append(probe())
            deadline += time.perf_counter() - probe_start
        i = len(ops)
        traced_op = traced and i % 2 == 1
        k = (i // 2 if traced else i) % len(scenes)
        op = {"scene": k, "traced": traced_op, "problems": [], "outcome": None}
        result = None
        with tempfile.TemporaryDirectory(dir=work_dir) as out_dir:
            restore = install(tracer) if traced_op else None
            start = time.perf_counter()
            try:
                if traced_op:
                    op["root"] = len(tracer.spans)
                    with tracer.span("op"):
                        result = wl.op(scenes[k], out_dir, wrapped)
                else:
                    result = wl.op(scenes[k], out_dir, plain)
            except Exception as exc:  # a failed op is counted, never retried
                op["problems"].append(f"raised {type(exc).__name__}: {exc}")
            finally:
                op["seconds"] = time.perf_counter() - start
                if restore is not None:
                    restore()
            if result is not None:
                try:
                    outcome = wl.check(scenes[k], result, out_dir)
                except Exception as exc:
                    op["problems"].append(f"check raised {type(exc).__name__}: {exc}")
                else:
                    op["outcome"] = outcome
                    op["problems"] += outcome.problems
                    if outcome.digest is not None:
                        if digests.setdefault(k, outcome.digest) != outcome.digest:
                            op["problems"].append(
                                "report.json differs from an op with identical inputs")
        for problem in op["problems"]:
            print(f"perfbench: op {i} (scene {k}): {problem}", file=sys.stderr)
        ops.append(op)
    probe_s += [probe() for _ in range(probes - len(probe_s))]
    return ops, tracer, probe_s


def tail(times: list[float]):
    """The op time at the highest percentile with TAIL_BEYOND ops beyond it,
    that percentile, and the ops beyond it. In a run of 2 * TAIL_BEYOND + 1
    ops or fewer that percentile is not above the median, and the median is
    reported instead, so the value never jumps as the op count changes."""
    ordered = sorted(times)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    median = statistics.median(ordered)
    return median, 50.0, sum(t > median for t in ordered)


def end_to_end(ops, setup_samples) -> tuple[dict, dict]:
    times = [op["seconds"] for op in ops]
    tail_s, tail_pct, beyond = tail(times)
    errs = [op["outcome"].oracle_err for op in ops if op["outcome"] is not None]
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # the worst op of the run; every scene's error is deterministic
        "oracle_err": max(errs) if errs else None,
    }
    extra = {"op_s_tail_percentile": tail_pct, "ops_beyond_tail": beyond,
             "setup_s_samples": setup_samples, "op_s": times}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, extra


def per_layer(ops, tracer) -> dict:
    from tracing import PER_LAYER, run_layers

    traced = [op for op in ops if op["traced"]]
    values = run_layers(
        tracer.spans,
        [op["root"] for op in traced],
        [op["outcome"].errors for op in traced if op["outcome"] is not None],
        [op["seconds"] for op in traced],
        [op["seconds"] for op in ops if not op["traced"]],
    )
    return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}


def write_spans(tracer, path: Path):
    t0 = tracer.spans[0].start if tracer.spans else 0.0
    rows = [{"name": sp.name, "start": sp.start - t0, "end": sp.end - t0,
             "parent": sp.parent, "counts": sp.counts, "error": sp.error}
            for sp in tracer.spans]
    path.write_text(json.dumps(rows) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"),
                        help="smoke: the reduced scenes of the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subglue" / "__init__.py").is_file():
        print(f"perfbench: no subglue sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = pin_threads()
    wl, scenes, own_setup = setup(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    traced = args.trace == 1
    probes = 0 if traced else SETUP_SAMPLES - 1
    ops, tracer, probe_s = run_ops(wl, scenes, args.seconds, traced, work_dir,
                                   lambda: child_setup_seconds(args), probes)
    failed = sum(bool(op["problems"]) for op in ops)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "ops": len(ops), "scenes": len(scenes),
        "fail_frac": failed / len(ops), "env": environment(threads),
    }
    if traced:
        metrics = per_layer(ops, tracer)
        spans_path = work_dir / f"spans-{args.workload}-{args.seed}.json"
        write_spans(tracer, spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, extra = end_to_end(ops, [own_setup] + probe_s)
        detail.update(extra)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
