"""Benchmark of the tasnsc pipeline: paper-grid, predict-stream and cold-start.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

One client sends each request after the previous one has returned (a
closed loop), and BLAS is pinned to one thread before numpy loads. With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
first runs the workload untraced, then again with spans recorded around the
program's public functions, and prints the per-layer metrics and the
tracing overhead. Every metric is printed as ``name = value unit``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of a run (machine
facts, seeds, pipeline config, compare rows, spans) is written under
``perfbench/out/``.

``--workload all`` runs the three workloads one after another, each in its
own child process so that each has its own peak memory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("paper-grid", "predict-stream", "cold-start")

# Each workload reports every one of these (see BENCHMARK.json):
END_TO_END = (
    "setup_s",  # median set-up time: input generation, plus training on the streams
    "op_p50_ms",  # the unit of work: one compare grid, one predict, or load_model + predict
    "train_s",  # median train() time
    "predict_p50_ms",  # median predict() latency per model, averaged over the models
    "predictions_per_s",  # predictions completed per second of the timed part
    "same_accuracy_pct",  # likelihood-weighted accuracy, model tested on its own scene
    "same_mhd_m",  # median top-candidate MHD, same pairs
    "transfer_accuracy_pct",  # as above, TASNSC model tested on the other scene
    "transfer_mhd_m",
    "peak_rss_mb",  # peak resident memory of the process
)

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 is the canonical protocol")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_env": {var: os.environ[var] for var in PINNED_THREADS},
        "blas_threads": _blas_threads(),
        "client_threads": 1,
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def _emit(record: dict, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name]
    context = {
        "workload": name,
        "seed": seed,
        "input_seeds": workloads.seeds_for(seed),
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "config": workloads.CONFIG.to_dict(),
    }
    print("context: " + json.dumps(context))

    try:
        untraced = workload(seed, seconds, str(OUT))
        problems = list(untraced.problems)
        record = {"attempted": untraced.attempted, "failed": untraced.failed}
        if not trace:
            metrics = dict(untraced.metrics)
            metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
            missing = [m for m in END_TO_END if m not in metrics]
            if missing:
                problems.append(f"metrics not measured: {missing}")
            metrics = {m: metrics[m] for m in END_TO_END if m in metrics}
            named = untraced.named
            extras = untraced.extras
        else:
            with tracing.Tracer() as tracer:
                traced = workload(seed, seconds, str(OUT), tracer)
            problems += traced.problems
            record["attempted"] += traced.attempted
            record["failed"] += traced.failed
            n = min(len(untraced.outputs), len(traced.outputs))
            if untraced.outputs[:n] != traced.outputs[:n]:
                problems.append("traced run gave different outputs from the untraced run")
            metrics = tracer.layer_metrics()
            named = {}
            held, total = workloads.held_steps(traced.psets)
            metrics["predictor.rollout_held_pct"] = (100.0 * held / total if total else 0.0, "%")
            before, after = untraced.metrics["op_p50_ms"][0], traced.metrics["op_p50_ms"][0]
            metrics["trace.overhead_ms"] = (after - before, "ms")
            metrics["trace.overhead_pct"] = (100.0 * (after - before) / before, "%")
            extras = {
                "untraced": {"metrics": untraced.metrics, **untraced.extras},
                "traced": {"metrics": traced.metrics, **traced.extras},
                "compared_outputs": n,
                "layers_by_phase": {p: tracer.summary((p,)) for p in ("setup", "timed")},
            }
            with open(OUT / f"spans-{name}-seed{seed}.json", "w") as fh:
                json.dump(tracer.to_json(), fh)
    except workloads.ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    record["correct"] = record["failed"] == 0 and not problems
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(
            {**context, **record, "problems": problems, "metrics": metrics, "named": named, "extras": extras},
            fh,
            indent=1,
            default=float,  # numpy scalars
        )
    for key, (value, unit) in named.items():
        print(f"{key} = {value} {unit}")
    _emit(record, metrics)
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own child process, one after another; combined last line."""
    import subprocess

    record = {"correct": True, "attempted": 0, "failed": 0}
    metrics = {}
    for name in NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        last = json.loads(lines[-1])
        record["correct"] = record["correct"] and last["correct"]
        record["attempted"] += last["attempted"]
        record["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            metrics[f"{name}/{metric}"] = (m["value"], m["unit"])
    print("== all")
    _emit(record, metrics)
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    for var in PINNED_THREADS:  # before numpy loads, here and in child processes
        os.environ[var] = "1"
    if not (ROOT / "src" / "tasnsc" / "__init__.py").is_file():
        print(f"error: no tasnsc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
