"""Benchmark of clarkspectra end to end, run from the root of a checkout.

    python3 bench/run.py --workload density-halfline --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1   # every workload, one after another

Each measurement runs in a fresh interpreter (bench/worker.py) that imports
the package from ./src and calls clarkspectra.cli.main in process. With
--trace 0 the run prints the end-to-end metrics: setup_s is the median of
several fresh-interpreter set-ups (import plus warm-up request), the others
come from one timed worker. Request times are scaled to a reference host
speed (hostspeed.py); the record keeps the wall-clock figures too. With
--trace 1 it prints the per-layer metrics
of a fixed number of rounds and the tracing overhead (each request runs
traced and then again untraced). The last line of standard output is
one JSON object; a record with the environment and the details is written
to bench/out/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 6
RUN_DEADLINE_S = 170   # a run, all of its workers together, ends within this

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    pass


def _environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = {k: os.environ.get(k, "unset") for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas,
        "machine": platform.machine(),
    }


def _worker(deadline, workload, seed, mode, seconds=0.0, rounds=0):
    env = dict(os.environ)
    env.pop("CLARK_SPECTRA_THREADS", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds), "--rounds", str(rounds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the {RUN_DEADLINE_S} s "
                         "deadline of the run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(deadline, workload, seed, seconds):
    """End-to-end metrics, tracing off."""
    probes = [_worker(deadline, workload, seed, "probe") for _ in range(SETUP_PROBES)]
    run = _worker(deadline, workload, seed, "run", seconds=seconds)
    setup = [p["setup_s"] for p in probes] + [run["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": run["requests_per_s"],
        "request_p50_ms": run["request_p50_ms"],
        "request_p90_ms": run["request_p90_ms"],
        "peak_rss_mib": run["peak_rss_mib"],
    }
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }
    return result, {"setup_samples_s": setup, "run": run}


def measure_traced(deadline, workload, seed):
    """Per-layer metrics from a traced worker on the workload's fixed number
    of rounds, and the tracing overhead: traced request time against the
    same requests repeated untraced."""
    traced = _worker(deadline, workload, seed, "trace",
                     rounds=WORKLOADS[workload].trace_rounds)
    layers = {"setup.import_s": (traced["import_s"], "s"),
              "setup.modules_loaded": (traced["modules_loaded"], "count")}
    layers.update((k, tuple(v)) for k, v in traced["layers"].items())
    overhead = (traced["busy_s"] / traced["untraced_busy_s"] - 1.0) * 100.0
    layers["trace.overhead_pct"] = (overhead, "%")
    result = {
        "correct": traced["correct"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    return result, {"traced": traced}


def run_one(workload, seed, seconds, trace):
    t0 = time.time()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        result, detail = measure_traced(deadline, workload, seed)
    else:
        result, detail = measure(deadline, workload, seed, seconds)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": _environment(),
              "wall_s": time.time() - t0, "result": result, "detail": detail}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    return result


def main(argv=None):
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the
    # running worker, so no measurement outlives the command.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "clarkspectra", "cli.py")):
        print("error: run from the root of a clarkspectra checkout "
              "(src/clarkspectra not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"== {name}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for k, m in result["metrics"].items():
                print(f"   {k} = {m['value']:.6g} {m['unit']}")
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
