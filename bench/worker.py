"""One measurement in a fresh interpreter; started by run.py, not by hand.

The worker times the import of clarkspectra and clarkspectra.cli from the
checkout's src directory before it loads anything else (numpy included,
since the package import pays for it), runs the workload's warm-up request,
and then runs whole rounds of requests through clarkspectra.cli.main in
this process with stdout captured. One client, no threads: a closed loop.
It prints one JSON object as the last line of its standard output.

    python3 bench/worker.py --workload W --seed N --mode M --seconds S --rounds R

Modes: probe (import and warm-up only), run (rounds until S seconds of
request time, or exactly R rounds when R > 0, with the host-speed kernel of
hostspeed.py sampled throughout) and trace (like run, with the per-layer
tracer installed before the warm-up; each request runs traced and then once
more untraced, for the tracing overhead). A request that exits with another
code than 0 is counted as failed and, unless its task's may_fail names the
error it ended with, also fails the run. Only modules that every
interpreter has loaded at start-up are imported before the timed import,
so that nothing the package needs (argparse, json, ...) is loaded early.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    opts = dict(zip(argv[::2], argv[1::2]))
    workload_name, seed, mode = opts["--workload"], int(opts["--seed"]), opts["--mode"]
    seconds, max_rounds = float(opts["--seconds"]), int(opts["--rounds"])

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    before = len(sys.modules)
    t0 = time.perf_counter()
    import clarkspectra
    import clarkspectra.cli
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - before
    if os.path.dirname(os.path.dirname(os.path.abspath(clarkspectra.__file__))) != src:
        sys.exit(f"clarkspectra was imported from {clarkspectra.__file__}, not {src}")

    import contextlib
    import io
    import json
    import resource
    import statistics

    sys.path.insert(0, HERE)
    import hostspeed
    import workloads
    from tracing import Tracer

    def quantile(values, q):
        if len(values) == 1:
            return values[0]
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    workload = workloads.WORKLOADS[workload_name]
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    main_fn = clarkspectra.cli.main
    stderr_seen = []

    def call(cli_argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main_fn(cli_argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash counts as a failed request
                rc = -1
                err.write(f"{type(exc).__name__}: {exc}")
        if rc != 0:
            stderr_seen.append(err.getvalue().strip())
        return rc, out.getvalue()

    speed = hostspeed.HostSpeed()   # sampled only in the timed phase of run
    spans = []                      # (start, end) of each request
    package_caches = [f for name, m in list(sys.modules.items())
                      if name.startswith("clarkspectra.")
                      for f in vars(m).values() if hasattr(f, "cache_clear")]

    def perform(task, traced):
        if tracer is not None:
            # Both passes of a traced request start from empty caches, so
            # the untraced pass does not reuse what the traced one stored.
            for f in package_caches:
                f.cache_clear()
        spent = speed.spent
        t = time.perf_counter()
        if traced:
            with tracer.request():
                rc, result = task.run(call)
        else:
            rc, result = task.run(call)
        spans.append((t, time.perf_counter()))
        return rc, result, spans[-1][1] - t - (speed.spent - spent)

    warmup_s = 0.0
    if workload.warmup is not None:
        rc, result, warmup_s = perform(workload.warmup, tracer is not None)
        if rc != 0:
            sys.exit(f"warm-up request failed: {stderr_seen}")
        errors = workload.warmup.check(result)
        if errors:
            sys.exit(f"warm-up answer is wrong: {errors}")
    record = {"import_s": import_s, "warmup_s": warmup_s,
              "setup_s": import_s + warmup_s, "modules_loaded": modules_loaded}
    if mode == "probe":
        print(json.dumps(record))
        return 0

    latencies, failures, check_errors, by_kind = [], {}, [], {}
    busy = 0.0
    rounds = 0
    untraced_busy = 0.0
    if tracer is None:
        speed.start()
    while True:
        for task in workload.round(seed, rounds):
            rc, result, dt = perform(task, tracer is not None)
            message = stderr_seen[-1] if rc != 0 else ""
            if tracer is not None:
                # The same request once more with the tracer idle, right
                # after the traced one, so both see the same machine state.
                untraced_busy += perform(task, False)[2]
            latencies.append(dt)
            busy += dt
            n_total = by_kind.setdefault(task.kind, [0, 0.0])
            n_total[0] += 1
            n_total[1] += dt
            if rc != 0:
                failures[task.kind] = failures.get(task.kind, 0) + 1
                if not (rc == 1 and task.may_fail and task.may_fail in message):
                    check_errors.append(f"{task.kind}: exit {rc}: {message}")
                if not task.check_any_exit:
                    continue
            check_errors.extend(task.check(result))
        rounds += 1
        if max_rounds and rounds >= max_rounds:
            break
        if not max_rounds and busy >= seconds:
            break

    speed.stop()
    scaled = latencies
    if speed.samples:
        # Each latency scaled by the host speed around its own request (the
        # last len(latencies) requests performed: no tracer, one pass each).
        scaled = [dt / speed.slowdown(a, b)
                  for dt, (a, b) in zip(latencies, spans[-len(latencies):])]
    record.update({
        "rounds": rounds,
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "failures_by_kind": failures,
        "requests_by_kind": {k: {"count": n, "mean_ms": t / n * 1e3}
                             for k, (n, t) in sorted(by_kind.items())},
        "failure_messages": sorted(set(stderr_seen)),
        "check_errors": check_errors[:20],
        "worst_relative_deviation": workloads.ACCURACY.worst,
        "beyond_target_rtol": workloads.ACCURACY.beyond_target,
        "correct": not check_errors,
        "busy_s": busy,
        "latencies_ms": [t * 1e3 for t in latencies],
        "host_slowdown": speed.slowdown() if speed.samples else 1.0,
        "host_samples": len(speed.samples),
        "wall_requests_per_s": len(latencies) / busy,
        "wall_request_p50_ms": statistics.median(latencies) * 1e3,
        "wall_request_p90_ms": quantile(latencies, 90) * 1e3,
        "requests_per_s": len(scaled) / sum(scaled),
        "request_p50_ms": statistics.median(scaled) * 1e3,
        "request_p90_ms": quantile(scaled, 90) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        record["untraced_busy_s"] = untraced_busy
        record["layers"] = tracer.metrics()
        record["spans"] = {k: v.as_dict() for k, v in tracer.stats.items()}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
