"""One benchmark operation in a fresh interpreter.

Usage: python worker.py '<json job>'

The job names the CLI argv, the input files to read during set-up and,
optionally, what to trace ("full" or "cache") and where to write spans.
The worker imports `arrowbench.cli`, reads and parses the inputs and is
then ready: its set-up time runs from the spawn time `run.py` puts (in the
job, on the system-wide monotonic clock) to here, its set-up CPU time from
its start to here.  It then times a fixed calibration loop, runs
`cli.main(argv)` once with stdout captured, times the calibration loop
again and prints one JSON result line.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


def _calibration_loop(n: int = 6000) -> int:
    """Fixed pure-Python work of the kind the deciders do: tuples, dict and
    set updates, small-integer arithmetic."""
    seen, counts, acc = set(), {}, 0
    for i in range(n):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0) + 1
        seen.add(key[0] * 131 + key[1])
        acc += len(counts) ^ i
    return acc


def _calibration_cpu_s(reps: int = 4) -> list[float]:
    """CPU times of the calibration loop on this thread, one per repeat.
    Thread time leaves out helper threads (BLAS) that may still spin; the
    garbage collector is off, so the program's heap does not slow it."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.thread_time()
            _calibration_loop()
            times.append(time.thread_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return times


def main() -> int:
    job = json.loads(sys.argv[1])
    from arrowbench import cli, kernels
    from arrowbench.structures import parse_structure

    for path in job["inputs"]:
        with open(path, encoding="utf-8") as fh:
            parse_structure(fh.read())
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - job["spawned_at"]
    setup_cpu_s = time.process_time()
    tracer = None
    if job.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        {"full": tracing.install, "cache": tracing.install_cache}[job["trace"]](tracer)

    out, err = io.StringIO(), io.StringIO()
    error = None
    cal = _calibration_cpu_s()
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job["argv"]))
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # an uncaught exception is a failed operation
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    cal += _calibration_cpu_s()

    maxrss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"rc": rc, "setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "wall_s": wall,
              "cpu_s": cpu, "cal_cpu_s": sum(cal) / len(cal), "maxrss_kb": maxrss_kb,
              "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error,
              "backend": kernels.backend_name()}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("trace_dir"):
            result["spans"] = tracer.write_spans(
                os.path.join(job["trace_dir"], job["name"] + ".spans"))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
