"""Benchmark worker: one interpreter that imports kreinspec and runs jobs.

Usage (started by run.py, not by hand): ``python3 worker.py <checkout root>``.
The worker imports the six layer modules from ``<root>/src``, writes one
``ready`` line carrying the library versions, then reads one JSON job per
line from stdin and answers each with one JSON line on stdout until it reads
``{"stop": true}`` or EOF.  The ``ready`` line also carries the host's
speed during the imports and the time the speed sampler took in them.

A job's time covers the job body only: tracer set-up, the correctness gate
and serialization are outside it, and the time the speed sampler took
inside it is subtracted.  An untraced job also reports the host's speed
while it ran (see SpeedSampler); a traced one runs without the sampler.  A
KreinspecError raised by the library makes the job failed; any other
exception also fails it and is reported as untyped, which marks the run
incorrect.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import signal
import sys
import time
import traceback


KERNEL_LOOPS = 3000          # about 1 ms on a quiet host
SAMPLE_INTERVAL_S = 0.05     # one kernel run per 50 ms of a job


def kernel() -> float:
    """Time a short fixed pure-Python loop that uses no kreinspec code."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(KERNEL_LOOPS):
        x = (i * 0.5) % 7.0
        total += math.sqrt(x + 1.0)
        table[i & 255] = x
    return time.perf_counter() - start


def speed(times) -> float:
    """Kernel runs per second: the mean of 1 / kernel time.

    Work done in an interval is its length times the mean speed in it, so
    a job time times this speed, over the speed of a quiet host, is the time
    the job would have taken on the quiet host.
    """
    return sum(1.0 / t for t in times) / len(times)


class SpeedSampler:
    """Runs ``kernel`` every SAMPLE_INTERVAL_S while a job runs (SIGALRM).

    The host's speed changes within a second as its neighbours' load
    changes, and the kernel slows with it.  ``times`` holds the kernel
    times (one taken after the block if none fell inside it); ``inside_s``
    is the part of the block's time the sampler took.
    """

    def __enter__(self):
        self.times, self.inside_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:
            self.times.append(kernel())

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.times.append(kernel())
        self.inside_s += time.perf_counter() - start


def _send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _versions() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _run_job(message: dict, jobs, tracer, kreinspec_error) -> dict:
    workload = message["workload"]
    inp = message["input"]
    traced = bool(message["trace"])
    tracing = tracer.Tracer(job=message["job"]) if traced else contextlib.nullcontext()
    sampler = SpeedSampler()
    out, error, typed = None, None, True
    with tracing, (contextlib.nullcontext() if traced else sampler):
        start = time.perf_counter()
        try:
            out = jobs.RUN[workload](inp)
        except kreinspec_error as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a defect, not a typed library failure
            error, typed = f"{type(exc).__name__}: {exc}", False
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
    problems = jobs.CHECK[workload](inp, out) if out is not None else []
    return {
        "job": message["job"],
        "traced": traced,
        "time": elapsed - (0.0 if traced else sampler.inside_s),
        "speed": None if traced else speed(sampler.times),
        "error": error,
        "typed": typed,
        "problems": problems,
        "convergence": (out or {}).get("convergence", [0, 0]),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracing.spans if traced else [],
    }


def main() -> int:
    root = sys.argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    with SpeedSampler() as sampler:
        import jobs
        import tracer
        from kreinspec.errors import KreinspecError
        versions = _versions()

    _send({"ready": True, "meta": versions, "speed": speed(sampler.times),
           "inside_s": sampler.inside_s})
    for line in sys.stdin:
        message = json.loads(line)
        if message.get("stop"):
            break
        _send(_run_job(message, jobs, tracer, KreinspecError))
    return 0


if __name__ == "__main__":
    sys.exit(main())
