"""kreinspec benchmark: three route workloads, correctness-gated jobs, layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload extension --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` each input runs twice, untraced
and traced, and the object holds the per-layer metrics.  Lines before it
give the same numbers for people, and the run metadata.  The full record
(and, when traced, the spans) goes to ``bench/out/``.  See
``bench/README.md`` for the metrics and the reasons behind the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import COLD, WORKLOADS, run_inputs  # noqa: E402

SETUP_SAMPLES = 7        # set-ups timed per run of a warm workload
HARD_STOP_S = 120.0      # start no job after this, whatever --seconds says

# Wall time of one untraced cycle: the median over three sets of ten runs on
# a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4 on OpenBLAS 0.3.31, one BLAS
# thread) at the commit that added this benchmark.  A run does the number of
# whole cycles that fills --seconds at that speed, so every run of one
# commit does the same jobs in the same strata, whatever the machine's speed
# at the time.
NOMINAL_CYCLE_S = {"extension": 13.0, "ball-weyl": 21.0, "radial-fd": 23.0}

# Every reported time is in reference seconds: seconds on a host that runs
# worker.kernel() in KERNEL_REF_S (a quiet host of the 2-vCPU VM the
# baseline was measured on runs it in about 0.9 ms).  The host's speed
# changes with its neighbours' load within seconds and by up to 1.8 times;
# the kernel, timed during every job, slows with it, so a job time scaled by
# the speed measured while it ran does not move with the neighbours.
KERNEL_REF_S = 0.001

REPLY_TIMEOUT_S = 30.0   # longest wait for one worker reply (a job takes 1-4 s)
BLAS_THREADS = "1"       # one process generating load, one BLAS thread

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
             "job_tail_s": "s", "ok_frac": "ratio", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


class Worker:
    """One worker interpreter; ``setup_s`` is start to ready.

    ``speed`` is the host's speed (kernel runs per second) while the worker
    imported, and the time its speed sampler took is not in ``setup_s``.
    """

    def __init__(self, root: Path):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                   OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(root)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, bufsize=0,
        )
        self._buffer = bytearray()
        try:
            ready = self._receive()
            self.setup_s = time.perf_counter() - start - ready["inside_s"]
        except BaseException:
            self.close()
            raise
        self.meta, self.speed = ready["meta"], ready["speed"]

    def _receive(self) -> dict:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"worker gave no reply within {REPLY_TIMEOUT_S} s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise BenchError(f"worker exited with code {self.proc.wait()}")
                self._buffer += chunk
        end = self._buffer.index(b"\n")
        line = bytes(self._buffer[:end])
        del self._buffer[:end + 1]
        return json.loads(line)

    def run(self, message: dict) -> dict:
        self.proc.stdin.write((json.dumps(message) + "\n").encode())
        self.proc.stdin.flush()
        return self._receive()

    def close(self) -> None:
        try:
            self.proc.stdin.write(b'{"stop": true}\n')
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def _tail(times) -> tuple:
    """Highest percentile with at least 10 jobs beyond it: (value, percentile).

    With 10 jobs or fewer no percentile qualifies; the fastest job is
    reported, as percentile 0.
    """
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[0], 0.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def cycles_for(workload: str, seconds: float, trace: bool) -> int:
    """Whole cycles in a run; a traced run runs each input twice, so half."""
    per_run = seconds / NOMINAL_CYCLE_S[workload] / (2 if trace else 1)
    return max(1, int(per_run + 0.5))


def _run_jobs(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    """The closed loop over ``cycles_for`` whole cycles of seeded inputs."""
    rng = random.Random(f"{workload}:{seed}")
    records, workers, meta = [], [], {}
    cold = workload in COLD
    shared = None
    try:
        if not cold:
            for _ in range(SETUP_SAMPLES - 1):
                probe = Worker(root)
                workers.append(probe)
                probe.close()
            shared = Worker(root)
            workers.append(shared)
            meta = shared.meta
        inputs = run_inputs(workload, rng, cycles_for(workload, seconds, trace))
        start = time.perf_counter()
        for index, inp in enumerate(inputs):
            if time.perf_counter() - start > HARD_STOP_S:
                break
            modes = (False,) if not trace else ((False, True) if index % 2 == 0 else (True, False))
            for traced in modes:
                message = {"workload": workload, "job": len(records), "input": inp,
                           "trace": traced}
                if cold:
                    worker = Worker(root)
                    workers.append(worker)
                    meta = worker.meta
                    try:
                        records.append(worker.run(message))
                    finally:
                        worker.close()
                else:
                    records.append(shared.run(message))
                records[-1]["input"] = inp
    finally:
        if shared is not None:
            shared.close()
    return records, workers, meta


def scaled(seconds: float, speed: float) -> float:
    """A time measured at ``speed`` kernel runs per second, in reference seconds."""
    return seconds * speed * KERNEL_REF_S


def _end_to_end(records, workers) -> tuple:
    plain = [scaled(r["time"], r["speed"]) for r in records if not r["traced"]]
    tail, pct = _tail(plain)
    ok = sum(1 for r in records if r["error"] is None and not r["problems"])
    metrics = {
        "setup_s": statistics.median(scaled(w.setup_s, w.speed) for w in workers),
        "jobs_per_s": len(plain) / sum(plain),
        "job_p50_s": statistics.median(plain),
        "job_tail_s": tail,
        "ok_frac": ok / len(records),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(workers)} set-ups; "
                   f"unscaled {statistics.median(w.setup_s for w in workers):.4g} s",
        "job_p50_s": f"{len(plain)} jobs; unscaled "
                     f"{statistics.median(r['time'] for r in records if not r['traced']):.4g} s",
        "job_tail_s": f"p{pct:.1f} of {len(plain)} jobs",
        "ok_frac": f"{len(records) - ok} of {len(records)} jobs failed",
    }
    return metrics, notes


def _per_layer(records) -> tuple:
    traced = [r for r in records if r["traced"]]
    spans = tracer.concat([r["spans"] for r in traced])
    convergence = (sum(r["convergence"][0] for r in traced),
                   sum(r["convergence"][1] for r in traced))
    metrics = tracer.layer_metrics(spans, len(traced), convergence)
    metrics["trace.overhead_frac"] = tracer.overhead_frac(
        [r["time"] for r in traced], [r["time"] for r in records if not r["traced"]]
    )
    return metrics, spans


def _metadata(root: Path, seed: int, meta: dict) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((root / "src" / "kreinspec").glob("*.py")))
    return dict(meta, nproc=len(os.sched_getaffinity(0)), seed=seed, commit=commit,
                src_lines=lines)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result object (the last output line)."""
    records, workers, meta = _run_jobs(root, workload, seed, seconds, trace)
    metadata = _metadata(root, seed, meta)
    setups = [{"setup_s": w.setup_s, "speed": w.speed} for w in workers]
    e2e, notes = _end_to_end(records, workers)
    failures = Counter(r["error"].split(":")[0] for r in records if r["error"])
    failures.update("gate" for r in records if r["problems"])
    result = {
        "correct": all(r["typed"] and not r["problems"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"] or r["problems"]),
    }
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("  meta " + json.dumps(metadata, sort_keys=True))
    if failures:
        print("  failures " + ", ".join(f"{k} x{v}" for k, v in sorted(failures.items())))
    for r in records:
        for problem in r["problems"][:3]:
            print(f"  job {r['job']} {json.dumps(r['input'])}: {problem}")
    if trace:
        layers, spans = _per_layer(records)
        result["metrics"] = {k: {"value": v, "unit": tracer.UNITS[k]} for k, v in layers.items()}
    else:
        spans = []
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    for name, entry in result["metrics"].items():
        note = f"  ({notes[name]})" if not trace and name in notes else ""
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}{note}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = dict(result, workload=workload, meta=metadata, notes=notes, setups=setups,
                  jobs=[{k: v for k, v in r.items() if k != "spans"} for r in records])
    (out / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        (out / f"spans-{stem}.json").write_text(json.dumps(spans))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    root = BENCH.parent
    if not (root / "src" / "kreinspec" / "__init__.py").is_file():
        print(f"error: no kreinspec sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
