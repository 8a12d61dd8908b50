"""Outside-in span tracing of kreinspec's six layers, and the per-layer metrics.

A Tracer replaces every function named in a layer module's ``__all__`` by a
timing wrapper, in every ``kreinspec`` module namespace that bound the same
object.  Calls between layers therefore nest: ``extensions.krein`` reaches
``linalg.spd_sqrt`` through the name bound in the ``extensions`` namespace,
and ``spd_sqrt`` reaches ``linalg.sym_eigen`` through the ``linalg``
namespace.  Leaving the ``with`` block puts every original function back.

Nothing under ``src/`` is edited; spans are recorded only around calls into
public functions.  Private helpers (``special._eval_j`` and the like) count
toward the self time of the public function that called them.

A span is a sequence ``(name, start, end, parent, job, attrs, raised)`` where
``parent`` is the index of the enclosing span in the same list, or -1, and
``attrs`` holds (key, value) pairs recorded by a probe, or None.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import types

PACKAGE = "kreinspec"
LAYERS = ("linalg", "extensions", "discretize", "special", "spectra", "analysis")

NAME, START, END, PARENT, JOB, ATTRS, RAISED = range(7)

DENSE_EIGEN = ("linalg.sym_eigen", "linalg.sym_eigen_values")

# Unit of every metric layer_metrics returns, plus the tracing overhead.
UNITS = {
    **{f"{layer}.self_s": "s/job" for layer in LAYERS},
    "linalg.dense_eigen_calls": "count/job",
    "linalg.dense_eigen_s": "s/job",
    "linalg.dense_n3": "count/job",
    "linalg.cholesky_s": "s/job",
    "linalg.errors": "count/job",
    "linalg.sturm_calls": "count/job",
    "linalg.sturm_rows": "count/job",
    "linalg.sturm_s": "s/job",
    "discretize.sturm_calls_per_value": "count/value",
    "discretize.radial_s": "s/job",
    "special.bessel_zero_calls": "count/job",
    "special.bessel_zero_p50_us": "us",
    "special.bessel_zero_p99_us": "us",
    "special.tan_fixed_point_calls": "count/job",
    "spectra.ball_spectrum_s": "s/job",
    "spectra.ball_spectrum_repeat_share": "ratio",
    "spectra.values_per_s": "1/s",
    "extensions.krein_s": "s/job",
    "extensions.new_model_s": "s/job",
    "extensions.random_model_s": "s/job",
    "extensions.krein_gap_headroom": "ratio",
    "extensions.buckling_residual_max": "rel",
    "discretize.interval_model_s": "s/job",
    "discretize.convergence_runs_per_size": "ratio",
    "analysis.sandwich_s": "s/job",
    "analysis.weyl_fit_s": "s/job",
    "trace.overhead_frac": "ratio",
}


def _order(matrix) -> int:
    return int(getattr(matrix, "order", None) or len(matrix))


def _bound(fn):
    """Argument binder that fills in defaults, for probes that need them."""
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _krein_headroom(bind):
    def probe(args, kwargs, result):
        arguments = bind(args, kwargs)
        threshold = arguments["profile"].construction_rel * arguments["model"].A.norm_max
        gap = result.construction_gap
        return {"headroom": threshold / gap if gap > 0.0 else None}
    return probe


def _ball_spectrum_key(bind):
    def probe(args, kwargs, result):
        key = repr(sorted(bind(args, kwargs).items()))
        return {"key": key, "values": len(result.entries)}
    return probe


# Attributes recorded per call, for the layer metrics below.  Each entry maps
# a traced name to a factory taking the original function's argument binder.
_PROBES = {
    "linalg.sym_eigen": lambda bind: lambda a, k, r: {"order": _order(a[0])},
    "linalg.sym_eigen_values": lambda bind: lambda a, k, r: {"order": _order(a[0])},
    "linalg.sturm_count": lambda bind: lambda a, k, r: {"rows": len(a[0])},
    "special.bessel_zero": lambda bind: lambda a, k, r: {
        "nu": float(getattr(a[0], "nu", a[0])), "k": int(a[1])
    },
    "spectra.ball_spectrum": _ball_spectrum_key,
    "extensions.krein": _krein_headroom,
    "extensions.buckling_analysis": lambda bind: lambda a, k, r: {
        "residual_max": max(r.residuals.values())
    },
    "discretize.radial_eigenvalues": lambda bind: lambda a, k, r: {"values": len(r)},
}


class Tracer:
    """Context manager that traces kreinspec's public functions.

    ``job`` tags the spans recorded while the block runs.  The six layer
    modules must already be imported; only loaded modules are patched.
    """

    def __init__(self, job=0):
        self.job = job
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def __enter__(self):
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrapped = set()
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for public in module.__all__:
                original = getattr(module, public)
                if not isinstance(original, types.FunctionType) or id(original) in wrapped:
                    continue
                wrapped.add(id(original))
                wrapper = self._wrap(f"{layer}.{public}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
        return False

    def _wrap(self, name: str, fn):
        spans, stack, clock, job = self.spans, self._stack, time.perf_counter, self.job
        factory = _PROBES.get(name)
        probe = factory(_bound(fn)) if factory else None

        # A finished span is a tuple of atoms, which the cyclic garbage
        # collector stops tracking, so thousands of spans do not slow down
        # the collections the library itself triggers.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, job, None, True)
                raise
            end = clock()
            stack.pop()
            attrs = tuple(probe(args, kwargs, result).items()) if probe else None
            spans[index] = (name, start, end, parent, job, attrs, False)
            return result

        return traced


def concat(span_lists) -> list:
    """One span list from several, with parent indices moved along."""
    out = []
    for spans in span_lists:
        offset = len(out)
        out.extend((s[NAME], s[START], s[END], s[PARENT] + offset if s[PARENT] >= 0 else -1,
                    s[JOB], s[ATTRS], s[RAISED]) for s in spans)
    return out


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(
            (spans[c][START], spans[c][END]) for c in children.get(index, ())
        ):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans, jobs: int, convergence=(0, 0)) -> dict:
    """Per-layer metrics from the spans of ``jobs`` traced jobs.

    Times and counts are per traced job.  ``convergence`` is the pair
    (calls of the benchmark's ``run`` callback, distinct sizes asked for),
    summed over the same jobs.  A metric of a layer the workload never calls
    reads 0.
    """
    jobs = max(jobs, 1)
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    names = [s[NAME] for s in spans]
    attrs = [dict(s[ATTRS] or ()) for s in spans]  # empty for a call that raised

    def ancestors(index):
        parent = spans[index][PARENT]
        while parent >= 0:
            yield parent
            parent = spans[parent][PARENT]

    def total(name):
        return sum(d for n, d in zip(names, dur) if n == name)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for n, t in zip(names, own) if _layer(n) == layer
        ) / jobs

    dense = [i for i, n in enumerate(names) if n in DENSE_EIGEN]
    out["linalg.dense_eigen_calls"] = len(dense) / jobs
    out["linalg.dense_eigen_s"] = sum(dur[i] for i in dense) / jobs
    out["linalg.dense_n3"] = sum(attrs[i].get("order", 0) ** 3 for i in dense) / jobs
    out["linalg.cholesky_s"] = total("linalg.cholesky") / jobs
    out["linalg.errors"] = sum(
        1 for s in spans
        if s[RAISED] and _layer(s[NAME]) == "linalg"
        and (s[PARENT] < 0 or _layer(spans[s[PARENT]][NAME]) != "linalg")
    ) / jobs

    sturm = [i for i, n in enumerate(names) if n == "linalg.sturm_count"]
    out["linalg.sturm_calls"] = len(sturm) / jobs
    out["linalg.sturm_rows"] = sum(attrs[i].get("rows", 0) for i in sturm) / jobs
    out["linalg.sturm_s"] = sum(dur[i] for i in sturm) / jobs
    radial = [i for i, n in enumerate(names) if n == "discretize.radial_eigenvalues"]
    delivered = sum(attrs[i].get("values", 0) for i in radial)
    radial_set = set(radial)
    under_radial = sum(1 for i in sturm if radial_set.intersection(ancestors(i)))
    out["discretize.sturm_calls_per_value"] = under_radial / delivered if delivered else 0.0
    out["discretize.radial_s"] = total("discretize.radial_eigenvalues") / jobs

    zeros = [dur[i] * 1e6 for i, n in enumerate(names) if n == "special.bessel_zero"]
    out["special.bessel_zero_calls"] = len(zeros) / jobs
    out["special.bessel_zero_p50_us"] = _percentile(zeros, 50.0)
    out["special.bessel_zero_p99_us"] = _percentile(zeros, 99.0)
    out["special.tan_fixed_point_calls"] = names.count("special.tan_fixed_point") / jobs

    balls = [i for i, n in enumerate(names) if n == "spectra.ball_spectrum" and attrs[i]]
    seen, repeats = set(), 0
    for i in balls:
        key = (spans[i][JOB], attrs[i].get("key"))
        repeats += key in seen
        seen.add(key)
    ball_time = total("spectra.ball_spectrum")
    out["spectra.ball_spectrum_s"] = ball_time / jobs
    out["spectra.ball_spectrum_repeat_share"] = repeats / len(balls) if balls else 0.0
    out["spectra.values_per_s"] = (
        sum(attrs[i].get("values", 0) for i in balls) / ball_time if ball_time else 0.0
    )

    out["extensions.krein_s"] = total("extensions.krein") / jobs
    out["extensions.new_model_s"] = total("extensions.new_model") / jobs
    out["extensions.random_model_s"] = sum(
        t for n, t in zip(names, own) if n == "extensions.random_model"
    ) / jobs
    headrooms = [a["headroom"] for n, a in zip(names, attrs)
                 if n == "extensions.krein" and a.get("headroom") is not None]
    out["extensions.krein_gap_headroom"] = min(headrooms) if headrooms else 0.0
    residuals = [a["residual_max"] for n, a in zip(names, attrs)
                 if n == "extensions.buckling_analysis" and a]
    out["extensions.buckling_residual_max"] = max(residuals) if residuals else 0.0

    out["discretize.interval_model_s"] = total("discretize.interval_model") / jobs
    runs, sizes = convergence
    out["discretize.convergence_runs_per_size"] = runs / sizes if sizes else 0.0

    out["analysis.sandwich_s"] = total("analysis.sandwich_check") / jobs
    out["analysis.weyl_fit_s"] = total("analysis.weyl_fit") / jobs
    return out


def overhead_frac(traced_times, plain_times) -> float:
    """Traced versus untraced median job time, as a fraction of untraced."""
    plain = statistics.median(plain_times)
    return statistics.median(traced_times) / plain - 1.0
