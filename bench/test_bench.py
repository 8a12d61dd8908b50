"""Self-tests of the benchmark (not part of the library's test suite).

Run from the repository root:  python3 -m pytest -q bench
"""

import random
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from kreinspec import discretize, extensions, special  # noqa: E402
import worker  # noqa: E402
from workloads import CHANNELS, run_inputs  # noqa: E402


def span(name, start, end, parent=-1, job=0, attrs=None, raised=False):
    return [name, start, end, parent, job, attrs, raised]


class TestSelfTime:
    def test_synthetic_tree(self):
        spans = [
            span("analysis.sandwich_check", 0.0, 10.0),
            span("spectra.ball_spectrum", 1.0, 3.0, parent=0),
            span("spectra.ball_spectrum", 2.0, 4.0, parent=0),  # overlaps its sibling
            span("special.bessel_zero", 1.5, 2.0, parent=1),
            span("spectra.ball_spectrum", 6.0, 7.0, parent=0),
            span("linalg.sturm_count", 9.5, 11.0, parent=0),  # runs past its parent
        ]
        assert tracer.self_times(spans) == pytest.approx([5.5, 1.5, 2.0, 0.5, 1.0, 1.5])
        metrics = tracer.layer_metrics(spans, jobs=2)
        assert metrics["analysis.self_s"] == pytest.approx(5.5 / 2)
        assert metrics["spectra.self_s"] == pytest.approx(4.5 / 2)
        assert metrics["special.self_s"] == pytest.approx(0.5 / 2)
        assert metrics["linalg.self_s"] == pytest.approx(1.5 / 2)

    def test_concat_moves_parents(self):
        first = [span("a.f", 0.0, 2.0), span("a.g", 0.5, 1.0, parent=0)]
        second = [span("a.f", 0.0, 1.0), span("a.g", 0.2, 0.4, parent=0)]
        merged = tracer.concat([first, second])
        assert [s[tracer.PARENT] for s in merged] == [-1, 0, -1, 2]
        assert tracer.self_times(merged) == pytest.approx([1.5, 0.5, 0.8, 0.2])

    def test_errors_count_once_per_layer_exit(self):
        spans = [
            span("extensions.krein", 0.0, 3.0, raised=True),
            span("linalg.spd_sqrt", 0.5, 2.5, parent=0, raised=True),
            span("linalg.sym_eigen", 1.0, 2.0, parent=1, raised=True),
        ]
        assert tracer.layer_metrics(spans, jobs=1)["linalg.errors"] == 1


def _namespaces():
    return {
        name: dict(vars(module)) for name, module in sys.modules.items()
        if name.startswith("kreinspec")
    }


class TestTracer:
    def test_calls_nest_and_wrappers_are_restored(self):
        before = _namespaces()
        model = extensions.random_model(3, 12, 8)
        with tracer.Tracer(job=7) as tr:
            assert extensions.krein is not before["kreinspec.extensions"]["krein"]
            extensions.krein(model)
        after = _namespaces()
        assert after.keys() == before.keys()
        for name in before:
            assert after[name] == before[name], name

        names = [s[tracer.NAME] for s in tr.spans]
        assert names[0] == "extensions.krein"
        chain = [names.index("linalg.sym_eigen")]
        while chain[-1] >= 0:
            chain.append(tr.spans[chain[-1]][tracer.PARENT])
        assert [names[i] for i in chain[:-1]] == [
            "linalg.sym_eigen", "linalg.spd_sqrt", "extensions.krein"
        ]
        assert all(s[tracer.JOB] == 7 for s in tr.spans)
        assert dict(tr.spans[0][tracer.ATTRS])["headroom"] > 1.0

    def test_restored_after_an_error(self):
        before = _namespaces()
        with pytest.raises(ValueError):
            with tracer.Tracer():
                discretize.Grid1D(0.0, 1.0, 4)
                raise ValueError("leave the block by an exception")
        assert _namespaces() == before


def _job(workload, inp):
    out = jobs.RUN[workload](inp)
    assert jobs.CHECK[workload](inp, out) == []
    return out


def _perturbed(out, edit):
    copy = {k: (v.copy() if hasattr(v, "copy") else v) for k, v in out.items()}
    edit(copy)
    return copy


class TestGates:
    def test_extension_gate_rejects_perturbations(self):
        inp = {"length": 1.3, "model_seed": 2}
        out = _job("extension", inp)

        def scale_value(o):
            o["values"] = list(o["values"])
            o["values"][3] *= 1.02

        def bad_residual(o):
            o["residuals"] = dict(o["residuals"], unitary_equivalence=1e-5)

        def nudge_value(o):
            o["values"] = list(o["values"])
            o["values"][0] *= 1 + 1e-6

        for edit in (scale_value, nudge_value, bad_residual, lambda o: o.update(kernel_dim=3)):
            assert jobs.check_extension(inp, _perturbed(out, edit))

    def test_ball_weyl_gate_rejects_perturbations(self):
        inp = {"n": 2, "radius": 0.85}
        out = _job("ball-weyl", inp)

        def violated(o):
            o["reports"] = [dict(r, satisfied=False) if r["name"] == "gap-quadratic-bound"
                            else r for r in o["reports"]]

        def inconclusive(o):
            o["reports"] = [dict(r, inconclusive=True) for r in o["reports"]]

        def moved_zero(o):
            o["soft_head"] = [[v * (1 + 1e-8), m] for v, m in o["soft_head"]]

        def lost_multiplicity(o):
            o["hard_head"] = [[v, 1] for v, m in o["hard_head"]]

        edits = (violated, inconclusive, moved_zero, lost_multiplicity,
                 lambda o: o.update(c_lead=o["c_lead"] * 1.02),
                 lambda o: o.update(sandwich=dict(o["sandwich"], satisfied=False)))
        for edit in edits:
            assert jobs.check_ball_weyl(inp, _perturbed(out, edit))

    def test_radial_gate_rejects_perturbations(self):
        inp = {"n": 3, "ell": 1, "radius": 1.1}
        out = _job("radial-fd", inp)
        assert out["convergence"][1] == len(jobs.RADIAL_SIZES)

        def moved_value(o):
            o["values"] = dict(o["values"], krein=list(o["values"]["krein"]))
            o["values"]["krein"][5] *= 1.001

        for edit in (moved_value, lambda o: o.update(order=1.85)):
            assert jobs.check_radial_fd(inp, _perturbed(out, edit))


class TestWorkloads:
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            first = run_inputs(workload, random.Random(f"{workload}:5"), 2)
            again = run_inputs(workload, random.Random(f"{workload}:5"), 2)
            other = run_inputs(workload, random.Random(f"{workload}:6"), 2)
            assert first == again
            assert first != other

    def test_cycles_are_stratified(self):
        rng = random.Random(1)
        extension = run_inputs("extension", rng, 2)
        for cycle in (extension[:8], extension[8:]):
            assert sorted(j["model_seed"] for j in cycle) == list(range(1, 9))
        radial = run_inputs("radial-fd", rng, 2)
        for cycle in (radial[:14], radial[14:]):
            assert sorted((j["n"], j["ell"]) for j in cycle) == sorted(CHANNELS)
        ball = run_inputs("ball-weyl", rng, 2)
        for n in (2, 3):
            radii = sorted(j["radius"] for j in ball if j["n"] == n)
            bands = [int((r - 0.8) / 0.45 * 8) for r in radii]
            assert bands == list(range(8))

    def test_run_length_in_whole_cycles(self):
        assert [run.cycles_for(w, 32, False) for w in run.WORKLOADS] == [2, 2, 1]
        assert [run.cycles_for(w, 32, True) for w in run.WORKLOADS] == [1, 1, 1]
        assert run.cycles_for("ball-weyl", 1, False) == 1

    def test_tail_has_ten_jobs_beyond(self):
        times = [float(t) for t in range(1, 31)]
        value, pct = run._tail(times)
        assert sum(t > value for t in times) == 10
        assert pct == pytest.approx(100 * 20 / 30)
        assert run._tail(times[:10]) == (1.0, 0.0)


class TestSpeedScaling:
    def test_sampler_times_the_kernel_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with worker.SpeedSampler() as sampler:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.5:
                sum(i * i for i in range(1000))
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(sampler.times) >= 5
        assert 0.0 < sampler.inside_s < 0.5
        assert sampler.inside_s >= sum(sampler.times)

    def test_speed_is_mean_rate_and_scales_to_reference_seconds(self):
        assert worker.speed([0.001, 0.002]) == pytest.approx(750.0)
        # Half the time at the reference speed, half at half of it: the
        # job did 1.5 reference seconds of work in 2 seconds.
        half_slow = worker.speed([run.KERNEL_REF_S, 2 * run.KERNEL_REF_S])
        assert run.scaled(2.0, half_slow) == pytest.approx(1.5)

    def test_a_job_reports_time_without_the_sampler_and_its_speed(self):
        reply = worker._run_job(
            {"workload": "radial-fd", "job": 0, "trace": False,
             "input": {"n": 3, "ell": 1, "radius": 1.0}},
            jobs, tracer, Exception,
        )
        assert reply["problems"] == [] and reply["error"] is None
        assert reply["speed"] > 0 and reply["time"] > 0


def _first_call(spans, nu):
    return next(s for s in spans
                if s[tracer.NAME] == "special.bessel_zero"
                and dict(s[tracer.ATTRS]) == {"nu": nu, "k": 1})


def test_ball_weyl_jobs_start_cold():
    """The first scan-path zero of a job is computed, not served from a cache.

    Two jobs on the same input run one after the other, as run.py runs
    them.  A large order with k = 1 always takes the scan path.  A warm
    lookup of the same zero is timed in this process for comparison.
    """
    inp = {"n": 2, "radius": 0.8}
    spans, pids = [], []
    for job in range(2):
        worker = run.Worker(ROOT)
        try:
            reply = worker.run({"workload": "ball-weyl", "job": job, "input": inp,
                                "trace": True})
        finally:
            worker.close()
        assert reply["error"] is None and reply["problems"] == []
        spans.append(reply["spans"])
        pids.append(worker.proc.pid)
    assert pids[0] != pids[1]

    nu = max(dict(s[tracer.ATTRS])["nu"] for s in spans[1]
             if s[tracer.NAME] == "special.bessel_zero" and dict(s[tracer.ATTRS])["k"] == 1)
    assert nu >= 20
    first, second = (_first_call(s, nu) for s in spans)
    cold = [s[tracer.END] - s[tracer.START] for s in (first, second)]

    special.bessel_zero(nu, 1)
    start = time.perf_counter()
    special.bessel_zero(nu, 1)
    warm = time.perf_counter() - start
    assert cold[1] > 10 * warm
    assert cold[1] > 0.3 * cold[0]
