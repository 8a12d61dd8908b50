"""Job bodies of the three workloads and the correctness gate of each.

A job takes the plain input dict that ``workloads.py`` generated and returns
a JSON-serializable dict.  Jobs call kreinspec through module attributes
(``extensions.krein``, not a name imported from it), so that a Tracer's
wrappers see the outermost calls too.

A gate takes the same input and the job's output and returns a list of
problems, empty when the output is right.  Gates run outside the timed and
traced interval, against references independent of the route the job took:
closed forms, Bessel zeros, and ``mpmath``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# All six layers are imported here, so a Tracer finds every one of them.
from kreinspec import analysis, discretize, extensions, linalg, special, spectra  # noqa: F401

INTERVAL_M = 200
KREIN_COUNT = 10
MODEL_N, MODEL_D = 200, 150
BALL_LAMBDA = 1.0e4
K_MAX = 50
RADIAL_M = 800
RADIAL_COUNT = 20
RADIAL_SIZES = (100, 200, 400, 800)

# Gate bounds, fixed from measurements at the sizes above (measured value in
# brackets).  The interval scheme pins boundary derivatives at first order,
# so its relative error is about 2h/L [1.99h/L, for every L]; the radial
# scheme is second order [relative error at most 0.14 lambda h^2].
INTERVAL_REL_BOUND = 3.0 / (INTERVAL_M + 1)
PENCIL_REL = 1.0e-8                # LAPACK on the same pencil [3e-10]
BUCKLING_RESIDUAL_MAX = 1.0e-7     # [3.7e-9]
WEYL_LEAD_REL = 0.01               # [0.13% .. 0.36%]
ZERO_REL = 1.0e-10                 # library target about 1e-11
RADIAL_REL_PER_LAMBDA_H2 = 0.5
ORDER_TOLERANCE = 0.1
SHARP_ON_BALL = "hard-second-below-soft-first"


def run_extension(inp: dict) -> dict:
    model = discretize.interval_model(
        discretize.Grid1D(0.0, inp["length"], INTERVAL_M),
        discretize.PotentialSpec.zero(),
    )
    spectrum = discretize.discrete_krein_spectrum(model, KREIN_COUNT)
    kernel_dim = extensions.krein(model).kernel_basis.shape[1]
    report = extensions.buckling_analysis(
        extensions.random_model(inp["model_seed"], MODEL_N, MODEL_D)
    )
    return {
        "values": [float(v) for v in spectrum.flattened()],
        "kernel_dim": int(kernel_dim),
        "residuals": {k: float(v) for k, v in report.residuals.items()},
    }


def _interval_pencil_values(length: float) -> np.ndarray:
    """The model's pencil Q^T A^2 Q u = l Q^T A Q u, solved by LAPACK.

    A is the second difference on the interior nodes and D leaves out the
    first and last of them, as ``interval_model`` documents.
    """
    m = INTERVAL_M
    h = length / (m + 1)
    aq = ((2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / (h * h))[:, 1:m - 1]
    low = np.linalg.cholesky(aq[1:m - 1, :])
    reduced = np.linalg.solve(low, np.linalg.solve(low, aq.T @ aq).T)
    return np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[:KREIN_COUNT]


def check_extension(inp: dict, out: dict) -> list:
    problems = []
    length = inp["length"]
    lapack = _interval_pencil_values(length).tolist()
    for k, (got, want) in enumerate(zip(out["values"], lapack), start=1):
        if not abs(got - want) <= PENCIL_REL * want:
            problems.append(f"pencil value {k}: {got!r} vs LAPACK {want!r}")
    exact = spectra.interval_krein(spectra.IntervalSpec(0.0, length), KREIN_COUNT).flattened()
    if len(out["values"]) != len(exact):
        problems.append(f"{len(out['values'])} Krein values, expected {len(exact)}")
    for k, (got, want) in enumerate(zip(out["values"], exact), start=1):
        if not abs(got - want) <= INTERVAL_REL_BOUND * want:
            problems.append(f"Krein value {k}: {got!r} vs closed form {want!r}")
    if out["kernel_dim"] != 2:
        problems.append(f"Krein kernel dimension {out['kernel_dim']}, expected 2")
    for name, value in out["residuals"].items():
        if not value <= BUCKLING_RESIDUAL_MAX:
            problems.append(f"buckling residual {name} = {value!r} > {BUCKLING_RESIDUAL_MAX}")
    return problems


def _report(r) -> dict:
    return {"name": r.name, "satisfied": bool(r.satisfied),
            "inconclusive": bool(r.inconclusive), "margin": float(r.margin)}


def run_ball_weyl(inp: dict) -> dict:
    n, radius = inp["n"], inp["radius"]
    ball = spectra.BallSpec(n, radius)
    sandwich = analysis.sandwich_check(n, radius, BALL_LAMBDA)
    counting = analysis.ball_counting(ball, "krein", BALL_LAMBDA)
    fit = analysis.weyl_fit(
        counting, n, (BALL_LAMBDA / 10.0, BALL_LAMBDA),
        analytic=analysis.two_term_ball_coefficients(n, radius, "krein"),
    )
    soft = spectra.ball_spectrum(ball, "krein", BALL_LAMBDA)
    hard = spectra.ball_spectrum(ball, "dirichlet", BALL_LAMBDA)
    volume = analysis.unit_ball_volume(n) * radius ** n
    reports = analysis.universal_inequalities(soft, hard, n, volume, K_MAX)
    return {
        "sandwich": _report(sandwich),
        "c_lead": float(fit.c_lead),
        "reports": [_report(r) for r in reports],
        "soft_head": [[float(v), int(m)] for v, m in soft.entries[:64]],
        "hard_head": [[float(v), int(m)] for v, m in hard.entries[:64]],
    }


def _harmonics(n: int, ell: int) -> int:
    """Dimension of degree-ell spherical harmonics in R^n."""
    return math.comb(n + ell - 1, ell) - (math.comb(n + ell - 3, ell - 2) if ell >= 2 else 0)


def check_ball_weyl(inp: dict, out: dict) -> list:
    problems = []
    n, radius = inp["n"], inp["radius"]
    for report in [out["sandwich"]] + out["reports"]:
        if not report["satisfied"]:
            problems.append(f"{report['name']} violated, margin {report['margin']!r}")
        elif report["inconclusive"] and report["name"] != SHARP_ON_BALL:
            problems.append(f"{report['name']} inconclusive, margin {report['margin']!r}")
    v_n = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    lead = (2.0 * math.pi) ** (-n) * v_n * v_n * radius ** n
    if not abs(out["c_lead"] / lead - 1.0) <= WEYL_LEAD_REL:
        problems.append(f"Weyl c_lead {out['c_lead']!r} vs analytic {lead!r}")
    for head, shift in ((out["soft_head"], n / 2.0), (out["hard_head"], (n - 2) / 2.0)):
        for ell in range(4):
            nu = ell + shift
            want = (float(mpmath.besseljzero(nu, 1)) / radius) ** 2
            match = [m for v, m in head if abs(v - want) <= ZERO_REL * want]
            if not match or match[0] < _harmonics(n, ell):
                problems.append(f"first zero of order {nu}: no value {want!r} "
                                f"with multiplicity {_harmonics(n, ell)}")
    return problems


def run_radial_fd(inp: dict) -> dict:
    n, ell, radius = inp["n"], inp["ell"], inp["radius"]
    values = {
        bc: [float(v) for v in discretize.radial_eigenvalues(
            discretize.RadialChannelSpec(n, ell, radius, RADIAL_M, bc), RADIAL_COUNT)]
        for bc in ("dirichlet", "krein")
    }
    target = (special.bessel_zero(ell + (n - 2) / 2.0, 1) / radius) ** 2
    calls: dict = {}

    def run(m):
        calls[m] = calls.get(m, 0) + 1
        spec = discretize.RadialChannelSpec(n, ell, radius, m, "dirichlet")
        return float(discretize.radial_eigenvalues(spec, 1)[0])

    report = discretize.convergence_order(
        run, RADIAL_SIZES, target, spacing=lambda m: radius / (m + 1)
    )
    return {
        "values": values,
        "order": float(report.order),
        "convergence": [sum(calls.values()), len(calls)],
    }


def check_radial_fd(inp: dict, out: dict) -> list:
    problems = []
    n, ell, radius = inp["n"], inp["ell"], inp["radius"]
    nu = ell + (n - 2) / 2.0
    for bc, shift, h in (("dirichlet", 0.0, radius / (RADIAL_M + 1)),
                         ("krein", 1.0, radius / RADIAL_M)):
        got = out["values"][bc]
        if len(got) != RADIAL_COUNT:
            problems.append(f"{bc}: {len(got)} values, expected {RADIAL_COUNT}")
        for k, value in enumerate(got, start=1):
            want = (special.bessel_zero(nu + shift, k) / radius) ** 2
            if not abs(value - want) <= RADIAL_REL_PER_LAMBDA_H2 * want * h * h * want:
                problems.append(f"{bc} value {k}: {value!r} vs {want!r}")
    if not abs(out["order"] - 2.0) <= ORDER_TOLERANCE:
        problems.append(f"convergence order {out['order']!r}, expected 2 +- {ORDER_TOLERANCE}")
    return problems


RUN = {"extension": run_extension, "ball-weyl": run_ball_weyl, "radial-fd": run_radial_fd}
CHECK = {"extension": check_extension, "ball-weyl": check_ball_weyl,
         "radial-fd": check_radial_fd}
