"""Least-squares recovery of the free model parameters.

Everything in the cavity model is independently measured except the
detuning, the signal phase, and the background amplitude of the cavity
phase noise; those three can be fitted to an estimated signal spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DegenerateTarget, NonConvergence
from .params import SystemParams
from .theory import SpectrumModel

FREE_PARAMS = ("detuning", "phi_s", "zeta_background")
DEFAULT_BAND = (145e3, 195e3)


@dataclass(frozen=True)
class FitProblem:
    """Weighted log-spectral fit of the signal quadrature spectrum.

    ``free_params`` maps a parameter name to finite (lo, hi) bounds:
    "detuning" in rad/s, "phi_s" in rad, "zeta_background" in the noise
    model's background units.  The target should be normalized to SQL
    with electronic noise removed.  Weights follow from the relative
    errors: w = (value/stderr)^2, the inverse variance of log S.
    """

    system: SystemParams
    frequencies: np.ndarray
    target: np.ndarray
    stderr: np.ndarray
    free_params: dict
    band: tuple = DEFAULT_BAND
    n_multistarts: int = 20
    seed: int = 0
    max_evals: int = 4000

    def __post_init__(self):
        if not self.free_params:
            raise ConfigError("at least one free parameter is required")
        for name, (lo, hi) in self.free_params.items():
            if name not in FREE_PARAMS:
                raise ConfigError(f"unknown free parameter {name!r}")
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ConfigError(f"bounds for {name!r} must be finite and ordered")
        if len(self.frequencies) != len(self.target) or len(self.target) != len(
            self.stderr
        ):
            raise ConfigError("target arrays must share one grid")
        if np.all(np.asarray(self.stderr) == 0):
            raise DegenerateTarget("all stderr are zero; cannot weight the fit")


@dataclass
class FitResult:
    params: dict
    uncertainty: dict
    loss: float
    n_evals: int
    degenerate: bool
    start_losses: list
    message: str = ""


def _apply_theta(system: SystemParams, names, theta) -> SystemParams:
    out = system
    for name, value in zip(names, theta):
        if name == "detuning":
            out = replace(out, cavity=replace(out.cavity, detuning=float(value)))
        elif name == "phi_s":
            out = replace(out, signal_phase=float(value))
        else:
            out = replace(out, zeta=replace(out.zeta, background=float(value)))
    return out


def fit(problem: FitProblem) -> FitResult:
    """Multistart simplex minimization of the weighted log-spectral loss.

    Runs ``n_multistarts`` Nelder-Mead searches from seeded points inside
    the bounds and keeps the best (ties broken by start index).  The
    per-parameter uncertainty proxy is sqrt(2/H_ii) from the numerical
    curvature of the loss at the optimum; a pair of near-equal optima
    separated by more than that proxy raises the degeneracy flag.
    """
    from scipy import optimize

    f = np.asarray(problem.frequencies, dtype=float)
    sel = (f >= problem.band[0]) & (f <= problem.band[1])
    if not sel.any():
        raise ConfigError(f"fit band {problem.band} excludes every target point")
    f = f[sel]
    target = np.asarray(problem.target, dtype=float)[sel]
    stderr = np.asarray(problem.stderr, dtype=float)[sel]
    if np.any(target <= 0):
        raise ConfigError("log-spectral fit needs positive target values")
    good = stderr > 0
    weights = np.zeros_like(target)
    weights[good] = (target[good] / stderr[good]) ** 2
    if not good.any():
        raise DegenerateTarget("no usable stderr in the fit band")
    weights /= weights.sum()
    log_target = np.log(target)
    omega = 2.0 * np.pi * f
    names = sorted(problem.free_params)
    lo = np.array([problem.free_params[n][0] for n in names])
    hi = np.array([problem.free_params[n][1] for n in names])
    evals = {"n": 0}

    def loss(theta):
        evals["n"] += 1
        if np.any(theta < lo) or np.any(theta > hi):
            return 1e12 + float(np.sum((np.clip(theta, lo, hi) - theta) ** 2))
        sys_t = _apply_theta(problem.system, names, theta)
        model = SpectrumModel(sys_t, omega)
        s = model.quadrature_spectrum("signal", model.phi_s)
        return float(np.sum(weights * (np.log(s) - log_target) ** 2))

    rng = np.random.default_rng(problem.seed)
    starts = [0.5 * (lo + hi)]
    starts += [rng.uniform(lo, hi) for _ in range(problem.n_multistarts - 1)]
    results = []
    start_losses = []
    for x0 in starts:
        start_losses.append(loss(x0))
        res = optimize.minimize(
            loss,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": problem.max_evals,
                "xatol": 1e-10 * np.max(hi - lo),
                "fatol": 1e-12,
            },
        )
        results.append(res)
    converged = [r for r in results if r.success]
    if not converged:
        raise NonConvergence(
            f"no multistart converged within {problem.max_evals} evaluations"
        )
    order = sorted(range(len(results)), key=lambda i: (results[i].fun, i))
    best = results[order[0]]
    if best.fun > min(start_losses):
        # simplex should never end above its own start
        raise NonConvergence("optimizer regressed past its initial point")
    theta = np.clip(best.x, lo, hi)
    sigma = _curvature_sigma(loss, theta, lo, hi, best.fun)
    degenerate = False
    for i in order[1:]:
        r = results[i]
        if best.fun <= 0:
            close = r.fun < 1e-12
        else:
            close = (r.fun - best.fun) < 0.01 * abs(best.fun)
        if close and np.any(np.abs(r.x - theta) > np.maximum(sigma, 1e-300)):
            degenerate = True
            break
    return FitResult(
        params=dict(zip(names, theta)),
        uncertainty=dict(zip(names, sigma)),
        loss=float(best.fun),
        n_evals=evals["n"],
        degenerate=degenerate,
        start_losses=start_losses,
        message=best.message,
    )


def _curvature_sigma(loss, theta, lo, hi, f0):
    """Uncertainty proxy from the diagonal numerical curvature."""
    sigma = np.empty(len(theta))
    for i in range(len(theta)):
        h = 1e-4 * (hi[i] - lo[i])
        e = np.zeros_like(theta)
        e[i] = h
        fp = loss(np.clip(theta + e, lo, hi))
        fm = loss(np.clip(theta - e, lo, hi))
        curv = (fp + fm - 2.0 * f0) / h**2
        sigma[i] = np.sqrt(2.0 / curv) if curv > 0 else np.inf
    return sigma


def fit_report_text(result: FitResult) -> str:
    lines = ["fit result", "----------"]
    for name in sorted(result.params):
        lines.append(
            f"{name} = {result.params[name]:.9g} +- {result.uncertainty[name]:.3g}"
        )
    lines.append(f"loss = {result.loss:.6g}")
    lines.append(f"evaluations = {result.n_evals}")
    lines.append(f"degenerate = {result.degenerate}")
    return "\n".join(lines) + "\n"
