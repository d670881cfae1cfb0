"""Least-squares recovery of the free model parameters.

Everything in the cavity model is independently measured except the
detuning, the signal phase, and the background amplitude of the cavity
phase noise; those three can be fitted to an estimated signal spectrum.

At a fixed detuning the signal spectrum is exactly

    S(omega; phi_s, b) = A0 + Re(A2 exp(-2i phi_s))
                         + b * (B0 + Re(B2 exp(-2i phi_s)))

(``SpectrumModel.phase_harmonics``), so only a change of detuning needs a
new model.  The fit is therefore a variable projection (Golub & Pereyra,
SIAM J. Numer. Anal. 10, 413 (1973)): a bounded Brent search over the
detuning whose objective is the loss already minimized over (phi_s, b)
by a projected Levenberg-Marquardt solve on that one model.  That solve
always has both unknowns: a parameter that is not free is held by equal
lower and upper bounds at its fixed value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ModelError, StatisticsError
from .params import SystemParams
from .theory import SpectrumModel

# each free parameter's [fit] config keys of its (lo, hi) bounds; detuning's
# are in units of kappa
FIT_BOUND_KEYS = {
    "detuning": ("detuning_lo_kappa", "detuning_hi_kappa"),
    "phi_s": ("phi_s_lo_rad", "phi_s_hi_rad"),
    "zeta_background": ("zeta_background_lo", "zeta_background_hi"),
}
FREE_PARAMS = tuple(FIT_BOUND_KEYS)
DEFAULT_BAND = (145e3, 195e3)

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))
_CGOLD = 0.3819660112501051  # (3 - sqrt 5) / 2
_GOLD = 1.618033988749895  # (1 + sqrt 5) / 2
# first bracketing step of the detuning search, in units of its bound width
_BRACKET_STEP = 0.05
# the inner solve stops once a step moves no unknown by more than
# _INNER_XTOL of its bound width or lowers the loss by less than
# _INNER_FTOL of it; a relative loss error of 1e-13 shifts the detuning the
# outer search finds by about sqrt(1e-13 * bins) Fisher sigma, under 1e-5
# for a few hundred bins
_INNER_XTOL = 1e-10
_INNER_FTOL = 1e-13
_INNER_MAX_ITER = 100
# a loss below this is an exact fit: the model's harmonic form reproduces
# quadrature_spectrum to ~1e-11 relative, so an exact fit ends near 1e-24,
# not at 0
_EXACT_LOSS = 1e-12
# eigenvalues of the unit-diagonal Fisher matrix at or below this are
# directions the data do not resolve
_FISHER_RCOND = 1e-12
# the most model builds one multistart may spend
_MAX_EVALS = 4000
# the most multistarts a fit may run: each costs up to _MAX_EVALS model builds
_MAX_MULTISTARTS = 1000


@dataclass(frozen=True)
class FitProblem:
    """Weighted log-spectral fit of the signal quadrature spectrum.

    ``free_params`` maps a name of ``FREE_PARAMS`` to finite (lo, hi)
    bounds: "detuning" in rad/s, "phi_s" in rad, "zeta_background"
    (non-negative) in the noise model's background units.  The target
    should be normalized to SQL with electronic noise removed.  Weights
    follow from the relative errors: w = (value/stderr)^2, the inverse
    variance of log S; the fit ``band`` must hold at least one target point.
    ``n_multistarts`` lies in [1, ``_MAX_MULTISTARTS``]; each start
    builds at most ``_MAX_EVALS`` models.
    """

    system: SystemParams
    frequencies: np.ndarray
    target: np.ndarray
    stderr: np.ndarray
    free_params: dict
    band: tuple = DEFAULT_BAND
    n_multistarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if not self.free_params:
            raise ConfigError("at least one free parameter is required")
        for name, bounds in self.free_params.items():
            if name not in FREE_PARAMS:
                raise ConfigError(
                    f"free_params: unknown parameter {name!r}, "
                    f"expected one of {', '.join(FREE_PARAMS)}"
                )
            try:
                lo, hi = (float(v) for v in bounds)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"bounds for {name!r} must be a (lo, hi) pair, got {bounds!r}"
                ) from None
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ConfigError(f"bounds for {name!r} must be finite and ordered")
        if self.free_params.get("zeta_background", (0.0, 0.0))[0] < 0:
            raise ConfigError("bounds for 'zeta_background' must be non-negative")
        if not 1 <= self.n_multistarts <= _MAX_MULTISTARTS:
            raise ConfigError(
                f"n_multistarts must lie in [1, {_MAX_MULTISTARTS}], "
                f"got {self.n_multistarts}"
            )
        if len(self.frequencies) != len(self.target) or len(self.target) != len(
            self.stderr
        ):
            raise ConfigError("target arrays must share one grid")
        if not self.in_band.any():
            raise ConfigError(f"fit band {self.band} excludes every target point")
        if np.all(np.asarray(self.stderr) == 0):
            raise StatisticsError("all stderr are zero; cannot weight the fit")

    @property
    def in_band(self) -> np.ndarray:
        """Which target points lie inside the fit ``band``, edges included."""
        f = np.asarray(self.frequencies, dtype=float)
        return (f >= self.band[0]) & (f <= self.band[1])


@dataclass
class FitResult:
    """Best fit over the multistarts.

    ``uncertainty`` is the Fisher sigma of each parameter and
    ``correlation`` maps each pair (a, b), a < b, of free parameters to
    their correlation; both are ``inf``/``nan`` along a direction the data
    do not resolve.  ``n_evals`` counts model builds.
    """

    params: dict
    uncertainty: dict
    loss: float
    n_evals: int
    degenerate: bool
    start_losses: list
    message: str = ""
    correlation: dict = field(default_factory=dict)


def with_params(system: SystemParams, params: dict) -> SystemParams:
    """``system`` with the named free parameters set to the given values."""
    out = system
    for name, value in params.items():
        if name == "detuning":
            out = replace(out, cavity=replace(out.cavity, detuning=float(value)))
        elif name == "phi_s":
            out = replace(out, signal_phase=float(value))
        elif name == "zeta_background":
            out = replace(out, zeta=replace(out.zeta, background=float(value)))
        else:
            raise ConfigError(f"unknown free parameter {name!r}")
    return out


class _Spectrum:
    """The signal spectrum at one detuning as a function of (phi_s, b)."""

    def __init__(self, model: SpectrumModel):
        a0, a2, b0, b2 = model.phase_harmonics("signal")
        self.phi_s = model.phi_s
        self.a = (a0, a2.real, a2.imag)
        self.b = (b0, b2.real, b2.imag)

    def value_and_slopes(self, phi, b):
        """S and its derivatives dS/dphi_s and dS/db."""
        c, s = np.cos(2.0 * phi), np.sin(2.0 * phi)
        a0, a_re, a_im = self.a
        b0, b_re, b_im = self.b
        per_b = b0 + c * b_re + s * b_im
        value = a0 + c * a_re + s * a_im + b * per_b
        slope = 2.0 * (c * (a_im + b * b_im) - s * (a_re + b * b_re))
        return value, slope, per_b


@dataclass
class _Point:
    detuning: float
    phi_s: float
    background: float
    loss: float
    spectrum: _Spectrum


class _Profile:
    """The loss, its minimum over (phi_s, b) at one detuning, and the builds.

    The inner unknowns are always x = (phi_s, b / width_b), width_b the
    background's bound width.  A parameter missing from ``free_params`` is
    held by equal lower and upper bounds at its fixed value: phi_s at the
    ``phi_s`` of the spectrum being solved, which follows the lock phase
    when ``signal_phase`` is None, and b at ``system.zeta.background``, with
    unit scale.
    """

    def __init__(self, problem: FitProblem, omega, weights, log_target):
        self.system = problem.system
        self.omega = omega
        self.root_w = np.sqrt(weights)
        self.log_target = log_target
        self.builds = 0
        bounds = problem.free_params
        self.phi_bounds = bounds.get("phi_s")
        background = self.system.zeta.background
        self.b_bounds = bounds.get("zeta_background", (background, background))
        self.scale = np.array([1.0, (self.b_bounds[1] - self.b_bounds[0]) or 1.0])

    def spectrum(self, detuning=None) -> _Spectrum:
        system = self.system
        if detuning is not None:
            system = with_params(system, {"detuning": detuning})
        self.builds += 1
        return _Spectrum(SpectrumModel(system, self.omega))

    def _bounds(self, spec):
        """Rows lo and hi of (phi_s, b) at ``spec``; a held parameter has lo == hi."""
        return np.array([self.phi_bounds or (spec.phi_s, spec.phi_s), self.b_bounds]).T

    def _residual(self, value):
        if np.any(value <= 0):
            return None
        return self.root_w * (np.log(value) - self.log_target)

    def solve(self, spec, phi, b):
        """Projected Levenberg-Marquardt minimization over the inner unknowns.

        Starts from (phi, b) clipped to the bounds, so a held parameter takes
        its held value, and returns (phi, b, loss, converged, start loss);
        the loss never exceeds the start loss.  Bounds are handled by
        clipping the step and by freezing each unknown that sits on a bound
        while the gradient pushes it outward, which holds a parameter that is
        not free at its value.  It stops once a step moves no unknown by more
        than ``_INNER_XTOL`` of its bound width or lowers the loss by less
        than ``_INNER_FTOL`` of it.
        """
        lo, hi = self._bounds(spec) / self.scale
        width = hi - lo
        x = np.clip(np.array([phi, b]) / self.scale, lo, hi)

        def evaluate(x):
            phi_x, b_x = x * self.scale
            value, d_phi, d_b = spec.value_and_slopes(phi_x, b_x)
            r = self._residual(value)
            f = np.inf if r is None else float(r @ r)
            return phi_x, b_x, value, (d_phi, d_b), r, f

        phi, b, value, slopes, r, f = evaluate(x)
        start = f
        if r is None:
            return phi, b, f, False, start
        lam = 1e-3
        for _ in range(_INNER_MAX_ITER):
            jac = np.array(slopes) * self.scale[:, None] * (self.root_w / value)
            grad = jac @ r
            jtj = jac @ jac.T
            fixed = ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))
            if fixed.all():
                return phi, b, f, True, start
            grad[fixed] = 0.0
            jtj[fixed, :] = 0.0
            jtj[:, fixed] = 0.0
            damp = np.diag(jtj).copy()
            damp[damp <= 0] = 1.0
            while True:
                step = np.linalg.solve(jtj + lam * np.diag(damp), -grad)
                x_new = np.clip(x + step, lo, hi)
                small = np.all(np.abs(x_new - x) <= _INNER_XTOL * width)
                trial = evaluate(x_new)
                if trial[-1] <= f:
                    break
                if small:
                    return phi, b, f, True, start
                lam *= 10.0
            f_old = f
            x = x_new
            phi, b, value, slopes, r, f = trial
            if small or f_old - f <= _INNER_FTOL * f:
                return phi, b, f, True, start
            lam = max(lam / 10.0, 1e-12)
        return phi, b, f, False, start

    def search(self, start: dict, det_bounds, shared):
        """One start: (best point, loss at the start, converged).

        The start builds at most ``_MAX_EVALS`` models.
        """
        phi0, b0 = start.get("phi_s", 0.0), start.get("zeta_background", 0.0)
        if det_bounds is None:
            phi, b, f, ok, start_loss = self.solve(shared, phi0, b0)
            return _Point(None, phi, b, f, shared), start_loss, ok
        builds0 = self.builds
        det0 = start["detuning"]
        spec0 = self.spectrum(det0)
        phi, b, f, _, start_loss = self.solve(spec0, phi0, b0)
        best = _Point(det0, phi, b, f, spec0)
        last = [phi, b]

        def profile_loss(detuning):
            nonlocal best
            spec = self.spectrum(detuning)
            phi, b, f = self.solve(spec, *last)[:3]
            last[:] = [phi, b]
            if f < best.loss:
                best = _Point(detuning, phi, b, f, spec)
            return f

        lo, hi = det_bounds
        ok = _minimize_from(
            profile_loss, det0, f, lo, hi, _BRACKET_STEP * (hi - lo),
            _MAX_EVALS - (self.builds - builds0),
        )
        return best, start_loss, ok

    def fisher(self, point: _Point, names, det_step, weights_raw):
        """Fisher matrix J^T W J of log S at ``point`` over ``names``."""
        value, d_phi, d_b = point.spectrum.value_and_slopes(
            point.phi_s, point.background
        )
        cols = []
        for name in names:
            if name == "phi_s":
                cols.append(d_phi / value)
            elif name == "zeta_background":
                cols.append(d_b / value)
            else:
                logs = []
                for det in (point.detuning + det_step, point.detuning - det_step):
                    side = self.spectrum(det)
                    side_phi = np.clip(point.phi_s, *self._bounds(side)[:, 0])
                    logs.append(
                        np.log(side.value_and_slopes(side_phi, point.background)[0])
                    )
                cols.append((logs[0] - logs[1]) / (2.0 * det_step))
        jac = np.stack(cols, axis=1)
        return jac.T @ (weights_raw[:, None] * jac)


def _minimize_from(fun, x0, f0, lo, hi, step, max_evals):
    """Minimize a scalar function on [lo, hi] from x0; True if converged.

    Marches downhill from x0 in golden-ratio steps until the function
    rises or a bound is reached, then runs Brent's method on that bracket.
    The profile loss depends a little on the path (each inner solve starts
    from the previous one), so a bracket edge can read high from a worse
    inner minimum; a search that ends on an edge other than a bound
    brackets again from where it ended.  At most ``max_evals`` calls of
    ``fun``, which tracks the best point itself.
    """
    n = 0
    while True:
        bracket = _bracket(fun, x0, f0, lo, hi, step, max_evals - n)
        if bracket is None:
            return False
        left, x, fx, right, used = bracket
        n += used
        x, fx, used, ok = _brent(fun, left, right, x, fx, hi - lo, max_evals - n)
        n += used
        if not ok:
            return False
        tol = 2.0 * _brent_tol(x, hi - lo)
        on_edge = [edge for edge in (left, right) if abs(x - edge) <= tol]
        if all(edge in (lo, hi) for edge in on_edge):
            return True
        x0, f0 = x, fx


def _bracket(fun, x0, f0, lo, hi, step, max_evals):
    """(left, x, f(x), right, calls) with x the lowest point seen, or None.

    ``x`` lies in [left, right] and f rises at both ends, unless x sits on
    a bound the function still falls towards.
    """
    if max_evals <= 0:
        return None
    clip = lambda v: min(max(v, lo), hi)  # noqa: E731
    if x0 + step > hi:
        step = -step
    a = x0
    x = clip(x0 + step)
    fx = fun(x)
    n = 1
    if fx > f0:
        a, x, fx = x, x0, f0
    while True:
        c = clip(x + _GOLD * (x - a))
        if c == x:  # still falling at the bound
            break
        if n >= max_evals:
            return None
        fc = fun(c)
        n += 1
        if fc >= fx:
            break
        a, x, fx = x, c, fc
    return min(a, c), x, fx, max(a, c), n


def _brent_tol(x, width):
    return _SQRT_EPS * abs(x) + 1e-10 * width / 3.0


def _brent(fun, left, right, x, fx, width, max_evals):
    """Brent's minimization on [left, right] from x: (x, f(x), calls, converged).

    Golden section with parabolic steps (Brent, Algorithms for
    Minimization without Derivatives (1973), ch. 5).
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    n = 0
    while True:
        mid = 0.5 * (left + right)
        tol1 = _brent_tol(x, width)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (right - left):
            return x, fx, n, True
        if n >= max_evals:
            return x, fx, n, False
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (left - x) < p < q * (right - x):
                e, d = d, p / q
                golden = False
                if (x + d) - left < tol2 or right - (x + d) < tol2:
                    d = tol1 if mid >= x else -tol1
        if golden:
            e = (left - x) if x >= mid else (right - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0 else -tol1))
        fu = fun(u)
        n += 1
        if fu <= fx:
            if u >= x:
                left = x
            else:
                right = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                left = u
            else:
                right = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _sigma_and_correlation(fisher):
    """Fisher sigma and correlation matrix, computed on the unit diagonal.

    The raw matrix mixes rad/s, rad and background units (condition number
    up to ~1e30), so it is scaled to a unit diagonal before inversion.  A
    parameter that takes part in a direction the data do not resolve gets
    sigma = inf and correlations nan.
    """
    d = np.sqrt(np.diag(fisher))
    d[d == 0] = 1.0  # an all-zero row is itself an unresolved direction
    lam, vec = np.linalg.eigh(fisher / np.outer(d, d))
    keep = lam > _FISHER_RCOND * lam.max()
    cov = (vec[:, keep] / lam[keep]) @ vec[:, keep].T / np.outer(d, d)
    unresolved = np.any(np.abs(vec[:, ~keep]) > _SQRT_EPS, axis=1)
    sigma = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = cov / np.outer(sigma, sigma)
    sigma[unresolved] = np.inf
    corr[unresolved, :] = np.nan
    corr[:, unresolved] = np.nan
    return sigma, corr


def fit(problem: FitProblem) -> FitResult:
    """Multistart profile minimization of the weighted log-spectral loss.

    Each of ``n_multistarts`` seeded starts inside the bounds runs its own
    bracketed Brent search over detuning from its own detuning, solving
    for (phi_s, b) at each visited detuning from the previous solution;
    the best result is kept (ties broken by start index).  With the
    detuning fixed, one model serves every start.  Uncertainties come from
    the Fisher matrix of log S with weights (target/stderr)^2; another
    optimum within chi^2 + 1 of the best (chi^2 the loss times the sum of
    those weights) but more than one sigma from it raises the degeneracy
    flag.
    """
    sel = problem.in_band
    f = np.asarray(problem.frequencies, dtype=float)[sel]
    target = np.asarray(problem.target, dtype=float)[sel]
    stderr = np.asarray(problem.stderr, dtype=float)[sel]
    if np.any(target <= 0):
        raise StatisticsError(
            f"log-spectral fit needs positive target values, but "
            f"{np.count_nonzero(target <= 0)} of {target.size} in the band are not"
        )
    good = stderr > 0
    weights_raw = np.zeros_like(target)
    weights_raw[good] = (target[good] / stderr[good]) ** 2
    if not good.any():
        raise StatisticsError("no usable stderr in the fit band")
    weights = weights_raw / weights_raw.sum()
    profile = _Profile(problem, 2.0 * np.pi * f, weights, np.log(target))
    names = sorted(problem.free_params)
    lo = np.array([problem.free_params[n][0] for n in names])
    hi = np.array([problem.free_params[n][1] for n in names])
    det_bounds = problem.free_params.get("detuning")
    shared = profile.spectrum() if det_bounds is None else None

    rng = np.random.default_rng(problem.seed)
    starts = [0.5 * (lo + hi)]
    starts += [rng.uniform(lo, hi) for _ in range(problem.n_multistarts - 1)]
    points, start_losses, converged = [], [], []
    for x0 in starts:
        point, start_loss, ok = profile.search(dict(zip(names, x0)), det_bounds, shared)
        points.append(point)
        start_losses.append(start_loss)
        converged.append(ok)
    if not any(converged):
        raise ModelError(
            f"no multistart converged within {_MAX_EVALS} model builds"
        )

    def theta_of(point):
        values = {
            "detuning": point.detuning,
            "phi_s": point.phi_s,
            "zeta_background": point.background,
        }
        return np.array([values[n] for n in names])

    order = sorted(range(len(points)), key=lambda i: (points[i].loss, i))
    # each search keeps its start's loss as a ceiling: best <= min(start_losses)
    best = points[order[0]]
    theta = theta_of(best)
    det_step = None if det_bounds is None else 1e-4 * (det_bounds[1] - det_bounds[0])
    sigma, corr = _sigma_and_correlation(
        profile.fisher(best, names, det_step, weights_raw)
    )
    degenerate = False
    for i in order[1:]:
        p = points[i]
        if best.loss < _EXACT_LOSS:
            close = p.loss < _EXACT_LOSS
        else:
            # chi^2 = loss * sum of raw weights: within 1 of the best
            close = (p.loss - best.loss) * weights_raw.sum() < 1.0
        if close and np.any(np.abs(theta_of(p) - theta) > np.maximum(sigma, 1e-300)):
            degenerate = True
            break
    return FitResult(
        params=dict(zip(names, theta)),
        uncertainty=dict(zip(names, sigma)),
        loss=float(best.loss),
        n_evals=profile.builds,
        degenerate=degenerate,
        start_losses=start_losses,
        message=(
            "profile search converged"
            if converged[order[0]]
            else f"best start stopped at {_MAX_EVALS} model builds"
        ),
        correlation={
            (names[i], names[j]): float(corr[i, j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        },
    )


def fit_report_text(result: FitResult) -> str:
    lines = ["fit result", "----------"]
    for name in sorted(result.params):
        lines.append(
            f"{name} = {result.params[name]:.9g} +- {result.uncertainty[name]:.3g}"
        )
    for (a, b), r in sorted(result.correlation.items()):
        lines.append(f"correlation {a}/{b} = {r:+.3f}")
    lines.append(f"loss = {result.loss:.6g}")
    lines.append(f"evaluations = {result.n_evals}")
    lines.append(f"degenerate = {result.degenerate}")
    return "\n".join(lines) + "\n"
