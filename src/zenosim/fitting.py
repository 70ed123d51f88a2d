"""Weighted nonlinear least-squares fits for decay curves and scaling laws.

The minimizer is a damped Gauss-Newton iteration with a multiplicative
damping schedule (x10 on a rejected step, /10 on an accepted one).
Parameter standard errors come from the Jacobian at the optimum, scaled
by the reduced chi-square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .ensemble import DecayCurve
from .model import decay_curve, sqrt_e_time

MAX_ITER = 200
REL_TOL = 1e-9
DAMPING_INIT = 1e-3


class FitError(RuntimeError):
    """Raised when a fit cannot be performed or does not converge."""


@dataclass(frozen=True)
class FitResult:
    """Converged parameters of a decay-model fit with standard errors."""

    amplitude: float
    t2eff: float
    offset: float
    std_errors: Dict[str, float]
    rss: float
    converged: bool
    iterations: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "A": self.amplitude,
            "T2eff_ms": self.t2eff,
            "offset": self.offset,
            "std_errors": dict(self.std_errors),
            "rss": self.rss,
            "converged": self.converged,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class ScalingFit:
    """Power-law parameters of the normalized decay-time enhancement."""

    mu: float
    nu: float
    mu_err: float
    nu_err: float
    normalized_times: Dict[int, float]


class CorrectedValue(NamedTuple):
    """Read-out-corrected expectation with a physical-range flag."""

    value: float
    in_range: bool


def _numeric_jacobian(residual: Callable[[np.ndarray], np.ndarray],
                      p: np.ndarray, size: int) -> np.ndarray:
    """Central-difference Jacobian of the residual vector of length `size`."""
    jac = np.empty((size, p.size))
    for j in range(p.size):
        h = 1e-7 * max(abs(p[j]), 1e-3)
        pp, pm = p.copy(), p.copy()
        pp[j] += h
        pm[j] -= h
        jac[:, j] = (residual(pp) - residual(pm)) / (2 * h)
    return jac


def least_squares(residual: Callable[[np.ndarray], np.ndarray],
                  p0: Sequence[float],
                  max_iter: int = MAX_ITER) -> tuple:
    """Damped Gauss-Newton minimization of ||residual(p)||^2.

    Returns (p, std_errors, rss, converged, iterations).
    """
    p = np.asarray(p0, dtype=float)
    r = residual(p)
    cost = float(r @ r)
    lam = DAMPING_INIT
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jac = _numeric_jacobian(residual, p, r.size)
        jtj = jac.T @ jac
        g = jac.T @ r
        step_ok = False
        for _ in range(50):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj))
                                        + 1e-300 * np.eye(p.size), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            p_new = p + delta
            r_new = residual(p_new)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                step_ok = True
                break
            lam *= 10
        if not step_ok:
            break
        rel = np.linalg.norm(delta) / (np.linalg.norm(p_new) + 1e-12)
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 10, 1e-15)
        if rel < REL_TOL:
            converged = True
            break

    jac = _numeric_jacobian(residual, p, r.size)
    dof = max(r.size - p.size, 1)
    try:
        cov = np.linalg.inv(jac.T @ jac) * (cost / dof)
        errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        errs = np.full(p.size, np.nan)
    return p, errs, cost, converged, it


def _weights(curve: DecayCurve) -> np.ndarray:
    """1/stderr weights when available, unweighted fallback otherwise.

    Errors are floored at 1e-3 of the largest one so that exact points
    (e.g. tau=0, where every shot returns the same value) cannot swamp
    the fit with near-infinite weight.
    """
    se = np.asarray(curve.stderr, dtype=float)
    top = np.max(se)
    if top <= 0:
        return np.ones_like(se)
    return 1.0 / np.clip(se, 1e-3 * top, None)


def fit_decay(curve: DecayCurve, n_projections: int,
              reference: Optional[FitResult] = None,
              t2_guess: Optional[float] = None) -> FitResult:
    """Fit the N-projection binomial-sum decay with free (A, T2eff, offset).

    Serves every N >= 0; at N = 0 the model is offset + A*exp(-(tau/T)^2).
    Initial amplitude and offset come from a projection-free reference fit
    of the same dataset family when given, else A=1, offset=0. The T2eff
    guess should be the quadrature combination of nominal per-spin values;
    without one a crossing-time heuristic on the data is used.
    """
    if n_projections < 0:
        raise FitError(f"projection count must be >= 0, got {n_projections}")
    tau = np.asarray(curve.tau, dtype=float)
    y = np.asarray(curve.mean, dtype=float)
    if tau.size < 4:
        raise FitError("need at least 4 points for a decay fit")
    if np.ptp(y) < 1e-12:
        raise FitError("degenerate data: curve is constant")
    w = _weights(curve)

    if reference is not None:
        a0, off0 = reference.amplitude, reference.offset
    else:
        a0, off0 = 1.0, 0.0
    if t2_guess is None:
        # Heuristic: locate the 1/sqrt(e) crossing of the normalized data
        # and divide out the N-dependent stretch factor.
        ynorm = (y - y[-1]) / max(y[0] - y[-1], 1e-9)
        below = np.nonzero(ynorm < math.exp(-0.5))[0]
        tau_e = tau[below[0]] if below.size else tau[-1] / 2
        if n_projections % 2 == 0:
            t2_guess = tau_e / sqrt_e_time(n_projections, 1.0)
        else:
            t2_guess = tau_e / sqrt_e_time(n_projections + 1, 1.0)
    t2_guess = max(float(t2_guess), 1e-6)

    def residual(p):
        a, t, off = p
        if math.isnan(t):  # NaN cost: least_squares rejects the step
            return np.full(tau.size, math.nan)
        model = decay_curve(n_projections, tau, max(abs(t), 1e-9))
        return w * (off + a * model - y)

    p, errs, rss, converged, it = least_squares(residual, [a0, t2_guess, off0])
    if not converged:
        raise FitError(f"decay fit (N={n_projections}) did not converge")
    a, t, off = p
    return FitResult(a, abs(t), off,
                     {"A": errs[0], "T2eff_ms": errs[1], "offset": errs[2]},
                     rss, converged, it)


def fit_scaling(times: Mapping[int, float]) -> ScalingFit:
    """Fit 1 + mu*N^nu to decay times normalized by the N=0 value."""
    if 0 not in times:
        raise FitError("scaling fit requires the N=0 decay time")
    if len(times) < 3:
        raise FitError("need at least 3 distinct N values")
    base = times[0]
    norm = {int(n): t / base for n, t in sorted(times.items())}
    ns = np.array([n for n in norm if n > 0], dtype=float)
    ys = np.array([norm[int(n)] for n in ns])

    def residual(p):
        mu, nu = p
        return 1.0 + mu * ns**nu - ys

    p, errs, _, converged, _ = least_squares(residual, [0.8, 0.6])
    if not converged:
        raise FitError("scaling fit did not converge")
    return ScalingFit(p[0], p[1], errs[0], errs[1], norm)


def apply_readout_correction(value: float, factor: float) -> CorrectedValue:
    """Divide out a scalar read-out correction factor.

    Results outside [-1, 1] are flagged (in_range=False) but not clipped.
    """
    if not 0 < factor <= 1:
        raise ValueError(f"correction factor {factor} outside (0, 1]")
    corrected = value / factor
    return CorrectedValue(corrected, abs(corrected) <= 1.0)
