"""Weighted least-squares fits for decay curves and scaling laws.

Both models are separable: linear in all parameters but one. The decay
offset + A*m(tau; T2eff) is linear in A and offset, and the scaling law
1 + mu*N^nu is linear in mu. The minimizer is variable projection: for
each trial value of the one nonlinear parameter the linear ones are
solved exactly, and the nonlinear one takes Gauss-Newton steps on the
exact derivatives of the model. Parameter standard errors come from the
same solve as the last step, by the block inverse of the analytic J^T J,
scaled by the reduced chi-square.

least_squares reads a model through one callback per trial, which returns
the model and its derivative in the nonlinear parameter as 1-D arrays. A
trial is a tuple of values that shares no array with any other trial. A
fit holds no column buffer and makes no LAPACK call: its 1x1 and 2x2
normal equations, steps and errors are all solved by _gram_solve in Python
floats. A decay fit builds the tau part of its model table once
(model._decay_table) for all its trial T2eff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from .ensemble import DecayCurve
from .model import (SQRT_E_LEVEL, _decay_and_slope, _decay_table, _t2eff, checked,
                    projection_count, sqrt_e_time)

MAX_ITER = 200
REL_TOL = 1e-9
MAX_HALVINGS = 50
# Bound on the N, the normalized decay times and N**|nu| of a scaling fit:
# their products and squares in the normal equations stay far below the
# float range.
MAX_SCALE = 1e100
# least_squares accepts a cost rise up to _SLACK_EPS * sum |r| (|w y| + |r|),
# the cost's rounding error with a margin
_SLACK_EPS = 8 * float(np.finfo(float).eps)


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
    chi2_dof: float
    converged: bool
    iterations: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "A": self.amplitude,
            "T2eff_ms": self.t2eff,
            "offset": self.offset,
            "std_errors": dict(self.std_errors),
            "rss": self.rss,
            "chi2_dof": self.chi2_dof,
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

    def as_dict(self) -> Dict[str, object]:
        return {"mu": self.mu, "nu": self.nu, "mu_err": self.mu_err, "nu_err": self.nu_err,
                "normalized_times": {str(n): t for n, t in self.normalized_times.items()}}


def _gram_solve(g, rhs):
    """x with g @ x = rhs for a 1x1 or 2x2 Gram matrix g, worked in Python floats.

    The 2x2 system is solved by elimination with partial pivoting: the rows
    are swapped when |g10| > |g00|. Raises np.linalg.LinAlgError when a pivot
    is 0 or not finite, or when x is not finite.
    """
    g, rhs = g.tolist(), rhs.tolist()
    if len(rhs) == 1:
        x = [rhs[0] / _pivot(g[0][0])]
    else:
        (g00, g01), (g10, g11) = g
        r0, r1 = rhs
        if abs(g10) > abs(g00):
            g00, g01, r0, g10, g11, r1 = g10, g11, r1, g00, g01, r0
        factor = g10 / _pivot(g00)
        x1 = (r1 - factor * r0) / _pivot(g11 - factor * g01)
        x = [(r0 - g01 * x1) / g00, x1]
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise np.linalg.LinAlgError("normal equations have no finite solution")
    return np.array(x)


def _pivot(p):
    """p, unless it is 0 or not finite (np.linalg.LinAlgError)."""
    if p == 0 or not math.isfinite(p):
        raise np.linalg.LinAlgError(f"normal equations have pivot {p!r}")
    return p


def _solve_linear(model, w, wy, theta, template):
    """The values of the trial theta, (c, r, cost, b, x, s, g), or None where it is rejected.

    model(theta) returns m and dm/dtheta. The weighted columns A are a fresh
    copy of template, whose column 0 is set to w*m (its other column, if
    any, holds w). c solves the normal equations g c = A^T (w y) with
    g = A^T A, and r = A c - w y. b = w dm c0 is d(A c)/d(theta); x solves
    g x = A^T b, and s = |b - A x|^2 is the part of |b|^2 outside the span
    of A. Both solves are _gram_solve's. theta is rejected when model
    raises ValueError or a float error, when either solve is singular, when
    forming A, g or b raises a float error (under np.errstate) or when the
    cost is not finite.
    """
    try:
        m, dm = model(theta)
    except (ValueError, FloatingPointError):
        return None
    a = template.copy()
    try:
        np.multiply(w, m, out=a[:, 0])
        g = a.T @ a
        c = _gram_solve(g, a.T @ wy)
        b = w * (dm * c[0])
        x = _gram_solve(g, a.T @ b)
    except (np.linalg.LinAlgError, FloatingPointError):
        return None
    r = a @ c - wy
    cost = float(r @ r)
    # Only the part of d(A c)/d(theta) outside the span of A moves the cost.
    jk = b - a @ x
    return (c, r, cost, b, x, float(jk @ jk), g) if math.isfinite(cost) else None


def _std_errors(c, r, cost, _, x, s, g):
    """Standard errors of (*c, theta) from the values of the last accepted trial.

    With J = [A, b], the block inverse of J^T J gives var theta = s2/s and
    var c_i = s2 ((g^-1)_ii + x_i^2/s), with s2 = cost/dof and dof the
    points less the parameters, at least 1 in every fit; the diagonal of
    g^-1 is _gram_solve's on the unit vectors. NaN where s <= 0 or g^-1 is
    not finite.
    """
    try:
        g_inv = [_gram_solve(g, e)[i] for i, e in enumerate(np.eye(c.size))]
    except np.linalg.LinAlgError:
        s = math.nan  # an inverse past the float range: no error is defined
    if not s > 0:
        return np.full(c.size + 1, math.nan)
    s2 = cost / (r.size - c.size - 1)
    var = [s2 * (gi + xi * xi / s) for gi, xi in zip(g_inv, x.tolist())] + [s2 / s]
    return np.sqrt(np.maximum(var, 0.0))


def least_squares(model: Callable[[float], tuple], y: Sequence[float],
                  weights: Sequence[float], theta0: float, offset: bool) -> tuple:
    """Variable-projection Gauss-Newton fit of y ~ c0 m(theta) (+ c1 with offset).

    model(theta) returns the model m and its theta-derivative dm as 1-D
    arrays over the points. For each trial theta, _solve_linear solves the
    linear parameters c exactly from the weighted normal equations and the
    reduced (Kaufman) curvature s of the cost in theta, both by _gram_solve.
    theta then takes the Gauss-Newton step -(b.r)/s of the accepted trial,
    halved while the cost rises; a rejected trial counts as a rise. A trial
    is a tuple of fresh values: it shares no array with the accepted one,
    which it replaces only when accepted. Standard errors come from the
    last accepted trial's own values (_std_errors), scaled by cost/dof;
    the points must outnumber the parameters, as in both fits.

    Returns (p, std_errors, rss, converged, iterations) with p = (*c, theta),
    or p = (theta0,) and no finite error when theta0 itself is rejected.
    """
    w = np.asarray(weights, dtype=float)
    wy = w * np.asarray(y, dtype=float)
    abs_wy = np.abs(wy)
    template = np.repeat(w[:, None], 1 + offset, axis=1)
    theta, converged, it = float(theta0), False, 0
    state = _solve_linear(model, w, wy, theta, template)
    if state is None:
        return np.array([theta]), np.array([math.nan]), math.inf, False, 0
    for it in range(1, MAX_ITER + 1):
        _, r, cost, b, _, s, _ = state
        step = -float(b @ r) / s if s > 0 else math.nan
        if not math.isfinite(step):
            break
        # A rise within the rounding error of the cost (about 2 eps sum |r| |w y|,
        # here with a margin) cannot be told from a fall, so it is accepted.
        abs_r = np.abs(r)
        slack = _SLACK_EPS * float(abs_r @ (abs_wy + abs_r))
        for _ in range(MAX_HALVINGS):
            trial = _solve_linear(model, w, wy, theta + step, template)
            if trial is not None and trial[2] <= cost + slack:
                break
            step /= 2
        else:
            break
        theta += step
        state = trial
        if abs(step) <= REL_TOL * abs(theta):
            converged = True
            break
    return np.append(state[0], theta), _std_errors(*state), state[2], converged, it


def _weights(curve: DecayCurve) -> np.ndarray:
    """1/stderr weights when available, unweighted fallback otherwise.

    Errors are floored at 1e-3 of the largest one so that exact points
    (e.g. tau=0, where every shot returns the same value) cannot swamp
    the fit with near-infinite weight.
    """
    se = curve.stderr
    top = np.max(se)
    if top <= 0:
        return np.ones_like(se)
    return 1.0 / np.clip(se, 1e-3 * top, None)


def fit_decay(curve: DecayCurve, n_projections: int,
              t2_guess: Optional[float] = None) -> FitResult:
    """Fit the N-projection binomial-sum decay with free (A, T2eff, offset).

    Serves every N that passes model.projection_count; at N = 0 the model
    is offset + A*exp(-(tau/T)^2). A and offset need no start values: they
    are solved exactly for every trial T2eff. The T2eff guess should be
    the quadrature combination of nominal per-spin values; without one a
    crossing-time heuristic on the data is used. A given guess is read as
    an effective dephasing time (a finite positive float, model._t2eff).
    Raises FitError for any other N or guess, for constant means or a tau
    grid whose points are all equal, and for data whose fit leaves the
    float range (values or error bars near its ends), rather than
    warn: the fit runs with numpy's overflow, division and invalid-value
    errors raised.
    """
    try:
        n_projections = projection_count(n_projections)
        if t2_guess is not None:
            t2_guess = _t2eff(t2_guess)
    except (TypeError, ValueError) as e:
        raise FitError(str(e)) from e
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _fit_decay(curve, n_projections, t2_guess)
    except FloatingPointError as e:
        raise FitError(f"decay fit (N={n_projections}) left the float range: {e}") from e


def _fit_decay(curve: DecayCurve, n_projections: int,
               t2_guess: Optional[float]) -> FitResult:
    """fit_decay's fit of a checked N, run under its np.errstate.

    The model refuses a trial T2eff only when it is not > 0; a trial so
    small that the model overflows is refused by that np.errstate, so no
    fit stops at a bound of its own.
    """
    tau, y = curve.tau, curve.mean
    if tau.size < 4:
        raise FitError("need at least 4 points for a decay fit")
    if np.ptp(y) < 1e-12:
        raise FitError("degenerate data: curve is constant")
    if (tau == tau[0]).all():
        raise FitError("degenerate data: every tau is equal")
    w = _weights(curve)
    if t2_guess is None:
        # Heuristic: locate the 1/sqrt(e) crossing of the normalized data
        # and divide out the stretch factor of N rounded up to even.
        ynorm = (y - y[-1]) / max(y[0] - y[-1], 1e-9)
        below = np.nonzero(ynorm < SQRT_E_LEVEL)[0]
        tau_e = tau[below[0]] if below.size else tau[-1] / 2
        t2_guess = tau_e / sqrt_e_time(n_projections + n_projections % 2, 1.0)
    t2_guess = max(float(t2_guess), 1e-6)
    table = _decay_table(n_projections, tau)

    def decay(t):
        if not t > 0:
            raise ValueError(f"T2eff {t!r} out of range")
        return _decay_and_slope(table, t)

    p, errs, rss, converged, it = least_squares(decay, y, w, t2_guess, offset=True)
    _check(converged, errs, f"decay fit (N={n_projections})")
    a, off, t = p
    return FitResult(a, t, off,
                     {"A": errs[0], "T2eff_ms": errs[2], "offset": errs[1]},
                     rss, rss / (tau.size - 3), converged, it)


def _check(converged: bool, errs: np.ndarray, what: str) -> None:
    """FitError unless the fit converged with finite standard errors."""
    if not converged:
        raise FitError(f"{what} did not converge")
    if not np.isfinite(errs).all():
        raise FitError(f"{what} has undefined standard errors")


def fit_scaling(times: Mapping[int, float]) -> ScalingFit:
    """Fit 1 + mu*N^nu to decay times normalized by the N=0 value.

    Checks its own table and raises FitError unless every N is an int
    (not a bool) in [0, MAX_SCALE], every time a finite positive number,
    N = 0 and at least three other N are present, so that the two
    parameters leave one degree of freedom for their errors, and every
    normalized time lies in [1/MAX_SCALE, MAX_SCALE]. Trial nu are kept to
    N**|nu| <= MAX_SCALE, so the normal equations square nothing past the
    float range.
    """
    try:
        table = {checked(int, n, "projection count"): checked(float, t, "decay time")
                 for n, t in times.items()}
    except (TypeError, ValueError) as e:
        raise FitError(str(e)) from e
    for n, t in table.items():
        if not 0 <= n <= MAX_SCALE:
            raise FitError(f"projection count {n} is not in [0, {MAX_SCALE:g}]")
        if not (math.isfinite(t) and t > 0):
            raise FitError(f"decay time {t!r} for N={n} is not finite and positive")
    if 0 not in table:
        raise FitError("scaling fit requires the N=0 decay time")
    if len(table) < 4:
        raise FitError("scaling fit needs N=0 and at least 3 other N")
    base = table[0]
    # N stays an int key: an N past 2**53 would not survive a float round trip
    norm = {n: t / base for n, t in sorted(table.items())}
    if not all(1 / MAX_SCALE <= t <= MAX_SCALE for t in norm.values()):
        raise FitError(f"a decay time normalized by the N=0 time is not finite "
                       f"or outside [{1 / MAX_SCALE:g}, {MAX_SCALE:g}]")
    ns = np.array([n for n in norm if n > 0], dtype=float)
    ys = np.array([t for n, t in norm.items() if n > 0])
    log_ns = np.log(ns)
    nu_max = math.log(MAX_SCALE) / float(log_ns.max())

    def power_law(nu):
        if not abs(nu) <= nu_max:
            raise ValueError(f"nu {nu!r} out of range")
        power = ns**nu
        return power, power * log_ns

    p, errs, _, converged, _ = least_squares(power_law, ys - 1.0, np.ones(ns.size), 0.6,
                                             offset=False)
    _check(converged, errs, "scaling fit")
    return ScalingFit(p[0], p[1], errs[0], errs[1], norm)
