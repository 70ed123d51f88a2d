"""Weighted least-squares fits for decay curves and scaling laws.

Both models are separable: linear in all parameters but one. The decay
offset + A*m(tau; T2eff) is linear in A and offset, and the scaling law
1 + mu*N^nu is linear in mu. The minimizer is variable projection: for
each trial value of the one nonlinear parameter the linear ones are
solved exactly, and the nonlinear one takes Gauss-Newton steps on the
exact derivatives of the model. Parameter standard errors come from the
same solve as the last step, by the block inverse of the analytic J^T J,
scaled by the reduced chi-square.

least_squares steps a stack of fits in lockstep: one model callback per
round, with one trial value per fit. Every per-fit sum is a segment sum
(np.add.reduceat) over the fit's own points, and the normal equations are
solved elementwise over the stack (_gram_solve), so no sum goes through
BLAS and a fit's numbers do not depend on the other fits of its stack.
fit_decays fits every curve of a call in one stack on one flat model
table (model._decay_table); fit_decay is a stack of one, and fit_scaling
makes one fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
        return {"A": self.amplitude, "T2eff_ms": self.t2eff, "offset": self.offset,
                "std_errors": dict(self.std_errors), "rss": self.rss,
                "chi2_dof": self.chi2_dof, "converged": self.converged,
                "iterations": self.iterations}


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


def _gram_solve(aug) -> np.ndarray:
    """x of shape (q, k, fits) with g x = b per fit, for aug = [g | b] of shape (q, q + k, fits).

    g is 1x1 or 2x2; a 2x2 system is solved by elimination with partial
    pivoting, its rows swapped where |g10| > |g00|. x is not finite where a
    pivot is 0 or not finite.
    """
    if len(aug) == 1:
        return (aug[0, 1:] / np.where(np.isfinite(aug[0, 0]), aug[0, 0], np.nan))[None]
    top, low = np.where(np.abs(aug[1, 0]) > np.abs(aug[0, 0]), aug[::-1], aug)
    # a pivot 0 makes x 0/0 or infinite by itself; one that is not finite is made NaN
    low = low[1:] - low[0] / top[0] * top[1:]
    x1 = low[1:] / np.where(np.isfinite(top[0]) & np.isfinite(low[0]), low[0], np.nan)
    return np.array([(top[2:] - top[1] * x1) / top[0], x1])


def _std_errors(state, q: int, dof) -> np.ndarray:
    """Standard errors of (*c, theta) per fit, from least_squares' rows of its last accepted trial.

    q counts c, and dof = points - parameters >= 1. With J = [A, b], the
    block inverse of J^T J gives var theta = s2/s and var c_i = s2 ((g^-1)_ii
    + x_i^2/s), s2 = cost/dof, with g^-1 from _gram_solve on the unit
    vectors. NaN where s <= 0 or g^-1 is not finite.
    """
    g = state[:q * (q + 2)].reshape(q, q + 2, -1)[:, :q]
    solved, (cost, sb) = state[q * (q + 2):-4].reshape(q, 2, -1), state[-4:-2]
    c0 = solved[0, 0]
    x, s = c0 * solved[:, 1], c0 * c0 * sb
    units = np.eye(q)[:, :, None] * np.ones(s.size)
    g_inv = _gram_solve(np.concatenate([g, units], axis=1))[range(q), range(q)]
    var = np.vstack([cost / dof * (g_inv + x * x / s), cost / dof / s])
    errs = np.sqrt(np.maximum(var, 0.0))
    errs[:, ~((s > 0) & np.isfinite(g_inv).all(axis=0))] = np.nan
    return errs


def least_squares(model: Callable[[np.ndarray], tuple], y: Sequence[float],
                  weights: Sequence[float], sizes: Sequence[int], theta0: Sequence[float],
                  offset: bool) -> tuple:
    """Variable-projection Gauss-Newton fits of y ~ c0 m(theta) (+ c1 with offset), in lockstep.

    y and weights run over the points of every fit, sizes[i] points for fit
    i (more than its parameters), and theta0 holds a start per fit.
    model(theta) takes a trial theta per fit and returns m and dm/dtheta
    over all points. Per trial c solves g c = A^T (w y), A = [w m (, w)] and
    g = A^T A; b = c0 w dm is d(A c)/d(theta), x = c0 xb solves g x = A^T b
    and s = |b - A x|^2 is the reduced (Kaufman) curvature. A fit refuses a
    trial where one of its values but the step (its NaN model rows too) is
    not finite, as a value past the float range is: np.errstate ignores it.
    Each fit takes the step -(b.r)/s, r = A c - w y, of its accepted trial,
    halved while the cost |r|^2 rises past its rounding slack or the trial
    is refused. It stops when the step falls to REL_TOL of theta
    (converged), is not finite, after MAX_HALVINGS refusals in a row or
    after MAX_ITER steps; a mask then keeps its values. Returns per-fit
    arrays (p, std_errors, rss, converged, iterations), p[i] = (*c, theta);
    a fit whose theta0 is refused has NaN c and errors, rss inf, 0 steps.
    """
    sizes = np.asarray(sizes)
    starts, rows = np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.size), sizes)
    q = 1 + offset
    w = np.asarray(weights, dtype=float)
    wy = w * np.asarray(y, dtype=float)
    abs_wy = np.abs(wy)
    # per point the columns of A (w m, and w with an offset), w y and w dm
    z = np.array([w, w, wy, w][1 - offset:])
    # per point r^2, |w dm - A xb|^2, |r| (|w y| + |r|) and w dm r
    terms = np.empty((4, w.size))
    aug_rows = q * (q + 2)

    def trial(theta):
        """Per fit: [g | A^T (w y), A^T (w dm)], (c_i, xb_i), cost, sb, cost bound, step."""
        m, dm = model(theta)
        np.multiply(w, m, out=z[0])
        np.multiply(w, dm, out=z[-1])
        values = np.empty((aug_rows + 2 * q + 4, theta.size))
        aug = np.add.reduceat(z[:q, None] * z, starts, axis=2,
                              out=values[:aug_rows].reshape(q, q + 2, -1))
        values[aug_rows:-4] = solved = _gram_solve(aug).reshape(2 * q, -1)
        # r and A xb - w dm per point: only the part of b outside the span of A moves the cost
        fitted = np.take(solved, rows, axis=1).reshape(q, 2, -1)
        fitted *= z[:q, None]
        diff = (fitted[0] + fitted[1] if offset else fitted[0]) - z[q:]
        np.multiply(diff, diff, out=terms[:2])
        np.abs(diff[0], out=terms[2])
        terms[2] *= abs_wy + terms[2]
        np.multiply(z[-1], diff[0], out=terms[3])
        cost, sb, bound, step = np.add.reduceat(terms, starts, axis=1, out=values[-4:])
        # A rise within the rounding error of the cost (about 2 eps sum |r| |w y|,
        # here with a margin) cannot be told from a fall, so it is accepted.
        bound *= _SLACK_EPS
        bound += cost
        step /= -solved[0] * sb  # -(b.r)/s with s = c0^2 sb
        return values

    with np.errstate(all="ignore"):
        theta = np.array(theta0, dtype=float)
        state = trial(theta)
        started = np.isfinite(state[:-1]).all(axis=0)
        it = started.astype(int)
        step = state[-1]
        active = started & np.isfinite(step)
        halvings, converged = np.zeros(it.size, dtype=int), np.zeros(it.size, dtype=bool)
        while active.any():
            moved = theta + step
            values = trial(moved)
            accept = active & np.isfinite(values[:-1]).all(axis=0) & (values[-4] <= state[-2])
            theta = np.where(accept, moved, theta)
            state = np.where(accept, values, state)
            halvings = np.where(accept, 0, halvings + 1)
            done = accept & (np.abs(step) <= REL_TOL * np.abs(theta))
            converged |= done
            more = accept & ~done & (it < MAX_ITER)
            it += more
            step = np.where(more, state[-1], step / 2)
            active &= np.where(accept, more & np.isfinite(step), halvings < MAX_HALVINGS)
        c = np.where(started, state[aug_rows:-4:2], np.nan)
        errs = np.where(started, _std_errors(state, q, sizes - q - 1), np.nan)
        return (np.vstack([c, theta]).T, errs.T, np.where(started, state[-4], math.inf), converged,
                it)


def _weights(curve: DecayCurve) -> np.ndarray:
    """1/stderr weights when available, unweighted fallback otherwise.

    Errors are floored at 1e-3 of the largest one, so that exact points
    (tau = 0, where every shot agrees) cannot swamp the fit.
    """
    se = curve.stderr
    top = se.max()
    if top <= 0:
        return np.ones_like(se)
    return 1.0 / np.maximum(se, 1e-3 * top)


def fit_decay(curve: DecayCurve, n_projections: int,
              t2_guess: Optional[float] = None) -> FitResult:
    """Fit the N-projection binomial-sum decay with free (A, T2eff, offset): a stack of one.

    Serves every N that passes model.projection_count (N = 0: offset +
    A*exp(-(tau/T)^2)). The guess, an effective dephasing time (_t2eff),
    should combine nominal per-spin values in quadrature; without one a
    crossing-time heuristic on the data is used. Raises FitError for any
    other N or guess, constant means, equal taus, data at the ends of the
    float range, and a fit that does not converge.
    """
    (result,) = fit_decays([(curve, n_projections, t2_guess)])
    if isinstance(result, FitError):
        raise result
    return result


def fit_decays(fits: Sequence[Tuple[DecayCurve, int, Optional[float]]]
               ) -> List[Union[FitResult, FitError]]:
    """fit_decay of each (curve, N, T2eff guess), one least_squares stack: FitResults or FitErrors.

    Each curve is checked on its own (_decay_start), so a curve that fails,
    or converges sooner, changes no other result. A trial T2eff is refused
    when it is not > 0 or the model overflows: no fit stops at a bound.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        starts = [_decay_start(*fit) for fit in fits]
    stack = [start for start in starts if not isinstance(start, FitError)]
    if not stack:
        return starts
    ns, taus, ys, ws, guesses = zip(*stack)
    table = _decay_table(ns, taus)

    def decay(t):
        return _decay_and_slope(table, np.where(t > 0, t, np.nan))

    def result(n, size, p, errs, rss, converged, it):
        (a, off, t), (a_err, off_err, t_err) = p, errs
        return _failure(converged, errs, f"decay fit (N={n})") or FitResult(
            a, t, off, {"A": a_err, "T2eff_ms": t_err, "offset": off_err}, rss,
            rss / (size - 3), converged, it)

    sizes = [tau.size for tau in taus]
    fitted = least_squares(decay, np.concatenate(ys), np.concatenate(ws), sizes, guesses,
                           offset=True)
    done = zip(ns, sizes, *(a.tolist() for a in fitted))
    return [start if isinstance(start, FitError) else result(*next(done)) for start in starts]


def _decay_start(curve: DecayCurve, n_projections, t2_guess) -> Union[tuple, FitError]:
    """(N, tau, mean, weights, T2eff guess) of a curve that passes fit_decay's checks, or FitError.

    Runs under fit_decays' np.errstate(raise): data whose weights, or the
    cost sum (w y)^2 of a zero model, leave the float range fail here.
    """
    try:
        n_projections = projection_count(n_projections)
        if t2_guess is not None:
            t2_guess = _t2eff(t2_guess)
    except (TypeError, ValueError) as e:
        return FitError(str(e))
    tau, y = curve.tau, curve.mean
    if tau.size < 4:
        return FitError("need at least 4 points for a decay fit")
    try:
        if y.max() - y.min() < 1e-12:
            return FitError("degenerate data: curve is constant")
        if (tau == tau[0]).all():
            return FitError("degenerate data: every tau is equal")
        w = _weights(curve)
        wy = w * y
        np.add.reduce(wy * wy)
        if t2_guess is None:
            # Heuristic: locate the 1/sqrt(e) crossing of the normalized data
            # and divide out the stretch factor of N rounded up to even.
            ynorm = (y - y[-1]) / max(y[0] - y[-1], 1e-9)
            below = np.nonzero(ynorm < SQRT_E_LEVEL)[0]
            tau_e = tau[below[0]] if below.size else tau[-1] / 2
            t2_guess = tau_e / sqrt_e_time(n_projections + n_projections % 2, 1.0)
    except FloatingPointError as e:
        return FitError(f"decay fit (N={n_projections}) left the float range: {e}")
    return n_projections, tau, y, w, max(float(t2_guess), 1e-6)


def _failure(converged: bool, errs, what: str) -> Optional[FitError]:
    """The FitError of a fit that did not converge or has an error that is not finite, or None."""
    if not converged:
        return FitError(f"{what} did not converge")
    if not all(map(math.isfinite, errs)):
        return FitError(f"{what} has undefined standard errors")
    return None


def fit_scaling(times: Mapping[int, float]) -> ScalingFit:
    """Fit 1 + mu*N^nu to decay times normalized by the N=0 value: a stack of one fit.

    FitError unless every N is an int (not a bool) in [0, MAX_SCALE], every
    time finite and positive, N = 0 and at least three other N are present
    (one degree of freedom for the errors), and every normalized time lies
    in [1/MAX_SCALE, MAX_SCALE]. Trial nu keep N**|nu| <= MAX_SCALE, so the
    normal equations square nothing past the float range.
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
        if not abs(nu[0]) <= nu_max:
            return np.full((2, ns.size), math.nan)  # NaN rows refuse a trial past the range
        power = ns**nu[0]
        return power, power * log_ns

    (p,), (errs,), _, (converged,), _ = least_squares(power_law, ys - 1.0, np.ones(ns.size),
                                                      [ns.size], [0.6], offset=False)
    failure = _failure(converged, errs, "scaling fit")
    if failure:
        raise failure
    return ScalingFit(*p.tolist(), *errs.tolist(), norm)
