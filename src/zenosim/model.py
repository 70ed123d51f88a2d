"""Closed-form decay predictions for repeated joint projections.

The central object is the binomial-sum decay of a joint x-type observable
under N equidistant projections during a total evolution time tau, with
quasi-static Gaussian detuning noise folded into a single effective
dephasing time. :func:`decay_curve` evaluates it for a whole tau grid at
once, in log space: each binomial weight is formed as exp(log weight -
exponent) with normalized log weights, so the sum stays finite for every
N, and only the O(sqrt(N)) weights that do not underflow are kept.
Intermediate fixed-detuning expressions are kept as deterministic oracles
for the matrix-level simulator.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import product
from typing import Sequence, Tuple

import numpy as np

SQRT_E_LEVEL = math.exp(-0.5)

# exp(x) underflows to zero in float64 below this.
_LOG_UNDERFLOW = -746.0
# Matrix entries per decay_curve chunk: 2**16 float64 is 512 KiB.
_CURVE_ENTRIES = 2**16


def effective_t2(t2_list: Sequence[float]) -> float:
    """Quadrature combination of per-spin dephasing times.

    1/T_eff = sqrt(sum_i 1/T_i^2); single entries pass through unchanged.
    """
    t2 = np.asarray(t2_list, dtype=float)
    if t2.size == 0:
        raise ValueError("need at least one dephasing time")
    if np.any(t2 <= 0):
        raise ValueError("dephasing times must be positive")
    return float(np.sum(t2**-2.0) ** -0.5)


@functools.lru_cache(maxsize=16)
def _binomial_terms(n_projections: int) -> Tuple[np.ndarray, np.ndarray]:
    """Time factors f_l = 1 - 2l/(N+1) and log weights ln(C(N+1, l) / 2^(N+1)).

    The log binomials come from lgamma and are normalized in two steps
    (subtract the largest, then the log of the sum), so the weights sum to
    1 to rounding. Only l with |l - (N+1)/2| <= sqrt(373 (N+1)) + 1 are
    kept: by Hoeffding's bound every other weight lies below e^-746 and
    underflows to zero anyway. For N+1 <= 1490 that is every l. The arrays
    are shared by every caller and therefore read-only.
    """
    n1 = n_projections + 1
    half = math.sqrt(-_LOG_UNDERFLOW / 2 * n1) + 1.0
    ls = range(max(0, math.ceil(n1 / 2 - half)), min(n1, math.floor(n1 / 2 + half)) + 1)
    top = math.lgamma(n1 + 1)
    logw = np.array([top - math.lgamma(l + 1) - math.lgamma(n1 - l + 1) for l in ls])
    logw -= logw.max()
    logw -= math.log(np.exp(logw).sum())
    frac = 1.0 - 2.0 * np.array(ls) / n1
    frac.setflags(write=False)
    logw.setflags(write=False)
    return frac, logw


def decay_curve(n_projections: int, taus: Sequence[float], t2eff: float,
                amplitude: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Expected observable decay after N equidistant projections, per tau.

    offset + A/2^(N+1) * sum_l C(N+1, l) * exp(-(tau f_l / T)^2) with
    f_l = 1 - 2l/(N+1), evaluated as sum_l exp(log w_l - (tau f_l / T)^2)
    for a (tau, l) block at a time. Finite for every N >= 0.
    """
    n = operator.index(n_projections)
    if n < 0:
        raise ValueError("projection count must be >= 0")
    if not t2eff > 0:
        raise ValueError("effective dephasing time must be positive")
    if not 0 <= amplitude <= 1:
        raise ValueError("amplitude must lie in [0, 1]")
    if not math.isfinite(offset):
        raise ValueError("offset must be finite")
    taus = np.asarray(taus, dtype=float).ravel()
    if not np.isfinite(taus).all():
        raise ValueError("evolution times must be finite")
    frac, logw = _binomial_terms(n)
    rows = max(1, _CURVE_ENTRIES // frac.size)
    total = np.empty(taus.size)
    for lo in range(0, taus.size, rows):
        x = taus[lo:lo + rows, None] * frac / t2eff
        total[lo:lo + rows] = np.exp(logw - x * x).sum(axis=1)
    return offset + amplitude * total


def single_shot_expectation(deltas: Sequence[float], t: float, n_projections: int) -> float:
    """Fixed-detuning expectation of the k-spin x-word after N projections.

    All N+1 segments have duration t. Averages cos^(N+1) of the signed
    detuning sums over all relative-sign configurations of spins 2..k.
    """
    if t < 0:
        raise ValueError("segment time must be >= 0")
    if n_projections < 0:
        raise ValueError("projection count must be >= 0")
    deltas = np.asarray(deltas, dtype=float)
    k = deltas.size
    total = 0.0
    for signs in product((1.0, -1.0), repeat=k - 1):
        freq = deltas[0] + float(np.dot(signs, deltas[1:]))
        total += math.cos(freq * t) ** (n_projections + 1)
    return total / 2.0 ** (k - 1)


def odd_n_asymptote(n_projections: int) -> float:
    """Long-time plateau of the normalized decay for an odd projection count.

    The central term of the binomial sum survives at tau -> infinity only
    when N is odd; for even N the limit is zero and a ValueError is raised
    to keep the two cases distinct.
    """
    if n_projections < 1 or n_projections % 2 == 0:
        raise ValueError(f"plateau only exists for odd N >= 1, got {n_projections}")
    frac, logw = _binomial_terms(n_projections)
    return math.exp(logw[frac == 0][0])


@functools.cache
def _unit_sqrt_e_time(n_projections: int) -> float:
    """1/sqrt(e) crossing of the decay at T2eff = 1.

    One decay_curve scan of a uniform grid brackets the first sign change,
    then bisection narrows it to 1e-9 relative.
    """
    hi = 20.0 * (n_projections + 1)
    grid = np.linspace(0.0, hi, 400)
    above = decay_curve(n_projections, grid, 1.0) > SQRT_E_LEVEL
    first = np.nonzero(above[:-1] & ~above[1:])[0]
    if first.size == 0:
        raise RuntimeError(f"no 1/sqrt(e) crossing found for N={n_projections}")
    lo, hi = grid[first[0]], grid[first[0] + 1]
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if decay_curve(n_projections, [mid], 1.0)[0] > SQRT_E_LEVEL:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


def sqrt_e_time(n_projections: int, t2eff: float) -> float:
    """Smallest tau where the normalized decay crosses 1/sqrt(e).

    Restricted to even N: odd-N curves plateau above the crossing level for
    N >= 3 and the scaling analysis only uses even N. The decay depends on
    tau only through tau/T2eff, so the crossing is T2eff times the T2eff = 1
    crossing, which is computed once per N.
    """
    n = operator.index(n_projections)
    if n % 2 != 0:
        raise ValueError("crossing time defined for even N only")
    if not (math.isfinite(t2eff) and t2eff > 0):
        raise ValueError("effective dephasing time must be finite and positive")
    return float(t2eff) * _unit_sqrt_e_time(n)
