"""Closed-form decay predictions for repeated joint projections.

The central object is the binomial-sum decay of a joint x-type observable
under N equidistant projections during a total evolution time tau, with
quasi-static Gaussian detuning noise folded into a single effective
dephasing time. Intermediate fixed-detuning expressions are kept as
deterministic oracles for the matrix-level simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

SQRT_E_LEVEL = math.exp(-0.5)


@dataclass(frozen=True)
class DecayParams:
    """Parameters of the projected-decay curve."""

    n_projections: int
    tau: float
    t2eff: float
    amplitude: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.n_projections < 0:
            raise ValueError("projection count must be >= 0")
        if self.t2eff <= 0:
            raise ValueError("effective dephasing time must be positive")
        if not 0 <= self.amplitude <= 1:
            raise ValueError("amplitude must lie in [0, 1]")


def binomial(n: int, k: int) -> float:
    """Binomial coefficient; exact below n=32, log-gamma float above."""
    if k < 0 or k > n:
        return 0.0
    if n < 32:
        return float(math.comb(n, k))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


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


def decay_value(p: DecayParams) -> float:
    """Expected observable decay after N equidistant projections.

    offset + A/2^(N+1) * sum_l C(N+1, l) * exp(-(t_l/T)^2) with
    t_l = tau - 2l/(N+1) * tau.
    """
    n1 = p.n_projections + 1
    total = 0.0
    for l in range(n1 + 1):
        t = p.tau - 2.0 * l / n1 * p.tau
        total += binomial(n1, l) * math.exp(-((t / p.t2eff) ** 2))
    return p.offset + p.amplitude * total / 2.0**n1


def decay_curve(n_projections: int, taus: Sequence[float], t2eff: float,
                amplitude: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Vector of decay_value over a tau grid."""
    return np.array([
        decay_value(DecayParams(n_projections, float(t), t2eff, amplitude, offset))
        for t in taus
    ])


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
    n1 = n_projections + 1
    return binomial(n1, n1 // 2) / 2.0**n1


def sqrt_e_time(n_projections: int, t2eff: float) -> float:
    """Smallest tau where the normalized decay crosses 1/sqrt(e).

    Restricted to even N: odd-N curves plateau above the crossing level for
    N >= 3 and the scaling analysis only uses even N. Found by a uniform
    scan for the first sign change followed by bisection.
    """
    if n_projections % 2 != 0:
        raise ValueError("crossing time defined for even N only")
    if t2eff <= 0:
        raise ValueError("effective dephasing time must be positive")

    def f(tau: float) -> float:
        return decay_value(DecayParams(n_projections, tau, t2eff)) - SQRT_E_LEVEL

    hi = 20.0 * (n_projections + 1) * t2eff
    grid = np.linspace(0.0, hi, 400)
    lo = None
    for a, b in zip(grid[:-1], grid[1:]):
        if f(a) > 0 >= f(b):
            lo, hi = a, b
            break
    if lo is None:
        raise RuntimeError(f"no 1/sqrt(e) crossing found for N={n_projections}")
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

