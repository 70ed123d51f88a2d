"""Closed forms that the benchmark checks zenosim against.

Written apart from the program: nothing here imports zenosim. The
binomial sum is evaluated in log space, so it stays finite for every N.

Physics used by the word rule: dephasing is diagonal in the Z basis, so a
spin prepared in |0> under a Z or I letter never changes and drops out. A
spin under a Y letter is the X case rotated about z, which commutes with
dephasing, so Y letters decay exactly like X letters.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Sequence

import numpy as np

SQRT_E_LEVEL = math.exp(-0.5)

# +1 eigenstate label, in zenosim's state-spec syntax, for each Pauli letter.
EIGENSTATE = {"X": "X", "Y": "Y", "Z": "0", "I": "0"}


def eigenstate_spec(word: str) -> str:
    """Comma-separated product-state spec of the word's +1 eigenstate."""
    return ",".join(EIGENSTATE[c] for c in word)


def dephasing_spins(word: str) -> list:
    """Indices of the spins that dephase under the word (X or Y letters)."""
    return [i for i, c in enumerate(word) if c in "XY"]


def effective_t2(t2_star: Sequence[float], word: Optional[str] = None) -> Optional[float]:
    """Quadrature T2* over the X/Y spins of `word` (all spins when None).

    Returns None when no spin dephases, i.e. the word's value stays 1.
    """
    spins = range(len(t2_star)) if word is None else dephasing_spins(word)
    inv = sum(1.0 / t2_star[i] ** 2 for i in spins)
    return None if inv == 0 else inv ** -0.5


def log_binomials(n: int) -> np.ndarray:
    """ln C(n, l) for l = 0..n, as a running sum of log ratios."""
    j = np.arange(1, n + 1, dtype=float)
    return np.concatenate(([0.0], np.cumsum(np.log((n - j + 1) / j))))


def decay(n_projections: int, taus, t2eff: Optional[float],
          amplitude: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """offset + A * 2^-(N+1) * sum_l C(N+1, l) * exp(-(t_l/T)^2).

    t_l = tau * (1 - 2l/(N+1)). Every term is formed as exp(log weight -
    exponent) with a log weight <= 0, so nothing overflows at large N.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if t2eff is None:
        return offset + amplitude * np.ones_like(taus)
    n1 = n_projections + 1
    frac = 1.0 - 2.0 * np.arange(n1 + 1) / n1
    logw = log_binomials(n1) - n1 * math.log(2.0)
    t = taus[:, None] * frac[None, :]
    return offset + amplitude * np.exp(logw[None, :] - (t / t2eff) ** 2).sum(axis=1)


def word_decay(t2_star: Sequence[float], word: str, n_projections: int,
               taus) -> np.ndarray:
    """Ensemble mean of <word> after N projections of the same word.

    The register starts in the word's +1 product eigenstate.
    """
    return decay(n_projections, taus, effective_t2(t2_star, word))


def single_shot(deltas: Sequence[float], word: str, tau: float,
                n_projections: int) -> float:
    """Fixed-detuning <word> after N projections of the word over total time tau.

    Each of the N+1 segments lasts t = tau/(N+1). Coherence |a><abar| of
    the dephasing spins turns by t * sum_i s_i * delta_i and each
    projection averages it with its mirror, which leaves a factor
    cos(...) per segment; the read-out averages over all sign vectors s.
    """
    spins = dephasing_spins(word)
    if not spins:
        return 1.0
    t = tau / (n_projections + 1)
    d = np.asarray(deltas, dtype=float)[spins]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(spins))))
    return float(np.mean(np.cos(t * (signs @ d)) ** (n_projections + 1)))


def sqrt_e_time(n_projections: int, t2eff: float = 1.0) -> float:
    """First tau where decay(N, tau, T) falls to 1/sqrt(e), by grid then bisection."""
    grid = np.linspace(0.0, 20.0 * (n_projections + 1), 4001)
    vals = decay(n_projections, grid, 1.0) - SQRT_E_LEVEL
    i = int(np.argmax(vals <= 0))
    if vals[i] > 0:
        raise ValueError(f"no 1/sqrt(e) crossing for N={n_projections}")
    lo, hi = grid[i - 1], grid[i]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if decay(n_projections, [mid], 1.0)[0] > SQRT_E_LEVEL:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * t2eff


def crossing(tau: Sequence[float], y: Sequence[float], level: float) -> Optional[float]:
    """First linear-interpolated downward crossing of `level`; None if none."""
    for i in range(1, len(tau)):
        if y[i - 1] >= level > y[i]:
            f = (y[i - 1] - level) / (y[i - 1] - y[i])
            return float(tau[i - 1] + f * (tau[i] - tau[i - 1]))
    return None


def normalized_times(t2eff_by_n: Dict[int, float]) -> Dict[int, float]:
    """1/sqrt(e)-times for each N, fitted T2eff per N, divided by the N=0 time."""
    base = sqrt_e_time(0, t2eff_by_n[0])
    return {n: sqrt_e_time(n, t) / base for n, t in t2eff_by_n.items()}
