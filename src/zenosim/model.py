"""Closed-form decay predictions for repeated joint projections.

The central object is the binomial-sum decay of a joint x-type observable
under N equidistant projections during a total evolution time tau, with
quasi-static Gaussian detuning noise folded into a single effective
dephasing time. :func:`decay_curve` evaluates it for a whole tau grid at
once, in log space: each binomial weight is formed as exp(log weight -
exponent) with normalized log weights, so the sum stays finite for every
N, and only the O(sqrt(N)) weights that do not underflow are kept. Every
evaluation forms the same two sums over those terms, the decay and its
x^2 moment, each an np.add.reduceat over one tau's terms: decay_curve
reads the first, and the fits the derivative in T2eff that the second
gives. A stack of fits lays the tau f_l part of every fit's table out
flat once, fits of different N side by side, and reuses it for every
trial T2eff.
Intermediate fixed-detuning expressions are kept as deterministic oracles
for the matrix-level simulator. The type rule of every value a module is
given is :func:`checked`. Each input of the physics has one gate that every
module reads it through: :func:`dephasing_times` for T2*,
:func:`projection_count` for N and :func:`free_evolution` for the time and
detunings of a free evolution, which it also bounds together, so that no
phase overflows. The integers a plan gives its detuning draw have theirs
too: :func:`key_word` for a seed, one 64-bit word of Philox's key, and
:func:`shot_count` for a number of shots.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from itertools import product
from typing import Sequence, Tuple

import numpy as np

SQRT_E_LEVEL = math.exp(-0.5)

# exp(x) underflows to zero in float64 below this.
_LOG_UNDERFLOW = -746.0
# Matrix entries per decay_curve chunk: 2**16 float64 is 512 KiB.
_CURVE_ENTRIES = 2**16
# Largest N of the closed form. Its per-N table holds about 2 sqrt(373 (N+1))
# terms, which take about a second to build at N = 10**9.
MAX_PROJECTIONS = 10**9
# Largest register of the dense simulators: four spins, dimension 16.
MAX_SPINS = 4
# Bound on |tau|/T2eff in decay_curve, far below sqrt of the float range, so
# that no (tau/T2eff)**2 overflows.
MAX_TIME_RATIO = 1e150
# Bound on t x max |delta| of a free evolution, far below the float range,
# so that no phase t (+-delta_1 +- ... +- delta_k) of MAX_SPINS spins overflows.
MAX_PHASE_SCALE = 1e300

_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}


def checked(kind, value, what: str):
    """value as a built-in int, float or str, or for kind = (type,) a tuple of them.

    numpy scalars pass. TypeError for a bool where a number belongs, a string
    or a non-sequence where a tuple belongs, and any other type; ValueError
    for an int too large for a float.
    """
    if isinstance(kind, tuple):
        if isinstance(value, str) or not isinstance(value, Iterable):
            raise TypeError(f"{what} must be a sequence, got {value!r}")
        # an entry of the built-in type itself, the common case, passes as it is
        return tuple(v if type(v) is kind[0] else checked(kind[0], v, f"{what} entry")
                     for v in value)
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
        raise TypeError(f"{what} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError as e:
        raise ValueError(f"{what} lies past the float range") from e


def dephasing_times(t2_star) -> Tuple[float, ...]:
    """Per-spin T2* values in ms as a float tuple: the one rule for T2* inputs.

    TypeError unless t2_star is a sequence of numbers (see checked);
    ValueError unless it is nonempty and every time is finite and positive
    with a finite detuning width sqrt(2)/T2*.
    """
    t2 = checked((float,), t2_star, "t2_star")
    if not t2:
        raise ValueError("need at least one dephasing time")
    if not all(math.isfinite(t) and t > 0 for t in t2):
        raise ValueError("dephasing times must be finite and positive")
    if not all(math.isfinite(math.sqrt(2.0) / t) for t in t2):
        raise ValueError("dephasing times must give a finite width sqrt(2)/T2*")
    return t2


def projection_count(n_projections, what: str = "projection count") -> int:
    """N as a built-in int: the one rule for a projection count.

    TypeError unless N is an int (see checked: a bool or a float N is
    refused); ValueError unless 0 <= N <= MAX_PROJECTIONS, the limit of the
    closed form. Both name what.
    """
    n = checked(int, n_projections, what)
    if not 0 <= n <= MAX_PROJECTIONS:
        raise ValueError(f"{what} {n} is past the limits 0 and {MAX_PROJECTIONS}")
    return n


def key_word(value, what: str) -> int:
    """value as a built-in int: the one rule for a seed, a Philox key word.

    The other words of a draw, a plan's stream and its tau-point indices,
    are made by the plan and in range by construction. TypeError unless
    value is an int (see checked: a bool, a float or a string is
    refused); ValueError "<what> must lie in [0, 2**64), got
    <value>" for an int that is negative or needs more than 64 bits.
    """
    n = checked(int, value, what)
    if not 0 <= n < 2**64:
        raise ValueError(f"{what} must lie in [0, 2**64), got {n}")
    return n


def shot_count(shots, what: str) -> int:
    """shots as a built-in int: the one rule for a number of shots.

    TypeError unless shots is an int (see checked); ValueError "<what> must
    be >= 1, got <shots>" for fewer than one shot.
    """
    n = checked(int, shots, what)
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")
    return n


def free_evolution(t, deltas, k: int, what: str) -> Tuple[float, np.ndarray]:
    """t in ms as a built-in float and k detunings in rad/ms as a float array.

    The one rule for a free evolution. TypeError unless t is a real number
    (see checked); ValueError unless t is finite and >= 0, unless
    1 <= k <= MAX_SPINS and deltas holds k finite numbers, and, naming
    what, unless the phase scale t x max |delta| is below MAX_PHASE_SCALE.
    """
    t = checked(float, t, "evolution time")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    deltas = np.asarray(deltas, dtype=float)
    # at most MAX_SPINS numbers: a Python loop is cheaper than a ufunc call
    if not (1 <= k <= MAX_SPINS and deltas.shape == (k,)
            and all(map(math.isfinite, values := deltas.tolist()))):
        raise ValueError(f"expected {k} finite detunings, 1 to {MAX_SPINS}, got {deltas!r}")
    scale = t * max(map(abs, values))
    if not scale < MAX_PHASE_SCALE:
        raise ValueError(f"{what} must be finite and below {MAX_PHASE_SCALE:g}, "
                         f"got {scale:g}")
    return t, deltas


def effective_t2(t2_list: Sequence[float]) -> float:
    """Quadrature combination of per-spin dephasing times.

    1/T_eff = sqrt(sum_i 1/T_i^2); single entries pass through unchanged.
    The times follow dephasing_times' rule. Each is divided into the
    smallest before squaring, so no square overflows.
    """
    t2 = np.asarray(dephasing_times(t2_list))
    shortest = t2.min()
    return float(shortest / np.sqrt(np.sum((shortest / t2) ** 2)))


def _t2eff(t2eff) -> float:
    """The effective dephasing time as a float; ValueError unless finite and positive."""
    t2eff = checked(float, t2eff, "effective dephasing time")
    if not (math.isfinite(t2eff) and t2eff > 0):
        raise ValueError("effective dephasing time must be finite and positive")
    return t2eff


@functools.lru_cache(maxsize=16)
def _binomial_terms(n_projections: int) -> Tuple[np.ndarray, np.ndarray]:
    """Time factors f_l = 1 - 2l/(N+1) and log weights ln(C(N+1, l) / 2^(N+1)).

    The log binomials come from lgamma and are normalized in two steps
    (subtract the largest, then the log of the sum), so the weights sum to
    1 to rounding. Only l with |l - (N+1)/2| <= sqrt(373 (N+1)) + 1 are
    kept: by Hoeffding's bound every other weight lies below e^-746 and
    underflows to zero anyway. For N+1 <= 1490 that is every l. The arrays
    are shared by every caller and therefore read-only. N must have passed
    projection_count.
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
    for a (tau, l) block at a time. Finite for every N that passes
    projection_count. T2eff must be finite and positive, and every
    |tau|/T2eff below MAX_TIME_RATIO, so that (tau/T)^2 stays finite;
    ValueError otherwise. tau may be negative: the decay is even in tau.
    The amplitude A and the offset are read as floats (checked: a bool or a
    string raises TypeError naming it), A in [0, 1] and the offset finite.
    """
    n = projection_count(n_projections)
    t2eff = _t2eff(t2eff)
    amplitude, offset = checked(float, amplitude, "amplitude"), checked(float, offset, "offset")
    if not 0 <= amplitude <= 1:
        raise ValueError("amplitude must lie in [0, 1]")
    if not math.isfinite(offset):
        raise ValueError("offset must be finite")
    taus = np.asarray(taus, dtype=float).ravel()
    if not np.isfinite(taus).all():
        raise ValueError("evolution times must be finite")
    if float(np.abs(taus).max(initial=0.0)) >= MAX_TIME_RATIO * t2eff:
        raise ValueError(f"largest |tau|/T2eff must stay below {MAX_TIME_RATIO:g}")
    return offset + amplitude * _decay_sums(_decay_table([n], [taus]), np.array([t2eff]))[0]


def _decay_table(ns: Sequence[int], taus: Sequence[np.ndarray]) -> tuple:
    """(fits, layout, row fit): the part of x = tau f_l / T that does not depend on T, per fit.

    Fit i has N = ns[i] and the tau grid taus[i]. Each tau is a row, and
    the entries of a row are the kept terms l of its N (_binomial_terms):
    the layout runs fit after fit, row after row, term after term, with no
    padding, so that no sum of a row depends on any other row. layout is
    _layout(fits), built here once when the stack has at most
    _CURVE_ENTRIES entries, so that a fit stack forms it once for all its
    trial T2eff; for a larger stack it is None, and _decay_sums forms it
    for one fit's rows at a time. row fit is the fit of each row. Each N
    must have passed projection_count.
    """
    fits = [(*_binomial_terms(n), np.asarray(t, dtype=float)) for n, t in zip(ns, taus)]
    entries = sum(frac.size * t.size for frac, _, t in fits)
    layout = _layout(fits) if entries <= _CURVE_ENTRIES else None
    return fits, layout, np.repeat(np.arange(len(fits)), [t.size for *_, t in fits])


def _layout(fits) -> tuple:
    """(tau f, log w, row starts, fit of each entry) of fits [(f, log w, taus)], laid out flat."""
    tau_frac = np.concatenate([np.multiply.outer(t, frac).ravel() for frac, _, t in fits])
    logw = np.concatenate([np.tile(lw, t.size) for _, lw, t in fits])
    lengths = np.repeat([frac.size for frac, _, _ in fits], [t.size for *_, t in fits])
    entry_fit = np.repeat(np.arange(len(fits)), [frac.size * t.size for frac, _, t in fits])
    return tau_frac, logw, np.cumsum(lengths) - lengths, entry_fit


def _decay_sums(table, t2eff: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, sum_l w_l e^{-x_l^2} and sum_l w_l e^{-x_l^2} x_l^2, with x = tau f_l / T.

    table is _decay_table's and t2eff holds one T per fit. Each sum is an
    np.add.reduceat over its own row's entries, the one summation rule of
    decay_curve and the fits. Both sums are finite wherever x^2 is: each
    term of the second is at most w_l x_l^2 e^{-x_l^2} <= w_l / e. A
    table without a layout is summed in blocks of one fit's rows, of at
    most _CURVE_ENTRIES entries (at least one row).
    """
    fits, layout, _ = table
    if layout is not None:
        return _sums(layout, t2eff)
    blocks = []
    for i, (frac, logw, taus) in enumerate(fits):
        rows = max(1, _CURVE_ENTRIES // frac.size)
        blocks += [_sums(_layout([(frac, logw, taus[lo:lo + rows])]), t2eff[i:i + 1])
                   for lo in range(0, taus.size, rows)]
    return tuple(np.concatenate(sums) for sums in zip(*blocks))


def _sums(layout, t2eff: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """_decay_sums of one laid-out block."""
    tau_frac, logw, starts, entry_fit = layout
    x2 = tau_frac / t2eff[entry_fit]
    x2 *= x2
    terms = np.empty((2, x2.size))
    np.subtract(logw, x2, out=terms[0])
    np.exp(terms[0], out=terms[0])
    np.multiply(terms[0], x2, out=terms[1])
    return tuple(np.add.reduceat(terms, starts, axis=1))


def _decay_and_slope(table, t2eff: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unit decay m(tau) and its derivative dm/dT per row, for the fits; inputs unchecked.

    table is _decay_table(ns, taus), built once per fit stack, and t2eff
    holds one T per fit. m and the moment are _decay_sums', so each fit's
    m is decay_curve(N, taus, T) to the bit, and dm/dT = sum_l w_l
    e^{-x_l^2} 2 x_l^2 / T is 2/T times the moment.
    """
    value, second = _decay_sums(table, t2eff)
    return value, second * (2.0 / t2eff)[table[2]]


def single_shot_expectation(deltas: Sequence[float], t: float, n_projections: int) -> float:
    """Fixed-detuning expectation of the k-spin x-word after N projections.

    All N+1 segments have duration t. Averages cos^(N+1) of the signed
    detuning sums over all relative-sign configurations of spins 2..k.
    N passes projection_count and t with the k detunings free_evolution
    before any work is done.
    """
    n = projection_count(n_projections)
    t, deltas = free_evolution(t, deltas, np.size(deltas), "t x largest |detuning|")
    total = 0.0
    for signs in product((1.0, -1.0), repeat=deltas.size - 1):
        freq = deltas[0] + float(np.dot(signs, deltas[1:]))
        total += math.cos(freq * t) ** (n + 1)
    return total / 2.0 ** (deltas.size - 1)


def odd_n_asymptote(n_projections: int) -> float:
    """Long-time plateau of the normalized decay for an odd projection count.

    The central term of the binomial sum survives at tau -> infinity only
    when N is odd; for even N the limit is zero and a ValueError is raised
    to keep the two cases distinct. N is read through projection_count.
    """
    n = projection_count(n_projections)
    if n % 2 == 0:
        raise ValueError(f"plateau only exists for odd N, got {n}")
    frac, logw = _binomial_terms(n)
    return math.exp(logw[frac == 0][0])


@functools.cache
def _unit_sqrt_e_time(n_projections: int) -> float:
    """1/sqrt(e) crossing of the decay at T2eff = 1.

    One decay_curve scan of a uniform grid brackets the first sign change,
    then bisection narrows it to 1e-9 relative. N must have passed
    projection_count.
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
    crossing, which is computed once per N. N is read through
    projection_count, as in decay_curve.
    """
    n = projection_count(n_projections)
    if n % 2 != 0:
        raise ValueError("crossing time defined for even N only")
    return _t2eff(t2eff) * _unit_sqrt_e_time(n)
