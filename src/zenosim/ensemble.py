"""Monte-Carlo simulation of dephasing interrupted by repeated projections.

Each shot draws one quasi-static detuning vector, evolves the register
through N+1 free segments separated by N projections of the chosen joint
observable, and evaluates the requested read-outs on the final density
matrix. Detunings are drawn as one block per tau point from Philox keyed
by (seed, plan stream), a digest of T2*, initial state, observable and N,
with the point index in the counter: reproducible in any execution order.
Each thread keeps one generator, whose whole state is written from plain
ints before each point.

One kernel simulates a flat batch of (point, shot) rows in cache-sized
chunks, with no loop over projections. It uses the paper's cos-power
form: once projected, each density-matrix entry is multiplied by
exp(i alpha_u) cos alpha_f per segment and projection, so each read-out
value is a short sum over its own distinct entry angles, each taken
once for theta_f and -theta_f, of real terms with one cos and one real
power |cos|**(N-1) per angle, plus one sin per angle for the few readouts
whose terms need it. The terms of an entry read only rho0 and its
projection channel.project(O, rho0).
:func:`run_ensemble` runs every point and shot of a plan through
it; :func:`run_shot` runs one row for given detunings. The kernel reads
one cached table per (initial state, observable, readout), built once,
and runs the readouts one after another, each in chunks whose rows are
computed on every call. Each readout operator is built once.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channel import project
from .logical import logical_operator, resolve_state
from .model import (checked, dephasing_times, free_evolution, key_word, projection_count,
                    shot_count)
from .spins import basis_signs, pauli_matrix, validate_word

FIDELITY_PREFIX = "F:"
LOGICAL_PREFIX = "L:"

# Entries of a kernel chunk's largest array, rows x columns of one
# readout's table: 2**13 float64 is 64 KiB per working array (128 KiB when
# the table is complex), small enough for malloc to reuse rather than map
# afresh, and the chunk's temporaries stay in L2.
_CHUNK_ENTRIES = 2**13

# Largest Monte-Carlo size of one plan, rows = tau points x shots. The
# detunings of a plan are drawn at once, so this bounds its memory too.
MAX_ROWS = 2**24

# Each thread's detuning generator (see sample_detunings), made on its first
# draw. A generator is never shared between threads.
_THREAD = threading.local()


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin Gaussian dephasing times T2* in ms, stored as a float tuple.

    model.dephasing_times holds the rule: TypeError unless t2_star is a
    sequence of numbers, ValueError unless it is nonempty with every time
    finite and positive and every width sqrt(2)/T2* finite. So (12, 8) and
    (12.0, 8.0) are one model.
    """

    t2_star: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "t2_star", dephasing_times(self.t2_star))

    @property
    def sigma(self) -> np.ndarray:
        """Detuning widths sqrt(2)/T2* in rad/ms."""
        return np.sqrt(2.0) / np.asarray(self.t2_star)


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one simulated projection experiment.

    Each readout is a Hermitian operator M read as Re Tr(rho M) on every
    shot: a Pauli word ("XX") for a correlator, "F:<spec>" for the
    fidelity with a resolvable state spec (see resolve_state), or
    "L:<label>" for the restricted logical fidelity of a logical label
    (see logical_operator). The initial state and every readout operator
    must fit the register of k = len(noise.t2_star) spins. Analysis-time
    amplitudes are not part of the plan; the figure pipelines apply them.

    The plan is the one gate for an experiment's description. noise must
    be a NoiseModel, which checks its own times, else TypeError. Each other
    field is checked and stored as a built-in type (model.checked): the
    state and observable as str, the readouts as a tuple of str, the tau
    grid as a float tuple, and N, shots and seed as int, each through its
    gate: model.projection_count (0 <= N <= MAX_PROJECTIONS),
    model.shot_count (shots >= 1) and model.key_word (a seed in [0, 2**64)).
    numpy scalars pass, so np.int64(2) is stored as 2; a bool, a fractional
    N, shot count or seed, a string where a number belongs and a bare string
    of readouts raise TypeError. Equal plans therefore stream, hash and
    print alike. A value out of range raises ValueError that names its field.
    """

    noise: NoiseModel
    initial_state: str
    observable: str
    readout: Tuple[str, ...]
    n_projections: int
    tau_grid: Tuple[float, ...]
    shots: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.noise, NoiseModel):
            raise TypeError(f"noise must be a NoiseModel, got {self.noise!r}")
        for name, kind in (("initial_state", str), ("observable", str), ("readout", (str,)),
                           ("tau_grid", (float,))):
            object.__setattr__(self, name, checked(kind, getattr(self, name), name))
        for name, gate in (("n_projections", projection_count), ("shots", shot_count),
                           ("seed", key_word)):
            object.__setattr__(self, name, gate(getattr(self, name), name))
        validate_word(self.observable)
        if len(self.observable) != self.k:
            raise ValueError("observable length must match register size")
        taus = self.tau_grid
        # b > a is false for a NaN, and a strictly increasing grid is finite
        # and nonnegative when its two ends are: the gate reads the first end
        # if it is negative, else the last, which bounds every phase
        if not taus or not all(b > a for a, b in zip(taus, taus[1:])):
            raise ValueError("tau grid must be nonempty and strictly increasing")
        free_evolution(taus[0] if taus[0] < 0 else taus[-1], self.noise.sigma, self.k,
                       "largest tau x largest detuning width sqrt(2)/T2*")
        if len(taus) * self.shots > MAX_ROWS:
            raise ValueError(f"{len(taus)} tau points x {self.shots} shots exceed "
                             f"the limit of {MAX_ROWS} Monte-Carlo rows per plan")
        if not self.readout:
            raise ValueError("need at least one readout")
        for readout in self.readout:
            _plan_table(self.initial_state, self.observable, readout)

    @property
    def k(self) -> int:
        return len(self.noise.t2_star)

    @property
    def stream(self) -> int:
        """Second Philox key word: 64-bit blake2b of T2*, initial state, observable, N."""
        physics = repr((self.noise.t2_star, self.initial_state, self.observable,
                        self.n_projections)).encode()
        return int.from_bytes(hashlib.blake2b(physics, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class DecayCurve:
    """Ensemble mean and standard error per evolution time for one readout."""

    tau: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_projections: int
    readout: str
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.tau) == len(self.mean) == len(self.stderr)):
            raise ValueError("tau/mean/stderr length mismatch")
        if np.any(self.stderr < 0):
            raise ValueError("standard errors must be nonnegative")


def sample_detunings(seed: int, stream: int, points: Sequence[int], shots: int,
                     noise: NoiseModel) -> np.ndarray:
    """Quasi-static detuning vectors of every shot at the given tau points.

    Returns each point's (shots, k) block in turn, stacked to
    (len(points) * shots, k); a single index counts as one point. The seed,
    the stream and each point are read through model.key_word, so 0.5, True
    and "3" raise TypeError and an int outside [0, 2**64) ValueError, and
    shots through model.shot_count, as ExperimentPlan reads them; the
    points are type-checked as one tuple and range-checked at their min and
    max. Philox is
    keyed by (seed, stream), ExperimentPlan.stream for a plan, with the
    point index in the top counter word: each point's block is the same in
    any execution order and any selection of points, and more shots extend
    it. Draws are zero-mean Gaussians of width sqrt(2)/T2* per spin. Each
    thread draws from its own generator, made on its first call and reused
    by every later one. Before each point p every field of its state is
    written from plain ints: key (seed, stream), counter [0, 0, 0, p] and an
    empty buffer, the state a new Philox keyed by (seed, stream) at that
    counter starts in.
    """
    key = [key_word(seed, "seed"), key_word(stream, "stream")]
    shots = shot_count(shots, "shots")
    # numpy points as Python ints, so that a 0-d array is one point
    points = getattr(points, "tolist", lambda: points)()
    points = checked((int,), [points] if isinstance(points, Integral) else points, "points")
    for end in (min(points), max(points)) if points else ():
        key_word(end, "points")
    try:
        gen = _THREAD.generator
    except AttributeError:
        gen = _THREAD.generator = np.random.Generator(np.random.Philox(0))
    bg = gen.bit_generator
    # numpy's state setter indexes every word: plain ints read faster than numpy's
    counter = [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    k = len(noise.t2_star)
    out = np.empty((len(points), shots, k))
    for block, p in zip(out, points):
        counter[3] = p
        bg.state = state
        gen.standard_normal(out=block)
    out *= noise.sigma
    return out.reshape(-1, k)


@lru_cache(maxsize=256)
def readout_operator(readout: str) -> np.ndarray:
    """Operator M with readout value Re Tr(rho M): a Pauli word, F:<spec> or L:<label>.

    Built once per readout. The array is shared by every caller, so it is
    read-only.
    """
    if readout.startswith(FIDELITY_PREFIX):
        psi = resolve_state(readout[len(FIDELITY_PREFIX):])
        op = np.outer(psi, psi.conj())
    elif readout.startswith(LOGICAL_PREFIX):
        op = logical_operator(readout[len(LOGICAL_PREFIX):])
    else:
        op = pauli_matrix(readout)
    op.flags.writeable = False
    return op


class _Table(NamedTuple):
    """Kernel table of one readout: its cos-form coefficients per column.

    Entry e = (a, b) of rho has angle theta = (z_b - z_a)/2, split into
    theta_f on the spins the observable flips (X and Y letters) and theta_u
    on the others, and sigma, the sign of the first nonzero component of
    theta_f (0 when theta_f = 0). Its column is sigma theta_f + theta_u, so
    theta_f and -theta_f share one: each stored theta_f is 0 or has a
    positive first nonzero component. Column j of p, q and d holds the
    readout's P = w_e rho0[e], sigma Q with Q = iP, and D = w_e
    (project(O, rho0) - rho0)[e] (see _kernel), summed over the column's
    entries in flat order; a sum within its rounding bound dim**2 eps sum|t|
    of 0 is stored as 0. A column is kept where some coefficient is
    nonzero; a readout whose coefficients all vanish keeps the column of
    theta = 0 with zeros, so the table is never empty and reads exactly 0.
    The coefficients are stored real, and unflipped is None, unless some
    kept theta_u is nonzero, since then only their real parts reach the
    readout value. q or d is None when all of its coefficients are 0, as
    for a plan that starts in an eigenstate of its observable and reads an
    operator that commutes with it (every figure plan), or whose
    observable flips no spin (no Q). The kernel then skips that term. The
    arrays have the shapes _kernel broadcasts against a chunk's rows.
    """

    flipped: np.ndarray            # (columns, k, 1) theta_f
    unflipped: Optional[np.ndarray]  # (columns, k, 1) theta_u, None for a real table
    p: np.ndarray                  # (columns, 1)
    q: Optional[np.ndarray]        # (columns, 1), None if all 0
    d: Optional[np.ndarray]        # (columns, 1), None if all 0


@lru_cache(maxsize=256)
def _plan_table(initial_state: str, observable: str, readout: str) -> _Table:
    """Kernel table of one readout, built once per (initial state, observable, readout).

    The register size k is len(observable). rho0 is the initial state's
    F: readout operator, and the observable acts through channel.project,
    the one definition of the projection. Raises ValueError if the initial
    state or the readout operator does not fit the k-spin register. The
    arrays are shared by every caller, so they are read-only.
    """
    k = len(observable)
    dim = 2**k
    for i, spec in enumerate((FIDELITY_PREFIX + initial_state, readout)):
        if readout_operator(spec).shape != (dim, dim):
            what = f"readout {spec!r}" if i else f"initial state {initial_state!r}"
            raise ValueError(f"{what} does not match the {k}-spin register")
    weights = readout_operator(readout).T.ravel()
    rho0 = readout_operator(FIDELITY_PREFIX + initial_state)
    # entry e = (a, b) at flat index a dim + b has angle theta = (z_b - z_a)/2,
    # and joins the column of theta with its flipped part theta_f times sigma
    z = basis_signs(k)
    theta = 0.5 * (z[None, :] - z[:, None]).reshape(dim * dim, k)
    flips = np.array([letter in "XY" for letter in observable])
    flipped = np.where(flips, theta, 0.0)
    sigma = np.sign(flipped[np.arange(dim * dim), (flipped != 0).argmax(axis=1)])
    angles, index = np.unique(np.where(flips, sigma[:, None] * theta, theta), axis=0,
                              return_inverse=True)
    p = weights * rho0.ravel()
    terms = np.stack([p, 1j * sigma * p, weights * (project(observable, rho0) - rho0).ravel()])
    # each column's sums and the sums of their magnitudes, which bound the
    # rounding of a sum: a sum within that bound of 0 is stored as 0
    sums = np.zeros((2, len(terms), len(angles)), complex)
    np.add.at(sums, (Ellipsis, index.ravel()), np.stack([terms, abs(terms)]))
    coef, scale = sums
    coef[abs(coef) <= dim * dim * np.finfo(float).eps * scale.real] = 0
    # a column is kept where some coefficient is nonzero, else theta = 0's
    keep = coef.any(axis=0) if coef.any() else ~angles.any(axis=1)
    unflipped = np.where(flips, 0.0, angles)[keep, :, None]
    if not unflipped.any():
        coef, unflipped = coef.real, None
    p, q, d = coef[:, keep, None]
    table = _Table(np.where(flips, angles, 0.0)[keep, :, None], unflipped, p,
                   q if q.any() else None, d if d.any() else None)
    for arr in table:
        if arr is not None:
            arr.flags.writeable = False
    return table


def _kernel(plan: ExperimentPlan, deltas: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Readout values, shape (n_readouts, rows), for rows of (detunings, segment).

    Row i starts in the plan's initial state and alternates N+1 free
    segments of duration seg[i] under detunings deltas[i] with N
    projections of the plan observable, in closed form. A free segment
    multiplies entry e = (a, b) by exp(i alpha), alpha = seg delta.theta,
    theta = (z_b - z_a)/2 being its angle. Split theta into theta_f on the
    spins the observable flips and theta_u on the others (alpha_f, alpha_u
    likewise). The projection rho -> (rho + O rho O)/2 averages e with an
    entry of angle -theta_f + theta_u, so once rho = O rho O each further
    segment and projection multiplies e by exp(i alpha_u) cos alpha_f. With
    readout weights w, Re Tr(rho M) = Re sum_e w_e rho[e], entry e adds to
    the readout, for N >= 1,

        Re[exp(i(N+1) alpha_u) cos**(N-1) alpha_f
           w_e (rho0[e] exp(2i alpha_f) + (O rho0 O)[e]) / 2]
            = Re[exp(i(N+1) alpha_u) c**(N-1) (c (P c + Q s) + D)]

    with c, s = cos, sin alpha_f, P = w_e rho0[e], Q = iP and
    D = w_e (project(O, rho0) - rho0)[e]. At N = 0 it adds
    Re[exp(i alpha) w_e rho0[e]] = Re[exp(i alpha_u) (P c + Q s)]. P, Q and
    D depend only on the readout and the entry, and c is even in theta_f
    and s odd, so each readout's table (_Table) sums them per column
    sigma theta_f + theta_u, with Q times sigma, and a readout value is a
    short sum over its columns: the paper's cos-power form.

    The readouts run one after another, each on its own table, so a
    readout's values are the same bits whatever readouts share the plan.
    A readout's rows run in chunks of _CHUNK_ENTRIES // columns rows,
    computed on every call; one chunk that holds every row, as in every
    run_shot call, takes the arrays whole, with no slices. A chunk sums each
    column's phase over the spins with numpy, in a fixed order, rather than
    BLAS, along C-ordered rows; it takes one cos and one real power per
    column, a sin only when the table has Q terms, D only when it has D
    terms, and exp(i(N+1) alpha_u) only when the table is complex. For a
    table with neither Q nor D terms and N >= 4 a value is P c**(N+1),
    taken as one power |c|**(N+1) with the sign of c restored when N+1 is
    odd; otherwise the power is |c|**(N-1), with the sign restored when N-1
    is odd, skipped at N = 1. The columns are then summed one after another,
    straight into the readout's row of the output, reading the real part
    only of a complex table; the 8 or more columns of a lone row, which
    numpy would reduce pairwise, are summed as a running sum, so a row's
    values are the same bits alone, as in run_shot, or in any chunk.
    """
    n = plan.n_projections
    rows = len(seg)
    out = np.empty((len(plan.readout), rows))
    for readout, row in zip(plan.readout, out):
        flipped, unflipped, p, q, d = _plan_table(plan.initial_state, plan.observable, readout)
        one_power = n >= 4 and q is None and d is None
        # read on every call, so that a changed _CHUNK_ENTRIES takes effect
        chunk = _CHUNK_ENTRIES // len(p) or 1
        for lo in range(0, rows, chunk):
            # one chunk holding every row takes the arrays whole, unsliced
            if rows <= chunk:
                chunk_deltas, chunk_seg, chunk_out = deltas.T, seg, row
            else:
                hi = lo + chunk
                chunk_deltas, chunk_seg, chunk_out = deltas[lo:hi].T, seg[lo:hi], row[lo:hi]
            # C order, so the sum over spins below runs along contiguous rows
            step = np.multiply(chunk_deltas, chunk_seg, order="C")
            alpha = np.add.reduce(flipped * step, axis=1)
            c = np.cos(alpha)
            # numpy's power is slow on a negative base: raise |c|, then
            # restore the sign where the exponent is odd
            if one_power:
                power = np.abs(c) ** (n + 1)
                v = p * (np.copysign(power, c, out=power) if n % 2 == 0 else power)
            else:
                v = p * c
                if q is not None:
                    v += q * np.sin(alpha)
                if n:
                    v *= c
                    if d is not None:
                        v += d
                    # the power is 1 at N = 1
                    if n > 1:
                        power = np.abs(c) ** (n - 1)
                        v *= np.copysign(power, c, out=power) if n % 2 == 0 else power
            if unflipped is not None:
                v *= np.exp((n + 1) * 1j * np.add.reduce(unflipped * step, axis=1))
                v = v.real
            # numpy's reduce sums 8 or more columns of a lone row pairwise,
            # and the columns of more rows one after another, as accumulate
            # does for any row: a row has the same bits alone and in any chunk
            if len(chunk_out) == 1 and len(v) >= 8:
                chunk_out[:] = np.add.accumulate(v, axis=0)[-1]
            else:
                np.add.reduce(v, axis=0, out=chunk_out)
    return out


def run_shot(plan: ExperimentPlan, deltas: Sequence[float], tau: float) -> np.ndarray:
    """Deterministic single-shot readout values for fixed detunings.

    Prepares the initial state, alternates N+1 free segments of duration
    tau/(N+1) with N instantaneous projections of the plan observable, and
    evaluates each readout on the final density matrix: one row of the
    kernel that run_ensemble uses, in closed form with no loop over
    projections. The plan's tables are built once and reused by every call.
    tau and the detunings pass model.free_evolution.
    """
    tau, deltas = free_evolution(tau, deltas, plan.k, "tau x largest |detuning|")
    seg = np.array([tau / (plan.n_projections + 1)])
    return _kernel(plan, deltas[None, :], seg)[:, 0]


def run_ensemble(plan: ExperimentPlan) -> List[DecayCurve]:
    """Simulate the full tau grid; one DecayCurve per readout.

    Each tau point draws one detuning block, one vector per shot held fixed
    within the shot, and all points x shots run through the kernel as one
    flat batch. Output is deterministic for a given plan.
    """
    taus = np.asarray(plan.tau_grid, dtype=float)
    deltas = sample_detunings(plan.seed, plan.stream, range(taus.size), plan.shots,
                              plan.noise)
    seg = np.repeat(taus / (plan.n_projections + 1), plan.shots)
    vals = _kernel(plan, deltas, seg).reshape(-1, taus.size, plan.shots)
    means = vals.mean(axis=2)
    # the spread about each point's first shot, exactly 0 when every shot is equal
    vals -= vals[..., :1]
    errs = (vals.std(axis=2, ddof=1) / np.sqrt(plan.shots) if plan.shots > 1
            else np.zeros_like(means))
    meta = {
        "t2_star": list(plan.noise.t2_star),
        "initial_state": plan.initial_state,
        "observable": plan.observable,
        "n_projections": plan.n_projections,
        "shots": plan.shots,
        "seed": plan.seed,
    }
    return [DecayCurve(taus.copy(), m, e, plan.n_projections, r, dict(meta, readout=r))
            for r, m, e in zip(plan.readout, means, errs)]
