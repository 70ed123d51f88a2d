"""Monte-Carlo simulation of dephasing interrupted by repeated projections.

Each shot draws one quasi-static detuning vector, evolves the register
through N+1 free segments separated by N projections of the chosen joint
observable, and evaluates the requested read-outs on the final density
matrix. Detunings are drawn as one block per tau point from Philox keyed
by (seed, plan stream), a digest of T2*, initial state, observable and N,
with the point index in the counter: reproducible in any execution order.
A plan draws from one generator, whose counter is reset before each point.

One kernel simulates a flat batch of (point, shot) rows in cache-sized
chunks, with no loop over projections: it evaluates each read-out entry
of the final density matrix in closed form, in one pass with a single
complex power for all N projections. An entry's free-evolution phase
depends only on its pair angle, so each chunk takes one exp per distinct
pair angle of the plan, shared by every readout. :func:`run_ensemble`
runs every point and shot of a plan through it; :func:`run_shot` runs one
row for given detunings. The tables the kernel reads are built once per
(initial state, observable, readout), the plan's phase table once per
(initial state, observable, readouts), and each readout operator once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .logical import logical_operator, resolve_state
from .model import checked, dephasing_times, detunings, evolution_time, phase_scale
from .spins import basis_signs, pauli_matrix, validate_word

FIDELITY_PREFIX = "F:"
LOGICAL_PREFIX = "L:"

# Entries of a kernel chunk's largest array (rows x the plan's widest phase
# block or readout): 2**13 complex128 is 128 KiB per working array, small
# enough for malloc to reuse rather than map afresh, and the chunk's dozen
# temporaries stay in L2.
_CHUNK_ENTRIES = 2**13

# Largest Monte-Carlo size of one plan, rows = tau points x shots. The
# detunings of a plan are drawn at once, so this bounds its memory too.
MAX_ROWS = 2**24


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

    The plan is the one gate for an experiment's description. Each field is
    checked and stored as a built-in type (model.checked): the state and
    observable as str, the readouts as a tuple of str, the tau grid as a
    float tuple, and N, shots and seed as int. numpy scalars pass, so
    np.int64(2) is stored as 2; a bool, a fractional N, shot count or seed,
    a string where a number belongs and a bare string of readouts raise
    TypeError. Equal plans therefore stream, hash and print alike. A value
    out of range raises ValueError, as does N or seed outside [0, 2**64).
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
        for name, kind in (("initial_state", str), ("observable", str), ("readout", (str,)),
                           ("n_projections", int), ("tau_grid", (float,)), ("shots", int),
                           ("seed", int)):
            object.__setattr__(self, name, checked(kind, getattr(self, name), name))
        validate_word(self.observable)
        if len(self.observable) != self.k:
            raise ValueError("observable length must match register size")
        for name in ("n_projections", "seed"):
            if not 0 <= getattr(self, name) < 2**64:
                raise ValueError(f"{name} {getattr(self, name)} is not in [0, 2**64)")
        if self.shots < 1:
            raise ValueError("need at least one shot")
        taus = self.tau_grid
        # b > a is false for a NaN, and a strictly increasing grid is finite
        # and nonnegative when its two ends are
        if not taus or not all(b > a for a, b in zip(taus, taus[1:])):
            raise ValueError("tau grid must be nonempty and strictly increasing")
        evolution_time(taus[0])
        evolution_time(taus[-1])
        phase_scale(taus[-1], self.noise.sigma,
                    "largest tau x largest detuning width sqrt(2)/T2*")
        if len(taus) * self.shots > MAX_ROWS:
            raise ValueError(f"{len(taus)} tau points x {self.shots} shots exceed "
                             f"the limit of {MAX_ROWS} Monte-Carlo rows per plan")
        if not self.readout:
            raise ValueError("need at least one readout")
        _phase_table(self.initial_state, self.observable, self.readout)

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
    (len(points) * shots, k); a single index counts as one point. Philox is
    keyed by (seed, stream), ExperimentPlan.stream for a plan, with the
    point index in the top counter word: each point's block is the same in
    any execution order and any selection of points, and more shots extend
    it. Draws are zero-mean Gaussians of width sqrt(2)/T2* per spin. One
    generator serves every point: before each point p its state is reset to
    counter [0, 0, 0, p] with an empty buffer, which is the state a new
    Philox keyed by (seed, stream) at that counter starts in.
    """
    points = np.atleast_1d(np.asarray(points, dtype=np.uint64))
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    gen = np.random.Generator(bg)
    state = dict(bg.state, buffer_pos=4, has_uint32=0)
    counter = state["state"]["counter"]
    out = np.empty((points.size * shots, len(noise.t2_star)))
    for i, p in enumerate(points):
        counter[3] = p
        bg.state = state
        gen.standard_normal(out=out[i * shots:(i + 1) * shots])
    out *= noise.sigma
    return out


def _word_action(word: str) -> Tuple[np.ndarray, np.ndarray]:
    """Permutation p and signs s with (O rho O)[a, b] = s[a] s[b] rho[p[a], p[b]].

    A Pauli word maps basis state |b> to c_b |b ^ m>: X and Y letters set
    the flip mask m, and Y and Z letters make c_b a fixed phase times -1 for
    each of their bits set in b. The fixed phase cancels in O rho O.
    """
    k = len(word)
    flip = sum(1 << (k - 1 - i) for i, c in enumerate(word) if c in "XY")
    perm = np.arange(2**k) ^ flip
    phased = [i for i, c in enumerate(word) if c in "YZ"]
    return perm, basis_signs(k)[perm][:, phased].prod(axis=1)


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
        # a copy: a one-letter word's matrix is the spins module's own array
        op = pauli_matrix(readout).copy()
    op.flags.writeable = False
    return op


class _Tables(NamedTuple):
    """Kernel tables of one readout, one entry per pair {e, e'} of its support.

    Index 0 of the first axis holds the entries e = (a, b), index 1 their
    mirrors e' = (p(a), p(b)) under O rho O, with sign sigma_e. Mirror-side
    values are taken in the sigma frame, so the signs appear only here.
    rho0 and weights end in an axis of length 1 that broadcasts over rows.
    """

    angles: np.ndarray   # (2, pairs, k) pair angle (z_b - z_a)/2 of e and e'
    rho0: np.ndarray     # (2, pairs, 1) rho0[e] and sigma_e rho0[e']
    weights: np.ndarray  # (2, pairs, 1) weight of e and sigma_e times that of e', 0 if e' = e


@lru_cache(maxsize=256)
def _plan_tables(initial_state: str, observable: str, readout: str) -> _Tables:
    """Kernel tables of a readout, built once per (initial state, observable, readout).

    The register size k is len(observable). The support is every entry
    with a nonzero readout weight, joined with its mirror; each pair
    {e, e'} appears once, as its smaller flat index e. Raises ValueError
    if the initial state or the readout operator does not fit the k-spin
    register. The arrays are shared by every caller, so they are read-only.
    """
    k = len(observable)
    dim = 2**k
    psi = resolve_state(initial_state)
    if psi.shape != (dim,):
        raise ValueError(f"initial state {initial_state!r} does not match "
                         f"the {k}-spin register")
    op = readout_operator(readout)
    if op.shape != (dim, dim):
        raise ValueError(f"readout {readout!r} does not match the {k}-spin register")
    weights = op.T.ravel()
    perm, sign = _word_action(observable)
    mirror = (perm[:, None] * dim + perm[None, :]).ravel()
    sigma = np.outer(sign, sign).ravel()
    weighted = weights != 0
    e = np.flatnonzero((weighted | weighted[mirror]) & (np.arange(dim * dim) <= mirror))
    m = mirror[e]
    both = np.stack([e, m])
    z = basis_signs(k)
    rho0 = np.outer(psi, psi.conj()).ravel()
    tables = _Tables(angles=0.5 * (z[both % dim] - z[both // dim]),
                     rho0=np.stack([rho0[e], sigma[e] * rho0[m]])[..., None],
                     weights=np.stack([weights[e], np.where(m != e, sigma[e] * weights[m],
                                                            0)])[..., None])
    for arr in tables:
        arr.flags.writeable = False
    return tables


class _Phases(NamedTuple):
    """Phase table of a plan: every distinct pair angle of all its readouts.

    A chunk's phase block is exp(i angles @ delta seg), one line per angle
    and one column per row. The zero angle, always present, and each
    angle's negative are ordinary lines, so the block is a single exp and a
    diagonal readout adds no line. lines[r] maps the (2, pairs) entries of
    readout r, whose tables are tables[r], to their block lines.
    """

    angles: np.ndarray             # (distinct angles, k)
    tables: Tuple[_Tables, ...]    # per readout
    lines: Tuple[np.ndarray, ...]  # per readout, (2, pairs) block line of e and e'
    width: int                     # lines of a chunk's largest array: block or readout


@lru_cache(maxsize=256)
def _phase_table(initial_state: str, observable: str,
                 readouts: Tuple[str, ...]) -> _Phases:
    """Phase table of a plan, built once per (initial state, observable, readouts).

    A line holds one angle whatever readouts share the plan, so a readout's
    phases are the same alone or beside others. The arrays are shared by
    every caller, so they are read-only.
    """
    k = len(observable)
    tables = tuple(_plan_tables(initial_state, observable, r) for r in readouts)
    flat = [t.angles.reshape(-1, k) for t in tables]
    # the zero angle leads the list, so it is always a line of the block
    angles, index = np.unique(np.concatenate([np.zeros((1, k)), *flat]), axis=0,
                              return_inverse=True)
    index = np.split(index.ravel()[1:], np.cumsum([len(f) for f in flat])[:-1])
    lines = tuple(i.reshape(t.angles.shape[:2]) for i, t in zip(index, tables))
    for arr in (angles, *lines):
        arr.flags.writeable = False
    return _Phases(angles, tables, lines, max(len(angles), *(len(f) for f in flat)))


def _kernel(plan: ExperimentPlan, deltas: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Readout values, shape (n_readouts, rows), for rows of (detunings, segment).

    Row i starts in the plan's initial state and alternates N+1 free
    segments of duration seg[i] under detunings deltas[i] with N
    projections of the plan observable, in closed form. A free segment
    multiplies entry e = (a, b) by the phase phi_e = exp(i seg delta.theta_e)
    of its pair angle theta_e = (z_b - z_a)/2. The projection
    (rho + O rho O)/2 leaves rho[e'] = sigma_e rho[e], after which each
    further segment and projection multiplies the pair by
    g = (phi_e + phi_e')/2. So, for N >= 1,

        rho_N[e] = phi_e/2 g**(N-1) (phi_e rho0[e] + sigma_e phi_e' rho0[e'])

    and rho_N[e'] = sigma_e phi_e'/phi_e rho_N[e], while rho_0[e] = phi_e rho0[e].
    Only the readout support is evaluated, one pair {e, e'} at a time. Rows
    run in chunks of _CHUNK_ENTRIES // width rows (see _Phases). A chunk
    takes one exp per distinct pair angle of the plan (the phase block, one
    line per angle and one column per row); each readout gathers the lines
    of its phi_e and phi_e', forms g**(N-1) with one complex power and sums
    its weighted entries line by line, in a fixed order, with numpy rather
    than BLAS. A block line does not depend on the others, so a readout's
    values are bit-identical whatever readouts share the plan.
    """
    n = plan.n_projections
    phases = _phase_table(plan.initial_state, plan.observable, plan.readout)
    rows = len(seg)
    out = np.empty((len(phases.tables), rows))
    chunk = max(1, _CHUNK_ENTRIES // phases.width)
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        block = np.exp(phases.angles @ deltas[lo:hi].T * seg[lo:hi] * 1j)
        for r, (t, lines) in enumerate(zip(phases.tables, phases.lines)):
            phi = block[lines]
            # rho[e] and sigma_e rho[e'], after the first segment
            y = phi * t.rho0
            if n:
                y = phi * (0.5 * (y[0] + y[1]) * (0.5 * (phi[0] + phi[1])) ** (n - 1))
            out[r, lo:hi] = (y * t.weights).reshape(-1, hi - lo).sum(axis=0).real
    return out


def run_shot(plan: ExperimentPlan, deltas: Sequence[float], tau: float) -> np.ndarray:
    """Deterministic single-shot readout values for fixed detunings.

    Prepares the initial state, alternates N+1 free segments of duration
    tau/(N+1) with N instantaneous projections of the plan observable, and
    evaluates each readout on the final density matrix: one row of the
    kernel that run_ensemble uses, in closed form with no loop over
    projections. The plan's tables are built once and reused by every call.
    tau passes model.evolution_time, the detunings model.detunings, and
    both together the phase bound model.phase_scale.
    """
    tau = evolution_time(tau)
    deltas = detunings(deltas, plan.k)
    phase_scale(tau, deltas, "tau x largest |detuning|")
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
