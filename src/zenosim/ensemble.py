"""Monte-Carlo simulation of dephasing interrupted by repeated projections.

Each shot draws one quasi-static detuning vector, evolves the register
through N+1 free segments separated by N projections of the chosen joint
observable, and evaluates the requested read-outs on the final density
matrix. Detunings are drawn as one block per tau point from Philox keyed
by (seed, plan stream), a digest of T2*, initial state, observable and N,
with the point index in the counter: reproducible in any execution order.

One kernel simulates a flat batch of (point, shot) rows in cache-sized
chunks, with no loop over projections: it evaluates each read-out entry
of the final density matrix in closed form, in one pass with a single
complex power for all N projections. :func:`run_ensemble` runs every
point and shot of a plan through it; :func:`run_shot` runs one row for
given detunings. The tables the kernel reads are built once per
(initial state, observable, readout).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .logical import logical_operator, resolve_state
from .spins import basis_signs, pauli_matrix, validate_word

FIDELITY_PREFIX = "F:"
LOGICAL_PREFIX = "L:"

# Entry pairs per kernel chunk: 2**13 complex128 is 128 KiB per working
# array, small enough for malloc to reuse rather than map afresh, and the
# chunk's dozen temporaries stay in L2.
_CHUNK_ENTRIES = 2**13

# Largest Monte-Carlo size of one plan, rows = tau points x shots. The
# detunings of a plan are drawn at once, so this bounds its memory too.
MAX_ROWS = 2**24

# Bound on the largest tau x largest detuning width of a plan, far below the
# float range, so that no drawn detuning's phase overflows to inf.
MAX_PHASE_SCALE = 1e300


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin Gaussian dephasing times T2* in ms."""

    t2_star: Tuple[float, ...]

    def __post_init__(self):
        if len(self.t2_star) == 0:
            raise ValueError("need at least one dephasing time")
        if not all(math.isfinite(t) and t > 0 for t in self.t2_star):
            raise ValueError("dephasing times must be finite and positive")
        if not all(math.isfinite(math.sqrt(2.0) / t) for t in self.t2_star):
            raise ValueError("dephasing times must give a finite width sqrt(2)/T2*")

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
        # any sequence is stored as a tuple, so the frozen plan stays hashable
        object.__setattr__(self, "readout", tuple(self.readout))
        validate_word(self.observable)
        if len(self.observable) != self.k:
            raise ValueError("observable length must match register size")
        if self.n_projections < 0:
            raise ValueError("projection count must be >= 0")
        if self.shots < 1:
            raise ValueError("need at least one shot")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        taus = np.asarray(self.tau_grid, dtype=float)
        if (taus.size == 0 or not np.all(np.isfinite(taus)) or np.any(taus < 0)
                or np.any(np.diff(taus) <= 0)):
            raise ValueError("tau grid must be nonempty, finite, nonnegative, "
                             "strictly increasing")
        if float(taus[-1]) * float(self.noise.sigma.max()) >= MAX_PHASE_SCALE:
            raise ValueError(f"largest tau x largest detuning width sqrt(2)/T2* "
                             f"must stay below {MAX_PHASE_SCALE:g}")
        if taus.size * self.shots > MAX_ROWS:
            raise ValueError(f"{taus.size} tau points x {self.shots} shots exceed "
                             f"the limit of {MAX_ROWS} Monte-Carlo rows per plan")
        if not self.readout:
            raise ValueError("need at least one readout")
        for readout in self.readout:
            _plan_tables(self.initial_state, self.observable, readout)

    @property
    def k(self) -> int:
        return len(self.noise.t2_star)

    @property
    def stream(self) -> int:
        """Second Philox key word: 64-bit blake2b of T2*, initial state, observable, N."""
        physics = repr((tuple(map(float, self.noise.t2_star)), self.initial_state,
                        self.observable, int(self.n_projections))).encode()
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


def sample_detunings(seed: int, stream: int, point_index: int, shots: int,
                     noise: NoiseModel) -> np.ndarray:
    """Quasi-static detuning vectors of every shot at one tau point, (shots, k).

    Philox keyed by (seed, stream), ExperimentPlan.stream for a plan, with
    the point index in the top counter word: each point's block is the same
    in any execution order, and more shots extend it. Draws are zero-mean
    Gaussians of width sqrt(2)/T2* per spin.
    """
    bg = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64),
                          counter=[0, 0, 0, np.uint64(point_index)])
    raw = np.random.Generator(bg).standard_normal((shots, len(noise.t2_star)))
    return raw * noise.sigma


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


def readout_operator(readout: str) -> np.ndarray:
    """Operator M with readout value Re Tr(rho M): a Pauli word, F:<spec> or L:<label>."""
    if readout.startswith(FIDELITY_PREFIX):
        psi = resolve_state(readout[len(FIDELITY_PREFIX):])
        return np.outer(psi, psi.conj())
    if readout.startswith(LOGICAL_PREFIX):
        return logical_operator(readout[len(LOGICAL_PREFIX):])
    return pauli_matrix(readout)


class _Tables(NamedTuple):
    """Kernel tables of one readout: one line per pair {e, e'} of its support.

    e = (a, b) is a density-matrix entry and e' = (p(a), p(b)) its mirror
    under O rho O, with sign sigma_e. Mirror-side columns are taken in the
    sigma frame, so the signs appear only here.
    """

    z: np.ndarray               # (k, dim) spin signs per basis state
    a: np.ndarray               # (pairs,) row index of e
    b: np.ndarray               # column index of e
    pa: np.ndarray              # p(a), row index of e'
    pb: np.ndarray              # p(b), column index of e'
    rho0: np.ndarray            # rho0[e]
    mirror0: np.ndarray         # sigma_e rho0[e']
    weights: np.ndarray         # readout weights of e
    mirror_weights: np.ndarray  # sigma_e times the weight of e'; 0 when e' = e


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
    rho0 = np.outer(psi, psi.conj()).ravel()
    tables = _Tables(z=basis_signs(k).T, a=e // dim, b=e % dim, pa=m // dim, pb=m % dim,
                     rho0=rho0[e], mirror0=sigma[e] * rho0[m], weights=weights[e],
                     mirror_weights=np.where(m != e, sigma[e] * weights[m], 0))
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _kernel(plan: ExperimentPlan, deltas: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Readout values, shape (n_readouts, rows), for rows of (detunings, segment).

    Row i starts in the plan's initial state and alternates N+1 free
    segments of duration seg[i] under detunings deltas[i] with N
    projections of the plan observable, in closed form. A free segment
    multiplies entry e = (a, b) by the phase phi_e = u_a conj(u_b). The
    projection (rho + O rho O)/2 leaves rho[e'] = sigma_e rho[e], after
    which each further segment and projection multiplies the pair by
    g = (phi_e + phi_e')/2. So, for N >= 1,

        rho_N[e] = phi_e/2 g**(N-1) (phi_e rho0[e] + sigma_e phi_e' rho0[e'])

    and rho_N[e'] = sigma_e phi_e'/phi_e rho_N[e], while rho_0[e] = phi_e rho0[e].
    Only the readout support is evaluated, one line per pair {e, e'}: one
    exp per basis state, a fixed number of products per pair and one
    complex power g**(N-1). Each readout runs alone on its own tables, in
    chunks of _CHUNK_ENTRIES // pairs rows, so its values are bit-identical
    whatever other readouts share the plan.
    """
    n = plan.n_projections
    rows = len(seg)
    out = np.empty((len(plan.readout), rows))
    for r, readout in enumerate(plan.readout):
        t = _plan_tables(plan.initial_state, plan.observable, readout)
        chunk = max(1, _CHUNK_ENTRIES // max(1, len(t.a)))
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            u = np.exp(-0.5j * seg[lo:hi, None] * (deltas[lo:hi] @ t.z))
            v = u.conj()
            phi = u[:, t.a] * v[:, t.b]
            phi_m = u[:, t.pa] * v[:, t.pb]
            # y = rho[e] and y_m = sigma_e rho[e'], after the first segment
            y, y_m = phi * t.rho0, phi_m * t.mirror0
            if n:
                x = 0.5 * (y + y_m) * (0.5 * (phi + phi_m)) ** (n - 1)
                y, y_m = x * phi, x * phi_m
            out[r, lo:hi] = (y @ t.weights + y_m @ t.mirror_weights).real
    return out


def run_shot(plan: ExperimentPlan, deltas: Sequence[float], tau: float) -> np.ndarray:
    """Deterministic single-shot readout values for fixed detunings.

    Prepares the initial state, alternates N+1 free segments of duration
    tau/(N+1) with N instantaneous projections of the plan observable, and
    evaluates each readout on the final density matrix: one row of the
    kernel that run_ensemble uses, in closed form with no loop over
    projections. The plan's tables are built once and reused by every call.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"evolution time must be finite and >= 0, got {tau}")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (plan.k,):
        raise ValueError(f"expected {plan.k} detunings, got shape {deltas.shape}")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("detunings must be finite")
    seg = np.array([tau / (plan.n_projections + 1)])
    return _kernel(plan, deltas[None, :], seg)[:, 0]


def run_ensemble(plan: ExperimentPlan) -> List[DecayCurve]:
    """Simulate the full tau grid; one DecayCurve per readout.

    Each tau point draws one detuning block, one vector per shot held fixed
    within the shot, and all points x shots run through the kernel as one
    flat batch. Output is deterministic for a given plan.
    """
    taus = np.asarray(plan.tau_grid, dtype=float)
    stream = plan.stream
    deltas = np.concatenate([sample_detunings(plan.seed, stream, p, plan.shots,
                                              plan.noise) for p in range(taus.size)])
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
