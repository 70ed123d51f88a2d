"""Monte-Carlo simulation of dephasing interrupted by repeated projections.

Each shot draws one quasi-static detuning vector, evolves the register
through N+1 free segments separated by N projections of the chosen joint
observable, and evaluates the requested read-outs on the final density
matrix. Detunings are drawn as one block per tau point from a Philox
stream keyed by (seed, point), so results are reproducible independent of
execution order or batching.

One kernel simulates a flat batch of (point, shot) rows in cache-sized
chunks. :func:`run_ensemble` runs every point and shot of a plan through
it; :func:`run_shot` runs one row for given detunings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .logical import resolve_state
from .spins import basis_signs, pauli_matrix, validate_word

FIDELITY_PREFIX = "F:"

# Density-matrix entries per kernel chunk: 2**16 complex128 is 1 MiB per
# working array, so a chunk's state, mirror and step arrays stay in L2.
_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin Gaussian dephasing times T2* in ms."""

    t2_star: Tuple[float, ...]

    def __post_init__(self):
        if len(self.t2_star) == 0:
            raise ValueError("need at least one dephasing time")
        if not all(math.isfinite(t) and t > 0 for t in self.t2_star):
            raise ValueError("dephasing times must be finite and positive")

    @property
    def sigma(self) -> np.ndarray:
        """Detuning widths sqrt(2)/T2* in rad/ms."""
        return np.sqrt(2.0) / np.asarray(self.t2_star)


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one simulated projection experiment.

    readout entries are Pauli words ("XX") for correlators or "F:<spec>"
    for state fidelity with a resolvable state spec (see resolve_state).
    The initial state, every fidelity target and every readout word must
    fit the register of k = len(noise.t2_star) spins.
    amplitude/offset are carried for analysis-time comparison curves only.
    """

    noise: NoiseModel
    initial_state: str
    observable: str
    readout: Tuple[str, ...]
    n_projections: int
    tau_grid: Tuple[float, ...]
    shots: int
    seed: int
    amplitude: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
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
        if not self.readout:
            raise ValueError("need at least one readout")
        dim = 2**self.k
        if resolve_state(self.initial_state).shape != (dim,):
            raise ValueError(f"initial state {self.initial_state!r} does not match "
                             f"the {self.k}-spin register")
        for r in self.readout:
            if r.startswith(FIDELITY_PREFIX):
                if resolve_state(r[len(FIDELITY_PREFIX):]).shape != (dim,):
                    raise ValueError(f"fidelity target {r!r} does not match "
                                     f"the {self.k}-spin register")
            elif len(validate_word(r)) != self.k:
                raise ValueError(f"readout word {r!r} does not match "
                                 f"the {self.k}-spin register")

    @property
    def k(self) -> int:
        return len(self.noise.t2_star)


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


def sample_detunings(seed: int, point_index: int, shots: int,
                     noise: NoiseModel) -> np.ndarray:
    """Quasi-static detuning vectors of every shot at one tau point, (shots, k).

    One Philox stream per (seed, point): the seed is the key and the point
    index sits in the top counter word, so each point's block is the same
    in any execution order. Draws are zero-mean Gaussians of width
    sqrt(2)/T2* per spin.
    """
    bg = np.random.Philox(key=np.uint64(seed),
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


def _readout_weights(plan: ExperimentPlan) -> np.ndarray:
    """(dim**2, n_readouts) matrix w with readout values Re(rho.ravel() @ w)."""
    cols = []
    for r in plan.readout:
        if r.startswith(FIDELITY_PREFIX):
            psi = resolve_state(r[len(FIDELITY_PREFIX):])
            cols.append(np.outer(psi.conj(), psi).ravel())
        else:
            cols.append(pauli_matrix(r).T.ravel())
    return np.stack(cols, axis=1)


def _kernel(plan: ExperimentPlan, deltas: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Readout values, shape (rows, n_readouts), for rows of (detunings, segment).

    Row i starts in the plan's initial state and alternates N+1 free
    segments of duration seg[i] under detunings deltas[i] with N
    projections of the plan observable. Rows run in chunks of
    _CHUNK_ENTRIES // dim**2, each density matrix flattened to dim**2
    entries: evolution is an in-place product with the phase outer
    product, and the projection a gather by the observable's index
    permutation times its signs.
    """
    k = plan.k
    dim = 2**k
    psi = resolve_state(plan.initial_state)
    rho0 = np.outer(psi, psi.conj()).ravel()
    weights = _readout_weights(plan)
    perm, sign = _word_action(plan.observable)
    flat_perm = (perm[:, None] * dim + perm[None, :]).ravel()
    flat_sign = np.outer(sign, sign).ravel()
    signed = not np.all(flat_sign == 1)
    z = basis_signs(k).T

    rows = len(seg)
    chunk = max(1, _CHUNK_ENTRIES // dim**2)
    out = np.empty((rows, weights.shape[1]))
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        u = np.exp(-0.5j * seg[lo:hi, None] * (deltas[lo:hi] @ z))
        step = (u[:, :, None] * u.conj()[:, None, :]).reshape(hi - lo, dim * dim)
        rho = step * rho0
        if plan.n_projections:
            step *= 0.5  # the projection's 1/2, folded into the next segment
            mirrored = np.empty_like(rho)
            for _ in range(plan.n_projections):
                np.take(rho, flat_perm, axis=1, out=mirrored, mode="clip")
                if signed:
                    mirrored *= flat_sign
                rho += mirrored
                rho *= step
        out[lo:hi] = (rho @ weights).real
    return out


def run_shot(plan: ExperimentPlan, deltas: Sequence[float], tau: float) -> np.ndarray:
    """Deterministic single-shot readout values for fixed detunings.

    Prepares the initial state, alternates N+1 free segments of duration
    tau/(N+1) with N instantaneous projections of the plan observable, and
    evaluates each readout on the final density matrix: one row of the
    kernel that run_ensemble uses.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"evolution time must be finite and >= 0, got {tau}")
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (plan.k,):
        raise ValueError(f"expected {plan.k} detunings, got shape {deltas.shape}")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("detunings must be finite")
    seg = np.array([tau / (plan.n_projections + 1)])
    return _kernel(plan, deltas[None, :], seg)[0]


def run_ensemble(plan: ExperimentPlan) -> List[DecayCurve]:
    """Simulate the full tau grid; one DecayCurve per readout.

    Each tau point draws one detuning block, one vector per shot held fixed
    within the shot, and all points x shots run through the kernel as one
    flat batch. Output is deterministic for a given plan.
    """
    taus = np.asarray(plan.tau_grid, dtype=float)
    deltas = np.concatenate([sample_detunings(plan.seed, p, plan.shots, plan.noise)
                             for p in range(taus.size)])
    seg = np.repeat(taus / (plan.n_projections + 1), plan.shots)
    vals = _kernel(plan, deltas, seg).reshape(taus.size, plan.shots, -1)
    means = vals.mean(axis=1)
    if plan.shots > 1:
        errs = vals.std(axis=1, ddof=1) / np.sqrt(plan.shots)
    else:
        errs = np.zeros_like(means)
    meta = {
        "t2_star": list(plan.noise.t2_star),
        "initial_state": plan.initial_state,
        "observable": plan.observable,
        "n_projections": plan.n_projections,
        "shots": plan.shots,
        "seed": plan.seed,
        "amplitude": plan.amplitude,
        "offset": plan.offset,
    }
    return [
        DecayCurve(taus.copy(), means[:, i].copy(), errs[:, i].copy(),
                   plan.n_projections, plan.readout[i],
                   dict(meta, readout=plan.readout[i]))
        for i in range(len(plan.readout))
    ]
