"""Dense linear algebra for small registers of spin-1/2 particles.

Everything here works on explicit complex matrices. Registers are limited
to four spins (dimension 16), so dense operations are both exact and fast.
The computational basis is ordered with the first spin as the most
significant bit, consistent with the tensor-product order of Pauli words.

Phase convention: under a detuning ``delta`` (rad/ms) a single-spin
coherence rho_01 acquires the phase factor ``exp(-1j * delta * t)`` after a
time ``t`` (ms). With detunings drawn from a Gaussian of width
``sqrt(2)/T2star`` this yields the ensemble decay ``exp(-(t/T2star)**2)``.

Array rule: the shared single-spin tables (PAULI, _KETS) are read-only,
and every array a function here builds and returns is a fresh one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import MAX_SPINS, free_evolution

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Single-spin kets for product-state construction.
_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "X": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-X": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "Y": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "-Y": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}
for _factor in (*PAULI.values(), *_KETS.values()):
    _factor.flags.writeable = False
del _factor


def validate_word(word: str) -> str:
    """Check that ``word`` is a valid Pauli word for at most MAX_SPINS spins."""
    if not 1 <= len(word) <= MAX_SPINS:
        raise ValueError(f"word length must be 1..{MAX_SPINS}, got {len(word)}")
    for c in word:
        if c not in PAULI:
            raise ValueError(f"invalid Pauli letter {c!r} in word {word!r}")
    return word


def pauli_matrix(word: str) -> np.ndarray:
    """Tensor product of single-spin Pauli matrices, first letter outermost."""
    m = np.ones((1, 1), dtype=complex)
    for c in validate_word(word):
        m = np.kron(m, PAULI[c])
    return m


def product_ket(factors: Sequence[str]) -> np.ndarray:
    """Pure product state vector from single-spin labels in {0,1,X,-X,Y,-Y}."""
    if not 1 <= len(factors) <= MAX_SPINS:
        raise ValueError(f"need 1..{MAX_SPINS} factors, got {len(factors)}")
    psi = np.ones(1, dtype=complex)
    for label in factors:
        if label not in _KETS:
            raise ValueError(f"unknown state label {label!r}")
        psi = np.kron(psi, _KETS[label])
    return psi


def product_state(factors: Sequence[str]) -> np.ndarray:
    """Pure product density matrix from single-spin labels."""
    psi = product_ket(factors)
    return np.outer(psi, psi.conj())


def num_spins(rho: np.ndarray) -> int:
    """Register size of a density matrix; raises on non-power-of-two dims."""
    dim = rho.shape[0]
    k = dim.bit_length() - 1
    if rho.shape != (dim, dim) or 2**k != dim or not 1 <= k <= MAX_SPINS:
        raise ValueError(f"bad density-matrix shape {rho.shape}")
    return k


def basis_signs(k: int) -> np.ndarray:
    """(2**k, k) array of z-eigenvalues (+1/-1) per basis state and spin."""
    idx = np.arange(2**k)
    bits = (idx[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1
    return 1 - 2 * bits


def evolve_dephasing(rho: np.ndarray, deltas: Sequence[float], t: float) -> np.ndarray:
    """Evolve under the diagonal detuning Hamiltonian for a time t (ms).

    Basis state b picks up ``exp(-1j * (t/2) * sum_i deltas[i] * s_i)`` with
    ``s_i = +1`` for bit 0 and ``-1`` for bit 1, so each single-spin
    coherence rotates by ``exp(-1j * delta_i * t)``. t and the detunings
    pass model.free_evolution.
    """
    k = num_spins(rho)
    t, deltas = free_evolution(t, deltas, k, "evolution time x largest |detuning|")
    phases = np.exp(-0.5j * t * basis_signs(k) @ deltas)
    return phases[:, None] * rho * phases.conj()[None, :]


def expectation(rho: np.ndarray, word: str) -> float:
    """Real expectation value Tr[rho O] of a Pauli word."""
    k = num_spins(rho)
    if len(word) != k:
        raise ValueError(f"word length {len(word)} != register size {k}")
    val = np.trace(rho @ pauli_matrix(word))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag}")
    return float(val.real)


def state_fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi|rho|psi> with a normalized pure target state."""
    k = num_spins(rho)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2**k,):
        raise ValueError(f"target shape {psi.shape} does not match dim {2**k}")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"target state not normalized (norm {norm})")
    val = psi.conj() @ rho @ psi
    return float(val.real)
