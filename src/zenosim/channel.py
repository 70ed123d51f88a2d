"""Non-selective projection channel of a joint Pauli observable.

The channel maps rho to (rho + O rho O)/2, i.e. the state is left
block-diagonal with respect to the +1/-1 eigenspaces of the observable.
The measurement outcome is never recorded, so there is no selective
(post-selected) mode. ``ancilla_project`` realizes the same channel by
entangling an ancilla qubit with the eigenspaces, measuring it in the
computational basis and discarding it; the two routes must agree.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .spins import num_spins, pauli_matrix, validate_word


def projectors(word: str) -> Tuple[np.ndarray, np.ndarray]:
    """(P_plus, P_minus) = (I +/- O)/2, the +1/-1 eigenspace projectors of a word."""
    validate_word(word)
    if set(word) == {"I"}:
        raise ValueError("identity word has no nontrivial eigenspace split")
    o = pauli_matrix(word)
    eye = np.eye(o.shape[0])
    return (eye + o) / 2, (eye - o) / 2


def project(word: str, rho: np.ndarray) -> np.ndarray:
    """Apply the non-selective projection channel of the given observable."""
    k = num_spins(rho)
    if len(word) != k:
        raise ValueError(f"word length {len(word)} != register size {k}")
    o = pauli_matrix(word)
    return (rho + o @ rho @ o) / 2


def ancilla_project(rho: np.ndarray, word: str) -> np.ndarray:
    """Projection channel realized through an explicit ancilla qubit.

    The register is extended by an ancilla in |0>, a parity-entangling
    unitary maps the +1 (-1) eigenspace of the observable to ancilla |0>
    (|1>), the ancilla is measured non-selectively in the computational
    basis and traced out. Channel-equivalent to :func:`project`.
    """
    k = num_spins(rho)
    if len(word) != k:
        raise ValueError(f"word length {len(word)} != register size {k}")
    dim = 2**k
    p_plus, p_minus = projectors(word)

    # System (x) ancilla, ancilla least significant. Entangler: controlled
    # flip of the ancilla on the -1 eigenspace.
    anc0 = np.array([[1, 0], [0, 0]], dtype=complex)
    rho_ext = np.kron(rho, anc0)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.kron(p_plus, np.eye(2)) + np.kron(p_minus, sx)
    rho_ext = u @ rho_ext @ u.conj().T

    # Non-selective ancilla measurement: zero the ancilla coherences.
    m0 = np.kron(np.eye(dim), anc0)
    m1 = np.kron(np.eye(dim), np.array([[0, 0], [0, 1]], dtype=complex))
    rho_ext = m0 @ rho_ext @ m0 + m1 @ rho_ext @ m1

    # Re-initialization to |0> and partial trace over the ancilla.
    ext = rho_ext.reshape(dim, 2, dim, 2)
    return ext[:, 0, :, 0] + ext[:, 1, :, 1]
