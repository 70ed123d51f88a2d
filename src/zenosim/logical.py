"""Logical-qubit encodings inside the projected eigenspaces.

Two-spin register: one logical qubit in the <XX> = +1 subspace with
|0>_L = |X,X>, |1>_L = |-X,-X>, logical Z = XI and logical X = ZZ.
Three-spin register: two logical qubits in the <XXX> = +1 subspace with
Z_L1 = XIX, X_L1 = IZZ, Z_L2 = IXX, X_L2 = ZIZ.

All logical operators commute with the projected observable, so the
projection channel preserves every logical expectation value exactly.
"""

from __future__ import annotations

from typing import Mapping, Tuple

import numpy as np

from .spins import pauli_matrix, product_ket

_SQ2 = np.sqrt(2.0)


def _logical_kets() -> Mapping[str, np.ndarray]:
    """Label -> ket of every two-spin and three-spin logical state, read-only."""
    zero, one = product_ket(["X", "X"]), product_ket(["-X", "-X"])
    b00 = product_ket(["X", "X", "X"])
    b10 = product_ket(["X", "-X", "-X"])
    b11 = product_ket(["-X", "-X", "X"])
    kets = {
        "0L": zero,
        "1L": one,
        "+L": (zero + one) / _SQ2,
        "-L": (zero - one) / _SQ2,
        "+iL": (zero + 1j * one) / _SQ2,
        "-iL": (zero - 1j * one) / _SQ2,
        "00L": b00,
        "X0L": (b00 + b10) / _SQ2,
        "PhiPlusL": (b00 + b11) / _SQ2,
    }
    for ket in kets.values():
        ket.flags.writeable = False
    return kets


_STATES = _logical_kets()

# Fidelity levels: above 2/3 beats any classical memory, and above 1/2 a
# Bell-type two-spin state is entangled (witness).
CLASSICAL_MEMORY = 2.0 / 3.0
ENTANGLEMENT_WITNESS = 0.5

CARDINAL_2SPIN = ("0L", "1L", "+L", "-L", "+iL", "-iL")
ENTANGLED_2SPIN = ("+L", "-L", "+iL", "-iL")
LOGICAL_3SPIN = ("00L", "X0L", "PhiPlusL")

LOGICAL_OPS_2SPIN = {"Z": ("XI", 1.0), "X": ("ZZ", 1.0), "Y": ("YZ", -1.0)}
LOGICAL_OPS_3SPIN = {
    "Z1": ("XIX", 1.0), "X1": ("IZZ", 1.0),
    "Z2": ("IXX", 1.0), "X2": ("ZIZ", 1.0),
}

# Per-label correlator components of the restricted logical fidelity:
# F = (1 + sum coeff * <word>) / 2**m with m read-out logical qubits.
# Signs fold together the Pauli-product phase (e.g. Y_L = -YZ) and the
# target's stabilizer eigenvalue.
_COMPONENTS = {
    "0L": (("XI", 1.0),),
    "1L": (("XI", -1.0),),
    "+L": (("ZZ", 1.0),),
    "-L": (("ZZ", -1.0),),
    "+iL": (("YZ", -1.0),),
    "-iL": (("YZ", 1.0),),
    "00L": (("XIX", 1.0), ("IXX", 1.0), ("XXI", 1.0)),
    "X0L": (("IZZ", 1.0), ("IXX", 1.0), ("IYY", -1.0)),
    "PhiPlusL": (("ZZI", 1.0), ("XXI", 1.0), ("YYI", -1.0)),
}


def logical_target(label: str) -> np.ndarray:
    """Pure target state vector for a logical label (either register size), read-only."""
    if label not in _STATES:
        raise ValueError(f"unknown logical label {label!r}")
    return _STATES[label]


def resolve_state(spec: str) -> np.ndarray:
    """State vector from a spec: comma-separated product labels or a logical label.

    Examples: "X,X,X" (product state), "+iL" (two-spin logical), "PhiPlusL".
    """
    if "," in spec:
        return product_ket([s.strip() for s in spec.split(",")])
    if spec in _STATES:
        return _STATES[spec]
    return product_ket([spec.strip()])


def logical_components(label: str) -> Tuple[Tuple[str, float], ...]:
    """(correlator word, coefficient) pairs of the restricted logical fidelity."""
    if label not in _COMPONENTS:
        raise ValueError(f"unknown logical label {label!r}")
    return _COMPONENTS[label]


def logical_operator(label: str) -> np.ndarray:
    """Operator M whose expectation Re Tr(rho M) is the restricted logical fidelity.

    M = (I + sum coeff * W) / 2**m over the label's correlator components
    W, with m read-out logical qubits (one on two spins, two on three).
    """
    comps = logical_components(label)
    m = 1 if len(comps) == 1 else 2
    op = np.eye(2 ** len(comps[0][0]), dtype=complex)
    for word, coeff in comps:
        op += coeff * pauli_matrix(word)
    return op / 2.0**m


def logical_pauli_fidelity(rho: np.ndarray, label: str) -> float:
    """Logical fidelity from logical-operator expectations only, Re Tr(rho M).

    Coincides with the full-state fidelity for states inside the projected
    subspace but treats the subspace projector as resolved, e.g. the
    maximally mixed two-spin state has logical fidelity 1/2 while its
    full-state fidelity is 1/4.
    """
    return float(np.trace(rho @ logical_operator(label)).real)
