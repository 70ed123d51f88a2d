import contextlib
import itertools

import numpy as np
import pytest

from zenosim.channel import project
from zenosim.logical import (CARDINAL_2SPIN, LOGICAL_3SPIN, LOGICAL_OPS_2SPIN,
                             LOGICAL_OPS_3SPIN, logical_components,
                             logical_pauli_fidelity, logical_target,
                             resolve_state)
from zenosim.spins import expectation, pauli_matrix, product_ket, product_state, state_fidelity

from test_spins import random_density


def logical_state(label):
    """Density matrix of the pure logical target state."""
    psi = logical_target(label)
    return np.outer(psi, psi.conj())


def op(name, table):
    word, sign = table[name]
    return sign * pauli_matrix(word)


class TestTwoSpinStates:
    def test_zero_logical(self):
        rho = logical_state("0L")
        assert np.allclose(rho, product_state(["X", "X"]), atol=1e-14)
        assert expectation(rho, "XI") == pytest.approx(1.0)

    def test_plus_logical(self):
        rho = logical_state("+L")
        assert expectation(rho, "ZZ") == pytest.approx(1.0)
        # (|XX> + |-X,-X>)/sqrt(2) is the Phi+ Bell state
        bell = (product_ket(["0", "0"]) + product_ket(["1", "1"])) / np.sqrt(2)
        assert state_fidelity(rho, bell) == pytest.approx(1.0, abs=1e-12)

    def test_plus_i_logical(self):
        rho = logical_state("+iL")
        y_l = op("Y", LOGICAL_OPS_2SPIN)
        assert np.trace(rho @ y_l).real == pytest.approx(1.0, abs=1e-12)

    def test_plus_i_max_product_overlap(self):
        # scan product states |a,b> over Bloch angles; a Bell-type state
        # cannot exceed overlap (2+sqrt(2))/4 with any product state
        rho = logical_state("+iL")
        angles = np.linspace(0, np.pi, 13)
        phis = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        best = 0.0
        for ta, pa, tb, pb in itertools.product(angles, phis, angles, phis):
            a = np.array([np.cos(ta / 2), np.exp(1j * pa) * np.sin(ta / 2)])
            b = np.array([np.cos(tb / 2), np.exp(1j * pb) * np.sin(tb / 2)])
            best = max(best, state_fidelity(rho, np.kron(a, b)))
        assert best <= 0.854

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            logical_state("2L")

    def test_cardinal_states_in_subspace(self):
        for label in CARDINAL_2SPIN:
            rho = logical_state(label)
            assert expectation(rho, "XX") == pytest.approx(1.0, abs=1e-12)


class TestThreeSpinStates:
    def test_00(self):
        assert np.allclose(logical_state("00L"),
                           product_state(["X", "X", "X"]), atol=1e-14)

    def test_x0(self):
        rho = logical_state("X0L")
        psi = (product_ket(["X", "X", "X"]) + product_ket(["X", "-X", "-X"])) / np.sqrt(2)
        assert state_fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)
        assert expectation(rho, "XXX") == pytest.approx(1.0, abs=1e-12)

    def test_phi_plus_correlations(self):
        rho = logical_state("PhiPlusL")
        z1 = op("Z1", LOGICAL_OPS_3SPIN)
        z2 = op("Z2", LOGICAL_OPS_3SPIN)
        assert np.trace(rho @ z1 @ z2).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho @ z1).real == pytest.approx(0.0, abs=1e-12)


class TestLogicalAlgebra:
    @pytest.mark.parametrize("table,obs", [(LOGICAL_OPS_2SPIN, "XX"),
                                           (LOGICAL_OPS_3SPIN, "XXX")])
    def test_operators_commute_with_observable(self, table, obs):
        o = pauli_matrix(obs)
        for name in table:
            m = op(name, table)
            assert np.max(np.abs(o @ m - m @ o)) < 1e-12

    def test_two_spin_anticommutation(self):
        z = op("Z", LOGICAL_OPS_2SPIN)
        x = op("X", LOGICAL_OPS_2SPIN)
        assert np.max(np.abs(z @ x + x @ z)) < 1e-12

    def test_three_spin_algebra(self):
        z1, x1 = op("Z1", LOGICAL_OPS_3SPIN), op("X1", LOGICAL_OPS_3SPIN)
        z2, x2 = op("Z2", LOGICAL_OPS_3SPIN), op("X2", LOGICAL_OPS_3SPIN)
        assert np.max(np.abs(z1 @ x1 + x1 @ z1)) < 1e-12
        assert np.max(np.abs(z2 @ x2 + x2 @ z2)) < 1e-12
        for a, b in [(z1, z2), (z1, x2), (x1, z2), (x1, x2)]:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12

    def test_projection_preserves_logical_expectations(self):
        rng = np.random.default_rng(17)
        for table, obs in [(LOGICAL_OPS_2SPIN, "XX"), (LOGICAL_OPS_3SPIN, "XXX")]:
            d = 2 ** len(obs)
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            out = project(obs, rho)
            for name in table:
                m = op(name, table)
                assert np.trace(out @ m).real == pytest.approx(
                    np.trace(rho @ m).real, abs=1e-12)

    def test_even_parity_basis_orthonormal(self):
        kets = [logical_target(l) for l in ("0L", "1L")]
        assert abs(kets[0].conj() @ kets[1]) < 1e-12
        for k in kets:
            assert np.linalg.norm(k) == pytest.approx(1.0, abs=1e-12)


class TestLogicalFidelity:
    @pytest.mark.parametrize("label", list(CARDINAL_2SPIN) + list(LOGICAL_3SPIN))
    def test_target_scores_one(self, label):
        rho = np.outer(logical_target(label), logical_target(label).conj())
        assert state_fidelity(rho, logical_target(label)) == pytest.approx(1.0, abs=1e-10)
        assert logical_pauli_fidelity(rho, label) == pytest.approx(1.0, abs=1e-10)

    def test_operator_matches_component_sum(self):
        rng = np.random.default_rng(5)
        for label in list(CARDINAL_2SPIN) + list(LOGICAL_3SPIN):
            comps = logical_components(label)
            rho = random_density(len(comps[0][0]), rng)
            m = 1 if len(comps) == 1 else 2  # read-out logical qubits
            want = (1 + sum(c * expectation(rho, w) for w, c in comps)) / 2**m
            assert logical_pauli_fidelity(rho, label) == pytest.approx(want, abs=1e-12)

    def test_mixed_state_split(self):
        rho = np.eye(4) / 4
        assert state_fidelity(rho, logical_target("0L")) == pytest.approx(0.25, abs=1e-12)
        assert logical_pauli_fidelity(rho, "0L") == pytest.approx(0.5, abs=1e-12)

    def test_component_words_commute_with_observable(self):
        for label in list(CARDINAL_2SPIN) + list(LOGICAL_3SPIN):
            obs = "XX" if len(logical_components(label)) == 1 else "XXX"
            o = pauli_matrix(obs)
            for word, _ in logical_components(label):
                w = pauli_matrix(word)
                assert np.max(np.abs(o @ w - w @ o)) < 1e-12


class TestResolveState:
    def test_product_spec(self):
        assert np.allclose(resolve_state("X,-X"), product_ket(["X", "-X"]))

    def test_logical_spec(self):
        assert np.allclose(resolve_state("PhiPlusL"), logical_target("PhiPlusL"))

    def test_unknown(self):
        with pytest.raises(ValueError):
            resolve_state("nope")

    def test_returned_arrays_do_not_share_writable_tables(self):
        # writing into a returned array either fails, for a read-only shared
        # table, or changes a fresh copy: no later call sees it
        calls = [lambda: resolve_state("0L"), lambda: logical_target("0L"),
                 lambda: product_ket(["X"]), lambda: pauli_matrix("X")]
        for call in calls:
            want = call().copy()
            with contextlib.suppress(ValueError):
                call()[...] = 0
            assert np.array_equal(call(), want)
