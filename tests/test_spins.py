import itertools
import math

import numpy as np
import pytest

from zenosim.spins import (basis_signs, evolve_dephasing, expectation, num_spins,
                           pauli_matrix, product_ket, product_state, state_fidelity)


def random_density(k, rng):
    d = 2**k
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestPauliMatrix:
    def test_single_x(self):
        assert np.array_equal(pauli_matrix("X"), [[0, 1], [1, 0]])

    def test_xi_tensor(self):
        m = pauli_matrix("XI")
        expected = np.zeros((4, 4))
        for i, j in [(0, 2), (2, 0), (1, 3), (3, 1)]:
            expected[i, j] = 1
        assert np.array_equal(m, expected)

    def test_xxx_square_and_trace(self):
        m = pauli_matrix("XXX")
        assert np.allclose(m @ m, np.eye(8), atol=1e-12)
        assert abs(np.trace(m)) < 1e-12

    @pytest.mark.parametrize("word", ["".join(w) for n in (1, 2, 3)
                                      for w in itertools.product("IXYZ", repeat=n)])
    def test_squares_to_identity(self, word):
        m = pauli_matrix(word)
        assert np.max(np.abs(m @ m - np.eye(m.shape[0]))) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_invalid_letter(self):
        with pytest.raises(ValueError):
            pauli_matrix("XQ")

    def test_too_long(self):
        with pytest.raises(ValueError):
            pauli_matrix("XXXXX")


class TestProductState:
    def test_x_state(self):
        assert np.allclose(product_state(["X"]), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_00(self):
        assert np.allclose(product_state(["0", "0"]), np.diag([1, 0, 0, 0]))

    def test_xxx_eigenstate(self):
        rho = product_state(["X", "X", "X"])
        assert expectation(rho, "XXX") == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            product_state(["Q"])

    @pytest.mark.parametrize("factors", [[], ["X"] * 5])
    def test_factor_count(self, factors):
        with pytest.raises(ValueError, match="factors"):
            product_ket(factors)


class TestEvolveDephasing:
    def test_zero_detuning(self):
        rho = product_state(["X"])
        out = evolve_dephasing(rho, [0.0], 7.3)
        assert np.allclose(out, rho, atol=1e-15)

    def test_half_turn(self):
        # delta * t = pi flips |X> to |-X>
        rho = evolve_dephasing(product_state(["X"]), [np.pi], 1.0)
        assert expectation(rho, "X") == pytest.approx(-1.0, abs=1e-12)

    def test_two_spin_cosine_product(self):
        rho = evolve_dephasing(product_state(["X", "X"]), [np.pi / 3, np.pi / 6], 1.0)
        assert expectation(rho, "XX") == pytest.approx(
            np.cos(np.pi / 3) * np.cos(np.pi / 6), abs=1e-12)

    def test_negative_time_rejected(self):
        for t in (-1.0, -1e301):
            with pytest.raises(ValueError, match="evolution time"):
                evolve_dephasing(product_state(["X"]), [0.1], t)
        with pytest.raises(TypeError, match="evolution time"):
            evolve_dephasing(product_state(["X"]), [0.1], "1")

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="evolution time"):
            evolve_dephasing(product_state(["X"]), [0.1], t)

    @pytest.mark.parametrize("deltas", [[math.nan], [0.1, 0.2], []])
    def test_bad_detunings_rejected(self, deltas):
        with pytest.raises(ValueError, match="detunings"):
            evolve_dephasing(product_state(["X"]), deltas, 1.0)

    def test_unitarity(self):
        rng = np.random.default_rng(5)
        rho = random_density(3, rng)
        out = evolve_dephasing(rho, [0.3, -0.1, 0.7], 2.5)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.allclose(np.sort(np.linalg.eigvalsh(out)),
                           np.sort(np.linalg.eigvalsh(rho)), atol=1e-12)

    def test_z_words_unaffected(self):
        rng = np.random.default_rng(9)
        rho = random_density(2, rng)
        out = evolve_dephasing(rho, [0.4, 1.2], 3.0)
        for word in ("ZZ", "ZI", "IZ", "II"):
            assert expectation(out, word) == pytest.approx(
                expectation(rho, word), abs=1e-12)


class TestExpectation:
    def test_examples(self):
        assert expectation(product_state(["X"]), "X") == pytest.approx(1.0)
        assert expectation(np.eye(2) / 2, "X") == pytest.approx(0.0, abs=1e-14)
        assert expectation(product_state(["Y"]), "Z") == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(product_state(["X"]), "XX")

    def test_imaginary_residue_rejected(self):
        # not Hermitian: Tr(rho X) = rho_01 + rho_10 = 0.5j
        with pytest.raises(ValueError, match="imaginary residue 0.5"):
            expectation(np.array([[0.5, 0.5j], [0, 0.5]]), "X")


class TestStateFidelity:
    def test_self_overlap(self):
        assert state_fidelity(product_state(["X"]), product_ket(["X"])) == pytest.approx(1.0)

    def test_mixed_single(self):
        assert state_fidelity(np.eye(2) / 2, product_ket(["Y"])) == pytest.approx(0.5)

    def test_mixed_bell(self):
        bell = (product_ket(["0", "0"]) + product_ket(["1", "1"])) / np.sqrt(2)
        assert state_fidelity(np.eye(4) / 4, bell) == pytest.approx(0.25)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            state_fidelity(np.eye(2) / 2, np.array([1.0, 1.0]))

    def test_wrong_size_target_rejected(self):
        with pytest.raises(ValueError, match="target shape"):
            state_fidelity(np.eye(2) / 2, product_ket(["X", "X"]))


@pytest.mark.parametrize("rho", [np.eye(32) / 32, np.eye(3) / 3, np.ones((2, 4))])
def test_num_spins_rejects_bad_shapes(rho):
    # five spins are past MAX_SPINS; 3 is no power of two; (2, 4) is not square
    with pytest.raises(ValueError, match="density-matrix shape"):
        num_spins(rho)


def test_basis_signs_single_spin_order():
    assert np.array_equal(basis_signs(1), [[1], [-1]])
    assert np.array_equal(basis_signs(2)[:, 0], [1, 1, -1, -1])
