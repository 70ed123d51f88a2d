import numpy as np
import pytest

from zenosim.channel import ancilla_project, project, projectors
from zenosim.spins import expectation, pauli_matrix, product_ket, product_state

from test_spins import random_density


class TestProjectors:
    @pytest.mark.parametrize("word,rank", [("X", 1), ("XX", 2), ("XXX", 4)])
    def test_invariants_and_rank(self, word, rank):
        p_plus, p_minus = projectors(word)
        dim = 2 ** len(word)
        for p in (p_plus, p_minus):
            assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p_plus @ p_minus)) < 1e-12
        assert np.max(np.abs(p_plus + p_minus - np.eye(dim))) < 1e-12
        assert np.trace(p_plus).real == pytest.approx(rank, abs=1e-12)

    def test_xxx_plus_fixes_eigenstate(self):
        psi = product_ket(["X", "X", "X"])
        p_plus, _ = projectors("XXX")
        assert np.allclose(p_plus @ psi, psi, atol=1e-12)

    def test_identity_word_rejected(self):
        with pytest.raises(ValueError):
            projectors("II")


class TestProject:
    def test_eigenstate_unchanged(self):
        rho = product_state(["X"])
        assert np.allclose(project("X", rho), rho, atol=1e-14)

    def test_orthogonal_axis_fully_mixed(self):
        assert np.allclose(project("X", product_state(["Y"])), np.eye(2) / 2,
                           atol=1e-14)

    def test_xy_state_purity_drop(self):
        rho = product_state(["X", "Y"])
        out = project("XX", rho)
        assert expectation(out, "XX") == pytest.approx(0.0, abs=1e-12)
        assert np.trace(out @ out).real == pytest.approx(0.5, abs=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("word", ["X", "XX", "XXX"])
    def test_idempotence(self, word):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = random_density(len(word), rng)
            once = project(word, rho)
            assert np.max(np.abs(project(word, once) - once)) < 1e-12

    def test_commutant_preserved(self):
        rng = np.random.default_rng(3)
        rho = random_density(2, rng)
        out = project("XX", rho)
        for word in ("XX", "ZZ", "YY", "XI", "IX", "YZ", "ZY"):
            o = pauli_matrix("XX")
            w = pauli_matrix(word)
            assert np.max(np.abs(o @ w - w @ o)) < 1e-12  # sanity: commutes
            assert expectation(out, word) == pytest.approx(
                expectation(rho, word), abs=1e-12)

    def test_anticommutant_destroyed(self):
        rng = np.random.default_rng(4)
        rho = random_density(2, rng)
        out = project("XX", rho)
        for word in ("ZI", "IZ", "YI", "IY", "XZ", "ZX", "XY", "YX"):
            o = pauli_matrix("XX")
            w = pauli_matrix(word)
            assert np.max(np.abs(o @ w + w @ o)) < 1e-12  # sanity: anticommutes
            assert expectation(out, word) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project("XX", product_state(["X"]))


class TestAncillaProject:
    def test_eigenstate_null_measurement(self):
        rho = product_state(["X", "X"])
        assert np.max(np.abs(ancilla_project(rho, "XX") - rho)) < 1e-12

    def test_matches_direct_channel_on_y(self):
        out = ancilla_project(product_state(["Y"]), "X")
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="register size"):
            ancilla_project(product_state(["X"]), "XX")

    @pytest.mark.parametrize("word", ["X", "XX", "XXX"])
    def test_random_state_equivalence(self, word):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            rho = random_density(len(word), rng)
            diff = np.max(np.abs(ancilla_project(rho, word) - project(word, rho)))
            worst = max(worst, diff)
        assert worst < 1e-10
