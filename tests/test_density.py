import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    CoordinateGrid,
    DensityMatrix,
    FockVector,
    InvalidInputError,
    JointStateSpec,
    MixtureSpec,
    TruncatedBasis,
    analytic_overlap,
    boltzmann_entropy,
    coordinate_wavefunction,
    count_microstates,
    evolve_lvn,
    expectation,
    from_mixture,
    from_pure,
    grid_number_states,
    inner_product,
    number_hamiltonian,
    purity,
    read_density,
    write_density,
)


@pytest.fixture(scope="module")
def spec():
    return JointStateSpec.from_covariance(X=[[0.5]])


@pytest.fixture(scope="module")
def basis(spec):
    return TruncatedBasis((6,), spec)


@pytest.fixture(scope="module")
def hbar2_basis():
    """Four number states of the hbar = 2 ground family (X = hbar/2 = 1)."""
    return TruncatedBasis((4,), JointStateSpec.from_covariance(X=[[1.0]], hbar=2.0))


def coherent_vector(basis, mean_p, mean_x, grid=None):
    grid = grid or CoordinateGrid.line()
    target = coordinate_wavefunction(
        basis.reference.displaced([mean_p], [mean_x]), grid
    )
    coeffs = np.array(
        [inner_product(s, target) for s in grid_number_states(basis, grid)]
    )
    return FockVector(basis, coeffs / np.linalg.norm(coeffs))


class TestConstructors:
    def test_pure_ground_projector(self, basis):
        rho = from_pure(FockVector.unit(basis, 0))
        expect = np.zeros((6, 6))
        expect[0, 0] = 1.0
        assert np.abs(rho.matrix - expect).max() < 1e-15

    def test_pure_superposition_block(self, basis):
        c = np.zeros(6, dtype=complex)
        c[0] = c[1] = 1.0 / np.sqrt(2.0)
        rho = from_pure(FockVector(basis, c))
        assert np.allclose(rho.matrix[:2, :2], 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_pure_purity_is_one(self, basis, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = from_pure(FockVector(basis, v / np.linalg.norm(v)))
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_single_component_mixture_equals_pure(self, basis):
        vec = FockVector.unit(basis, 2)
        a = from_pure(vec)
        b = from_mixture(MixtureSpec(((1.0, vec),)))
        assert np.abs(a.matrix - b.matrix).max() < 1e-15

    def test_even_mixture(self, basis):
        mix = MixtureSpec(((0.5, FockVector.unit(basis, 0)), (0.5, FockVector.unit(basis, 1))))
        rho = from_mixture(mix)
        assert np.allclose(np.diag(rho.matrix).real[:2], [0.5, 0.5])
        assert purity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_nonorthogonal_coherent_mixture_purity(self, basis):
        # purity = (1 + |<a|b>|^2)/2 for an even two-component mixture
        va = coherent_vector(basis, 0.0, 0.5)
        vb = coherent_vector(basis, 0.0, -0.5)
        rho = from_mixture(MixtureSpec(((0.5, va), (0.5, vb))))
        ov = analytic_overlap(
            basis.reference.displaced([0.0], [0.5]),
            basis.reference.displaced([0.0], [-0.5]),
        )
        expected = 0.5 * (1.0 + abs(ov) ** 2)
        assert 0.5 < purity(rho) < 1.0
        assert purity(rho) == pytest.approx(expected, abs=1e-8)

    def test_weight_validation(self, basis):
        with pytest.raises(InvalidInputError):
            MixtureSpec(((0.9, FockVector.unit(basis, 0)),))
        with pytest.raises(InvalidInputError):
            MixtureSpec(((-0.5, FockVector.unit(basis, 0)), (1.5, FockVector.unit(basis, 1))))

    def test_nan_weight_rejected(self, basis):
        # NaN fails no `< 0` or `> tol` test, so the weight rule is negated
        with pytest.raises(InvalidInputError, match="must be >= 0 and sum to 1"):
            MixtureSpec(((np.nan, FockVector.unit(basis, 0)),))

    def test_invariants_enforced(self, basis):
        with pytest.raises(InvalidInputError):
            DensityMatrix(basis, np.eye(6))  # trace 6
        bad = np.zeros((6, 6), dtype=complex)
        bad[0, 1] = 1.0
        bad[0, 0] = 1.0
        with pytest.raises(InvalidInputError):
            DensityMatrix(basis, bad)  # not Hermitian

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_nan_entry_rejected(self, basis, entry):
        # NaN passes every `defect > tol` check, so it is rejected up front
        m = np.diag([1.0, 0, 0, 0, 0, 0]).astype(complex)
        m[entry] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            DensityMatrix(basis, m)

    def test_unnormalized_pure_rejected(self, basis):
        with pytest.raises(InvalidInputError):
            from_pure(FockVector(basis, np.ones(6)))


class TestExpectation:
    def test_identity(self, basis, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = from_pure(FockVector(basis, v / np.linalg.norm(v)))
        assert expectation(rho, np.eye(6)) == pytest.approx(1.0, abs=1e-12)

    def test_ground_oscillator_energy(self, basis):
        rho = from_pure(FockVector.unit(basis, 0))
        H = number_hamiltonian(basis, omega=1.0)
        assert expectation(rho, H).real == pytest.approx(0.5, abs=1e-12)

    def test_even_mixture_number(self, basis):
        from qps import build_ladder

        mix = MixtureSpec(((0.5, FockVector.unit(basis, 0)), (0.5, FockVector.unit(basis, 1))))
        val = expectation(from_mixture(mix), build_ladder(basis).number)
        assert val.real == pytest.approx(0.5, abs=1e-12)

    def test_mixture_linearity(self, basis, rng):
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        A = A + A.conj().T
        weights = rng.uniform(0.1, 1.0, size=3)
        weights /= weights.sum()
        comps = []
        for w in weights:
            u = rng.normal(size=6) + 1j * rng.normal(size=6)
            comps.append((w, FockVector(basis, u / np.linalg.norm(u))))
        mix = MixtureSpec(tuple(comps))
        direct = sum(w * np.vdot(s.coeffs, A @ s.coeffs) for w, s in comps)
        assert abs(expectation(from_mixture(mix), A) - direct) < 1e-10

    def test_dimension_mismatch(self, basis):
        rho = from_pure(FockVector.unit(basis, 0))
        with pytest.raises(InvalidInputError):
            expectation(rho, np.eye(5))


class TestEvolution:
    def test_stationary_when_commuting(self, basis):
        rho = from_pure(FockVector.unit(basis, 2))
        H = number_hamiltonian(basis, omega=1.3)
        rho_t = evolve_lvn(rho, H, 4.2)
        assert np.abs(rho_t.matrix - rho.matrix).max() < 1e-12

    def test_reversal(self, basis, rng):
        H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = H + H.conj().T
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = from_pure(FockVector(basis, v / np.linalg.norm(v)))
        back = evolve_lvn(evolve_lvn(rho, H, 1.7), H, -1.7)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10

    def test_conserved_quantities_random_pairs(self, basis, rng):
        for _ in range(100):
            H = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            H = H + H.conj().T
            weights = rng.uniform(0.1, 1.0, size=2)
            weights /= weights.sum()
            comps = []
            for w in weights:
                u = rng.normal(size=6) + 1j * rng.normal(size=6)
                comps.append((w, FockVector(basis, u / np.linalg.norm(u))))
            rho = from_mixture(MixtureSpec(tuple(comps)))
            rho_t = evolve_lvn(rho, H, rng.uniform(0.1, 4.0))
            assert abs(np.trace(rho_t.matrix).real - 1.0) < 1e-10
            assert abs(purity(rho_t) - purity(rho)) < 1e-10
            drift = np.abs(
                np.linalg.eigvalsh(rho_t.matrix) - np.linalg.eigvalsh(rho.matrix)
            ).max()
            assert drift < 1e-10

    def test_coherent_quarter_turn(self, spec):
        from qps import momentum_matrix, position_matrix

        basis = TruncatedBasis((14,), spec)
        rho = from_pure(coherent_vector(basis, 0.0, 1.0))
        H = number_hamiltonian(basis, omega=1.0)
        rho_q = evolve_lvn(rho, H, np.pi / 2.0)
        assert expectation(rho_q, position_matrix(basis)).real == pytest.approx(0.0, abs=1e-6)
        assert expectation(rho_q, momentum_matrix(basis)).real == pytest.approx(-1.0, abs=1e-6)

    def test_full_period_return(self, spec):
        basis = TruncatedBasis((14,), spec)
        rho = from_pure(coherent_vector(basis, 0.0, 1.0))
        H = number_hamiltonian(basis, omega=1.0)
        rho_T = evolve_lvn(rho, H, 2.0 * np.pi)
        assert np.abs(rho_T.matrix - rho.matrix).max() < 1e-8

    def test_number_hamiltonian_reads_basis_hbar(self, hbar2_basis):
        H = number_hamiltonian(hbar2_basis, 1.0)
        assert np.abs(H - np.diag(2.0 * (np.arange(4) + 0.5))).max() < 1e-12

    def test_evolution_reads_basis_hbar(self, hbar2_basis):
        # H = hbar (N + 1/2) at hbar = 2: t = pi is a half turn, <x> goes +1 -> -1
        from qps import position_matrix

        rho = from_pure(FockVector(hbar2_basis, np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)))
        H = np.diag(2.0 * (np.arange(4) + 0.5))
        x = position_matrix(hbar2_basis)
        assert expectation(rho, x).real == pytest.approx(1.0, abs=1e-12)
        assert expectation(evolve_lvn(rho, H, np.pi), x).real == pytest.approx(-1.0, abs=1e-12)

    def test_non_hermitian_rejected(self, basis):
        rho = from_pure(FockVector.unit(basis, 0))
        with pytest.raises(InvalidInputError):
            evolve_lvn(rho, np.triu(np.ones((6, 6))), 1.0)

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_nan_hamiltonian_rejected(self, basis, entry):
        # eigh reads one triangle only, so a NaN above it would be ignored
        rho = from_pure(FockVector.unit(basis, 0))
        H = np.eye(6, dtype=complex)
        H[entry] = np.nan
        with pytest.raises(InvalidInputError, match="Hamiltonian has non-finite entries"):
            evolve_lvn(rho, H, 1.0)


class TestCounting:
    def test_entropy_values(self):
        assert boltzmann_entropy(1.0) == 0.0
        assert boltzmann_entropy(np.e) == pytest.approx(1.0, rel=1e-15)
        assert boltzmann_entropy(10.0) == pytest.approx(2.302585092994046, rel=1e-15)

    def test_entropy_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            boltzmann_entropy(0.0)

    def test_count_ten_cells(self):
        h = 2.0 * np.pi
        count = count_microstates(10.0 * h, 1)
        assert count.omega == pytest.approx(10.0, rel=1e-12)
        assert count.entropy == pytest.approx(np.log(10.0), rel=1e-12)

    def test_count_single_cell_two_pairs(self):
        h = 2.0 * np.pi
        count = count_microstates(h**2, 2)
        assert count.omega == pytest.approx(1.0, rel=1e-12)
        assert count.entropy == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(InvalidInputError):
            count_microstates(-1.0, 1)

    @settings(deadline=None, max_examples=50)
    @given(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6))
    def test_entropy_additive_over_counts(self, a, b):
        assert boltzmann_entropy(a * b) == pytest.approx(
            boltzmann_entropy(a) + boltzmann_entropy(b), rel=1e-10, abs=1e-10
        )


class TestIo:
    def test_density_round_trip(self, tmp_path, basis, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = from_pure(FockVector(basis, v / np.linalg.norm(v)))
        path = tmp_path / "rho.csv"
        write_density(rho, path)
        back = read_density(path)
        assert back.basis.n_max == basis.n_max
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10
