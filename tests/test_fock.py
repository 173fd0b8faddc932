import json
import math

import numpy as np
import pytest

from qps import (
    CoordinateGrid,
    CoverageError,
    FockVector,
    InvalidInputError,
    JointStateSpec,
    Signature,
    TruncatedBasis,
    UnsupportedError,
    apply_position,
    build_ladder,
    coordinate_wavefunction,
    grid_number_states,
    inner_product,
    momentum_matrix,
    number_state,
    operator_matrix,
    orthonormality_check,
    position_matrix,
    robertson_check,
)
from qps.fock import read_matrix, write_matrix
from qps.metric import ladder_root
from qps.states import apply_z
from conftest import gate_edge_spec


def ladder(psi, basis, mu, adjoint=False):
    """Grid ladder_mu = (1/hbar) sum_nu a[mu,nu] (z_nu - <z_nu>), or its
    adjoint, by spectral derivatives: the oracle the number family's
    recurrence is checked against."""
    spec = basis.reference
    a = ladder_root(spec.moments.X, spec.signature)
    out = np.zeros_like(psi.values)
    for nu in range(spec.dim):
        coeff, mean_z = a[mu, nu] / spec.hbar, spec.mean_z[nu]
        if adjoint:
            coeff, mean_z = np.conj(coeff), np.conj(mean_z)
        out += coeff * (apply_z(spec, psi, nu, adjoint).values - mean_z * psi.values)
    return psi.with_values(out)


def number_residual(psi, basis, n):
    """||(N - n) psi|| with N = sum_mu ladder_mu^dagger ladder_mu on the grid."""
    total = sum(ladder(ladder(psi, basis, mu), basis, mu, adjoint=True).values
                for mu in range(basis.naxes))
    return np.sqrt(np.sum(np.abs(total - n * psi.values) ** 2) * psi.grid.cell_volume)


@pytest.fixture(scope="module")
def basis(ground_spec_module):
    return TruncatedBasis((6,), ground_spec_module)


@pytest.fixture(scope="module")
def ground_spec_module():
    return JointStateSpec.from_covariance(X=[[0.5]])


@pytest.fixture(scope="module")
def fine_grid():
    return CoordinateGrid.line(-12.0, 12.0, 2048)


class TestBuildLadder:
    def test_lower_maps_one_to_zero(self, basis):
        lad = build_ladder(basis)
        e1 = np.zeros(6)
        e1[1] = 1.0
        out = lad.lowering[0] @ e1
        expect = np.zeros(6)
        expect[0] = 1.0
        assert np.array_equal(out, expect.astype(complex))

    def test_vacuum_annihilated(self, basis):
        lad = build_ladder(basis)
        e0 = np.zeros(6)
        e0[0] = 1.0
        assert np.abs(lad.lowering[0] @ e0).max() == 0.0

    def test_number_eigenvector(self, basis):
        lad = build_ladder(basis)
        e3 = np.zeros(6)
        e3[3] = 1.0
        assert np.abs(lad.number @ e3 - 3.0 * e3).max() < 1e-12

    def test_subdiagonal_exact(self, basis):
        lad = build_ladder(basis)
        assert np.array_equal(
            np.diag(lad.lowering[0], k=1).real, np.sqrt(np.arange(1.0, 6.0))
        )

    def test_raising_is_adjoint(self, basis):
        lad = build_ladder(basis)
        assert np.array_equal(lad.raising[0], lad.lowering[0].conj().T)

    def test_number_is_product(self, basis):
        lad = build_ladder(basis)
        assert np.array_equal(lad.number, lad.raising[0] @ lad.lowering[0])

    def test_truncation_confined_to_edge(self, basis):
        lad = build_ladder(basis)
        comm = lad.lowering[0] @ lad.raising[0] - lad.raising[0] @ lad.lowering[0]
        assert np.abs(comm - np.eye(6))[:5, :5].max() < 1e-12
        assert comm[5, 5].real == pytest.approx(-5.0)

    def test_two_axis_kronecker(self, ground_spec_module):
        spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        basis2 = TruncatedBasis((3, 4), spec2)
        lad = build_ladder(basis2)
        assert lad.lowering[0].shape == (12, 12)
        cross = lad.lowering[0] @ lad.raising[1] - lad.raising[1] @ lad.lowering[0]
        assert np.abs(cross).max() < 1e-12
        expected = [n0 + n1 for n0, n1 in np.ndindex(*basis2.n_max)]
        assert np.allclose(np.diag(lad.number).real, expected, atol=1e-12)

    def test_budget_enforced(self, ground_spec_module):
        with pytest.raises(InvalidInputError):
            TruncatedBasis((80, 80), JointStateSpec.from_covariance(X=np.diag([0.5, 0.5])))

    def test_budget_does_not_wrap(self):
        # np.prod of (2**32, 2**32) wraps to 0 in int64
        with pytest.raises(InvalidInputError, match="truncated dimension "
                           "18446744073709551616 makes matrices of "
                           "340282366920938463463374607431768211456 entries, "
                           "budget is 16777216"):
            TruncatedBasis((2**32, 2**32), JointStateSpec.from_covariance(X=np.diag([0.5, 0.5])))

    def test_minimum_cutoff(self, ground_spec_module):
        with pytest.raises(InvalidInputError):
            TruncatedBasis((1,), ground_spec_module)


class TestNumberState:
    def test_n0_is_the_anchor(self, basis, fine_grid, ground_spec_module):
        n0 = number_state(0, basis, fine_grid)
        anchor = coordinate_wavefunction(ground_spec_module, fine_grid)
        assert np.array_equal(n0.values, anchor.values)

    def test_n1_profile(self, basis, fine_grid):
        n1 = number_state(1, basis, fine_grid)
        x = fine_grid.axis_points(0)
        assert n1.norm() == pytest.approx(1.0, abs=1e-8)
        i0 = np.argmin(np.abs(x))
        assert abs(n1.values[i0]) < 1e-10  # node at the mean
        # odd symmetry of the first excited profile; the endpoint-exclusive
        # grid maps -x_k to index n-k
        mirrored = np.roll(n1.values[::-1], 1)
        assert np.abs(n1.values + mirrored).max() < 1e-9

    def test_number_expectation_via_matrices(self, basis, fine_grid):
        n2 = number_state(2, basis, fine_grid)
        lad = build_ladder(basis)
        states = grid_number_states(basis, fine_grid)
        coeffs = np.array([inner_product(s, n2) for s in states])
        nval = np.real(coeffs.conj() @ lad.number @ coeffs)
        assert nval == pytest.approx(2.0, abs=1e-7)

    def test_eigenvalue_of_grid_number_operator(self, basis, fine_grid):
        # number states are eigenvectors of the lowering-raising quadratic
        # with eigenvalue n
        for n in (1, 3):
            assert number_residual(number_state(n, basis, fine_grid), basis, n) < 1e-7

    def test_cutoff_respected(self, basis, fine_grid):
        with pytest.raises(InvalidInputError):
            number_state(6, basis, fine_grid)

    def test_coverage_scales_with_n(self, ground_spec_module):
        tight = CoordinateGrid.line(-6.0, 6.0, 512)
        basis = TruncatedBasis((9,), ground_spec_module)
        number_state(0, basis, tight)
        with pytest.raises(CoverageError):
            number_state(8, basis, tight)

    def test_correlated_reference_family(self, fine_grid):
        # the ladder construction works for any saturating covariance
        spec = JointStateSpec.from_covariance(X=[[0.5]], rho=[[0.3]])
        basis = TruncatedBasis((4,), spec)
        assert orthonormality_check(grid_number_states(basis, fine_grid)) < 1e-6

    def test_displaced_correlated_anchor(self, fine_grid):
        # raising from a displaced, momentum-correlated anchor still builds
        # an orthonormal family with the right number eigenvalues
        spec = JointStateSpec.from_covariance(
            X=[[0.7]], rho=[[0.35]], mean_p=[0.6], mean_x=[-0.8]
        )
        basis = TruncatedBasis((4,), spec)
        assert orthonormality_check(grid_number_states(basis, fine_grid)) < 1e-6
        assert number_residual(number_state(2, basis, fine_grid), basis, 2) < 1e-7

    def test_two_axis_number_states(self):
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        spec = JointStateSpec.from_covariance(X=np.diag([0.5, 0.8]))
        basis = TruncatedBasis((3, 3), spec)
        assert orthonormality_check(grid_number_states(basis, grid)) < 1e-6
        # grid realization of the total number operator has eigenvalue n0+n1
        psi = number_state((1, 2), basis, grid)
        assert number_residual(psi, basis, 3) < 1e-7
        # number_state walks the same ladder as grid_number_states
        family = grid_number_states(basis, grid)[np.ravel_multi_index((1, 2), basis.n_max)]
        assert np.abs(psi.values - family.values).max() <= 1e-12 * np.abs(psi.values).max()

    @pytest.mark.parametrize("kw, grid", [
        (dict(X=[[0.5]]), CoordinateGrid.line(-12.0, 12.0, 1024)),
        (dict(X=[[0.7]], rho=[[0.35]], mean_p=[0.6], mean_x=[-0.8]),
         CoordinateGrid.line(-16.0, 16.0, 2048)),
        (dict(X=[[0.5]], rho=[[0.3]]), CoordinateGrid.line(-16.0, 16.0, 2048)),
    ], ids=["ground", "chirped-displaced", "chirped"])
    def test_hermite_closed_form(self, kw, grid):
        # psi_n = He_n((x - <x>)/sqrt(X)) psi_0 / sqrt(n!) for every rho and mean
        from numpy.polynomial.hermite_e import hermeval

        spec = JointStateSpec.from_covariance(**kw)
        states = grid_number_states(TruncatedBasis((16,), spec), grid)
        y = (grid.axis_points(0) - spec.moments.mean_x[0]) / np.sqrt(spec.moments.X[0, 0])
        for n, psi in enumerate(states):
            exact = hermeval(y, np.eye(n + 1)[n]) * states[0].values / np.sqrt(math.factorial(n))
            assert np.abs(psi.values - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_top_rung_number_residual(self):
        spec = JointStateSpec.from_covariance(X=[[0.5]], rho=[[0.3]])
        basis = TruncatedBasis((16,), spec)
        psi = number_state(15, basis, CoordinateGrid.line(-16.0, 16.0, 2048))
        assert number_residual(psi, basis, 15) <= 1e-9


class TestOrthonormality:
    def test_gram_identity(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)
        assert orthonormality_check(grid_number_states(basis, fine_grid)) < 1e-6

    def test_diagonal_normalization(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)
        states = grid_number_states(basis, fine_grid)
        for s in states:
            assert abs(inner_product(s, s) - 1.0) < 1e-8

    def test_parity_orthogonality(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((2,), ground_spec_module)
        states = grid_number_states(basis, fine_grid)
        assert abs(inner_product(states[0], states[1])) < 1e-10

    def test_gram_identity_n8(self, ground_spec_module):
        grid = CoordinateGrid.line(-12.0, 12.0, 2048)
        basis = TruncatedBasis((8,), ground_spec_module)
        assert orthonormality_check(grid_number_states(basis, grid)) < 1e-6

    def test_gram_identity_64_rungs(self, ground_spec_module):
        # no rung cap: the recurrence's round-off does not grow with the rung
        basis = TruncatedBasis((64,), ground_spec_module)
        grid = CoordinateGrid.line(-16.0, 16.0, 1024)
        assert orthonormality_check(grid_number_states(basis, grid)) <= 1e-13

    def test_gram_identity_inside_the_saturation_gate(self):
        # any spec the 1e-9 saturation gate accepts has a number family
        basis = TruncatedBasis((3, 3), gate_edge_spec())
        assert orthonormality_check(grid_number_states(basis, CoordinateGrid.square())) <= 1e-13

    def test_grid_budget_checked_before_building(self, ground_spec_module, monkeypatch):
        import qps.fock

        monkeypatch.setattr(qps.fock, "coordinate_wavefunction", None)  # nothing is built
        basis = TruncatedBasis((16,), ground_spec_module)
        with pytest.raises(InvalidInputError, match="budget is 16777216"):
            grid_number_states(basis, CoordinateGrid.line(-12.0, 12.0, 2**21))

    def test_number_state_30_norm(self, ground_spec_module):
        basis = TruncatedBasis((31,), ground_spec_module)
        grid = CoordinateGrid.line(-16.0, 16.0, 1024)
        assert number_state(30, basis, grid).norm() == pytest.approx(1.0, abs=1e-12)

    def test_non_canonical_ladder_unsupported(self):
        # for a mixed signature with correlated X, [L, L^dagger] = a eta X^-1
        # eta a^H is off the identity, so no number family exists to build
        spec = JointStateSpec.from_covariance(X=[[0.5, 0.1], [0.1, 0.8]],
                                              signature=Signature(1, 1))
        basis = TruncatedBasis((3, 3), spec)
        with pytest.raises(UnsupportedError, match="not canonical: .* by 0.363"):
            grid_number_states(basis, CoordinateGrid.square(-12.0, 12.0, 128))


class TestNumberFamilyGate:
    def test_gate_builds_nothing_and_returns_the_ladder_factor(self, ground_spec_module,
                                                               monkeypatch):
        # every check of the family raises before its ground state is sampled
        import qps.fock

        monkeypatch.setattr(qps.fock, "coordinate_wavefunction", None)  # nothing is built
        basis = TruncatedBasis((16,), ground_spec_module)
        with pytest.raises(CoverageError, match="momentum range of grid axis 0"):
            grid_number_states(basis, CoordinateGrid.line(-12.0, 12.0, 16))
        with pytest.raises(CoverageError, match="grid axis 0 for n=15"):
            grid_number_states(basis, CoordinateGrid.line(-6.0, 6.0, 1024))

    def test_ladder_eigenvalues_are_coherent_labels(self):
        # a spatial rho = 0 reference: |beta|^2 = X (q - <p>)^2 / hbar^2 + (y - <x>)^2 / (4 X)
        from qps import PhaseGrid
        from qps.fock import ladder_eigenvalues

        hbar, X = 0.7, 0.45
        spec = JointStateSpec.from_covariance(X=[[X]], mean_p=[0.3], mean_x=[-0.2], hbar=hbar)
        pair = PhaseGrid.symmetric(4.0, 16).pairs[0]
        (beta,) = ladder_eigenvalues(spec, [pair])
        q, y = pair.p_points()[:, None], pair.x_points()[None, :]
        expected = X * (q - 0.3) ** 2 / hbar**2 + (y + 0.2) ** 2 / (4.0 * X)
        assert beta.shape == (16, 16)
        assert np.allclose(np.abs(beta) ** 2, expected, rtol=1e-13, atol=0.0)

    def test_ladder_eigenvalues_need_a_canonical_factorized_ladder(self):
        from qps import PhaseGrid
        from qps.fock import ladder_eigenvalues

        pairs = PhaseGrid.symmetric(4.0, 8, npairs=2).pairs
        mixed = JointStateSpec.from_covariance(X=[[0.5, 0.1], [0.1, 0.8]],
                                               signature=Signature(1, 1))
        correlated = JointStateSpec.from_covariance(X=[[0.5, 0.1], [0.1, 0.8]])
        with pytest.raises(UnsupportedError, match="not canonical"):
            ladder_eigenvalues(mixed, pairs)
        with pytest.raises(UnsupportedError, match="axis-factorized"):
            ladder_eigenvalues(correlated, pairs)


class TestOperatorMatrix:
    def test_matches_inner_product_loop(self):
        # the stacked product S^H (A S) dV against the pairwise quadrature
        # it replaced: the same sums in another order, so equal to round-off
        grid = CoordinateGrid.square(-12.0, 12.0, 128)
        spec = JointStateSpec.from_covariance(X=[[0.5, 0.1], [0.1, 0.8]])
        basis = TruncatedBasis((3, 2), spec)
        states = grid_number_states(basis, grid)
        for op in (lambda s: s, lambda s: apply_position(s, 1)):
            loop = np.array([[inner_product(a, op(b)) for b in states] for a in states])
            assert np.abs(operator_matrix(op, states) - loop).max() < 1e-14
        gram = np.array([[inner_product(a, b) for b in states] for a in states])
        assert orthonormality_check(states) == pytest.approx(
            np.abs(gram - np.eye(basis.dim)).max(), abs=1e-14)

    def test_identity_operator(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)
        mat = operator_matrix(lambda s: s, grid_number_states(basis, fine_grid))
        assert np.abs(mat - np.eye(4)).max() < 1e-8

    def test_position_element(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)
        states = grid_number_states(basis, fine_grid)
        mat = operator_matrix(lambda s: apply_position(s, 0), states)
        assert mat[0, 1] == pytest.approx(np.sqrt(0.5), abs=1e-6)
        assert np.abs(mat - mat.conj().T).max() < 1e-8

    def test_number_operator_diagonal(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)

        def num_op(s):
            return ladder(ladder(s, basis, 0), basis, 0, adjoint=True)

        mat = operator_matrix(num_op, grid_number_states(basis, fine_grid))
        assert np.abs(mat - np.diag([0.0, 1.0, 2.0, 3.0])).max() < 1e-7

    def test_closed_form_matrices_match_quadrature(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((5,), ground_spec_module)
        from qps import apply_momentum

        states = grid_number_states(basis, fine_grid)
        xq = operator_matrix(lambda s: apply_position(s, 0), states)
        pq = operator_matrix(lambda s: apply_momentum(s, 0), states)
        assert np.abs(xq - position_matrix(basis)).max() < 1e-8
        assert np.abs(pq - momentum_matrix(basis)).max() < 1e-8


class TestRobertson:
    def test_ground_state_equality(self, fine_grid, ground_spec_module):
        basis = TruncatedBasis((6,), ground_spec_module)
        rep = robertson_check(
            position_matrix(basis), momentum_matrix(basis), FockVector.unit(basis, 0)
        )
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)
        assert rep.lhs >= rep.rhs - 1e-8

    def test_self_commutation(self, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)
        A = position_matrix(basis)
        rep = robertson_check(A, A, FockVector.unit(basis, 1))
        assert rep.rhs == 0.0
        assert rep.lhs >= rep.rhs - 1e-8

    def test_random_pairs_always_hold(self, ground_spec_module, rng):
        basis = TruncatedBasis((8,), ground_spec_module)
        for _ in range(50):
            A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            A = A + A.conj().T
            B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            B = B + B.conj().T
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = FockVector(basis, v / np.linalg.norm(v))
            rep = robertson_check(A, B, state)
            assert rep.lhs >= rep.rhs - 1e-8

    def test_rejects_non_hermitian(self, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)
        bad = np.triu(np.ones((4, 4)))
        with pytest.raises(InvalidInputError):
            robertson_check(bad, np.eye(4), FockVector.unit(basis, 0))

    def test_rejects_nan(self, ground_spec_module):
        # a NaN diagonal has zero Hermitian defect by NaN arithmetic
        basis = TruncatedBasis((4,), ground_spec_module)
        A = np.eye(4, dtype=complex)
        A[1, 1] = np.nan
        with pytest.raises(InvalidInputError, match="A has non-finite entries"):
            robertson_check(A, np.eye(4), FockVector.unit(basis, 0))

    def test_rejects_dimension_mismatch(self, ground_spec_module):
        basis = TruncatedBasis((4,), ground_spec_module)
        with pytest.raises(InvalidInputError):
            robertson_check(np.eye(3), np.eye(3), FockVector.unit(basis, 0))


class TestMatrixIo:
    def test_round_trip(self, tmp_path, rng):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        path = tmp_path / "mat.csv"
        write_matrix(m, path)
        assert np.abs(read_matrix(path) - m).max() < 1e-11

    def test_rows_checked_against_sidecar_shape(self, tmp_path):
        # deleting every index-3 row leaves a complete-looking 3 x 3 table
        path = tmp_path / "mat.csv"
        write_matrix(np.arange(16.0).reshape(4, 4), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines if "3" not in line.split(",")[:2]))
        with pytest.raises(InvalidInputError, match=r"table is \(9, 4\), the grid needs \(16, 4\)"):
            read_matrix(path)

    def test_rows_must_be_row_major(self, tmp_path):
        path = tmp_path / "mat.csv"
        write_matrix(np.arange(4.0).reshape(2, 2), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + [lines[2], lines[1]] + lines[3:]))
        with pytest.raises(InvalidInputError, match="data row 1 has col = 1"):
            read_matrix(path)

    @pytest.mark.parametrize("shape", [None, [4], [4, 0], [4.0, 4], "4x4", [2**70, 2]])
    def test_sidecar_shape_validated(self, tmp_path, shape):
        path = tmp_path / "mat.csv"
        write_matrix(np.eye(4), path)
        path.with_name("mat.csv.json").write_text(json.dumps({"schema": 1, "shape": shape}))
        with pytest.raises(InvalidInputError, match="cannot read matrix"):
            read_matrix(path)
