"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (run with -s to see them inline) and
asserts the stated tolerance.  Tolerances are pinned here, not configurable.
"""

import dataclasses
import time

import numpy as np
import pytest

from qps import (
    CoordinateGrid,
    FockVector,
    GaugeChoice,
    GridWavefunction,
    JointStateSpec,
    PhaseGrid,
    TruncatedBasis,
    analytic_overlap,
    boltzmann_entropy,
    build_ladder,
    ccr_residual,
    closure_reconstruct,
    coordinate_wavefunction,
    count_microstates,
    density_husimi,
    evolve_lvn,
    expectation,
    from_pure,
    grid_number_states,
    husimi_distribution,
    inner_product,
    microstate_hypervolume,
    moments,
    momentum_matrix,
    number_hamiltonian,
    number_state,
    orthonormality_check,
    phase_wavefunction,
    position_matrix,
    robertson_check,
    wigner_distribution,
)

H = 2.0 * np.pi  # hbar = 1 throughout


def report(num, name, detail, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {detail} runtime={elapsed:.1f}s "
          f"(budget {budget:.0f}s) {status}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


@pytest.fixture(scope="module")
def ground():
    return JointStateSpec.from_covariance(X=[[0.5]])


@pytest.fixture(scope="module")
def grid():
    return CoordinateGrid.line(-16.0, 16.0, 1024)


def superposition(grid, spec, seed=7, n_top=3):
    basis = TruncatedBasis((n_top + 1,), spec)
    states = grid_number_states(basis, grid)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n_top + 1) + 1j * rng.normal(size=n_top + 1)
    c /= np.linalg.norm(c)
    psi = GridWavefunction(grid, sum(ci * s.values for ci, s in zip(c, states)))
    return psi.with_values(psi.values / psi.norm())


def random_mix_state(rng, grid):
    values = np.zeros(grid.shape, dtype=complex)
    for _ in range(rng.integers(1, 4)):
        spec = JointStateSpec.from_covariance(
            X=[[rng.uniform(0.3, 1.2)]],
            rho=[[rng.uniform(-0.5, 0.5)]],
            mean_p=[rng.uniform(-2, 2)],
            mean_x=[rng.uniform(-2, 2)],
        )
        amp = rng.normal() + 1j * rng.normal()
        values += amp * coordinate_wavefunction(spec, grid).values
    psi = GridWavefunction(grid, values)
    return psi.with_values(psi.values / psi.norm())


def test_01_saturation_identity(grid):
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        spec = JointStateSpec.from_covariance(
            X=[[rng.uniform(0.25, 1.5)]],
            rho=[[rng.uniform(-0.7, 0.7)]],
            mean_p=[rng.uniform(-2, 2)],
            mean_x=[rng.uniform(-2, 2)],
        )
        m = moments(coordinate_wavefunction(spec, grid))
        det = m.P[0, 0] * m.X[0, 0] - m.rho[0, 0] ** 2
        worst = max(worst, abs(det - 0.25) / 0.25)
    report(1, "saturation-identity", f"max rel dev {worst:.2e} (tol 1e-6)",
           worst <= 1e-6, time.time() - t0, 30.0)


def test_02_kennard_robertson(grid, ground):
    t0 = time.time()
    rng = np.random.default_rng(1002)
    margin = np.inf
    for _ in range(100):
        m = moments(random_mix_state(rng, grid))
        margin = min(margin, np.sqrt(m.X[0, 0] * m.P[0, 0]) - 0.5)
    kennard_ok = margin >= -1e-8

    basis = TruncatedBasis((8,), ground)
    matrix_margin = np.inf
    for _ in range(50):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        A = A + A.conj().T
        B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        B = B + B.conj().T
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        rep = robertson_check(A, B, FockVector(basis, v / np.linalg.norm(v)))
        matrix_margin = min(matrix_margin, rep.lhs - rep.rhs)
    robertson_ok = matrix_margin >= -1e-8
    report(2, "kennard-robertson",
           f"kennard margin {margin:.2e}, robertson margin {matrix_margin:.2e}",
           kennard_ok and robertson_ok, time.time() - t0, 30.0)


def test_03_overlap_oracle(grid):
    t0 = time.time()
    rng = np.random.default_rng(1003)
    worst_mod = 0.0
    worst_full = 0.0
    for _ in range(100):
        X = rng.uniform(0.3, 1.0)
        base = JointStateSpec.from_covariance(X=[[X]], gauge=GaugeChoice("zero"))
        a = base.displaced([rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
        b = base.displaced([rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
        quad = inner_product(
            coordinate_wavefunction(a, grid), coordinate_wavefunction(b, grid)
        )
        form = analytic_overlap(a, b)
        worst_mod = max(worst_mod, abs(abs(quad) - abs(form)))
        worst_full = max(worst_full, abs(quad - form))  # pinned gauge: zero
    report(3, "overlap-oracle",
           f"modulus dev {worst_mod:.2e}, full dev {worst_full:.2e} (tol 1e-8, gauge zero)",
           worst_mod <= 1e-8 and worst_full <= 1e-8, time.time() - t0, 60.0)


def test_04_closure(grid, ground):
    t0 = time.time()
    coherent = coordinate_wavefunction(ground.displaced([0.3], [0.8]), grid)
    err_coh = closure_reconstruct(coherent, ground, PhaseGrid.symmetric(12.0, 128)).l2_error
    sup = superposition(grid, ground)
    err_sup = closure_reconstruct(sup, ground, PhaseGrid.symmetric(16.0, 128)).l2_error
    coarse = closure_reconstruct(sup, ground, PhaseGrid.symmetric(16.0, 32)).l2_error
    fine = closure_reconstruct(sup, ground, PhaseGrid.symmetric(16.0, 64)).l2_error
    ok = err_coh <= 1e-3 and err_sup <= 1e-3 and fine < coarse
    report(4, "closure",
           f"coherent {err_coh:.2e}, superposition {err_sup:.2e} (tol 1e-3); "
           f"refinement {coarse:.2e} -> {fine:.2e}",
           ok, time.time() - t0, 120.0)


def test_05_microstate_hypervolume(grid, ground):
    t0 = time.time()
    pg = PhaseGrid.symmetric(12.0, 128)
    states = {
        "coherent": coordinate_wavefunction(ground.displaced([0.5], [0.5]), grid),
        "squeezed": coordinate_wavefunction(JointStateSpec.from_covariance(X=[[0.25]]), grid),
        "correlated": coordinate_wavefunction(
            JointStateSpec.from_covariance(X=[[0.5]], rho=[[0.4]]), grid
        ),
        "number1": number_state(1, TruncatedBasis((3,), ground), grid),
        "superposition": superposition(grid, ground),
    }
    worst = max(
        abs(microstate_hypervolume(psi, ground, pg) - H) / H for psi in states.values()
    )
    spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
    psi2 = coordinate_wavefunction(spec2, CoordinateGrid.square(-12.0, 12.0, 128))
    vol2 = microstate_hypervolume(psi2, spec2, PhaseGrid.symmetric(8.0, 48, npairs=2))
    dev2 = abs(vol2 - H**2) / H**2
    report(5, "microstate-hypervolume",
           f"worst 1D rel dev {worst:.2e} (tol 1e-3), 2D rel dev {dev2:.2e} (tol 2e-3)",
           worst <= 1e-3 and dev2 <= 2e-3, time.time() - t0, 120.0)


def test_06_positivity_contrast(grid, ground):
    t0 = time.time()
    pg = PhaseGrid.symmetric(12.0, 128)
    n1 = number_state(1, TruncatedBasis((3,), ground), grid)
    tested = {
        "coherent": coordinate_wavefunction(ground.displaced([0.0], [1.0]), grid),
        "number1": n1,
        "squeezed": coordinate_wavefunction(JointStateSpec.from_covariance(X=[[0.25]]), grid),
        "superposition": superposition(grid, ground),
    }
    husimi_min = min(
        husimi_distribution(psi, ground, pg).minimum() for psi in tested.values()
    )
    wig = wigner_distribution(n1, pg)
    contrast = wig.minimum() <= -0.25 * wig.values.max()
    report(6, "positivity-contrast",
           f"husimi min {husimi_min:.2e} (floor -1e-12), wigner min/max "
           f"{wig.minimum() / wig.values.max():.2f} (need <= -0.25)",
           husimi_min >= -1e-12 and contrast, time.time() - t0, 60.0)


def test_07_ladder_algebra(ground):
    t0 = time.time()
    basis = TruncatedBasis((4,), ground)
    lad = build_ladder(basis)
    sub_exact = np.array_equal(
        np.diag(lad.lowering[0], k=1).real, np.sqrt(np.arange(1.0, 4.0))
    )
    eig_dev = np.abs(np.diag(lad.number) - np.arange(4)).max()
    gram = orthonormality_check(
        grid_number_states(basis, CoordinateGrid.line(-12.0, 12.0, 2048)))
    ok = sub_exact and eig_dev <= 1e-12 and gram <= 1e-6
    report(7, "ladder-algebra",
           f"subdiagonals exact {sub_exact}, number eig dev {eig_dev:.1e}, "
           f"gram dev {gram:.2e} (tol 1e-6)",
           ok, time.time() - t0, 60.0)


def test_08_gauge_independence(grid, ground):
    t0 = time.time()
    psi = coordinate_wavefunction(ground.displaced([0.4], [0.6]), grid)
    pgrid = PhaseGrid.symmetric(12.0, 192)
    residuals = [
        ccr_residual(phase_wavefunction(psi, dataclasses.replace(ground, gauge=g), pgrid))
        for g in (GaugeChoice("zero"), GaugeChoice("full"), GaugeChoice("half"))
    ]
    spread = max(residuals) - min(residuals)
    ok = max(residuals) <= 1e-8 and spread <= 1e-10
    report(8, "gauge-independence",
           f"ccr residuals {[f'{r:.1e}' for r in residuals]} (tol 1e-8), "
           f"pairwise spread {spread:.1e} (tol 1e-10)",
           ok, time.time() - t0, 30.0)


def test_09_liouville_von_neumann(ground):
    t0 = time.time()
    grid = CoordinateGrid.line()
    basis = TruncatedBasis((14,), ground)
    coh = coordinate_wavefunction(ground.displaced([0.0], [1.0]), grid)
    states = grid_number_states(basis, grid)
    coeffs = np.array([inner_product(s, coh) for s in states])
    rho0 = from_pure(FockVector(basis, coeffs / np.linalg.norm(coeffs)))
    Hmat = number_hamiltonian(basis, omega=1.0)

    rng = np.random.default_rng(1009)
    drift = 0.0
    for _ in range(20):
        R = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14))
        R = R + R.conj().T
        rho_t = evolve_lvn(rho0, R, rng.uniform(0.1, 4.0))
        drift = max(
            drift,
            abs(np.trace(rho_t.matrix).real - 1.0),
            abs(np.real(np.trace(rho_t.matrix @ rho_t.matrix))
                - np.real(np.trace(rho0.matrix @ rho0.matrix))),
            float(np.abs(np.linalg.eigvalsh(rho_t.matrix)
                         - np.linalg.eigvalsh(rho0.matrix)).max()),
        )

    rho_q = evolve_lvn(rho0, Hmat, np.pi / 2.0)
    x_q = expectation(rho_q, position_matrix(basis)).real
    p_q = expectation(rho_q, momentum_matrix(basis)).real
    pg = PhaseGrid.symmetric(8.0, 128)
    peak = density_husimi(rho_q, pg).argmax_point()
    cell = np.hypot(pg.pairs[0].dp, pg.pairs[0].dx)
    peak_dev = np.hypot(peak[0] - p_q, peak[1] - x_q)
    rho_T = evolve_lvn(rho0, Hmat, 2.0 * np.pi)
    period_dev = float(np.abs(rho_T.matrix - rho0.matrix).max())

    ok = (drift <= 1e-10 and abs(x_q) <= 1e-6 and abs(p_q + 1.0) <= 1e-6
          and peak_dev <= cell and period_dev <= 1e-8)
    report(9, "liouville-von-neumann",
           f"drift {drift:.1e} (tol 1e-10), quarter-turn peak off by {peak_dev:.3f} "
           f"(cell {cell:.3f}), period dev {period_dev:.1e} (tol 1e-8)",
           ok, time.time() - t0, 60.0)


def test_10_entropy_counting(grid, ground):
    t0 = time.time()
    exact_omega = count_microstates(10.0 * H, 1).omega
    exact_s = count_microstates(10.0 * H, 1).entropy
    exact2 = count_microstates(H**2, 2)
    analytic_ok = (
        abs(exact_omega - 10.0) <= 1e-12
        and abs(exact_s - np.log(10.0)) <= 1e-12
        and abs(exact2.omega - 1.0) <= 1e-12
        and abs(exact2.entropy) <= 1e-12
        and boltzmann_entropy(np.e) == pytest.approx(1.0, rel=1e-15)
    )
    psi = coordinate_wavefunction(ground.displaced([0.4], [-0.3]), grid)
    vol = microstate_hypervolume(psi, ground, PhaseGrid.symmetric(12.0, 128))
    measured = count_microstates(vol, 1)
    measured_ok = abs(measured.omega - 1.0) <= 1e-3
    report(10, "entropy-counting",
           f"analytic exact {analytic_ok}, measured omega {measured.omega:.6f} "
           f"(tol 1e-3 around 1)",
           analytic_ok and measured_ok, time.time() - t0, 5.0)
