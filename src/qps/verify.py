"""Named verification suites behind `qps verify`.

Every check is deterministic (fixed seeds) and reports a row
{name, value, bound, pass[, target][, draw]}; with no target the row passes
iff value <= bound, with a target iff |value - target| <= bound.  A seeded
row's value is the worst over its random draws, and `draw` is the index of
the draw that reached it, so that draw can be rebuilt alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import density, fock, phasespace, psops
from .errors import InvalidInputError
from .grids import CoordinateGrid, GridWavefunction, apply_position, inner_product, moments
from .phasespace import PhaseGrid
from .states import GaugeChoice, JointStateSpec, analytic_overlap, coordinate_wavefunction
from .suites import SUITES, TOLERANCES


def _row(name, value, bound, target=None):
    value = float(value)
    bound = float(bound)
    ok = abs(value - target) <= bound if target is not None else value <= bound
    row = {"name": name, "value": value, "bound": bound, "pass": bool(ok)}
    if target is not None:
        row["target"] = float(target)
    return row


def _worst(name, values, bound):
    """The row of a seeded check: the largest per-draw value, 0 when none is
    positive, and the index of the draw that reached it.  A NaN draw is the
    worst (argmax takes the first) and fails the row."""
    draw = int(np.argmax(values))
    value = values[draw]
    return dict(_row(name, 0.0 if value <= 0 else value, bound), draw=draw)


def _tol(tols, name):
    return float((tols or {}).get(name, TOLERANCES[name]))


def _ground_spec(hbar=1.0):
    return JointStateSpec.from_covariance(X=[[hbar / 2.0]], hbar=hbar)


def _random_spec(rng, hbar, x_range, rho_max):
    """A one-pair spec with X, rho, <p>, <x> drawn in this order (the seeded
    reports rely on it): X and rho in units of hbar, the means in [-2, 2) sqrt(hbar)."""
    s = np.sqrt(hbar)
    return JointStateSpec.from_covariance(
        X=[[rng.uniform(*x_range) * hbar]],
        rho=[[rng.uniform(-rho_max, rho_max) * hbar]],
        mean_p=[rng.uniform(-2, 2) * s],
        mean_x=[rng.uniform(-2, 2) * s],
        hbar=hbar,
    )


def _random_hermitian(rng, n):
    """A + A^H of an n x n matrix A with standard normal real and imaginary parts."""
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A + A.conj().T


def _random_states(rng, grid, hbar, count):
    """Smooth normalized states: random mixes of displaced Gaussians.

    Widths scale as sqrt(hbar) and the correlation as hbar, so the family
    keeps the same geometry relative to the grid at any hbar.
    """
    out = []
    for _ in range(count):
        n_comp = rng.integers(1, 4)
        values = np.zeros(grid.shape, dtype=complex)
        for _ in range(n_comp):
            spec = _random_spec(rng, hbar, (0.3, 1.2), 0.5)
            amp = rng.normal() + 1j * rng.normal()
            values += amp * coordinate_wavefunction(spec, grid).values
        psi = GridWavefunction(grid, values, hbar)
        out.append(psi.with_values(psi.values / psi.norm()))
    return out


def suite_uncertainty(hbar=1.0, tols=None):
    rng = np.random.default_rng(101)
    s = np.sqrt(hbar)
    grid = CoordinateGrid.line(-16 * s, 16 * s, 1024)
    checks = []

    rel = []
    for _ in range(50):
        m = moments(coordinate_wavefunction(_random_spec(rng, hbar, (0.25, 1.5), 0.6), grid))
        det = m.P[0, 0] * m.X[0, 0] - m.rho[0, 0] ** 2
        rel.append(abs(det - hbar**2 / 4.0) / (hbar**2 / 4.0))
    checks.append(_worst("saturation_grid_rel", rel, _tol(tols, "saturation")))

    # per draw hbar/2 - sqrt(X P), positive where the Kennard bound fails
    deficit = [hbar / 2.0 - np.sqrt(m.X[0, 0] * m.P[0, 0])
               for m in map(moments, _random_states(rng, grid, hbar, 100))]
    checks.append(_worst("kennard_violation", deficit, _tol(tols, "kennard")))

    spec = _ground_spec(hbar)
    basis = fock.TruncatedBasis((8,), spec)
    viol = []
    for _ in range(50):
        A = _random_hermitian(rng, 8)
        B = _random_hermitian(rng, 8)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        rep = fock.robertson_check(A, B, fock.FockVector(basis, v / np.linalg.norm(v)))
        viol.append(rep.rhs - rep.lhs)
    checks.append(_worst("robertson_violation", viol, _tol(tols, "kennard")))
    return checks


def _superposition(grid, spec):
    """Seeded normalized superposition of the number states 0..3."""
    basis = fock.TruncatedBasis((4,), spec)
    states = fock.grid_number_states(basis, grid)
    rng = np.random.default_rng(7)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    values = sum(ci * s.values for ci, s in zip(c, states))
    psi = GridWavefunction(grid, values, spec.hbar)
    return psi.with_values(psi.values / psi.norm())


def suite_closure(hbar=1.0, tols=None):
    spec = _ground_spec(hbar)
    s = np.sqrt(hbar)
    grid = CoordinateGrid.line(-16 * s, 16 * s, 1024)
    tol = _tol(tols, "closure")
    checks = []

    coherent = coordinate_wavefunction(spec.displaced([0.3 * s], [0.8 * s]), grid)
    pg = PhaseGrid.symmetric(12.0 * s, 128)
    checks.append(
        _row("coherent_closure", phasespace.closure_reconstruct(coherent, spec, pg).l2_error, tol)
    )

    sup = _superposition(grid, spec)
    pg_sup = PhaseGrid.symmetric(16.0 * s, 128)
    checks.append(
        _row("superposition_closure", phasespace.closure_reconstruct(sup, spec, pg_sup).l2_error, tol)
    )

    coarse = phasespace.closure_reconstruct(sup, spec, PhaseGrid.symmetric(16.0 * s, 32)).l2_error
    fine = phasespace.closure_reconstruct(sup, spec, PhaseGrid.symmetric(16.0 * s, 64)).l2_error
    checks.append(_row("refinement_decrease", fine, coarse))
    return checks


def suite_microstate(hbar=1.0, tols=None):
    h = 2.0 * np.pi * hbar
    try:
        h3 = h**3
    except OverflowError:
        raise InvalidInputError(f"the D = 3 target h^3 = (2 pi hbar)^3 overflows double "
                                f"precision at hbar {hbar!r}") from None
    rel = _tol(tols, "microstate")
    s = np.sqrt(hbar)
    grid = CoordinateGrid.line(-16 * s, 16 * s, 1024)
    spec = _ground_spec(hbar)
    pg = PhaseGrid.symmetric(12.0 * s, 128)
    checks = []

    named = {
        "integral_h": coordinate_wavefunction(spec.displaced([0.5 * s], [0.5 * s]), grid),
        "integral_h_squeezed": coordinate_wavefunction(
            JointStateSpec.from_covariance(X=[[hbar / 4.0]], hbar=hbar), grid
        ),
        "integral_h_correlated": coordinate_wavefunction(
            JointStateSpec.from_covariance(X=[[hbar / 2.0]], rho=[[0.4 * hbar]], hbar=hbar), grid
        ),
        "integral_h_number1": fock.number_state(1, fock.TruncatedBasis((3,), spec), grid),
        "integral_h_superposition": _superposition(grid, spec),
    }
    vol = None
    for name, psi in named.items():
        vol = phasespace.microstate_hypervolume(psi, spec, pg)
        checks.append(_row(name, vol, rel * h, target=h))

    spec2 = JointStateSpec.from_covariance(X=np.diag([hbar / 2.0, hbar / 2.0]), hbar=hbar)
    grid2 = CoordinateGrid.square(-12 * s, 12 * s, 128)
    psi2 = coordinate_wavefunction(spec2, grid2)
    pg2 = PhaseGrid.symmetric(8.0 * s, 48, npairs=2)
    vol2 = phasespace.microstate_hypervolume(psi2, spec2, pg2)
    checks.append(_row("integral_h2_product", vol2, 2.0 * rel * h**2, target=h**2))

    spec3 = JointStateSpec.from_covariance(X=np.diag([hbar / 2.0] * 3), hbar=hbar)
    grid3 = CoordinateGrid(((-8 * s, 8 * s, 32),) * 3)
    psi3 = coordinate_wavefunction(spec3.displaced([0.3 * s, -0.2 * s, 0.1 * s],
                                                   [0.2 * s, 0.4 * s, -0.3 * s]), grid3)
    pg3 = PhaseGrid.symmetric(8.0 * s, 12, npairs=3)
    vol3 = phasespace.microstate_hypervolume(psi3, spec3, pg3)
    checks.append(_row("integral_h3_product", vol3, 3.0 * rel * h3, target=h3))

    count = density.count_microstates(vol, 1, hbar)
    checks.append(_row("omega_single_state", count.omega, rel, target=1.0))
    checks.append(_row("entropy_ten_h", density.boltzmann_entropy(10.0), 1e-12, target=np.log(10.0)))
    return checks


def suite_fock(hbar=1.0, tols=None):
    spec = _ground_spec(hbar)
    s = np.sqrt(hbar)
    grid = CoordinateGrid.line(-12 * s, 12 * s, 2048)
    basis = fock.TruncatedBasis((4,), spec)
    lad = fock.build_ladder(basis)
    checks = []

    sub = np.diag(lad.lowering[0], k=1)
    checks.append(_row("subdiagonal_sqrt_n", np.abs(sub - np.sqrt(np.arange(1, 4))).max(), 0.0))
    # number is the literal product raise @ lower; its diagonal hits the
    # integers to a few ulps of the squared roots
    checks.append(
        _row("number_eigenvalues", np.abs(np.diag(lad.number) - np.arange(4)).max(), 1e-12)
    )
    comm = lad.lowering[0] @ lad.raising[0] - lad.raising[0] @ lad.lowering[0]
    checks.append(_row("commutator_interior", np.abs(comm - np.eye(4))[:3, :3].max(), 1e-12))

    states = fock.grid_number_states(basis, grid)
    checks.append(
        _row("gram_identity", fock.orthonormality_check(states), _tol(tols, "gram"))
    )

    xmat = fock.operator_matrix(lambda s: apply_position(s, 0), states)
    checks.append(_row("x_matrix_hermitian", np.abs(xmat - xmat.conj().T).max(), 1e-8))
    checks.append(_row("x_01_element", abs(xmat[0, 1]), 1e-6, target=np.sqrt(spec.moments.X[0, 0])))

    coeffs = np.array([inner_product(s, states[2]) for s in states])
    nval = float(np.real(coeffs.conj() @ lad.number @ coeffs))
    checks.append(_row("number_expectation_n2", nval, 1e-7, target=2.0))
    return checks


def suite_gauge(hbar=1.0, tols=None):
    spec_zero = _ground_spec(hbar)
    s = np.sqrt(hbar)
    grid = CoordinateGrid.line(-16 * s, 16 * s, 1024)
    psi = coordinate_wavefunction(spec_zero.displaced([0.4 * s], [0.6 * s]), grid)
    pg = PhaseGrid.symmetric(12.0 * s, 192)
    # one shared analyzer serves every gauge; checking the zero gauge before
    # the other gauges' psi~ exist keeps the peak lower
    pws = [phasespace.phase_wavefunction(psi, spec_zero, pg)]
    rep = psops.consistency_check(psi, pws[0])
    pws += [phasespace.phase_wavefunction(psi, dataclasses.replace(spec_zero, gauge=g), pg)
            for g in (GaugeChoice("full"), GaugeChoice("half"))]
    phasespace._drop_shared_analyzer()   # the CCR and modulus rows use no analyzer
    ccr_tol = _tol(tols, "ccr")
    checks = []

    residuals = [psops.ccr_residual(pw) for pw in pws]
    for pw, residual in zip(pws, residuals):
        checks.append(_row(f"ccr_{pw.family.gauge.kind}", residual, ccr_tol))
    spread = max(residuals) - min(residuals)
    checks.append(_row("ccr_pairwise_agreement", spread, _tol(tols, "gauge_pair")))

    # gauge covariance: applying each gauge's operator to the state analyzed
    # in that gauge changes the samples by a unit-modulus factor only
    mods = [np.abs(psops.apply_ptilde(pw, 0).values) for pw in pws]
    mod_dev = max(np.abs(m - mods[0]).max() for m in mods[1:])
    checks.append(_row("ptilde_modulus_gauge_invariance", mod_dev, 1e-10))

    checks.append(_row("consistency_p", rep.p_error, _tol(tols, "consistency")))
    checks.append(_row("consistency_x", rep.x_error, _tol(tols, "consistency")))

    # complex overlap matches quadrature exactly in the zero gauge
    rng = np.random.default_rng(11)
    err = []
    for _ in range(25):
        a = spec_zero.displaced([rng.uniform(-2, 2) * s], [rng.uniform(-2, 2) * s])
        b = spec_zero.displaced([rng.uniform(-2, 2) * s], [rng.uniform(-2, 2) * s])
        quad = inner_product(coordinate_wavefunction(a, grid), coordinate_wavefunction(b, grid))
        err.append(abs(quad - analytic_overlap(a, b)))
    checks.append(_worst("overlap_phase_zero_gauge", err, _tol(tols, "overlap")))
    return checks


def _random_mixture(rng, basis, count):
    """Mixture of `count` random unit vectors with weights drawn in [0.1, 1)."""
    weights = rng.uniform(0.1, 1.0, size=count)
    weights /= weights.sum()
    comps = []
    for w in weights:
        u = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        comps.append((w, fock.FockVector(basis, u / np.linalg.norm(u))))
    return density.MixtureSpec(tuple(comps))


def suite_density(hbar=1.0, tols=None):
    rng = np.random.default_rng(23)
    spec = _ground_spec(hbar)
    basis = fock.TruncatedBasis((8,), spec)
    tol = _tol(tols, "purity")
    checks = []

    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    pure = density.from_pure(fock.FockVector(basis, v / np.linalg.norm(v)))
    checks.append(_row("purity_pure", density.purity(pure), 1e-10, target=1.0))

    drift = []
    for _ in range(100):
        H = _random_hermitian(rng, 8)
        rho = density.from_mixture(_random_mixture(rng, basis, 3))
        rho_t = density.evolve_lvn(rho, H, rng.uniform(0.1, 5.0))
        spectrum = np.linalg.eigvalsh(rho_t.matrix) - np.linalg.eigvalsh(rho.matrix)
        drift.append(max(abs(np.trace(rho_t.matrix).real - 1.0),
                         abs(density.purity(rho_t) - density.purity(rho)),
                         float(np.abs(spectrum).max())))
    checks.append(_worst("lvn_preservation", drift, tol))

    A = _random_hermitian(rng, 8)
    mix = _random_mixture(rng, basis, 4)
    lhs = density.expectation(density.from_mixture(mix), A)
    rhs = sum(w * np.vdot(s.coeffs, A @ s.coeffs) for w, s in mix.components)
    checks.append(_row("mixture_linearity", abs(lhs - rhs), 1e-10))

    s = np.sqrt(hbar)
    grid = CoordinateGrid.line(-12 * s, 12 * s, 1024)
    basis_c = fock.TruncatedBasis((14,), spec)
    coh = coordinate_wavefunction(spec.displaced([0.0], [1.0 * s]), grid)
    states_c = fock.grid_number_states(basis_c, grid)
    coeffs = np.array([inner_product(s, coh) for s in states_c])
    rho0 = density.from_pure(fock.FockVector(basis_c, coeffs / np.linalg.norm(coeffs)))
    H = density.number_hamiltonian(basis_c, omega=1.0)
    rho_q = density.evolve_lvn(rho0, H, np.pi / 2.0)
    xm = fock.position_matrix(basis_c)
    pm = fock.momentum_matrix(basis_c)
    checks.append(_row("quarter_turn_x", density.expectation(rho_q, xm).real, 1e-6 * s, target=0.0))
    checks.append(_row("quarter_turn_p", density.expectation(rho_q, pm).real, 1e-6 * s, target=-1.0 * s))

    pg = PhaseGrid.symmetric(8.0 * s, 128)
    hus = phasespace.density_husimi(rho_q, pg)
    peak = hus.argmax_point()
    cell = np.hypot(pg.pairs[0].dp, pg.pairs[0].dx)
    checks.append(_row("quarter_turn_husimi_peak", np.hypot(peak[0] + 1.0 * s, peak[1]), cell))

    rho_full = density.evolve_lvn(rho0, H, 2.0 * np.pi)
    checks.append(
        _row("full_period_return", float(np.abs(rho_full.matrix - rho0.matrix).max()), 1e-8)
    )
    return checks


def run_suite(name: str, hbar: float = 1.0, tols=None) -> dict:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    checks = []
    for key in SUITES if name == "all" else (name,):
        # looked up by name when called, so a rebound suite_* attribute runs
        rows = globals()[f"suite_{key}"](hbar, tols)
        if name == "all":
            rows = [dict(row, name=f"{key}.{row['name']}") for row in rows]
        checks += rows
    return {"schema": 1, "suite": name, "checks": checks}
