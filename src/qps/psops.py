"""Representative operators acting on phase-space wavefunctions.

With phase-plane coordinates (q, y) = (<p>, <x>) and metric sign s per axis,
the momentum and coordinate operators act on psi~ as

    ptilde = i hbar s d/dy + q - s hbar dK/dy
    xtilde = -i hbar s d/dq + s hbar dK/dq

so that applying them commutes with taking overlaps against the analyzing
family (checked by `consistency_check`).  The three built-in gauges give

    zero:  ptilde = i hbar s d/dy + q      xtilde = -i hbar s d/dq
    full:  ptilde = i hbar s d/dy          xtilde = -i hbar s d/dq + y
    half:  ptilde = i hbar s d/dy + q/2    xtilde = -i hbar s d/dq + y/2

and the commutator [ptilde_mu, xtilde_nu] = i hbar eta[mu,nu] is the same in
every gauge.  Derivatives are spectral on the (padded) phase grid; gauge
derivative terms use the closed forms, not numerics.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import GaugeMismatchError, InvalidInputError
from .grids import (
    SAMPLE_BUDGET,
    CoordinateGrid,
    GridWavefunction,
    along,
    apply_momentum,
    apply_position,
    spectral_derivative,
)
from .phasespace import PhaseAnalyzer, PhaseGrid, PhaseWavefunction, phase_wavefunction
from .states import GaugeChoice, JointStateSpec


def _resolve_gauge(pw: PhaseWavefunction, gauge):
    gauge = gauge or pw.family.gauge
    if gauge != pw.family.gauge:
        family = dataclasses.replace(pw.family, gauge=gauge)
    else:
        family = pw.family
    return gauge, family


def _apply_representative(pw: PhaseWavefunction, axis: int, gauge,
                          momentum: bool) -> PhaseWavefunction:
    """ptilde (momentum) or xtilde along one pair.

    ptilde differentiates along y and multiplies by functions of q; xtilde
    does the reverse with the opposite sign and no mean term.
    """
    gauge, family = _resolve_gauge(pw, gauge)
    if not 0 <= axis < pw.grid.npairs:
        raise InvalidInputError(f"axis {axis} out of range")
    hbar = pw.hbar
    s = family.signature.signs[axis]
    pair = pw.grid.pairs[axis]
    sign = 1.0 if momentum else -1.0
    d_axis, m_axis = (2 * axis + 1, 2 * axis) if momentum else (2 * axis, 2 * axis + 1)
    d_points, m_points = ((pair.x_points(), pair.p_points()) if momentum
                          else (pair.p_points(), pair.x_points()))
    dmu = spectral_derivative(pw.values, d_points[1] - d_points[0], d_axis)
    out = sign * 1j * hbar * s * dmu
    if momentum:
        out += along(m_points, m_axis, pw.values.ndim) * pw.values
    dk = gauge.phase_slope(m_points, s, hbar)
    if np.any(dk != 0.0):
        out -= sign * s * hbar * along(dk, m_axis, pw.values.ndim) * pw.values
    return PhaseWavefunction(pw.grid, out, family)


def apply_ptilde(pw: PhaseWavefunction, axis: int = 0,
                 gauge: GaugeChoice | None = None) -> PhaseWavefunction:
    """Representative momentum operator along one pair."""
    return _apply_representative(pw, axis, gauge, momentum=True)


def apply_xtilde(pw: PhaseWavefunction, axis: int = 0,
                 gauge: GaugeChoice | None = None) -> PhaseWavefunction:
    """Representative coordinate operator along one pair."""
    return _apply_representative(pw, axis, gauge, momentum=False)


@dataclass(frozen=True)
class PhaseOperator:
    """A composition of ptilde/xtilde applications, applied right to left."""

    kinds: tuple  # sequence of ("ptilde"|"xtilde", axis)
    gauge: GaugeChoice | None = None

    def apply(self, pw: PhaseWavefunction) -> PhaseWavefunction:
        out = pw
        for kind, axis in reversed(self.kinds):
            if kind not in ("ptilde", "xtilde"):
                raise InvalidInputError(f"unknown operator kind {kind!r}")
            out = _apply_representative(out, axis, self.gauge, kind == "ptilde")
        return out


def ccr_residual(gauge: GaugeChoice, pw: PhaseWavefunction) -> float:
    """Max over pairs of ||(pt xt - xt pt) f - i hbar eta f|| / ||f||."""
    hbar = pw.hbar
    eta = pw.family.signature.matrix()
    fnorm = np.linalg.norm(pw.values)
    pairs = range(pw.grid.npairs)
    xt = [apply_xtilde(pw, nu, gauge) for nu in pairs]
    pt = [apply_ptilde(pw, mu, gauge) for mu in pairs]
    worst = 0.0
    for mu in pairs:
        for nu in pairs:
            pt_xt = apply_ptilde(xt[nu], mu, gauge).values
            xt_pt = apply_xtilde(pt[mu], nu, gauge).values
            res = pt_xt - xt_pt - 1j * hbar * eta[mu, nu] * pw.values
            worst = max(worst, float(np.linalg.norm(res) / fnorm))
    return worst


@dataclass(frozen=True, eq=False)
class ContinuousKernel:
    """Samples A(z, z') of an operator between family states at phase points."""

    grid: PhaseGrid
    values: np.ndarray  # (n_phase, n_phase), row = unprimed z
    family: JointStateSpec

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.values - self.values.conj().T).max())

    def contract(self, pw: PhaseWavefunction) -> np.ndarray:
        """(A psi~)(z) = sum_z' A(z, z') psi~(z') dq dy / h."""
        if pw.grid != self.grid:
            raise InvalidInputError("kernel and wavefunction grids differ")
        flat = pw.values.reshape(-1)
        out = self.values @ flat * self.grid.measure(self.family.hbar)
        return out.reshape(self.grid.shape)


def continuous_kernel(op, family: JointStateSpec, pgrid: PhaseGrid,
                      grid: CoordinateGrid) -> ContinuousKernel:
    """Quadrature matrix <z|A|z'> over all pairs of phase points (one pair)."""
    if pgrid.npairs != 1 or family.dim != 1:
        raise InvalidInputError("continuous kernels are built for one pair")
    pair = pgrid.pairs[0]
    n_phase = pair.n_p * pair.n_x
    if n_phase**2 > SAMPLE_BUDGET:
        raise InvalidInputError(f"kernel over {n_phase} phase points has {n_phase**2} "
                                f"entries, budget is {SAMPLE_BUDGET}")
    analyzer = PhaseAnalyzer(family, pgrid, grid)
    out = np.zeros((n_phase, n_phase), dtype=complex)
    col = 0
    for jp in range(pair.n_p):
        for kx in range(pair.n_x):
            phi = GridWavefunction(grid, analyzer.family_state(jp, kx),
                                   family.hbar, tuple(family.signature.signs))
            image = op(phi)
            out[:, col] = analyzer.transform(image.values).reshape(-1)
            col += 1
    return ContinuousKernel(grid=pgrid, values=out, family=family)


@dataclass(frozen=True)
class ConsistencyReport:
    p_error: float
    x_error: float


def consistency_check(state: GridWavefunction, family: JointStateSpec,
                      pgrid: PhaseGrid, gauge: GaugeChoice) -> ConsistencyReport:
    """Compare <z|p|psi> and <z|x|psi> computed two ways.

    Direct route: apply the grid operator, then analyze.  Phase route: analyze
    first, then apply the representative operator.  The sup-norm discrepancy
    is grid-limited (~1e-3 on default grids).
    """
    if gauge != family.gauge:
        raise GaugeMismatchError(
            f"requested gauge {gauge.label} but the family carries {family.gauge.label}"
        )
    pw = phase_wavefunction(state, family, pgrid)
    analyzer = PhaseAnalyzer(family, pgrid, state.grid)
    p_err = 0.0
    x_err = 0.0
    for axis in range(family.dim):
        direct_p = analyzer.transform(apply_momentum(state, axis).values)
        via_pt = apply_ptilde(pw, axis)
        p_err = max(p_err, float(np.abs(direct_p - via_pt.values).max()))
        direct_x = analyzer.transform(apply_position(state, axis).values)
        via_xt = apply_xtilde(pw, axis)
        x_err = max(x_err, float(np.abs(direct_x - via_xt.values).max()))
    return ConsistencyReport(p_error=p_err, x_error=x_err)
