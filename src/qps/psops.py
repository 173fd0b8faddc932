"""Representative operators acting on phase-space wavefunctions.

With phase-plane coordinates (q, y) = (<p>, <x>) and metric sign s per axis,
the momentum and coordinate operators act on psi~, in the gauge K of the
family psi~ was analyzed in (`pw.family.gauge`; none takes a second one), as

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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grids import GridWavefunction, along, apply_momentum, apply_position, spectral_derivative
from .phasespace import PhaseWavefunction, _gauge_factor, _shared_analyzer


def _apply_representative(pw: PhaseWavefunction, axis: int,
                          momentum: bool) -> PhaseWavefunction:
    """ptilde (momentum) or xtilde along one pair, in the gauge of pw.family.

    ptilde differentiates along y and multiplies by functions of q; xtilde
    does the reverse with the opposite sign and no mean term.
    """
    if not 0 <= axis < pw.grid.npairs:
        raise InvalidInputError(f"axis {axis} out of range")
    hbar = pw.hbar
    s = pw.family.signature.signs[axis]
    sign = 1.0 if momentum else -1.0
    d_axis, m_axis = (2 * axis + 1, 2 * axis) if momentum else (2 * axis, 2 * axis + 1)
    axes = pw.grid.axes
    d_points, m_points = axes[d_axis], axes[m_axis]
    out = spectral_derivative(pw.values, d_points[1] - d_points[0], d_axis)
    np.multiply(sign * 1j * hbar * s, out, out=out)
    if momentum:
        out += along(m_points, m_axis, pw.values.ndim) * pw.values
    dk = pw.family.gauge.phase_slope(m_points, s, hbar)
    if np.any(dk != 0.0):
        out -= sign * s * hbar * along(dk, m_axis, pw.values.ndim) * pw.values
    return PhaseWavefunction(pw.grid, out, pw.family)


def apply_ptilde(pw: PhaseWavefunction, axis: int = 0) -> PhaseWavefunction:
    """Representative momentum operator along one pair."""
    return _apply_representative(pw, axis, momentum=True)


def apply_xtilde(pw: PhaseWavefunction, axis: int = 0) -> PhaseWavefunction:
    """Representative coordinate operator along one pair."""
    return _apply_representative(pw, axis, momentum=False)


def ccr_residual(pw: PhaseWavefunction) -> float:
    """Max over pairs of ||(pt xt - xt pt) f - i hbar eta f|| / ||f||."""
    hbar = pw.hbar
    eta = pw.family.signature.matrix()
    fnorm = np.linalg.norm(pw.values)
    pairs = range(pw.grid.npairs)
    xt = [apply_xtilde(pw, nu) for nu in pairs]
    pt = [apply_ptilde(pw, mu) for mu in pairs]
    worst = 0.0
    for mu in pairs:
        for nu in pairs:
            pt_xt = apply_ptilde(xt[nu], mu).values
            xt_pt = apply_xtilde(pt[mu], nu).values
            res = pt_xt - xt_pt - 1j * hbar * eta[mu, nu] * pw.values
            worst = max(worst, float(np.linalg.norm(res) / fnorm))
    return worst


@dataclass(frozen=True)
class ConsistencyReport:
    p_error: float
    x_error: float


def consistency_check(state: GridWavefunction, pw: PhaseWavefunction) -> ConsistencyReport:
    """Compare <z|p|psi> and <z|x|psi> computed two ways, in the gauge of
    `pw.family`; `pw` is the caller's `phase_wavefunction` of `state`.

    Direct route: apply the grid operator, then analyze with the analyzer
    `pw` was built with.  Phase route: apply the representative operator to
    `pw`.  The sup-norm discrepancy is grid-limited (1e-14 to 1e-13 on
    verify's grids; its tolerance there is 1e-3).
    """
    analyzer = _shared_analyzer(pw.family, pw.grid, state.grid)  # the one pw was built with
    p_err = x_err = 0.0
    for axis in range(pw.family.dim):
        p_err = max(p_err, _sup_distance(analyzer.transform(apply_momentum(state, axis).values,
                                                            _gauge_factor(pw.family, pw.grid)),
                                         apply_ptilde(pw, axis).values))
        x_err = max(x_err, _sup_distance(analyzer.transform(apply_position(state, axis).values,
                                                            _gauge_factor(pw.family, pw.grid)),
                                         apply_xtilde(pw, axis).values))
    return ConsistencyReport(p_error=p_err, x_error=x_err)


def _sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|; both arrays die with the call, before the next pair is built."""
    return float(np.abs(a - b).max())
