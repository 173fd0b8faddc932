"""Joint momentum-coordinate states: the Gaussian family saturating uncertainty.

A joint state is labeled by its means, a saturating covariance set and a real
gauge constant K.  In the physical coordinates used by the grid oracle its
coordinate wavefunction is

    psi(x) = [(2 pi)^D |det X|]^(-1/4)
             exp(-(1/hbar^2) Bp[mu,nu] xi_mu xi_nu
                 - (i/hbar) sum_mu s_mu <p_mu> x_mu + i K)

with xi = x - <x>, Bp the symmetrized physical shape matrix (eta B eta) and
s_mu the metric signs.  For one spatial pair this is the familiar
(2 pi X)^(-1/4) exp(-(x-<x>)^2/(4X) + i rho (x-<x>)^2/(2 hbar X) + i <p> x / hbar).

Each state is an eigenstate of z_mu = p_mu + (2i/hbar) s_nu B[mu,nu] x_nu,
which for a spatial axis reads p - (2i/hbar) B x; the grid oracle pins this
sign convention (the opposite relative sign has no normalizable eigenstates).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, SaturationError
from .grids import (
    CoordinateGrid,
    GridWavefunction,
    apply_momentum,
    apply_position,
    check_coverage,
)
from .metric import (
    Signature,
    StatMoments,
    build_shape,
    check_saturation,
    saturating_moments,
)

# the one map from gauge kind to K: the scale of K in GaugeChoice
_GAUGE_SCALES = {"zero": 0.0, "full": 1.0, "half": 0.5, "const": 0.0}

# largest saturation residual a spec may carry
_SATURATION_TOL = 1e-9


@dataclass(frozen=True)
class GaugeChoice:
    """The free real phase K of the joint-state wavefunction,

        K = (scale / hbar) sum_mu s_mu <p_mu> <x_mu>

    with the scale of its kind in `_GAUGE_SCALES`: 1 for "full", 1/2 for
    "half".  A kind of scale 0 has the constant K = value: 0 for "zero", any
    finite value for "const", the only kind that takes one.

    For an all-spatial system (s_mu = -1) "full" and "half" are
    -<p><x>/hbar and -<p><x>/(2 hbar).
    """

    kind: str = "zero"
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _GAUGE_SCALES:
            raise InvalidInputError(f"unknown gauge kind {self.kind!r}")
        if not np.isfinite(self.value):
            raise InvalidInputError("gauge constant must be finite")
        if self.value != 0.0 and self.kind != "const":
            raise InvalidInputError(f"gauge kind {self.kind!r} takes no value, got {self.value!r}")

    @property
    def label(self) -> str:
        return self.kind if self.kind != "const" else f"const({self.value:.12g})"

    def phase(self, mean_p, mean_x, signs, hbar: float):
        """K evaluated at the given phase-space point(s); broadcasting ok."""
        mean_p = np.asarray(mean_p, dtype=float)
        mean_x = np.asarray(mean_x, dtype=float)
        scale = _GAUGE_SCALES[self.kind]
        if not scale:
            return np.full(np.broadcast(mean_p, mean_x).shape, self.value)
        return (scale / hbar) * np.asarray(signs) * mean_p * mean_x

    def phase_slope(self, mean, signs, hbar: float):
        """Closed form dK/d<x_mu> as a function of <p_mu>, which is the same
        formula as dK/d<p_mu> as a function of <x_mu>."""
        mean = np.asarray(mean, dtype=float)
        scale = _GAUGE_SCALES[self.kind]
        if not scale:
            return np.zeros_like(mean)
        return (scale / hbar) * np.asarray(signs) * mean


@dataclass(frozen=True, eq=False)
class JointStateSpec:
    """Full parameterization of one joint state |<z>>."""

    moments: StatMoments
    signature: Signature
    gauge: GaugeChoice = GaugeChoice()
    hbar: float = 1.0

    def __post_init__(self):
        if self.signature.dim != self.moments.dim:
            raise InvalidInputError("signature and moments dimensions differ")
        residual = check_saturation(self.moments, self.signature, self.hbar)
        if residual > _SATURATION_TOL:
            raise SaturationError(
                f"uncertainty saturation violated: residual {residual:.3e} > "
                f"{_SATURATION_TOL:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.moments.dim

    @cached_property
    def shape(self):
        return build_shape(self.moments, self.signature, self.hbar)

    @property
    def axis_factorized(self) -> bool:
        """Whether the Gaussian exponent is diagonal, so that the state is a
        product over axes (then X, rho, B and a = sqrt(eta X) are diagonal)."""
        expo = self.shape.exponent
        return not np.abs(expo - np.diag(np.diag(expo))).max() > 0.0

    @cached_property
    def mean_z(self) -> np.ndarray:
        """Eigenvalue label <z_mu> = <p_mu> + (2i/hbar) s_nu B[mu,nu] <x_nu>."""
        signs = self.signature.signs
        upper_x = signs * self.moments.mean_x
        return self.moments.mean_p + (2j / self.hbar) * (self.shape.matrix @ upper_x)

    def gauge_phase(self) -> float:
        signs = self.signature.signs
        return float(
            np.sum(self.gauge.phase(self.moments.mean_p, self.moments.mean_x, signs, self.hbar))
        )

    def displaced(self, mean_p, mean_x) -> "JointStateSpec":
        """Same covariance/gauge anchored at a different phase-space point."""
        m = StatMoments(
            mean_p=np.atleast_1d(np.asarray(mean_p, dtype=float)),
            mean_x=np.atleast_1d(np.asarray(mean_x, dtype=float)),
            P=self.moments.P,
            X=self.moments.X,
            rho=self.moments.rho,
        )
        return dataclasses.replace(self, moments=m)

    @classmethod
    def from_covariance(cls, X, rho=None, mean_p=None, mean_x=None,
                        signature: Signature | None = None,
                        gauge: GaugeChoice | None = None, hbar: float = 1.0):
        """Build a spec from X, rho and means, filling P in by saturation."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        signature = signature or Signature.spatial(X.shape[0])
        m = saturating_moments(X, rho, mean_p, mean_x, signature, hbar)
        return cls(moments=m, signature=signature,
                   gauge=gauge or GaugeChoice(), hbar=hbar)

    def to_dict(self) -> dict:
        d = self.moments.to_dict()
        d.update(
            schema=1,
            hbar=self.hbar,
            signature={"d_plus": self.signature.d_plus, "d_minus": self.signature.d_minus},
            gauge={"kind": self.gauge.kind, "value": self.gauge.value},
        )
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "JointStateSpec":
        try:
            counts = (d["signature"]["d_plus"], d["signature"]["d_minus"])
            if not all(type(n) is int for n in counts):
                raise ValueError(f"signature counts must be integers, got {counts!r}")
            sig = Signature(*counts)
            g = d.get("gauge", {"kind": "zero", "value": 0.0})
            if not isinstance(g, dict):
                raise ValueError(f"gauge must be an object, got {g!r}")
            gauge = GaugeChoice(g.get("kind", "zero"), float(g.get("value", 0.0)))
            hbar = float(d.get("hbar", 1.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed state spec: {exc}") from exc
        return cls(moments=StatMoments.from_dict(d), signature=sig, gauge=gauge, hbar=hbar)


def coordinate_wavefunction(spec: JointStateSpec, grid: CoordinateGrid) -> GridWavefunction:
    """Sample the joint-state Gaussian on a coordinate grid (unit norm)."""
    if grid.ndim != spec.dim:
        raise InvalidInputError("grid dimension does not match the state")
    check_coverage([f"grid axis {mu}" for mu in range(spec.dim)], grid.bounds,
                   spec.moments.mean_x, 6.0 * np.sqrt(np.diag(spec.moments.X)))
    signs = spec.signature.signs
    hbar = spec.hbar
    norm = spec.moments.gaussian_norm
    mesh = np.stack(grid.meshgrid())
    xi = mesh - spec.moments.mean_x.reshape((-1,) + (1,) * spec.dim)
    expo = spec.shape.exponent  # symmetrized eta B eta
    quad = np.einsum("i...,ij,j...->...", xi, expo, xi)
    # means too large for double precision leave non-finite samples, which
    # GridWavefunction rejects
    with np.errstate(over="ignore", invalid="ignore"):
        phase = -np.einsum("i,i...->...", signs * spec.moments.mean_p, mesh) / hbar
        values = norm * np.exp(-quad / hbar**2 + 1j * (phase + spec.gauge_phase()))
    psi = GridWavefunction(grid, values, hbar, spec.signature)
    check_momentum_range(spec, grid)
    return psi


def check_momentum_range(spec: JointStateSpec, grid: CoordinateGrid):
    """Reject a grid whose dual momentum range misses 6 sigma of the state's
    momenta: a momentum beyond it would be sampled aliased."""
    check_coverage([f"momentum range of grid axis {mu}" for mu in range(spec.dim)],
                   grid.dual(spec.hbar).bounds, spec.moments.mean_p,
                   6.0 * np.sqrt(np.diag(spec.moments.P)))


def momentum_wavefunction(spec: JointStateSpec, grid: CoordinateGrid) -> GridWavefunction:
    """Closed-form momentum-representation Gaussian on the given p-grid.

    Equals the fast transform of the coordinate wavefunction; the dual shape
    matrix is hbar^2/(4 Bp) in one dimension.
    """
    if grid.ndim != spec.dim:
        raise InvalidInputError("grid dimension does not match the state")
    signs = spec.signature.signs
    hbar = spec.hbar
    check_coverage([f"momentum grid axis {mu}" for mu in range(spec.dim)], grid.bounds,
                   spec.moments.mean_p, 6.0 * np.sqrt(np.diag(spec.moments.P)))
    M = spec.shape.exponent / hbar**2
    M_inv = np.linalg.inv(M)
    pref = spec.moments.gaussian_norm * (2.0 * np.pi * hbar) ** (-spec.dim / 2.0) \
        * np.sqrt(np.pi**spec.dim / np.linalg.det(M))
    axes = (-1,) + (1,) * spec.dim
    dp = signs.reshape(axes) * (np.stack(grid.meshgrid()) - spec.moments.mean_p.reshape(axes))
    quad = np.einsum("i...,ij,j...->...", dp, M_inv, dp)
    phase = np.einsum("i,i...->...", spec.moments.mean_x, dp) / hbar
    values = pref * np.exp(-quad / (4.0 * hbar**2) + 1j * (phase + spec.gauge_phase()))
    return GridWavefunction(grid, values, hbar, spec.signature)


def apply_z(spec: JointStateSpec, psi: GridWavefunction, mu: int,
            adjoint: bool = False) -> GridWavefunction:
    """Grid realization of z_mu = p_mu + (2i/hbar) sum_nu s_nu B[mu,nu] x_nu,
    or of its adjoint z_mu^dagger (conjugated shape coefficients)."""
    signs = spec.signature.signs
    shape = np.conj(spec.shape.matrix) if adjoint else spec.shape.matrix
    scale = (-2j if adjoint else 2j) / spec.hbar
    out = apply_momentum(psi, mu).values.copy()
    for nu in range(spec.dim):
        coeff = scale * shape[mu, nu] * signs[nu]
        if coeff != 0.0:
            out += coeff * apply_position(psi, nu).values
    return psi.with_values(out)


def z_eigencheck(spec: JointStateSpec, grid: CoordinateGrid) -> float:
    """Max over axes of ||(z_mu - <z_mu>) psi|| / ||psi|| on the grid."""
    psi = coordinate_wavefunction(spec, grid)
    norm = psi.norm()
    worst = 0.0
    for mu in range(spec.dim):
        res = apply_z(spec, psi, mu).values - spec.mean_z[mu] * psi.values
        rnorm = np.sqrt(np.sum(np.abs(res) ** 2) * grid.cell_volume)
        worst = max(worst, float(rnorm / norm))
    return worst


def _require_overlap_domain(a: JointStateSpec, b: JointStateSpec):
    if a.dim != b.dim or a.signature != b.signature:
        raise InvalidInputError("overlap needs matching dimensions and signature")
    if a.hbar != b.hbar:
        raise InvalidInputError("overlap needs matching hbar")
    for m in (a.moments, b.moments):
        if np.abs(m.rho).max() > 0.0:
            raise InvalidInputError("closed-form overlap holds for rho = 0 only")
        if np.abs(m.X - np.diag(np.diag(m.X))).max() > 0.0:
            raise InvalidInputError("closed-form overlap needs a diagonal covariance")
    if not all((np.abs(u - v) <= 1e-12 * np.abs(v)).all()
               for u, v in ((a.moments.X, b.moments.X), (a.moments.P, b.moments.P))):
        raise InvalidInputError("overlap needs identical covariance blocks")


def analytic_overlap(a: JointStateSpec, b: JointStateSpec) -> complex:
    """Closed-form <a|b> for two states of the same diagonal covariance.

    Per axis: exp(-dp^2/(8P) - dx^2/(8X) + (i/2hbar) s dp (<x>+<x'>)), then a
    factor exp(i (K_b - K_a)) with each state's own gauge phase, so a and b
    may carry different gauges.  This is the quadrature overlap of the sampled
    wavefunctions in any pair of gauges; the modulus is gauge-independent.
    """
    _require_overlap_domain(a, b)
    signs = a.signature.signs
    hbar = a.hbar
    dp = a.moments.mean_p - b.moments.mean_p
    dx = a.moments.mean_x - b.moments.mean_x
    sx = a.moments.mean_x + b.moments.mean_x
    Pd = np.diag(a.moments.P)
    Xd = np.diag(a.moments.X)
    log_mod = -np.sum(dp**2 / (8.0 * Pd) + dx**2 / (8.0 * Xd))
    phase = np.sum(signs * dp * sx) / (2.0 * hbar)
    phase += b.gauge_phase() - a.gauge_phase()
    return complex(np.exp(log_mod) * np.exp(1j * phase))
