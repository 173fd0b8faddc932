"""Discretized coordinate-representation wavefunctions: the brute-force oracle.

Wavefunctions are sampled on uniform endpoint-exclusive grids in the physical
(covariant) coordinates.  The momentum operator on an axis with metric sign
``s`` is ``p = i hbar s d/dx`` (the ordinary ``-i hbar d/dx`` for a spatial,
s = -1, axis) and is applied spectrally, so 1e-8-level tolerances are
reachable on 1024-point grids.  The dual-grid transform uses the kernel
exp(+(i/hbar) s p x) / sqrt(2 pi hbar) per axis and is exactly unitary on the
grid (discrete Parseval).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CoverageError, InvalidInputError
from .io import read_grid_csv, read_sidecar, reading, write_grid_csv
from .metric import Signature, StatMoments, check_hbar

# most samples one array of a grid, phase grid or number family may hold
SAMPLE_BUDGET = 2**24


@dataclass(frozen=True)
class GridAxis:
    """One uniform axis: points x_min + k dx, k = 0 .. n_points-1."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.x_max - self.x_min < math.inf:
            raise InvalidInputError("axis needs finite x_min < x_max")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise InvalidInputError(f"n_points must be a power of two, got {n}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    def points(self) -> np.ndarray:
        return self.x_min + self.spacing * np.arange(self.n_points)


@dataclass(frozen=True)
class CoordinateGrid:
    """Cartesian product of uniform axes; the sample budget bounds n^D."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(
            ax if isinstance(ax, GridAxis) else GridAxis(*ax) for ax in self.axes
        )
        if not axes:
            raise InvalidInputError("a grid needs at least one axis")
        total = math.prod(ax.n_points for ax in axes)
        check_budget(f"grid has {total} points", total)
        object.__setattr__(self, "axes", axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.n_points for ax in self.axes)

    @property
    def spacings(self) -> tuple:
        return tuple(ax.spacing for ax in self.axes)

    @property
    def bounds(self) -> tuple:
        return tuple((ax.x_min, ax.x_max) for ax in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axis_points(self, axis: int) -> np.ndarray:
        return self.axes[axis].points()

    def meshgrid(self) -> tuple:
        return np.meshgrid(*(ax.points() for ax in self.axes), indexing="ij")

    @classmethod
    def line(cls, x_min: float = -12.0, x_max: float = 12.0, n: int = 1024):
        return cls(axes=(GridAxis(x_min, x_max, n),))

    @classmethod
    def square(cls, x_min: float = -12.0, x_max: float = 12.0, n: int = 256):
        ax = GridAxis(x_min, x_max, n)
        return cls(axes=(ax, ax))

    def dual(self, hbar: float = 1.0) -> "CoordinateGrid":
        """Momentum grid reached by the fast transform: symmetric, same counts."""
        duals = []
        for ax in self.axes:
            p_max = np.pi * hbar / ax.spacing
            duals.append(GridAxis(-p_max, p_max, ax.n_points))
        return CoordinateGrid(axes=tuple(duals))


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Complex samples psi(x) on a grid, with hbar and the metric signature
    of its axes (all spatial by default)."""

    grid: CoordinateGrid
    values: np.ndarray
    hbar: float = 1.0
    signature: Signature = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.shape:
            raise InvalidInputError(
                f"values shape {values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("non-finite wavefunction samples")
        check_hbar(self.hbar)
        signature = self.signature or Signature.spatial(self.grid.ndim)
        if signature.dim != self.grid.ndim:
            raise InvalidInputError("signature dimension does not match the grid")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "signature", signature)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= 1e-9

    def with_values(self, values) -> "GridWavefunction":
        return GridWavefunction(self.grid, values, self.hbar, self.signature)


def inner_product(psi: GridWavefunction, phi: GridWavefunction) -> complex:
    """<psi|phi> by the grid Riemann sum; conjugate-linear in psi."""
    if psi.grid != phi.grid or psi.signature != phi.signature or psi.hbar != phi.hbar:
        raise InvalidInputError("wavefunctions live on different grids")
    return complex(np.sum(np.conj(psi.values) * phi.values) * psi.grid.cell_volume)


def _wavenumbers(n: int, step: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=step)


def along(table: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """View a 1-D table as an ndim array that broadcasts along `axis`."""
    shape = [1] * ndim
    shape[axis] = -1
    return table.reshape(shape)


def spectral_derivative(values: np.ndarray, step: float, axis: int) -> np.ndarray:
    """d/dx of periodic samples with spacing `step` along `axis`, by FFT."""
    k = along(_wavenumbers(values.shape[axis], step), axis, values.ndim)
    f = np.fft.fft(values, axis=axis)
    np.multiply(1j * k, f, out=f)
    return np.fft.ifft(f, axis=axis)


def apply_position(psi: GridWavefunction, axis: int = 0) -> GridWavefunction:
    """Pointwise multiplication by the coordinate of the given axis."""
    if not 0 <= axis < psi.grid.ndim:
        raise InvalidInputError(f"axis {axis} out of range")
    return psi.with_values(psi.values * along(psi.grid.axis_points(axis), axis, psi.grid.ndim))


def apply_momentum(psi: GridWavefunction, axis: int = 0) -> GridWavefunction:
    """Spectral application of p = i hbar s d/dx along the given axis."""
    if not 0 <= axis < psi.grid.ndim:
        raise InvalidInputError(f"axis {axis} out of range")
    dpsi = spectral_derivative(psi.values, psi.grid.axes[axis].spacing, axis)
    return psi.with_values(1j * psi.hbar * psi.signature.signs[axis] * dpsi)


def momentum_transform(psi: GridWavefunction) -> GridWavefunction:
    """Map to the momentum representation on the dual grid.

    Implements psi~(p) = (2 pi hbar)^(-D/2) integral exp((i/hbar) s p x)
    psi(x) dx per axis; unitary on the grid, so the output norm equals the
    input norm to machine precision.  Rejects grids whose Nyquist momentum
    does not cover the transform by 6 sigma.
    """
    values = psi.values
    hbar = psi.hbar
    for axis, ax in enumerate(psi.grid.axes):
        k = _wavenumbers(ax.n_points, ax.spacing)
        if psi.signature.signs[axis] < 0:
            ft = np.fft.fft(values, axis=axis)
            phase = np.exp(-1j * (k * ax.x_min))
        else:
            ft = np.fft.ifft(values, axis=axis) * ax.n_points
            phase = np.exp(+1j * (k * ax.x_min))
        values = ft * along(phase, axis, values.ndim) * ax.spacing / np.sqrt(2.0 * np.pi * hbar)
        values = np.fft.fftshift(values, axes=axis)
    out = GridWavefunction(psi.grid.dual(hbar), values, hbar, psi.signature)
    spreads = [_axis_mean_std(out.values, out.grid, axis) for axis in range(out.grid.ndim)]
    check_coverage([f"momentum axis {axis}" for axis in range(out.grid.ndim)],
                   out.grid.bounds, [m for m, _ in spreads], [6.0 * s for _, s in spreads])
    return out


def inverse_momentum_transform(phi: GridWavefunction, grid: CoordinateGrid) -> GridWavefunction:
    """Invert :func:`momentum_transform` back onto the original grid."""
    if grid.shape != phi.grid.shape:
        raise InvalidInputError("target grid shape does not match")
    expected = grid.dual(phi.hbar)
    for got, want in zip(phi.grid.axes, expected.axes):
        if abs(got.x_min - want.x_min) > 1e-9 or abs(got.spacing - want.spacing) > 1e-12:
            raise InvalidInputError("input does not live on the dual of the target grid")
    values = phi.values
    for axis, ax in enumerate(grid.axes):
        k = _wavenumbers(ax.n_points, ax.spacing)
        v = np.fft.ifftshift(values, axes=axis)
        if phi.signature.signs[axis] < 0:
            v = v * along(np.exp(+1j * (k * ax.x_min)), axis, grid.ndim)
            v = np.fft.ifft(v, axis=axis)
        else:
            v = v * along(np.exp(-1j * (k * ax.x_min)), axis, grid.ndim)
            v = np.fft.fft(v, axis=axis) / ax.n_points
        values = v * np.sqrt(2.0 * np.pi * phi.hbar) / ax.spacing
    return GridWavefunction(grid, values, phi.hbar, phi.signature)


def _axis_mean_std(values: np.ndarray, grid: CoordinateGrid, axis: int):
    prob = np.abs(values) ** 2 * grid.cell_volume
    mass = prob.sum()
    xg = along(grid.axis_points(axis), axis, grid.ndim)
    mean = float((xg * prob).sum() / mass)
    var = float(((xg - mean) ** 2 * prob).sum() / mass)
    return mean, np.sqrt(max(var, 0.0))


def check_coverage(names, bounds, centers, reaches):
    """Raise CoverageError for the first axis whose [lo, hi] misses center +- reach."""
    for what, (lo, hi), center, reach in zip(names, bounds, centers, reaches):
        if lo > center - reach or hi < center + reach:
            raise CoverageError(f"{what} [{lo:.6g}, {hi:.6g}] does not cover "
                                f"[{center - reach:.3g}, {center + reach:.3g}]")


def check_budget(what: str, samples: int):
    """Raise InvalidInputError if an array of `samples` values, `what`, is too large."""
    if samples > SAMPLE_BUDGET:
        raise InvalidInputError(f"{what}, budget is {SAMPLE_BUDGET}")


def moments(psi: GridWavefunction) -> StatMoments:
    """Measure means and the covariance blocks by quadrature.

    rho uses the symmetrized combination Re <(p - <p>) psi | (x - <x>) psi>.
    """
    if not psi.is_normalized():
        raise InvalidInputError(f"moments need a normalized state, norm^2 off by "
                                f"{psi.norm()**2 - 1.0:.2e}")
    d = psi.grid.ndim
    dvol = psi.grid.cell_volume
    prob = np.abs(psi.values) ** 2 * dvol

    xs = [along(psi.grid.axis_points(mu), mu, d) for mu in range(d)]
    mean_x = np.array([float((x * prob).sum()) for x in xs])

    # keep the D centred p psi only; centre each x psi where it is used
    mean_p = np.zeros(d)
    centered_p = []
    for mu in range(d):
        p_psi = apply_momentum(psi, mu).values
        mean_p[mu] = float(np.real(np.sum(np.conj(psi.values) * p_psi) * dvol))
        centered_p.append(p_psi - mean_p[mu] * psi.values)
    del p_psi

    X = np.zeros((d, d))
    P = np.zeros((d, d))
    rho = np.zeros((d, d))
    for mu in range(d):
        x_mu = (xs[mu] - mean_x[mu]) * psi.values
        for nu in range(d):
            x_nu = x_mu if nu == mu else (xs[nu] - mean_x[nu]) * psi.values
            X[mu, nu] = float(np.real(np.sum(np.conj(x_mu) * x_nu) * dvol))
            P[mu, nu] = float(np.real(np.sum(np.conj(centered_p[mu]) * centered_p[nu]) * dvol))
            rho[mu, nu] = float(np.real(np.sum(np.conj(centered_p[mu]) * x_nu) * dvol))
    X = 0.5 * (X + X.T)
    P = 0.5 * (P + P.T)
    return StatMoments(mean_p=mean_p, mean_x=mean_x, P=P, X=X, rho=rho)


def _wavefunction_header(ndim: int) -> list:
    return [f"x{i + 1}" for i in range(ndim)] + ["re", "im"]


def write_wavefunction(psi: GridWavefunction, csv_path):
    """Export samples as CSV (coordinates, re, im) plus a JSON grid header."""
    axes = [psi.grid.axis_points(mu) for mu in range(psi.grid.ndim)]
    meta = {"schema": 1, "hbar": psi.hbar, "signs": psi.signature.signs.tolist(),
            "axes": [asdict(ax) for ax in psi.grid.axes]}
    write_grid_csv(csv_path, _wavefunction_header(psi.grid.ndim), axes,
                   [psi.values.real, psi.values.imag], meta)


def read_wavefunction(csv_path) -> GridWavefunction:
    """Re-import a wavefunction written by :func:`write_wavefunction`."""
    with reading("wavefunction"):
        meta = read_sidecar(csv_path)
        axes = tuple(
            GridAxis(a["x_min"], a["x_max"], a["n_points"]) for a in meta["axes"]
        )
        grid = CoordinateGrid(axes=axes)
        re, im = read_grid_csv(csv_path, _wavefunction_header(grid.ndim),
                               [grid.axis_points(mu) for mu in range(grid.ndim)], 2)
        values = (re + 1j * im).reshape(grid.shape)
        signs = [float(s) for s in meta["signs"]]
        signature = Signature(signs.count(1.0), signs.count(-1.0))
        if signature.signs.tolist() != signs:
            raise InvalidInputError("signs must be +-1 per axis, the +1 axes first")
        return GridWavefunction(grid, values, float(meta["hbar"]), signature)
