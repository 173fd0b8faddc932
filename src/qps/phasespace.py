"""Phase-space wavefunctions, positive distributions and the hypervolume law.

The phase-space wavefunction of a state against an analyzing joint-state
family is psi~(q, y) = <family state at (q, y) | psi>.  Its squared modulus
is a positive density over the plane of means; integrated with the measure
dq dy / h per pair it carries unit mass, and without the 1/h factors it
measures exactly h^D for every normalized state - the elementary microstate
hypervolume.

A standard Wigner transform (one pair only) is included as a contrast
fixture: it shares the same measure convention but may go negative.

Phase grids are midpoint grids: samples sit at cell centers, so plain sums
times the cell area implement the midpoint rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import InvalidInputError, UnsupportedError
from .grids import CoordinateGrid, GridWavefunction, check_budget, check_coverage, moments
from .io import write_grid_csv
from .metric import check_weights
from .states import JointStateSpec


@dataclass(frozen=True)
class PhasePair:
    """Midpoint grid over one momentum-coordinate pair of the phase plane."""

    p_min: float
    p_max: float
    n_p: int
    x_min: float
    x_max: float
    n_x: int

    def __post_init__(self):
        if not (0.0 < self.p_max - self.p_min < math.inf
                and 0.0 < self.x_max - self.x_min < math.inf):
            raise InvalidInputError("phase ranges must be finite and increasing")
        if self.n_p <= 1 or self.n_x <= 1:  # a spacing needs two points
            raise InvalidInputError("phase grids need at least 2 points per axis")

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    def p_points(self) -> np.ndarray:
        return self.p_min + self.dp * (np.arange(self.n_p) + 0.5)

    def x_points(self) -> np.ndarray:
        return self.x_min + self.dx * (np.arange(self.n_x) + 0.5)


@dataclass(frozen=True)
class PhaseGrid:
    """One PhasePair per momentum-coordinate pair; values use axis order
    (p1, x1, p2, x2, ...)."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple(
            p if isinstance(p, PhasePair) else PhasePair(*p) for p in self.pairs
        )
        if not pairs:
            raise InvalidInputError("a phase grid needs at least one pair")
        total = math.prod(p.n_p * p.n_x for p in pairs)
        check_budget(f"phase grid has {total} samples", total)
        object.__setattr__(self, "pairs", pairs)

    @property
    def npairs(self) -> int:
        return len(self.pairs)

    @property
    def shape(self) -> tuple:
        out = []
        for pair in self.pairs:
            out += [pair.n_p, pair.n_x]
        return tuple(out)

    @property
    def cell(self) -> float:
        """Plain cell area Prod dp dx, with no 1/h factors."""
        return float(np.prod([p.dp * p.dx for p in self.pairs]))

    def measure(self, hbar: float) -> float:
        """Midpoint weight per sample against the dq dy / h measure."""
        return self.cell / (2.0 * np.pi * hbar) ** self.npairs

    @classmethod
    def symmetric(cls, extent: float = 8.0, n: int = 128, npairs: int = 1):
        pair = PhasePair(-extent, extent, n, -extent, extent, n)
        return cls((pair,) * npairs)


@dataclass(frozen=True, eq=False)
class PhaseWavefunction:
    """Complex psi~ samples over a phase grid, tagged by the analyzing family."""

    grid: PhaseGrid
    values: np.ndarray
    family: JointStateSpec

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.shape:
            raise InvalidInputError("phase values shape does not match grid")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def hbar(self) -> float:
        return self.family.hbar

    def norm_squared(self) -> float:
        """Mass against the dq dy / h measure (1 for a normalized source)."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.measure(self.hbar))

    def with_values(self, values) -> "PhaseWavefunction":
        return PhaseWavefunction(self.grid, values, self.family)


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Real phase-space density against the dq dy / h measure."""

    grid: PhaseGrid
    values: np.ndarray
    kind: str
    hbar: float

    def __post_init__(self):
        if self.kind not in ("husimi_like", "wigner"):
            raise InvalidInputError(f"unknown distribution kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise InvalidInputError("distribution shape does not match grid")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        return float(np.sum(self.values) * self.grid.measure(self.hbar))

    def minimum(self) -> float:
        return float(self.values.min())

    def maximum(self) -> float:
        return float(self.values.max())

    def argmax_point(self) -> tuple:
        """(p, x, ...) coordinates of the largest sample."""
        idx = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        coords = []
        for k, pair in enumerate(self.grid.pairs):
            coords.append(float(pair.p_points()[idx[2 * k]]))
            coords.append(float(pair.x_points()[idx[2 * k + 1]]))
        return tuple(coords)


class PhaseAnalyzer:
    """Precomputed per-pair tables mapping grid samples to psi~ samples.

    For each pair the family state factorizes into a Gaussian window around
    y and a momentum phase in q, so psi~ is one windowed Fourier sum per
    pair: grid axis m maps to phase axes (j, k) through T[(j, k), m] =
    E[j, m] W[m, k].  The transform applies that map pair by pair and then
    the gauge phase exp(-i sum K), built once in place and skipped when
    every K is zero; synthesis is its adjoint.  The mass sum |psi~|^2 needs
    no psi~: the phase has unit modulus, and T^H T, the sampled frame
    operator of the family, is the per-pair Gram matrix
    G[m, m'] = (E^H E)[m, m'] (conj(W) W^T)[m, m'], so each pair either
    takes the transform's pass or keeps its grid axis for G, whichever
    costs fewer multiply-adds.  Requires the family shape matrix to be
    diagonal, so that the window factorizes by pair.
    """

    def __init__(self, family: JointStateSpec, pgrid: PhaseGrid, grid: CoordinateGrid):
        if family.dim != pgrid.npairs or grid.ndim != family.dim:
            raise InvalidInputError("family, phase grid and grid dimensions differ")
        expo = family.shape.exponent
        if np.abs(expo - np.diag(np.diag(expo))).max() > 0.0:
            raise UnsupportedError(
                "multi-pair analysis needs an axis-factorized analyzing family"
            )
        # Before any table, the largest array a pass of transform or synthesize
        # holds: E, the smaller intermediate (see below), its input or output.
        n_grid, n_cells = grid.shape, [p.n_p * p.n_x for p in pgrid.pairs]
        need = 0
        for mu, (n, pair) in enumerate(zip(n_grid, pgrid.pairs)):
            for rest in (math.prod(n_cells[:mu]) * math.prod(n_grid[mu + 1:]),   # transform
                         math.prod(n_grid[:mu]) * math.prod(n_cells[mu + 1:])):  # synthesize
                need = max(need, n * pair.n_p, n * pair.n_x * min(rest, pair.n_p),
                           rest * max(n, n_cells[mu]))
        check_budget(f"phase analysis on grid {n_grid} needs arrays of {need} samples", need)
        self.family = family
        self.pgrid = pgrid
        self.grid = grid
        hbar = family.hbar
        signs = family.signature.signs
        self.norm = family.moments.gaussian_norm
        self.windows = []   # W[m, k] = exp(-conj(bp)(x_m - y_k)^2 / hbar^2)
        self.kernels = []   # E[j, m] = exp((i/hbar) s q_j x_m) dx
        self.kphases = []   # K(q_j, y_k) per pair
        for mu, pair in enumerate(pgrid.pairs):
            x = grid.axis_points(mu)
            y = pair.x_points()
            q = pair.p_points()
            bp = expo[mu, mu]
            self.windows.append(np.exp(-np.conj(bp) / hbar**2
                                       * (x[:, None] - y[None, :]) ** 2))
            self.kernels.append(
                np.exp(1j / hbar * signs[mu] * q[:, None] * x[None, :])
                * grid.axes[mu].spacing
            )
            self.kphases.append(
                family.gauge.phase(q[:, None], y[None, :], signs[mu], hbar)
            )

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Grid samples -> psi~ samples, axis order (p1, x1, p2, x2, ...).

        Each pass contracts the leading grid axis m and appends (j, k).
        """
        out = values
        for E, W in zip(self.kernels, self.windows):
            out = _pass(out, E, W)
        if not any(K.any() for K in self.kphases):  # out is a contraction's own array
            return np.multiply(out, self.norm, out=out)
        phase = np.multiply(-1j, reduce(np.add.outer, self.kphases))
        np.exp(phase, out=phase)
        phase *= self.norm
        phase *= out
        return phase

    def mass(self, values: np.ndarray) -> float:
        """sum |transform(values)|^2, with no array the size of the phase grid
        where a Gram matrix is cheaper.

        A pass on an array of S samples costs S n_p n_x multiply-adds; the
        pair's Gram matrix costs n^2 (n_p + n_x) to build and n S to apply,
        and keeps the grid axis m in place of (j, k).  The mass is then
        vdot(A, (x G) A) for the array A the passes leave.
        """
        out, grams = values, []
        for E, W in zip(self.kernels, self.windows):
            n, n_p, n_x = len(W), len(E), W.shape[1]
            if n * n * (n_p + n_x) + n * out.size < out.size * n_p * n_x:
                check_budget(f"a Gram matrix of {n} x {n} grid points", n * n)
                grams.append((E.conj().T @ E) * (W.conj() @ W.T))
                out = np.moveaxis(out, 0, -1)
            else:
                grams.append(None)
                out = _pass(out, E, W)
        # the unit-modulus gauge phase drops out; a pass makes out its own array
        out = np.multiply(out, self.norm, out=out if any(G is None for G in grams) else None)
        image, axis = out, 0
        for G in grams:
            if G is None:
                axis += 2
            else:
                image = np.moveaxis(np.tensordot(G, image, axes=(1, axis)), 0, axis)
                axis += 1
        return float(np.vdot(out, image).real)

    def synthesize(self, pw_values: np.ndarray) -> np.ndarray:
        """Adjoint map: sum_z psi~(z) (family state at z) dq dy / h.

        Each pass contracts the leading (j, k) with the conjugated tables and
        appends m.
        """
        out = pw_values
        if any(K.any() for K in self.kphases):
            out = np.multiply(1j, reduce(np.add.outer, self.kphases))
            np.exp(out, out=out)
            out *= pw_values
        for E, W in zip(self.kernels, self.windows):
            if out.size // (len(E) * W.shape[1]) <= len(E):
                acc = np.tensordot(E.conj(), out, axes=([0], [0]))        # (m, k, ...)
                out = np.moveaxis(np.einsum("mk...,mk->m...", acc, W.conj()), 0, -1)
            else:
                table = np.conj(E[:, None, :] * W.T[None, :, :])        # (j, k, m)
                out = np.tensordot(out, table, axes=([0, 1], [0, 1]))
        return out * (self.norm / self.grid.cell_volume * self.pgrid.measure(self.family.hbar))

    def family_state(self, *index: int) -> np.ndarray:
        """Sampled family state at phase point (j1, k1, j2, k2, ...): the
        synthesis of a unit sample there, without the measure."""
        unit = np.zeros(self.pgrid.shape)
        unit[index] = 1.0
        return self.synthesize(unit) / self.pgrid.measure(self.family.hbar)


def _pass(out: np.ndarray, E: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Contract the leading grid axis m of `out` with one pair's tables and
    append its phase axes (j, k).

    Of the two intermediates of equal multiply-add count, the window-weighted
    samples and the (j, k, m) table E W, build the smaller: the first while
    the `rest` of the axes hold at most n_p samples.  One pair is thus
    E @ (v * W).
    """
    if out.size // len(W) <= len(E):
        weighted = out[..., None] * np.expand_dims(W, tuple(range(1, out.ndim)))
        return np.moveaxis(np.tensordot(E, weighted, axes=1), 0, -2)
    return np.tensordot(out, E[:, None, :] * W.T[None, :, :], axes=([0], [2]))


@lru_cache(maxsize=1)
def _shared_analyzer(family: JointStateSpec, pgrid: PhaseGrid,
                     grid: CoordinateGrid) -> PhaseAnalyzer:
    """The analyzer of the last (family, pgrid, grid), so that consecutive
    analyses of one setup (the snapshots of one command, the states of one
    verify row) share one build.  Specs hash by identity, grids by value."""
    return PhaseAnalyzer(family, pgrid, grid)


def _check_phase_coverage(state: GridWavefunction, pgrid: PhaseGrid, n_sigma: float):
    """Reject an unnormalized state (through `moments`) and a phase grid that
    misses n_sigma of its spread."""
    stats = moments(state)
    # one entry per phase-grid axis, in the order p1, x1, p2, x2, ...
    names = [f"phase grid pair {mu} {axis}" for mu in range(pgrid.npairs)
             for axis in ("momenta", "coordinates")]
    bounds = [b for p in pgrid.pairs for b in ((p.p_min, p.p_max), (p.x_min, p.x_max))]
    centers = np.column_stack([stats.mean_p, stats.mean_x]).ravel()
    spreads = np.sqrt(np.column_stack([np.diag(stats.P), np.diag(stats.X)]).ravel())
    check_coverage(names, bounds, centers, n_sigma * spreads)


def phase_wavefunction(state: GridWavefunction, family: JointStateSpec,
                       pgrid: PhaseGrid) -> PhaseWavefunction:
    """psi~(q, y) = <family state at each phase point | state>."""
    _check_phase_coverage(state, pgrid, 6.0)
    analyzer = _shared_analyzer(family, pgrid, state.grid)
    return PhaseWavefunction(pgrid, analyzer.transform(state.values), family)


def husimi_distribution(source, family: JointStateSpec, pgrid: PhaseGrid,
                        states: list | None = None) -> PhaseDistribution:
    """Positive phase-space density of a pure state, a mixture, or a density matrix.

    Every source is an eigenvalue-weighted sum of pure Husimi functions,
    sum_k w_k |psi~_k|^2, transformed with one analyzer.  Pure state: one
    term of weight 1.  Mixture (sequence of (weight, GridWavefunction) on one
    grid): its components.  Density matrix: the eigenvectors of rho realized
    as sums of its built basis `states` (as from `fock.grid_number_states`,
    so many snapshots share one build), keeping only eigenvalues above the
    resolution of a ``%.12g`` density file, 1e-11 sqrt(dim) lam_max; that
    drops the tolerated round-off negatives too, so the result is >= 0 by
    construction and costs one transform per eigenvector the stored matrix
    resolves.  Calls with the same family, phase grid and coordinate grid
    (the snapshots of one command) share one analyzer.
    """
    if hasattr(source, "basis") and hasattr(source, "matrix"):
        if states is None or len(states) != source.dim:
            raise InvalidInputError(
                f"a density source needs its {source.dim} grid number states")
        lam, V = np.linalg.eigh(source.matrix)
        # A stored field is rounded by at most 5e-12 relative, and re and im
        # together add a factor sqrt(2); by Weyl's inequality the eigenvalues
        # then move by |dlam| <= ||E||_F <= 1e-11 ||rho||_F <= 1e-11 sqrt(dim)
        # lam_max, so nothing below that is resolved by the file.
        keep = lam > 1e-11 * math.sqrt(lam.size) * lam.max()
        weights = lam[keep]
        grid = states[0].grid
        psis = np.tensordot(V[:, keep].T, np.stack([s.values for s in states]), axes=1)
    else:
        if isinstance(source, GridWavefunction):
            source = [(1.0, source)]
        try:
            components = [(float(w), s) for w, s in source]
        except (TypeError, ValueError) as exc:
            raise InvalidInputError("unsupported husimi source") from exc
        weights = np.array([w for w, _ in components])
        check_weights(weights)
        for _, s in components:
            if not (isinstance(s, GridWavefunction) and s.grid == components[0][1].grid):
                raise InvalidInputError("mixture components must be wavefunctions on one grid")
            _check_phase_coverage(s, pgrid, 6.0)
        grid = components[0][1].grid
        psis = [s.values for _, s in components]
    analyzer = _shared_analyzer(family, pgrid, grid)
    values = 0.0
    for w, psi in zip(weights, psis):
        values = values + w * np.abs(analyzer.transform(psi)) ** 2
    return PhaseDistribution(pgrid, values, "husimi_like", family.hbar)


def _not_a_knot(x: np.ndarray, y: np.ndarray):
    """scipy's ``CubicSpline(x, y, extrapolate=False)`` of real y on uniform
    knots, bit for bit, as a function of the query points; 0 outside.

    y is (n,) or (n, k): the k columns are splined independently, and each
    query finds its interval once for all of them.  Same operations in the
    same order: scipy's fill of the tridiagonal slope system (n = 2: both end
    slopes slope[0], a straight line), LAPACK dgtsv's elimination and back
    substitution (a uniform grid never swaps rows), the Hermite
    coefficients, and PPoly's ascending sum rather than Horner.
    n = 3 is a parabola that scipy solves densely; no qps axis has 3 points.
    """
    n = len(x)
    if n == 3:
        raise UnsupportedError("a not-a-knot spline needs 2 or at least 4 knots")
    cols = np.reshape(y, (n, -1)).T  # (k, n): one row per spline
    with np.errstate(over="ignore", invalid="ignore"):
        dx = np.diff(x)
        slope = np.diff(cols) / dx
        if n == 2:
            d, du, dl, b = [1.0, 1.0], [0.0], [0.0], [slope[:, 0], slope[:, 0]]
        else:
            e0, e1 = x[2] - x[0], x[-1] - x[-3]
            d = [dx[1], *(2 * (dx[:-1] + dx[1:])), dx[-2]]
            du, dl = [e0, *dx[:-1]], [*dx[1:], e1]
            b = [((dx[0] + 2 * e0) * dx[1] * slope[:, 0] + dx[0] ** 2 * slope[:, 1]) / e0,
                 *(3 * (dx[1:] * slope[:, :-1] + dx[:-1] * slope[:, 1:])).T,
                 (dx[-1] ** 2 * slope[:, -2] + (2 * e1 + dx[-1]) * dx[-2] * slope[:, -1]) / e1]
        d, du, dl = ([float(v) for v in row] for row in (d, du, dl))
        f = []  # the elimination depends on the knots alone
        for i in range(n - 1):
            if not 0.0 < abs(d[i]) >= abs(dl[i]):  # dgtsv would swap rows here
                raise UnsupportedError("not-a-knot spline knots must be uniform")
            f.append(dl[i] / d[i])
            d[i + 1] -= f[i] * du[i]
        s = []
        for rhs in np.transpose(b).tolist():
            for i in range(n - 1):
                rhs[i + 1] -= f[i] * rhs[i]
            rhs[-1] /= d[-1]
            rhs[-2] = (rhs[-2] - du[-1] * rhs[-1]) / d[-2]
            for i in range(n - 3, -1, -1):
                # dgtsv keeps the zeroed band in its back substitution
                rhs[i] = (rhs[i] - du[i] * rhs[i + 1] - 0.0 * rhs[i + 2]) / d[i]
            s.append(rhs)
        s = np.array(s)
        t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
        c0, c1, c2, c3 = t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], cols[:, :-1]

    def at(p: np.ndarray) -> np.ndarray:
        inside = (p >= x[0]) & (p <= x[-1])
        i = np.clip(np.searchsorted(x, p, "right") - 1, 0, n - 2)
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.where(inside, p - x[i], 0.0)  # masked first: no overflow outside
            h2 = h * h
            h3 = h2 * h
            v = [np.where(inside, 0.0 + a3[i] + a2[i] * h + a1[i] * h2 + a0[i] * h3, 0.0)
                 for a0, a1, a2, a3 in zip(c0, c1, c2, c3)]
        return np.stack(v, axis=-1).reshape(np.shape(p) + np.shape(y)[1:])

    return at


def wigner_distribution(state: GridWavefunction, pgrid: PhaseGrid) -> PhaseDistribution:
    """Standard Wigner transform of a one-pair state, as a contrast fixture.

    Stored against the same dq dy / h measure as the positive distribution,
    i.e. the samples are h times the textbook density.  Real within 1e-10 by
    the symmetry of the half-offset quadrature.  The wavefunction between
    grid points is the not-a-knot cubic spline of its real and imaginary
    parts, 0 off the grid.
    """
    if state.grid.ndim != 1 or pgrid.npairs != 1:
        raise UnsupportedError("the Wigner fixture is one-pair only")
    _check_phase_coverage(state, pgrid, 6.0)
    hbar = state.hbar
    pair = pgrid.pairs[0]
    x = state.grid.axis_points(0)
    half_span = 0.5 * (x[-1] - x[0])
    du = state.grid.axes[0].spacing
    u = np.arange(-half_span, half_span + 0.5 * du, du)
    need = max(pair.n_p, pair.n_x) * len(u)  # kernel and integrand: phase points x offsets
    check_budget(f"Wigner quadrature needs arrays of {need} samples", need)
    spline = _not_a_knot(x, np.column_stack([state.values.real, state.values.imag]))

    def psi_at(pts):
        re_im = spline(pts)
        return np.nan_to_num(re_im[..., 0] + 1j * re_im[..., 1], nan=0.0)

    y = pair.x_points()
    plus = psi_at(y[:, None] + u[None, :])
    minus = psi_at(y[:, None] - u[None, :])
    kernel = np.exp(2j / hbar * np.outer(pair.p_points(), u))
    integrand = np.conj(plus) * minus
    w = (kernel @ integrand.T) * du / (np.pi * hbar)
    imag_max = float(np.abs(w.imag).max())
    if imag_max > 1e-10 * max(1.0, float(np.abs(w.real).max())):
        raise InvalidInputError(f"Wigner quadrature lost reality: {imag_max:.2e}")
    values = 2.0 * np.pi * hbar * w.real
    return PhaseDistribution(pgrid, values, "wigner", hbar)


@dataclass(frozen=True, eq=False)
class ClosureResult:
    reconstruction: GridWavefunction
    l2_error: float


def closure_reconstruct(state: GridWavefunction, family: JointStateSpec,
                        pgrid: PhaseGrid) -> ClosureResult:
    """Resynthesize the state from its phase-space representation.

    reconstruction = sum over phase cells of psi~(z) (family state at z)
    dq dy / h; the L2 error gauges how well the (exact) closure relation is
    resolved by the midpoint grid.
    """
    _check_phase_coverage(state, pgrid, 8.0)
    analyzer = _shared_analyzer(family, pgrid, state.grid)
    pw = analyzer.transform(state.values)
    rec = analyzer.synthesize(pw)
    err = np.sqrt(np.sum(np.abs(rec - state.values) ** 2) * state.grid.cell_volume)
    return ClosureResult(
        reconstruction=state.with_values(rec),
        l2_error=float(err),
    )


def microstate_hypervolume(state: GridWavefunction, family: JointStateSpec,
                           pgrid: PhaseGrid) -> float:
    """integral of |psi~|^2 dq dy with no 1/h factors; equals h^D = (2 pi hbar)^D."""
    _check_phase_coverage(state, pgrid, 6.0)
    return _shared_analyzer(family, pgrid, state.grid).mass(state.values) * pgrid.cell


def write_distribution(dist, csv_path, gauge_label: str | None = None):
    """CSV export: columns p, x or p1, x1, ..., pD, xD, then value[, im], plus JSON metadata."""
    pairs = dist.grid.pairs
    axes = [points for p in pairs for points in (p.p_points(), p.x_points())]
    values = dist.values
    columns = [values.real, values.imag] if np.iscomplexobj(values) else [values]
    header = ["p", "x"] if len(pairs) == 1 else [
        f"{axis}{mu + 1}" for mu in range(len(pairs)) for axis in "px"]
    meta = {"schema": 1, "hbar": dist.hbar, "kind": getattr(dist, "kind", "phasewave"),
            "pairs": [asdict(p) for p in pairs]}
    if gauge_label is not None:
        meta["gauge"] = gauge_label
    write_grid_csv(csv_path, header + ["value", "im"][:len(columns)], axes, columns, meta)
