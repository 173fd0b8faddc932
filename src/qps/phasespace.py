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
from functools import reduce

import numpy as np

from .errors import InvalidInputError, UnsupportedError
from .grids import CoordinateGrid, GridWavefunction, check_budget, check_coverage, moments
from .io import write_grid_csv
from .states import GaugeChoice, JointStateSpec


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
    def axes(self) -> tuple:
        """Sample points of each phase axis, in value order (p1, x1, p2, x2, ...)."""
        return tuple(points for p in self.pairs for points in (p.p_points(), p.x_points()))

    @property
    def bounds(self) -> tuple:
        """(min, max) of each phase axis, in the order of `axes`."""
        return tuple(b for p in self.pairs for b in ((p.p_min, p.p_max), (p.x_min, p.x_max)))

    @property
    def shape(self) -> tuple:
        return tuple(len(points) for points in self.axes)

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

    kind = "phasewave"
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

    @property
    def gauge(self) -> GaugeChoice:
        return self.family.gauge

    def norm_squared(self) -> float:
        """Mass against the dq dy / h measure (1 for a normalized source)."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.measure(self.hbar))


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Real phase-space density against the dq dy / h measure; `gauge` is the
    analyzing family's, None for a distribution no family analyzed."""

    grid: PhaseGrid
    values: np.ndarray
    kind: str
    hbar: float
    gauge: GaugeChoice | None = None

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

    def argmax_point(self) -> tuple:
        """(p, x, ...) coordinates of the largest sample."""
        idx = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return tuple(float(points[i]) for points, i in zip(self.grid.axes, idx))


class PhaseAnalyzer:
    """Precomputed per-pair tables mapping grid samples to psi~ samples.

    For each pair the family state factorizes into a Gaussian window around
    y and a momentum phase in q, so psi~ is one windowed Fourier sum per
    pair: grid axis m maps to phase axes (j, k) through T[(j, k), m] =
    E[j, m] W[m, k].  The tables read no gauge: the family's gauge K
    multiplies psi~ by exp(-i sum K) (`_gauge_factor`), which `transform`
    applies when given one, so one analyzer serves every gauge; synthesis
    is the zero-gauge adjoint.  The mass sum |psi~|^2 needs no psi~: T^H T,
    the sampled frame operator of the family, is the per-pair Gram matrix
    G[m, m'] = (E^H E)[m, m'] (conj(W) W^T)[m, m'], so each pair either
    takes the transform's pass or keeps its grid axis for G, whichever
    costs fewer multiply-adds.  Requires the family shape matrix to be
    diagonal, so that the window factorizes by pair.

    Each table is built in one buffer of its own.  A window whose imaginary
    parts are all +0 (every rho = 0 family) is stored as its float64 real
    part, half the size and multiplying to the same bits; a correlated
    family keeps a complex window.  A pass weights the samples by W one
    block at a time (`_pass`), and synthesis conjugates in place.
    """

    def __init__(self, family: JointStateSpec, pgrid: PhaseGrid, grid: CoordinateGrid):
        if family.dim != pgrid.npairs or grid.ndim != family.dim:
            raise InvalidInputError("family, phase grid and grid dimensions differ")
        expo = family.shape.exponent
        if not family.axis_factorized:
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
        self.pgrid = pgrid
        self.grid = grid
        self.hbar = hbar = family.hbar
        signs = family.signature.signs
        self.norm = family.moments.gaussian_norm
        self.windows = []   # W[m, k] = exp(-conj(bp)(x_m - y_k)^2 / hbar^2)
        self.kernels = []   # E[j, m] = exp((i/hbar) s q_j x_m) dx
        for mu, pair in enumerate(pgrid.pairs):
            x = grid.axis_points(mu)
            y = pair.x_points()
            q = pair.p_points()
            # in place, through the seed's complex exp, so that every bit stays
            square = np.subtract.outer(x, y)
            np.square(square, out=square)
            W = np.multiply(-np.conj(expo[mu, mu]) / hbar**2, square)
            np.exp(W, out=W)
            if not (W.imag.any() or np.signbit(W.imag).any()):
                # every imaginary part is +0 (rho = 0): the real part alone
                # multiplies to the same bits at half the size
                np.copyto(square, W.real)
                W = square
            self.windows.append(W)
            E = np.multiply(1j / hbar * signs[mu] * q[:, None], x[None, :])
            np.exp(E, out=E)
            E *= grid.axes[mu].spacing
            self.kernels.append(E)

    def transform(self, values: np.ndarray, phase: np.ndarray | None = None) -> np.ndarray:
        """Grid samples -> psi~ samples, axis order (p1, x1, p2, x2, ...).

        Each pass contracts the leading grid axis m and appends (j, k).
        Without `phase`, psi~ in the zero gauge; with a family's
        `_gauge_factor`, psi~ in its gauge, written into the factor's buffer.
        """
        out = values
        for E, W in zip(self.kernels, self.windows):
            out = _pass(out, E, W)
        if phase is None:  # out is a pass's own array
            return np.multiply(out, self.norm, out=out)
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
                W = W.astype(complex, copy=False)  # a real W @ W.T sums in another order
                grams.append((E.conj().T @ E) * (W.conj() @ W.T))
                out = np.moveaxis(out, 0, -1)
            else:
                grams.append(None)
                out = _pass(out, E, W)
        # a pass makes out its own array
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
        """Zero-gauge adjoint map: sum_z psi~(z) (family state at z) dq dy / h.

        Each pass contracts the leading (j, k) with the conjugated tables and appends m.
        """
        out = pw_values
        for E, W in zip(self.kernels, self.windows):
            if out.size // (len(E) * W.shape[1]) <= len(E):
                # sum conj(E) v conj(W) = conj(sum E conj(v) W): the samples, not
                # the larger kernel, are conjugated, and the result in place
                acc = np.tensordot(E, out.conj(), axes=([0], [0]))        # (m, k, ...)
                out = np.einsum("mk...,mk->m...", acc, W)
                out = np.moveaxis(np.conj(out, out=out), 0, -1)
            else:
                table = E[:, None, :] * W.T[None, :, :]        # (j, k, m)
                out = np.tensordot(out, np.conj(table, out=table), axes=([0, 1], [0, 1]))
        return out * (self.norm / self.grid.cell_volume * self.pgrid.measure(self.hbar))


def _pass(out: np.ndarray, E: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Contract the leading grid axis m of `out` with one pair's tables and
    append its phase axes (j, k).

    Of the two intermediates of equal multiply-add count, the window-weighted
    samples and the (j, k, m) table E W, build the smaller: the first while
    the `rest` of the axes hold at most n_p samples.  One pair is thus
    E @ (v * W), weighted and contracted in blocks of W's columns k of at
    most `_WEIGHTED_BLOCK` samples each (one column at least) and written
    into one output; the columns are output axes, so each sum over m is the
    unblocked one, bit for bit.
    """
    if out.size // len(W) <= len(E):
        result = np.empty((len(E),) + out.shape[1:] + W.shape[1:], dtype=complex)
        cols = max(1, _WEIGHTED_BLOCK // out.size)
        for k in range(0, W.shape[1], cols):
            block = np.expand_dims(W[:, k:k + cols], tuple(range(1, out.ndim)))
            result[..., k:k + cols] = np.tensordot(E, out[..., None] * block, axes=1)
        return np.moveaxis(result, 0, -2)
    return np.tensordot(out, E[:, None, :] * W.T[None, :, :], axes=([0], [2]))


# samples per window-weighted block of `_pass` (at least one column of W).
# A 1024 -> 192^2 transform then holds 1 MiB of weighted samples in 3 blocks
# in place of 3 MiB; on one BLAS thread of a 2-vCPU Xeon VM it took 4.4-4.6 ms
# unblocked, 4.8 ms in 3 blocks and 5.9-6.4 ms in 12.
_WEIGHTED_BLOCK = 1 << 16


_analyzers: dict = {}   # at most one entry: what its tables read -> the analyzer


def _shared_analyzer(family: JointStateSpec, pgrid: PhaseGrid,
                     grid: CoordinateGrid) -> PhaseAnalyzer:
    """The analyzer of the last setup, shared by consecutive analyses.  A
    setup is what the tables read: the family's moments (by identity, kept
    by a regauging `dataclasses.replace`), signature and hbar, and the grids
    (by value).  A new setup drops the held analyzer before its build, so at
    most one table set is alive; `_drop_shared_analyzer` drops it when done."""
    key = (family.moments, family.signature, family.hbar, pgrid, grid)
    if key not in _analyzers:
        _drop_shared_analyzer()
        _analyzers[key] = PhaseAnalyzer(family, pgrid, grid)
    return _analyzers[key]


def _drop_shared_analyzer():
    """Release the shared analyzer's tables."""
    _analyzers.clear()


def _gauge_factor(family: JointStateSpec, pgrid: PhaseGrid) -> np.ndarray | None:
    """exp(-i sum_mu K(q_mu, y_mu)) on the phase grid, the factor by which the
    family's gauge multiplies psi~, in one buffer; None when every K is 0."""
    K = [family.gauge.phase(pair.p_points()[:, None], pair.x_points()[None, :], s, family.hbar)
         for pair, s in zip(pgrid.pairs, family.signature.signs)]
    if not any(k.any() for k in K):
        return None
    phase = np.multiply(-1j, reduce(np.add.outer, K))
    return np.exp(phase, out=phase)


def _analyzer_for(state: GridWavefunction, family: JointStateSpec, pgrid: PhaseGrid,
                  n_sigma: float) -> PhaseAnalyzer:
    """The shared analyzer of `family` for `state`, once the family is known
    to share the state's units (hbar and metric signs, exactly) and the phase
    grid to cover n_sigma of the state's spread."""
    if family.hbar != state.hbar or family.signature != state.signature:
        raise InvalidInputError("analyzing family and state differ in hbar or metric signs")
    _check_phase_coverage(state, pgrid, n_sigma)
    return _shared_analyzer(family, pgrid, state.grid)


def _check_phase_coverage(state: GridWavefunction, pgrid: PhaseGrid, n_sigma: float):
    """Reject an unnormalized state (through `moments`) and a phase grid that
    misses n_sigma of its spread."""
    stats = moments(state)
    # one entry per phase-grid axis, in the order of pgrid.bounds
    names = [f"phase grid pair {mu} {axis}" for mu in range(pgrid.npairs)
             for axis in ("momenta", "coordinates")]
    centers = np.column_stack([stats.mean_p, stats.mean_x]).ravel()
    spreads = np.sqrt(np.column_stack([np.diag(stats.P), np.diag(stats.X)]).ravel())
    check_coverage(names, pgrid.bounds, centers, n_sigma * spreads)


def phase_wavefunction(state: GridWavefunction, family: JointStateSpec,
                       pgrid: PhaseGrid) -> PhaseWavefunction:
    """psi~(q, y) = <family state at each phase point | state>."""
    analyzer = _analyzer_for(state, family, pgrid, 6.0)
    return PhaseWavefunction(pgrid, analyzer.transform(state.values, _gauge_factor(family, pgrid)),
                             family)


def husimi_distribution(source: GridWavefunction, family: JointStateSpec,
                        pgrid: PhaseGrid) -> PhaseDistribution:
    """Positive phase-space density |psi~|^2 of a pure state, on a phase grid
    that covers it, the same in every gauge.  A density matrix goes to
    `density_husimi`; any other source is rejected."""
    if not isinstance(source, GridWavefunction):
        raise InvalidInputError("unsupported husimi source: a pure state is a GridWavefunction, "
                                "a density matrix goes to density_husimi")
    tilde = _analyzer_for(source, family, pgrid, 6.0).transform(source.values)
    return PhaseDistribution(pgrid, np.abs(tilde) ** 2, "husimi_like", family.hbar, family.gauge)


_BLOCK = 1 << 20  # samples per array of one block of density_husimi's last pair


def density_husimi(rho, pgrid: PhaseGrid) -> PhaseDistribution:
    """Husimi function of a density matrix, analyzed by the reference of its
    number basis, in closed form (Husimi 1940; Bargmann 1961):

        Q(z) = exp(-|beta|^2) sum_k w_k |sum_m V_k[m] prod_mu conj(beta_mu)^m_mu / sqrt(m_mu!)|^2

    over the eigenpairs (w_k, V_k) of rho, with beta from
    `fock.ladder_eigenvalues`.  The family's gauge phase and the phase of
    <z|0> are the same for every m, so |.|^2 drops them; nothing is sampled
    on a coordinate grid, and the reference's hbar and gauge label the
    result.  Only the eigenvalues a ``%.12g`` density file resolves are kept
    (`_resolved_eigenpairs`); that drops the tolerated round-off negatives
    too, so Q >= 0 by construction.

    Each pair's factors T_n = exp(-|beta|^2/2) conj(beta)^n / sqrt(n!) follow
    T_n = T_(n-1) conj(beta) / sqrt(n).  Each kept eigenvector contracts its
    rung axes with them pair by pair; the last pair's factors are built in
    blocks of its phase points, so no table of them outgrows the phase grid.
    """
    from . import fock  # here, so that `dist` loads no number-state layer

    family = rho.basis.reference
    if family.dim != pgrid.npairs:
        raise InvalidInputError("family and phase grid dimensions differ")
    *firsts, last = [beta.reshape(-1) for beta in fock.ladder_eigenvalues(family, pgrid.pairs)]
    *n_firsts, n_last = n_max = rho.basis.n_max
    rows = math.prod(beta.size for beta in firsts)  # phase points before the last pair
    block = max(1, _BLOCK // max(n_last, rows))
    sizes, points = [max(n_last, rows) * block], 1  # a block's table and image
    for mu, (n, beta) in enumerate(zip(n_firsts, firsts)):
        points *= beta.size  # a first pair's table, an eigenvector after its pass
        sizes += [n * beta.size, math.prod(n_max[mu + 1:]) * points]
    check_budget(f"a density Husimi needs arrays of {max(sizes)} samples", max(sizes))
    tables = [_rungs(beta, n) for beta, n in zip(firsts, n_firsts)]
    weights, vectors = _resolved_eigenpairs(rho.matrix)
    values = np.zeros((rows, last.size))
    for start in range(0, last.size, block):
        table = _rungs(last[start:start + block], n_last)
        for w, v in zip(weights, vectors.T):
            amp = v.reshape(n_max)
            for first in tables:  # contract the leading rung axis, append the pair's points
                amp = np.tensordot(amp, first, axes=(0, 0))
            image = amp.reshape(n_last, rows).T @ table
            values[:, start:start + block] += w * (image.real ** 2 + image.imag ** 2)
    return PhaseDistribution(pgrid, values.reshape(pgrid.shape), "husimi_like", family.hbar,
                             family.gauge)


def _resolved_eigenpairs(matrix: np.ndarray) -> tuple:
    """The eigenvalues of a density matrix above the resolution of a
    ``%.12g`` density file, and their eigenvectors (as columns).

    A stored field is rounded by at most 5e-12 relative, and re and im
    together add a factor sqrt(2); by Weyl's inequality the eigenvalues then
    move by |dlam| <= ||E||_F <= 1e-11 ||rho||_F <= 1e-11 sqrt(dim) lam_max,
    so nothing below that is resolved by the file.
    """
    lam, V = np.linalg.eigh(matrix)
    keep = lam > 1e-11 * math.sqrt(lam.size) * lam.max()
    return lam[keep], V[:, keep]


def _rungs(beta: np.ndarray, n: int) -> np.ndarray:
    """Rows T_r = exp(-|beta|^2/2) conj(beta)^r / sqrt(r!), r < n, of flat beta
    samples, each from the row below; conj(beta)^r is never formed, and where
    the envelope underflows (or beta overflows) every row is 0, not 0 * inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-0.5 * (beta.real ** 2 + beta.imag ** 2))
    live = envelope > 0.0  # False for 0 and NaN
    step = np.where(live, beta.conj(), 0.0)
    table = np.empty((n, beta.size), dtype=complex)
    table[0] = np.where(live, envelope, 0.0)
    for r in range(1, n):
        np.multiply(table[r - 1], step, out=table[r])
        table[r] /= math.sqrt(r)
    return table


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
    l2_error: float


def closure_reconstruct(state: GridWavefunction, family: JointStateSpec,
                        pgrid: PhaseGrid) -> ClosureResult:
    """Resynthesize the state from its phase-space representation.

    The reconstruction is the sum over phase cells of psi~(z) (family state
    at z) dq dy / h; its L2 error gauges how well the (exact) closure
    relation is resolved by the midpoint grid.
    """
    analyzer = _analyzer_for(state, family, pgrid, 8.0)
    rec = analyzer.synthesize(analyzer.transform(state.values))
    err = np.sqrt(np.sum(np.abs(rec - state.values) ** 2) * state.grid.cell_volume)
    return ClosureResult(l2_error=float(err))


def microstate_hypervolume(state: GridWavefunction, family: JointStateSpec,
                           pgrid: PhaseGrid) -> float:
    """integral of |psi~|^2 dq dy with no 1/h factors; equals h^D = (2 pi hbar)^D."""
    return _analyzer_for(state, family, pgrid, 6.0).mass(state.values) * pgrid.cell


def write_distribution(dist, csv_path):
    """CSV export of a PhaseDistribution or PhaseWavefunction: columns p, x or
    p1, x1, ..., pD, xD, then value[, im], plus JSON metadata whose hbar,
    kind and gauge (when the distribution has one) are read from `dist`."""
    pairs = dist.grid.pairs
    values = dist.values
    columns = [values.real, values.imag] if np.iscomplexobj(values) else [values]
    header = ["p", "x"] if len(pairs) == 1 else [
        f"{axis}{mu + 1}" for mu in range(len(pairs)) for axis in "px"]
    meta = {"schema": 1, "hbar": dist.hbar, "kind": dist.kind,
            "pairs": [asdict(p) for p in pairs]}
    if dist.gauge is not None:
        meta["gauge"] = dist.gauge.label
    write_grid_csv(csv_path, header + ["value", "im"][:len(columns)], dist.grid.axes,
                   columns, meta)
