"""Truncated ladder algebra and number states anchored on a joint state.

The ladder is built from a = sqrt(eta X) (principal branch), not from
hard-coded oscillator formulas:

    ladder_mu = (1/hbar) sum_nu a[mu,nu] (z_nu - <z_nu>)

annihilates the anchoring joint state and has [ladder_mu, ladder_nu^dagger]
= (a eta X^-1 eta a^H)[mu,nu].  That is delta_mu_nu for a uniform signature
or a diagonal X, and repeated adjoints then generate the orthonormal number
family; a mixed signature with correlated X has no such family.

`_raised_family` is the one path that gates (budget, coverage, canonical
ladder, momentum range) and builds a family on a grid, and
`ladder_eigenvalues` gives the eigenvalue beta of the ladder on the
reference displaced to each phase point, from which the family's phase-space
images follow in closed form with no grid at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnsupportedError
from .grids import CoordinateGrid, GridWavefunction, along, check_budget, check_coverage
from .io import read_grid_csv, read_sidecar, reading, write_grid_csv
from .metric import check_hermitian, ladder_root
from .states import JointStateSpec, check_momentum_range, coordinate_wavefunction


@dataclass(frozen=True, eq=False)
class TruncatedBasis:
    """Per-axis cutoffs for the number-state family of a reference state."""

    n_max: tuple
    reference: JointStateSpec

    def __post_init__(self):
        n_max = tuple(int(n) for n in self.n_max)
        if len(n_max) != self.reference.dim:
            raise InvalidInputError("n_max needs one cutoff per axis")
        if any(n < 2 for n in n_max):
            raise InvalidInputError("each n_max must be at least 2")
        dim = math.prod(n_max)
        check_budget(f"truncated dimension {dim} makes matrices of {dim**2} entries", dim**2)
        object.__setattr__(self, "n_max", n_max)

    @property
    def dim(self) -> int:
        return math.prod(self.n_max)

    @property
    def naxes(self) -> int:
        return len(self.n_max)


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitudes over the truncated number basis."""

    basis: TruncatedBasis
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if coeffs.shape[0] != self.basis.dim:
            raise InvalidInputError("coefficient count does not match basis dimension")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= 1e-9

    @classmethod
    def unit(cls, basis: TruncatedBasis, n) -> "FockVector":
        c = np.zeros(basis.dim, dtype=complex)
        c[np.ravel_multi_index((n,) if np.isscalar(n) else tuple(n), basis.n_max)] = 1.0
        return cls(basis, c)


@dataclass(frozen=True, eq=False)
class LadderMatrices:
    """Per-axis lowering/raising matrices plus the total number operator."""

    lowering: tuple
    raising: tuple
    number: np.ndarray


def build_ladder(basis: TruncatedBasis) -> LadderMatrices:
    """Truncated matrices with sqrt(n) subdiagonals, Kronecker across axes."""
    singles = [np.diag(np.sqrt(np.arange(1, n)), k=1) for n in basis.n_max]
    eyes = [np.eye(n) for n in basis.n_max]
    lowering = []
    for mu in range(basis.naxes):
        parts = [singles[nu] if nu == mu else eyes[nu] for nu in range(basis.naxes)]
        full = parts[0]
        for part in parts[1:]:
            full = np.kron(full, part)
        lowering.append(full.astype(complex))
    raising = [m.conj().T for m in lowering]
    number = sum(r @ l for r, l in zip(raising, lowering))
    number.setflags(write=False)
    return LadderMatrices(lowering=tuple(lowering), raising=tuple(raising), number=number)


def _canonical_ladder(spec: JointStateSpec) -> np.ndarray:
    """The ladder factor a = sqrt(eta X) of the reference, after checking that
    [L, L^dagger] is the identity; a ladder off it is unsupported, since
    repeated adjoints would then build no orthonormal family."""
    a = ladder_root(spec.moments.X, spec.signature)
    eta = spec.signature.matrix()
    defect = np.abs(a @ eta @ spec.moments.x_inv @ eta @ a.conj().T - np.eye(spec.dim)).max()
    if defect > 1e-8:
        raise UnsupportedError(f"the number ladder of this reference is not canonical: "
                               f"[L, L^dagger] is off the identity by {defect:.3g}")
    return a


def ladder_eigenvalues(spec: JointStateSpec, pairs) -> list:
    """beta_mu(q, y) on each phase pair: L_mu |z> = beta_mu |z> for the
    reference displaced to the phase point z = (q, y), so the number states
    image as <z|m> = <z|0> prod_mu conj(beta_mu)^m_mu / sqrt(m_mu!) with
    |<z|0>|^2 = exp(-|beta|^2).

    beta = (1/hbar) a (mean_z(q, y) - <z>); for an axis-factorized reference
    (diagonal a and B, the only kind accepted) it is, per pair,

        beta_mu = (a[mu,mu]/hbar) ((q - <p_mu>) + (2i/hbar) s_mu B[mu,mu] (y - <x_mu>))

    as an (n_p, n_x) array.  Overflowing phase points give non-finite values.
    """
    a = _canonical_ladder(spec)
    if not spec.axis_factorized:
        raise UnsupportedError("multi-pair analysis needs an axis-factorized analyzing family")
    B = spec.shape.matrix
    signs = spec.signature.signs
    hbar = spec.hbar
    betas = []
    with np.errstate(over="ignore", invalid="ignore"):
        for mu, pair in enumerate(pairs):
            dq = pair.p_points() - spec.moments.mean_p[mu]
            dy = pair.x_points() - spec.moments.mean_x[mu]
            betas.append(a[mu, mu] / hbar * (dq[:, None] + (2j / hbar) * signs[mu] * B[mu, mu]
                                              * dy[None, :]))
    return betas


def _raised_family(basis: TruncatedBasis, grid: CoordinateGrid, top) -> list:
    """Number states m <= top per axis on the grid, in row-major order.

    x - <x> is a fixed combination of each ladder and its adjoint (the
    momentum parts of z and z^dagger cancel), so with mu the first nonzero
    axis of m and b = m - e_mu each rung follows from those below by
    multiplication alone:

        sqrt(m_mu) psi_m = sum_nu (a* a^-1)[mu,nu] sqrt(b_nu) psi_(b - e_nu)
                           - i (a* eta X^-1 (x - <x>))_mu psi_b

    For one axis this is psi_n = He_n((x - <x>)/sqrt(X)) psi_0 / sqrt(n!), so
    no rung loses more than round-off.  Before anything is sampled the family
    is checked, in order: its samples against the budget, each axis against
    the classical turning point of its top rung plus 6 sigma, a canonical
    ladder, and the grid's momentum range against the reference's spread.
    """
    count = math.prod(t + 1 for t in top)
    samples = count * math.prod(grid.shape)
    check_budget(f"{count} number states on the grid are {samples} samples", samples)
    spec = basis.reference
    X = np.diag(spec.moments.X)
    check_coverage([f"grid axis {mu} for n={n}" for mu, n in enumerate(top)], grid.bounds,
                   spec.moments.mean_x,
                   np.sqrt((2 * np.array(top) + 1) * 2.0 * X) + 6.0 * np.sqrt(X))
    a = _canonical_ladder(spec)
    check_momentum_range(spec, grid)
    eta = spec.signature.matrix()
    back = a.conj() @ np.linalg.inv(a)
    shift = -1j * a.conj() @ eta @ spec.moments.x_inv
    xi = [along(grid.axis_points(k) - spec.moments.mean_x[k], k, grid.ndim)
          for k in range(spec.dim)]
    step = [sum(shift[mu, k] * xi[k] for k in range(spec.dim)) for mu in range(spec.dim)]
    psi0 = coordinate_wavefunction(spec, grid)
    rungs = list(np.ndindex(*(t + 1 for t in top)))
    states = {rungs[0]: psi0.values}
    for m in rungs[1:]:
        mu = next(k for k, v in enumerate(m) if v > 0)
        b = m[:mu] + (m[mu] - 1,) + m[mu + 1:]
        out = step[mu] * states[b]
        for nu, b_nu in enumerate(b):
            if b_nu:
                out += back[mu, nu] * np.sqrt(b_nu) * states[b[:nu] + (b_nu - 1,) + b[nu + 1:]]
        states[m] = out / np.sqrt(m[mu])
    return [psi0.with_values(v) for v in states.values()]


def number_state(n, basis: TruncatedBasis, grid: CoordinateGrid) -> GridWavefunction:
    """Grid realization of the number state |n, <z>> (unit norm within 1e-8),
    the last state of the family raised up to n."""
    n = (n,) if np.isscalar(n) else tuple(int(v) for v in n)
    if len(n) != basis.naxes:
        raise InvalidInputError("multi-index length does not match basis")
    if any(v < 0 or v >= m for v, m in zip(n, basis.n_max)):
        raise InvalidInputError(f"multi-index {n} outside cutoff {basis.n_max}")
    return _raised_family(basis, grid, n)[-1]


def grid_number_states(basis: TruncatedBasis, grid: CoordinateGrid) -> list:
    """All basis states on the grid, in the row-major order of the basis."""
    return _raised_family(basis, grid, tuple(m - 1 for m in basis.n_max))


def orthonormality_check(states: list) -> float:
    """Max-norm deviation of the Gram matrix of built states from the identity."""
    gram = operator_matrix(lambda psi: psi, states)
    return float(np.abs(gram - np.eye(len(states))).max())


def operator_matrix(op, states: list) -> np.ndarray:
    """Matrix elements <n|A|n'> of a grid operator between built number
    states: one product S^H (A S) dV of the stacked states S and their
    images A S."""
    S = np.stack([s.values.reshape(-1) for s in states], axis=1)
    AS = np.stack([op(s).values.reshape(-1) for s in states], axis=1)
    return S.conj().T @ AS * states[0].grid.cell_volume


@dataclass(frozen=True)
class RobertsonCheck:
    lhs: float
    rhs: float


def robertson_check(A: np.ndarray, B: np.ndarray, state: FockVector) -> RobertsonCheck:
    """sigma_A sigma_B >= |<[A, B]>|/2 for a normalized basis vector."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise InvalidInputError("operator matrices must be square and same-size")
    if A.shape[0] != state.basis.dim:
        raise InvalidInputError("operator dimension does not match the state")
    for name, M in (("A", A), ("B", B)):
        check_hermitian(name, M)
    v = state.coeffs
    if not state.is_normalized():
        raise InvalidInputError("state must be normalized")

    def _sigma(M):
        mean = np.real(np.vdot(v, M @ v))
        second = np.real(np.vdot(M @ v, M @ v))
        return np.sqrt(max(second - mean**2, 0.0)), mean

    sa, _ = _sigma(A)
    sb, _ = _sigma(B)
    comm = A @ B - B @ A
    rhs = 0.5 * abs(np.vdot(v, comm @ v))
    lhs = float(sa * sb)
    return RobertsonCheck(lhs=lhs, rhs=float(rhs))


def _quadrature_matrix(basis: TruncatedBasis, axis: int, momentum: bool) -> np.ndarray:
    """The closed-form p (momentum) or x matrix of one rho = 0 axis."""
    spec = basis.reference
    if np.abs(spec.moments.rho).max() != 0.0:
        raise UnsupportedError("closed-form quadrature matrices need rho = 0")
    lad = build_ladder(basis)
    root = np.sqrt(spec.moments.X[axis, axis])
    eye = np.eye(basis.dim)
    if momentum:
        ladder = 1j * spec.hbar / (2.0 * root) * (lad.raising[axis] - lad.lowering[axis])
        return spec.moments.mean_p[axis] * eye + ladder
    return spec.moments.mean_x[axis] * eye + root * (lad.lowering[axis] + lad.raising[axis])


def position_matrix(basis: TruncatedBasis, axis: int = 0) -> np.ndarray:
    """Closed-form x matrix: <x> I + sqrt(X) (lower + raise) for rho = 0 axes."""
    return _quadrature_matrix(basis, axis, momentum=False)


def momentum_matrix(basis: TruncatedBasis, axis: int = 0) -> np.ndarray:
    """Closed-form p matrix: <p> I + i hbar (raise - lower) / (2 sqrt(X))."""
    return _quadrature_matrix(basis, axis, momentum=True)


_MATRIX_HEADER = ["row", "col", "re", "im"]


def write_matrix(matrix: np.ndarray, csv_path, meta: dict | None = None):
    """Matrix export as CSV rows (row, col, re, im) with a JSON sidecar."""
    matrix = np.asarray(matrix, dtype=complex)
    write_grid_csv(csv_path, _MATRIX_HEADER, [range(n) for n in matrix.shape],
                   [matrix.real, matrix.imag],
                   {"schema": 1, "shape": list(matrix.shape), **(meta or {})})


def read_matrix(csv_path) -> np.ndarray:
    """Re-import a matrix written by :func:`write_matrix`: the sidecar's
    shape fixes the (row, col) entries, each in row-major order."""
    with reading("matrix"):
        rows, cols = read_sidecar(csv_path)["shape"]
        re, im = read_grid_csv(csv_path, _MATRIX_HEADER, [range(rows), range(cols)], 2)
        return (re + 1j * im).reshape(rows, cols)
