"""Density operators over the truncated number basis, evolution and counting.

Time evolution under a Hermitian Hamiltonian is exact unitary conjugation by
the eigendecomposition, rho(t) = U rho U^dagger with U = V exp(-i L t/hbar)
V^dagger, so trace, purity and the full spectrum are conserved to round-off.
hbar is always that of the basis's reference state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .fock import FockVector, TruncatedBasis, build_ladder, read_matrix, write_matrix
from .io import read_sidecar, reading
from .metric import check_hermitian, check_weights
from .states import JointStateSpec

_EIG_TOL = -1e-10
_TRACE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semi-definite, unit-trace matrix over a basis."""

    basis: TruncatedBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise InvalidInputError("density matrix shape does not match basis")
        check_hermitian("density matrix", m)
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < _EIG_TOL:
            raise InvalidInputError(f"negative eigenvalue {eigs.min():.3e}")
        if abs(np.trace(m).real - 1.0) > _TRACE_TOL:
            raise InvalidInputError(f"trace is {np.trace(m).real!r}, not 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Classical ensemble: weights and pure components over one basis.

    The decomposition of a density operator into such an ensemble is not
    unique, so mixtures are never compared directly; only the resulting
    matrices are.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), s) for w, s in self.components)
        check_weights(np.array([w for w, _ in comps]))
        basis = comps[0][1].basis
        if any(s.basis is not basis for _, s in comps[1:]):
            raise InvalidInputError("mixture components must share one basis")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class MicrostateCount:
    """Phase-space hypervolume converted to a microstate count and entropy."""

    dim: int
    omega: float
    entropy: float


def from_pure(state: FockVector) -> DensityMatrix:
    """Rank-one projector of a normalized vector."""
    if not state.is_normalized():
        raise InvalidInputError("pure state must be normalized")
    return DensityMatrix(state.basis, np.outer(state.coeffs, np.conj(state.coeffs)))


def from_mixture(mix: MixtureSpec) -> DensityMatrix:
    """Weighted sum of pure projectors."""
    basis = mix.components[0][1].basis
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    for w, s in mix.components:
        if not s.is_normalized():
            raise InvalidInputError("mixture components must be normalized")
        m += w * np.outer(s.coeffs, np.conj(s.coeffs))
    return DensityMatrix(basis, m)


def expectation(rho: DensityMatrix, A: np.ndarray) -> complex:
    """Tr(rho A); real within round-off for Hermitian A."""
    A = np.asarray(A, dtype=complex)
    if A.shape != rho.matrix.shape:
        raise InvalidInputError("operator dimension does not match the density matrix")
    return complex(np.trace(rho.matrix @ A))


def purity(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def evolve_lvn(rho: DensityMatrix, H: np.ndarray, t: float) -> DensityMatrix:
    """Evolve for time t under the Hermitian generator H by exact conjugation,
    with the hbar of rho's basis (`rho.basis.reference.hbar`)."""
    H = np.asarray(H, dtype=complex)
    if H.shape != rho.matrix.shape:
        raise InvalidInputError("Hamiltonian dimension does not match")
    check_hermitian("Hamiltonian", H)
    evals, vecs = np.linalg.eigh(H)
    hbar = rho.basis.reference.hbar
    # the largest phase, in the order the phases are computed below
    top = float(np.abs(evals).max()) * abs(float(t)) / hbar
    if not math.isfinite(top):
        raise InvalidInputError(f"the evolution phase max|E| t / hbar is {top}: "
                                f"t = {float(t):.6g} is too long for this Hamiltonian")
    phases = np.exp(-1j * evals * t / hbar)
    U = (vecs * phases[None, :]) @ vecs.conj().T
    out = U @ rho.matrix @ U.conj().T
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(rho.basis, out)


def boltzmann_entropy(omega: float) -> float:
    """ln(count), in units of the Boltzmann constant."""
    if not omega > 0.0:
        raise InvalidInputError("microstate count must be positive")
    return math.log(omega)


def count_microstates(hypervolume: float, dim: int, hbar: float = 1.0) -> MicrostateCount:
    """Divide a phase-space hypervolume by h^D and attach the entropy."""
    if not hypervolume > 0.0:
        raise InvalidInputError("hypervolume must be positive")
    if dim < 1:
        raise InvalidInputError("dimension must be at least 1")
    omega = hypervolume / (2.0 * math.pi * hbar) ** dim
    return MicrostateCount(dim=int(dim), omega=omega, entropy=boltzmann_entropy(omega))


def number_hamiltonian(basis: TruncatedBasis, omega: float) -> np.ndarray:
    """Oscillator generator hbar omega (N + 1/2) in the truncated basis, with
    the basis's hbar (`basis.reference.hbar`)."""
    scale = basis.reference.hbar * omega
    top = scale * (sum(n - 1 for n in basis.n_max) + 0.5)  # the largest |entry|
    if not math.isfinite(top):
        raise InvalidInputError(f"the Hamiltonian hbar omega (N + 1/2) reaches {top}: "
                                f"omega = {omega:.6g} is too large for this basis")
    lad = build_ladder(basis)
    return scale * (lad.number + 0.5 * np.eye(basis.dim))


def write_density(rho: DensityMatrix, csv_path):
    """CSV rows (row, col, re, im) plus JSON metadata with the basis spec."""
    basis = {"n_max": list(rho.basis.n_max), "reference": rho.basis.reference.to_dict()}
    write_matrix(rho.matrix, csv_path, {"basis": basis})


def read_density(csv_path) -> DensityMatrix:
    """Re-import a density matrix written by :func:`write_density`."""
    with reading("density metadata"):
        meta = read_sidecar(csv_path)
        ref = JointStateSpec.from_dict(meta["basis"]["reference"])
        n_max = meta["basis"]["n_max"]
        if not (isinstance(n_max, list) and all(type(n) is int for n in n_max)):
            raise ValueError(f"n_max must be a list of integers, got {n_max!r}")
        basis = TruncatedBasis(tuple(n_max), ref)
    matrix = read_matrix(csv_path)
    if matrix.shape != (basis.dim,) * 2:
        raise InvalidInputError(f"density CSV is {matrix.shape}, n_max "
                                f"{list(basis.n_max)} needs {(basis.dim,) * 2}")
    return DensityMatrix(basis, matrix)
