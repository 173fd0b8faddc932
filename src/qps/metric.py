"""Signature/metric bookkeeping, covariance algebra and uncertainty checks.

Conventions used throughout the package ("physical" storage):

* moments are stored with both indices down and positive-definite blocks,
  i.e. ``P[mu, nu] = <(p_mu - <p_mu>)(p_nu - <p_nu>)>`` and likewise ``X``;
  the metric is applied explicitly only where a mixed-index object is needed.
* the diagonal metric has ``d_plus`` entries of +1 followed by ``d_minus``
  entries of -1; an ordinary quantum system is ``Signature(0, D)``.
* saturation of the uncertainty relation reads, in this storage,

      P = (hbar^2 / 4) eta X^-1 eta + rho X^-1 rho^T

  which reduces to ``P X - rho^2 = hbar^2/4`` for one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, SaturationError

# 2019 SI value, h = 6.62607015e-34 J s exactly
HBAR_SI = 6.62607015e-34 / (2.0 * math.pi)

# largest saturation residual decompose_covariance factors
_FACTOR_SATURATION_TOL = 1e-6

# hbar range: hbar^2, 1/hbar^2 and (2 pi hbar)^D must stay finite, normal floats
_HBAR_MIN = 1e-150
_HBAR_MAX = 1e150


def check_hbar(hbar: float):
    """Reject an hbar outside [1e-150, 1e150], nan included."""
    if not _HBAR_MIN <= hbar <= _HBAR_MAX:
        raise InvalidInputError(
            f"hbar must be in [{_HBAR_MIN:g}, {_HBAR_MAX:g}], got {hbar!r}")


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Signature:
    """Counts of +1 and -1 metric axes; total dimension is d_plus + d_minus."""

    d_plus: int
    d_minus: int

    def __post_init__(self):
        if self.d_plus < 0 or self.d_minus < 0:
            raise InvalidInputError("signature counts must be nonnegative")
        if self.dim < 1:
            raise InvalidInputError("signature needs at least one axis")

    @property
    def dim(self) -> int:
        return self.d_plus + self.d_minus

    @property
    def signs(self) -> np.ndarray:
        """Diagonal of the metric as a length-D vector of +-1."""
        return _frozen([1.0] * self.d_plus + [-1.0] * self.d_minus)

    def matrix(self) -> np.ndarray:
        """Diagonal +-1 matrix of the signature, +1 axes first."""
        return np.diag(self.signs)

    @classmethod
    def spatial(cls, dim: int = 1) -> "Signature":
        """All-minus signature of an ordinary D-dimensional quantum system."""
        return cls(0, dim)


def raise_lower(components, metric) -> np.ndarray:
    """Flip index position of a component vector: multiply by the metric diagonal.

    Involutive since the metric squares to the identity.
    """
    components = np.asarray(components, dtype=float)
    diag = np.diag(np.asarray(metric, dtype=float))
    if components.shape != diag.shape:
        raise InvalidInputError(
            f"size mismatch: {components.shape} components vs {diag.shape} metric"
        )
    return components * diag


@dataclass(frozen=True, eq=False)
class StatMoments:
    """First and second moments of a momentum-coordinate pair set.

    mean_p, mean_x : length-D vectors of covariant means.
    P, X           : D x D symmetric covariance blocks (X positive-definite).
    rho            : D x D symmetrized momentum-coordinate covariance,
                     rho[mu, nu] = Re <(p_mu - <p_mu>)(x_nu - <x_nu>)>.
    """

    mean_p: np.ndarray
    mean_x: np.ndarray
    P: np.ndarray
    X: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        mp = _frozen(np.atleast_1d(self.mean_p))
        mx = _frozen(np.atleast_1d(self.mean_x))
        P = _frozen(np.atleast_2d(self.P))
        X = _frozen(np.atleast_2d(self.X))
        rho = _frozen(np.atleast_2d(self.rho))
        d = mp.shape[0]
        shapes_ok = (
            mp.shape == mx.shape == (d,)
            and P.shape == (d, d)
            and X.shape == (d, d)
            and rho.shape == (d, d)
        )
        if not shapes_ok:
            raise InvalidInputError("moment blocks have inconsistent dimensions")
        for name, a in (("mean_p", mp), ("mean_x", mx), ("P", P), ("X", X), ("rho", rho)):
            if not np.all(np.isfinite(a)):
                raise InvalidInputError(f"non-finite entries in {name}")
        for name, a in (("P", P), ("X", X)):
            if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
                raise InvalidInputError(f"{name} must be symmetric")
        if np.linalg.eigvalsh(X).min() <= 0.0:
            raise InvalidInputError("X must be positive-definite")
        object.__setattr__(self, "mean_p", mp)
        object.__setattr__(self, "mean_x", mx)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.mean_p.shape[0]

    @cached_property
    def x_inv(self) -> np.ndarray:
        """Inverse of the X block, computed once."""
        try:
            return _frozen(np.linalg.inv(self.X))
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("X block is singular") from exc

    @cached_property
    def gaussian_norm(self) -> float:
        """Amplitude ((2 pi)^D |det X|)^(-1/4) of the normalized Gaussian."""
        return ((2.0 * np.pi) ** self.dim * abs(np.linalg.det(self.X))) ** -0.25

    def to_dict(self) -> dict:
        return {
            "mean_p": self.mean_p.tolist(),
            "mean_x": self.mean_x.tolist(),
            "P": self.P.tolist(),
            "X": self.X.tolist(),
            "rho": self.rho.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StatMoments":
        try:
            return cls(
                mean_p=np.array(d["mean_p"], dtype=float),
                mean_x=np.array(d["mean_x"], dtype=float),
                P=np.array(d["P"], dtype=float),
                X=np.array(d["X"], dtype=float),
                rho=np.array(d["rho"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed moments object: {exc}") from exc


def saturating_moments(X, rho=None, mean_p=None, mean_x=None,
                       sig: Signature | None = None, hbar: float = 1.0) -> StatMoments:
    """Moments whose P block is filled in so the uncertainty relation saturates.

    P = (hbar^2/4) eta X^-1 eta + rho X^-1 rho^T in the physical storage.
    """
    check_hbar(hbar)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[0]
    if sig is None:
        sig = Signature.spatial(d)
    rho = np.zeros((d, d)) if rho is None else np.atleast_2d(np.asarray(rho, dtype=float))
    mean_p = np.zeros(d) if mean_p is None else np.atleast_1d(np.asarray(mean_p, dtype=float))
    mean_x = np.zeros(d) if mean_x is None else np.atleast_1d(np.asarray(mean_x, dtype=float))
    eta = sig.matrix()
    x_inv = np.linalg.inv(X)
    P = (hbar**2 / 4.0) * (eta @ x_inv @ eta) + rho @ x_inv @ rho.T
    return StatMoments(mean_p=mean_p, mean_x=mean_x, P=0.5 * (P + P.T), X=X, rho=rho)


@dataclass(frozen=True, eq=False)
class ShapeParams:
    """Complex shape matrix of the Gaussian exponent.

    ``matrix`` stores the covariant shape parameters
    B[mu, nu] = (1/4) [hbar^2 eta + 2 i hbar rho] (eta X)^-1 evaluated
    elementwise; ``exponent`` is the symmetrized physical form eta B eta that
    contracts against (x - <x>) components directly.
    """

    matrix: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix, dtype=complex))
        object.__setattr__(self, "signs", _frozen(self.signs))

    @property
    def exponent(self) -> np.ndarray:
        """Symmetrized eta B eta; its real part controls Gaussian decay."""
        s = self.signs
        phys = s[:, None] * self.matrix * s[None, :]
        return 0.5 * (phys + phys.T)


def build_shape(moments: StatMoments, sig: Signature, hbar: float = 1.0) -> ShapeParams:
    """Shape parameters of the joint-state Gaussian for the given moments.

    Raises if X is singular or if the resulting exponent would not decay
    along some axis (reported by axis index).
    """
    if hbar <= 0.0:
        raise InvalidInputError("hbar must be positive")
    if sig.dim != moments.dim:
        raise InvalidInputError("signature dimension does not match moments")
    eta = sig.matrix()
    if not np.allclose(moments.X @ moments.x_inv, np.eye(moments.dim), atol=1e-12):
        raise InvalidInputError("X inversion failed the 1e-12 identity check")
    # mixed-index inverse: (eta X)^-1 = X^-1 eta for the diagonal metric
    mixed_inv = moments.x_inv @ eta
    B = 0.25 * (hbar**2 * eta + 2j * hbar * moments.rho) @ mixed_inv
    shape = ShapeParams(matrix=B, signs=sig.signs)
    decay = np.linalg.eigvalsh(shape.exponent.real)
    if decay.min() <= 0.0:
        axis = int(np.argmin(np.diag(shape.exponent.real)))
        raise InvalidInputError(
            f"Gaussian decay invariant violated (worst axis {axis}): "
            f"smallest exponent eigenvalue {decay.min():.3e}"
        )
    return shape


@dataclass(frozen=True)
class UncertaintyCheck:
    determinant: float
    bound: float
    saturated: bool
    violated: bool


def uncertainty_determinant(P11: float, X11: float, rho11: float,
                            hbar: float = 1.0) -> UncertaintyCheck:
    """Covariance-matrix determinant P X - rho^2 against the hbar^2/4 floor.

    A violation is reported, not raised: callers feed arbitrary numbers.
    """
    if P11 <= 0.0 or X11 <= 0.0:
        raise InvalidInputError("variances must be positive")
    det = P11 * X11 - rho11**2
    bound = hbar**2 / 4.0
    tol = 1e-9 * bound
    return UncertaintyCheck(
        determinant=det,
        bound=bound,
        saturated=abs(det - bound) <= tol,
        violated=det < bound - tol,
    )


def check_saturation(moments: StatMoments, sig: Signature, hbar: float = 1.0) -> float:
    """Relative Frobenius residual of the conditions for a joint state.

    Returns the larger of ||P - (hbar^2/4) eta X^-1 eta - rho X^-1 rho^T||_F
    / ||P||_F and ||A - A^T||_F / (hbar ||X^-1||_F) with A = eta rho X^-1.
    The first is the matrix saturation identity; the second asks for a
    symmetric Gaussian exponent, whose imaginary part (hbar/2) A is measured
    against its real part (hbar^2/4) X^-1.  Both vanish exactly when the
    moments describe a pure Gaussian; the second is identically 0 for one
    pair and for diagonal X and rho.  A zero P, and moments whose squares
    overflow double precision, read inf.
    """
    check_hbar(hbar)
    eta = sig.matrix()
    x_inv = moments.x_inv
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        target = (hbar**2 / 4.0) * (eta @ x_inv @ eta) + moments.rho @ x_inv @ moments.rho.T
        res = moments.P - target
        A = eta @ moments.rho @ x_inv
        skew = np.linalg.norm(A - A.T) / (hbar * np.linalg.norm(x_inv))
        terms = (np.linalg.norm(res) / np.linalg.norm(moments.P), skew)
    return float(max(terms)) if np.all(np.isfinite(terms)) else math.inf


@dataclass(frozen=True, eq=False)
class CovarianceFactors:
    """Triangular factors (a, b, c) of the block covariance decomposition."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen(self.a, dtype=complex))
        object.__setattr__(self, "b", _frozen(self.b, dtype=complex))
        object.__setattr__(self, "c", _frozen(self.c, dtype=complex))


def block_covariance(moments: StatMoments) -> np.ndarray:
    """2D x 2D block matrix [[P, rho], [rho^T, X]]."""
    return np.block([[moments.P, moments.rho], [moments.rho.T, moments.X]])


def reconstruct_covariance(factors: CovarianceFactors, sig: Signature) -> np.ndarray:
    """Rebuild the block covariance matrix from its factors.

    M = [[b, 0], [2 a c b, a]];  block = M^T diag(eta, eta) M.
    """
    d = sig.dim
    eta = sig.matrix()
    lower = 2.0 * factors.a @ factors.c @ factors.b
    M = np.block([[factors.b, np.zeros((d, d))], [lower, factors.a]])
    eta2 = np.block([[eta, np.zeros((d, d))], [np.zeros((d, d)), eta]])
    return M.T @ eta2 @ M


def decompose_covariance(moments: StatMoments, sig: Signature,
                         hbar: float = 1.0) -> CovarianceFactors:
    """Factor a saturating block covariance into (a, b, c).

    a is the principal square root of eta X, b = (hbar/2) a^-1 and
    c = (1/hbar) X^-1 rho^T a; with these the reconstruction reproduces the
    block matrix identically whenever the moments saturate.  Non-saturating
    input is rejected.

    eta X is similar to the symmetric X^1/2 eta X^1/2, so it is diagonalizable
    with a real spectrum; rooting the real parts of its eigenvalues keeps
    round-off off the -i branch (Higham, Functions of Matrices, ch. 1 and 6).
    """
    residual = check_saturation(moments, sig, hbar)
    if residual > _FACTOR_SATURATION_TOL:
        raise SaturationError(
            f"moments do not saturate: residual {residual:.3e} > {_FACTOR_SATURATION_TOL:.1e}"
        )
    lam, V = np.linalg.eig(sig.matrix() @ moments.X)
    a = (V * np.sqrt(lam.real.astype(complex))) @ np.linalg.inv(V)
    b = (hbar / 2.0) * np.linalg.inv(a)
    c = (1.0 / hbar) * moments.x_inv @ moments.rho.T @ a
    factors = CovarianceFactors(a=a, b=b, c=c)
    rebuilt = reconstruct_covariance(factors, sig)
    target = block_covariance(moments)
    if not np.allclose(rebuilt, target, atol=1e-10 * max(1.0, np.abs(target).max())):
        raise InvalidInputError("covariance factor reconstruction failed")
    return factors


def wave_from_particle(energy, momentum, hbar: float = 1.0):
    """Planck-Einstein-De Broglie map: (energy, momentum) -> (omega, wavevector)."""
    energy = np.asarray(energy, dtype=float)
    momentum = np.asarray(momentum, dtype=float)
    if not (np.all(np.isfinite(energy)) and np.all(np.isfinite(momentum))):
        raise InvalidInputError("non-finite input")
    return energy / hbar, momentum / hbar


def particle_from_wave(omega, wavevector, hbar: float = 1.0):
    """Inverse of :func:`wave_from_particle`; the round trip is exact."""
    omega = np.asarray(omega, dtype=float)
    wavevector = np.asarray(wavevector, dtype=float)
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(wavevector))):
        raise InvalidInputError("non-finite input")
    return hbar * omega, hbar * wavevector
