"""Quantum phase-space numerics.

Saturating Gaussian joint momentum-coordinate states, a discretized
coordinate-representation oracle, truncated ladder algebra, positive
phase-space distributions with the h^D microstate hypervolume law, density
operators with exact unitary evolution, and representative phase-space
operators under three gauge choices.
"""

import os

# QPS_THREADS caps the BLAS/OpenMP pools, which read their variables once,
# when numpy loads: so it is applied before any submodule imports numpy.
if os.environ.get("QPS_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["QPS_THREADS"])

from .errors import (
    CoverageError,
    GaugeMismatchError,
    InvalidInputError,
    QpsError,
    SaturationError,
    UnsupportedError,
)
from .metric import (
    HBAR_SI,
    CovarianceFactors,
    ShapeParams,
    Signature,
    StatMoments,
    UncertaintyCheck,
    block_covariance,
    build_shape,
    check_saturation,
    decompose_covariance,
    particle_from_wave,
    raise_lower,
    reconstruct_covariance,
    saturating_moments,
    uncertainty_determinant,
    wave_from_particle,
)
from .grids import (
    CoordinateGrid,
    GridAxis,
    GridWavefunction,
    apply_momentum,
    apply_position,
    inner_product,
    inverse_momentum_transform,
    moments,
    momentum_transform,
    read_wavefunction,
    write_wavefunction,
)
from .states import (
    GaugeChoice,
    JointStateSpec,
    analytic_overlap,
    coordinate_wavefunction,
    momentum_wavefunction,
    z_eigencheck,
)
from .fock import (
    FockVector,
    LadderMatrices,
    RobertsonCheck,
    TruncatedBasis,
    build_ladder,
    grid_number_states,
    momentum_matrix,
    number_state,
    operator_matrix,
    orthonormality_check,
    position_matrix,
    robertson_check,
)
from .phasespace import (
    ClosureResult,
    PhaseDistribution,
    PhaseGrid,
    PhasePair,
    PhaseWavefunction,
    closure_reconstruct,
    husimi_distribution,
    microstate_hypervolume,
    phase_wavefunction,
    wigner_distribution,
    write_distribution,
)
from .density import (
    DensityMatrix,
    MicrostateCount,
    MixtureSpec,
    boltzmann_entropy,
    count_microstates,
    evolve_lvn,
    expectation,
    from_mixture,
    from_pure,
    number_hamiltonian,
    purity,
    read_density,
    write_density,
)
from .psops import (
    ConsistencyReport,
    ContinuousKernel,
    PhaseOperator,
    apply_ptilde,
    apply_xtilde,
    ccr_residual,
    consistency_check,
    continuous_kernel,
)

__version__ = "0.1.0"
