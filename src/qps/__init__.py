"""Quantum phase-space numerics.

Saturating Gaussian joint momentum-coordinate states, a discretized
coordinate-representation oracle, truncated ladder algebra, positive
phase-space distributions with the h^D microstate hypervolume law, density
operators with exact unitary evolution, and representative phase-space
operators under three gauge choices.

Names and submodules load on first access (PEP 562), so `from qps import X`
imports only X's module and what it needs.
"""

import os

# QPS_THREADS caps the BLAS/OpenMP pools, which read their variables once,
# when numpy loads: so it is applied before any submodule imports numpy.
if os.environ.get("QPS_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["QPS_THREADS"])

__version__ = "0.1.0"

# submodule -> the public names it exports at the package level
_EXPORTS = {
    "errors": ("CoverageError", "InvalidInputError", "QpsError", "SaturationError",
               "UnsupportedError"),
    "metric": ("ShapeParams", "Signature", "StatMoments", "build_shape", "check_saturation",
               "saturating_moments"),
    "grids": ("CoordinateGrid", "GridAxis", "GridWavefunction", "apply_momentum",
              "apply_position", "inner_product", "inverse_momentum_transform", "moments",
              "momentum_transform", "read_wavefunction", "write_wavefunction"),
    "states": ("GaugeChoice", "JointStateSpec", "analytic_overlap", "coordinate_wavefunction",
               "momentum_wavefunction", "z_eigencheck"),
    "fock": ("FockVector", "LadderMatrices", "RobertsonCheck", "TruncatedBasis", "build_ladder",
             "grid_number_states", "momentum_matrix", "number_state", "operator_matrix",
             "orthonormality_check", "position_matrix", "robertson_check"),
    "phasespace": ("ClosureResult", "PhaseDistribution", "PhaseGrid", "PhasePair",
                   "PhaseWavefunction", "closure_reconstruct", "density_husimi",
                   "husimi_distribution", "microstate_hypervolume", "phase_wavefunction",
                   "wigner_distribution", "write_distribution"),
    "density": ("DensityMatrix", "MicrostateCount", "MixtureSpec", "boltzmann_entropy",
                "count_microstates", "evolve_lvn", "expectation", "from_mixture", "from_pure",
                "number_hamiltonian", "purity", "read_density", "write_density"),
    "psops": ("ConsistencyReport", "apply_ptilde", "apply_xtilde", "ccr_residual",
              "consistency_check"),
    "io": (),
    "suites": (),
    "verify": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    import importlib

    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
