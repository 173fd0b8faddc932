"""Scan the phase-space hypervolume integral across unrelated states.

The integral of |psi~|^2 dp dx (no 1/h weights) lands on h = 2 pi hbar for
every normalized state, whatever its width, correlation or excitation, on
h^2 for a two-pair product state, and on h^3 for a displaced three-pair
coherent state (32^3 grid points, 12^6 phase samples).
"""

import argparse

import numpy as np

from qps import (
    CoordinateGrid,
    JointStateSpec,
    PhaseGrid,
    TruncatedBasis,
    coordinate_wavefunction,
    count_microstates,
    microstate_hypervolume,
    number_state,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hbar", type=float, default=1.0)
    args = parser.parse_args()
    hbar = args.hbar
    h = 2.0 * np.pi * hbar

    family = JointStateSpec.from_covariance(X=[[hbar / 2.0]], hbar=hbar)
    grid = CoordinateGrid.line(-16.0, 16.0, 1024)
    pgrid = PhaseGrid.symmetric(12.0 * np.sqrt(hbar), 128)

    cases = {
        "coherent": coordinate_wavefunction(family.displaced([0.4], [0.7]), grid),
        "squeezed x0.5": coordinate_wavefunction(
            JointStateSpec.from_covariance(X=[[hbar / 4.0]], hbar=hbar), grid
        ),
        "antisqueezed x2": coordinate_wavefunction(
            JointStateSpec.from_covariance(X=[[hbar]], hbar=hbar), grid
        ),
        "correlated": coordinate_wavefunction(
            JointStateSpec.from_covariance(X=[[hbar / 2.0]], rho=[[0.4 * hbar]], hbar=hbar),
            grid,
        ),
        "excited n=2": number_state(2, TruncatedBasis((4,), family), grid),
    }
    print(f"target h = {h:.12g}")
    for name, psi in cases.items():
        vol = microstate_hypervolume(psi, family, pgrid)
        count = count_microstates(vol, 1, hbar)
        print(f"{name:16s} integral {vol:.10g}  rel dev {abs(vol - h) / h:8.1e}  "
              f"omega {count.omega:.8f}  entropy {count.entropy:+.2e}")

    spec2 = JointStateSpec.from_covariance(X=np.diag([hbar / 2.0, hbar / 2.0]), hbar=hbar)
    psi2 = coordinate_wavefunction(spec2, CoordinateGrid.square(-12.0, 12.0, 128))
    vol2 = microstate_hypervolume(
        psi2, spec2, PhaseGrid.symmetric(8.0 * np.sqrt(hbar), 48, npairs=2)
    )
    print(f"{'2-pair product':16s} integral {vol2:.10g}  target h^2 = {h**2:.10g}  "
          f"rel dev {abs(vol2 - h**2) / h**2:8.1e}")

    spec3 = JointStateSpec.from_covariance(X=np.diag([hbar / 2.0] * 3), hbar=hbar)
    s = np.sqrt(hbar)
    psi3 = coordinate_wavefunction(
        spec3.displaced([0.3 * s, -0.2 * s, 0.1 * s], [0.2 * s, 0.4 * s, -0.3 * s]),
        CoordinateGrid(((-8.0 * s, 8.0 * s, 32),) * 3),
    )
    vol3 = microstate_hypervolume(psi3, spec3, PhaseGrid.symmetric(8.0 * s, 12, npairs=3))
    print(f"{'3-pair coherent':16s} integral {vol3:.10g}  target h^3 = {h**3:.10g}  "
          f"rel dev {abs(vol3 - h**3) / h**3:8.1e}")


if __name__ == "__main__":
    main()
