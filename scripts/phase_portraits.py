"""Export phase-space portraits contrasting the positive density with Wigner.

Writes husimi/wigner CSV pairs for the ground state, the first excited state
and an even cat state into --out (default ./portraits).  The Wigner transform
of the excited and cat states goes negative; the overlap-based density never
does.
"""

import argparse
from pathlib import Path

from qps import (
    CoordinateGrid,
    GridWavefunction,
    JointStateSpec,
    PhaseGrid,
    TruncatedBasis,
    coordinate_wavefunction,
    husimi_distribution,
    number_state,
    wigner_distribution,
    write_distribution,
)


def cat_state(spec, grid, displacement=1.5):
    plus = coordinate_wavefunction(spec.displaced([0.0], [displacement]), grid)
    minus = coordinate_wavefunction(spec.displaced([0.0], [-displacement]), grid)
    psi = GridWavefunction(grid, plus.values + minus.values)
    return psi.with_values(psi.values / psi.norm())


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="portraits")
    parser.add_argument("--n", type=int, default=128, help="phase points per axis")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = JointStateSpec.from_covariance(X=[[0.5]])
    grid = CoordinateGrid.line(-16.0, 16.0, 1024)
    pgrid = PhaseGrid.symmetric(10.0, args.n)

    states = {
        "ground": coordinate_wavefunction(spec, grid),
        "excited1": number_state(1, TruncatedBasis((3,), spec), grid),
        "cat": cat_state(spec, grid),
    }
    for name, psi in states.items():
        hus = husimi_distribution(psi, spec, pgrid)
        wig = wigner_distribution(psi, pgrid)
        write_distribution(hus, out / f"{name}_husimi.csv")
        write_distribution(wig, out / f"{name}_wigner.csv")
        print(f"{name:9s} husimi min {hus.minimum():+.3e}  "
              f"wigner min {wig.minimum():+.3e}  masses "
              f"{hus.integral():.6f}/{wig.integral():.6f}")
    print(f"portraits -> {out}")


if __name__ == "__main__":
    main()
