"""Seeded inputs for the benchmark workloads.

Every input is drawn from a fixed pool of cases generated from POOL_SEED,
and the workload seed chooses which pool cases each round runs.  A fixed
pool lets every output be compared with the values recorded in
reference.json; the seed still decides the inputs of a run.

All draws stay inside the coverage of the CLI's default grids (coordinate
grid +-12 with 1024 points, or 256^2 for two pairs; phase grid +-8 with 128^2
points, or 32^4 for two pairs), so an exit code 3 is a real failure.
"""

import json
from pathlib import Path

import numpy as np

POOL_SEED = 20220517

# Generator parameters; recorded with every result.
GENERATOR = {
    "pool_seed": POOL_SEED,
    "state_cases": {"1": 12, "2": 8},
    "state_X": [0.35, 0.75],
    "state_rho": [-0.2, 0.2],
    "state_mean": [-2.0, 2.0],
    "state_gauges": ["zero", "full", "half"],
    "dist_kinds": {"1": ["husimi", "wigner", "phasewave"], "2": ["husimi", "phasewave"]},
    "rho_cases": {"16": 8, "3x3": 8},
    "rho_X": [0.4, 0.6],
    "rho_mean": [-1.0, 1.0],
    "rho_rank": [1, 3],
    "rho_weight": [0.2, 1.0],
    "omega": [0.5, 2.0],
    "t": [0.5, 3.0],
    "snapshots": {"16": 16, "3x3": 1},
    "verify_hbar": [0.37, 0.5, 0.8, 1.0, 1.6, 2.5],
}

BASES = {"16": (16,), "3x3": (3, 3)}


def spec_dict(X, rho, mean_p, mean_x, gauge="zero", hbar=1.0):
    """Saturating state spec with diagonal X and rho: P = (hbar^2/4 + rho^2)/X."""
    n = len(X)
    P = [(hbar**2 / 4.0 + r * r) / x for x, r in zip(X, rho)]

    def diag(v):
        return [[float(v[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]

    return {
        "schema": 1, "hbar": hbar,
        "signature": {"d_plus": 0, "d_minus": n},
        "gauge": {"kind": gauge, "value": 0.0},
        "mean_p": [float(v) for v in mean_p], "mean_x": [float(v) for v in mean_x],
        "P": diag(P), "X": diag(X), "rho": diag(rho),
    }


def state_case(npairs: int, index: int) -> dict:
    """Pool case: a random one- or two-pair spec and the dist kinds it runs."""
    g = GENERATOR
    rng = np.random.default_rng([POOL_SEED, 1, npairs, index])
    X = rng.uniform(*g["state_X"], npairs)
    rho = rng.uniform(*g["state_rho"], npairs)
    mean_p, mean_x = rng.uniform(*g["state_mean"], (2, npairs))
    gauge = g["state_gauges"][int(rng.integers(len(g["state_gauges"])))]
    return {
        "id": f"state{npairs}-{index}",
        "npairs": npairs,
        "spec": spec_dict(X, rho, mean_p, mean_x, gauge),
        "kinds": g["dist_kinds"][str(npairs)],
    }


def rho_case(basis: str, index: int) -> dict:
    """Pool case: a random rank-r mixture over a truncated number basis."""
    g = GENERATOR
    n_max = BASES[basis]
    rng = np.random.default_rng([POOL_SEED, 2, len(n_max), index])
    npairs = len(n_max)
    dim = int(np.prod(n_max))
    X = rng.uniform(*g["rho_X"], npairs)
    mean_p, mean_x = rng.uniform(*g["rho_mean"], (2, npairs))
    rank = int(rng.integers(g["rho_rank"][0], g["rho_rank"][1] + 1))
    V = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    V, _ = np.linalg.qr(V)
    w = rng.uniform(*g["rho_weight"], rank)
    M = (V * (w / w.sum())) @ V.conj().T
    return {
        "id": f"rho{basis}-{index}",
        "n_max": list(n_max),
        "rank": rank,
        "reference": spec_dict(X, np.zeros(npairs), mean_p, mean_x),
        "matrix": 0.5 * (M + M.conj().T),
        "omega": float(rng.uniform(*g["omega"])),
        "t": float(rng.uniform(*g["t"])),
        "snapshots": g["snapshots"][basis],
    }


def pool() -> dict:
    """Every case a run can draw, by kind."""
    g = GENERATOR
    return {
        "state1": [state_case(1, i) for i in range(g["state_cases"]["1"])],
        "state2": [state_case(2, i) for i in range(g["state_cases"]["2"])],
        "rho16": [rho_case("16", i) for i in range(g["rho_cases"]["16"])],
        "rho3x3": [rho_case("3x3", i) for i in range(g["rho_cases"]["3x3"])],
        "verify": [{"id": f"verify-{h!r}", "hbar": h} for h in g["verify_hbar"]],
    }


def write_spec(case: dict, path: Path) -> Path:
    path.write_text(json.dumps(case["spec"], indent=2) + "\n")
    return path


def write_density(case: dict, path: Path) -> Path:
    """Density CSV (row, col, re, im at 12 digits) plus its JSON basis sidecar."""
    M = case["matrix"]
    rows, cols = np.indices(M.shape)
    table = np.column_stack([rows.ravel(), cols.ravel(), M.real.ravel(), M.imag.ravel()])
    np.savetxt(path, table, fmt=("%d", "%d", "%.12g", "%.12g"), delimiter=",",
               header="row,col,re,im", comments="")
    meta = {"schema": 1, "shape": list(M.shape),
            "basis": {"n_max": case["n_max"], "reference": case["reference"]}}
    Path(f"{path}.json").write_text(json.dumps(meta, indent=2) + "\n")
    return path
