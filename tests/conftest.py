import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qps import CoordinateGrid, GaugeChoice, JointStateSpec


@pytest.fixture(scope="session")
def line_grid():
    return CoordinateGrid.line(-12.0, 12.0, 1024)


@pytest.fixture(scope="session")
def wide_grid():
    return CoordinateGrid.line(-16.0, 16.0, 1024)


@pytest.fixture(scope="session")
def ground_spec():
    return JointStateSpec.from_covariance(X=[[0.5]])


@pytest.fixture()
def rng():
    return np.random.default_rng(42)


def random_correlated_spec(rng, hbar=1.0, mean_scale=2.0, gauge=None):
    """Random saturating 1-D spec with nonzero momentum-coordinate correlation."""
    return JointStateSpec.from_covariance(
        X=[[rng.uniform(0.25, 1.5)]],
        rho=[[rng.uniform(-0.6, 0.6)]],
        mean_p=[rng.uniform(-mean_scale, mean_scale)],
        mean_x=[rng.uniform(-mean_scale, mean_scale)],
        gauge=gauge or GaugeChoice("zero"),
        hbar=hbar,
    )


def gate_edge_spec():
    """D = 2 spec with X = diag(0.5, 0.5), rho = 0 and a 3e-10 off-diagonal
    in P: its saturation residual, 6e-10, is inside the spec's 1e-9 gate."""
    return JointStateSpec.from_dict({
        "schema": 1, "hbar": 1.0, "signature": {"d_plus": 0, "d_minus": 2},
        "gauge": {"kind": "zero", "value": 0.0}, "mean_p": [0.0, 0.0], "mean_x": [0.0, 0.0],
        "P": [[0.5, 3e-10], [3e-10, 0.5]], "X": [[0.5, 0.0], [0.0, 0.5]],
        "rho": [[0.0, 0.0], [0.0, 0.0]]})


@functools.lru_cache(maxsize=None)
def benchmark_inputs():
    """The benchmark's seeded input pool, `perfbench/inputs.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
