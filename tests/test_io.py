"""Byte identity of every qps CSV/JSON writer against np.savetxt / json.dump,
a golden export, atomic replacement, and the strict reader that inverts the
grid CSV writer."""

import ast
import io
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qps import (
    CoordinateGrid,
    GridAxis,
    GridWavefunction,
    JointStateSpec,
    PhaseDistribution,
    PhaseGrid,
    PhasePair,
    PhaseWavefunction,
    write_distribution,
    write_wavefunction,
)
from qps.fock import write_matrix
from qps.errors import InvalidInputError
from qps.io import (
    atomic_write,
    read_grid_csv,
    read_json,
    read_sidecar,
    reading,
    write_grid_csv,
    write_json,
)

GOLDEN = Path(__file__).parent / "data" / "golden_husimi_1pair.csv"
SPECIALS = [-0.0, 1e-300, 1e300, np.nan, np.inf, -np.inf]


def savetxt_text(axes, columns, header, label_fmt="%.12g") -> str:
    """The oracle: the full meshgrid table written by np.savetxt."""
    mesh = np.meshgrid(*axes, indexing="ij")
    table = np.column_stack([m.reshape(-1) for m in mesh]
                            + [np.asarray(c, dtype=float).reshape(-1) for c in columns])
    fmt = [label_fmt] * len(axes) + ["%.12g"] * len(columns)
    buf = io.StringIO()
    np.savetxt(buf, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")
    return buf.getvalue()


def sampled_savetxt_lines(axes, columns, stride):
    """savetxt lines of every `stride`-th row, for tables too large for the
    full oracle to run quickly."""
    mesh = np.meshgrid(*axes, indexing="ij")
    table = np.column_stack([m.reshape(-1) for m in mesh]
                            + [np.asarray(c).reshape(-1) for c in columns])
    buf = io.StringIO()
    np.savetxt(buf, table[::stride], fmt="%.12g", delimiter=",")
    return buf.getvalue().splitlines()


def pair_axes(grid):
    axes = []
    for pair in grid.pairs:
        axes += [pair.p_points(), pair.x_points()]
    return axes


class TestGridCsv:
    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4), (3, 1, 2, 5)])
    @pytest.mark.parametrize("ncols", [1, 2])
    def test_matches_savetxt(self, tmp_path, rng, shape, ncols):
        axes = [rng.normal(size=n) * 10.0 ** rng.integers(-5, 5) for n in shape]
        columns = [rng.normal(size=shape) for _ in range(ncols)]
        header = [f"a{i}" for i in range(len(shape))] + [f"v{i}" for i in range(ncols)]
        path = tmp_path / "t.csv"
        write_grid_csv(path, header, axes, columns, {"schema": 1})
        assert path.read_text() == savetxt_text(axes, columns, header)

    def test_special_values(self, tmp_path):
        axes = [np.array([-0.0, 1.0, 2.5]), np.array([1e-300, 1e300])]
        values = np.array(SPECIALS).reshape(3, 2)
        columns = [values, values[::-1]]
        path = tmp_path / "t.csv"
        write_grid_csv(path, ["a", "b", "re", "im"], axes, columns, {"schema": 1})
        text = path.read_text()
        assert text == savetxt_text(axes, columns, ["a", "b", "re", "im"])
        assert text.splitlines()[1] == "-0,1e-300,-0,inf"
        assert "1e+300,nan,nan" in text

    def test_size_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_grid_csv(tmp_path / "t.csv", ["a", "v"], [np.arange(3.0)], [np.zeros(4)], {})
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("header", [["a", "v"], ["a", "b", "v", "im", "extra"]])
    def test_header_count_mismatch_rejected(self, tmp_path, header):
        axes, columns = [np.arange(3.0), np.arange(2.0)], [np.zeros((3, 2))] * 2
        with pytest.raises(ValueError, match="header names"):
            write_grid_csv(tmp_path / "t.csv", header, axes, columns, {})
        assert list(tmp_path.iterdir()) == []


def written_values(path, values):
    """The value texts a one-column grid CSV of `values` holds, row by row."""
    write_grid_csv(path, ["i", "v"], [range(len(values))], [np.array(values, dtype=float)], {})
    return [line.split(",")[1] for line in path.read_text().splitlines()[1:]]


# every float64, subnormals, +-inf and nan included, by its bit pattern
RAW_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


def neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


VALUE_EDGES = ([9.999999999995e-5, 999999999999.5, 1e12, -0.0, 0.0, 5e-324, 1e300, 1e-300]
               + neighbours(1e-5) + neighbours(1e-4) + neighbours(1e12)
               + neighbours(1e290) + neighbours(1e-290))


class TestValueText:
    """The writer's numpy kernel prints each value exactly as ``"%.12g" % v``."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("values") / "v.csv"

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(RAW_FLOATS | st.floats(), min_size=1, max_size=64))
    def test_any_float64(self, path, values):
        assert written_values(path, values) == ["%.12g" % v for v in values]

    def test_edges(self, path):
        values = VALUE_EDGES + [-v for v in VALUE_EDGES]
        assert written_values(path, values) == ["%.12g" % v for v in values]

    def test_near_ties_and_carries(self, path, rng):
        # 12 digits and a 5 sit within round-off of a rounding tie; 12 nines
        # and a 5 or more carry into the next power of ten
        ties = [float(f"{d}5e{k}") for d, k in zip(rng.integers(10**11, 10**12, 400).tolist(),
                                                    rng.integers(-40, 40, 400).tolist())]
        carries = [float(f"9.99999999999{t}e{k}") for t in (5, 6, 9) for k in range(-8, 14)]
        values = [y for x in ties + carries for y in neighbours(x)]
        assert written_values(path, values) == ["%.12g" % v for v in values]

    def test_random_magnitudes(self, path, rng):
        size = 20000
        values = (rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 10.0, size)
                  * 10.0 ** rng.integers(-323, 308, size)).tolist()
        assert written_values(path, values) == ["%.12g" % v for v in values]


class TestChunking:
    def test_memory_does_not_grow_with_rows(self, tmp_path, rng):
        axes = [np.linspace(-8.0, 8.0, 32)] * 4
        columns = [rng.normal(size=(32,) * 4), rng.normal(size=(32,) * 4)]
        tracemalloc.start()
        try:
            write_grid_csv(tmp_path / "d.csv", ["p1", "x1", "p2", "x2", "re", "im"], axes,
                           columns, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2^20 rows of ~80 bytes; one copy of a value column alone is 8 MiB
        assert peak < 10 * 2**20

    def test_one_kernel_call_per_column(self, tmp_path, rng, monkeypatch):
        import qps.io

        calls = []
        kernel = qps.io._g12_planes
        monkeypatch.setattr(qps.io, "_g12_planes", lambda v: calls.append(v.size) or kernel(v))
        grid = CoordinateGrid((GridAxis(-3.0, 4.0, 1024),))
        values = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        write_wavefunction(GridWavefunction(grid, values), tmp_path / "psi.csv")
        assert calls == [1024, 1024]


class TestGridCsvReader:
    AXES = [np.array([-1.5, 0.25, 3.0]), np.array([1e-7, 2.0])]
    HEADER = ["a", "b", "re", "im"]

    def write(self, tmp_path, rng):
        columns = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
        path = tmp_path / "t.csv"
        write_grid_csv(path, self.HEADER, self.AXES, columns, {"schema": 1, "n": [3, 2]})
        return path, columns

    def test_round_trip_and_sidecar(self, tmp_path, rng):
        path, columns = self.write(tmp_path, rng)
        real, imag = read_grid_csv(path, self.HEADER, self.AXES, 2)
        assert np.abs(real - columns[0].ravel()).max() < 1e-11
        assert np.abs(imag - columns[1].ravel()).max() < 1e-11
        assert read_sidecar(path) == {"schema": 1, "n": [3, 2]}

    def test_integer_labels(self, tmp_path):
        path = tmp_path / "m.csv"
        write_grid_csv(path, ["row", "col", "v"], [range(2), range(3)], [np.arange(6.0)], {})
        (v,) = read_grid_csv(path, ["row", "col", "v"], [range(2), range(3)], 1)
        assert np.array_equal(v, np.arange(6.0))

    @pytest.mark.parametrize("damage, message", [
        (lambda ls: ["a,b,re\n"] + ls[1:], "header"),
        (lambda ls: ls[:1] + ls[:0:-1], "data row 1 has a = 3"),
        (lambda ls: ls[:1] + [ls[2], ls[1]] + ls[3:], "data row 1 has b = 2"),
        (lambda ls: ls[:1] + ["0.25" + l[l.index(","):] for l in ls[1:]], "has a = 0.25"),
        (lambda ls: ls[:-1], "table is (5, 4)"),
        (lambda ls: ls + ls[-1:], "table is (7, 4)"),
        (lambda ls: [l.rsplit(",", 1)[0] + "\n" for l in ls], "header"),
        (lambda ls: ls[:1] + [l.rsplit(",", 1)[0] + "\n" for l in ls[1:]], "table is (6, 3)"),
        (lambda ls: ls[:1], "no data rows"),
        (lambda ls: ls[:1] + ["\n"], "no data rows"),
        (lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0] + ",nan\n"], "row 6 has a non-finite"),
        (lambda ls: ls[:2] + [ls[2].rsplit(",", 2)[0] + ",-inf,0\n"] + ls[3:],
         "row 2 has a non-finite"),
    ])
    def test_rejects_what_the_writer_would_not_print(self, tmp_path, rng, damage, message):
        path, _ = self.write(tmp_path, rng)
        path.write_text("".join(damage(path.read_text().splitlines(keepends=True))))
        with pytest.raises(ValueError, match=re.escape(message)):
            read_grid_csv(path, self.HEADER, self.AXES, 2)

    @pytest.mark.parametrize("content", [b"{\"a\": \"\xe9\"}", b"{\"a\": ", b""])
    def test_reading_turns_parse_failures_into_invalid_input(self, tmp_path, content):
        path = tmp_path / "t.csv.json"
        path.write_bytes(content)
        with pytest.raises(InvalidInputError, match="^cannot read thing: "):
            with reading("thing"):
                read_sidecar(tmp_path / "t.csv")
        with pytest.raises(InvalidInputError, match="^cannot read thing: "):
            with reading("thing"):
                read_json(tmp_path / "missing.json")


class TestDistribution:
    def test_golden_one_pair(self, tmp_path):
        grid = PhaseGrid((PhasePair(-4.0, 4.0, 32, -3.0, 5.0, 32),))
        p = grid.pairs[0].p_points()[:, None]
        x = grid.pairs[0].x_points()[None, :]
        values = 1.0 / (1.0 + p * p + 2.0 * (x - 1.0) * (x - 1.0))
        path = tmp_path / "husimi.csv"
        write_distribution(PhaseDistribution(grid, values, "husimi_like", 1.0), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_one_pair_uneven_real_and_complex(self, tmp_path, rng, ground_spec):
        grid = PhaseGrid((PhasePair(-6.0, 5.0, 33, -7.0, 7.5, 41),))
        values = rng.normal(size=grid.shape)
        values.flat[:len(SPECIALS)] = SPECIALS
        dist = PhaseDistribution(grid, values, "wigner", 1.0)
        write_distribution(dist, tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_text() == savetxt_text(
            pair_axes(grid), [values], ["p", "x", "value"])

        pw = PhaseWavefunction(grid, values + 1j * rng.normal(size=grid.shape), ground_spec)
        write_distribution(pw, tmp_path / "pw.csv")
        assert (tmp_path / "pw.csv").read_text() == savetxt_text(
            pair_axes(grid), [pw.values.real, pw.values.imag], ["p", "x", "value", "im"])

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_two_uneven_pairs(self, tmp_path, rng, complex_valued):
        grid = PhaseGrid((PhasePair(-8.0, 8.0, 33, -7.0, 6.0, 34),
                          PhasePair(-5.0, 6.0, 32, -8.0, 8.0, 35)))
        values = rng.normal(size=grid.shape)
        if complex_valued:
            family = JointStateSpec.from_covariance(X=np.diag([0.5, 0.7]))
            dist = PhaseWavefunction(grid, values * (0.6 - 0.8j), family)
            columns = [dist.values.real, dist.values.imag]
        else:
            dist = PhaseDistribution(grid, values, "husimi_like", 1.0)
            columns = [values]
        path = tmp_path / "d.csv"
        write_distribution(dist, path)
        lines = path.read_text().splitlines()
        header = "p1,x1,p2,x2,value" + (",im" if complex_valued else "")
        assert lines[0] == header
        assert len(lines) == 1 + values.size
        stride = 997
        assert lines[1::stride] == sampled_savetxt_lines(pair_axes(grid), columns, stride)
        meta = json.loads((tmp_path / "d.csv.json").read_text())
        assert [p["n_x"] for p in meta["pairs"]] == [34, 35]


    def test_three_pairs(self, tmp_path):
        grid = PhaseGrid.symmetric(4.0, 4, npairs=3)
        write_distribution(PhaseDistribution(grid, np.ones(grid.shape), "husimi_like", 1.0),
                           tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        assert lines[0] == "p1,x1,p2,x2,p3,x3,value"
        assert lines[1] == "-3,-3,-3,-3,-3,-3,1" and len(lines) == 1 + 4**6


class TestWavefunctionAndMatrix:
    def test_wavefunction_one_axis(self, tmp_path, rng):
        grid = CoordinateGrid((GridAxis(-3.0, 4.0, 64),))
        values = rng.normal(size=64) + 1j * rng.normal(size=64)
        values[:3] = [-0.0, 1e-300, 1e300]
        write_wavefunction(GridWavefunction(grid, values), tmp_path / "psi.csv")
        assert (tmp_path / "psi.csv").read_text() == savetxt_text(
            [grid.axis_points(0)], [values.real, values.imag], ["x1", "re", "im"])

    def test_wavefunction_two_axes(self, tmp_path, rng):
        grid = CoordinateGrid((GridAxis(-3.0, 4.0, 8), GridAxis(-2.0, 2.5, 16)))
        values = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        write_wavefunction(GridWavefunction(grid, values), tmp_path / "psi.csv")
        assert (tmp_path / "psi.csv").read_text() == savetxt_text(
            [grid.axis_points(0), grid.axis_points(1)], [values.real, values.imag],
            ["x1", "x2", "re", "im"])

    def test_matrix_index_columns(self, tmp_path, rng):
        matrix = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
        matrix.flat[:len(SPECIALS)] = SPECIALS
        write_matrix(matrix, tmp_path / "m.csv", meta={"kind": "test"})
        assert (tmp_path / "m.csv").read_text() == savetxt_text(
            [np.arange(3), np.arange(12)], [matrix.real, matrix.imag],
            ["row", "col", "re", "im"], label_fmt="%d")
        meta = json.loads((tmp_path / "m.csv.json").read_text())
        assert meta == {"schema": 1, "shape": [3, 12], "kind": "test"}


class TestAtomic:
    def test_json_matches_json_dump(self, tmp_path):
        payload = {"schema": 1, "hbar": 0.1, "pairs": [{"n_p": 32}], "gauge": "half"}
        write_json(tmp_path / "a.json", payload)
        buf = io.StringIO()
        json.dump(payload, buf, indent=2)
        assert (tmp_path / "a.json").read_text() == buf.getvalue() + "\n"

    def test_failure_mid_stream_keeps_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old,contents\n1,2\n")

        def chunks():
            yield "new,header\n"
            yield "3,4\n" * 1000
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write(target, chunks())
        assert target.read_bytes() == b"old,contents\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_replace_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write(target, ["new", " text"])
        assert target.read_text() == "new text"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_files_are_opened_and_parsed_only_by_io():
    """`qps.io` is the one module that opens or parses a file."""
    import qps

    readers = {"open", "load", "loads", "loadtxt", "genfromtxt", "fromfile",
               "read_text", "read_bytes"}
    found = []
    for path in sorted(Path(qps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in readers:
                    found.append((path.name, name))
    assert [hit for hit in found if hit[0] != "io.py"] == []
    assert {name for _, name in found} >= {"open", "load", "loadtxt"}
