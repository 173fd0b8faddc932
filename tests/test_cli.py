import ast
import contextlib
import functools
import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from qps.cli import main
from qps.verify import TOLERANCES


def ground_payload(**overrides):
    payload = {
        "schema": 1,
        "hbar": 1.0,
        "signature": {"d_plus": 0, "d_minus": 1},
        "gauge": {"kind": "zero", "value": 0.0},
        "mean_p": [0.0],
        "mean_x": [1.0],
        "P": [[0.5]],
        "X": [[0.5]],
        "rho": [[0.0]],
    }
    payload.update(overrides)
    return payload


def write_spec(tmp_path, name="spec.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(ground_payload(**overrides)))
    return str(path)


class TestStateSynth:
    def test_ground_spec_outputs(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        code = main(["state", "synth", spec, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "wavefunction.csv").exists()
        report = json.loads((tmp_path / "moments.json").read_text())
        assert report["saturation_residual"] <= 1e-9
        assert "saturation_residual" in out

    def test_non_saturating_spec_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, P=[[1.0]])
        code = main(["state", "synth", spec, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "saturation" in err

    def test_two_axis_csv(self, tmp_path):
        spec = write_spec(
            tmp_path,
            signature={"d_plus": 0, "d_minus": 2},
            mean_p=[0.0, 0.0],
            mean_x=[0.0, 0.0],
            P=[[0.5, 0.0], [0.0, 0.5]],
            X=[[0.5, 0.0], [0.0, 0.5]],
            rho=[[0.0, 0.0], [0.0, 0.0]],
        )
        code = main(["state", "synth", spec, "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "wavefunction.csv").read_text().splitlines()[0]
        assert header == "x1,x2,re,im"

    def test_asymmetric_exponent_spec_exit_2(self, tmp_path, capsys):
        # P saturates, but eta rho X^-1 is not symmetric: not a pure Gaussian
        from qps.metric import saturating_moments

        m = saturating_moments(X=[[0.5, 0.1], [0.1, 0.8]], rho=np.diag([0.2, 0.0]))
        spec = write_spec(tmp_path, signature={"d_plus": 0, "d_minus": 2},
                          **m.to_dict())
        code = main(["state", "synth", spec, "--out", str(tmp_path)])
        assert code == 2
        assert "saturation violated: residual 2.96" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        {"gauge": "zero"}, {"signature": {"d_plus": 0, "d_minus": 1.7}},
        {"signature": {"d_plus": False, "d_minus": 1}},
    ])
    def test_mistyped_spec_exit_2(self, tmp_path, capsys, override):
        spec = write_spec(tmp_path, **override)
        code = main(["state", "synth", spec, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed state spec" in err and "Traceback" not in err

    def test_nested_mean_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, mean_p=[[]])
        code = main(["state", "synth", spec, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "inconsistent dimensions" in err and "Traceback" not in err

    def test_coverage_exit_3(self, tmp_path):
        spec = write_spec(tmp_path, mean_x=[11.0])
        code = main(["state", "synth", spec, "--grid=-12:12:1024", "--out", str(tmp_path)])
        assert code == 3

    def test_aliased_momentum_exit_3(self, tmp_path, capsys):
        # pi hbar / dx = 134 on the default grid: <p> = 200 would be sampled aliased
        spec = write_spec(tmp_path, mean_p=[200.0])
        code = main(["state", "synth", spec, "--out", str(tmp_path)])
        assert code == 3
        assert "momentum range of grid axis 0" in capsys.readouterr().err
        assert not (tmp_path / "moments.json").exists()

    def test_malformed_spec_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["state", "synth", str(path), "--out", str(tmp_path)]) == 2

    def test_non_utf8_spec_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(ground_payload(note="r\xe9sum\xe9"), ensure_ascii=False)
                         .encode("latin-1"))
        code = main(["state", "synth", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read spec file" in err and "Traceback" not in err


@functools.lru_cache(maxsize=None)
def benchmark_inputs():
    """The benchmark's seeded input pool, `perfbench/inputs.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def synth_state(tmp_path):
    spec = write_spec(tmp_path)
    assert main(["state", "synth", spec, "--out", str(tmp_path)]) == 0
    return tmp_path / "wavefunction.csv"


class TestDist:
    def test_husimi_output(self, tmp_path, synth_state, capsys):
        code = main(["dist", str(synth_state), "--kind", "husimi", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "normalization" in out and "minimum" in out
        norm = float(next(l.split()[1] for l in out.splitlines() if l.startswith("normalization")))
        assert abs(norm - 1.0) <= 1e-3
        minimum = float(next(l.split()[1] for l in out.splitlines() if l.startswith("minimum")))
        assert minimum >= -1e-12

    def test_phasewave_normalization(self, tmp_path, synth_state, capsys):
        code = main(["dist", str(synth_state), "--kind", "phasewave", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        norm = float(next(l.split()[1] for l in out.splitlines() if l.startswith("normalization")))
        assert abs(norm - 1.0) <= 1e-3
        header = (tmp_path / "phasewave.csv").read_text().splitlines()[0]
        assert header == "p,x,value,im"

    def test_wigner_negative_minimum_for_excited(self, tmp_path, capsys):
        # build the first excited state via the library, then export
        from qps import CoordinateGrid, JointStateSpec, TruncatedBasis, number_state, write_wavefunction

        spec = JointStateSpec.from_covariance(X=[[0.5]])
        n1 = number_state(1, TruncatedBasis((3,), spec), CoordinateGrid.line())
        path = tmp_path / "n1.csv"
        write_wavefunction(n1, path)
        code = main(["dist", str(path), "--kind", "wigner", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        minimum = float(next(l.split()[1] for l in out.splitlines() if l.startswith("minimum")))
        assert minimum < 0.0

    def test_two_axis_phasewave_uses_coarse_default(self, tmp_path, capsys):
        from qps import CoordinateGrid, JointStateSpec, coordinate_wavefunction, write_wavefunction

        spec = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        psi = coordinate_wavefunction(spec, CoordinateGrid.square(-12.0, 12.0, 128))
        path = tmp_path / "wf2.csv"
        write_wavefunction(psi, path)
        code = main(["dist", str(path), "--kind", "phasewave", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        norm = float(next(l.split()[1] for l in out.splitlines() if l.startswith("normalization")))
        assert abs(norm - 1.0) <= 1e-3
        header = (tmp_path / "phasewave.csv").read_text().splitlines()[0]
        assert header == "p1,x1,p2,x2,value,im"

    def test_three_pair_round_trip(self, tmp_path, capsys):
        # D >= 3 takes one --grid axis and one --pgrid pair per dimension
        spec = write_spec(
            tmp_path,
            signature={"d_plus": 0, "d_minus": 3},
            mean_p=[0.3, -0.2, 0.1],
            mean_x=[0.2, 0.4, -0.3],
            P=np.diag([0.5] * 3).tolist(),
            X=np.diag([0.5] * 3).tolist(),
            rho=np.zeros((3, 3)).tolist(),
        )
        out = ["--out", str(tmp_path)]
        assert main(["state", "synth", spec, "--grid=-8:8:32;-8:8:32;-8:8:32", *out]) == 0
        pgrid = "--pgrid=" + ";".join(["-5:5:8,-5:5:8"] * 3)
        assert main(["dist", str(tmp_path / "wavefunction.csv"), "--kind", "husimi",
                     pgrid, *out]) == 0
        stdout = capsys.readouterr().out
        norm = float(next(l.split()[1] for l in stdout.splitlines()
                          if l.startswith("normalization")))
        assert abs(norm - 1.0) <= 1e-3
        lines = (tmp_path / "husimi.csv").read_text().splitlines()
        assert lines[0] == "p1,x1,p2,x2,p3,x3,value"
        assert len(lines) == 1 + 8**6
        # a single spec is duplicated for two axes or pairs only
        assert main(["dist", str(tmp_path / "wavefunction.csv"), "--kind", "husimi",
                     "--pgrid=-5:5:8,-5:5:8", *out]) == 2
        assert "--pgrid provides 1 pairs, need 3" in capsys.readouterr().err
        assert main(["state", "synth", spec, "--grid=-8:8:32", *out]) == 2
        assert "--grid provides 1 axes, need 3" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["husimi", "phasewave", "wigner"])
    @pytest.mark.parametrize("pgrid", ["-8:8:32,-8:8:524288", "-8:8:524288,-8:8:32"])
    def test_phase_arrays_over_budget_exit_2(self, tmp_path, synth_state, capsys, monkeypatch,
                                             kind, pgrid):
        # 2^24 phase samples are inside the budget, but the analyzer tables
        # and the Wigner quadrature of a 1024-point state hold 2^29 and more;
        # every such array is built from the phase points, so none is built
        from qps.phasespace import PhasePair

        def unbuilt(pair):
            raise AssertionError("phase-grid arrays built before the budget check")

        monkeypatch.setattr(PhasePair, "p_points", unbuilt)
        monkeypatch.setattr(PhasePair, "x_points", unbuilt)
        code = main(["dist", str(synth_state), "--kind", kind,
                     f"--pgrid={pgrid}", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "budget is 16777216" in err and "Traceback" not in err
        assert not (tmp_path / f"{kind}.csv").exists()

    def test_wigner_two_axis_exit_4(self, tmp_path):
        from qps import CoordinateGrid, JointStateSpec, coordinate_wavefunction, write_wavefunction

        spec = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        psi = coordinate_wavefunction(spec, CoordinateGrid.square(-10.0, 10.0, 64))
        path = tmp_path / "wf2.csv"
        write_wavefunction(psi, path)
        assert main(["dist", str(path), "--kind", "wigner", "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("index", range(benchmark_inputs().GENERATOR["state_cases"]["1"]))
    def test_wigner_bytes_match_cubic_spline_on_benchmark_pool(self, tmp_path, capsys,
                                                               monkeypatch, index):
        # the numpy spline leaves every byte of `dist --kind wigner` as the
        # CubicSpline build wrote it: CSV, sidecar and stdout
        from qps import phasespace

        cubic_spline = pytest.importorskip("scipy.interpolate").CubicSpline
        inputs = benchmark_inputs()
        spec = inputs.write_spec(inputs.state_case(1, index), tmp_path / "spec.json")
        assert main(["state", "synth", str(spec), "--out", str(tmp_path)]) == 0
        argv = ["dist", str(tmp_path / "wavefunction.csv"),
                "--kind", "wigner", "--out", str(tmp_path / "dist")]
        written = []
        for spline in (phasespace._not_a_knot,
                       lambda x, y: cubic_spline(x, y, extrapolate=False)):
            monkeypatch.setattr(phasespace, "_not_a_knot", spline)
            capsys.readouterr()
            assert main(argv) == 0
            written.append([capsys.readouterr().out] + [
                (tmp_path / "dist" / name).read_bytes() for name in ("wigner.csv", "wigner.csv.json")])
        assert written[0] == written[1]


class TestVerify:
    def test_microstate_report(self, tmp_path, capsys):
        code = main(["verify", "microstate", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads((tmp_path / "report_microstate.json").read_text())
        assert report["suite"] == "microstate"
        rows = {c["name"]: c for c in report["checks"]}
        assert rows["integral_h"]["pass"]
        assert rows["integral_h"]["value"] == pytest.approx(2 * np.pi, rel=1e-3)
        assert "integral_h" in out

    def test_failing_tolerance_nonzero_exit(self, tmp_path):
        code = main(
            ["verify", "microstate", "--tol", "microstate=1e-18", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_flags_accepted_after_subcommand(self, tmp_path):
        code = main(["verify", "fock", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_fock.json").exists()

    def test_reports_are_deterministic(self, tmp_path):
        main(["verify", "closure", "--out", str(tmp_path / "a")])
        main(["verify", "closure", "--out", str(tmp_path / "b")])
        ra = json.loads((tmp_path / "a" / "report_closure.json").read_text())
        rb = json.loads((tmp_path / "b" / "report_closure.json").read_text())
        assert ra == rb

    def test_fock_suite_exports_matrices(self, tmp_path):
        code = main(["verify", "fock", "--out", str(tmp_path)])
        assert code == 0
        from qps.fock import read_matrix

        low = read_matrix(tmp_path / "fock_lowering.csv")
        assert np.allclose(np.diag(low, k=1).real, np.sqrt(np.arange(1, 4)))

    def test_gauge_suite_builds_one_analyzer_per_gauge(self, monkeypatch):
        # spec_zero's analyzer serves its phase wavefunction, the consistency
        # rows and the zero entry of the covariance rows
        from qps.phasespace import PhaseAnalyzer
        from qps.verify import run_suite

        built = []
        init = PhaseAnalyzer.__init__
        monkeypatch.setattr(PhaseAnalyzer, "__init__",
                            lambda self, family, *a: built.append(family.gauge.kind)
                            or init(self, family, *a))
        report = run_suite("gauge")
        assert built == ["zero", "full", "half"]
        assert [row["name"] for row in report["checks"]] == [
            "ccr_zero", "ccr_full", "ccr_half", "ccr_pairwise_agreement",
            "ptilde_modulus_gauge_invariance", "consistency_p", "consistency_x",
            "overlap_phase_zero_gauge"]
        assert all(row["pass"] for row in report["checks"])

    def test_all_suite_aggregates_and_passes(self, tmp_path):
        code = main(["verify", "all", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report_all.json").read_text())
        prefixes = {c["name"].split(".")[0] for c in report["checks"]}
        assert prefixes == {"uncertainty", "closure", "microstate", "fock", "gauge", "density"}


class TestEvolve:
    def test_full_period_roundtrip(self, tmp_path, capsys):
        from qps import (
            CoordinateGrid,
            FockVector,
            JointStateSpec,
            TruncatedBasis,
            coordinate_wavefunction,
            from_pure,
            grid_number_states,
            inner_product,
            read_density,
            write_density,
        )

        spec = JointStateSpec.from_covariance(X=[[0.5]])
        grid = CoordinateGrid.line()
        basis = TruncatedBasis((12,), spec)
        coh = coordinate_wavefunction(spec.displaced([0.0], [1.0]), grid)
        coeffs = np.array([inner_product(s, coh) for s in grid_number_states(basis, grid)])
        rho = from_pure(FockVector(basis, coeffs / np.linalg.norm(coeffs)))
        rho_path = tmp_path / "rho.csv"
        write_density(rho, rho_path)

        code = main([
            "evolve", str(rho_path), "--hamiltonian", "number_omega:1.0",
            "--t", str(2 * np.pi), "--snapshots", "2", "--out", str(tmp_path / "evo"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        drift = float(next(l.split()[1] for l in out.splitlines() if l.startswith("purity_drift")))
        assert drift <= 1e-10
        final = read_density(tmp_path / "evo" / "rho_0001.csv")
        assert np.abs(final.matrix - rho.matrix).max() < 1e-8

    def test_number_states_built_once(self, tmp_path, monkeypatch):
        import qps.fock

        calls = []
        build = qps.fock.grid_number_states
        monkeypatch.setattr(qps.fock, "grid_number_states",
                            lambda *a: calls.append(1) or build(*a))
        code = main(["evolve", str(write_rho(tmp_path)),
                     "--t", "1.0", "--snapshots", "4", "--husimi", "--out", str(tmp_path / "evo")])
        assert code == 0
        assert len(calls) == 1
        assert (tmp_path / "evo" / "husimi_0003.csv").exists()

    def test_analyzer_built_once(self, tmp_path, monkeypatch):
        from qps.phasespace import PhaseAnalyzer

        calls = []
        init = PhaseAnalyzer.__init__
        monkeypatch.setattr(PhaseAnalyzer, "__init__",
                            lambda self, *a: calls.append(1) or init(self, *a))
        code = main(["evolve", str(write_rho(tmp_path)),
                     "--t", "1.0", "--snapshots", "4", "--husimi", "--out", str(tmp_path / "evo")])
        assert code == 0
        assert len(calls) == 1
        assert (tmp_path / "evo" / "husimi_0003.csv").exists()

    @pytest.mark.parametrize("pgrid", [None, "-1:1:32,-1:1:32"])
    def test_husimi_normalization_min(self, tmp_path, capsys, pgrid):
        # only the coordinate grid is checked for coverage, so a phase grid
        # that misses most of the density shows up here, not in the exit code
        code = main(["evolve", str(write_rho(tmp_path)),
                     "--t", "1.0", "--snapshots", "2", "--husimi", "--out", str(tmp_path / "evo")]
                    + ([f"--pgrid={pgrid}"] if pgrid else []))
        out = capsys.readouterr().out
        assert code == 0
        mass = float(next(l.split()[1] for l in out.splitlines()
                          if l.startswith("husimi_normalization_min")))
        if pgrid is None:
            assert abs(mass - 1.0) <= 1e-6
        else:
            assert mass < 0.1

    def test_no_husimi_line_without_husimi(self, tmp_path, capsys):
        assert main(["evolve", str(write_rho(tmp_path)),
                     "--t", "1.0", "--out", str(tmp_path / "evo")]) == 0
        assert "husimi_normalization_min" not in capsys.readouterr().out

    def test_unknown_hamiltonian_exit_2(self, tmp_path):
        from qps import FockVector, JointStateSpec, TruncatedBasis, from_pure, write_density

        spec = JointStateSpec.from_covariance(X=[[0.5]])
        rho = from_pure(FockVector.unit(TruncatedBasis((4,), spec), 0))
        rho_path = tmp_path / "rho.csv"
        write_density(rho, rho_path)
        code = main(["evolve", str(rho_path),
                     "--hamiltonian", "kerr:1.0", "--t", "1.0", "--out", str(tmp_path)])
        assert code == 2


def write_rho(tmp_path, n_max=(4,)):
    from qps import FockVector, JointStateSpec, TruncatedBasis, from_pure, write_density

    spec = JointStateSpec.from_covariance(X=np.diag([0.5] * len(n_max)))
    basis = TruncatedBasis(n_max, spec)
    coeffs = np.arange(1.0, basis.dim + 1.0) * (1 - 0.5j)
    rho = from_pure(FockVector(basis, coeffs / np.linalg.norm(coeffs)))
    rho_path = tmp_path / "rho.csv"
    write_density(rho, rho_path)
    return rho_path


# the options each command reads; every other (command, option) pair exits 2
READS = {
    "state synth": {"--grid", "--out"},
    "dist": {"--gauge", "--pgrid", "--out", "--family-x"},
    "verify": {"--hbar", "--tol", "--out"},
    "evolve": {"--grid", "--pgrid", "--out"},
}
VALUES = {"--hbar": "2", "--gauge": "full", "--grid": "-12:12:128",
          "--pgrid": "-8:8:32,-8:8:32", "--tol": "closure=1e-3", "--family-x": "0.5"}
UNREAD = [(command, option) for command, reads in READS.items()
          for option in sorted(VALUES) if option not in reads]


def runnable(command, tmp_path, state) -> list:
    """An argv of `command`, less its --out, that exits 0."""
    return {"state synth": ["state", "synth", write_spec(tmp_path)],
            "dist": ["dist", str(state), "--kind", "husimi"],
            "verify": ["verify", "closure"],
            "evolve": ["evolve", str(write_rho(tmp_path)), "--t", "1.0"]}[command]


def reader_of(option, tmp_path, state) -> list:
    """`runnable` of the first command that reads `option`."""
    return runnable(next(c for c, reads in READS.items() if option in reads), tmp_path, state)


def command_parsers() -> tuple:
    """The main parser and each command's parser, by command name."""
    import argparse

    from qps.cli import build_parser

    def walk(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from [sub] if sub.get_default("run") else walk(sub)

    top = build_parser()
    return top, {sub.prog.removeprefix("qps "): sub for sub in walk(top)}


class TestDamagedInputs:
    """Damaged input files exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("damage", ["drop_last_row", "drop_column"])
    def test_damaged_wavefunction_exit_2(self, tmp_path, synth_state, capsys, damage):
        lines = synth_state.read_text().splitlines(keepends=True)
        if damage == "drop_last_row":
            lines = lines[:-1]
        else:
            lines = [line.rsplit(",", 1)[0] + "\n" for line in lines]
        synth_state.write_text("".join(lines))
        code = main(["dist", str(synth_state), "--kind", "husimi", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read wavefunction" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["reverse_rows", "relabel_x1"])
    def test_reordered_wavefunction_exit_2(self, tmp_path, synth_state, capsys, damage):
        header, *rows = synth_state.read_text().splitlines(keepends=True)
        if damage == "reverse_rows":   # a mirrored state, one row per grid point
            rows = rows[::-1]
        else:
            rows = ["999" + row[row.index(","):] for row in rows]
        synth_state.write_text(header + "".join(rows))
        code = main(["dist", str(synth_state), "--kind", "husimi", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read wavefunction: data row 1 has x1" in err and "Traceback" not in err
        assert not (tmp_path / "husimi.csv").exists()

    @pytest.mark.parametrize("damage", ["drop", "duplicate", "replace_with_duplicate"])
    def test_damaged_density_exit_2(self, tmp_path, capsys, damage):
        rho_path = write_rho(tmp_path)
        lines = rho_path.read_text().splitlines(keepends=True)
        if damage == "drop":
            del lines[7]
        elif damage == "duplicate":
            lines.append(lines[3])
        else:
            lines[7] = lines[3]
        rho_path.write_text("".join(lines))
        code = main(["evolve", str(rho_path), "--t", "1.0", "--out", str(tmp_path / "evo")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read matrix" in err and "Traceback" not in err

    @pytest.mark.parametrize("option", [
        ["--grid", "a:b:c"], ["--grid=-12:12:1e3"],
        ["--pgrid=-8:8:x,-8:8:128"], ["--pgrid=-8:8:128,nan:8:128"],
        ["--tol", "closure=abc"],
    ])
    def test_malformed_grid_or_tol_exit_2(self, tmp_path, synth_state, capsys, option):
        code = main([*reader_of(option[0].split("=")[0], tmp_path, synth_state), *option,
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("option", [
        ["--hamiltonian", "number_omega:abc"], ["--hamiltonian", "number_omega:nan"],
        ["--t", "nan"], ["--t", "inf"], ["--t=-inf"], ["--grid=-inf:12:1024"],
        ["--hamiltonian", "number_omega(1.0)"], ["--snapshots", "1001"],
    ])
    def test_bad_evolve_parameters_exit_2(self, tmp_path, capsys, option):
        rho_path = write_rho(tmp_path)
        code = main(["evolve", str(rho_path), "--t", "1.0",
                     *option, "--out", str(tmp_path / "evo")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "evo" / "rho_0000.csv").exists()

    def test_number_states_over_grid_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        import qps.fock

        rho_path = write_rho(tmp_path, n_max=(16,))
        monkeypatch.setattr(qps.fock, "coordinate_wavefunction", None)  # nothing is built
        code = main(["evolve", str(rho_path), "--t", "1.0", "--husimi",
                     "--grid=-12:12:2097152", "--out", str(tmp_path / "evo")])
        assert code == 2
        assert "16 number states on the grid are 33554432 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("line, value", [(2, "nan"), (5, "nan"), (2, "inf")])
    def test_nonfinite_density_entry_exit_2(self, tmp_path, capsys, line, value):
        # CSV line 2 is entry (0, 1) and line 5 is (1, 0) of the 4 x 4 matrix
        rho_path = write_rho(tmp_path)
        lines = rho_path.read_text().splitlines(keepends=True)
        row, col, _, im = lines[line].split(",")
        lines[line] = ",".join([row, col, value, im])
        rho_path.write_text("".join(lines))
        code = main(["evolve", str(rho_path), "--t", "1.0", "--out", str(tmp_path / "evo")])
        err = capsys.readouterr().err
        assert code == 2
        assert "non-finite" in err and "Traceback" not in err

    def test_mistyped_reference_gauge_exit_2(self, tmp_path, capsys):
        rho_path = write_rho(tmp_path)
        sidecar = tmp_path / "rho.csv.json"
        meta = json.loads(sidecar.read_text())
        meta["basis"]["reference"]["gauge"] = "zero"
        sidecar.write_text(json.dumps(meta))
        code = main(["evolve", str(rho_path), "--t", "1.0", "--out", str(tmp_path / "evo")])
        err = capsys.readouterr().err
        assert code == 2
        assert "gauge must be an object" in err and "Traceback" not in err

    def test_density_shape_checked_against_sidecar(self, tmp_path, capsys):
        rho_path = write_rho(tmp_path)
        sidecar = tmp_path / "rho.csv.json"
        meta = json.loads(sidecar.read_text())
        meta["basis"]["n_max"] = [5]
        sidecar.write_text(json.dumps(meta))
        code = main(["evolve", str(rho_path), "--t", "1.0", "--out", str(tmp_path / "evo")])
        assert code == 2
        assert "n_max [5] needs (5, 5)" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        ("axes", 0, "n_points", 1024.0), ("axes", 0, "x_min", "a"), ("signs", 1), ("hbar", None),
    ])
    def test_mistyped_wavefunction_sidecar_exit_2(self, tmp_path, synth_state, capsys, damage):
        sidecar = tmp_path / "wavefunction.csv.json"
        meta = json.loads(sidecar.read_text())
        *path, key, value = damage
        target = meta
        for step in path:
            target = target[step]
        if value is None:
            del target[key]
        else:
            target[key] = value
        sidecar.write_text(json.dumps(meta))
        code = main(["dist", str(synth_state), "--kind", "husimi", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read wavefunction" in err and "Traceback" not in err

    def test_swapped_signs_exit_2(self, tmp_path, capsys):
        # a Signature lists its +1 axes first; a state read with its signs
        # swapped would be analyzed against the mirrored metric
        spec = write_spec(tmp_path, signature={"d_plus": 1, "d_minus": 1},
                          mean_p=[-0.5, 0.3], mean_x=[0.0, 0.0],
                          P=np.diag([0.5, 0.5]).tolist(), X=np.diag([0.5, 0.5]).tolist(),
                          rho=np.zeros((2, 2)).tolist())
        assert main(["state", "synth", spec, "--out", str(tmp_path)]) == 0
        sidecar = tmp_path / "wavefunction.csv.json"
        meta = json.loads(sidecar.read_text())
        assert meta["signs"] == [1.0, -1.0]
        sidecar.write_text(json.dumps(dict(meta, signs=[-1.0, 1.0])))
        code = main(["dist", str(tmp_path / "wavefunction.csv"), "--kind", "husimi",
                     "--out", str(tmp_path / "dist")])
        err = capsys.readouterr().err
        assert code == 2
        assert "the +1 axes first" in err and "Traceback" not in err
        assert not (tmp_path / "dist").exists()

    @pytest.mark.parametrize("argv", [
        ["state", "synth", "missing.json"],
        ["dist", "missing.csv", "--kind", "husimi"],
        ["evolve", "missing.csv", "--t", "1.0"],
    ], ids=["state synth", "dist", "evolve"])
    def test_rejected_input_creates_no_out(self, tmp_path, monkeypatch, argv):
        # the --out directory is made at the first write, after the input is read
        monkeypatch.chdir(tmp_path)
        code, err = run_main([*argv, "--out", "newdir"])
        assert code == 2
        assert "cannot read" in err and "Traceback" not in err
        assert not (tmp_path / "newdir").exists()

    def test_unwritable_out_exit_2(self, tmp_path, synth_state):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, err = run_main(["dist", str(synth_state), "--kind", "husimi",
                              "--out", str(blocker / "sub")])
        assert code == 2
        assert "output directory is not writable" in err and "Traceback" not in err

    def test_density_n_max_over_budget_exit_2(self, tmp_path, capsys):
        rho_path = write_rho(tmp_path, n_max=(2, 2))
        sidecar = tmp_path / "rho.csv.json"
        meta = json.loads(sidecar.read_text())
        meta["basis"]["n_max"] = [2**32, 2**32]
        sidecar.write_text(json.dumps(meta))
        code = main(["evolve", str(rho_path), "--t", "1.0", "--out", str(tmp_path / "evo")])
        assert code == 2
        assert ("truncated dimension 18446744073709551616 makes matrices of "
                "340282366920938463463374607431768211456 entries, budget is 16777216"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("source", ["spec", "wavefunction sidecar", "option"])
    def test_huge_hbar_exit_2(self, tmp_path, synth_state, capsys, source):
        # hbar^2 of 1e308 overflows a Python float
        if source == "spec":
            argv = ["state", "synth", write_spec(tmp_path, "big.json", hbar=1e308)]
        elif source == "option":
            argv = ["verify", "density", "--hbar", "1e308"]
        else:
            sidecar = tmp_path / "wavefunction.csv.json"
            sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), hbar=1e308)))
            argv = ["dist", str(synth_state), "--kind", "husimi"]
        code = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "hbar must be in [1e-150, 1e+150], got 1e+308" in err and "Traceback" not in err

    @pytest.mark.parametrize("n_max", [16, [float("inf")], None, "4", [4.5]])
    def test_mistyped_density_sidecar_exit_2(self, tmp_path, capsys, n_max):
        rho_path = write_rho(tmp_path)
        sidecar = tmp_path / "rho.csv.json"
        meta = json.loads(sidecar.read_text())
        meta["basis"]["n_max"] = n_max
        sidecar.write_text(json.dumps(meta))
        code = main(["evolve", str(rho_path), "--t", "1.0", "--out", str(tmp_path / "evo")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


class TestGlobalOptions:
    @pytest.mark.parametrize("option", [
        ["--family-x", "0"], ["--family-x", "-0.5"], ["--family-x", "nan"],
        ["--family-x", "inf"], ["--hbar", "nan"], ["--hbar", "inf"], ["--hbar", "0"],
        ["--tol", "closure=nan"], ["--tol", "closure=inf"],
    ])
    def test_nonpositive_or_nonfinite_exit_2(self, tmp_path, synth_state, capsys, option):
        code = main([*reader_of(option[0], tmp_path, synth_state), *option,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("hbar", ["1e-151", "1e-320"])
    def test_tiny_hbar_exit_2(self, tmp_path, capsys, hbar):
        # below 1e-150, 1/hbar^2 overflows and hbar^2 underflows
        code = main(["verify", "fock", "--hbar", hbar, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"hbar must be in [1e-150, 1e+150], got {float(hbar)!r}" in err

    def test_unknown_tolerance_name_exit_2(self, tmp_path, capsys):
        code = main(["verify", "closure", "--tol", "clsoure=1e-30", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown tolerance 'clsoure'" in capsys.readouterr().err
        assert not (tmp_path / "report_closure.json").exists()

    def test_tolerance_defaults(self):
        from qps.verify import TOLERANCES

        assert TOLERANCES == {
            "saturation": 1e-6, "kennard": 1e-8, "closure": 1e-3, "microstate": 1e-3,
            "gram": 1e-6, "ccr": 1e-8, "gauge_pair": 1e-10, "consistency": 1e-3,
            "overlap": 1e-8, "purity": 1e-10,
        }

    @pytest.mark.parametrize("command, option", UNREAD)
    def test_unread_option_exit_2(self, tmp_path, synth_state, command, option):
        # at the parser, before any file is read or written
        out = tmp_path / "out"
        code, err = run_main([*runnable(command, tmp_path, synth_state),
                              f"{option}={VALUES[option]}", "--out", str(out)])
        assert code == 2
        assert f"unrecognized arguments: {option}=" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("option", sorted(set().union(*READS.values())))
    def test_option_before_command_exit_2(self, tmp_path, synth_state, option):
        before, out = tmp_path / "before", tmp_path / "out"
        value = before if option == "--out" else VALUES[option]
        code, err = run_main([f"{option}={value}", *reader_of(option, tmp_path, synth_state),
                              "--out", str(out)])
        assert code == 2
        assert f"unrecognized arguments: {option}=" in err and "Traceback" not in err
        assert not before.exists() and not out.exists()

    def test_shared_options_declared_once(self):
        """Each option string of cli.py is declared once, in one `add_argument`
        call or as one key of the option table; each command parser holds
        exactly the table options that list it, none with a default, and the
        main parser holds none."""
        import argparse

        import qps.cli

        tree = ast.parse(Path(qps.cli.__file__).read_text())
        declared = [arg.value for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "add_argument"
                    for arg in node.args if str(getattr(arg, "value", "")).startswith("-")]
        declared += [key.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["_OPTIONS"]
                     for key in node.value.keys]
        assert sorted(set(declared)) == sorted(declared)
        assert set(qps.cli._OPTIONS) <= set(declared)

        top, parsers = command_parsers()
        assert set(top._option_string_actions) == {"-h", "--help"}
        assert list(parsers) == ["state synth", "dist", "verify", "evolve"]
        for command, parser in parsers.items():
            table = {opt: action for opt, action in parser._option_string_actions.items()
                     if opt in qps.cli._OPTIONS}
            assert set(table) == READS[command], command
            assert all(action.default is argparse.SUPPRESS for action in table.values())

    def test_readme_lists_each_commands_options(self):
        """The README's table of the options each command reads is the parser's."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = readme.split("| command | options |\n| --- | --- |\n", 1)[1].split("\n\n")[0]
        listed = {}
        for row in rows.splitlines():
            command, options = row.strip("|").split("|")
            listed[command.strip(" `")] = {opt.strip(" `") for opt in options.split(",")}
        _, parsers = command_parsers()
        from qps.cli import _OPTIONS

        assert listed == {command: {opt for opt in parser._option_string_actions
                                    if opt in _OPTIONS}
                          for command, parser in parsers.items()}

    def test_family_x_is_used(self, tmp_path, synth_state):
        out = {}
        for label, extra in (("default", []), ("wide", ["--family-x", "2.0"])):
            assert main(["dist", str(synth_state),
                         "--kind", "phasewave", *extra, "--out", str(tmp_path / label)]) == 0
            out[label] = (tmp_path / label / "phasewave.csv").read_bytes()
        assert out["default"] != out["wide"]

    def test_qps_threads_set_before_numpy_loads(self, tmp_path):
        # `import qps.cli` loads no numpy: the first command that needs it does
        argv = ["state", "synth", write_spec(tmp_path), "--out", str(tmp_path)]
        probe = textwrap.dedent(f"""
            import os, sys
            seen = []
            def hook(event, args):
                if event == "import" and args[0] == "numpy" and not seen:
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.addaudithook(hook)
            from qps.cli import main
            assert main({argv!r}) == 0
            print(seen[0] if seen else "numpy was not imported")
        """)
        assert run_python(probe, QPS_THREADS="1").splitlines()[-1] == "1"

    def test_cli_import_loads_no_scipy(self, tmp_path):
        probe = "import sys, qps.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        assert run_python(probe) == "[]"
        # the number-state ladder roots eta X and the Wigner fixture splines
        # its wavefunction with numpy alone
        rho_path = write_rho(tmp_path)
        assert main(["state", "synth", write_spec(tmp_path), "--out", str(tmp_path / "state")]) == 0
        for argv in (["verify", "fock"], ["evolve", str(rho_path), "--t", "1.0", "--husimi"],
                     ["dist", str(tmp_path / "state" / "wavefunction.csv"), "--kind", "wigner"]):
            command = textwrap.dedent(f"""
                import sys
                from qps.cli import main
                assert main({[*argv, "--out", str(tmp_path / argv[0])]!r}) == 0
                print([m for m in sys.modules if m.split('.')[0] == 'scipy'])
            """)
            assert run_python(command).splitlines()[-1] == "[]", argv

    def test_src_imports_no_scipy(self):
        # scipy is a test-only dependency: the oracle of the numpy spline and sqrtm
        import qps

        stray = []
        for path in sorted(Path(qps.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    stray.append(f"{path.name}:{node.lineno}")
        assert stray == []


class TestImportGraph:
    """Each command loads only the modules it runs (`qps` and `qps.cli` load
    their submodules lazily), each in a fresh interpreter."""

    LAYERS = ("phasespace", "fock", "density", "psops", "verify")

    @staticmethod
    def loaded(argv) -> set:
        """numpy and the qps submodules loaded after `main(argv)`, which
        must exit 0 (or leave with SystemExit(0), as --help does)."""
        probe = textwrap.dedent(f"""
            import contextlib, io, sys
            from qps.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main({argv!r})
                except SystemExit as exc:
                    code = exc.code
            assert code == 0, code
            print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("qps.")))
        """)
        return set(ast.literal_eval(run_python(probe)))

    def test_cli_import_and_help_load_no_numpy(self):
        probe = "import sys, qps.cli; print(sorted(m for m in sys.modules if m[:4] in ('qps.', 'nump')))"
        assert ast.literal_eval(run_python(probe)) == ["qps.cli", "qps.errors", "qps.suites"]
        for argv in (["--help"], ["verify", "--help"]):
            assert "numpy" not in self.loaded(argv), argv

    def test_each_command_loads_only_its_layers(self, tmp_path):
        state = tmp_path / "state"
        out = ["--out", str(tmp_path / "out")]
        synth = self.loaded(["state", "synth", write_spec(tmp_path), "--out", str(state)])
        assert {f"qps.{m}" for m in self.LAYERS} & synth == set()
        assert {"numpy", "qps.states", "qps.grids", "qps.metric", "qps.io"} <= synth
        for kind in ("husimi", "wigner", "phasewave"):
            dist = self.loaded(["dist", str(state / "wavefunction.csv"), "--kind", kind, *out])
            assert {f"qps.{m}" for m in self.LAYERS} - dist == {
                "qps.fock", "qps.density", "qps.psops", "qps.verify"}, kind
        evolve = self.loaded(["evolve", str(write_rho(tmp_path)), "--t", "1.0", "--husimi", *out])
        assert {f"qps.{m}" for m in self.LAYERS} - evolve == {"qps.psops", "qps.verify"}

    @pytest.mark.parametrize("argv, golden", [
        (["--help"], "help_qps.txt"), (["verify", "--help"], "help_qps_verify.txt"),
        (["state", "synth", "--help"], "help_qps_state_synth.txt"),
        (["dist", "--help"], "help_qps_dist.txt"), (["evolve", "--help"], "help_qps_evolve.txt"),
    ])
    def test_help_text_unchanged(self, argv, golden):
        # each command's help lists exactly the options it reads
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=qps_src())
        run = subprocess.run([sys.executable, "-m", "qps.cli", *argv], env=env,
                             capture_output=True, timeout=60)
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == (Path(__file__).parent / "data" / golden).read_bytes()


def qps_src() -> str:
    """The directory that holds this checkout's qps package."""
    import qps

    return str(Path(qps.__file__).resolve().parents[1])


def run_python(probe, **env_vars):
    """Stdout of `python -c probe` with this checkout's qps on the path and
    no inherited thread caps."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(env_vars)
    src = qps_src()
    env["PYTHONPATH"] = os.pathsep.join([src] + [env["PYTHONPATH"]] * ("PYTHONPATH" in env))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


def _joined(sep, parts):
    return st.lists(parts, min_size=1, max_size=3).map(sep.join)


# arbitrary text, plus text shaped like each option so that its number
# fields (malformed, non-finite, huge) reach the parser
_FIELD = st.one_of(st.text(max_size=6), st.sampled_from(["nan", "-inf", "1e999", "0", "32"]),
                   st.from_regex(r"-?[0-9]{1,5}(\.[0-9]*)?(e-?[0-9]{1,3})?", fullmatch=True))
OPTION_TEXT = {
    "--grid": _joined(";", _joined(":", _FIELD)),
    "--pgrid": _joined(";", st.tuples(*[_joined(":", _FIELD)] * 2).map(",".join)),
    "--tol": st.tuples(st.text(max_size=8), _FIELD).map("=".join),
    "--hamiltonian": st.tuples(st.sampled_from(["number_omega", "kerr", ""]),
                               st.sampled_from([":", "(", ""]), _FIELD).map("".join),
}


def run_main(argv) -> tuple:
    """Exit code and stderr of `qps ARGV`, argparse usage errors included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, err.getvalue()


class TestOptionFuzz:
    """Arbitrary option text never escapes the exit-code contract.  The
    input file is missing, or (for --tol) the tolerance name is unknown, so
    every example stops right after parsing."""

    @pytest.mark.parametrize("option", sorted(OPTION_TEXT))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_option_text(self, fuzz_out, option, data):
        text = data.draw(st.one_of(st.text(), OPTION_TEXT[option]), label=option)
        command = {"--grid": ["state", "synth", "missing.json"],
                   "--pgrid": ["dist", "missing.csv", "--kind", "husimi"],
                   "--tol": ["verify", "closure"],
                   "--hamiltonian": ["evolve", "missing.csv", "--t", "1.0"]}[option]
        code, err = run_main([*command, f"{option}={text}", "--out", fuzz_out])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err


# decades across the accepted hbar range [1e-150, 1e150] and past both ends
_DECADE = st.integers(-330, 330).map("1e{}".format)
VERIFY_TEXT = {
    "--hbar": st.one_of(st.text(max_size=8), _FIELD, _DECADE, st.floats().map(repr)),
    "--tol": st.tuples(st.one_of(st.sampled_from(sorted(TOLERANCES)), st.text(max_size=8)),
                       st.one_of(_FIELD, _DECADE)).map("=".join),
}


class TestVerifyOptionFuzz:
    """`verify` keeps its exit-code contract for any --hbar or --tol value:
    0, 1 when a check fails, 2 for invalid input, and never a traceback.
    The fock and closure suites are the cheap ones (~0.1 s each)."""

    @pytest.mark.parametrize("suite", ["closure", "fock"])
    @pytest.mark.parametrize("option", sorted(VERIFY_TEXT))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_option_value(self, fuzz_out, suite, option, data):
        text = data.draw(VERIFY_TEXT[option], label=option)
        code, err = run_main(["verify", suite, f"{option}={text}", "--out", fuzz_out])
        event(f"exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err


@st.composite
def saturating_spec(draw):
    """Spec JSON with a random signature, SPD X and means, and P filled in by
    saturation.  Half the draws take rho = eta S X with S symmetric, which
    gives a symmetric exponent; the other half leave rho unconstrained.
    X <= 1 and |means| <= 1.5 keep each state 10 sigma inside the default
    +-12 grid: `state synth` asks for 6 sigma only, where the sampled state is
    cut at exp(-9) of its peak and z_eigencheck reads up to ~5e-4."""
    from qps.metric import Signature, saturating_moments

    d = draw(st.integers(1, 2), label="D")
    d_plus = draw(st.integers(0, d), label="d_plus")
    sig = Signature(d_plus, d - d_plus)
    entry = st.floats(-0.5, 0.5)
    widths = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=d, max_size=d)))
    corr = draw(st.floats(-0.6, 0.6)) if d == 2 else 0.0
    X = np.diag(widths) + corr * np.sqrt(widths.prod()) * (1.0 - np.eye(d))
    if draw(st.booleans(), label="rho = eta S X"):
        S = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d))).reshape(d, d)
        rho = sig.matrix() @ (S + S.T) @ X
    else:
        rho = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d))).reshape(d, d)
    means = draw(st.lists(st.floats(-1.5, 1.5), min_size=2 * d, max_size=2 * d))
    m = saturating_moments(X, rho, means[:d], means[d:], sig)
    gauge = draw(st.sampled_from(["zero", "full", "half"]))
    return {**m.to_dict(), "schema": 1, "hbar": 1.0,
            "signature": {"d_plus": sig.d_plus, "d_minus": sig.d_minus},
            "gauge": {"kind": gauge, "value": 0.0}}


class TestSpecFuzz:
    """Random saturating specs keep the exit-code contract, and every spec
    that `state synth` accepts is an eigenstate of z on its grid."""

    @settings(max_examples=30, deadline=None)
    @given(payload=saturating_spec())
    def test_accepted_specs_are_z_eigenstates(self, fuzz_out, payload):
        from qps import CoordinateGrid, JointStateSpec, z_eigencheck

        spec_path = Path(fuzz_out) / "spec.json"
        spec_path.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["state", "synth", str(spec_path), "--out", fuzz_out])
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            spec = JointStateSpec.from_dict(payload)
            grid = (CoordinateGrid.line(-12.0, 12.0, 1024) if spec.dim == 1
                    else CoordinateGrid.square(-12.0, 12.0, 256))
            assert z_eigencheck(spec, grid) < 1e-7


GRID, PGRID = "--grid=-12:12:128", "--pgrid=-8:8:32,-8:8:32"
# the command run on each damaged file, with the small grids that it reads;
# names of pristine files become paths
DAMAGE_TARGETS = {
    "spec.json": ["state", "synth", "spec.json", GRID],
    "wavefunction.csv": ["dist", "wavefunction.csv", "--kind", "husimi", PGRID],
    "wavefunction.csv.json": ["dist", "wavefunction.csv", "--kind", "phasewave", PGRID],
    "rho.csv": ["evolve", "rho.csv", "--t", "1.0", "--husimi", GRID, PGRID],
    "rho.csv.json": ["evolve", "rho.csv", "--t", "1.0", "--husimi", GRID, PGRID],
}


def run_on(workdir: Path, command) -> tuple:
    """Exit code and stderr of `command` run on the files in `workdir`; the
    stderr includes every warning raised, as a console run would print it."""
    argv = [str(workdir / a) if (workdir / a).is_file() else a for a in command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(workdir / "out")])
    shown = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
             for w in caught]
    return code, err.getvalue() + "".join(shown)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Bytes of a spec, the wavefunction `state synth` writes from it and a
    density file, each with its sidecar; every command accepts them."""
    src = tmp_path_factory.mktemp("pristine")
    write_spec(src)
    assert run_on(src, DAMAGE_TARGETS["spec.json"]) == (0, "")
    (src / "out" / "wavefunction.csv").replace(src / "wavefunction.csv")
    (src / "out" / "wavefunction.csv.json").replace(src / "wavefunction.csv.json")
    write_rho(src)
    for command in DAMAGE_TARGETS.values():
        assert run_on(src, command) == (0, "")
    return {name: (src / name).read_bytes() for name in DAMAGE_TARGETS}


JSON_VALUES = st.sampled_from([None, True, "x", "", -1, 0, 3, 1.5, 2**64, 1e308, [], {},
                               [1], [2, 2], {"x_min": 1}])
CSV_FIELDS = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "-0", "0x10", "1,2",
                              "3.5", "-1", "1e-300", "é"])


@st.composite
def damaged(draw, text: bytes, is_json: bool) -> bytes:
    """`text` truncated, with a line dropped, duplicated or swapped, a byte
    flipped, or one field or JSON value replaced by a mistyped one."""
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "swap", "flip", "mistype"]))
    event(kind)
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "flip":
        pos = draw(st.integers(0, len(text) - 1))
        return text[:pos] + bytes([text[pos] ^ draw(st.integers(1, 255))]) + text[pos + 1:]
    i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif is_json:
        payload = json.loads(text)
        node, key = payload, None
        while isinstance(node, (dict, list)) and node and (key is None or draw(st.booleans())):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = node[key]
        parent[key] = draw(JSON_VALUES)
        return json.dumps(payload, indent=2).encode()
    else:
        fields = lines[i].decode().rstrip("\n").split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(CSV_FIELDS)
        lines[i] = (",".join(fields) + "\n").encode()
    return b"".join(lines)


class TestDamagedFileFuzz:
    """Every damaged spec, wavefunction, density matrix or sidecar keeps the
    exit-code contract: 0, 2, 3 or 4 and never a traceback; a rejected file
    is reported by its error message alone, with no numpy warning."""

    @pytest.mark.parametrize("target", sorted(DAMAGE_TARGETS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_damaged_file(self, fuzz_out, pristine, target, data):
        workdir = Path(fuzz_out)
        for name, text in pristine.items():
            (workdir / name).write_bytes(text)
        (workdir / target).write_bytes(
            data.draw(damaged(pristine[target], target.endswith(".json")), label=target))
        code, err = run_on(workdir, DAMAGE_TARGETS[target])
        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 2:
            assert "Warning" not in err
