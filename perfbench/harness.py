"""Runs qps CLI commands in fresh processes and checks what they produce.

Each command runs through entry.py in its own process, with a fresh output
directory that is deleted after its checks.  A command fails when it exits
non-zero, prints a traceback, or fails an output check; the checks compare
the outputs with the values recorded in reference.json.
"""

import functools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs

HERE = Path(__file__).resolve().parent
ENTRY = HERE / "entry.py"
REFERENCE = HERE / "reference.json"
COMMAND_TIMEOUT_S = 120.0
# Agreement with the recorded values.  Outputs carry 12 significant digits;
# the tolerances leave room for round-off from a reordered sum (and for
# residuals that sit at round-off level, ~1e-13) and for nothing more.
REL_TOL = 1e-9
ABS_TOL = 1e-11


class Runner:
    """Spawns `python3 entry.py ARGV` from the checkout root, one at a time."""

    def __init__(self, root: Path, env: dict, work: Path):
        self.root = root
        self.env = env
        self.work = work
        self.argvs = []

    def spawn(self, argv, spans: Path | None = None) -> dict:
        """Run one command to completion; wall time spans spawn to exit."""
        self.argvs.append(argv)
        env = self.env if spans is None else dict(self.env, PERFBENCH_SPANS=str(spans))
        with open(self.work / "stdout.txt", "w+b") as out, \
                open(self.work / "stderr.txt", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(ENTRY)] + argv, cwd=self.root,
                                    env=env, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode(errors="replace")
            stderr = err.read().decode(errors="replace")
        return {
            "argv": argv,
            "rc": proc.returncode,
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,   # Linux reports KiB
            "stdout": stdout,
            "stderr": stderr,
        }


def rel(root: Path, path: Path) -> str:
    return os.path.relpath(path, root)


def printed_values(stdout: str) -> dict:
    """`name value` lines of the CLI output, as floats."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def csv_summary(path: Path) -> dict:
    """Size in bytes, row count, and sum, sum |v|, sum v^2, min and max of
    every column."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = [[float(c.sum()), float(np.abs(c).sum()), float((c * c).sum()),
             float(c.min()), float(c.max())] for c in data.T]
    return {"bytes": path.stat().st_size, "rows": int(data.shape[0]), "columns": cols}


def expected_rows(sidecar: Path) -> int:
    """Grid size named by a JSON sidecar of a qps CSV export."""
    meta = json.loads(sidecar.read_text())
    if "pairs" in meta:
        return math.prod(p["n_p"] * p["n_x"] for p in meta["pairs"])
    if "axes" in meta:
        return math.prod(a["n_points"] for a in meta["axes"])
    return math.prod(meta["shape"])


def check_csv(path: Path, errors: list) -> dict | None:
    """Summary of one export, after checking its rows against its sidecar."""
    try:
        summary = csv_summary(path)
        want = expected_rows(Path(f"{path}.json"))
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"{path.name}: unreadable: {exc}")
        return None
    if summary["rows"] != want:
        errors.append(f"{path.name}: {summary['rows']} rows, sidecar grid has {want}")
    return summary


def merge_summaries(parts: list) -> dict:
    """One summary for a series of same-layout files (evolve snapshots)."""
    cols = [list(c) for c in parts[0]["columns"]]
    for part in parts[1:]:
        for c, p in zip(cols, part["columns"]):
            c[0] += p[0]
            c[1] += p[1]
            c[2] += p[2]
            c[3] = min(c[3], p[3])
            c[4] = max(c[4], p[4])
    return {"bytes": sum(p["bytes"] for p in parts), "rows": sum(p["rows"] for p in parts),
            "columns": cols}


def compare(got, ref, path: str, errors: list, scale=None):
    """Recursive comparison; numbers agree to REL_TOL * scale + ABS_TOL, where
    scale defaults to |ref|."""
    if isinstance(ref, dict):
        # outputs may gain fields; every recorded one must still be there
        if not isinstance(got, dict) or not set(ref) <= set(got):
            errors.append(f"{path}: fields missing from the output")
            return
        if "columns" in ref:
            compare_csv(got, ref, path, errors)
            return
        for k in ref:
            compare(got[k], ref[k], f"{path}.{k}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            errors.append(f"{path}: length differs from the reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{path}[{i}]", errors, scale)
    elif isinstance(ref, float):
        tol = REL_TOL * (abs(ref) if scale is None else scale) + ABS_TOL
        if not abs(got - ref) <= tol:
            errors.append(f"{path}: {got!r} != reference {ref!r}")
    elif got != ref:
        errors.append(f"{path}: {got!r} != reference {ref!r}")


def compare_csv(got: dict, ref: dict, path: str, errors: list):
    """Column sums are compared on the scale of the column's sum of |v|.  The
    byte size pins the 12-digit text format; a last-digit change moves it by
    a few bytes at most."""
    if got["rows"] != ref["rows"] or len(got["columns"]) != len(ref["columns"]):
        errors.append(f"{path}: layout differs from the reference")
        return
    if abs(got["bytes"] - ref["bytes"]) > 1e-4 * ref["bytes"]:
        errors.append(f"{path}: {got['bytes']} bytes, reference has {ref['bytes']}")
    for i, (g, r) in enumerate(zip(got["columns"], ref["columns"])):
        scales = [r[1], r[1], r[2], max(abs(r[3]), abs(r[4])), max(abs(r[3]), abs(r[4]))]
        for name, gv, rv, sc in zip(("sum", "sum_abs", "sum_sq", "min", "max"), g, r, scales):
            compare(gv, rv, f"{path}.col{i}.{name}", errors, sc)


def check_synth(res: dict, out: Path, errors: list) -> dict:
    vals = printed_values(res["stdout"])
    if abs(vals.get("norm", math.nan) - 1.0) > 1e-9:
        errors.append(f"norm {vals.get('norm')} is not 1")
    if not vals.get("saturation_residual", math.nan) <= 1e-9:
        errors.append(f"saturation_residual {vals.get('saturation_residual')} > 1e-9")
    moments = json.loads((out / "moments.json").read_text())
    return {"printed": vals, "moments": moments,
            "wavefunction": check_csv(out / "wavefunction.csv", errors)}


def check_dist(res: dict, out: Path, errors: list, kind: str) -> dict:
    vals = printed_values(res["stdout"])
    if abs(vals.get("normalization", math.nan) - 1.0) > 1e-3:
        errors.append(f"normalization {vals.get('normalization')} is not near 1")
    if kind == "husimi" and not vals.get("minimum", math.nan) >= 0.0:
        errors.append(f"Husimi minimum {vals.get('minimum')} < 0")
    return {"printed": vals, "export": check_csv(out / f"{kind}.csv", errors)}


def check_verify(res: dict, out: Path, errors: list) -> dict:
    report = json.loads((out / "report_all.json").read_text())
    rows = report["checks"]
    for row in rows:
        if not row["pass"]:
            errors.append(f"verify row {row['name']} fails: value {row['value']} "
                          f"bound {row['bound']}")
    fock = {name: check_csv(out / f"fock_{name}.csv", errors)
            for name in ("lowering", "raising", "number")}
    return {"rows": {r["name"]: [float(r["value"]), float(r["bound"])] for r in rows},
            "fock": fock}


def check_evolve(res: dict, out: Path, errors: list, snapshots: int) -> dict:
    vals = printed_values(res["stdout"])
    if not vals.get("purity_drift", math.nan) <= 1e-12:
        errors.append(f"purity_drift {vals.get('purity_drift')} is not at round-off")
    rho, hus = [], []
    for i in range(snapshots):
        rho.append(check_csv(out / f"rho_{i:04d}.csv", errors))
        hus.append(check_csv(out / f"husimi_{i:04d}.csv", errors))
    if None in rho or None in hus:
        return {}
    rho, hus = merge_summaries(rho), merge_summaries(hus)
    lo, hi = hus["columns"][-1][3], hus["columns"][-1][4]
    if lo < -1e-12 * hi:
        errors.append(f"Husimi snapshot minimum {lo} < 0")
    return {"printed": vals, "rho": rho, "husimi": hus}


def command_errors(res: dict) -> list:
    errors = []
    if res["rc"] != 0:
        errors.append(f"exit code {res['rc']}")
    if "Traceback (most recent call last)" in res["stderr"]:
        errors.append("traceback on stderr")
    return errors


class Session:
    """Runs pool cases and checks every command against the reference.

    With `recording` set, summaries are stored in it instead of compared.
    """

    def __init__(self, runner: Runner, reference: dict | None, recording: dict | None = None):
        self.runner = runner
        self.reference = reference
        self.recording = recording

    def command(self, cls: str, key: str, argv, out: Path, check, spans: Path | None):
        res = self.runner.spawn(argv, spans)
        res["cls"] = cls
        res["key"] = key
        errors = command_errors(res)
        if not errors:
            try:
                summary = check(res, out, errors)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errors.append(f"outputs unreadable: {exc!r}")
                summary = None
            if summary is not None and not errors:
                if self.recording is not None:
                    self.recording[key] = summary
                elif self.reference is None or key not in self.reference:
                    errors.append(f"no reference recorded for {key}")
                else:
                    compare(summary, self.reference[key], key, errors)
        if spans is not None:
            try:
                res["spans"] = json.loads(spans.read_text())
            except (OSError, ValueError) as exc:
                errors.append(f"no spans written: {exc}")
        res["errors"] = errors
        res.pop("stdout")
        res.pop("stderr")
        return res

    def run_case(self, case: dict, traced: bool) -> list:
        """Every command of one pool case, each against a fresh output directory."""
        root = self.runner.root
        d = self.runner.work / case["id"]
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        results = []

        def spans(tag):
            return d / f"spans-{tag}.json" if traced else None

        try:
            if "hbar" in case:
                out = d / "out"
                argv = ["verify", "all", "--hbar", repr(case["hbar"]), "--out", rel(root, out)]
                results.append(self.command("verify", f"{case['id']}/verify", argv, out,
                                            check_verify, spans("verify")))
            elif "spec" in case:
                spec = inputs.write_spec(case, d / "spec.json")
                synth = d / "synth"
                argv = ["state", "synth", rel(root, spec), "--out", rel(root, synth)]
                results.append(self.command("synth", f"{case['id']}/synth", argv, synth,
                                            check_synth, spans("synth")))
                for kind in case["kinds"]:
                    out = d / f"dist-{kind}"
                    argv = ["dist", rel(root, synth / "wavefunction.csv"), "--kind", kind,
                            "--out", rel(root, out)]
                    results.append(self.command(
                        f"dist_{case['npairs']}pair", f"{case['id']}/dist-{kind}", argv, out,
                        functools.partial(check_dist, kind=kind), spans(kind)))
                    shutil.rmtree(out, ignore_errors=True)
            else:
                rho = inputs.write_density(case, d / "rho.csv")
                out = d / "out"
                argv = ["evolve", rel(root, rho),
                        "--hamiltonian", f"number_omega:{case['omega']!r}",
                        "--t", repr(case["t"]), "--snapshots", str(case["snapshots"]),
                        "--husimi", "--out", rel(root, out)]
                npairs = len(case["n_max"])
                results.append(self.command(
                    f"evolve_{npairs}pair", f"{case['id']}/evolve", argv, out,
                    functools.partial(check_evolve, snapshots=case["snapshots"]),
                    spans("evolve")))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return results


def load_reference() -> dict | None:
    try:
        return json.loads(REFERENCE.read_text())["outputs"]
    except (OSError, ValueError, KeyError):
        return None
