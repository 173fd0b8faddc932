"""Benchmark of the qps CLI: end-to-end metrics and, traced, per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify-all, phase-export, density-evolve, or all (the three in turn).
Run from anywhere; the checkout root is the parent of this directory, and the
program is built from its src/ (PYTHONPATH=src, nothing is installed).

Each workload is a closed loop with one client: commands run one after
another, each in a fresh process.  A round is one pass over the workload's
command sequence for the cases the seed draws; rounds repeat until S seconds
are used.  With --trace 0 the end-to-end metrics are measured untraced.  With
--trace 1 the rounds alternate untraced and traced on the same inputs, the
traced commands record spans (spans.py), and the per-layer metrics plus
trace.overhead_s (traced minus untraced round time) are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it holds the machine and provenance block.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import harness
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".perfbench_work"
SETUP_SPAWNS = 5

# Why each workload is in the benchmark; see README.md for the layers each
# one exercises and bypasses.
WORKLOADS = {
    "verify-all": "compute-bound small kernels; writes almost nothing, so it bypasses CSV export",
    "phase-export": "write-bound: CSV export dominates two-pair dist; bypasses analyzer changes",
    "density-evolve": "density-source Husimi per snapshot, rebuilt from identical inputs each time",
}

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
LAYER_UNITS = {name: unit for name, unit, *_ in spans.PER_LAYER}
COMMANDS = ["verify_s", "synth_s", "dist_1pair_s", "dist_2pair_s",
            "evolve_1pair_s", "evolve_2pair_s"]


def pick_cases(workload: str, rng, pool: dict) -> list:
    """The pool cases of one round."""
    def one(kind):
        return pool[kind][int(rng.integers(len(pool[kind])))]

    if workload == "verify-all":
        return [one("verify")]
    if workload == "phase-export":
        return [one("state1"), one("state2")]
    return [one("rho16"), one("rho3x3")]


# One BLAS/OpenMP thread per command.  qps.cli reads QPS_THREADS only after
# the qps package has imported numpy, too late for OpenBLAS, so the variables
# it would set are set here as well.  One thread is the single-threaded
# baseline, and on a shared 2-vCPU host it drifted less with the load on the
# other vCPU (see README.md).
QPS_THREADS = 1
THREAD_VARS = ("QPS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(QPS_THREADS) for var in THREAD_VARS})
    return env


def require_source():
    """Exit 2 without a result unless the checkout holds the qps sources."""
    if not (ROOT / "src" / "qps" / "cli.py").is_file():
        print(f"error: no qps sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def machine_block() -> dict:
    """Machine and build provenance recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qps").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": _cache_sizes(),
        "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: QPS_THREADS for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


@contextlib.contextmanager
def work_dir(tag: str):
    """A scratch directory inside the checkout, removed on exit."""
    work = ROOT / WORK_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                                    # another run still uses it


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up timing, then rounds until `seconds` are used; every command checked."""
    with work_dir(workload) as work:
        runner = harness.Runner(ROOT, child_env(), work)
        session = harness.Session(runner, harness.load_reference())
        setup = []
        for _ in range(1 + SETUP_SPAWNS):        # the first spawn warms caches
            res = runner.spawn(["--help"])
            res["errors"] = harness.command_errors(res)
            if not res.pop("stdout").startswith("usage: qps"):
                res["errors"].append("--help printed no usage")
            res.pop("stderr")
            setup.append(res)

        rng = np.random.default_rng(seed)
        pool = inputs.pool()
        rounds = []
        t0 = time.perf_counter()
        iterations = 0
        while True:
            cases = pick_cases(workload, rng, pool)
            order = [False]
            if trace:   # a traced round on the same cases, second and first in turn
                order = [False, True] if iterations % 2 == 0 else [True, False]
            for traced in order:
                results = [r for case in cases for r in session.run_case(case, traced)]
                rounds.append({"traced": traced, "cases": [c["id"] for c in cases],
                               "results": results})
            iterations += 1
            elapsed = time.perf_counter() - t0
            if elapsed + 0.5 * elapsed / iterations > seconds:
                break
    return {"workload": workload, "seed": seed, "setup": setup, "rounds": rounds,
            "argv": runner.argvs}


def round_wall(rnd: dict) -> float:
    return sum(r["wall_s"] for r in rnd["results"])


def summarize(run: dict, trace: bool) -> dict:
    """Metrics of one workload run, each with unit and sample count."""
    ops = run["setup"] + [r for rnd in run["rounds"] for r in rnd["results"]]
    failed = [r for r in ops if r["errors"]]
    plain = [rnd for rnd in run["rounds"] if not rnd["traced"]]
    plain_results = [r for rnd in plain for r in rnd["results"]]
    metrics = {}

    def put(name, values, unit, stat=statistics.median):
        if values:
            metrics[name] = {"value": stat(values), "unit": unit, "n": len(values)}

    put("run_s", [round_wall(rnd) for rnd in plain], "s")
    put("setup_s", [r["wall_s"] for r in run["setup"][1:]], "s")
    put("peak_rss_mb", [r["rss_mb"] for r in plain_results], "MiB", max)
    metrics["error_rate"] = {"value": len(failed) / len(ops), "unit": "ratio", "n": len(ops)}
    for name in COMMANDS:
        cls = name[:-2]
        put(name, [r["wall_s"] for r in plain_results if r["cls"] == cls], "s")
    layers = None
    if trace:
        traced = [rnd for rnd in run["rounds"] if rnd["traced"]]
        span_sets = [r["spans"] for rnd in traced for r in rnd["results"] if "spans" in r]
        layers = spans.layer_metrics(span_sets, len(traced))
        pairs = []
        for a, b in zip(run["rounds"][0::2], run["rounds"][1::2]):
            t, u = (a, b) if a["traced"] else (b, a)
            pairs.append(round_wall(t) - round_wall(u))
        layers["trace.overhead_s"] = statistics.median(pairs)
    return {"metrics": metrics, "layers": layers, "attempted": len(ops), "failed": failed}


def report(workload: str, summary: dict, trace: bool):
    """Human-readable lines: every metric by name, with unit and sample count."""
    print(f"== {workload}")
    for name, m in summary["metrics"].items():
        print(f"  {name:16s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
    if trace:
        for name, value in summary["layers"].items():
            print(f"  {name:48s} {value:14.6g} {LAYER_UNITS[name]}")
    for r in summary["failed"][:10]:
        print(f"  FAILED {' '.join(r['argv'])}: {'; '.join(r['errors'][:3])}", file=sys.stderr)


def result_metrics(summary: dict, trace: bool) -> dict:
    """The metrics named in BENCHMARK.json: end-to-end untraced, per-layer traced."""
    if trace:
        return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in summary["layers"].items()}
    return {name: {"value": summary["metrics"][name]["value"], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    trace = bool(args.trace)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    provenance = {"machine": machine_block(), "seed": args.seed, "seconds": args.seconds,
                  "trace": trace, "generator": inputs.GENERATOR, "workloads": {}}
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, trace)
        summary = summarize(run, trace)
        report(workload, summary, trace)
        attempted += summary["attempted"]
        failed += len(summary["failed"])
        provenance["workloads"][workload] = {
            "why": WORKLOADS[workload],
            "cases": [rnd["cases"] for rnd in run["rounds"]],
            "argv": run["argv"],
            "metrics": summary["metrics"],
        }
        for name, m in result_metrics(summary, trace).items():
            metrics[name if len(workloads) == 1 else f"{workload}.{name}"] = m

    print(json.dumps({"provenance": provenance}))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
