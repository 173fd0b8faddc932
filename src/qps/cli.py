"""Command-line front end.

    qps state synth SPEC.json      sample a joint state, write CSV + moments
    qps dist STATE.csv --kind K    phase-space distribution export
    qps verify SUITE               run a verification suite, JSON report
    qps evolve RHO.csv ...         unitary density-matrix evolution

Exit codes: 0 success, 2 invalid input, 3 grid coverage, 4 unsupported
combination.  QPS_THREADS caps the BLAS/OpenMP thread pools.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InvalidInputError, QpsError
from .suites import SUITES, TOLERANCES

# Each command imports the modules it runs, so `qps --help` loads no numpy
# and `state synth` none of the phase-space, number-state or verify layers.
if TYPE_CHECKING:
    from .grids import CoordinateGrid
    from .phasespace import PhaseGrid
    from .states import GaugeChoice, JointStateSpec

_FMT = "{:.12g}"
_MAX_SNAPSHOTS = 1000  # each snapshot writes files


@dataclass
class RunConfig:
    """The parsed options; each field is read by some command, and its
    default is the only default of its option."""

    hbar: float = 1.0
    gauge: GaugeChoice = "zero"  # a kind name, made a GaugeChoice when built
    grid: tuple = ((-12.0, 12.0, 1024),)
    pgrid: tuple = ((-8.0, 8.0, 128, -8.0, 8.0, 128),)
    out: Path = Path(".")
    tols: dict = field(default_factory=dict)
    family_x: float | None = None

    def __post_init__(self):
        from .states import GaugeChoice

        self.gauge = GaugeChoice(self.gauge)
        unknown = sorted(set(self.tols) - set(TOLERANCES))
        if unknown:
            raise InvalidInputError(f"unknown tolerance {unknown[0]!r}; known: "
                                    f"{', '.join(TOLERANCES)}")
        checked = [("hbar", self.hbar), ("family_x", self.family_x)]
        checked += [(f"tolerance {name}", val) for name, val in self.tols.items()]
        for name, val in checked:
            if val is not None and not (math.isfinite(val) and val > 0.0):
                raise InvalidInputError(f"{name} must be positive and finite")

    def coordinate_grid(self, ndim: int) -> CoordinateGrid:
        from .grids import CoordinateGrid, GridAxis

        axes = self.grid
        if len(axes) == 1 and ndim == 2:
            lo, hi, _ = axes[0]
            axes = ((lo, hi, 256), (lo, hi, 256))
        if len(axes) != ndim:
            raise InvalidInputError(f"--grid provides {len(axes)} axes, need {ndim}")
        return CoordinateGrid(axes=tuple(GridAxis(*a) for a in axes))

    def output(self, name: str) -> Path:
        """Path of an output file in --out, creating the directory at the first
        write, so that a command rejected on its input leaves none behind."""
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidInputError(f"output directory is not writable: {exc}") from exc
        return self.out / name

    def phase_grid(self, npairs: int) -> PhaseGrid:
        from .phasespace import PhaseGrid, PhasePair

        pairs = self.pgrid
        if len(pairs) == 1 and npairs == 2:
            # auto-duplicated two-pair grids use a coarser per-axis count to
            # keep the four-dimensional sample array desk-sized
            lo_p, hi_p, _, lo_x, hi_x, _ = pairs[0]
            pairs = ((lo_p, hi_p, 32, lo_x, hi_x, 32),) * 2
        if len(pairs) != npairs:
            raise InvalidInputError(f"--pgrid provides {len(pairs)} pairs, need {npairs}")
        return PhaseGrid(tuple(PhasePair(*p) for p in pairs))


def _number(text: str, what: str, kind=float):
    """One numeric field of an option value; malformed text is invalid input."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidInputError(f"{what} {text!r} is not a number") from None


def _parse_range(text: str, option: str, what: str) -> tuple:
    """One min:max:n field of --grid or --pgrid."""
    bits = text.split(":")
    if len(bits) != 3:
        raise InvalidInputError(f"{option} {what} {text!r} is not min:max:n")
    return (_number(bits[0], f"{option} min"), _number(bits[1], f"{option} max"),
            _number(bits[2], f"{option} n", int))


def _parse_grid(text: str) -> tuple:
    return tuple(_parse_range(part, "--grid", "axis") for part in text.split(";"))


def _parse_pgrid(text: str) -> tuple:
    pairs = []
    for part in text.split(";"):
        blocks = part.split(",")
        if len(blocks) != 2:
            raise InvalidInputError(f"--pgrid pair {part!r} is not pspec,xspec")
        pspec, xspec = (_parse_range(block, "--pgrid", "block") for block in blocks)
        pairs.append(pspec + xspec)
    return tuple(pairs)


def _parse_tols(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise InvalidInputError(f"--tol wants NAME=VALUE, got {item!r}")
        name, val = item.split("=", 1)
        out[name] = _number(val, f"--tol {name}")
    return out


# The option table: each option sets one RunConfig field (whose default is its only
# default), and only the commands that read it accept it, after the command.
_OPTIONS = {  # option: (RunConfig field, text -> field, add_argument settings, commands)
    "--hbar": ("hbar", float, dict(type=float), ("verify",)),
    "--gauge": ("gauge", str, dict(choices=("zero", "full", "half")), ("dist",)),
    "--grid": ("grid", _parse_grid, dict(help='coordinate grid "min:max:n[;min:max:n]"'),
               ("state synth", "evolve")),
    "--pgrid": ("pgrid", _parse_pgrid, dict(help='phase grid "pmin:pmax:np,xmin:xmax:nx[;...]"'),
                ("dist", "evolve")),
    "--out": ("out", Path, dict(help="output directory"),
              ("state synth", "dist", "verify", "evolve")),
    "--tol": ("tols", _parse_tols, dict(action="append", metavar="NAME=VAL",
                                        help="tolerance override (repeatable)"), ("verify",)),
    "--family-x": ("family_x", float, dict(type=float, help="coordinate variance of the "
                                           "analyzing family (default hbar/2)"), ("dist",)),
}


def _command(sub, name: str, text: str) -> argparse.ArgumentParser:
    """The parser of one command, holding the options of the table it reads."""
    parser = sub.add_parser(name, help=text)
    for option, (field, _, settings, commands) in _OPTIONS.items():
        if parser.prog.removeprefix("qps ") in commands:
            parser.add_argument(option, dest=field, default=argparse.SUPPRESS, **settings)
    return parser


def _config_from_args(args) -> RunConfig:
    """RunConfig of the options given; an option not given, or an empty
    --grid, --pgrid or --out, keeps RunConfig's default."""
    given = {field: parse(getattr(args, field)) for field, parse, _, _ in _OPTIONS.values()
             if getattr(args, field, "") != ""}
    return RunConfig(**given)


def _analyzing_family(cfg: RunConfig, psi) -> JointStateSpec:
    import numpy as np

    from .metric import Signature
    from .states import JointStateSpec

    sig = Signature(psi.signs.count(1.0), psi.signs.count(-1.0))
    width = cfg.family_x if cfg.family_x is not None else psi.hbar / 2.0
    return JointStateSpec.from_covariance(
        X=np.diag([width] * sig.dim), signature=sig, gauge=cfg.gauge, hbar=psi.hbar
    )


def cmd_state_synth(cfg: RunConfig, spec_file: str) -> int:
    from .grids import moments, write_wavefunction
    from .io import read_json, reading, write_json
    from .metric import check_saturation
    from .states import JointStateSpec, coordinate_wavefunction

    with reading("spec file"):
        payload = read_json(spec_file)
    spec = JointStateSpec.from_dict(payload)
    grid = cfg.coordinate_grid(spec.dim)
    psi = coordinate_wavefunction(spec, grid)
    measured = moments(psi)
    residual = check_saturation(measured, spec.signature, spec.hbar)

    wf_csv = cfg.output("wavefunction.csv")
    write_wavefunction(psi, wf_csv)
    report = measured.to_dict()
    report.update(
        schema=1,
        hbar=spec.hbar,
        gauge=spec.gauge.label,
        saturation_residual=residual,
        norm=psi.norm(),
    )
    write_json(cfg.output("moments.json"), report)
    print(f"wavefunction -> {wf_csv}")
    print(f"norm {_FMT.format(psi.norm())}")
    print(f"saturation_residual {_FMT.format(residual)}")
    return 0


def cmd_dist(cfg: RunConfig, state_file: str, kind: str) -> int:
    from .grids import read_wavefunction
    from .phasespace import (husimi_distribution, phase_wavefunction, wigner_distribution,
                             write_distribution)

    psi = read_wavefunction(state_file)
    family = _analyzing_family(cfg, psi)
    pgrid = cfg.phase_grid(psi.grid.ndim)
    gauge_label = family.gauge.label
    if kind == "husimi":
        dist = husimi_distribution(psi, family, pgrid)
    elif kind == "wigner":
        dist, gauge_label = wigner_distribution(psi, pgrid), None
    else:  # phasewave: argparse admits no other kind
        dist = phase_wavefunction(psi, family, pgrid)
    out = cfg.output(f"{kind}.csv")
    write_distribution(dist, out, gauge_label=gauge_label)
    print(f"distribution -> {out}")
    if kind == "phasewave":
        print(f"normalization {_FMT.format(dist.norm_squared())}")
    else:
        print(f"normalization {_FMT.format(dist.integral())}")
        print(f"minimum {_FMT.format(dist.minimum())}")
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    from . import verify as verify_mod
    from .io import write_json

    report = verify_mod.run_suite(suite, hbar=cfg.hbar, tols=cfg.tols)
    path = cfg.output(f"report_{suite}.json")
    write_json(path, report)
    if suite in ("fock", "all"):
        _export_fock_matrices(cfg)
    all_ok = True
    for row in report["checks"]:
        status = "pass" if row["pass"] else "FAIL"
        target = f" target {_FMT.format(row['target'])}" if "target" in row else ""
        print(
            f"[{status}] {row['name']}: value {_FMT.format(row['value'])} "
            f"bound {_FMT.format(row['bound'])}{target}"
        )
        all_ok = all_ok and row["pass"]
    print(f"report -> {path}")
    return 0 if all_ok else 1


def _export_fock_matrices(cfg: RunConfig):
    """Ladder matrices accompanying the fock report, as CSV."""
    from . import fock
    from .states import JointStateSpec

    spec = JointStateSpec.from_covariance(X=[[cfg.hbar / 2.0]], hbar=cfg.hbar)
    basis = fock.TruncatedBasis((4,), spec)
    lad = fock.build_ladder(basis)
    meta = {"n_max": list(basis.n_max), "hbar": cfg.hbar}
    for name, matrix in (("lowering", lad.lowering[0]),
                         ("raising", lad.raising[0]),
                         ("number", lad.number)):
        fock.write_matrix(matrix, cfg.output(f"fock_{name}.csv"), meta=dict(meta, kind=name))


def _parse_hamiltonian(text: str):
    text = text.strip()
    name, sep, value = text.partition(":")
    if not sep:
        raise InvalidInputError(f"hamiltonian {text!r} is not name:omega")
    if name != "number_omega":
        raise InvalidInputError(f"unknown hamiltonian {name!r}")
    omega = _number(value, "hamiltonian omega")
    if not math.isfinite(omega):
        raise InvalidInputError(f"hamiltonian omega {value!r} is not finite")
    return omega


def cmd_evolve(cfg: RunConfig, density_file: str, hamiltonian: str, t: float,
               snapshots: int, with_husimi: bool) -> int:
    from . import density as density_mod
    from . import fock
    from .phasespace import husimi_distribution, write_distribution

    if not 1 <= snapshots <= _MAX_SNAPSHOTS:
        raise InvalidInputError(f"need 1 to {_MAX_SNAPSHOTS} snapshots, got {snapshots}")
    if not math.isfinite(t):
        raise InvalidInputError(f"--t must be finite, got {t!r}")
    omega = _parse_hamiltonian(hamiltonian)
    rho = density_mod.read_density(density_file)
    hbar = rho.basis.reference.hbar
    H = density_mod.number_hamiltonian(rho.basis, omega, hbar)
    times = [t * (i + 1) / snapshots for i in range(snapshots)]
    purity0 = density_mod.purity(rho)
    drift = 0.0
    husimi_min = math.inf
    family = rho.basis.reference
    grid = cfg.coordinate_grid(family.dim)
    if with_husimi:
        # every snapshot expands rho_t in the same number states: build them once
        pgrid = cfg.phase_grid(family.dim)
        states = fock.grid_number_states(rho.basis, grid)
    for i, ti in enumerate(times):
        rho_t = density_mod.evolve_lvn(rho, H, ti, hbar)
        out = cfg.output(f"rho_{i:04d}.csv")
        density_mod.write_density(rho_t, out)
        drift = max(drift, abs(density_mod.purity(rho_t) - purity0))
        if with_husimi:
            hus = husimi_distribution(rho_t, family, pgrid, states)
            write_distribution(hus, cfg.output(f"husimi_{i:04d}.csv"),
                               gauge_label=family.gauge.label)
            husimi_min = min(husimi_min, hus.integral())
    print(f"snapshots {snapshots} -> {cfg.out}")
    print(f"purity_drift {_FMT.format(drift)}")
    if with_husimi:  # no coverage check for a density's phase grid: its mass shows a miss
        print(f"husimi_normalization_min {_FMT.format(husimi_min)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qps", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="state construction")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)
    p_synth = _command(state_sub, "synth", "sample a joint state from a JSON spec")
    p_synth.add_argument("spec_file")
    p_synth.set_defaults(run=lambda cfg, a: cmd_state_synth(cfg, a.spec_file))

    p_dist = _command(sub, "dist", "phase-space distribution export")
    p_dist.add_argument("state_file")
    p_dist.add_argument("--kind", choices=("husimi", "wigner", "phasewave"), required=True)
    p_dist.set_defaults(run=lambda cfg, a: cmd_dist(cfg, a.state_file, a.kind))

    p_verify = _command(sub, "verify", "run a verification suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    p_verify.set_defaults(run=lambda cfg, a: cmd_verify(cfg, a.suite))

    p_evolve = _command(sub, "evolve", "unitary density evolution")
    p_evolve.add_argument("density_file")
    p_evolve.add_argument("--hamiltonian", default="number_omega:1.0",
                          help="generator, e.g. number_omega:1.0")
    p_evolve.add_argument("--t", type=float, required=True)
    p_evolve.add_argument("--snapshots", type=int, default=1)
    p_evolve.add_argument("--husimi", action="store_true",
                          help="also export a Husimi snapshot per time")
    p_evolve.set_defaults(run=lambda cfg, a: cmd_evolve(
        cfg, a.density_file, a.hamiltonian, a.t, a.snapshots, a.husimi))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_config_from_args(args), args)
    except (QpsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
