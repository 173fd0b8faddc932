import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qps
from qps import (
    CoordinateGrid,
    CoverageError,
    GridAxis,
    GridWavefunction,
    InvalidInputError,
    JointStateSpec,
    Signature,
    apply_momentum,
    apply_position,
    coordinate_wavefunction,
    inner_product,
    inverse_momentum_transform,
    moments,
    momentum_transform,
    read_wavefunction,
    write_wavefunction,
)
from conftest import random_correlated_spec


def gaussian(grid, x0=0.0, p0=0.0, X=0.5, hbar=1.0):
    spec = JointStateSpec.from_covariance(X=[[X]], mean_p=[p0], mean_x=[x0], hbar=hbar)
    return coordinate_wavefunction(spec, grid)


class TestGridTypes:
    def test_power_of_two_required(self):
        with pytest.raises(InvalidInputError):
            GridAxis(-1.0, 1.0, 1000)

    def test_ordering_required(self):
        with pytest.raises(InvalidInputError):
            GridAxis(1.0, -1.0, 64)

    def test_budget(self):
        with pytest.raises(InvalidInputError):
            CoordinateGrid(axes=((-1, 1, 2**13), (-1, 1, 2**13)))

    def test_three_axes_within_budget(self):
        # the sample budget is the only size rule: 256^3 = 2^24 points fit,
        # 512 x 256 x 256 do not, and the rejection allocates no samples
        assert CoordinateGrid(axes=((-1, 1, 256),) * 3).shape == (256, 256, 256)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="budget"):
                CoordinateGrid(axes=((-1, 1, 512), (-1, 1, 256), (-1, 1, 256)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(InvalidInputError, match="at least one axis"):
            CoordinateGrid(axes=())

    def test_spacing_uniform(self):
        ax = GridAxis(-12.0, 12.0, 1024)
        pts = ax.points()
        assert ax.spacing == pytest.approx(24.0 / 1024)
        assert np.allclose(np.diff(pts), ax.spacing)

    def test_values_shape_checked(self, line_grid):
        with pytest.raises(InvalidInputError):
            GridWavefunction(line_grid, np.zeros(8))


class TestMomentumTransform:
    def test_gaussian_width_pair(self, line_grid):
        psi = gaussian(line_grid, X=0.5)
        phi = momentum_transform(psi)
        m = moments(phi)
        # widths trade as hbar^2/(4 sigma_x^2)
        assert m.X[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_narrow_state_broad_transform_parseval(self, line_grid):
        psi = gaussian(line_grid, X=0.01)
        phi = momentum_transform(psi)
        assert phi.norm() == pytest.approx(1.0, abs=1e-12)
        assert moments(phi).X[0, 0] == pytest.approx(25.0, rel=1e-8)

    def test_round_trip(self, line_grid, rng):
        spec = random_correlated_spec(rng)
        psi = coordinate_wavefunction(spec, line_grid)
        back = inverse_momentum_transform(momentum_transform(psi), line_grid)
        assert np.abs(back.values - psi.values).max() < 1e-10

    def test_unitarity_random_states(self, line_grid, rng):
        for _ in range(100):
            spec = random_correlated_spec(rng)
            psi = coordinate_wavefunction(spec, line_grid)
            assert abs(momentum_transform(psi).norm() - psi.norm()) < 1e-12

    def test_coarse_grid_rejected(self):
        grid = CoordinateGrid.line(-12.0, 12.0, 64)
        # sigma_p ~ 11 > Nyquist/6; coordinate_wavefunction refuses to
        # sample such a state, so the aliased samples are built directly
        x = grid.axis_points(0)
        psi = GridWavefunction(grid, (2 * np.pi * 0.002) ** -0.25 * np.exp(-x**2 / 0.008))
        with pytest.raises(CoverageError):
            momentum_transform(psi)

    def test_coverage_edges_are_inclusive(self):
        from qps.grids import check_coverage

        check_coverage(["axis"], [(-2.0, 4.0)], [1.0], [3.0])  # exactly [-2, 4]: covered
        for lo, hi in [(-1.5, 4.0), (-2.0, 3.5)]:
            with pytest.raises(CoverageError, match=r"axis \[.*\] does not cover \[-2, 4\]"):
                check_coverage(["axis"], [(lo, hi)], [1.0], [3.0])


class TestOperators:
    def test_momentum_mean_of_modulated_gaussian(self, line_grid):
        psi = gaussian(line_grid, p0=1.7)
        pv = apply_momentum(psi, 0)
        mean = np.real(inner_product(psi, pv))
        assert mean == pytest.approx(1.7, abs=1e-10)

    def test_even_real_state_zero_momentum(self, line_grid):
        psi = gaussian(line_grid)
        mean = np.real(inner_product(psi, apply_momentum(psi, 0)))
        assert abs(mean) < 1e-12

    def test_canonical_commutator(self, line_grid, rng):
        for _ in range(20):
            spec = random_correlated_spec(rng)
            psi = coordinate_wavefunction(spec, line_grid)
            px = inner_product(psi, apply_momentum(apply_position(psi, 0), 0))
            xp = inner_product(psi, apply_position(apply_momentum(psi, 0), 0))
            # [p, x] = -i hbar on a spatial axis
            assert abs((px - xp) - (-1j)) < 1e-8

    def test_plus_axis_commutator(self, line_grid):
        spec = JointStateSpec.from_covariance(X=[[0.5]], signature=Signature(1, 0))
        psi = coordinate_wavefunction(spec, line_grid)
        px = inner_product(psi, apply_momentum(apply_position(psi, 0), 0))
        xp = inner_product(psi, apply_position(apply_momentum(psi, 0), 0))
        assert abs((px - xp) - 1j) < 1e-8

    def test_axis_out_of_range(self, line_grid):
        psi = gaussian(line_grid)
        with pytest.raises(InvalidInputError):
            apply_momentum(psi, 1)


def reference_moments(psi):
    """The quadrature of `moments` with all 3 D state-sized images kept at
    once: the value reference for the streamed form."""
    from qps.grids import along

    d, dvol = psi.grid.ndim, psi.grid.cell_volume
    prob = np.abs(psi.values) ** 2 * dvol
    xs = [along(psi.grid.axis_points(mu), mu, d) for mu in range(d)]
    mean_x = np.array([float((x * prob).sum()) for x in xs])
    centered_x = [(x - m) * psi.values for x, m in zip(xs, mean_x)]
    p_psi = [apply_momentum(psi, mu).values for mu in range(d)]
    mean_p = np.array(
        [float(np.real(np.sum(np.conj(psi.values) * p_psi[mu]) * dvol)) for mu in range(d)]
    )
    centered_p = [p_psi[mu] - mean_p[mu] * psi.values for mu in range(d)]
    X, P, rho = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    for mu in range(d):
        for nu in range(d):
            X[mu, nu] = float(np.real(np.sum(np.conj(centered_x[mu]) * centered_x[nu]) * dvol))
            P[mu, nu] = float(np.real(np.sum(np.conj(centered_p[mu]) * centered_p[nu]) * dvol))
            rho[mu, nu] = float(np.real(np.sum(np.conj(centered_p[mu]) * centered_x[nu]) * dvol))
    return mean_p, mean_x, 0.5 * (P + P.T), 0.5 * (X + X.T), rho


def skewed_state(axes):
    """A displaced, correlated Gaussian with unequal widths on the given axes."""
    d = len(axes)
    spec = JointStateSpec.from_covariance(
        X=np.diag([0.5, 0.7, 0.6][:d]), rho=np.diag([0.2, -0.1, 0.1][:d]),
        mean_x=[0.3, -0.2, 0.1][:d], mean_p=[0.2, 0.4, -0.3][:d])
    return coordinate_wavefunction(spec, CoordinateGrid(axes))


class TestMoments:
    @pytest.mark.parametrize("axes", [
        ((-12.0, 12.0, 1024),),
        ((-12.0, 12.0, 128), (-10.0, 10.0, 64)),
        ((-8.0, 8.0, 32),) * 3,
    ], ids=["D1", "D2", "D3"])
    def test_streamed_images_keep_every_bit(self, axes):
        psi = skewed_state(axes)
        m = moments(psi)
        got = (m.mean_p, m.mean_x, m.P, m.X, m.rho)
        for a, b in zip(got, reference_moments(psi)):
            assert np.array_equal(a, b)

    def test_three_axis_peak_memory(self):
        # D centred momentum images plus a few working arrays, not 3 D images
        psi = skewed_state(((-8.0, 8.0, 64),) * 3)
        tracemalloc.start()
        try:
            moments(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * psi.values.nbytes

    def test_construction_parameters_recovered(self, line_grid):
        psi = gaussian(line_grid, x0=1.0, p0=0.0, X=0.5)
        m = moments(psi)
        assert m.mean_x[0] == pytest.approx(1.0, abs=1e-8)
        assert m.mean_p[0] == pytest.approx(0.0, abs=1e-8)
        assert m.X[0, 0] == pytest.approx(0.5, abs=1e-8)
        assert m.P[0, 0] == pytest.approx(0.5, abs=1e-8)
        assert abs(m.rho[0, 0]) < 1e-8

    def test_even_real_state_uncorrelated(self, line_grid):
        m = moments(gaussian(line_grid, X=0.8))
        assert abs(m.rho[0, 0]) < 1e-10

    def test_kennard_bound_random_states(self, wide_grid, rng):
        from qps.verify import _random_states

        for psi in _random_states(rng, wide_grid, 1.0, 100):
            m = moments(psi)
            assert np.sqrt(m.X[0, 0] * m.P[0, 0]) >= 0.5 - 1e-8

    def test_determinant_floor_random_states(self, wide_grid, rng):
        # the covariance determinant P X - rho^2 never dips below hbar^2/4
        from qps.verify import _random_states

        for psi in _random_states(rng, wide_grid, 1.0, 100):
            m = moments(psi)
            assert m.P[0, 0] * m.X[0, 0] - m.rho[0, 0] ** 2 >= 0.25 - 1e-8

    def test_cross_axis_commutators_vanish(self):
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        spec = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.8]), mean_x=[0.3, -0.2], mean_p=[0.5, 0.1]
        )
        psi = coordinate_wavefunction(spec, grid)
        for mu, nu in ((0, 1), (1, 0)):
            px = inner_product(psi, apply_momentum(apply_position(psi, nu), mu))
            xp = inner_product(psi, apply_position(apply_momentum(psi, mu), nu))
            assert abs(px - xp) < 1e-8
        pp = inner_product(psi, apply_momentum(apply_momentum(psi, 1), 0))
        pp2 = inner_product(psi, apply_momentum(apply_momentum(psi, 0), 1))
        assert abs(pp - pp2) < 1e-8

    def test_requires_normalization(self, line_grid):
        psi = gaussian(line_grid)
        with pytest.raises(InvalidInputError):
            moments(psi.with_values(2.0 * psi.values))

    def test_refinement_stability(self, rng):
        coarse = CoordinateGrid.line(-12.0, 12.0, 1024)
        fine = CoordinateGrid.line(-12.0, 12.0, 2048)
        spec = random_correlated_spec(rng)
        mc = moments(coordinate_wavefunction(spec, coarse))
        mf = moments(coordinate_wavefunction(spec, fine))
        for a, b in ((mc.X, mf.X), (mc.P, mf.P), (mc.rho, mf.rho)):
            assert np.abs(a - b).max() < 1e-6

    def test_two_axis_moments(self):
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        spec = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.8]), mean_x=[0.5, -0.25]
        )
        m = moments(coordinate_wavefunction(spec, grid))
        assert np.allclose(m.mean_x, [0.5, -0.25], atol=1e-8)
        assert np.allclose(m.X, np.diag([0.5, 0.8]), atol=1e-8)
        assert np.allclose(m.P, np.diag([0.5, 0.3125]), atol=1e-8)


class TestInnerProduct:
    def test_self_inner_product_is_one(self, line_grid):
        psi = gaussian(line_grid)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_hermite_pair(self, line_grid, ground_spec):
        from qps import TruncatedBasis, grid_number_states

        states = grid_number_states(TruncatedBasis((2,), ground_spec), line_grid)
        assert abs(inner_product(states[0], states[1])) < 1e-10

    def test_swap_conjugates(self, line_grid):
        a = gaussian(line_grid, x0=0.4, p0=0.7)
        b = gaussian(line_grid, x0=-0.3, p0=0.2)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_grid_mismatch(self, line_grid):
        other = CoordinateGrid.line(-12.0, 12.0, 512)
        with pytest.raises(InvalidInputError):
            inner_product(gaussian(line_grid), gaussian(other))


class TestIo:
    def test_csv_round_trip(self, tmp_path, line_grid, rng):
        spec = random_correlated_spec(rng)
        psi = coordinate_wavefunction(spec, line_grid)
        path = tmp_path / "wf.csv"
        write_wavefunction(psi, path)
        back = read_wavefunction(path)
        assert back.grid == psi.grid
        assert back.hbar == psi.hbar
        assert np.abs(back.values - psi.values).max() < 1e-11

    def test_two_axis_round_trip(self, tmp_path):
        grid = CoordinateGrid.square(-10.0, 10.0, 64)
        spec = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        psi = coordinate_wavefunction(spec, grid)
        path = tmp_path / "wf2.csv"
        write_wavefunction(psi, path)
        back = read_wavefunction(path)
        assert np.abs(back.values - psi.values).max() < 1e-11

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_wavefunction(tmp_path / "nope.csv")


class TestGridBudgets:
    def test_axis_product_does_not_overflow(self):
        from qps import PhaseGrid

        with pytest.raises(InvalidInputError, match="budget"):
            CoordinateGrid(((0.0, 1.0, 2**40), (0.0, 1.0, 2**40)))
        with pytest.raises(InvalidInputError, match="budget"):
            PhaseGrid(((0.0, 1.0, 2**31, 0.0, 1.0, 2**31),) * 2)

    @pytest.mark.parametrize("bounds", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0),
                                        (-1e308, 1e308)])
    def test_non_finite_ranges_rejected(self, bounds):
        from qps import PhasePair

        with pytest.raises(InvalidInputError):
            GridAxis(*bounds, 64)
        with pytest.raises(InvalidInputError):
            PhasePair(*bounds, 32, -1.0, 1.0, 32)



def test_coverage_and_budget_decided_only_in_grids():
    """`CoverageError` is built only in `grids.check_coverage`, and
    `SAMPLE_BUDGET` is compared only in `grids.check_budget`; no other
    module names a `*_BUDGET`.  Likewise a Hermitian defect `M - M.conj().T`
    is compared only in `metric.check_hermitian`, a weight sum `w.sum() - 1.0`
    only in `metric.check_weights`, and nothing is compared with the literal
    16, so no rung cap of a number family returns.  The budget is also the
    only size rule: no comparison sets an integer literal above 1 against an
    axis or pair count (`len(axes)`, `len(pairs)`, `ndim`, `npairs`) or a
    `PhasePair` point count (`n_p`, `n_x`), except the CLI's one copy rule,
    `_per_axis`, that duplicates a single `--grid` or `--pgrid` spec for two
    axes or pairs.  A saturation residual is compared with a
    `*_SATURATION_TOL` only in `JointStateSpec.__post_init__`, so a spec
    has one saturation gate.
    The suite names `SUITES` and the tolerance table `TOLERANCES` are each
    assigned once, in `suites`, and the phase-grid coverage rule
    `_check_phase_coverage` is named (imported or called) only in `phasespace`."""

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    def is_call_of(node, method):
        return isinstance(node, ast.Call) and name(node.func) == method

    def is_count(node):
        if is_call_of(node, "len") and node.args:
            return str(name(node.args[0])).endswith(("axes", "pairs"))
        return name(node) in ("ndim", "npairs", "n_p", "n_x")

    def is_size_cap(a, b):
        return is_count(a) and isinstance(b, ast.Constant) and type(b.value) is int and b.value > 1

    def compared(node):
        """The rule a comparison decides, if it is one with a single owner."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub):
                if name(sub.right) == "T" and is_call_of(sub.right.value, "conj"):
                    return "hermitian defect"
                if is_call_of(sub.left, "sum") and getattr(sub.right, "value", None) == 1.0:
                    return "weight sum"
        operands = [node.left, *node.comparators]
        if any(str(name(op)).endswith("_SATURATION_TOL") for op in operands):
            return "saturation"
        if "SAMPLE_BUDGET" in map(name, operands):
            return "SAMPLE_BUDGET"
        if any(is_size_cap(a, b) or is_size_cap(b, a) for a, b in zip(operands, operands[1:])):
            return "size cap"
        if any(isinstance(op, ast.Constant) and op.value == 16 for op in operands):
            return "16-rung cap"
        return None

    found = set()
    assigned = []  # (module, table) of every assignment to SUITES or TOLERANCES
    for path in sorted(Path(qps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # node -> innermost enclosing function (ast.walk is breadth-first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.Lambda)):
                owner.update((id(n), getattr(func, "name", "<lambda>")) for n in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name(node.func) == "CoverageError" or (
                    isinstance(node, ast.Raise) and name(node.exc) == "CoverageError"):
                found.add((path.name, owner.get(id(node)), "CoverageError"))
            elif isinstance(node, ast.Compare) and compared(node):
                found.add((path.name, owner.get(id(node)), compared(node)))
            elif path.name != "grids.py" and str(name(node)).endswith("_BUDGET"):
                found.add((path.name, owner.get(id(node)), "*_BUDGET"))
            elif path.name != "phasespace.py" and "_check_phase_coverage" in (
                    name(node), getattr(node, "name", None)):
                found.add((path.name, owner.get(id(node)), "_check_phase_coverage"))
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(path.name, sub.id) for target in targets for sub in ast.walk(target)
                             if isinstance(sub, ast.Name) and sub.id in ("SUITES", "TOLERANCES")]
    assert found == {("grids.py", "check_coverage", "CoverageError"),
                     ("grids.py", "check_budget", "SAMPLE_BUDGET"),
                     ("metric.py", "check_hermitian", "hermitian defect"),
                     ("metric.py", "check_weights", "weight sum"),
                     ("states.py", "__post_init__", "saturation"),
                     ("cli.py", "_per_axis", "size cap")}
    assert sorted(assigned) == [("suites.py", "SUITES"), ("suites.py", "TOLERANCES")]


def test_number_family_uses_no_spectral_derivative():
    """`fock` raises number states by multiplication alone: it names no FFT,
    `spectral_derivative`, `apply_momentum` or `apply_z`."""
    tree = ast.parse((Path(qps.__file__).parent / "fock.py").read_text())
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(tree)}
    assert not names & {"fft", "ifft", "spectral_derivative", "apply_momentum", "apply_z"}


def test_gauge_set_only_on_the_spec():
    """The gauge of an analysis is the one its family carries: the only
    function in `src/qps` with a parameter named `gauge` is
    `JointStateSpec.from_covariance`, and `psops` never names `GaugeChoice`,
    so its operators and CCR can read no gauge but `pw.family.gauge`."""
    takes_gauge = set()
    psops_names_gauge_choice = []  # line numbers
    for path in sorted(Path(qps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # function node -> enclosing class name
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update((id(n), cls.name) for n in cls.body)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                if "gauge" in [p.arg for p in params if p is not None]:
                    takes_gauge.add((path.name, owner.get(id(node)),
                                     getattr(node, "name", "<lambda>")))
            if path.name == "psops.py" and "GaugeChoice" in (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None)):
                psops_names_gauge_choice.append(node.lineno)
    assert takes_gauge == {("states.py", "JointStateSpec", "from_covariance")}
    assert psops_names_gauge_choice == []


def test_gauge_factor_built_in_one_place():
    """exp(-i sum K) on a phase grid has one owner: in `src/qps` a gauge's
    `phase` is called only by `phasespace._gauge_factor` and by
    `JointStateSpec.gauge_phase` (the spec's own K), so no analyzer table
    reads a gauge."""
    callers = set()
    for path in sorted(Path(qps.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef):
                calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
                if any(getattr(call.func, "attr", None) == "phase" for call in calls):
                    callers.add((path.name, func.name))
    assert callers == {("phasespace.py", "_gauge_factor"), ("states.py", "gauge_phase")}


def _functions(path):
    """(name, node) of each function defined in a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(f.name, f) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]


def test_saturating_P_written_once():
    """The saturation identity P = (hbar^2/4) eta X^-1 eta + rho X^-1 rho^T
    is written once: `rho @ x_inv @ rho.T` is computed only in
    `metric._saturating_P`, which `saturating_moments` and `check_saturation`
    both call."""
    writers = set()
    for path in sorted(Path(qps.__file__).parent.glob("*.py")):
        for fname, func in _functions(path):
            for node in ast.walk(func):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                        and isinstance(node.left, ast.BinOp)
                        and isinstance(node.left.op, ast.MatMult)
                        and isinstance(node.right, ast.Attribute) and node.right.attr == "T"
                        and ast.unparse(node.left.left) == ast.unparse(node.right.value)):
                    writers.add((path.name, fname))
    assert writers == {("metric.py", "_saturating_P")}


def test_gauge_kind_is_one_scale():
    """`GaugeChoice` keeps no alias constructor, and its `phase` and
    `phase_slope` read the kind's scale from one table: they compare no kind
    string and no `kind` attribute."""
    from qps.states import GaugeChoice

    assert [a for a in ("zero", "full", "half") if hasattr(GaugeChoice, a)] == []
    methods = {name: func for name, func in _functions(Path(qps.__file__).parent / "states.py")
               if name in ("phase", "phase_slope")}
    assert sorted(methods) == ["phase", "phase_slope"]
    kind_tests = [(name, node.lineno) for name, func in methods.items()
                  for node in ast.walk(func) if isinstance(node, ast.Compare)
                  and any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                          or getattr(sub, "attr", None) == "kind" for sub in ast.walk(node))]
    assert kind_tests == []


def test_hbar_compared_exactly():
    """Two hbars agree only when they are equal: no comparison in `src/qps`
    puts a tolerance on a difference of hbars."""

    def is_hbar(node):
        return "hbar" in ast.unparse(node)

    loose = []
    for path in sorted(Path(qps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                loose += [(path.name, node.lineno) for sub in ast.walk(node)
                          if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                          and is_hbar(sub.left) and is_hbar(sub.right)]
    assert loose == []


def test_signs_list_read_in_one_place():
    """`Signature` is the one representation of metric signs: a sampled state
    carries one (no float tuple of signs), and only `grids.read_wavefunction`
    turns a +-1 list, the sidecar's "signs", into a `Signature`."""
    import dataclasses

    assert "signs" not in {field.name for field in dataclasses.fields(GridWavefunction)}
    readers = set()
    for path in sorted(Path(qps.__file__).parent.glob("*.py")):
        for fname, func in _functions(path):
            for node in ast.walk(func):
                counts_signs = (isinstance(node, ast.Call) and "Signature" in ast.unparse(node.func)
                                and any(getattr(getattr(arg, "func", None), "attr", None) == "count"
                                        for arg in node.args))
                reads_signs = (isinstance(node, ast.Subscript)
                               and getattr(node.slice, "value", None) == "signs")
                if counts_signs or reads_signs:
                    readers.add((path.name, fname))
    assert readers == {("grids.py", "read_wavefunction")}


def test_every_public_name_resolves_through_exports():
    """`qps.__all__` is the lazy `_EXPORTS` table, and each name it lists is
    defined in the module that table names, so no stale entry survives."""
    import importlib

    assert qps.__all__ == [n for names in qps._EXPORTS.values() for n in names]
    for name in qps.__all__:
        home = importlib.import_module(f"qps.{qps._HOME[name]}")
        assert name in vars(home), name
        assert getattr(qps, name) is vars(home)[name]


# Public definitions that no command, verify row or script reaches, kept
# because tests check other code against them (qualified name: reason).
ORACLES = {
    "grids.momentum_transform": "brute-force dual-grid transform, the momentum oracle",
    "grids.inverse_momentum_transform": "its inverse, for the unitarity round trip",
    "states.momentum_wavefunction": "closed form the dual-grid transform is checked against",
    "states.z_eigencheck": "grid residual of the joint state's z eigenvalue equation",
    "fock.FockVector.unit": "the basis vectors the density and Robertson tests start from",
}


def test_every_public_definition_is_reached():
    """Each public top-level name, each public method (of any class) and
    each annotated field of a public class in `src/qps` is referenced outside
    its own definition, in `src/qps` or `scripts/`, or is a test oracle in
    ORACLES; a `verify.suite_<name>` is reached through `SUITES`.  A
    top-level name counts by name or attribute (`psops.consistency_check`),
    a method by attribute only, a field by an attribute load only (so a
    record field that is set but never read is flagged).  Every ORACLES
    entry names a definition that nothing else reaches."""
    from qps.suites import SUITES

    package = Path(qps.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py")) + sorted(scripts.glob("*.py"))}
    by_name, by_attr, by_load = {}, {}, {}  # name -> ids of the nodes that reference it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                by_name.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                by_attr.setdefault(node.attr, set()).add(id(node))
                if isinstance(node.ctx, ast.Load):
                    by_load.setdefault(node.attr, set()).add(id(node))

    def public(name):
        return not name.startswith("_")

    defs = []  # (qualified name, referencing node ids, definition node, file)
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in tree.body:
            names = [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
                t.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                if isinstance(t, ast.Name)]
            for name in filter(public, names):
                refs = by_name.get(name, set()) | by_attr.get(name, set())
                defs.append((f"{path.stem}.{name}", refs, node, path))
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and public(method.name):
                        defs.append((f"{path.stem}.{node.name}.{method.name}",
                                     by_attr.get(method.name, set()), method, path))
                    elif (isinstance(method, ast.AnnAssign) and isinstance(method.target, ast.Name)
                          and public(node.name)):
                        field = method.target.id
                        defs.append((f"{path.stem}.{node.name}.{field}",
                                     by_load.get(field, set()), method, path))
    reached, unreached = set(), []
    for qualname, refs, node, path in defs:
        own = {id(n) for n in ast.walk(node)}
        if refs - own or qualname in {f"verify.suite_{s}" for s in SUITES}:
            reached.add(qualname)
        elif qualname not in ORACLES:
            unreached.append(f"{path.name}:{node.lineno} {qualname}")
    assert unreached == [], unreached
    defined = {qualname for qualname, *_ in defs}
    stale = sorted(name for name in ORACLES if name not in defined or name in reached)
    assert stale == [], f"ORACLES entries that are gone or reached: {stale}"


def test_every_error_class_is_raised():
    """Each exception class of `qps.errors` other than the base `QpsError` is
    raised (`raise Name(...)` or `raise Name`) somewhere in `src/qps`."""
    import inspect

    import qps.errors

    classes = {name for name, obj in vars(qps.errors).items()
               if inspect.isclass(obj) and issubclass(obj, qps.errors.QpsError)}
    raised = set()
    for path in Path(qps.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    assert classes - {"QpsError"} <= raised, sorted(classes - {"QpsError"} - raised)
