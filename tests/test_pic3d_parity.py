"""3D feature-parity acceptance tests (the tentpole guarantees).

The 3D port's acceptance bar, enforced directly:

* ``numpy-mp`` — the 2D engine: gather, kick and push by particle
  range with flip commits, the deposit by corner ownership — is
  **bitwise identical** to ``numpy`` at 2, 4, 8 and 9 workers, and its
  planner re-cuts the cell ranges of a dispersing clump;
* the counting-sort permutation the shared sort applies equals the
  stable argsort the 3D stepper used to run;
* the differential-verify machinery covers 3D: the sampler emits 3D
  scenarios, the runner's 3D promise matrix pins the combos above, and
  the bisector localizes an injected 3D perturbation.
"""

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.kernels import wrap_for
from repro.pic3d import GridSpec3D, PICStepper3D, TwoStream3D
from repro.verify.configspace import Scenario, ScenarioSampler
from repro.verify.differ import DifferentialRunner, Perturbation
from tests.conftest import load_tool


def _grid(ncx=8, ncy=4, ncz=4):
    return GridSpec3D(ncx, ncy, ncz,
                      xmax=4 * np.pi, ymax=2 * np.pi, zmax=2 * np.pi)


def _config(**overrides):
    params = dict(
        ordering="morton", sort_period=3,
        backend="numpy",
    )
    params.update(overrides)
    return OptimizationConfig(**params)


def _assert_state_equal(a, b, context=""):
    for key in a.particles.keys():
        assert a.particles[key].tobytes() == b.particles[key].tobytes(), \
            (context, key)
    for name in ("rho_grid", "ex_grid", "ey_grid", "ez_grid"):
        assert np.asarray(getattr(a, name)).tobytes() == \
            np.asarray(getattr(b, name)).tobytes(), (context, name)


def _run_pair(cfg_a, cfg_b, n=1200, steps=6, grid=None):
    grid = grid or _grid()
    a = PICStepper3D(grid, TwoStream3D(), n, dt=0.1, config=cfg_a)
    b = PICStepper3D(grid, TwoStream3D(), n, dt=0.1, config=cfg_b)
    try:
        for step in range(steps):
            a.step()
            b.step()
            _assert_state_equal(a, b, context=f"step {step}")
    finally:
        a.close()
        b.close()


class _ClumpedPlasma3D:
    """A warm blob in one octant on a thin uniform background: the
    blob's cells hold most particles at t=0 and shed them as it
    disperses, so any cut of the cells made at t=0 goes stale."""

    def sample(self, n, grid, rng=None, quiet=False):
        rng = np.random.default_rng(11)
        lo = np.array([grid.xmin, grid.ymin, grid.zmin])
        lengths = np.array(grid.lengths)
        pos = rng.random((n, 3))
        blob = rng.random(n) < 0.7
        pos[blob] = 0.3 + 0.12 * rng.standard_normal((int(blob.sum()), 3))
        x, y, z = (lo + lengths * (pos % 1.0)).T
        vx, vy, vz = 3.0 * rng.standard_normal((3, n))
        return x, y, z, vx, vy, vz


class TestMpDepositParity:
    @pytest.mark.parametrize("workers", [2, 4, 8, 9])
    def test_mp_deposit_bitwise_vs_serial(self, workers):
        """The acceptance bar: numpy-mp == serial, 25 steps, on whole
        corner columns (2, 4, 8 workers) and on columns cut into two
        cell ranges (9)."""
        _run_pair(
            _config(backend="numpy"),
            _config(backend="numpy-mp", workers=workers),
            n=1500, steps=25,
        )

    def test_mp_bitwise_on_the_row_major_curve(self):
        """The workers rebuild the ordering from the engine's
        ``(name, extents, kwargs)`` spec: three extents resolve to the
        3D curves, here the one that is not the default."""
        _run_pair(
            _config(backend="numpy", ordering="row-major"),
            _config(backend="numpy-mp", workers=2, ordering="row-major"),
            n=1000, steps=5,
        )

    def test_mp_deposit_bitwise_curve_balanced_partition(self):
        """17 workers cut every column into three histogram-balanced
        ranges, whose boundaries sit off every power-of-two
        curve-block boundary."""
        _run_pair(
            _config(backend="numpy"),
            _config(backend="numpy-mp", workers=17),
            n=1000, steps=4,
        )

    def test_dispersing_clump_keeps_deposit_load_equal(self):
        """The PR 12 caveat, closed: a t=0 cell cut goes stale as a
        clump disperses (static cut, 4 workers: 2.16 after 6 steps on
        the 2D bump, 2.16 on this blob too), while corner columns weigh the same whatever the
        density does."""
        from repro.core.backends import get_backend
        from repro.parallel.partition import (
            balance_ratio, corner_tasks, partition_cells,
        )

        workers = 4
        st = PICStepper3D(
            _grid(8, 8, 8), _ClumpedPlasma3D(), 4000, dt=0.1,
            config=_config(backend="numpy-mp", workers=workers),
        )
        try:
            eng = get_backend("numpy-mp").engine_for(st)
            nalloc = st.fields.rho_1d.shape[0]
            assert eng.grid_shared.cell_ranges == [slice(0, nalloc)]
            hist0 = np.bincount(st.particles["icell"], minlength=nalloc)
            static_cut = partition_cells(nalloc, workers, hist0)
            assert balance_ratio(static_cut, hist0) < 1.2
            for _ in range(6):
                st.step()
            hist = np.bincount(st.particles["icell"], minlength=nalloc)
            assert balance_ratio(static_cut, hist) > 1.5  # the stale cut
            prefix = np.concatenate([[0], np.cumsum(hist)])
            loads = [
                sum((prefix[hi] - prefix[lo]) * len(corners)
                    for lo, hi, corners in groups)
                for groups in corner_tasks(eng.grid_shared.cell_ranges, 8, workers)
            ]
            assert loads == [2 * st.n] * workers
            assert st.timings.fallbacks == 0
        finally:
            st.close()

    def test_planner_repartitions_a_dispersing_clump(self):
        """Beyond 8 workers the columns are cut into cell ranges; as
        the blob disperses the planner moves the cut — bitwise equal to
        the serial run throughout."""
        from repro.core.backends import get_backend

        def build(**kw):
            return PICStepper3D(_grid(8, 8, 8), _ClumpedPlasma3D(), 4000,
                                dt=0.1, config=_config(**kw))

        ref, st = build(backend="numpy"), build(backend="numpy-mp", workers=9)
        try:
            eng = get_backend("numpy-mp").engine_for(st)
            assert len(eng.grid_shared.cell_ranges) == 2
            cut0 = list(eng.grid_shared.cell_ranges)
            # the engine's own cadence (every 10 deposits) is too slow
            # for a 25-step test to see more than two checks
            eng.planner.repartition_every = 2
            for step in range(25):
                ref.step()
                st.step()
                _assert_state_equal(ref, st, context=f"step {step}")
            assert len(eng.planner.events) >= 1
            assert eng.grid_shared.cell_ranges != cut0
            assert st.timings.fallbacks == 0
        finally:
            ref.close()
            st.close()

    def test_engine_runs_every_particle_loop_with_flip_commits(self):
        """All three particle loops run in the workers (each reports
        worker time), and a step commits by exchanging the front and
        back bindings of all ten columns."""
        from repro.parallel.shm import SharedParticleStorage

        st = PICStepper3D(_grid(), TwoStream3D(), 1200, dt=0.1,
                          config=_config(backend="numpy-mp", workers=2))
        try:
            eng = st.backend.engine_for(st)
            front, back = st.particles, eng.back
            assert isinstance(front, SharedParticleStorage) and front.ndim == 3
            was_front, was_back = dict(front), dict(back)
            st.step()
            assert st.particles is front and eng.back is back
            for key in front.keys():
                assert front[key] is was_back[key] and back[key] is was_front[key]
            for per in st.timings.worker_phases.values():
                assert min(per["update_v"], per["update_x"], per["accumulate"]) > 0
        finally:
            st.close()


def test_counting_sort_equals_stable_argsort_on_morton_3d():
    """What deleting the 3D stepper's private argsort rests on."""
    from repro.curves import MortonOrdering
    from repro.particles import counting_sort_permutation

    rng = np.random.default_rng(3)
    ordering = MortonOrdering(16, 8, 4)
    icell = ordering.encode(*(rng.integers(0, nc, 50_000) for nc in (16, 8, 4)))
    perm = counting_sort_permutation(icell, ordering.ncells_allocated)
    assert np.array_equal(perm, np.argsort(icell, kind="stable"))


def _scenario_3d(**overrides) -> Scenario:
    params = dict(
        index=0, ncx=8, ncy=4, n_particles=1200, n_steps=5,
        case_name="two-stream", ordering="morton",
        sort_period=2,
        seed=1, dims=3, ncz=4,
    )
    params.update(overrides)
    return Scenario(**params)


class TestDiffer3D:
    def test_sampler_emits_legal_3d_scenarios(self):
        samples = ScenarioSampler(seed=5).sample(40)
        three_d = [s for s in samples if s.dims == 3]
        assert three_d, "the dims axis must produce 3D scenarios"
        for s in three_d:
            grid = s.grid()
            assert isinstance(grid, GridSpec3D)
            assert wrap_for(grid.shape) == "bitwise"
            assert s.case_name in ("landau", "two-stream")
            assert s.case() is not None
            assert "3d" in s.label()

    def test_3d_promise_matrix_pins_mp_at_2_and_4_workers(self):
        runner = DifferentialRunner(include_mp=True)
        combos = runner.combos(_scenario_3d())
        mp = [(c.workers, rel) for c, rel in combos if c.backend == "numpy-mp"]
        assert (2, "bitwise") in mp and (4, "bitwise") in mp

    def test_3d_scenario_passes_promise_matrix(self):
        runner = DifferentialRunner(include_mp=False)
        report = runner.run_scenario(_scenario_3d())
        assert report.ok, report.describe()
        assert report.sort_permutation_ok is True

    def test_3d_bisection_localizes_injection(self):
        runner = DifferentialRunner(include_mp=False)
        report = runner.run_scenario(
            _scenario_3d(sort_period=0),
            perturbation=Perturbation(step=1, phase="accumulate",
                                      array="dz", factor=1.0 + 1e-9),
        )
        bad = [p for p in report.pairs if not p.ok]
        assert bad, "3D perturbation must be detected"
        assert all(p.divergence.step == 1 for p in bad)
        assert all(p.divergence.phase == "accumulate" for p in bad)

    @pytest.mark.verify_full
    def test_3d_promise_matrix_with_mp(self):
        runner = DifferentialRunner(include_mp=True)
        report = runner.run_scenario(_scenario_3d(n_particles=2000))
        assert report.ok, report.describe()


def test_dimension_ratchet_is_green():
    """``tools/check_imports.py``: no dimension-suffixed definition
    outside its written-down allow-list, none at all (nor a ``2d``/
    ``3d`` string) in the store, the engine and the differ."""
    mod = load_tool("check_imports")
    assert mod.check_dimension_ratchet() == []
    executor = mod.SRC / "repro" / "parallel" / "executor.py"
    assert mod.dimension_names(executor, strings=True) == []
    backends = mod.SRC / "repro" / "core" / "backends.py"
    flagged = mod.dimension_names(backends, strings=True)
    assert {name for _line, _kind, name in flagged} == {
        "interpolate_redundant_3d", "accumulate_redundant_3d",
        "push_positions_3d",
    }
