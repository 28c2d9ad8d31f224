"""Stepper tests: construction, invariants, config equivalence."""

import numpy as np
import pytest

from repro.core import OptimizationConfig, PICStepper
from repro.grid import GridSpec, RedundantFields
from repro.model.config import ModelConfig
from repro.particles import (
    LandauDamping,
    ParticleSoA,
    counting_sort_permutation_reference,
    load_particles,
)
from repro.verify.golden import state_digest


@pytest.fixture
def grid():
    return GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


def make_stepper(grid, cfg, n=4000, **kw):
    kw.setdefault("dt", 0.1)
    kw.setdefault("quiet", True)
    kw.setdefault("seed", None)
    return PICStepper(grid, cfg, case=LandauDamping(alpha=0.05), n_particles=n, **kw)


def _available(name):
    from repro.core.backends import available_backends

    return pytest.param(name, marks=pytest.mark.skipif(
        name not in available_backends(), reason=f"{name} unavailable"))


def reference_sorted_load(grid, ordering, n=4000, seed=None, quiet=True):
    """What ``make_stepper`` loads, permuted by the scalar counting sort:
    the t=0 order every case-built stepper reaches through its own
    ``_phase_sort``."""
    loaded = load_particles(grid, ordering, LandauDamping(alpha=0.05), n,
                            seed=seed, quiet=quiet, store_coords=True)
    perm = counting_sort_permutation_reference(
        np.asarray(loaded.icell), ordering.ncells_allocated)
    return loaded.reorder(perm)


class TestNonPowerOfTwoGrids:
    """A grid whose extents are not powers of two runs with the default
    config on a scan ordering: its push wraps by modulo
    (:func:`repro.core.kernels.wrap_for`), with the same bits on every
    backend."""

    @staticmethod
    def _run_job(backend):
        from repro.service import PICJob

        job = PICJob(grid=(24, 16), ordering="row-major", n_particles=3000,
                     backend=backend, workers=2, seed=5)
        sim = job.build_simulation()
        try:
            sim.run(5)
            assert sim.stepper.iteration == 5
            return state_digest(sim.stepper)
        finally:
            sim.close()

    def test_job_runs_five_steps_on_every_backend(self):
        from repro.core.backends import available_backends
        from repro.core.kernels import wrap_for

        assert wrap_for((24, 16)) == "modulo"
        digests = {b: self._run_job(b) for b in sorted(available_backends())}
        assert set(digests.values()) == {digests["numpy"]}, digests

    def test_repro_run_on_a_24_by_16_grid(self, capsys):
        from repro.cli import main

        argv = ["run", "--grid", "24", "16", "--ordering", "row-major",
                "--particles", "3000", "--steps", "5", "--seed", "5"]
        assert main(argv) == 0
        assert "grid=24x16" in capsys.readouterr().out

    def test_3d_stepper_on_12_by_8_by_8(self):
        from repro.core.backends import available_backends
        from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D

        digests = {}
        for backend in sorted(available_backends()):
            cfg = OptimizationConfig(ordering="row-major", backend=backend,
                                     workers=2, sort_period=3)
            st = PICStepper3D(GridSpec3D(12, 8, 8), LandauDamping3D(alpha=0.05),
                              3000, dt=0.1, config=cfg)
            try:
                st.run(5)
                assert st.iteration == 5
                digests[backend] = state_digest(st)
            finally:
                st.close()
        assert set(digests.values()) == {digests["numpy"]}


class TestConstruction:
    def test_rejects_particles_and_case(self, grid):
        from repro.particles import make_storage

        with pytest.raises(ValueError):
            PICStepper(
                grid,
                OptimizationConfig(),
                particles=make_storage("soa", 10),
                case=LandauDamping(),
            )

    def test_rejects_neither(self, grid):
        with pytest.raises(ValueError):
            PICStepper(grid, OptimizationConfig())

    def test_rejects_store_coords_mismatch(self, grid):
        from repro.particles import make_storage

        parts = make_storage("soa", 10, store_coords=False)
        with pytest.raises(ValueError, match="store_coords"):
            PICStepper(grid, OptimizationConfig(), particles=parts)

    def test_every_config_stores_redundant_rows_and_soa_columns(self, grid):
        """Table IV's baseline names point-based fields and AoS
        particles; the model prices those, the stepper stores what it
        always stores."""
        for cfg in (ModelConfig.baseline(),
                    OptimizationConfig()):
            s = make_stepper(grid, cfg, n=500)
            assert type(s.fields) is RedundantFields
            assert type(s.particles) is ParticleSoA

    @pytest.mark.parametrize("backend", [_available(b) for b in ("numpy", "c", "numpy-mp")])
    def test_case_built_stepper_sorts_at_t0(self, grid, backend):
        """The loader hands over sample order; the t=0 store is that
        order permuted by the scalar counting sort, and equals, bit for
        bit, a stepper handed the sorted store as ``particles=``."""
        cfg = OptimizationConfig(ordering="hilbert", backend=backend, workers=2)
        built = make_stepper(grid, cfg, n=3000, seed=4, quiet=False)
        try:
            want = reference_sorted_load(grid, built.ordering, 3000, seed=4,
                                         quiet=False)
            for k in ("icell", "ix", "iy", "dx", "dy"):
                assert (np.asarray(built.particles[k]).tobytes()
                        == want[k].tobytes()), k
            handed = PICStepper(grid, cfg, particles=want, dt=0.1)
            try:
                assert handed.particles.keys() == built.particles.keys()
                for k in built.particles.keys():
                    assert (np.asarray(built.particles[k]).tobytes()
                            == np.asarray(handed.particles[k]).tobytes()), k
            finally:
                handed.close()
        finally:
            built.close()

    def test_initial_fields_computed(self, grid):
        s = make_stepper(grid, OptimizationConfig(), n=5000)
        # Landau perturbation must produce a nonzero initial Ex
        assert np.abs(s.ex_grid).max() > 0
        assert s.rho_grid.shape == (16, 16)


class TestStepInvariants:
    @pytest.fixture
    def stepper(self, grid):
        return make_stepper(grid, OptimizationConfig(), n=5000)

    def test_iteration_counter(self, stepper):
        stepper.run(3)
        assert stepper.iteration == 3
        assert stepper.timings.steps == 3

    def test_offsets_stay_in_unit_interval(self, stepper):
        stepper.run(5)
        assert np.asarray(stepper.particles.dx).min() >= 0
        assert np.asarray(stepper.particles.dx).max() <= 1.0
        assert np.asarray(stepper.particles.dy).min() >= 0
        assert np.asarray(stepper.particles.dy).max() <= 1.0

    def test_cells_stay_in_range(self, stepper):
        stepper.run(5)
        icell = np.asarray(stepper.particles.icell)
        assert icell.min() >= 0
        assert icell.max() < stepper.ordering.ncells_allocated

    def test_total_charge_invariant(self, stepper):
        q0 = stepper.rho_grid.sum()
        stepper.run(5)
        assert stepper.rho_grid.sum() == pytest.approx(q0, abs=1e-9)

    def test_sort_applied_on_schedule(self, grid):
        s = make_stepper(
            grid, OptimizationConfig(sort_period=3), n=3000
        )
        s.run(3)  # iterations 0,1,2: sort happens at the start of step 3
        before = np.asarray(s.particles.icell).copy()
        s.step()
        after = np.asarray(s.particles.icell)
        assert np.all(np.diff(after) >= 0) or not np.array_equal(before, after)

    def test_no_sort_when_disabled(self, grid):
        s = make_stepper(
            grid, OptimizationConfig(sort_period=0), n=3000
        )
        s.run(6)
        assert s.timings.sort == pytest.approx(0.0, abs=1e-3)

    def test_physical_velocities_scale(self, grid):
        """Stored velocities are grid displacement per step: converted
        back, they are the loaded physical velocities after the t=0
        half-kick of the stored (pre-scaled) field, ``-E_s/2``."""
        st = make_stepper(grid, OptimizationConfig(), n=2000)
        p = st.particles
        v0 = reference_sorted_load(grid, st.ordering, 2000)
        e_s = st.backend.interpolate_rows(st.fields.e_1d, p.icell, (p.dx, p.dy))
        for v, v_0, e, h in zip(st.physical_velocities(), (v0.vx, v0.vy), e_s,
                                (grid.dx, grid.dy)):
            np.testing.assert_allclose(v, v_0 - 0.5 * e * (h / st.dt), atol=1e-12)

    def test_timings_accumulate(self, stepper):
        stepper.run(2)
        t = stepper.timings
        assert t.total > 0
        assert t.update_v > 0 and t.update_x > 0 and t.accumulate > 0
        assert set(t.as_dict()) == {
            "update_v", "update_x", "accumulate", "sort", "solve",
            "total",
        }


class TestConfigEquivalence:
    """Every optimization level must compute identical physics."""

    REFERENCE_STEPS = 8

    @pytest.fixture(scope="class")
    def reference_energy(self, ):
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        s = make_stepper(grid, ModelConfig.baseline(), n=4000)
        s.run(self.REFERENCE_STEPS)
        return 0.5 * np.sum(s.ex_grid**2 + s.ey_grid**2)

    @pytest.mark.parametrize(
        "label,cfg",
        [(label, cfg) for label, cfg in ModelConfig.table4_stack()[1:]],
    )
    def test_table4_rows_bitwise_equal_physics(self, grid, reference_energy, label, cfg):
        s = make_stepper(grid, cfg, n=4000)
        s.run(self.REFERENCE_STEPS)
        fe = 0.5 * np.sum(s.ex_grid**2 + s.ey_grid**2)
        assert fe == pytest.approx(reference_energy, rel=1e-9), label

    @pytest.mark.parametrize("ordering", ["row-major", "column-major", "l4d", "morton", "hilbert"])
    def test_orderings_equal_physics(self, grid, reference_energy, ordering):
        cfg = OptimizationConfig(ordering=ordering)
        s = make_stepper(grid, cfg, n=4000)
        s.run(self.REFERENCE_STEPS)
        fe = 0.5 * np.sum(s.ex_grid**2 + s.ey_grid**2)
        assert fe == pytest.approx(reference_energy, rel=1e-9), ordering

    def test_block_size_irrelevant(self, grid, reference_energy, monkeypatch):
        # 4000 particles in 17-particle kernel blocks (236 iterations of
        # the block loop, a ragged last one) on the baseline config
        monkeypatch.setattr("repro.core.kernels.BLOCK", 17)
        s = make_stepper(grid, ModelConfig.baseline(), n=4000)
        s.run(self.REFERENCE_STEPS)
        fe = 0.5 * np.sum(s.ex_grid**2 + s.ey_grid**2)
        assert fe == pytest.approx(reference_energy, rel=1e-9)

    def test_sort_variants_equal_physics(self, grid, reference_energy):
        """The sort variant is a model axis: either value runs the one
        sort, on the reference physics."""
        for variant in ("out-of-place", "in-place"):
            cfg = ModelConfig.baseline().with_(
                sort_period=3, sort_variant=variant
            )
            s = make_stepper(grid, cfg, n=4000)
            s.run(self.REFERENCE_STEPS)
            fe = 0.5 * np.sum(s.ex_grid**2 + s.ey_grid**2)
            assert fe == pytest.approx(reference_energy, rel=1e-9), variant


#: (label, dims, config overrides): the default (Morton), L4D (encoded
#: after the pass), and 3D
ONE_PASS_CASES = [
    ("2d", 2, {}),
    ("2d-l4d", 2, {"ordering": "l4d"}),
    ("3d", 3, {}),
]


def _one_pass_stepper(dims, backend, **overrides):
    from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D

    cfg = OptimizationConfig(backend=backend, workers=2, sort_period=3,
                             **overrides)
    if dims == 3:
        return PICStepper3D(GridSpec3D(8, 8, 8), LandauDamping3D(alpha=0.1),
                            3000, dt=0.1, config=cfg)
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    return make_stepper(grid, cfg, n=3000, seed=5)


def _snapshot(stepper):
    state = {k: np.array(stepper.particles[k]) for k in stepper.particles.keys()}
    state["rho_grid"] = np.array(stepper.rho_grid)
    return state


class TestOnePass:
    """An unhooked step runs update-v and update-x as the backend's one
    ``advance`` pass; a hooked step, and the zoo's Python bodies, run
    them as two."""

    @pytest.mark.parametrize("backend", [_available(b) for b in ("numpy", "c", "numpy-mp")])
    @pytest.mark.parametrize("label,dims,overrides", ONE_PASS_CASES,
                             ids=[c[0] for c in ONE_PASS_CASES])
    def test_hooked_and_unhooked_steps_have_the_same_bits(
        self, backend, label, dims, overrides
    ):
        states = []
        for hook in (None, lambda phase, st: None):
            st = _one_pass_stepper(dims, backend, **overrides)
            try:
                st.phase_hook = hook
                st.run(7)  # two sorts
                states.append(_snapshot(st))
            finally:
                st.close()
        bare, hooked = states
        assert bare.keys() == hooked.keys()
        for k in bare:
            assert bare[k].tobytes() == hooked[k].tobytes(), (label, k)

    @staticmethod
    def _count_advances(monkeypatch, raising=False):
        """Wrap every backend's ``advance`` in a counter (or make it
        raise); returns the list the calls append to."""
        import repro.core.backends as B

        calls = []
        for cls in (B.NumpyBackend, B.CBackend):
            real = cls.advance

            def spy(self, *args, _real=real, **kwargs):
                calls.append(self.name)
                if raising:
                    raise AssertionError("a zoo phase ran the one-pass kernel")
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "advance", spy)
        return calls

    @pytest.mark.parametrize("backend", [_available(b) for b in ("numpy", "c")])
    def test_unhooked_step_runs_one_pass_and_books_both_loops(
        self, backend, monkeypatch
    ):
        calls = self._count_advances(monkeypatch)
        st = _one_pass_stepper(2, backend)
        try:
            st.run(3)
            assert calls == [backend] * 3
            t = st.timings
            assert t.update_v > 0 and t.update_x > 0
            for record in st.instrumentation.per_step:
                assert record["update_v"] > 0 and record["update_x"] > 0
            st.phase_hook = lambda phase, s: None
            st.run(2)
            assert len(calls) == 3
        finally:
            st.close()

    @pytest.mark.parametrize("backend", [_available(b) for b in ("numpy", "c")])
    @pytest.mark.parametrize("case", ["bounded-wall", "exb-drift"])
    def test_zoo_cases_run_their_python_bodies(self, backend, case, monkeypatch):
        from repro.particles.initializers import BoundedPlasma, MagnetizedExB

        self._count_advances(monkeypatch, raising=True)
        ic = BoundedPlasma() if case == "bounded-wall" else MagnetizedExB()
        grid = GridSpec(32, 8, xmax=4 * np.pi, ymax=2 * np.pi)
        st = PICStepper(grid, OptimizationConfig(backend=backend), case=ic,
                        n_particles=2000, seed=0, quiet=True)
        try:
            st.run(3)
            assert np.isfinite(np.asarray(st.particles.vx)).all()
        finally:
            st.close()
