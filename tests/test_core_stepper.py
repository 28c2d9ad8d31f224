"""Stepper tests: construction, invariants, config equivalence."""

import numpy as np
import pytest

from repro.core import OptimizationConfig, PICStepper
from repro.grid import GridSpec, RedundantFields
from repro.model.config import ModelConfig
from repro.particles import LandauDamping, ParticleSoA


@pytest.fixture
def grid():
    return GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


def make_stepper(grid, cfg, n=4000, **kw):
    kw.setdefault("dt", 0.1)
    kw.setdefault("quiet", True)
    kw.setdefault("seed", None)
    return PICStepper(grid, cfg, case=LandauDamping(alpha=0.05), n_particles=n, **kw)


class TestConstruction:
    def test_rejects_bitwise_on_non_pow2(self):
        g = GridSpec(12, 16)
        with pytest.raises(ValueError, match="power-of-two"):
            PICStepper(g, OptimizationConfig(), case=LandauDamping(), n_particles=10)

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
        hoisted = make_stepper(grid, OptimizationConfig(), n=2000)
        raw = make_stepper(
            grid, OptimizationConfig(hoisting=False), n=2000
        )
        vxh, vyh = hoisted.physical_velocities()
        vxr, vyr = raw.physical_velocities()
        np.testing.assert_allclose(vxh, vxr, atol=1e-12)
        np.testing.assert_allclose(vyh, vyr, atol=1e-12)

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
        for variant in ("out-of-place", "in-place"):
            cfg = ModelConfig.baseline().with_(
                sort_period=3, sort_variant=variant
            )
            s = make_stepper(grid, cfg, n=4000)
            s.run(self.REFERENCE_STEPS)
            fe = 0.5 * np.sum(s.ex_grid**2 + s.ey_grid**2)
            assert fe == pytest.approx(reference_energy, rel=1e-9), variant
