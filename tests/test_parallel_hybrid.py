"""Distributed-PIC tests: rank-count invariance of the physics."""

import numpy as np
import pytest

from repro.core import OptimizationConfig
from repro.curves import get_ordering
from repro.grid import GridSpec
from repro.model.hybrid import (
    DistributedPICStepper,
    run_distributed_landau,
    split_population,
)
from repro.particles import LandauDamping, load_particles


class TestSplitPopulation:
    def test_shares_cover_population(self):
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        o = get_ordering("morton", 16, 16)
        parts = load_particles(grid, o, LandauDamping(), 100, seed=3)
        shares = split_population(parts, 3)
        assert sum(len(s["icell"]) for s in shares) == 100
        rebuilt = np.concatenate([s["icell"] for s in shares])
        np.testing.assert_array_equal(rebuilt, np.asarray(parts.icell))

    def test_shares_are_copies(self):
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        o = get_ordering("morton", 16, 16)
        parts = load_particles(grid, o, LandauDamping(), 50, seed=3)
        shares = split_population(parts, 2)
        shares[0]["vx"][:] = 1e9
        assert not np.any(np.asarray(parts.vx) == 1e9)


class TestDistributedEqualsSerial:
    """§V-A's no-domain-decomposition scheme must not change physics."""

    @pytest.mark.parametrize("nranks", [2, 3, 4])
    def test_field_energy_matches_single_rank(self, nranks):
        serial = run_distributed_landau(1, 6000, 8)
        multi = run_distributed_landau(nranks, 6000, 8)
        np.testing.assert_allclose(
            multi["field_energy"], serial["field_energy"], rtol=1e-12
        )

    def test_mode_series_matches(self):
        serial = run_distributed_landau(1, 6000, 8)
        multi = run_distributed_landau(4, 6000, 8)
        np.testing.assert_allclose(multi["mode"], serial["mode"], rtol=1e-10)

    def test_deterministic_across_runs(self):
        a = run_distributed_landau(3, 4000, 5)
        b = run_distributed_landau(3, 4000, 5)
        np.testing.assert_array_equal(a["field_energy"], b["field_energy"])

    def test_works_with_standard_layout(self):
        cfg = OptimizationConfig.baseline()
        a = run_distributed_landau(1, 4000, 5, config=cfg)
        b = run_distributed_landau(2, 4000, 5, config=cfg)
        np.testing.assert_allclose(a["field_energy"], b["field_energy"], rtol=1e-12)

    def test_uneven_rank_counts(self):
        # 6000 particles over 7 ranks: shares differ in size
        a = run_distributed_landau(1, 6000, 4)
        b = run_distributed_landau(7, 6000, 4)
        np.testing.assert_allclose(a["field_energy"], b["field_energy"], rtol=1e-12)


class TestDistributedStepper:
    def test_rho_is_global_on_every_rank(self):
        """Each rank's rho_grid after a step must be the full-population
        density, not its local share."""
        from repro.model.mpi import SimMPI
        from repro.particles.storage import make_storage

        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        cfg = OptimizationConfig.fully_optimized()
        o = get_ordering(cfg.ordering, 16, 16)
        parts = load_particles(grid, o, LandauDamping(alpha=0.1), 4000, seed=0)
        shares = split_population(parts, 2)

        def fn(comm):
            share = shares[comm.rank]
            local = make_storage("soa", len(share["icell"]), weight=parts.weight)
            local.set_state(**share)
            st = DistributedPICStepper(comm, grid, cfg, particles=local, dt=0.1)
            return st.rho_grid.sum()

        totals = SimMPI(2).run(fn)
        # sum of rho over grid points = q * w * N_global / cell_area
        expected = -parts.weight * 4000 / grid.cell_area
        assert totals[0] == pytest.approx(totals[1])
        assert totals[0] == pytest.approx(expected, rel=1e-9)
