"""Tests for the scenario zoo: bounded-wall, beam-plasma, E×B drift.

Three layers per scenario:

* **initializer structure** — the sampled phase space has the shape the
  case advertises (slab support, beam fraction, drift attributes);
* **stepper semantics** — the zoo attributes (reflecting boundary,
  ``bz`` rotation, external drive field) reach the stepper, run in the
  one-pass kernels every case runs, and produce the right short-horizon physics
  (confinement, measurable E×B drift) at tier-1 cost;
* **verification hooks** — each case has a configspace row, a golden
  digest under the gate, and a CLI spelling; the full calibrated
  oracles run under the ``verify_full`` marker.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.kernels import wrap_for
from repro.core.stepper import PICStepper
from repro.grid.spec import GridSpec
from repro.model.config import ModelConfig
from repro.particles.initializers import (
    BeamPlasma,
    BoundedPlasma,
    MagnetizedExB,
)
from repro.verify.configspace import _CASE_POOLS, Scenario
from repro.verify.golden import golden_cases, default_golden_dir


def _grid(ncx=32, ncy=8):
    return GridSpec(ncx, ncy, xmax=4 * np.pi, ymax=2 * np.pi)


def _config(**overrides):
    params = dict(
        ordering="morton", sort_period=0,
        backend="numpy",
    )
    params.update(overrides)
    return OptimizationConfig(**params)


# ----------------------------------------------------------------------
# Initializers
# ----------------------------------------------------------------------
class TestInitializers:
    def test_bounded_plasma_samples_central_slab(self):
        grid = _grid()
        case = BoundedPlasma(slab_frac=0.5)
        x, y, vx, vy = case.sample(4000, grid, quiet=True)
        center = 0.5 * (grid.xmin + grid.xmax)
        half = 0.25 * grid.lx
        assert np.all(np.abs(x - center) <= half + 1e-12)
        assert case.boundary == "reflecting"

    def test_bounded_plasma_rejects_bad_slab(self):
        with pytest.raises(ValueError):
            BoundedPlasma(slab_frac=0.0)

    def test_beam_plasma_beam_fraction(self):
        grid = GridSpec(64, 16, xmax=10 * np.pi, ymax=2 * np.pi)
        case = BeamPlasma(n_beam=0.1, v_beam=5.0)
        x, y, vx, vy = case.sample(20_000, grid, quiet=True)
        fast = np.count_nonzero(vx > 0.5 * case.v_beam)
        assert abs(fast / 20_000 - case.n_beam) < 0.02

    def test_exb_drift_attributes(self):
        case = MagnetizedExB(ex0=0.2, bz=1.0)
        assert case.ext_e == (0.2, 0.0)
        assert case.drift_velocity == (0.0, -0.2)
        with pytest.raises(ValueError):
            MagnetizedExB(bz=0.0)

    def test_default_grids_are_pow2(self):
        for case in (BoundedPlasma(), BeamPlasma(), MagnetizedExB()):
            assert wrap_for(case.default_grid().shape) == "bitwise"


# ----------------------------------------------------------------------
# Stepper semantics
# ----------------------------------------------------------------------
class TestStepperSemantics:
    def test_zoo_cases_take_the_one_pass_path(self, monkeypatch):
        """Reflecting/magnetized cases run the backend's one ``advance``
        call per unhooked step, with the wall and the drive it was
        handed, under any ``loop_mode`` of a :class:`ModelConfig`
        (every stepper does); both loops are booked."""
        from repro.core.backends import NumpyBackend

        seen = []
        real = NumpyBackend.advance

        def spy(self, particles, e_1d, extents, ordering, wrap=None, drive=None):
            seen.append((wrap, drive is not None))
            return real(self, particles, e_1d, extents, ordering, wrap, drive)

        monkeypatch.setattr(NumpyBackend, "advance", spy)
        grid = _grid()
        cfg = ModelConfig(**dataclasses.asdict(_config()), loop_mode="fused")
        for case in (BoundedPlasma(), MagnetizedExB()):
            s = PICStepper(grid, cfg, case=case,
                           n_particles=300, seed=0, quiet=True)
            try:
                s.step()
                assert s.timings.update_v > 0 and s.timings.update_x > 0
            finally:
                s.close()
        assert seen == [("reflect", False), ("bitwise", True)]

    def test_plain_case_attributes_default_to_periodic(self):
        from repro.particles.initializers import LandauDamping

        s = PICStepper(_grid(), _config(), case=LandauDamping(alpha=0.1),
                       n_particles=200, seed=0, quiet=True)
        try:
            assert s.boundary == "periodic"
            assert s.bz == 0.0 and s.ext_e == (0.0, 0.0)
        finally:
            s.close()

    def test_unknown_boundary_rejected(self):
        class Bad:
            boundary = "open"

            def sample(self, n, grid, rng=None, quiet=False):
                raise AssertionError("validation must precede sampling")

        with pytest.raises(ValueError):
            PICStepper(_grid(), _config(), case=Bad(),
                       n_particles=10, seed=0, quiet=True)

    def test_reflecting_walls_confine(self):
        """A bounded slab must stay centered; nothing leaks or wraps."""
        grid = _grid()
        s = PICStepper(grid, _config(), case=BoundedPlasma(),
                       n_particles=3000, seed=0, quiet=True)
        try:
            s.run(40)
            assert s.boundary == "reflecting"
            p = s.particles
            x = (np.asarray(p.ix) + np.asarray(p.dx)) * grid.dx
            center = 0.5 * (grid.xmin + grid.xmax)
            assert abs(float(np.mean(x)) - center) / grid.lx < 0.05
            assert np.all(np.isfinite(np.asarray(p.vx)))
        finally:
            s.close()

    def test_exb_drift_measurable_after_one_gyroperiod(self):
        """Short-horizon drift check (the full 4-period oracle is
        ``verify_full``): mean vy over one gyroperiod ≈ -ex0/bz."""
        case = MagnetizedExB(vth=0.5, bz=1.0, ex0=0.2)
        grid = GridSpec(32, 32, xmax=4 * np.pi, ymax=4 * np.pi)
        s = PICStepper(grid, _config(), case=case, n_particles=4000,
                       dt=0.05, seed=0, quiet=True)
        try:
            assert s.bz == 1.0 and s.ext_e == (0.2, 0.0)
            period_steps = int(round(2 * np.pi * s.m / abs(s.q * s.bz) / s.dt))
            vy_means = []
            for _ in range(period_steps):
                s.step()
                vy_means.append(float(np.mean(s.physical_velocities()[1])))
            drift = float(np.mean(vy_means))
            assert abs(drift - case.drift_velocity[1]) < 0.05
        finally:
            s.close()


# ----------------------------------------------------------------------
# Verification hooks
# ----------------------------------------------------------------------
class TestVerificationHooks:
    def test_zoo_cases_in_configspace_pool(self):
        for name in ("bounded-wall", "beam-plasma", "exb-drift"):
            assert name in _CASE_POOLS[2]

    def test_zoo_scenarios_constructible(self):
        for name in ("bounded-wall", "beam-plasma", "exb-drift"):
            s = Scenario(
                index=0, ncx=16, ncy=8, n_particles=500, n_steps=4,
                case_name=name, ordering="morton",
                sort_period=0,
            )
            assert s.case() is not None

    def test_zoo_and_bump_golden_digests_committed(self):
        cases = golden_cases()
        for name in ("gaussian_bump", "bounded_wall", "beam_plasma",
                     "exb_drift"):
            assert name in cases
            assert (default_golden_dir() / f"GOLDEN_{name}.json").exists()

    def test_cli_spells_zoo_cases(self):
        from repro.cli import build_parser

        parse = build_parser().parse_args
        for name in ("bounded-wall", "beam-plasma", "exb-drift"):
            assert parse(["run", "--case", name]).case == name
            assert parse(["submit", "--spool", "s", "--case", name]).case == name

    def test_oracles_exported(self):
        from repro.verify import oracles

        for fn in ("bump_on_tail_oracle", "beam_plasma_oracle",
                   "bounded_plasma_oracle", "exb_drift_oracle"):
            assert fn in oracles.__all__ and callable(getattr(oracles, fn))


class TestZooOraclesFull:
    """The calibrated acceptance oracles — minutes each, so they sit
    behind the ``verify_full`` marker with ``run_all_oracles``."""

    @pytest.mark.verify_full
    def test_bounded_plasma_oracle_passes(self):
        from repro.verify.oracles import bounded_plasma_oracle

        result = bounded_plasma_oracle("numpy")
        assert result.passed, result.describe()

    @pytest.mark.verify_full
    def test_beam_plasma_oracle_passes(self):
        from repro.verify.oracles import beam_plasma_oracle

        result = beam_plasma_oracle("numpy")
        assert result.passed, result.describe()
        assert result.measured > 0.1

    @pytest.mark.verify_full
    def test_bump_on_tail_oracle_passes(self):
        from repro.verify.oracles import bump_on_tail_oracle

        result = bump_on_tail_oracle("numpy")
        assert result.passed, result.describe()
        assert result.measured > 0.05

    @pytest.mark.verify_full
    def test_exb_drift_oracle_passes(self):
        from repro.verify.oracles import exb_drift_oracle

        result = exb_drift_oracle("numpy")
        assert result.passed, result.describe()
