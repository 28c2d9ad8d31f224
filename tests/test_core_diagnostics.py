"""Diagnostics tests: energies, mode amplitudes, rate fits."""

from contextlib import closing

import numpy as np
import pytest

from repro.core import OptimizationConfig, PICStepper, Simulation
from repro.core.diagnostics import (
    damping_rate_fit,
    field_energy,
    growth_rate_fit,
    kinetic_energy,
    log_envelope_peaks,
    mode_amplitude,
)
from repro.grid import GridSpec
from repro.particles import BoundedPlasma, LandauDamping
from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D


class TestEnergies:
    def test_field_energy_formula(self):
        ex = np.full((4, 4), 2.0)
        ey = np.zeros((4, 4))
        assert field_energy(ex, ey, cell_area=0.5) == pytest.approx(
            0.5 * 16 * 4.0 * 0.5
        )

    def test_field_energy_eps0(self):
        ex = np.ones((2, 2))
        assert field_energy(ex, ex, 1.0, eps0=3.0) == pytest.approx(
            3.0 * field_energy(ex, ex, 1.0)
        )

    def test_kinetic_energy_formula(self):
        vx = np.array([1.0, 2.0])
        vy = np.array([0.0, 2.0])
        assert kinetic_energy(vx, vy, weight=2.0, mass=3.0) == pytest.approx(
            0.5 * 3.0 * 2.0 * (1 + 4 + 4)
        )

    def test_energies_nonnegative(self, rng):
        assert field_energy(rng.normal(size=(8, 8)), rng.normal(size=(8, 8)), 0.1) >= 0
        assert kinetic_energy(rng.normal(size=100), rng.normal(size=100), 1.0) >= 0


def _old_field_energy(st):
    """The field energy as the 2D ``Simulation`` and the 3D adapter
    spelled it out before both went through ``sum_squares``."""
    if len(st.grid.shape) == 2:
        return 0.5 * float(np.sum(st.ex_grid**2 + st.ey_grid**2)) * st.grid.cell_area
    return 0.5 * float(
        np.sum(st.ex_grid**2 + st.ey_grid**2 + st.ez_grid**2)
    ) * st.grid.cell_volume


def _old_kinetic_energy(st):
    v2 = sum(v**2 for v in st.physical_velocities())
    return 0.5 * st.m * st.particles.weight * float(np.sum(v2))


@pytest.mark.parametrize("backend", ["numpy", "c"])
class TestStepperEnergies:
    """The stepper's one energy statement has the bits of the
    expressions it replaced, in either dimension and with walls."""

    def _assert_old_bits(self, st, steps=3):
        for _ in range(steps):
            st.step()
            fe, ke = _old_field_energy(st), _old_kinetic_energy(st)
            assert st.field_energy() == fe
            assert st.kinetic_energy() == ke
            assert st.total_energy() == fe + ke

    def test_3d_stepper(self, backend):
        with closing(PICStepper3D(GridSpec3D(8, 4, 8), LandauDamping3D(),
                                  6_000, backend=backend)) as st:
            self._assert_old_bits(st)

    def test_wall_case(self, backend):
        grid = GridSpec(64, 16, xmax=4 * np.pi, ymax=2 * np.pi)
        with closing(PICStepper(grid, OptimizationConfig(backend=backend),
                                case=BoundedPlasma(), n_particles=5_000,
                                quiet=True)) as st:
            self._assert_old_bits(st)

    def test_simulation_records_them(self, backend):
        cfg = OptimizationConfig(backend=backend)
        with Simulation(GridSpec(16, 8), LandauDamping(), 3_000, cfg) as sim:
            sim.run(3)
            h, st = sim.history, sim.stepper
            assert h.field_energy[-1] == _old_field_energy(st)
            assert h.kinetic_energy[-1] == _old_kinetic_energy(st)


class TestModeAmplitude:
    def test_pure_cosine_mode(self):
        n = 32
        x = np.arange(n)
        rho = 0.8 * np.cos(2 * np.pi * 3 * x / n)[:, None] * np.ones((1, n))
        assert mode_amplitude(rho, 3, 0) == pytest.approx(0.4, rel=1e-12)

    def test_orthogonal_mode_zero(self):
        n = 32
        x = np.arange(n)
        rho = np.cos(2 * np.pi * 3 * x / n)[:, None] * np.ones((1, n))
        assert mode_amplitude(rho, 2, 0) == pytest.approx(0.0, abs=1e-12)

    def test_constant_field_zero_in_nonzero_mode(self):
        assert mode_amplitude(np.ones((16, 16)), 1, 0) == 0.0

    @pytest.mark.parametrize("shape", [(32, 8), (32, 16), (16, 24), (64, 64),
                                       (128, 128), (512, 512)])
    def test_one_column_transform_is_fft2s_coefficient(self, shape, rng):
        """The row transforms and one column transform give ``fft2``'s
        coefficient bit for bit (``rfftn``'s would not), over the golden
        cases' 32x8 grid and the ledger's 128² and 512²."""
        for _ in range(4):
            rho = rng.standard_normal(shape)
            for mx, my in ((1, 0), (0, 1), (2, 1)):
                want = float(np.abs(np.fft.fft2(rho)[mx, my])) / rho.size
                assert mode_amplitude(rho, mx, my) == want

    def test_golden_runs_record_fft2s_coefficient(self):
        """The six golden cases' ρ at t=0, on the golden grid."""
        from repro.verify.golden import _CASES, _build_simulation

        for name, params in _CASES.items():
            with _build_simulation(params, "numpy") as sim:
                rho = sim.stepper.rho_grid
                for mx, my in ((1, 0), (0, 1), (2, 1)):
                    want = float(np.abs(np.fft.fft2(rho)[mx, my])) / rho.size
                    assert mode_amplitude(rho, mx, my) == want, (name, mx, my)


class TestEnvelopeAndFits:
    def _damped_series(self, gamma, omega=1.4, t_end=30.0, dt=0.05):
        t = np.arange(0.0, t_end, dt)
        # field energy of a damped oscillation ~ e^{2 gamma t} cos^2
        e = np.exp(2 * gamma * t) * np.cos(omega * t) ** 2 + 1e-30
        return t, e

    def test_log_envelope_peaks_finds_maxima(self):
        t, e = self._damped_series(-0.1)
        tp, logp = log_envelope_peaks(e, t)
        assert len(tp) >= 10
        # peaks spaced by pi/omega
        np.testing.assert_allclose(np.diff(tp), np.pi / 1.4, atol=0.06)

    def test_damping_rate_recovered(self):
        t, e = self._damped_series(-0.153)
        rate = damping_rate_fit(e, t)
        assert rate == pytest.approx(-0.153, abs=0.005)

    def test_damping_rate_window(self):
        t, e = self._damped_series(-0.2)
        rate = damping_rate_fit(e, t, t_min=5.0, t_max=20.0)
        assert rate == pytest.approx(-0.2, abs=0.01)

    def test_growth_rate_recovered(self):
        t = np.arange(0.0, 20.0, 0.1)
        e = 1e-6 * np.exp(2 * 0.35 * t)
        assert growth_rate_fit(e, t) == pytest.approx(0.35, rel=1e-6)

    def test_growth_rate_window(self):
        t = np.arange(0.0, 30.0, 0.1)
        e = 1e-6 * np.exp(2 * 0.2 * np.minimum(t, 15.0))  # saturates
        g = growth_rate_fit(e, t, t_min=2.0, t_max=12.0)
        assert g == pytest.approx(0.2, rel=1e-6)

    def test_fit_errors_on_short_series(self):
        with pytest.raises(ValueError):
            log_envelope_peaks(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            damping_rate_fit(np.ones(5), np.arange(5.0), t_min=100.0)
        with pytest.raises(ValueError):
            growth_rate_fit(np.ones(5), np.arange(5.0), t_min=100.0)
