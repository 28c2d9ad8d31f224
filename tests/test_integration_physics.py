"""Physics integration tests: the paper's validation criteria (§IV).

"We checked the numerical conservation of the total energy and the
numerical evolution in time of the electric field" — these tests do
exactly that.  The quantitative rate/conservation checks run through
the shared acceptance oracles (:mod:`repro.verify.oracles`), so the
thresholds asserted here are the same calibrated ones the ``repro
verify --oracles`` CLI and the verification docs quote.
"""

import numpy as np
import pytest

from repro.core import OptimizationConfig, Simulation
from repro.core.diagnostics import damping_rate_fit
from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.particles import LandauDamping, TwoStream, UniformMaxwellian
from repro.verify.oracles import (
    energy_drift_oracle,
    landau_damping_oracle,
    momentum_oracle,
    two_stream_oracle,
)


class TestEnergyConservation:
    @pytest.mark.parametrize(
        "cfg",
        [ModelConfig.baseline(), OptimizationConfig()],
        ids=["baseline", "optimized"],
    )
    def test_total_energy_conserved(self, cfg):
        grid = GridSpec(32, 8, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, LandauDamping(alpha=0.1), 20_000, cfg, dt=0.1, quiet=True, seed=None
        )
        sim.run(100)
        assert sim.history.energy_drift() < 2e-3

    def test_drift_shrinks_with_dt(self):
        grid = GridSpec(32, 8, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        drifts = []
        for dt, steps in ((0.2, 50), (0.05, 200)):
            sim = Simulation(
                grid, LandauDamping(alpha=0.1), 20_000,
                OptimizationConfig(),
                dt=dt, quiet=True, seed=None,
            )
            sim.run(steps)
            drifts.append(sim.history.energy_drift())
        # leap-frog: O(dt^2) — a 4x dt reduction helps a lot
        assert drifts[1] < drifts[0]

    def test_quiescent_plasma_stays_quiet(self):
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, UniformMaxwellian(), 40_000,
            OptimizationConfig(),
            dt=0.1, quiet=True, seed=None,
        )
        sim.run(30)
        fe = np.asarray(sim.history.field_energy)
        ke = np.asarray(sim.history.kinetic_energy)
        # field energy stays tiny relative to kinetic (noise level)
        assert fe.max() < 1e-3 * ke[0]

    @pytest.mark.slow
    def test_energy_drift_oracle(self):
        result = energy_drift_oracle("numpy")
        assert result.passed, result.describe()

    def test_momentum_oracle(self):
        result = momentum_oracle("numpy")
        assert result.passed, result.describe()


class TestLandauDamping:
    @pytest.mark.slow
    def test_linear_damping_rate(self):
        """k = 0.5, vth = 1: gamma_theory ~ -0.1533 (shared oracle)."""
        result = landau_damping_oracle("numpy")
        assert result.passed, result.describe()

    def test_field_energy_decays(self):
        grid = GridSpec(32, 4, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, LandauDamping(alpha=0.05), 50_000,
            OptimizationConfig(),
            dt=0.1, quiet=True, seed=None,
        )
        h = sim.run(80).as_arrays()
        fe = h["field_energy"]
        # substantially below the initial perturbation energy
        assert fe[60:].max() < 0.5 * fe[0]

    def test_plasma_oscillation_frequency(self):
        """Field energy oscillates at 2*omega with omega ~ 1.416 (k=0.5)."""
        grid = GridSpec(32, 4, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, LandauDamping(alpha=0.05), 100_000,
            OptimizationConfig(),
            dt=0.05, quiet=True, seed=None,
        )
        h = sim.run(250).as_arrays()
        from repro.core.diagnostics import log_envelope_peaks

        tp, _ = log_envelope_peaks(h["field_energy"], h["times"])
        early = tp[(tp > 0.5) & (tp < 10.0)]
        spacing = np.median(np.diff(early))
        omega = np.pi / spacing
        assert omega == pytest.approx(1.416, rel=0.08)

    def test_nonlinear_landau_initial_decay(self):
        # alpha = 0.5: strong damping phase first
        grid = GridSpec(32, 4, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, LandauDamping(alpha=0.5), 50_000,
            OptimizationConfig(),
            dt=0.1, quiet=True, seed=None,
        )
        h = sim.run(60).as_arrays()
        assert h["field_energy"][40] < h["field_energy"][0]


class TestTwoStream:
    @pytest.mark.slow
    def test_instability_grows_exponentially(self):
        """Growth at (slightly under) gamma_max = 1/(2*sqrt(2)) — oracle."""
        result = two_stream_oracle("numpy")
        assert result.passed, result.describe()

    def test_saturation_bounds_growth(self):
        grid = GridSpec(64, 4, 0.0, 10 * np.pi, 0.0, 10 * np.pi)
        sim = Simulation(
            grid, TwoStream(v0=2.4, vth=0.1, alpha=1e-3), 50_000,
            OptimizationConfig(),
            dt=0.1, quiet=True, seed=None,
        )
        h = sim.run(400).as_arrays()
        fe = h["field_energy"]
        # saturated: the last stretch grows far slower than the linear phase
        late = fe[-50:]
        assert late.max() < 10 * late.min()


class TestCrossConfigPhysics:
    def test_all_orderings_same_damping_curve(self):
        grid = GridSpec(32, 8, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        series = {}
        for ordering in ("row-major", "l4d", "morton", "hilbert"):
            cfg = OptimizationConfig(ordering=ordering)
            if ordering == "hilbert":
                cfg = cfg.with_(position_update="modulo")
            sim = Simulation(
                grid, LandauDamping(alpha=0.1), 20_000, cfg,
                dt=0.1, quiet=True, seed=None,
            )
            series[ordering] = np.asarray(sim.run(30).field_energy)
        base = series["row-major"]
        for name, fe in series.items():
            np.testing.assert_allclose(fe, base, rtol=1e-9, err_msg=name)

    def test_random_vs_quiet_start_same_trend(self):
        grid = GridSpec(32, 4, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        rates = []
        for quiet, seed in ((True, None), (False, 42)):
            sim = Simulation(
                grid, LandauDamping(alpha=0.2), 100_000,
                OptimizationConfig(),
                dt=0.1, quiet=quiet, seed=seed,
            )
            h = sim.run(100).as_arrays()
            rates.append(
                damping_rate_fit(h["field_energy"], h["times"], t_min=1.0, t_max=9.0)
            )
        assert rates[0] < 0 and rates[1] < 0
        assert rates[0] == pytest.approx(rates[1], abs=0.08)
