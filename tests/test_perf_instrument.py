"""Instrumentation layer: StepTimings JSON round-trip, monotone counters."""

import json

import numpy as np
import pytest

from repro.core import OptimizationConfig, Simulation
from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.particles import LandauDamping
from repro.perf.instrument import PHASES, Instrumentation, StepTimings


class TestStepTimings:
    def test_defaults_zero(self):
        t = StepTimings()
        assert t.total == 0.0
        assert t.kernel_total == 0.0
        assert t.particles_per_second() == 0.0
        assert t.steps == 0 and t.particle_steps == 0

    def test_as_dict_keys_stable(self):
        # the benchmark-facing view: Fig. 1's phases and their total
        assert set(StepTimings().as_dict()) == {
            "update_v", "update_x", "accumulate", "sort", "solve", "total",
        }

    def test_from_json_accepts_pre_fused_records(self):
        rec = {
            "update_v": 1.0, "update_x": 1.0, "accumulate": 1.0,
            "sort": 0.0, "solve": 0.5,
        }
        back = StepTimings.from_json(json.dumps(rec))
        assert back.total == pytest.approx(3.5)

    def test_from_json_ignores_retired_deposit_variants(self):
        """Records written while the tiled deposit existed still load."""
        rec = StepTimings(accumulate=2.0, steps=4).as_record()
        rec["deposit_variants"] = {"serial": 12, "coalesced": 4}
        back = StepTimings.from_json(json.dumps(rec))
        assert back.accumulate == 2.0 and back.steps == 4
        assert "deposit_variants" not in back.as_record()

    def test_from_json_ignores_a_retired_autotune_list(self):
        """Records written while ``loop_mode="auto"`` existed carry its
        decision trail; they still load (and feed ``repro calibrate``)."""
        rec = StepTimings(update_v=1.0, steps=40).as_record()
        rec["autotune"] = [
            {"event": "settle", "step": 10, "mode": "split",
             "costs": {"fused": 9.2e-4, "split": 7.8e-4}},
            {"event": "probe", "step": 35, "mode": "fused"},
        ]
        back = StepTimings.from_json(json.dumps(rec))
        assert back.update_v == 1.0 and back.steps == 40
        assert "autotune" not in back.as_record()

    def test_from_json_ignores_a_retired_fused_phase_and_loop_paths(self):
        """Records written while the single-pass loop ran carry its
        phase seconds and per-path step counts (``BENCH_baseline.json``
        has one); they still load, and are not written any more."""
        rec = StepTimings(update_v=1.0, steps=5).as_record()
        rec["fused"] = 0.5
        rec["loop_paths"] = {"split": 3, "fused-chunked": 2}
        back = StepTimings.from_json(json.dumps(rec))
        assert back.update_v == 1.0 and back.steps == 5
        assert not {"fused", "loop_paths"} & set(back.as_record())

    def test_as_record_extends_as_dict(self):
        rec = StepTimings(update_v=2.0, steps=4, particle_steps=4000).as_record()
        assert rec["steps"] == 4
        assert rec["particle_steps"] == 4000
        assert rec["particles_per_second"] == pytest.approx(2000.0)

    def test_json_round_trip(self):
        t = StepTimings(
            update_v=1.5, update_x=0.5, accumulate=0.75, sort=0.1, solve=0.2,
            steps=7, particle_steps=70_000,
        )
        back = StepTimings.from_json(t.to_json())
        assert back == t
        assert back.total == pytest.approx(t.total)

    def test_to_json_is_valid_json(self):
        rec = json.loads(StepTimings(solve=3.0, steps=1).to_json())
        assert rec["solve"] == 3.0
        assert rec["total"] == 3.0


class TestInstrumentation:
    def test_phase_accumulates(self):
        instr = Instrumentation()
        with instr.step(100):
            with instr.phase("update_v"):
                pass
            with instr.phase("update_v"):  # entered twice in one step
                pass
        assert instr.timings.steps == 1
        assert instr.timings.particle_steps == 100
        assert instr.timings.update_v > 0.0
        assert instr.last_step["update_v"] == pytest.approx(
            instr.timings.update_v
        )

    def test_unknown_phase_rejected(self):
        instr = Instrumentation()
        with pytest.raises(KeyError, match="unknown phase"):
            with instr.phase("teleport"):
                pass

    def test_counters_monotone_across_steps(self):
        instr = Instrumentation()
        seen_steps, seen_particles, seen_total = [], [], []
        for _ in range(5):
            with instr.step(42):
                with instr.phase("solve"):
                    pass
            seen_steps.append(instr.timings.steps)
            seen_particles.append(instr.timings.particle_steps)
            seen_total.append(instr.timings.total)
        assert seen_steps == [1, 2, 3, 4, 5]
        assert seen_particles == [42, 84, 126, 168, 210]
        assert all(b >= a for a, b in zip(seen_total, seen_total[1:]))

    def test_per_step_records(self):
        instr = Instrumentation()
        for _ in range(3):
            with instr.step(10):
                with instr.phase("accumulate"):
                    pass
        assert [r["step"] for r in instr.per_step] == [0, 1, 2]
        assert all(set(PHASES) <= set(r) for r in instr.per_step)
        rec = instr.as_record()
        assert rec["cumulative"]["steps"] == 3
        assert len(rec["per_step"]) == 3
        assert json.loads(instr.to_json())["cumulative"]["particle_steps"] == 30

    def test_phase_outside_step_still_counts_cumulative(self):
        instr = Instrumentation()
        with instr.phase("solve"):
            pass
        assert instr.timings.solve > 0.0
        assert instr.per_step == []


class TestSimulationSurface:
    @pytest.fixture(scope="class")
    def sim(self):
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, LandauDamping(0.05), 3000,
            OptimizationConfig(),
            dt=0.1, quiet=True, seed=None,
        )
        sim.run(6)
        return sim

    def test_timings_populated(self, sim):
        t = sim.timings
        assert t.steps == 6
        assert t.particle_steps == 6 * 3000
        assert t.update_v > 0 and t.update_x > 0 and t.accumulate > 0
        assert t.solve > 0
        assert t.particles_per_second() > 0

    def test_history_carries_per_step_timings(self, sim):
        recs = sim.history.step_timings
        assert len(recs) == 6  # one per completed step
        assert [r["step"] for r in recs] == list(range(6))
        assert all(r["particles"] == 3000 for r in recs)
        # per-step phase seconds sum to the cumulative total
        total = sum(sum(r[p] for p in PHASES) for r in recs)
        assert total == pytest.approx(sim.timings.total, rel=1e-6)

    def test_timings_json_export(self, sim):
        doc = json.loads(sim.timings_json())
        assert doc["cumulative"]["steps"] == 6
        assert len(doc["per_step"]) == 6
        assert doc["cumulative"]["particles_per_second"] > 0

    def test_fused_mode_one_record_per_step(self, monkeypatch):
        # 2000 particles in 512-particle kernel blocks under the
        # baseline's loop_mode="fused": the blocks are the kernels'
        # business, and the stepper runs the split loops — one record
        # per step, with the split phases and no path tag
        monkeypatch.setattr("repro.core.kernels.BLOCK", 512)
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, LandauDamping(0.05), 2000, ModelConfig.baseline(),
            dt=0.1, quiet=True, seed=None,
        )
        sim.run(2)
        assert len(sim.history.step_timings) == 2
        assert sim.config.loop_mode == "fused"
        assert sim.timings.update_v > 0 and sim.timings.update_x > 0
        assert set(sim.history.step_timings[0]) == {
            "step", "particles", "fallbacks", *PHASES,
        }
        assert sim.timings.particle_steps == 4000
