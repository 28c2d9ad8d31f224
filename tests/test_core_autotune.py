"""Tests for the autotuners: sort period (§IV-E future work) and the
continuous fused-vs-split loop-mode tuner behind ``loop_mode="auto"``."""

import json

import numpy as np
import pytest

from repro.core import OptimizationConfig, Simulation, StepTimings
from repro.core.autotune import (
    LoopModeAutoTuner,
    SortPeriodAutoTuner,
    TuneResult,
    tune_sort_period_model,
)
from repro.grid import GridSpec
from repro.particles import LandauDamping
from repro.perf.costmodel import LoopCostModel, LoopKind
from repro.perf.machine import MachineSpec

BASE_MISSES = {
    LoopKind.UPDATE_V: {"L2": 0.10, "L3": 0.03},
    LoopKind.UPDATE_X: {},
    LoopKind.ACCUMULATE: {"L2": 0.06, "L3": 0.02},
}


class TestModelTuner:
    @pytest.fixture
    def model(self):
        return LoopCostModel(MachineSpec.haswell())

    @pytest.fixture
    def config(self):
        return OptimizationConfig.fully_optimized()

    def test_finds_interior_optimum(self, model, config):
        res = tune_sort_period_model(model, config, 1_000_000, BASE_MISSES)
        assert res.best_period in res.costs
        # an interior optimum: both extremes cost more
        periods = sorted(res.costs)
        assert res.costs[res.best_period] <= res.costs[periods[0]]
        assert res.costs[res.best_period] <= res.costs[periods[-1]]

    def test_costlier_misses_mean_sorting_more_often(self, model, config):
        """The paper's observation: Haswell (sort every 20) vs Sandy
        Bridge (every 50) — pricier stalls shift the optimum down."""
        cheap = tune_sort_period_model(
            model, config, 1_000_000, BASE_MISSES, miss_growth_per_iter=0.01
        )
        pricey = tune_sort_period_model(
            model, config, 1_000_000, BASE_MISSES, miss_growth_per_iter=0.5
        )
        assert pricey.best_period <= cheap.best_period

    def test_zero_growth_never_sorts(self, model, config):
        res = tune_sort_period_model(
            model, config, 1_000_000, BASE_MISSES, miss_growth_per_iter=0.0
        )
        # with no disorder penalty the longest period wins
        assert res.best_period == max(res.costs)

    def test_rejects_negative_growth(self, model, config):
        with pytest.raises(ValueError):
            tune_sort_period_model(
                model, config, 1000, BASE_MISSES, miss_growth_per_iter=-0.1
            )

    def test_cost_of_accessor(self, model, config):
        res = tune_sort_period_model(model, config, 1000, BASE_MISSES)
        for p, c in res.costs.items():
            assert res.cost_of(p) == c


class TestOnlineTuner:
    def _cost_fn(self, period):
        # synthetic landscape with minimum at 20
        return 1.0 / period + 0.002 * period

    def test_walks_candidates_then_settles(self):
        tuner = SortPeriodAutoTuner(candidates=(5, 20, 100), trial_iterations=3)
        seen = []
        for _ in range(9):
            p = tuner.period
            seen.append(p)
            tuner.record(self._cost_fn(p))
        assert seen == [5, 5, 5, 20, 20, 20, 100, 100, 100]
        assert tuner.finished
        assert tuner.result().best_period == 20
        # after finishing, period returns the winner
        assert tuner.period == 20

    def test_partial_trial_excluded(self):
        tuner = SortPeriodAutoTuner(candidates=(5, 20), trial_iterations=4)
        for _ in range(4):
            tuner.record(self._cost_fn(5))
        tuner.record(self._cost_fn(20))  # partial second trial
        res = tuner.result()
        assert res.best_period == 5  # only completed trials count

    def test_no_trials_raises(self):
        tuner = SortPeriodAutoTuner()
        with pytest.raises(RuntimeError):
            tuner.result()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SortPeriodAutoTuner(candidates=())
        with pytest.raises(ValueError):
            SortPeriodAutoTuner(trial_iterations=0)

    def test_record_after_finish_is_noop(self):
        tuner = SortPeriodAutoTuner(candidates=(7,), trial_iterations=1)
        tuner.record(1.0)
        assert tuner.finished
        tuner.record(99.0)
        assert tuner.result().costs[7] == 1.0

    def test_result_type(self):
        tuner = SortPeriodAutoTuner(candidates=(3,), trial_iterations=1)
        tuner.record(2.0)
        assert isinstance(tuner.result(), TuneResult)


class TestEndToEndWithModel:
    def test_tuner_against_model_landscape(self):
        """Drive the online tuner with modeled costs: it must find the
        same optimum as the analytic sweep."""
        model = LoopCostModel(MachineSpec.haswell())
        cfg = OptimizationConfig.fully_optimized()
        candidates = (5, 10, 20, 50, 100)
        analytic = tune_sort_period_model(
            model, cfg, 1_000_000, BASE_MISSES,
            miss_growth_per_iter=0.08, candidates=candidates,
        )
        tuner = SortPeriodAutoTuner(candidates=candidates, trial_iterations=2)
        while not tuner.finished:
            tuner.record(analytic.cost_of(tuner.period))
        assert tuner.result().best_period == analytic.best_period


def _run(config, steps=25, n=3000):
    grid = GridSpec(32, 16, 0.0, 4 * np.pi, 0.0, 2 * np.pi)
    sim = Simulation(grid, LandauDamping(alpha=0.1), n, config,
                     dt=0.05, seed=3, quiet=True)
    sim.run(steps)
    return sim


class TestStepperIntegration:
    def test_auto_loop_mode_runs_and_records_decisions(self):
        cfg = OptimizationConfig.fully_optimized().with_(
            backend="numpy", loop_mode="auto"
        )
        sim = _run(cfg, steps=40)
        events = [d["event"] for d in sim.timings.autotune]
        assert events[0] == "settle"
        assert "probe" in events
        doc = json.loads(sim.timings_json())
        assert doc["cumulative"]["autotune"] == sim.timings.autotune
        restored = StepTimings.from_json(json.dumps(doc["cumulative"]))
        assert restored.autotune == sim.timings.autotune
        # both structures were actually exercised at least once
        assert len(sim.timings.loop_paths) >= 2


def _tuner(**kw):
    kw.setdefault("continuous", True)
    kw.setdefault("trial_iterations", 2)
    kw.setdefault("recheck_every", 5)
    kw.setdefault("probe_iterations", 2)
    return LoopModeAutoTuner(**kw)


def _drive_trials(tuner, fused_cost, split_cost):
    costs = {"fused": fused_cost, "split": split_cost}
    while not tuner.finished:
        tuner.record(costs[tuner.mode])


class TestContinuousTuner:
    def test_settle_decision_after_trials(self):
        tuner = _tuner()
        _drive_trials(tuner, fused_cost=2.0, split_cost=1.0)
        assert tuner.mode == "split"
        assert [d["event"] for d in tuner.decisions] == ["settle"]
        assert tuner.decisions[0]["mode"] == "split"
        assert tuner.ewma == {"fused": 2.0, "split": 1.0}

    def test_probe_then_switch_when_alternate_wins(self):
        # a long-enough probe lets the fresh evidence outweigh the
        # stale trial seed in the alternate's EWMA
        tuner = _tuner(probe_iterations=6)
        _drive_trials(tuner, fused_cost=2.0, split_cost=1.0)
        # steady state: split runs, but the world changed — fused is
        # now far cheaper, so the scheduled probe must flip the mode
        for _ in range(5):
            assert tuner.mode == "split"
            tuner.record(1.0)
        assert tuner.decisions[-1]["event"] == "probe"
        for _ in range(6):
            assert tuner.mode == "fused"  # probing
            tuner.record(0.2)
        assert tuner.decisions[-1]["event"] == "switch"
        assert tuner.decisions[-1]["to"] == "fused"
        assert tuner.mode == "fused"

    def test_hysteresis_no_flip_under_small_noise(self):
        """<5% cost noise must never change the loop path."""
        tuner = _tuner(hysteresis=0.05)
        _drive_trials(tuner, fused_cost=2.0, split_cost=1.0)
        rng = np.random.default_rng(11)
        for _ in range(200):
            mode = tuner.mode
            # alternate reads up to 4% cheaper than incumbent: inside
            # the hysteresis band either way
            base = 1.0 if mode == "split" else 0.97
            tuner.record(base * (1.0 + 0.01 * rng.standard_normal()))
        events = {d["event"] for d in tuner.decisions}
        assert "switch" not in events
        assert "keep" in events  # probes happened, all rejected
        assert tuner.mode == "split"

    def test_decisions_deterministic_for_same_costs(self):
        def run():
            tuner = _tuner()
            _drive_trials(tuner, fused_cost=1.0, split_cost=2.0)
            for i in range(40):
                tuner.record(1.0 + 0.5 * (i % 3 == 0))
            return tuner.decisions

        assert run() == run()

    def test_one_shot_ignores_post_trial_records(self):
        tuner = LoopModeAutoTuner(trial_iterations=1)
        tuner.record(2.0)  # fused
        tuner.record(1.0)  # split
        assert tuner.finished
        tuner.record(99.0)  # ignored: not continuous
        assert tuner.mode == "split"
        assert tuner.decisions == []

    def test_validation(self):
        with pytest.raises(ValueError):
            LoopModeAutoTuner(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            LoopModeAutoTuner(hysteresis=-0.1)
        with pytest.raises(ValueError):
            LoopModeAutoTuner(recheck_every=0)
        with pytest.raises(ValueError):
            LoopModeAutoTuner(probe_iterations=0)
