"""Cost-model tests: the paper's qualitative claims as assertions.

These tests pin the *shape* of the model — who is faster than whom and
why — not absolute times.  Every assertion corresponds to a sentence
in §IV of the paper.  The two queries that live next to the model —
the sort-period tuner (§IV-E future work) and the ``repro calibrate``
fit — are tested at the bottom.
"""

import json

import numpy as np
import pytest

from repro.model.config import ModelConfig
from repro.model.costmodel import (
    FRESH_SORT_MISSES,
    LoopCostModel,
    LoopKind,
    fit_stall_overlap,
    tune_sort_period_model,
)
from repro.model.machine import MachineSpec


@pytest.fixture
def model():
    return LoopCostModel(MachineSpec.haswell())


def loop_ns(model, kind, cfg, misses=None):
    return model.loop_costs(kind, cfg, misses).ns_per_particle(model.machine)


OPT = ModelConfig.fully_optimized()


class TestUpdateXVariants:
    def test_bitwise_beats_modulo(self, model):
        # §IV-C3: 31% improvement from removing the floor() call
        t_mod = loop_ns(model, LoopKind.UPDATE_X, OPT.with_(position_update="modulo"))
        t_bit = loop_ns(model, LoopKind.UPDATE_X, OPT)
        assert t_bit < t_mod
        assert (t_mod - t_bit) / t_mod > 0.15

    def test_modulo_beats_branch(self, model):
        # §IV-C2: removing the `if` enables vectorization
        t_branch = loop_ns(model, LoopKind.UPDATE_X, OPT.with_(position_update="branch"))
        t_mod = loop_ns(model, LoopKind.UPDATE_X, OPT.with_(position_update="modulo"))
        assert t_mod < t_branch

    def test_branch_cost_grows_with_escape_rate(self):
        m = MachineSpec.haswell()
        calm = LoopCostModel(m, p_escape=0.001)
        wild = LoopCostModel(m, p_escape=0.3)
        cfg = OPT.with_(position_update="branch")
        assert loop_ns(wild, LoopKind.UPDATE_X, cfg) > loop_ns(calm, LoopKind.UPDATE_X, cfg)

    def test_hilbert_catastrophic_on_update_x(self, model):
        # Table III: 133 s vs ~15 s — the Hilbert encode is serial
        t_h = loop_ns(model, LoopKind.UPDATE_X, OPT.with_(ordering="hilbert"))
        t_m = loop_ns(model, LoopKind.UPDATE_X, OPT)
        assert t_h > 4 * t_m

    def test_row_major_cheapest_update_x(self, model):
        # Table III: 12.8 (row) < 15.3 (morton) — no stored coords, 1-op encode
        t_r = loop_ns(model, LoopKind.UPDATE_X, OPT.with_(ordering="row-major"))
        t_m = loop_ns(model, LoopKind.UPDATE_X, OPT)
        assert t_r < t_m

    def test_unknown_ordering_raises(self, model):
        with pytest.raises(KeyError):
            model.loop_costs(LoopKind.UPDATE_X, OPT.with_(ordering="column-major", ordering_kwargs={}).with_(ordering="weird"))


class TestLayoutEffects:
    def test_soa_beats_aos_everywhere(self, model):
        for kind in LoopKind:
            t_soa = loop_ns(model, kind, OPT)
            t_aos = loop_ns(model, kind, OPT.with_(particle_layout="aos"))
            assert t_soa < t_aos, kind

    def test_redundant_accumulate_beats_standard(self, model):
        # Fig. 2 / §IV-B: the contiguous rows vectorize, the scatter
        # does not (15% gain with Intel on top of layout effects)
        t_red = loop_ns(model, LoopKind.ACCUMULATE, OPT)
        t_std = loop_ns(model, LoopKind.ACCUMULATE, OPT.with_(field_layout="standard", ordering="row-major"))
        assert t_red < t_std

    def test_redundant_update_v_close_to_standard(self, model):
        # Table III: 2d standard 30.6 vs redundant row-major 32.3 —
        # within ~10% of each other
        t_red = loop_ns(model, LoopKind.UPDATE_V, OPT.with_(ordering="row-major"))
        t_std = loop_ns(
            model, LoopKind.UPDATE_V,
            OPT.with_(field_layout="standard", ordering="row-major"),
        )
        assert abs(t_red - t_std) / t_std < 0.25

    def test_split_beats_fused_when_vectorizable(self, model):
        t_split = loop_ns(model, LoopKind.UPDATE_V, OPT)
        t_fused = loop_ns(model, LoopKind.UPDATE_V, OPT.with_(loop_mode="fused"))
        assert t_split < t_fused

    def test_hoisting_saves_multiplies(self, model):
        for kind in (LoopKind.UPDATE_V, LoopKind.UPDATE_X):
            t_on = loop_ns(model, kind, OPT)
            t_off = loop_ns(model, kind, OPT.with_(hoisting=False))
            assert t_on < t_off, kind


class TestStallTerm:
    def test_misses_add_stall(self, model):
        base = model.loop_costs(LoopKind.UPDATE_V, OPT)
        with_misses = model.loop_costs(
            LoopKind.UPDATE_V, OPT, {"L1": 1.0, "L2": 0.5, "L3": 0.1}
        )
        assert with_misses.stall_cycles > 0
        assert base.stall_cycles == 0.0
        assert with_misses.cycles_per_particle > base.cycles_per_particle

    def test_stall_linear_in_misses(self, model):
        one = model.loop_costs(LoopKind.UPDATE_V, OPT, {"L2": 1.0})
        two = model.loop_costs(LoopKind.UPDATE_V, OPT, {"L2": 2.0})
        assert two.stall_cycles == pytest.approx(2 * one.stall_cycles)

    def test_overlap_derates(self):
        m = MachineSpec.haswell()
        exposed = LoopCostModel(m, stall_overlap=1.0)
        hidden = LoopCostModel(m, stall_overlap=0.1)
        se = exposed.loop_costs(LoopKind.UPDATE_V, OPT, {"L3": 1.0}).stall_cycles
        sh = hidden.loop_costs(LoopKind.UPDATE_V, OPT, {"L3": 1.0}).stall_cycles
        assert se == pytest.approx(10 * sh)

    def test_unknown_level_raises(self, model):
        with pytest.raises(KeyError):
            model.loop_costs(LoopKind.UPDATE_V, OPT, {"L9": 1.0})


class TestIterationAndSort:
    def test_iteration_breakdown_keys(self, model):
        t = model.iteration_seconds(OPT, 10_000)
        assert set(t) == {"update_v", "update_x", "accumulate", "sort", "total"}
        assert t["total"] == pytest.approx(
            t["update_v"] + t["update_x"] + t["accumulate"] + t["sort"]
        )

    def test_sort_amortized_by_period(self, model):
        t20 = model.iteration_seconds(OPT.with_(sort_period=20), 10_000)["sort"]
        t40 = model.iteration_seconds(OPT.with_(sort_period=40), 10_000)["sort"]
        assert t20 == pytest.approx(2 * t40)

    def test_sort_disabled(self, model):
        assert model.iteration_seconds(OPT.with_(sort_period=0), 1000)["sort"] == 0.0

    def test_in_place_sort_slower(self, model):
        # §V-B1: out-of-place measured twice as fast
        oop = model.sort_seconds_per_call(10_000, OPT)
        inp = model.sort_seconds_per_call(10_000, OPT.with_(sort_variant="in-place"))
        assert inp > 1.5 * oop

    def test_times_scale_linearly_with_n(self, model):
        t1 = model.iteration_seconds(OPT, 1000)["total"]
        t2 = model.iteration_seconds(OPT, 2000)["total"]
        assert t2 == pytest.approx(2 * t1, rel=1e-9)


class TestTable4Monotonicity:
    def test_cumulative_stack_non_increasing_with_stalls(self, model):
        """Walking Table IV with representative miss data must not
        increase total time at any step (the paper's accumulated gains
        are monotone)."""
        # per-particle misses in the ratios the scaled cache simulator
        # measures (see benchmarks/bench_table2): row-major ~2x the
        # space-filling curves at L2/L3, fused mode ~1.5x split
        def misses_for(cfg):
            bad = cfg.field_layout == "standard" or cfg.ordering == "row-major"
            scale = 1.5 if cfg.loop_mode == "fused" else 1.0
            l2 = (0.85 if bad else 0.46) * scale
            l3 = (0.55 if bad else 0.29) * scale
            return {
                LoopKind.UPDATE_V: {"L2": l2 / 2, "L3": l3 / 2},
                LoopKind.UPDATE_X: {},
                LoopKind.ACCUMULATE: {"L2": l2 / 2, "L3": l3 / 2},
            }

        totals = []
        for label, cfg in ModelConfig.table4_stack():
            t = model.iteration_seconds(cfg, 1_000_000, misses_for(cfg))
            totals.append((label, t["total"]))
        for (la, ta), (lb, tb) in zip(totals, totals[1:]):
            assert tb <= ta * 1.02, f"{lb} regressed vs {la}"
        # and the full stack wins big overall (paper: 42.8%)
        assert totals[-1][1] < 0.75 * totals[0][1]

    def test_throughput_exposed(self, model):
        c = model.loop_costs(LoopKind.UPDATE_X, OPT)
        assert c.throughput > MachineSpec.haswell().scalar_ipc
        c2 = model.loop_costs(LoopKind.UPDATE_X, OPT.with_(position_update="branch"))
        assert c2.throughput == MachineSpec.haswell().scalar_ipc


BASE_MISSES = {
    LoopKind.UPDATE_V: {"L2": 0.10, "L3": 0.03},
    LoopKind.UPDATE_X: {},
    LoopKind.ACCUMULATE: {"L2": 0.06, "L3": 0.02},
}


class TestModelTuner:
    def test_finds_interior_optimum(self, model):
        res = tune_sort_period_model(model, OPT, 1_000_000, BASE_MISSES)
        assert res.best_period in res.costs
        # an interior optimum: both extremes cost more
        periods = sorted(res.costs)
        assert res.costs[res.best_period] <= res.costs[periods[0]]
        assert res.costs[res.best_period] <= res.costs[periods[-1]]

    def test_costlier_misses_mean_sorting_more_often(self, model):
        """The paper's observation: Haswell (sort every 20) vs Sandy
        Bridge (every 50) — pricier stalls shift the optimum down."""
        cheap = tune_sort_period_model(
            model, OPT, 1_000_000, BASE_MISSES, miss_growth_per_iter=0.01
        )
        pricey = tune_sort_period_model(
            model, OPT, 1_000_000, BASE_MISSES, miss_growth_per_iter=0.5
        )
        assert pricey.best_period <= cheap.best_period

    def test_zero_growth_never_sorts(self, model):
        res = tune_sort_period_model(
            model, OPT, 1_000_000, BASE_MISSES, miss_growth_per_iter=0.0
        )
        # with no disorder penalty the longest period wins
        assert res.best_period == max(res.costs)

    def test_rejects_negative_growth(self, model):
        with pytest.raises(ValueError):
            tune_sort_period_model(
                model, OPT, 1000, BASE_MISSES, miss_growth_per_iter=-0.1
            )


class TestCalibration:
    def _record(self):
        return {
            "cumulative": {
                "particle_steps": 1_000_000,
                "steps": 50,
                "update_v": 0.030,
                "update_x": 0.012,
                "accumulate": 0.040,
            }
        }

    def test_fit_is_deterministic(self):
        a = fit_stall_overlap(self._record())
        b = fit_stall_overlap(self._record())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_fit_output_shape(self):
        cal = fit_stall_overlap(self._record())
        assert 0.0 <= cal["stall_overlap"] <= 1.0
        assert cal["freq_scale"] > 0
        assert np.isfinite(cal["residual_rms_s"])
        assert cal["particle_steps"] == 1_000_000
        assert set(cal["loops"]) == {"update_v", "update_x", "accumulate"}
        for row in cal["loops"].values():
            assert row["modeled_s"] > 0
        assert cal["misses_assumed"] == {
            k.value: dict(v) for k, v in FRESH_SORT_MISSES.items()
        }

    def test_accepts_bare_steptimings_record(self):
        bare = self._record()["cumulative"]
        cal = fit_stall_overlap(bare)
        assert cal["steps"] == 50

    def test_rejects_empty_records(self):
        with pytest.raises(ValueError):
            fit_stall_overlap({"cumulative": {"particle_steps": 0}})
        with pytest.raises(ValueError):
            fit_stall_overlap({"cumulative": {"particle_steps": 100}})
