"""OptimizationConfig tests: validation, the store-coordinates rule;
ModelConfig tests: the model axes and the Table IV stack."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core import OptimizationConfig
from repro.model.config import ModelConfig
from tests.conftest import RETIRED_CONFIG

#: the six fields a run executes
RUN_FIELDS = (
    "ordering", "ordering_kwargs", "sort_period", "backend", "workers",
    "mp_task_timeout",
)
#: the keywords that left the run config: the six model axes and the
#: ``store_coords`` override
MODEL_ONLY = {"field_layout": "standard", "particle_layout": "aos",
              "loop_mode": "fused", "hoisting": False,
              "sort_variant": "in-place", "position_update": "branch",
              "store_coords": False}


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("field_layout", "sparse"),
            ("particle_layout", "soup"),
            ("loop_mode", "tiled"),
            ("position_update", "wrap"),
            ("sort_variant", "quick"),
        ],
    )
    def test_rejects_unknown_choices(self, field, value):
        with pytest.raises(ValueError):
            ModelConfig(**{field: value})

    def test_loop_mode_auto_is_an_ordinary_unknown_choice(self):
        with pytest.raises(
            ValueError, match=r"must be one of \('fused', 'split'\)"
        ):
            ModelConfig(loop_mode="auto")

    @pytest.mark.parametrize("field", sorted(RETIRED_CONFIG))
    def test_rejects_retired_fields(self, field):
        """The tiled-deposit, partition and chunk knobs are gone, not hidden."""
        with pytest.raises(TypeError):
            OptimizationConfig(**{field: 1})

    @pytest.mark.parametrize("field", sorted(MODEL_ONLY))
    def test_run_config_rejects_model_only_keywords(self, field):
        """The layout axes live on ModelConfig and the coordinate
        storage is the ordering's rule: the run config names neither."""
        with pytest.raises(TypeError):
            OptimizationConfig(**{field: MODEL_ONLY[field]})

    def test_run_config_is_the_six_executed_fields(self):
        assert tuple(
            f.name for f in dataclasses.fields(OptimizationConfig)
        ) == RUN_FIELDS
        assert not hasattr(OptimizationConfig, "table4_stack")

    def test_particle_layout_is_a_constant_not_a_field(self):
        """The frozen benchmark ledger reads ``cfg.particle_layout``."""
        assert OptimizationConfig().particle_layout == "soa"
        assert "particle_layout" not in dataclasses.asdict(OptimizationConfig())

    def test_position_update_is_a_constant_not_a_field(self):
        """The frozen benchmark ledger reads ``cfg.position_update`` and
        hands it to the push adapters; a run wraps the way its grid
        allows."""
        assert OptimizationConfig().position_update == "bitwise"
        assert "position_update" not in dataclasses.asdict(OptimizationConfig())
        assert ModelConfig(position_update="branch").position_update == "branch"

    def test_every_field_has_a_knob_ledger_row(self):
        """Every knob pays rent: docs/tuning.md justifies each field of
        the run config and each model axis."""
        ledger = (
            Path(__file__).resolve().parents[1] / "docs" / "tuning.md"
        ).read_text()
        rows = set(re.findall(r"^\| `(\w+)` \|", ledger, flags=re.M))
        fields = {f.name for f in dataclasses.fields(ModelConfig)}
        assert len(fields) == 12
        assert rows == fields

    def test_rejects_negative_sort_period(self):
        with pytest.raises(ValueError):
            OptimizationConfig(sort_period=-1)

    def test_frozen(self):
        cfg = OptimizationConfig()
        with pytest.raises(AttributeError):
            cfg.sort_period = 0

    def test_with_functional_update(self):
        cfg = OptimizationConfig().with_(sort_period=0)
        assert cfg.sort_period == 0
        assert OptimizationConfig().sort_period == 20


class TestStoreCoordsDefault:
    """The paper's §IV-B rule — recompute the scan orders' coordinates —
    is a priced model axis; every run stores them."""

    def test_row_major_recomputes(self):
        assert ModelConfig(ordering="row-major").effective_store_coords is False
        assert OptimizationConfig(ordering="row-major").effective_store_coords is True

    def test_column_major_recomputes(self):
        assert ModelConfig(ordering="column-major").effective_store_coords is False
        assert OptimizationConfig(ordering="column-major").effective_store_coords is True

    @pytest.mark.parametrize("name", ["l4d", "morton", "hilbert"])
    def test_sfc_orderings_store(self, name):
        assert ModelConfig(ordering=name).effective_store_coords is True
        assert OptimizationConfig(ordering=name).effective_store_coords is True

    def test_explicit_override(self):
        """There is no override: a class constant on the run config,
        the ordering's rule on the model's, and no field on either."""
        assert "effective_store_coords" not in {
            f.name for f in dataclasses.fields(ModelConfig)}
        for cls in (OptimizationConfig, ModelConfig):
            with pytest.raises(TypeError):
                cls(ordering="morton", store_coords=False)


#: ``dataclasses.asdict`` of the seven Table IV rows as the run config
#: built them while it still carried the axes (its ``store_coords``
#: was ``None`` in every row; the override is gone)
_ROW = dict(ordering_kwargs={}, sort_period=20, sort_variant="out-of-place",
            backend="auto", workers=None, mp_task_timeout=60.0)
TABLE4_ROWS = [
    ("Baseline", dict(
        _ROW, field_layout="standard", ordering="row-major",
        particle_layout="aos", loop_mode="fused", position_update="branch",
        hoisting=False)),
    ("+ Loop Hoisting", dict(
        _ROW, field_layout="standard", ordering="row-major",
        particle_layout="aos", loop_mode="fused", position_update="branch",
        hoisting=True)),
    ("+ Loop Splitting", dict(
        _ROW, field_layout="standard", ordering="row-major",
        particle_layout="aos", loop_mode="split", position_update="branch",
        hoisting=True)),
    ("+ Redundant arrays (E and rho)", dict(
        _ROW, field_layout="redundant", ordering="row-major",
        particle_layout="aos", loop_mode="split", position_update="branch",
        hoisting=True)),
    ("+ Structure of Arrays (particles)", dict(
        _ROW, field_layout="redundant", ordering="row-major",
        particle_layout="soa", loop_mode="split", position_update="branch",
        hoisting=True)),
    ("+ Space-filling curves (E and rho)", dict(
        _ROW, field_layout="redundant", ordering="morton",
        particle_layout="soa", loop_mode="split", position_update="branch",
        hoisting=True)),
    ("+ Optimized update-positions loop", dict(
        _ROW, field_layout="redundant", ordering="morton",
        particle_layout="soa", loop_mode="split", position_update="bitwise",
        hoisting=True)),
]


class TestTable4Stack:
    def test_seven_rows(self):
        stack = ModelConfig.table4_stack()
        assert len(stack) == 7
        assert stack[0][0] == "Baseline"

    def test_rows_are_the_pinned_configs(self):
        stack = ModelConfig.table4_stack()
        assert [label for label, _ in stack] == [label for label, _ in TABLE4_ROWS]
        for (_, cfg), (label, row) in zip(stack, TABLE4_ROWS):
            assert type(cfg) is ModelConfig, label
            assert dataclasses.asdict(cfg) == row, label

    def test_each_row_changes_exactly_one_axis(self):
        stack = [cfg for _, cfg in ModelConfig.table4_stack()]
        diffs = []
        fields = (
            "field_layout",
            "ordering",
            "particle_layout",
            "loop_mode",
            "position_update",
            "hoisting",
        )
        for a, b in zip(stack, stack[1:]):
            changed = [f for f in fields if getattr(a, f) != getattr(b, f)]
            diffs.append(changed)
        assert diffs == [
            ["hoisting"],
            ["loop_mode"],
            ["field_layout"],
            ["particle_layout"],
            ["ordering"],
            ["position_update"],
        ]

    def test_baseline_is_naive(self):
        b = ModelConfig.baseline()
        assert b.field_layout == "standard"
        assert b.particle_layout == "aos"
        assert b.loop_mode == "fused"
        assert b.position_update == "branch"
        assert b.hoisting is False

    def test_fully_optimized_is_paper_best(self):
        f = ModelConfig.fully_optimized()
        assert f == ModelConfig()
        assert f.field_layout == "redundant"
        assert f.ordering == "morton"
        assert f.particle_layout == "soa"
        assert f.loop_mode == "split"
        assert f.position_update == "bitwise"
        assert f.hoisting is True

    def test_fully_optimized_l4d_kwargs(self):
        f = ModelConfig.fully_optimized("l4d", size=16)
        assert f.ordering == "l4d"
        assert f.ordering_kwargs == {"size": 16}
