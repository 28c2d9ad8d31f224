"""OptimizationConfig tests: validation, presets, the Table IV stack."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core import OptimizationConfig
from tests.conftest import RETIRED_CONFIG


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
            OptimizationConfig(**{field: value})

    def test_loop_mode_auto_is_an_ordinary_unknown_choice(self):
        with pytest.raises(
            ValueError, match=r"must be one of \('fused', 'split'\)"
        ):
            OptimizationConfig(loop_mode="auto")

    @pytest.mark.parametrize("field", sorted(RETIRED_CONFIG))
    def test_rejects_retired_fields(self, field):
        """The tiled-deposit, partition and chunk knobs are gone, not hidden."""
        with pytest.raises(TypeError):
            OptimizationConfig(**{field: 1})

    def test_every_field_has_a_knob_ledger_row(self):
        """Every knob pays rent: docs/tuning.md justifies each field."""
        ledger = (
            Path(__file__).resolve().parents[1] / "docs" / "tuning.md"
        ).read_text()
        rows = set(re.findall(r"^\| `(\w+)` \|", ledger, flags=re.M))
        fields = {f.name for f in dataclasses.fields(OptimizationConfig)}
        assert len(fields) == 13
        assert rows == fields

    def test_rejects_negative_sort_period(self):
        with pytest.raises(ValueError):
            OptimizationConfig(sort_period=-1)

    def test_frozen(self):
        cfg = OptimizationConfig()
        with pytest.raises(AttributeError):
            cfg.hoisting = False

    def test_with_functional_update(self):
        cfg = OptimizationConfig().with_(hoisting=False)
        assert cfg.hoisting is False
        assert OptimizationConfig().hoisting is True


class TestStoreCoordsDefault:
    def test_row_major_recomputes(self):
        assert OptimizationConfig(ordering="row-major").effective_store_coords is False

    def test_column_major_recomputes(self):
        assert OptimizationConfig(ordering="column-major").effective_store_coords is False

    @pytest.mark.parametrize("name", ["l4d", "morton", "hilbert"])
    def test_sfc_orderings_store(self, name):
        assert OptimizationConfig(ordering=name).effective_store_coords is True

    def test_explicit_override(self):
        cfg = OptimizationConfig(ordering="morton", store_coords=False)
        assert cfg.effective_store_coords is False


class TestTable4Stack:
    def test_seven_rows(self):
        stack = OptimizationConfig.table4_stack()
        assert len(stack) == 7
        assert stack[0][0] == "Baseline"

    def test_each_row_changes_exactly_one_axis(self):
        stack = [cfg for _, cfg in OptimizationConfig.table4_stack()]
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
        b = OptimizationConfig.baseline()
        assert b.field_layout == "standard"
        assert b.particle_layout == "aos"
        assert b.loop_mode == "fused"
        assert b.position_update == "branch"
        assert b.hoisting is False

    def test_fully_optimized_is_paper_best(self):
        f = OptimizationConfig.fully_optimized()
        assert f.field_layout == "redundant"
        assert f.ordering == "morton"
        assert f.particle_layout == "soa"
        assert f.loop_mode == "split"
        assert f.position_update == "bitwise"
        assert f.hoisting is True

    def test_fully_optimized_l4d_kwargs(self):
        f = OptimizationConfig.fully_optimized("l4d", size=16)
        assert f.ordering == "l4d"
        assert f.ordering_kwargs == {"size": 16}
