"""Checkpoint save/restore tests: bit-exact continuation."""

import json

import numpy as np
import pytest

from repro.core import OptimizationConfig, PICStepper
from repro.core.checkpoint import (
    CheckpointMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from repro.grid import GridSpec
from repro.particles import LandauDamping
from tests.conftest import RETIRED_CONFIG, rewrite_saved_config


@pytest.fixture
def grid():
    return GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


def fresh_stepper(grid, cfg=None, n=3000):
    cfg = cfg or OptimizationConfig.fully_optimized()
    return PICStepper(
        grid, cfg, case=LandauDamping(alpha=0.05), n_particles=n,
        dt=0.1, quiet=True, seed=None,
    )


class TestRoundTrip:
    def test_restore_continues_bit_exactly(self, grid, tmp_path):
        a = fresh_stepper(grid)
        a.run(5)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        b = load_checkpoint(path)
        # continue both for several steps: fields must match exactly
        a.run(7)
        b.run(7)
        np.testing.assert_array_equal(a.ex_grid, b.ex_grid)
        np.testing.assert_array_equal(
            np.asarray(a.particles.dx), np.asarray(b.particles.dx)
        )
        assert b.iteration == a.iteration

    def test_restore_preserves_metadata(self, grid, tmp_path):
        a = fresh_stepper(grid)
        a.run(3)
        b = load_checkpoint(save_checkpoint(a, tmp_path / "ck.npz"))
        assert b.dt == a.dt
        assert b.q == a.q and b.m == a.m
        assert b.particles.weight == a.particles.weight
        assert b.particles.n == a.particles.n
        assert b.config == a.config

    @pytest.mark.parametrize(
        "cfg",
        [
            OptimizationConfig.baseline(),
            OptimizationConfig.fully_optimized("l4d", size=8),
            OptimizationConfig.fully_optimized().with_(hoisting=False),
        ],
        ids=["baseline", "l4d", "no-hoist"],
    )
    def test_roundtrip_across_configs(self, grid, tmp_path, cfg):
        a = fresh_stepper(grid, cfg)
        a.run(4)
        b = load_checkpoint(save_checkpoint(a, tmp_path / "ck.npz"))
        a.step()
        b.step()
        np.testing.assert_array_equal(a.ex_grid, b.ex_grid)

    def test_sort_state_continues(self, grid, tmp_path):
        cfg = OptimizationConfig.fully_optimized().with_(sort_period=4)
        a = fresh_stepper(grid, cfg)
        a.run(3)  # next step sorts
        b = load_checkpoint(save_checkpoint(a, tmp_path / "ck.npz"))
        a.run(3)
        b.run(3)
        np.testing.assert_array_equal(a.ex_grid, b.ex_grid)


class TestCompatibilityChecks:
    def test_incompatible_layout_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        with pytest.raises(CheckpointMismatchError, match="particle_layout"):
            load_checkpoint(
                path, OptimizationConfig.fully_optimized().with_(particle_layout="aos")
            )

    def test_incompatible_ordering_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        with pytest.raises(CheckpointMismatchError, match="ordering"):
            load_checkpoint(
                path, OptimizationConfig.fully_optimized("hilbert")
            )

    def test_compatible_override_allowed(self, grid, tmp_path):
        """Changing the sort period is state-compatible."""
        a = fresh_stepper(grid)
        a.run(2)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        b = load_checkpoint(
            path, OptimizationConfig.fully_optimized().with_(sort_period=7)
        )
        assert b.config.sort_period == 7
        b.step()  # runs fine

    def test_bad_version_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "_meta"}
            meta = json.loads(str(data["_meta"]))
        meta["format_version"] = 999
        np.savez_compressed(path, _meta=json.dumps(meta), **arrays)
        with pytest.raises(CheckpointMismatchError, match="version"):
            load_checkpoint(path)


class TestRetiredConfigKeys:
    def test_pre_pr12_archive_resumes_bitwise(self, grid, tmp_path):
        """A rotation checkpoint written before the tiled deposit and
        the partition knobs were retired must still load — otherwise
        ``repro serve --recover`` silently restarts jobs from step 0."""
        ref = fresh_stepper(grid)
        ref.run(12)
        a = fresh_stepper(grid)
        a.run(5)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        rewrite_saved_config(path, RETIRED_CONFIG)
        b = load_checkpoint(path)
        assert b.config == a.config
        b.run(7)
        assert b.iteration == ref.iteration
        for name in ("icell", "dx", "dy", "vx", "vy"):
            assert np.asarray(getattr(b.particles, name)).tobytes() == \
                np.asarray(getattr(ref.particles, name)).tobytes(), name
        for name in ("rho_grid", "ex_grid", "ey_grid"):
            assert getattr(b, name).tobytes() == \
                getattr(ref, name).tobytes(), name

    def test_other_unknown_key_still_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid, n=500)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        rewrite_saved_config(path, {**RETIRED_CONFIG, "warp_factor": 9})
        with pytest.raises(CheckpointMismatchError, match="unusable config"):
            load_checkpoint(path)


class TestCrashSafety:
    def test_save_leaves_no_tmp_sibling(self, grid, tmp_path):
        a = fresh_stepper(grid, n=500)
        save_checkpoint(a, tmp_path / "ck.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]

    def test_suffix_normalized(self, grid, tmp_path):
        a = fresh_stepper(grid, n=500)
        path = save_checkpoint(a, tmp_path / "ck")
        assert path.name == "ck.npz" and path.exists()

    def test_failed_write_preserves_previous_checkpoint(
        self, grid, tmp_path, monkeypatch
    ):
        a = fresh_stepper(grid, n=500)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        good = path.read_bytes()
        a.step()

        def boom(*_a, **_kw):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", boom)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(a, path)
        assert path.read_bytes() == good  # old archive untouched
        assert list(tmp_path.glob("*.tmp")) == []  # no litter either

    def test_truncated_archive_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid, n=500)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(CheckpointMismatchError, match="corrupt"):
            load_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    def test_missing_array_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid, n=500)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        with np.load(path) as data:
            arrays = {
                k: data[k] for k in data.files if k not in ("_meta", "vx")
            }
            meta = str(data["_meta"])
        np.savez_compressed(path, _meta=meta, **arrays)
        with pytest.raises(CheckpointMismatchError, match="missing arrays.*vx"):
            load_checkpoint(path)

    def test_missing_meta_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid, n=500)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "_meta"}
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointMismatchError, match="metadata"):
            load_checkpoint(path)
