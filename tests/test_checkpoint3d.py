"""3D checkpoint/resume tests (repro.core.checkpoint, 3D half).

Mirrors the 2D park/restore guarantee from
``test_service_engine.py::TestPreemptResume``: a 3D run preempted at a
step boundary and resumed from its checkpoint must be **bitwise
identical** to the uninterrupted run — on the numpy backend and when
resumed onto ``numpy-mp`` (the backend switch the supervisor uses).
Plus the error surface: torn archives, version/config mismatches, and
cross-dimensional loads are :class:`CheckpointMismatchError`, never a
raw traceback.
"""

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointMismatchError,
    load_checkpoint,
    load_checkpoint_3d,
    save_checkpoint_3d,
)
from repro.core.config import OptimizationConfig
from repro.pic3d import GridSpec3D, PICStepper3D, TwoStream3D
from repro.pic3d.stepper3d import PARTICLE_KEYS_3D
from tests.conftest import RETIRED_CONFIG, rewrite_saved_config


def _grid():
    return GridSpec3D(8, 8, 4, xmax=4 * np.pi, ymax=2 * np.pi,
                      zmax=2 * np.pi)


def _config(**overrides):
    params = dict(
        field_layout="redundant", ordering="morton", loop_mode="split",
        position_update="bitwise", hoisting=True, sort_period=3,
        backend="numpy",
    )
    params.update(overrides)
    return OptimizationConfig(**params)


def _fresh(n=1500, cfg=None):
    return PICStepper3D(_grid(), TwoStream3D(), n, dt=0.1,
                        config=cfg or _config())


def _assert_state_equal(a, b):
    for key in PARTICLE_KEYS_3D:
        assert np.asarray(a.particles[key]).tobytes() == \
            np.asarray(b.particles[key]).tobytes(), key
    for name in ("rho_grid", "ex_grid", "ey_grid", "ez_grid"):
        assert np.asarray(getattr(a, name)).tobytes() == \
            np.asarray(getattr(b, name)).tobytes(), name


class TestRoundtrip:
    def test_save_load_preserves_state_verbatim(self, tmp_path):
        s = _fresh()
        try:
            s.run(5)
            path = save_checkpoint_3d(s, tmp_path / "ck")
            assert path.suffix == ".npz"
            restored = load_checkpoint_3d(path)
            try:
                assert restored.iteration == s.iteration
                assert restored.weight == s.weight
                assert restored.grid.shape == s.grid.shape
                _assert_state_equal(restored, s)
            finally:
                restored.close()
        finally:
            s.close()

    def test_compressed_roundtrip(self, tmp_path):
        s = _fresh(n=400)
        try:
            s.run(2)
            path = save_checkpoint_3d(s, tmp_path / "ck", compress=True)
            restored = load_checkpoint_3d(path)
            try:
                _assert_state_equal(restored, s)
            finally:
                restored.close()
        finally:
            s.close()


class TestPreemptResume3D:
    def test_preempt_then_resume_bitwise_equals_uninterrupted(self, tmp_path):
        """The 3D twin of the 2D headline guarantee: park/restore
        costs zero ULPs across sorts and field solves."""
        ref = _fresh()
        ref.run(20)
        a = _fresh()
        a.run(8)
        park = save_checkpoint_3d(a, tmp_path / "park")
        a.close()
        resumed = load_checkpoint_3d(park)
        try:
            resumed.run(12)
            _assert_state_equal(resumed, ref)
        finally:
            resumed.close()
            ref.close()

    def test_resume_onto_numpy_mp_bitwise(self, tmp_path):
        """Backend switch on restore (the supervisor's degrade move):
        the mp corner-ownership deposit keeps the run bitwise."""
        ref = _fresh()
        ref.run(14)
        a = _fresh()
        a.run(6)
        park = save_checkpoint_3d(a, tmp_path / "park")
        a.close()
        resumed = load_checkpoint_3d(
            park, _config(backend="numpy-mp", workers=2)
        )
        try:
            resumed.run(8)
            _assert_state_equal(resumed, ref)
        finally:
            resumed.close()
            ref.close()


    def test_pre_pr12_archive_resumes_bitwise(self, tmp_path):
        """An archive whose stored config still carries the six keys
        PR 12 retired loads and resumes exactly like a current one."""
        ref = _fresh()
        ref.run(14)
        a = _fresh()
        a.run(6)
        park = save_checkpoint_3d(a, tmp_path / "park")
        a.close()
        rewrite_saved_config(park, RETIRED_CONFIG)
        resumed = load_checkpoint_3d(park)
        try:
            resumed.run(8)
            _assert_state_equal(resumed, ref)
        finally:
            resumed.close()
            ref.close()


class TestErrorSurface:
    def test_missing_file_raises_mismatch(self, tmp_path):
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint_3d(tmp_path / "nope.npz")

    def test_torn_archive_raises_mismatch(self, tmp_path):
        s = _fresh(n=300)
        try:
            path = save_checkpoint_3d(s, tmp_path / "ck")
        finally:
            s.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint_3d(path)

    def test_incompatible_config_rejected(self, tmp_path):
        s = _fresh(n=300)
        try:
            path = save_checkpoint_3d(s, tmp_path / "ck")
        finally:
            s.close()
        with pytest.raises(CheckpointMismatchError, match="ordering"):
            load_checkpoint_3d(path, _config(ordering="row-major"))

    def test_2d_loader_rejects_3d_archive_and_vice_versa(self, tmp_path):
        s = _fresh(n=300)
        try:
            path3d = save_checkpoint_3d(s, tmp_path / "ck3d")
        finally:
            s.close()
        with pytest.raises(CheckpointMismatchError, match="version"):
            load_checkpoint(path3d)

        from repro.core.stepper import PICStepper
        from repro.core.checkpoint import save_checkpoint
        from repro.grid.spec import GridSpec
        from repro.particles.initializers import LandauDamping

        s2 = PICStepper(
            GridSpec(16, 8, xmax=4 * np.pi, ymax=2 * np.pi), _config(),
            case=LandauDamping(alpha=0.1), n_particles=200, seed=0,
            quiet=True,
        )
        try:
            path2d = save_checkpoint(s2, tmp_path / "ck2d")
        finally:
            s2.close()
        with pytest.raises(CheckpointMismatchError, match="version"):
            load_checkpoint_3d(path2d)
