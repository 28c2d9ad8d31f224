"""Checkpoint save/restore tests: bit-exact continuation.

:class:`TestBothDimensions` is the 2D/3D suite over the one checkpoint
body (``pytest.mark.parametrize`` over ``ndim``): verbatim round trip,
preempt→resume **bitwise identical** to the uninterrupted run (on
numpy and resumed onto ``numpy-mp``, the backend switch the supervisor
uses), archives from before the tiled-deposit knobs went and from the
pre-unification 3D writer, saved under the retired ``loop_mode="auto"``
or from a :class:`ModelConfig` run, and the error surface —
torn archives, missing arrays, version/config mismatches and
format keys of the other dimension than the grid record's are
:class:`CheckpointMismatchError`, never a raw traceback.  One
``save_checkpoint`` / ``load_checkpoint`` pair serves both dimensions
(the loader reads the dimension off the archive's grid record); the
``_3d`` names are that pair under the names the benchmark ledger
calls.  The classes below it are 2D-only specifics.
"""

import dataclasses
import hashlib
import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.core import OptimizationConfig, PICStepper
from repro.core.backends import CBackend
from repro.core.checkpoint import (
    CheckpointMismatchError,
    load_checkpoint,
    load_checkpoint_3d,
    save_checkpoint,
    save_checkpoint_3d,
)
from repro.core.diagnostics import field_energy, kinetic_energy
from repro.grid import GridSpec, RedundantFields
from repro.model.config import ModelConfig
from repro.particles import LandauDamping, ParticleSoA
from repro.particles.storage import particle_fields
from repro.perf.instrument import Instrumentation
from repro.pic3d import GridSpec3D, PICStepper3D, TwoStream3D
from repro.verify.golden import state_digest
from tests.conftest import RETIRED_CONFIG, rewrite_saved_config

#: a 3D archive written by the parent of PR 15 (commit 678ba87) —
#: dict-of-arrays particles, hand-spelled writer: ``_config_3d()``
#: stepper, 400 particles, after 6 steps
ARCHIVE_3D_PR14 = pathlib.Path(__file__).parent / "data" / "checkpoint3d_pr14.npz"
#: a 2D archive written while the point-based field layout and the AoS
#: particle store still existed: two-stream, 8x8, 400 particles, seed
#: 7, dt 0.1, un-hoisted, Morton, sort every 3, ``numpy``, saved after
#: 4 steps under ``field_layout="standard"`` and ``particle_layout=
#: "aos"`` (its metadata says ``layout: "aos"``)
ARCHIVE_STANDARD_AOS = (
    pathlib.Path(__file__).parent / "data" / "checkpoint_standard_aos.npz"
)
#: what that archive continues on since every run is hoisted: its
#: velocities converted once (``v * dt / spacing``) and its field
#: re-scaled, then 4 more steps — recorded by the code that still ran
#: un-hoisted units, with the conversion made by hand.  (Its un-hoisted
#: continuation, ``62369c84…b9ae``, was the undisturbed run's
#: ``state_digest`` after 8 steps.)
STANDARD_AOS_HOISTED_8 = (
    "931efea1ff76519d958f7932b7718eda4d15f9d7b550c4d264075a3c94ed0aa5"
)
#: a 2D archive written by an un-hoisted run of the last code that had
#: one (physical velocities, field rows unscaled): Landau, 16x16,
#: 2,000 particles, seed 7, dt 0.1, Morton, sort every 3, ``numpy``,
#: saved after 5 steps; beside it, that code's field and kinetic
#: energy over 10 more steps
ARCHIVE_UNHOISTED = pathlib.Path(__file__).parent / "data" / "checkpoint_unhoisted_pr36.npz"
UNHOISTED_ENERGIES = ARCHIVE_UNHOISTED.with_suffix(".json")
#: a 2D archive the job engine parked at step 101 (two-stream, 8x8,
#: 256 particles, Morton, ``numpy``)
ARCHIVE_ENGINE_PARKED = (
    pathlib.Path(__file__).parent / "data" / "engine_parked_pr22"
    / "parent-job" / "ckpt-00000101.npz"
)
#: every committed archive that names the model axes: (path, loader,
#: the iteration it was saved at, ``_resume_digest`` after four more
#: steps — what the code that still carried the model axes on the run
#: config printed)
COMMITTED_ARCHIVES = {
    "standard-aos": (ARCHIVE_STANDARD_AOS, load_checkpoint, 4, STANDARD_AOS_HOISTED_8),
    "3d-writer": (ARCHIVE_3D_PR14, load_checkpoint_3d, 6,
                  "e1c6e2125f0b6cf9305d56074bd5da88e70209292fbb57a282e11997cd4f7be8"),
    "engine-parked": (ARCHIVE_ENGINE_PARKED, load_checkpoint, 101,
                      "8e60fd263d55049571d45d0234a66c45f2c099279a8b4a1bc0ddd99c10f498b3"),
}
#: a 3D archive written by the three-class stepper (a shared step-loop
#: base class, a 2D and a 3D stepper class, each with its own loader
#: and unit scales) just before they became one class: Landau
#: (``alpha=0.1``), 8x4x4 cells over 4pi x 2pi x 2pi, 4,000 particles,
#: Morton, sort every 5, dt 0.1, ``numpy``, saved after 5 steps; beside
#: it the ``_resume_digest`` that code printed after 5 more steps (on
#: ``numpy``, ``c`` and ``numpy-mp`` alike, and equal to the
#: undisturbed run's)
ARCHIVE_3D_STEPLOOP = pathlib.Path(__file__).parent / "data" / "checkpoint3d_steploop.npz"
STEPLOOP_RESUMED_10 = "4793dbbfc0259aeccd6736856fce666841a7b373a3beabba143f2b5ca2782af5"
#: archives of scan-order runs written while those orders recomputed
#: their cell coordinates (``store_coords`` false, no ``pix`` / ``piy``
#: / ``piz``): Landau (alpha 0.05), 16x16 over 4pi, 2,000 particles,
#: seed 7, dt 0.1, row-major, sort every 3, ``numpy``; and
#: ``PICStepper3D`` configured row-major, Landau3D (alpha 0.1), 8x4x4
#: over 4pi x 2pi x 2pi, 2,000 particles, the same stepping — both
#: saved after 5 steps.  Beside each, the ``_resume_digest`` that code
#: printed after 5 more steps (on ``numpy``, ``c`` and ``numpy-mp``
#: alike, and equal to the undisturbed run's)
SCAN_ORDER_ARCHIVES = {
    "2d-row-major": (
        pathlib.Path(__file__).parent / "data" / "checkpoint_rowmajor_recomputed.npz",
        "c3716f0bdc2b1e966a17b856cf0a545ce399545f037dae3d76c374e75ed1939e"),
    "3d-row-major": (
        pathlib.Path(__file__).parent / "data" / "checkpoint3d_rowmajor_recomputed.npz",
        "7dc23ceed6c6d30ecfe83457a01205d20afbfc4ef2e4f248f95fff6784ac6304"),
}


def _resume_digest(st):
    """sha256 over every particle column but the stored coordinates
    and every solved grid — :func:`state_digest` in 2D, with ``dz`` /
    ``vz`` / ``ez_grid`` in 3D."""
    h = hashlib.sha256()
    ndim = st.particles.ndim
    for name in particle_fields(ndim)[: 1 + 2 * ndim]:
        h.update(np.ascontiguousarray(np.asarray(st.particles[name])).tobytes())
    for name in ("rho_grid", "ex_grid", "ey_grid", "ez_grid")[: ndim + 1]:
        h.update(np.ascontiguousarray(getattr(st, name)).tobytes())
    return h.hexdigest()


def _model(cfg, **axes):
    """``cfg`` as a :class:`ModelConfig` naming ``axes``."""
    return ModelConfig(**dataclasses.asdict(cfg), **axes)


@pytest.fixture
def grid():
    return GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)


def fresh_stepper(grid, cfg=None, n=3000):
    cfg = cfg or OptimizationConfig()
    return PICStepper(
        grid, cfg, case=LandauDamping(alpha=0.05), n_particles=n,
        dt=0.1, quiet=True, seed=None,
    )


def _config_3d(**overrides):
    params = dict(
        ordering="morton", sort_period=3,
        backend="numpy",
    )
    params.update(overrides)
    return OptimizationConfig(**params)


class _Dim:
    """What differs between a 2D and a 3D run of the one checkpoint
    pair: the stepper and its solved grids."""

    def __init__(self, ndim):
        self.ndim = ndim
        self.save, self.load = save_checkpoint, load_checkpoint
        if ndim == 2:
            self.config = lambda **kw: OptimizationConfig(
                **{"sort_period": 3, "backend": "numpy", **kw})
            self.grids = ("rho_grid", "ex_grid", "ey_grid")
        else:
            self.config = _config_3d
            self.grids = ("rho_grid", "ex_grid", "ey_grid", "ez_grid")

    def fresh(self, n=1500, cfg=None):
        cfg = cfg or self.config()
        if self.ndim == 2:
            return PICStepper(
                GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi), cfg,
                case=LandauDamping(alpha=0.05), n_particles=n, dt=0.1,
                quiet=True, seed=None,
            )
        grid = GridSpec3D(8, 8, 4, xmax=4 * np.pi, ymax=2 * np.pi, zmax=2 * np.pi)
        return PICStepper3D(grid, TwoStream3D(), n, dt=0.1, config=cfg)

    def saved(self, tmp_path, n=300, steps=0):
        s = self.fresh(n)
        try:
            s.run(steps)
            return self.save(s, tmp_path / f"ck{self.ndim}d")
        finally:
            s.close()

    def assert_state_equal(self, a, b):
        assert a.particles.keys() == b.particles.keys()
        for key in a.particles.keys():
            assert a.particles[key].tobytes() == b.particles[key].tobytes(), key
        for name in self.grids:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _rewrite(path, drop=(), **meta_updates):
    """Re-save an archive without the ``drop`` arrays / with metadata
    keys overwritten — what a foreign or damaged writer leaves."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k not in ("_meta", *drop)}
        meta = json.loads(str(data["_meta"]))
    meta.update(meta_updates)
    np.savez_compressed(path, _meta=json.dumps(meta), **arrays)


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def dim(request):
    return _Dim(request.param)


class TestBothDimensions:
    # -- round trip ----------------------------------------------------
    # [3d] was test_checkpoint3d.py::TestRoundtrip::test_save_load_preserves_state_verbatim
    def test_save_load_preserves_state_verbatim(self, dim, tmp_path):
        s = dim.fresh()
        s.run(5)
        path = dim.save(s, tmp_path / "ck")
        assert path.suffix == ".npz"
        restored = dim.load(path)
        try:
            assert restored.iteration == s.iteration
            assert restored.particles.weight == s.particles.weight
            assert restored.grid == s.grid
            dim.assert_state_equal(restored, s)
        finally:
            restored.close()
            s.close()

    # [3d] was test_checkpoint3d.py::TestRoundtrip::test_compressed_roundtrip
    def test_compressed_roundtrip(self, dim, tmp_path):
        s = dim.fresh(n=400)
        s.run(2)
        restored = dim.load(dim.save(s, tmp_path / "ck", compress=True))
        try:
            dim.assert_state_equal(restored, s)
        finally:
            restored.close()
            s.close()

    def test_instrumentation_is_handed_over(self, dim, tmp_path):
        """Both loaders keep accumulating into a caller's recorder."""
        instr = Instrumentation()
        restored = dim.load(dim.saved(tmp_path, steps=1), instrumentation=instr)
        try:
            restored.step()
            assert restored.instrumentation is instr
            assert instr.timings.steps == 1
        finally:
            restored.close()

    # -- preempt -> resume ---------------------------------------------
    # [3d] was test_checkpoint3d.py::TestPreemptResume3D::(same name)
    def test_preempt_then_resume_bitwise_equals_uninterrupted(self, dim, tmp_path):
        """The headline guarantee: park/restore costs zero ULPs across
        sorts and field solves."""
        ref = dim.fresh()
        ref.run(20)
        park = dim.saved(tmp_path, n=1500, steps=8)
        resumed = dim.load(park)
        try:
            resumed.run(12)
            dim.assert_state_equal(resumed, ref)
        finally:
            resumed.close()
            ref.close()

    # [3d] was test_checkpoint3d.py::TestPreemptResume3D::(same name)
    def test_resume_onto_numpy_mp_bitwise(self, dim, tmp_path):
        """Backend switch on restore is state-compatible (the
        supervisor's degrade move) and keeps the run bitwise."""
        ref = dim.fresh()
        ref.run(14)
        park = dim.saved(tmp_path, n=1500, steps=6)
        resumed = dim.load(park, dim.config(backend="numpy-mp", workers=2))
        try:
            assert resumed.backend.engine_for(resumed) is not None
            resumed.run(8)
            dim.assert_state_equal(resumed, ref)
            assert resumed.timings.fallbacks == 0
        finally:
            resumed.close()
            ref.close()

    @pytest.mark.skipif(not CBackend.is_available(), reason="no C compiler")
    @pytest.mark.parametrize("loop_mode", ["split", "fused"])
    def test_degrade_c_to_numpy_mid_run_bitwise(self, dim, tmp_path, loop_mode):
        """The supervisor's degrade move — roll back to a checkpoint,
        reload it under the next backend of the chain — taken from
        ``c`` to ``numpy`` mid-run ends on the bits of an undisturbed
        ``numpy`` run, in 3D as in 2D (``c`` and ``numpy`` state the
        same gather fold).  A model config naming ``loop_mode="fused"``
        — the retired single-pass loop — saves, loads and resumes on the
        split run's bits: every stepper runs the split loops."""
        ref = dim.fresh(cfg=dim.config())
        ref.run(14)
        on_c = dim.fresh(cfg=_model(dim.config(backend="c"), loop_mode=loop_mode))
        try:
            on_c.run(6)
            park = dim.save(on_c, tmp_path / "park")
        finally:
            on_c.close()
        resumed = dim.load(
            park, _model(dim.config(backend="numpy"), loop_mode=loop_mode))
        try:
            assert resumed.backend.name == "numpy"
            resumed.run(8)
            dim.assert_state_equal(resumed, ref)
        finally:
            resumed.close()
            ref.close()

    # [2d] was TestRetiredConfigKeys::(same name),
    # [3d] was test_checkpoint3d.py::TestPreemptResume3D::(same name)
    def test_pre_pr12_archive_resumes_bitwise(self, dim, tmp_path):
        """A rotation checkpoint written before the tiled deposit and
        the partition knobs were retired must still load — otherwise
        ``repro serve --recover`` silently restarts jobs from step 0."""
        ref = dim.fresh()
        ref.run(14)
        park = dim.saved(tmp_path, n=1500, steps=6)
        rewrite_saved_config(park, RETIRED_CONFIG)
        resumed = dim.load(park)
        try:
            assert resumed.config == ref.config
            resumed.run(8)
            assert resumed.iteration == ref.iteration
            dim.assert_state_equal(resumed, ref)
        finally:
            resumed.close()
            ref.close()

    def test_archive_saved_under_loop_mode_auto_resumes_bitwise(self, dim, tmp_path):
        """``loop_mode="auto"`` (the retired online tuner) is dropped
        like any stored ``loop_mode``: the archive loads and continues
        exactly like the same archive saved without one."""
        park = dim.saved(tmp_path, n=1500, steps=6)
        _assert_auto_archive_resumes_like(dim, park, tmp_path)

    def test_archive_saved_from_a_model_config_loads_as_run_config(
        self, dim, tmp_path
    ):
        """A :class:`ModelConfig` run's archive carries the model axes;
        it loads back as the plain run config and continues on the bits
        of the run it was cut from."""
        model_cfg = _model(dim.config(), field_layout="standard",
                           particle_layout="aos", loop_mode="fused")
        ref = dim.fresh(cfg=model_cfg)
        ref.run(10)
        cut = dim.fresh(cfg=model_cfg)
        try:
            cut.run(4)
            park = dim.save(cut, tmp_path / "model")
        finally:
            cut.close()
        with np.load(park) as data:
            saved = json.loads(json.loads(str(data["_meta"]))["config"])
        assert saved["loop_mode"] == "fused"
        resumed = dim.load(park)
        try:
            assert type(resumed.config) is OptimizationConfig
            assert resumed.config == dim.config()
            resumed.run(6)
            dim.assert_state_equal(resumed, ref)
        finally:
            resumed.close()
            ref.close()

    def test_archive_saved_under_backend_numba_resumes_as_auto(self, dim, tmp_path):
        """``backend="numba"`` (retired for ``c``) reads as ``"auto"``."""
        park = dim.saved(tmp_path, n=1500, steps=6)
        _assert_numba_archive_resumes_as_auto(dim, park, tmp_path)

    # -- error surface -------------------------------------------------
    # [3d] was test_checkpoint3d.py::TestErrorSurface::(same name)
    def test_missing_file_raises_mismatch(self, dim, tmp_path):
        with pytest.raises(CheckpointMismatchError):
            dim.load(tmp_path / "nope.npz")

    # [2d] was TestCrashSafety::test_truncated_archive_rejected,
    # [3d] was test_checkpoint3d.py::TestErrorSurface::(same name)
    def test_torn_archive_raises_mismatch(self, dim, tmp_path):
        path = dim.saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointMismatchError, match="corrupt"):
            dim.load(path)

    # [2d] was TestCrashSafety::test_missing_array_rejected
    def test_missing_array_rejected(self, dim, tmp_path):
        path = dim.saved(tmp_path)
        _rewrite(path, drop=("vx",))
        with pytest.raises(CheckpointMismatchError, match="missing arrays.*vx"):
            dim.load(path)

    # [2d] was TestCompatibilityChecks::test_bad_version_rejected
    def test_wrong_version_rejected(self, dim, tmp_path):
        path = dim.saved(tmp_path)
        key = "format_version" if dim.ndim == 2 else "format_version_3d"
        _rewrite(path, **{key: 999})
        with pytest.raises(CheckpointMismatchError, match="version"):
            dim.load(path)

    def test_loader_reads_the_dimension_off_the_grid_record(self, dim, tmp_path):
        """The one loader builds the grid class the archive's grid
        record names."""
        restored = load_checkpoint(dim.saved(tmp_path))
        try:
            assert type(restored.grid) is (GridSpec if dim.ndim == 2 else GridSpec3D)
            assert restored.particles.ndim == dim.ndim
        finally:
            restored.close()

    # both were test_checkpoint3d.py::TestErrorSurface::
    # test_2d_loader_rejects_3d_archive_and_vice_versa
    def test_cross_dimensional_load_rejected(self, dim, tmp_path):
        """An archive whose grid record is the other dimension's than
        its format key is refused on the version; a record of neither
        dimension's length is refused too."""
        path = dim.saved(tmp_path)
        other = _Dim(5 - dim.ndim).saved(tmp_path)  # the other dimension's
        with np.load(other) as data:
            grid = json.loads(str(data["_meta"]))["grid"]
        _rewrite(path, grid=grid)
        with pytest.raises(CheckpointMismatchError, match="version"):
            dim.load(path)
        _rewrite(path, grid=grid[:4])
        with pytest.raises(CheckpointMismatchError, match="grid record"):
            dim.load(path)

    # [2d] was TestCompatibilityChecks::test_incompatible_ordering_rejected,
    # [3d] was test_checkpoint3d.py::TestErrorSurface::(same name)
    def test_incompatible_config_rejected(self, dim, tmp_path):
        path = dim.saved(tmp_path)
        with pytest.raises(CheckpointMismatchError, match="ordering"):
            dim.load(path, dim.config(ordering="row-major"))


def test_3d_names_are_the_one_pair():
    """``save_checkpoint_3d`` / ``load_checkpoint_3d`` are the names the
    benchmark ledger calls, not a second writer and reader."""
    assert save_checkpoint_3d is save_checkpoint
    assert load_checkpoint_3d is load_checkpoint


def _energies_3d(st):
    """Field and total energy of a 3D stepper, in
    :class:`PICStepper3D`'s expressions."""
    field = 0.5 * float(np.sum(st.ex_grid**2 + st.ey_grid**2 + st.ez_grid**2)) \
        * st.grid.cell_volume
    v2 = sum(v**2 for v in st.physical_velocities())
    return field, field + 0.5 * st.m * st.particles.weight * float(np.sum(v2))


def test_pre_pr15_3d_archive_resumes_bitwise(tmp_path):
    """An archive the pre-unification 3D writer produced (committed
    bytes) loads through the shared body.  Its six steps were taken
    with the ``einsum`` gather NumPy had until PR 22, so it holds the
    run today's stepper makes from scratch to rounding, not to the bit;
    from there it continues bit for bit like the same state written
    and read back by today's writer."""
    dim = _Dim(3)
    ref = dim.fresh(n=400)
    resumed = load_checkpoint_3d(ARCHIVE_3D_PR14)
    rewritten = None
    try:
        assert resumed.iteration == 6
        ref.run(6)
        (field, total), (ref_field, ref_total) = map(_energies_3d, (resumed, ref))
        assert total == pytest.approx(ref_total, rel=1e-10)
        assert field == pytest.approx(ref_field, rel=1e-8)
        rewritten = dim.load(dim.save(resumed, tmp_path / "rewritten"))
        dim.assert_state_equal(resumed, rewritten)
        resumed.run(8)
        rewritten.run(8)
        assert resumed.iteration == 14
        dim.assert_state_equal(resumed, rewritten)
    finally:
        for stepper in (resumed, ref, rewritten):
            if stepper is not None:
                stepper.close()


def _assert_auto_archive_resumes_like(dim, archive, tmp_path):
    """``archive`` with its stored ``loop_mode`` rewritten to ``"auto"``
    loads as the same run config and steps bitwise-equal to ``archive``
    itself."""
    legacy = tmp_path / "legacy_auto.npz"
    shutil.copy(archive, legacy)
    rewrite_saved_config(legacy, {"loop_mode": "auto"})
    ref, resumed = dim.load(archive), dim.load(legacy)
    try:
        assert type(resumed.config) is OptimizationConfig
        assert resumed.config == ref.config
        ref.run(8)
        resumed.run(8)
        dim.assert_state_equal(resumed, ref)
    finally:
        resumed.close()
        ref.close()


def test_pre_pr15_3d_archive_with_loop_mode_auto_resumes_bitwise(tmp_path):
    _assert_auto_archive_resumes_like(_Dim(3), ARCHIVE_3D_PR14, tmp_path)


def _assert_numba_archive_resumes_as_auto(dim, archive, tmp_path):
    """``archive`` with its stored ``backend`` rewritten to ``"numba"``
    loads as ``"auto"`` and steps bitwise-equal to the same archive
    stored under ``"auto"``."""
    stored = {}
    for backend in ("numba", "auto"):
        stored[backend] = tmp_path / f"stored_{backend}.npz"
        shutil.copy(archive, stored[backend])
        rewrite_saved_config(stored[backend], {"backend": backend})
    ref, resumed = dim.load(stored["auto"]), dim.load(stored["numba"])
    try:
        assert resumed.config.backend == "auto"
        assert resumed.config == ref.config
        ref.run(8)
        resumed.run(8)
        dim.assert_state_equal(resumed, ref)
    finally:
        resumed.close()
        ref.close()


def test_pre_pr15_3d_archive_with_backend_numba_resumes_as_auto(tmp_path):
    _assert_numba_archive_resumes_as_auto(_Dim(3), ARCHIVE_3D_PR14, tmp_path)


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
            ModelConfig.baseline(),
            OptimizationConfig(ordering="l4d", ordering_kwargs={"size": 8}),
            ModelConfig(hoisting=False),
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
        cfg = OptimizationConfig(sort_period=4)
        a = fresh_stepper(grid, cfg)
        a.run(3)  # next step sorts
        b = load_checkpoint(save_checkpoint(a, tmp_path / "ck.npz"))
        a.run(3)
        b.run(3)
        np.testing.assert_array_equal(a.ex_grid, b.ex_grid)


@pytest.mark.parametrize("name", list(COMMITTED_ARCHIVES))
def test_committed_archive_resumes_on_its_parent_digest(name):
    """Every archive under ``tests/data`` — one written under the
    point-based fields and AoS particles (its metadata says ``layout:
    "aos"``), one by the pre-unification 3D writer, one the job engine
    parked — names the model axes in its stored config; each loads as
    the plain run config into SoA columns and redundant rows and
    continues on the digest it continued on while the run config still
    carried the axes (the un-hoisted standard/AoS archive: on the
    digest of its hoisted continuation)."""
    path, loader, iteration, digest = COMMITTED_ARCHIVES[name]
    with np.load(path) as data:
        saved = json.loads(json.loads(str(data["_meta"]))["config"])
    assert {"field_layout", "particle_layout", "loop_mode"} <= saved.keys()
    st = loader(path)
    try:
        assert st.iteration == iteration
        assert type(st.config) is OptimizationConfig
        assert type(st.particles) is ParticleSoA
        assert type(st.fields) is RedundantFields
        st.run(4)
        assert _resume_digest(st) == digest
    finally:
        st.close()


@pytest.mark.parametrize("backend,workers", [
    pytest.param("numpy", None, id="numpy"),
    pytest.param("c", None, id="c", marks=pytest.mark.skipif(
        not CBackend.is_available(), reason="no C compiler")),
    pytest.param("numpy-mp", 2, id="numpy-mp"),
])
def test_three_class_stepper_3d_archive_resumes_on_its_digest(backend, workers):
    """The 3D step loop across the merge of the stepper classes: the
    archive the three-class stepper wrote resumes, on every backend, on
    the digest that code continued on."""
    st = load_checkpoint(ARCHIVE_3D_STEPLOOP,
                         _config_3d(sort_period=5, backend=backend, workers=workers))
    try:
        assert st.iteration == 5 and type(st.grid) is GridSpec3D
        st.run(5)
        assert _resume_digest(st) == STEPLOOP_RESUMED_10
    finally:
        st.close()


@pytest.mark.parametrize("backend,workers", [
    pytest.param("numpy", None, id="numpy"),
    pytest.param("c", None, id="c", marks=pytest.mark.skipif(
        not CBackend.is_available(), reason="no C compiler")),
    pytest.param("numpy-mp", 2, id="numpy-mp"),
])
@pytest.mark.parametrize("name", list(SCAN_ORDER_ARCHIVES))
def test_archive_without_coordinates_resumes_on_its_parent_digest(
    name, backend, workers
):
    """A scan-order archive that holds no coordinate columns loads with
    the coordinates decoded from ``icell`` and continues, on every
    backend, on the digest the code that wrote it continued on."""
    path, digest = SCAN_ORDER_ARCHIVES[name]
    with np.load(path) as data:
        assert json.loads(str(data["_meta"]))["store_coords"] is False
        assert not {"pix", "piy", "piz"} & set(data.files)
    st = load_checkpoint(path, OptimizationConfig(
        ordering="row-major", sort_period=3, backend=backend, workers=workers))
    try:
        p = st.particles
        assert st.iteration == 5 and list(p.keys()) == list(particle_fields(p.ndim))
        coords = [p["i" + a] for a in "xyz"[: p.ndim]]
        np.testing.assert_array_equal(st.ordering.encode(*coords), p.icell)
        st.run(5)
        assert _resume_digest(st) == digest
    finally:
        st.close()


def test_archive_with_a_store_coords_override_keeps_its_columns(grid, tmp_path):
    """An archive written under an explicit ``store_coords`` override —
    a Morton run without ``ix``/``iy``, which the run config can no
    longer spell — loads into the one store, its coordinates decoded
    from ``icell`` to the bits the run held, and continues on the bits
    of the same run with stored coordinates; saved again, it holds
    them."""
    a = fresh_stepper(grid, n=1500)
    a.run(6)
    path = save_checkpoint(a, tmp_path / "ck.npz")
    # what the writer produced for ``store_coords=False``: no ``pix`` /
    # ``piy`` arrays, ``False`` in the metadata and in the stored config
    _rewrite(path, drop=("pix", "piy"), store_coords=False)
    rewrite_saved_config(path, {"store_coords": False})
    b = load_checkpoint(path)
    try:
        assert b.particles.keys() == a.particles.keys()
        for name in a.particles.keys():
            assert b.particles[name].tobytes() == a.particles[name].tobytes()
        assert b.config == a.config
        a.run(8)
        b.run(8)
        assert state_digest(b) == state_digest(a)
        path = save_checkpoint(b, tmp_path / "again.npz")
        with np.load(path) as data:
            assert {"pix", "piy"} <= set(data.files)
            assert "store_coords" not in json.loads(str(data["_meta"]))
    finally:
        b.close()
        a.close()


class TestCompatibilityChecks:
    def test_layout_axes_are_not_compared(self, grid, tmp_path):
        """``field_layout``, ``particle_layout`` and ``hoisting`` only
        feed the model: an archive loads under a model config naming
        any baseline, while a field that gives the arrays their meaning
        still refuses."""
        a = fresh_stepper(grid, n=500)
        a.run(2)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        other = ModelConfig(particle_layout="aos", field_layout="standard",
                            hoisting=False)
        b = load_checkpoint(path, other)
        assert b.config == other
        for st in (a, b):
            st.run(2)
        assert state_digest(b) == state_digest(a)
        with pytest.raises(CheckpointMismatchError, match="ordering"):
            load_checkpoint(path, other.with_(ordering="row-major"))

    def test_compatible_override_allowed(self, grid, tmp_path):
        """Changing the sort period is state-compatible."""
        a = fresh_stepper(grid)
        a.run(2)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        b = load_checkpoint(
            path, OptimizationConfig(sort_period=7)
        )
        assert b.config.sort_period == 7
        b.step()  # runs fine

def test_unhoisted_archive_resumes_in_hoisted_units(grid, tmp_path):
    """An archive of an un-hoisted run loads with no error: its
    physical velocities are converted once, and the run continues
    within the tolerance the two unit systems always agreed to (Table
    IV's rows, ``rel=1e-9``) of the energies the code that wrote it
    continued on.  Saved again, the archive names no ``hoisting``."""
    want = json.loads(UNHOISTED_ENERGIES.read_text())
    st = load_checkpoint(ARCHIVE_UNHOISTED)
    try:
        assert st.iteration == 5
        assert type(st.config) is OptimizationConfig
        field, kinetic = [], []
        for _ in range(want["steps"]):
            st.step()
            field.append(field_energy(st.ex_grid, st.ey_grid,
                                      st.grid.cell_area, st.eps0))
            kinetic.append(kinetic_energy(*st.physical_velocities(),
                                          st.particles.weight, st.m))
        assert field == pytest.approx(want["field_energy"], rel=1e-9)
        assert kinetic == pytest.approx(want["kinetic_energy"], rel=1e-9)
        path = save_checkpoint(st, tmp_path / "again.npz")
    finally:
        st.close()
    with np.load(path) as data:
        saved = json.loads(json.loads(str(data["_meta"]))["config"])
    assert "hoisting" not in saved


class TestRetiredConfigKeys:
    def test_in_place_sort_archive_continues_as_out_of_place(self, grid, tmp_path):
        """An archive whose stored config names the retired
        ``sort_variant="in-place"`` loads as the run config and
        continues, across sorts, on the bits of the same archive saved
        as ``"out-of-place"``: both sorts applied one permutation."""
        a = fresh_stepper(grid, OptimizationConfig(sort_period=3), n=1500)
        a.run(5)
        digests = []
        for variant in ("in-place", "out-of-place"):
            path = save_checkpoint(a, tmp_path / f"{variant}.npz")
            rewrite_saved_config(path, {"sort_variant": variant})
            b = load_checkpoint(path)
            try:
                assert b.config == a.config
                b.run(7)
                digests.append(state_digest(b))
            finally:
                b.close()
        a.close()
        assert digests[0] == digests[1]

    def test_archive_naming_a_wrap_continues_on_the_grids(self, grid, tmp_path):
        """No archive is written with ``position_update`` (not even a
        :class:`ModelConfig` run's, which names one); an archive whose
        stored config names ``"branch"`` or ``"modulo"`` — what a writer
        of the field left — loads as the run config and continues, across
        sorts, on the bits of the unmodified archive: the grid picks the
        wrap."""
        model = fresh_stepper(grid, ModelConfig(position_update="branch"), n=200)
        path = save_checkpoint(model, tmp_path / "model.npz")
        model.close()
        with np.load(path) as data:
            saved = json.loads(json.loads(str(data["_meta"]))["config"])
        assert "position_update" not in saved and "field_layout" in saved

        a = fresh_stepper(grid, OptimizationConfig(sort_period=3), n=1500)
        a.run(5)
        digests = []
        for variant in (None, "branch", "modulo"):
            path = save_checkpoint(a, tmp_path / f"{variant}.npz")
            if variant is not None:
                rewrite_saved_config(path, {"position_update": variant})
            b = load_checkpoint(path)
            try:
                assert b.config == a.config
                b.run(7)
                digests.append(state_digest(b))
            finally:
                b.close()
        a.close()
        assert digests[1] == digests[0] and digests[2] == digests[0]

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

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path)

    def test_missing_meta_rejected(self, grid, tmp_path):
        a = fresh_stepper(grid, n=500)
        path = save_checkpoint(a, tmp_path / "ck.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "_meta"}
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointMismatchError, match="metadata"):
            load_checkpoint(path)
