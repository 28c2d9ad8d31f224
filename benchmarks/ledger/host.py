"""Host fingerprint written into every result file, so a number is
never read without the machine it came from."""

from __future__ import annotations

import importlib
import os
import pathlib
import platform
import sys


def _read(path: str) -> str | None:
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.lower().startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes() -> dict:
    """``{"L1d": "48K", "L2": "2048K", ...}`` of cpu0, from sysfs."""
    out = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for index in sorted(base.glob("index*")):
            level, kind, size = (_read(index / k) for k in ("level", "type", "size"))
            if level and size:
                suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
                out[f"L{level}{suffix}"] = size
    return out


def filesystem_type(path) -> str | None:
    """Type of the filesystem holding ``path`` (longest mount-point
    prefix in ``/proc/mounts``)."""
    path = os.path.realpath(path)
    best, fstype = "", None
    for line in (_read("/proc/mounts") or "").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
            best, fstype = mount, fields[2]
    return fstype


def module_version(name: str) -> str | None:
    try:
        return importlib.import_module(name).__version__
    except ImportError:
        return None


def fingerprint(workdir) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": usable,
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": module_version("numpy"),
        "scipy": module_version("scipy"),
        "numba": module_version("numba"),
        "workdir_filesystem": filesystem_type(workdir),
    }
