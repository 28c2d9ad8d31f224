"""Build ``ckernels.c`` with the host C compiler and load it via ctypes.

The shared object is compiled once per source, flag set and compiler
into a per-user cache directory and reused by every later process;
nothing is ever written into the source tree.  The flags are fixed:
``-ffp-contract=off`` is what keeps the kernels bitwise equal to NumPy
(no fused multiply-add), ``-ffast-math`` is never passed for the same
reason, and there is no ``-march=native`` — it measured no gain, and
the cache may outlive the host it was built on.

A cache hit runs no child process, which is why the compiler is
identified by its binary (resolved path, size, mtime), not by
``cc --version``: on Linux a reaped child's ``ru_maxrss`` starts at its
parent's resident set, and the benchmark ledger adds
``RUSAGE_CHILDREN`` to its peak-RSS metric (docs/kernels.md).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["SOURCE", "FLAGS", "BuildInfo", "BuildError", "find_compiler",
           "compiler_version", "cache_dirs", "cached_objects", "load"]

SOURCE = Path(__file__).with_name("ckernels.c")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_log = logging.getLogger("repro.backends")


class BuildError(RuntimeError):
    """The C kernels could not be compiled or loaded."""


@dataclass(frozen=True)
class BuildInfo:
    """Where a loaded kernel library came from (``repro info``)."""

    cc: str | None  #: compiler path; ``None`` when only the cache was used
    flags: tuple[str, ...]
    path: Path
    compiled: bool  #: this call ran the compiler (else: cache hit)
    seconds: float  #: compile + load time of this call


def find_compiler() -> str | None:
    """The first of ``cc`` / ``gcc`` / ``clang`` on ``PATH``."""
    return next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)


def compiler_version(cc: str) -> str:
    """First line of ``cc --version`` (runs the compiler)."""
    out = subprocess.run([cc, "--version"], capture_output=True, text=True)
    return out.stdout.partition("\n")[0].strip()


def _private_dir(path: Path) -> bool:
    """Create ``path`` (0700) if needed; true iff it is a directory
    owned by the caller that neither group nor others can write —
    anything else could hold an object someone else put there."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.lstat()
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def cache_dirs():
    """Candidate cache directories, best first: the XDG cache, then a
    per-uid directory under the system temp dir."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    yield (Path(xdg) if xdg else Path.home() / ".cache") / "repro"
    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def _cache_dir() -> Path:
    """The first usable candidate, else a fresh private directory."""
    for path in cache_dirs():
        if _private_dir(path):
            return path
        _log.warning("refusing C-kernel cache directory %s (not a private "
                     "directory of uid %d)", path, os.getuid())
    return Path(tempfile.mkdtemp(prefix="repro-"))


def _source_key(flags) -> str:
    h = hashlib.sha256(SOURCE.read_bytes())
    h.update("\0".join(flags).encode())
    return h.hexdigest()[:16]


def _compiler_key(cc: str) -> str:
    real = os.path.realpath(cc)
    st = os.stat(real)
    ident = f"{real}\0{st.st_size}\0{st.st_mtime_ns}"
    return hashlib.sha256(ident.encode()).hexdigest()[:8]


def cached_objects(flags=FLAGS) -> list[Path]:
    """Objects of this source and these flags already in a usable
    cache directory, whichever compiler built them."""
    pattern = f"ckernels-{_source_key(flags)}-*.so"
    return [p for d in cache_dirs() if d.is_dir() and _private_dir(d)
            for p in sorted(d.glob(pattern))]


def _compile(cc: str, flags, target: Path) -> None:
    """Compile to a temporary sibling, then rename: concurrent builders
    each finish with a complete object under the final name."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem,
                               suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run([cc, *flags, str(SOURCE), "-o", tmp, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise BuildError(f"{cc} exited {proc.returncode} building "
                             f"{SOURCE.name}: {proc.stderr.strip()[-500:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(extra_flags=()):
    """``(ctypes library, BuildInfo)`` for ``FLAGS + extra_flags``,
    compiling on a cache miss.  Raises :class:`BuildError` when there is
    neither a compiler nor a cached object, the compiler fails, or the
    object does not load."""
    t0 = time.perf_counter()
    flags = (*FLAGS, *extra_flags)
    cc = find_compiler()
    compiled = False
    if cc is not None:
        path = (_cache_dir()
                / f"ckernels-{_source_key(flags)}-{_compiler_key(cc)}.so")
        if not path.exists():
            _compile(cc, flags, path)
            compiled = True
    else:
        found = cached_objects(flags)
        if not found:
            raise BuildError("no C compiler (cc, gcc, clang) on PATH and no "
                             "cached kernel object")
        path = found[0]
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise BuildError(f"cannot load {path}: {exc}") from exc
    info = BuildInfo(cc, flags, path, compiled, time.perf_counter() - t0)
    if compiled:
        _log.info("compiled the C kernels with %s [%s] in %.2f s -> %s",
                  cc, compiler_version(cc), info.seconds, path)
    return lib, info
