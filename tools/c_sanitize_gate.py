#!/usr/bin/env python
"""C sanitize gate: ``ckernels.c`` is strict C99 and free of undefined behaviour.

Two checks on the one foreign-code file the engine loads:

* it compiles clean under ``-std=c99 -pedantic -Wall -Wextra -Werror``;
* built with ``-fsanitize=undefined,float-cast-overflow
  -fno-sanitize-recover`` — through the builder's own ``extra_flags``
  argument, into a throw-away cache directory — it passes the
  kernel-equivalence and every-input classes of
  ``tests/test_ckernels.py`` (all wraps, orderings and population
  sizes; NaN, ±inf and beyond-int64 positions; cells outside the grid)
  with zero sanitizer reports.  The first report aborts the child.

Prints ``gate-status: csan ran``, or ``skipped(no cc)`` /
``skipped(no libubsan)`` where the check cannot run.  Wired into
``make csan`` (and ``make check``).
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

STRICT = ("-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror")
SANITIZE = ("-fsanitize=undefined,float-cast-overflow", "-fno-sanitize-recover")
NO_SANITIZER = 77

#: run in a child: a sanitizer report kills the process it is in
CHILD = f"""
import sys
import pytest
import repro.core.backends as B
try:
    B._INSTANCES["c"] = B.CBackend(extra_flags={SANITIZE!r})
except B.BackendUnavailableError as exc:
    print(exc, file=sys.stderr)
    sys.exit({NO_SANITIZER})
sys.exit(pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                      "tests/test_ckernels.py", "-k",
                      "TestEquivalence or TestDefinedOnEveryInput"]))
"""


def main() -> int:
    from repro.core import cbuild

    cc = cbuild.find_compiler()
    if cc is None:
        print("gate-status: csan skipped(no cc)")
        return 0
    strict = subprocess.run(
        [cc, *STRICT, *cbuild.FLAGS, str(cbuild.SOURCE), "-o", os.devnull, "-lm"],
        capture_output=True, text=True)
    if strict.returncode != 0:
        print(f"csan FAILED: {' '.join(STRICT)} is not clean:\n{strict.stderr}",
              file=sys.stderr)
        return 1
    print(f"csan: {cbuild.SOURCE.name} compiles clean under {' '.join(STRICT)}")

    with tempfile.TemporaryDirectory(prefix="repro-csan-") as cache:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), XDG_CACHE_HOME=cache)
        child = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                               capture_output=True, text=True)
    if child.returncode == NO_SANITIZER:
        print(f"csan: sanitized build failed: {child.stderr.strip()[-300:]}")
        print("gate-status: csan skipped(no libubsan)")
        return 0
    print(child.stdout.rstrip())
    if child.returncode != 0 or "runtime error" in child.stderr:
        print(f"csan FAILED (exit {child.returncode}):\n{child.stderr}",
              file=sys.stderr)
        return 1
    print("csan: zero sanitizer reports")
    print("gate-status: csan ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
