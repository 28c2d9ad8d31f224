#!/usr/bin/env python
"""C vectorize gate: the hot loops of ``ckernels.c`` vectorize in the x86-64-v4 clone.

Builds ``ckernels.c`` with the shipped ``cbuild.FLAGS`` plus
``-fopt-info-vec-optimized`` and reads GCC's report.  Each loop the
source marks with a ``/* cvec: <name> */`` comment must be reported
vectorized on that line with 64-byte vectors — AVX-512, which only the
x86-64-v4 clone has (the baseline x86-64 body stops at 16 bytes) — once
for every instantiation that clone compiles:

* ``push`` and ``update-v`` (its drive instantiation included) as
  loops, across particles, which are independent;
* ``sum squares`` as a loop whose eight lanes are the eight
  accumulators of NumPy's pairwise sum, once per column count;
* ``deposit row add`` as a basic block, across one particle's corners,
  and never as a loop: two particles may share a cell.

Prints ``gate-status: cvec ran``, or ``skipped(no cc)`` /
``skipped(no target_clones)`` where the source builds without clones
(not x86-64, not glibc, not GCC 12 or later).  Wired into ``make cvec``
(and ``make check``).
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: marker name -> (how GCC must report it, instantiations): the bitwise
#: push per ndim x the four orders with stored coordinates (recomputed
#: scan coordinates divide, and stay scalar; the modulo wrap and the
#: reflecting wall call fmod, and stay scalar too); update-v per ndim
#: plus its 2D drive instantiation (the scenario zoo's field and Boris
#: rotation, selected by flags rather than branches); the energies' sum
#: of squares per column count (2 and 3); the row deposit per ndim
REQUIRED = {
    "push": ("loop", 2 * 4),
    "update-v": ("loop", 3),
    "sum squares": ("loop", 2),
    "deposit row add": ("basic block part", 2),
}


def markers(source: str) -> dict[str, int]:
    """``{name: line}`` of the ``/* cvec: <name> */`` comments."""
    found = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        m = re.search(r"/\* cvec: (.+?) \*/", line)
        if m:
            found[m.group(1)] = lineno
    return found


def reports(stderr: str, name: str) -> dict[int, list[tuple[str, str]]]:
    """``{line: [(kind, bytes), ...]}`` of the vectorized reports on
    file ``name``."""
    out = {}
    pattern = (rf"{re.escape(name)}:(\d+):\d+: optimized: "
               r"(loop|basic block part) vectorized using (\d+) byte vectors")
    for m in re.finditer(pattern, stderr):
        out.setdefault(int(m.group(1)), []).append((m.group(2), m.group(3)))
    return out


def main() -> int:
    from repro.core import cbuild

    cc = cbuild.find_compiler()
    if cc is None:
        print("gate-status: cvec skipped(no cc)")
        return 0
    macros = subprocess.run([cc, "-E", "-dM", str(cbuild.SOURCE)],
                            capture_output=True, text=True)
    if "#define CKERNELS_CLONED" not in macros.stdout:
        print(f"cvec: {cc} builds {cbuild.SOURCE.name} without target_clones")
        print("gate-status: cvec skipped(no target_clones)")
        return 0
    with tempfile.TemporaryDirectory(prefix="repro-cvec-") as tmp:
        build = subprocess.run(
            [cc, *cbuild.FLAGS, "-fopt-info-vec-optimized", str(cbuild.SOURCE),
             "-o", str(Path(tmp) / "ckernels.so"), "-lm"],
            capture_output=True, text=True)
    if build.returncode != 0:
        print(f"cvec FAILED: {cc} exited {build.returncode}:\n{build.stderr}",
              file=sys.stderr)
        return 1
    lines = markers(cbuild.SOURCE.read_text())
    got = reports(build.stderr, cbuild.SOURCE.name)
    failures = []
    for name, (kind, count) in REQUIRED.items():
        if name not in lines:
            failures.append(f"{name}: no /* cvec: {name} */ marker in the source")
            continue
        seen = got.get(lines[name], [])
        wide = sum(k == kind and b == "64" for k, b in seen)
        print(f"cvec: {name} (line {lines[name]}): {kind} vectorized with "
              f"64-byte vectors {wide} time(s), {count} wanted")
        if wide < count:
            failures.append(f"{name}: {count - wide} instantiation(s) not {kind} "
                            f"vectorized in the x86-64-v4 clone")
        if kind != "loop" and any(k == "loop" for k, _ in seen):
            failures.append(f"{name}: vectorized across particles")
    if failures:
        print("cvec FAILED:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("gate-status: cvec ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
