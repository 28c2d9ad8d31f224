#!/usr/bin/env python
"""Structure lints: the engine never imports the paper-model substrate,
and dimension-suffixed code only lives where it is written down.

The repo holds two kinds of code.  The *engine* is what a run executes:
``repro.core`` and the real shared-memory backend
(``repro.parallel.executor`` / ``shm`` / ``partition``).  The *model*
is the simulated testbed that reproduces the paper's Tables II–VII on
a modelled machine: simulated MPI/OpenMP and the scaling series in
``repro.parallel``, the cache/trace/cost/bandwidth models in
``repro.perf``.  The dependency is one-way — the model may import the
engine, never the reverse — so the engine can be read, profiled and
eventually split out without dragging the testbed along.

Checked statically (AST), **module-level imports only**: an import
inside a function or under ``if TYPE_CHECKING:`` is a deliberate lazy
edge (e.g. the sort autotuner's optional cost model) and does not run
when the engine is imported.

The second lint is a ratchet on the 2D/3D fork (ROADMAP, "One
dimension-generic core").  A ``class``/``def`` whose name ends in
``3d``/``3D`` (or carries it before a ``_njit``-style suffix) may
only appear in the files of
:data:`DIMENSIONAL_ALLOWED`; an entry that no longer needs its
exemption fails the lint too, so the list can only shrink.  The
modules of :data:`DIMENSION_FREE` — the particle store, the
shared-memory engine, the differential runner — additionally hold no
string ending in ``2d``/``3d`` (a worker op name, a layout tag).

Wired into ``make docs-check`` (and so ``make check``); exit 1 with
one ``file:line`` per violation.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: engine modules (globs relative to ``src/``)
ENGINE_GLOBS = (
    "repro/core/*.py",
    "repro/parallel/executor.py",
    "repro/parallel/shm.py",
    "repro/parallel/partition.py",
)

#: model modules the engine must not import at module level
MODEL_MODULES = frozenset(
    [f"repro.parallel.{m}" for m in
     ("openmp", "mpi", "hybrid", "scaling", "domain_decomp")]
    + [f"repro.perf.{m}" for m in
       ("cache", "trace", "costmodel", "bandwidth", "reuse", "machine",
        "experiments")]
)


#: where a dimension-suffixed class/def still lives (globs relative to
#: ``src/``): the 3D grid/fields/solver/ordering classes and kernels,
#: the ``*_3d`` backend methods and their njit bodies, the two 3D
#: checkpoint entry points, the verifier's 3D scenario sampler and its
#: 3D two-stream oracle
DIMENSIONAL_ALLOWED = (
    "repro/pic3d/*.py",
    "repro/curves/curves3d.py",
    "repro/core/backends.py",
    "repro/core/njit_kernels.py",
    "repro/core/checkpoint.py",
    "repro/verify/configspace.py",
    "repro/verify/oracles.py",
)

#: modules that serve every dimension and name none
DIMENSION_FREE = (
    "repro/parallel/executor.py",
    "repro/parallel/shm.py",
    "repro/particles/*.py",
    "repro/verify/differ.py",
)


def check_dimension_names(path: Path, strings: bool) -> list[str]:
    """Dimension-suffixed definitions (and, with ``strings``, string
    constants) in one module."""
    rel = path.relative_to(ROOT)
    errors = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(rel))):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if re.search(r"3[dD](_|$)", node.name):
                errors.append(f"{rel}:{node.lineno}: definition {node.name!r}")
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w*[a-z_][23]d", node.value):
                errors.append(f"{rel}:{node.lineno}: string {node.value!r}")
    return errors


def check_dimension_ratchet() -> list[str]:
    allowed = {p: g for g in DIMENSIONAL_ALLOWED for p in SRC.glob(g)}
    free = {p for g in DIMENSION_FREE for p in SRC.glob(g)}
    errors, needed = [], set()
    for path in sorted(SRC.rglob("*.py")):
        found = check_dimension_names(path, strings=path in free)
        if path in allowed and found:
            needed.add(allowed[path])
        elif found:
            errors += [f"{e} outside DIMENSIONAL_ALLOWED" for e in found]
    errors += [
        f"tools/check_imports.py: DIMENSIONAL_ALLOWED entry {g!r} no longer "
        f"holds a dimension-suffixed definition; remove it"
        for g in DIMENSIONAL_ALLOWED if g not in needed
    ]
    return errors


def _imported_modules(node) -> list[str]:
    """Dotted module names one module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        # ``from repro.perf import costmodel`` names a module too
        return [node.module] + [
            f"{node.module}.{alias.name}" for alias in node.names
        ]
    return []


def check_module(path: Path) -> list[str]:
    """Model imports at the top level of one engine module."""
    rel = path.relative_to(ROOT)
    tree = ast.parse(path.read_text(), filename=str(rel))
    errors = []
    for node in tree.body:
        hits = {
            m for name in _imported_modules(node) for m in MODEL_MODULES
            if name == m or name.startswith(m + ".")
        }
        for hit in sorted(hits):
            errors.append(
                f"{rel}:{node.lineno}: engine module imports model "
                f"module {hit!r}"
            )
    return errors


def main() -> int:
    paths = sorted(p for g in ENGINE_GLOBS for p in SRC.glob(g))
    if not paths:
        print("check_imports: FAIL — no engine modules found")
        return 1
    errors = [e for p in paths for e in check_module(p)]
    errors += check_dimension_ratchet()
    if errors:
        print("check_imports: FAIL")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_imports: OK — {len(paths)} engine modules import no "
          f"model module; dimension-suffixed definitions only in "
          f"{len(DIMENSIONAL_ALLOWED)} allow-listed places")
    return 0


if __name__ == "__main__":
    sys.exit(main())
