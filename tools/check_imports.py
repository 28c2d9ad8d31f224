#!/usr/bin/env python
"""Import-graph lint: the engine never imports the paper-model substrate.

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
when the engine is imported.  Wired into ``make docs-check`` (and so
``make check``); exit 1 with one ``file:line`` per violation.
"""

import ast
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
    if errors:
        print("check_imports: FAIL")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_imports: OK — {len(paths)} engine modules import no "
          f"model module")
    return 0


if __name__ == "__main__":
    sys.exit(main())
