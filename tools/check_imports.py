#!/usr/bin/env python
"""Structure lints: nothing a run executes imports the paper-model
testbed, and dimension-suffixed code only lives where it is written
down.

The repo holds two kinds of code.  The *engine* is what a run, a
worker process or a ``repro serve`` process executes.  The *model* is
the simulated testbed that reproduces the paper's Tables II–VII on a
modelled machine — cache/trace/cost/bandwidth models, simulated
MPI/OpenMP, the scaling series — and it is one directory:
``src/repro/model/``.  The dependency is one-way, and the rule is the
directory listing:

    nothing under ``src/repro/`` outside ``repro/model/`` and
    ``cli.py`` imports ``repro.model``.

Checked statically with ``ast.walk``, so at **any nesting depth**: an
import inside a function, a class body or ``if TYPE_CHECKING:`` counts
the same as one at module level (``cli.py``, whose ``tune-sort`` /
``calibrate`` / ``misses`` / ``info`` verbs front the model, is the
one exemption, and imports it lazily per verb).
``tests/test_model_boundary.py`` holds the runtime half: a stepped
``numpy`` and ``numpy-mp`` run and an idle ``JobEngine`` leave no
``repro.model*`` key in ``sys.modules``.

The second lint is a ratchet on the 2D/3D fork (ROADMAP, "One
dimension-generic core").  A ``class``/``def`` whose name ends in
``3d``/``3D`` (or carries it before a ``_``-separated suffix) may
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

#: the model package, and the files under ``src/repro/`` that may
#: import it (paths relative to ``src/``)
MODEL_PACKAGE = "repro.model"
MODEL_IMPORTERS = ("repro/model/", "repro/cli.py")

#: where a dimension-suffixed class/def still lives (globs relative to
#: ``src/``): the 3D grid/fields/solver/ordering classes and kernels,
#: the ``*_3d`` backend methods, the two 3D
#: checkpoint entry points, the verifier's 3D scenario sampler and its
#: 3D two-stream oracle
DIMENSIONAL_ALLOWED = (
    "repro/pic3d/*.py",
    "repro/curves/curves3d.py",
    "repro/core/backends.py",
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


def _imported_modules(node, package: list[str]) -> list[str]:
    """Dotted module names one import statement (in a module of
    ``package``) binds."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = package[: len(package) - node.level + 1] if node.level else []
        module = ".".join(base + ([node.module] if node.module else []))
        # ``from repro import model`` names a module too
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    return []


def check_model_imports(src: Path = SRC) -> list[str]:
    """Imports of the model package, at any depth, in every module
    under ``src/repro/`` that is not allowed one."""
    errors = []
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(MODEL_IMPORTERS):
            continue
        shown = path.relative_to(src.parent)
        package = rel.split("/")[:-1]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(shown))):
            if any(
                name == MODEL_PACKAGE or name.startswith(MODEL_PACKAGE + ".")
                for name in _imported_modules(node, package)
            ):
                errors.append(
                    f"{shown}:{node.lineno}: imports {MODEL_PACKAGE} "
                    f"outside {' and '.join(MODEL_IMPORTERS)}"
                )
    return errors


def main() -> int:
    errors = check_model_imports() + check_dimension_ratchet()
    if errors:
        print("check_imports: FAIL")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_imports: OK — nothing under src/repro/ outside "
          f"{' and '.join(MODEL_IMPORTERS)} imports {MODEL_PACKAGE}; "
          f"dimension-suffixed definitions only in "
          f"{len(DIMENSIONAL_ALLOWED)} allow-listed places")
    return 0


if __name__ == "__main__":
    sys.exit(main())
