#!/usr/bin/env python
"""Structure lints: nothing a run executes imports the paper-model
testbed or reads the config axes only the testbed prices, the testbed
executes nothing in parallel, the parallel engine names no dimension,
and dimension-suffixed code only lives where it is written down.

The repo holds two kinds of code.  The *engine* is what a run, a
worker process or a ``repro serve`` process executes.  The *model* is
the simulated testbed that reproduces the paper's Tables II–VII on a
modelled machine — cache/trace/cost/bandwidth models, the MPI/OpenMP
cost models, the scaling series — and it is one directory:
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

Its mirror, with the same walk: no module under ``repro/model/``
imports ``threading``, ``queue``, ``multiprocessing`` or
``concurrent``.  The model prices §V's parallel execution; the one
executed rendering of it is ``repro.parallel`` (``numpy-mp``).

And with the same walk again: no module under ``repro/parallel/``
imports ``repro.pic3d``.  The engine serves 2D and 3D steppers alike; a
worker rebuilds the stepper's ordering from its
:attr:`~repro.curves.base.CellOrdering.spec` through the one registry,
so nothing it executes needs the 3D stepper's module.

And once more: no module under ``src/repro/`` outside ``repro/model/``
reads ``.field_layout``, ``.particle_layout``, ``.loop_mode`` or
``.hoisting`` (an attribute load, at any depth).  Those four
:class:`~repro.model.config.ModelConfig` axes name the paper's
baselines — point-based fields, AoS particles, the single loop,
un-hoisted units — which the model prices and no stepper executes:
every run keeps redundant rows and SoA columns, runs the split loops
and stores hoisted units.  The run config's ``particle_layout`` class
constant, which the frozen benchmark ledger reads, is no exception;
the checkpoint loader reads an old archive's ``"hoisting"`` key, not
the attribute.

The second lint is a ratchet on the 2D/3D fork (ROADMAP, "One
statement per kernel").  A ``class``/``def`` whose name ends in
``3d``/``3D`` (or carries it before a ``_``-separated suffix) must be
written down in :data:`DIMENSIONAL_ALLOWED`, per file and **by name**:
a name that is not listed fails, a listed name that is no longer
defined fails, and so does one defined twice in its file (an override
of an adapter) — the list can only shrink, and a PR that deletes one
such definition has to show it here.  The
modules of :data:`DIMENSION_FREE` — the cell orderings, the Poisson
solver, the particle store, the shared-memory engine, the differential
runner — additionally hold no string ending in ``2d``/``3d`` (a worker
op name, a layout tag, an ordering name) outside ``__all__``.

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

#: what no module of the model package imports: it prices parallel
#: execution and never performs it
CONCURRENCY_MODULES = ("threading", "queue", "multiprocessing", "concurrent")

#: the 3D package, and the directory (relative to ``src/``) none of
#: whose modules may import it
PIC3D_PACKAGE = "repro.pic3d"
PIC3D_FREE = "repro/parallel/"

#: the config axes only the model reads, and the files under
#: ``src/repro/`` that may read them (relative to ``src/``)
MODEL_AXES = ("field_layout", "particle_layout", "loop_mode", "hoisting",
              "sort_variant")
MODEL_AXIS_READERS = ("repro/model/",)

#: every dimension-suffixed class/def that still exists, by file
#: (relative to ``src/``): the three ``*_3d`` adapters the frozen
#: benchmark ledger calls, the two 3D checkpoint entry points, the 3D
#: grid / case / stepper classes, the verifier's 3D scenario sampler
#: and its 3D two-stream oracle
DIMENSIONAL_ALLOWED = {
    "repro/core/backends.py": {
        "interpolate_redundant_3d", "accumulate_redundant_3d", "push_positions_3d",
    },
    "repro/core/checkpoint.py": {"save_checkpoint_3d", "load_checkpoint_3d"},
    "repro/pic3d/grid3d.py": {"GridSpec3D"},
    "repro/pic3d/stepper3d.py": {"LandauDamping3D", "TwoStream3D", "PICStepper3D"},
    "repro/verify/configspace.py": {"grid3d", "case3d", "_sample_one_3d"},
    "repro/verify/oracles.py": {"two_stream_3d_oracle"},
}

#: modules that serve every dimension and name none
DIMENSION_FREE = (
    "repro/curves/*.py",
    "repro/grid/poisson.py",
    "repro/parallel/executor.py",
    "repro/parallel/shm.py",
    "repro/particles/*.py",
    "repro/verify/differ.py",
)


def dimension_names(path: Path, strings: bool) -> list[tuple[int, str, str]]:
    """``(line, "definition" | "string", name)`` of every
    dimension-suffixed definition (and, with ``strings``, string
    constant) in one module.  The entries of ``__all__`` are no tags:
    they name definitions, which the definition rule already sees."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = {
        id(entry)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for entry in getattr(node.value, "elts", ())
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if re.search(r"3[dD](_|$)", node.name):
                found.append((node.lineno, "definition", node.name))
        elif (
            strings and isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in exported
        ):
            if re.fullmatch(r"[\w-]*[a-z_-][23]d", node.value):
                found.append((node.lineno, "string", node.value))
    return found


def check_dimension_ratchet(src: Path = SRC, allowed=None) -> list[str]:
    """Every dimension-suffixed name under ``src`` against ``allowed``
    (default :data:`DIMENSIONAL_ALLOWED`), both ways."""
    allowed = DIMENSIONAL_ALLOWED if allowed is None else allowed
    free = {p for g in DIMENSION_FREE for p in src.glob(g)}
    errors = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        listed = allowed.get(rel, set())
        defined = []
        for line, kind, name in dimension_names(path, strings=path in free):
            if kind == "string":
                errors.append(
                    f"{rel}:{line}: string {name!r} in a DIMENSION_FREE module"
                )
            elif name not in listed:
                errors.append(
                    f"{rel}:{line}: definition {name!r} is not in "
                    f"DIMENSIONAL_ALLOWED"
                )
            else:
                if name in defined:
                    errors.append(f"{rel}:{line}: {name!r} is defined twice")
                defined.append(name)
        errors += [
            f"tools/check_imports.py: DIMENSIONAL_ALLOWED[{rel!r}] lists "
            f"{name!r}, which is no longer defined there; remove it"
            for name in sorted(listed - set(defined))
        ]
    errors += [
        f"tools/check_imports.py: DIMENSIONAL_ALLOWED names {rel!r}, "
        f"which does not exist"
        for rel in allowed if not (src / rel).is_file()
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


def _imports_of(path: Path, src: Path, roots) -> list[tuple[Path, int, str]]:
    """``(path shown, line, module)`` of every import, at any depth, in
    one module under ``src`` that names one of ``roots`` or a
    submodule of one."""
    rel = path.relative_to(src).as_posix()
    shown = path.relative_to(src.parent)
    package = rel.split("/")[:-1]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(shown))):
        for name in _imported_modules(node, package):
            if any(name == root or name.startswith(root + ".") for root in roots):
                found.append((shown, node.lineno, name))
                break
    return found


def check_model_imports(src: Path = SRC) -> list[str]:
    """Imports of the model package, at any depth, in every module
    under ``src/repro/`` that is not allowed one."""
    errors = []
    for path in sorted((src / "repro").rglob("*.py")):
        if path.relative_to(src).as_posix().startswith(MODEL_IMPORTERS):
            continue
        errors += [
            f"{shown}:{line}: imports {MODEL_PACKAGE} "
            f"outside {' and '.join(MODEL_IMPORTERS)}"
            for shown, line, _name in _imports_of(path, src, (MODEL_PACKAGE,))
        ]
    return errors


def check_model_concurrency(src: Path = SRC) -> list[str]:
    """Imports of a concurrency module, at any depth, in every module
    of the model package."""
    return [
        f"{shown}:{line}: imports {name}: {MODEL_PACKAGE} prices parallel "
        f"execution, repro.parallel performs it"
        for path in sorted((src / "repro" / "model").rglob("*.py"))
        for shown, line, name in _imports_of(path, src, CONCURRENCY_MODULES)
    ]


def check_parallel_imports(src: Path = SRC) -> list[str]:
    """Imports of the 3D package, at any depth, in every module under
    ``repro/parallel/``."""
    return [
        f"{shown}:{line}: imports {name}: the parallel engine serves every "
        f"dimension and names none"
        for path in sorted((src / PIC3D_FREE).rglob("*.py"))
        for shown, line, name in _imports_of(path, src, (PIC3D_PACKAGE,))
    ]


def check_model_axes(src: Path = SRC) -> list[str]:
    """Attribute loads of a :data:`MODEL_AXES` name, at any depth, in
    every module under ``src/repro/`` that may not read one."""
    errors = []
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(MODEL_AXIS_READERS):
            continue
        tree = ast.parse(path.read_text(), filename=rel)
        errors += [
            f"{path.relative_to(src.parent)}:{node.lineno}: reads "
            f".{node.attr}, an axis only {MODEL_PACKAGE} prices"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in MODEL_AXES
            and isinstance(node.ctx, ast.Load)
        ]
    return errors


def main() -> int:
    errors = (
        check_model_imports() + check_model_concurrency()
        + check_parallel_imports() + check_model_axes()
        + check_dimension_ratchet()
    )
    if errors:
        print("check_imports: FAIL")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"check_imports: OK — nothing under src/repro/ outside "
          f"{' and '.join(MODEL_IMPORTERS)} imports {MODEL_PACKAGE}, "
          f"which imports no concurrency module; nothing under "
          f"{PIC3D_FREE} imports {PIC3D_PACKAGE}; only "
          f"{' and '.join(MODEL_AXIS_READERS)} read "
          f"{', '.join(MODEL_AXES)}; "
          f"the {sum(map(len, DIMENSIONAL_ALLOWED.values()))} "
          f"dimension-suffixed definitions are the ones written down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
