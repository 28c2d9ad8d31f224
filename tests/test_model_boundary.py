"""The engine/model boundary is a directory: ``src/repro/model/`` holds
the paper-model testbed, and nothing a run executes loads it.

Two halves: the static rule of ``tools/check_imports.py`` (no import of
``repro.model`` under ``src/repro/`` outside ``repro/model/`` and
``cli.py``, at any nesting depth) and its runtime counterpart (a
stepped ``numpy`` / ``numpy-mp`` run and an idle ``JobEngine`` leave no
``repro.model*`` module in ``sys.modules``).  Its mirror: nothing under
``repro/model/`` imports a concurrency module — the model prices §V's
parallel execution, ``numpy-mp`` is the one rendering that runs it.
And the engine that runs it names no dimension: nothing under
``repro/parallel/`` imports ``repro.pic3d``.  Nor does anything a run
executes read the config axes only the model prices
(``field_layout``, ``particle_layout``, ``loop_mode``).  Beside the
dimension ratchet sits an options ratchet: the settable values of the
run config and of the layers around the stepper, pinned by name.
"""

import dataclasses
import inspect
import os
import pathlib
import subprocess
import sys

from tests.conftest import load_tool

REPO = pathlib.Path(__file__).resolve().parents[1]

_PROBE = """
import sys
import numpy as np
import repro.core, repro.parallel.executor, repro.perf.instrument
import repro.service, repro.resilience, repro.verify
from repro.core import OptimizationConfig, Simulation
from repro.grid import GridSpec
from repro.particles import LandauDamping
from repro.service import JobEngine

grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
for backend in ("numpy", "numpy-mp"):
    cfg = OptimizationConfig(backend=backend, workers=2)
    with Simulation(grid, LandauDamping(alpha=0.05), 2000, cfg, seed=1) as sim:
        sim.run(2)
with JobEngine(max_workers=1):
    pass
print(sorted(m for m in sys.modules if m.startswith("repro.model")))
"""


def test_a_run_never_loads_the_model():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_lint_is_green_on_the_tree():
    assert load_tool("check_imports").check_model_imports() == []


def test_lint_sees_an_import_at_any_depth(tmp_path):
    """A function-level (or ``TYPE_CHECKING``, or relative) import of
    the model from an engine package fails; the model itself and
    ``cli.py`` may import it."""
    pkg = tmp_path / "repro"
    for sub in ("core", "model"):
        (pkg / sub).mkdir(parents=True)
    (pkg / "core" / "lazy.py").write_text(
        "def f():\n    from repro.model import costmodel\n    return costmodel\n"
    )
    (pkg / "core" / "typed.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import repro.model.machine\n"
    )
    (pkg / "core" / "relative.py").write_text("from ..model import cache\n")
    (pkg / "core" / "clean.py").write_text("import repro.perf.instrument\n")
    (pkg / "model" / "scaling.py").write_text("from repro.model import mpi\n")
    (pkg / "cli.py").write_text(
        "def cmd():\n    from repro.model.machine import MachineSpec\n"
    )
    errors = load_tool("check_imports").check_model_imports(tmp_path)
    flagged = sorted(e.split(":")[0].rsplit("/", 1)[-1] for e in errors)
    assert flagged == ["lazy.py", "relative.py", "typed.py"]
    assert any(e.split(":")[1] == "2" and "lazy.py" in e for e in errors)


def test_model_lint_is_green_on_the_tree():
    assert load_tool("check_imports").check_model_concurrency() == []


def test_model_lint_sees_a_concurrency_import_at_any_depth(tmp_path):
    """The model prices parallel execution and never performs it: an
    import of ``threading`` / ``queue`` / ``multiprocessing`` /
    ``concurrent`` anywhere under ``repro/model/`` fails; the engine
    packages may import them."""
    pkg = tmp_path / "repro"
    for sub in ("model", "parallel"):
        (pkg / sub).mkdir(parents=True)
    (pkg / "model" / "ranks.py").write_text(
        "def run():\n    import threading\n    return threading\n"
    )
    (pkg / "model" / "pool.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
    )
    (pkg / "model" / "typed.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import multiprocessing.shared_memory\n"
    )
    (pkg / "model" / "chan.py").write_text("x = 1\nfrom queue import Queue\n")
    (pkg / "model" / "clean.py").write_text(
        "import math\nfrom . import queueing\nimport repro.parallel.partition\n"
    )
    (pkg / "parallel" / "shm.py").write_text("import multiprocessing, threading\n")
    errors = load_tool("check_imports").check_model_concurrency(tmp_path)
    flagged = sorted(e.split(":")[0].rsplit("/", 1)[-1] for e in errors)
    assert flagged == ["chan.py", "pool.py", "ranks.py", "typed.py"]
    assert any("ranks.py:2: imports threading" in e for e in errors)
    assert any("chan.py:2: imports queue" in e for e in errors)


def test_parallel_lint_is_green_on_the_tree():
    assert load_tool("check_imports").check_parallel_imports() == []


def test_parallel_lint_sees_a_pic3d_import_at_any_depth(tmp_path):
    """The engine serves every dimension: an import of ``repro.pic3d``
    or a module of it anywhere under ``repro/parallel/`` fails — a
    function-level one included; other packages may import it."""
    pkg = tmp_path / "repro"
    for sub in ("parallel", "core"):
        (pkg / sub).mkdir(parents=True)
    (pkg / "parallel" / "executor.py").write_text(
        "def resolve(stepper):\n"
        "    from repro.pic3d.stepper3d import PICStepper3D\n"
        "    return isinstance(stepper, PICStepper3D)\n"
    )
    (pkg / "parallel" / "shm.py").write_text("from ..pic3d import GridSpec3D\n")
    (pkg / "parallel" / "clean.py").write_text(
        "from repro.curves.base import get_ordering\n"
    )
    (pkg / "core" / "checkpoint.py").write_text(
        "def load():\n    from repro.pic3d import PICStepper3D\n"
    )
    errors = load_tool("check_imports").check_parallel_imports(tmp_path)
    flagged = sorted(e.split(":")[0].rsplit("/", 1)[-1] for e in errors)
    assert flagged == ["executor.py", "shm.py"]
    assert any("executor.py:2: imports repro.pic3d.stepper3d" in e for e in errors)


def test_model_axis_lint_is_green_on_the_tree():
    assert load_tool("check_imports").check_model_axes() == []


def test_model_axis_lint_sees_a_read_at_any_depth(tmp_path):
    """Reading ``.field_layout`` / ``.particle_layout`` / ``.loop_mode``
    / ``.hoisting`` / ``.sort_variant`` / ``.position_update`` anywhere
    under ``src/repro/`` fails — inside a method or a comprehension too,
    and in ``core/config.py``, which holds the ledger's
    ``particle_layout`` and ``position_update`` constants but reads no
    axis;
    only ``repro/model/`` may read them, and naming one as a keyword
    (building a config) or a dict key (an old archive's stored config)
    is no read."""
    pkg = tmp_path / "repro"
    for sub in ("core", "model", "verify", "pic3d"):
        (pkg / sub).mkdir(parents=True)
    (pkg / "core" / "stepper.py").write_text(
        "class S:\n"
        "    def build(self):\n"
        "        if self.config.field_layout == 'standard':\n"
        "            return 1\n"
    )
    (pkg / "verify" / "differ.py").write_text(
        "x = [c.particle_layout for c in ()]\ny = cfg.loop_mode\n"
    )
    (pkg / "core" / "config.py").write_text("v = self.loop_mode\n")
    (pkg / "model" / "trace.py").write_text("v = cfg.field_layout\n")
    (pkg / "pic3d" / "stepper3d.py").write_text(
        "def check(config):\n"
        "    if not config.hoisting:\n"
        "        raise ValueError('hoisted units only')\n"
    )
    (pkg / "model" / "costmodel.py").write_text(
        "extra = not cfg.hoisting\nslow = cfg.sort_variant == 'in-place'\n"
        "branchy = cfg.position_update == 'branch'\n"
    )
    (pkg / "core" / "reference.py").write_text(
        "def push(self):\n"
        "    return {a: self.config.position_update for a in 'xy'}\n"
    )
    (pkg / "core" / "sort.py").write_text(
        "def sort(self):\n"
        "    return [s for s in (self,) if s.config.sort_variant]\n"
    )
    (pkg / "core" / "clean.py").write_text(
        "cfg = Config(field_layout='standard', hoisting=False,\n"
        "             sort_variant='in-place', position_update='branch')\n"
        "layout = 'aos'\nhoisted = saved.get('hoisting', True)\n"
    )
    errors = load_tool("check_imports").check_model_axes(tmp_path)
    assert sorted(e.split(": ", 1)[0].split("repro/", 1)[1] for e in errors) == [
        "core/config.py:1", "core/reference.py:2", "core/sort.py:2",
        "core/stepper.py:3", "pic3d/stepper3d.py:2", "verify/differ.py:1",
        "verify/differ.py:2",
    ]
    assert any("reads .particle_layout" in e for e in errors)
    assert any("reads .hoisting" in e for e in errors)
    assert any("reads .sort_variant" in e for e in errors)
    assert any("reads .position_update" in e for e in errors)


def test_model_axis_lint_sees_a_store_coords_read(tmp_path):
    """The §IV-B rule is a model axis too: a stepper, checkpoint or
    kernel that reads ``.effective_store_coords`` to fork the particle
    record fails; the run config's class constant (a store, not a
    load), the ledger-pinned keyword and an old archive's
    ``"store_coords"`` key do not, nor does the model's own read."""
    pkg = tmp_path / "repro"
    for sub in ("core", "model", "particles"):
        (pkg / sub).mkdir(parents=True)
    (pkg / "core" / "stepper.py").write_text(
        "def load(config):\n"
        "    return load_particles(store_coords=config.effective_store_coords)\n"
    )
    (pkg / "core" / "backends.py").write_text(
        "coords = [cfg.effective_store_coords and 'ix' for cfg in ()]\n"
    )
    (pkg / "core" / "config.py").write_text(
        "class C:\n    effective_store_coords = True\n"
    )
    (pkg / "core" / "checkpoint.py").write_text(
        "stored = meta.get('store_coords', True)\n"
    )
    (pkg / "particles" / "initializers.py").write_text(
        "def load_particles(store_coords=True):\n    return store_coords\n"
    )
    (pkg / "model" / "costmodel.py").write_text(
        "record = 7 if config.effective_store_coords else 5\n"
    )
    errors = load_tool("check_imports").check_model_axes(tmp_path)
    assert sorted(e.split(": ", 1)[0].split("repro/", 1)[1] for e in errors) == [
        "core/backends.py:1", "core/stepper.py:2",
    ]
    assert all("reads .effective_store_coords" in e for e in errors)


def test_dimension_ratchet_is_by_name(tmp_path):
    """The 2D/3D ratchet knows each dimension-suffixed definition by
    file *and name*: a new one fails, so does a listed one that is
    gone, one defined twice (an overridden adapter), and a listed file
    that does not exist."""
    lint = load_tool("check_imports")
    assert lint.check_dimension_ratchet() == []
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "backends.py").write_text(
        "class Base:\n"
        "    def push_positions_3d(self): ...\n"
        "    def fused_3d(self): ...\n"
        "class Fast(Base):\n"
        "    def push_positions_3d(self): ...\n"
    )
    (pkg / "fields.py").write_text("class Fields: ...\n")
    allowed = {
        "repro/core/backends.py": {"push_positions_3d", "kick_3d"},
        "repro/core/fields.py": {"Fields3D"},
        "repro/core/kernels3d.py": {"corner_weights_3d"},
    }
    errors = lint.check_dimension_ratchet(tmp_path, allowed)
    assert len(errors) == 5
    for needle in (
        "backends.py:3: definition 'fused_3d' is not in",
        "backends.py:5: 'push_positions_3d' is defined twice",
        "lists 'kick_3d', which is no longer defined",
        "lists 'Fields3D', which is no longer defined",
        "names 'repro/core/kernels3d.py', which does not exist",
    ):
        assert any(needle in e for e in errors), (needle, errors)
    # deletions the ratchet has recorded: the 3D field store and CiC
    # kernels by name; since the 3D ordering hierarchy, Morton pair and
    # solver went too, and the verifier's 3D grid / case / sampler
    # with the 3D stepper's own build, 10 names are left (the two
    # checkpoint names are aliases of the one pair)
    names = {n for listed in lint.DIMENSIONAL_ALLOWED.values() for n in listed}
    assert not names & {
        "RedundantFields3D", "corner_weights_3d", "corner_offsets_3d",
        "fused_interp_kick_push_3d", "grid3d", "case3d", "_sample_one_3d",
    }
    assert len(names) == 10
    assert lint.DIMENSIONAL_ALLOWED["repro/core/backends.py"] == {
        "interpolate_redundant_3d", "accumulate_redundant_3d", "push_positions_3d",
    }


def test_dimension_ratchet_sees_module_level_aliases(tmp_path):
    """A dimension-suffixed name bound by a module-level assignment —
    an alias of a generic function — is a name the ratchet knows like a
    ``def``: unlisted it fails, listed it passes.  A function's local
    variable is no module name."""
    lint = load_tool("check_imports")
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "checkpoint.py").write_text(
        "def save_checkpoint(): ...\n"
        "save_checkpoint_3d = save_checkpoint\n"
        "LOADER_3D: object = save_checkpoint\n"
        "def helper():\n"
        "    local_3d = 1\n"
        "    return local_3d\n"
    )
    assert lint.check_dimension_ratchet(tmp_path, {}) == [
        "repro/core/checkpoint.py:2: definition 'save_checkpoint_3d' is "
        "not in DIMENSIONAL_ALLOWED",
        "repro/core/checkpoint.py:3: definition 'LOADER_3D' is not in "
        "DIMENSIONAL_ALLOWED",
    ]
    allowed = {"repro/core/checkpoint.py": {"save_checkpoint_3d", "LOADER_3D"}}
    assert lint.check_dimension_ratchet(tmp_path, allowed) == []


def test_dimension_free_modules_hold_no_dimension_tag(tmp_path):
    """A dimension-tagged string in a ``DIMENSION_FREE`` module fails
    (a 3D ordering name, say); ``__all__`` entries name definitions,
    which the definition rule sees, and pass."""
    pkg = tmp_path / "repro" / "curves"
    pkg.mkdir(parents=True)
    (pkg / "hilbert.py").write_text(
        '__all__ = ["hilbert_encode_2d"]\n'
        "def hilbert_encode_2d(): ...\n"
        'CURVE = "morton-3d"\n'
    )
    errors = load_tool("check_imports").check_dimension_ratchet(tmp_path, {})
    assert errors == [
        "repro/curves/hilbert.py:3: string 'morton-3d' in a DIMENSION_FREE module"
    ]


def _settable(target) -> tuple[str, ...]:
    """The values a caller can set: a dataclass's init fields, else the
    parameters of the callable's signature."""
    if dataclasses.is_dataclass(target):
        return tuple(f.name for f in dataclasses.fields(target) if f.init)
    return tuple(inspect.signature(target).parameters)


def test_options_ratchet():
    """Every settable value below has a caller outside the tests that
    sets it, or is one a run cannot do without: adding a knob back, or
    removing one, edits this table."""
    from repro.core import OptimizationConfig
    from repro.parallel.executor import ShmEngine, WorkerPool
    from repro.particles import ParticleSoA, load_particles, particle_fields
    from repro.particles.initializers import sample_perturbed_positions
    from repro.perf.instrument import Instrumentation
    from repro.resilience import GuardSuite, SupervisedRun
    from repro.verify.configspace import ScenarioSampler
    from repro.verify.oracles import run_all_oracles

    assert {
        name: _settable(target) for name, target in {
            "OptimizationConfig": OptimizationConfig,
            "SupervisedRun": SupervisedRun,
            "GuardSuite": GuardSuite,
            "GuardSuite.from_spec": GuardSuite.from_spec,
            "GuardSuite.default": GuardSuite.default,
            "WorkerPool": WorkerPool,
            "ShmEngine": ShmEngine,
            "Instrumentation": Instrumentation,
            "run_all_oracles": run_all_oracles,
            "sample_perturbed_positions": sample_perturbed_positions,
            "ScenarioSampler": ScenarioSampler,
            "ParticleSoA": ParticleSoA,
            "particle_fields": particle_fields,
            "load_particles": load_particles,
        }.items()
    } == {
        "OptimizationConfig": ("ordering", "ordering_kwargs", "sort_period",
                               "backend", "workers", "mp_task_timeout"),
        "SupervisedRun": ("sim", "checkpoint_dir", "checkpoint_every",
                          "keep_checkpoints", "guards", "max_retries",
                          "backoff_base", "deadline_s", "elapsed_offset",
                          "on_checkpoint", "injector"),
        "GuardSuite": ("guards",),
        "GuardSuite.from_spec": ("spec",),
        "GuardSuite.default": (),
        "WorkerPool": ("nworkers", "timeout"),
        "ShmEngine": ("stepper",),
        "Instrumentation": ("timings", "per_step", "supervisor", "engine"),
        "run_all_oracles": ("backend",),
        "sample_perturbed_positions": ("n", "length", "alpha", "k", "rng",
                                       "quiet"),
        "ScenarioSampler": ("seed",),
        # one particle record: no store_coords knob on the store or its
        # column list; the loader's ``layout`` / ``store_coords`` are the
        # frozen ledger's keywords, each with one legal value
        "ParticleSoA": ("n", "weight", "ndim"),
        "particle_fields": ("ndim",),
        "load_particles": ("grid", "ordering", "case", "n", "layout", "seed",
                           "quiet", "density", "store_coords"),
    }
