"""Golden-run regression artifacts: committed digests of the reference path.

A golden document pins one small, named simulation (`landau`,
`two_stream`, `gaussian_bump`, and the scenario-zoo cases
`bounded_wall`, `beam_plasma`, `exb_drift`) as JSON: the exact generator parameters, a **per-step
sha256 digest** of the full canonical state (particle arrays + solved
grids) from the reference path (numpy backend), and the
per-step diagnostic series (field/kinetic energy, mode amplitude) as
exact round-tripping float64 values.

The gate (:mod:`tools.verify_gate`) then holds backends to the
document per the promise matrix:

* **bitwise backends** (numpy, c, numpy-mp): every per-step digest and
  every series value must match *exactly* — a single-ULP change
  anywhere in the state flips the sha256 and fails the gate, which is
  precisely the sensitivity a numerical-regression tripwire needs;
* **tolerance backends** (anything registered beyond those three): the
  series must agree within the per-quantity tolerances recorded in
  the document.

Regeneration (after an *intentional* numerics change) is one command —
``python tools/verify_gate.py --regenerate`` — followed by a commit of
the refreshed ``golden/GOLDEN_*.json``; the workflow is documented in
``docs/verification.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.simulation import Simulation
from repro.grid.spec import GridSpec
from repro.particles.initializers import (
    BeamPlasma,
    BoundedPlasma,
    GaussianBump,
    LandauDamping,
    MagnetizedExB,
    TwoStream,
)

__all__ = [
    "GOLDEN_SCHEMA",
    "GoldenCheckResult",
    "golden_cases",
    "generate_golden",
    "check_golden",
    "load_golden",
    "save_golden",
    "default_golden_dir",
]

GOLDEN_SCHEMA = 1

#: backends promised bitwise-equal to the reference path: held to
#: exact digests and exact series values
_BITWISE_BACKENDS = ("numpy", "c", "numpy-mp")

#: per-quantity relative tolerances for tolerance-level backends
_SERIES_TOLERANCES = {
    "field_energy": 1e-7,
    "kinetic_energy": 1e-9,
    "mode_amplitude": 1e-7,
}

#: the named golden scenarios (small on purpose: the gate must cost
#: seconds, and sensitivity comes from the digests, not the run size).
#: ``xmax_pi``/``ymax_pi`` default to the classic 4pi x 2pi box; the
#: beam case uses its resonant 10pi box so the pinned run exercises
#: the same mode the acceptance oracle measures.
_CASES = {
    "landau": dict(
        case="landau", alpha=0.1, ncx=32, ncy=8,
        n_particles=3000, n_steps=40, dt=0.05, seed=0,
    ),
    "two_stream": dict(
        case="two_stream", alpha=0.01, ncx=32, ncy=8,
        n_particles=3000, n_steps=40, dt=0.05, seed=0,
    ),
    "gaussian_bump": dict(
        case="gaussian_bump", ncx=32, ncy=8,
        n_particles=3000, n_steps=40, dt=0.05, seed=0,
    ),
    "bounded_wall": dict(
        case="bounded_wall", ncx=32, ncy=8,
        n_particles=3000, n_steps=40, dt=0.05, seed=0,
    ),
    "beam_plasma": dict(
        case="beam_plasma", alpha=1e-3, ncx=32, ncy=8,
        n_particles=3000, n_steps=40, dt=0.05, seed=0, xmax_pi=10,
    ),
    "exb_drift": dict(
        case="exb_drift", ncx=32, ncy=8,
        n_particles=3000, n_steps=40, dt=0.05, seed=0,
    ),
}

#: golden-case name -> initial-condition factory (reads the generator
#: params recorded in the document, so a committed JSON is self-
#: describing and regeneration cannot drift from the check)
_CASE_FACTORIES = {
    "landau": lambda p: LandauDamping(alpha=p["alpha"], vth=1.0),
    "two_stream": lambda p: TwoStream(v0=2.4, vth=0.5, alpha=p["alpha"]),
    "gaussian_bump": lambda p: GaussianBump(),
    "bounded_wall": lambda p: BoundedPlasma(),
    "beam_plasma": lambda p: BeamPlasma(alpha=p["alpha"]),
    "exb_drift": lambda p: MagnetizedExB(),
}


def golden_cases() -> tuple[str, ...]:
    """Names of the golden scenarios, in generation order."""
    return tuple(_CASES)


def default_golden_dir() -> Path:
    """The committed ``golden/`` directory at the repo root."""
    return Path(__file__).resolve().parents[3] / "golden"


def _build_simulation(params: dict, backend: str) -> Simulation:
    grid = GridSpec(params["ncx"], params["ncy"],
                    xmax=params.get("xmax_pi", 4) * np.pi,
                    ymax=params.get("ymax_pi", 2) * np.pi)
    case = _CASE_FACTORIES[params["case"]](params)
    config = OptimizationConfig(ordering="morton", backend=backend)
    return Simulation(
        grid, case, params["n_particles"], config,
        dt=params["dt"], seed=params["seed"], quiet=True,
    )


def state_digest(stepper) -> str:
    """sha256 over the canonical state: particles + solved grids.

    Every float64 bit pattern participates, so any one-ULP change in
    any array element yields a different digest.
    """
    h = hashlib.sha256()
    p = stepper.particles
    for name in ("icell", "dx", "dy", "vx", "vy"):
        h.update(np.ascontiguousarray(np.asarray(getattr(p, name))).tobytes())
    for arr in (stepper.rho_grid, stepper.ex_grid, stepper.ey_grid):
        h.update(np.ascontiguousarray(np.asarray(arr)).tobytes())
    return h.hexdigest()


def generate_golden(case_name: str, backend: str = "numpy") -> dict:
    """Run the named scenario on the reference path; return the document."""
    params = dict(_CASES[case_name])
    sim = _build_simulation(params, backend)
    digests = [state_digest(sim.stepper)]
    try:
        for _ in range(params["n_steps"]):
            sim.step()
            digests.append(state_digest(sim.stepper))
        series = {
            name: [float(v) for v in getattr(sim.history, name)]
            for name in ("field_energy", "kinetic_energy", "mode_amplitude")
        }
    finally:
        sim.close()
    return {
        "schema": GOLDEN_SCHEMA,
        "name": case_name,
        "generator": params,
        "generator_backend": backend,
        "digests": digests,
        "series": series,
        "series_tolerances": dict(_SERIES_TOLERANCES),
    }


def save_golden(doc: dict, path: Path | str) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_golden(path: Path | str) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"golden schema {doc.get('schema')!r} != {GOLDEN_SCHEMA} in {path}"
        )
    return doc


@dataclass
class GoldenCheckResult:
    """One backend held against one golden document."""

    name: str
    backend: str
    relation: str  #: "bitwise" or "tolerance"
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        head = f"{self.name} [{self.backend}, {self.relation}]"
        if self.ok:
            return f"{head}: ok"
        shown = "; ".join(self.mismatches[:3])
        more = len(self.mismatches) - 3
        if more > 0:
            shown += f"; (+{more} more)"
        return f"{head}: {shown}"


def check_golden(doc: dict, backend: str = "numpy") -> GoldenCheckResult:
    """Re-run the golden scenario on ``backend`` and compare.

    Bitwise backends are compared digest-by-digest and series-value-
    by-series-value (JSON round-trips float64 exactly, so equality is
    meaningful); tolerance backends only by series within the
    document's per-quantity tolerances.
    """
    relation = "bitwise" if backend in _BITWISE_BACKENDS else "tolerance"
    result = GoldenCheckResult(doc["name"], backend, relation)
    params = doc["generator"]
    sim = _build_simulation(params, backend)
    digests = [state_digest(sim.stepper)]
    try:
        for _ in range(params["n_steps"]):
            sim.step()
            digests.append(state_digest(sim.stepper))
        history = sim.history
    finally:
        sim.close()

    if relation == "bitwise":
        for step, (got, want) in enumerate(zip(digests, doc["digests"])):
            if got != want:
                result.mismatches.append(
                    f"state digest differs at step {step}"
                )
                break  # later steps inherit the divergence
        if len(digests) != len(doc["digests"]):
            result.mismatches.append(
                f"step count {len(digests) - 1} != golden "
                f"{len(doc['digests']) - 1}"
            )
    for name, golden_vals in doc["series"].items():
        got_vals = [float(v) for v in getattr(history, name)]
        if len(got_vals) != len(golden_vals):
            result.mismatches.append(f"series {name}: length mismatch")
            continue
        if relation == "bitwise":
            bad = [i for i, (a, b) in enumerate(zip(got_vals, golden_vals))
                   if a != b]
            if bad:
                result.mismatches.append(
                    f"series {name}: exact mismatch first at index {bad[0]}"
                )
            continue
        tol = doc["series_tolerances"].get(name, 1e-7)
        a = np.asarray(got_vals)
        b = np.asarray(golden_vals)
        scale = max(float(np.max(np.abs(b))), np.finfo(np.float64).tiny)
        worst = float(np.max(np.abs(a - b))) / scale
        if worst > tol:
            result.mismatches.append(
                f"series {name}: max rel diff {worst:.3e} > tol {tol:.1e}"
            )
    return result
