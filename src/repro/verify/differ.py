"""The differential runner: lockstep cross-backend equivalence checks.

For one sampled :class:`~repro.verify.configspace.Scenario`, the
runner instantiates the same physical setup under several *execution
combos* (backend × worker count), advances
them in lockstep, and after every step holds each combo to the
baseline (numpy backend) under the repo's **promise
matrix**:

==================================  =========================================
combo vs baseline                   promised relation
==================================  =========================================
numpy-mp                            bitwise at 2 *and* 4 workers (the
                                    shared-memory fan-out preserves per-bin
                                    addition order; the histogram-balanced
                                    cuts of :mod:`repro.parallel.partition`
                                    differ per worker count and move work
                                    between workers, never what a rho row
                                    sums or in which order)
c, 2D and 3D                        bitwise (``ckernels.c`` and
                                    :mod:`repro.core.kernels` state the same
                                    CiC fold: left-product weights, corners
                                    folded in order, no FMA contraction)
scalar ReferenceStepper             bitwise (checked separately in tests;
                                    too slow for the sampled matrix)
==================================  =========================================

3D scenarios (``Scenario.dims == 3``) run the same lockstep drive over
:class:`~repro.pic3d.stepper3d.PICStepper3D` under the same matrix —
the step loop, the sort and the ``numpy-mp`` engine are the 2D ones.

Because the steppers advance in lockstep with
:attr:`~repro.core.stepper.PICStepper.phase_hook` capture, a
divergence is attributed on the spot: the report names the first
divergent step, the first divergent *kernel phase* within that step
(bisection over the captured per-phase snapshots), and the first
divergent array — no rerun needed.

:class:`Perturbation` injects a one-ULP (or scaled) bump into a live
run at a chosen step/phase — the test suite uses it to prove the
bisector pinpoints the offending phase rather than merely noticing
the end-of-run mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backends import available_backends
from repro.core.stepper import PICStepper
from repro.particles.storage import particle_fields
from repro.verify.configspace import Scenario

__all__ = [
    "Combo",
    "Divergence",
    "PairResult",
    "Perturbation",
    "ScenarioReport",
    "DifferentialRunner",
]

#: canonical phase order used when bisecting within a step
_PHASE_ORDER = ("sort", "update_v", "update_x", "accumulate", "solve")


@dataclass(frozen=True)
class Combo:
    """One execution strategy: everything the physics must not see."""

    backend: str
    workers: int | None = None

    def label(self) -> str:
        parts = [self.backend]
        if self.workers is not None:
            parts.append(f"w{self.workers}")
        return "/".join(parts)


@dataclass(frozen=True)
class Perturbation:
    """A deliberate fault: bump one array of the pair run mid-flight.

    Applied immediately *before* the phase checkpoint is captured at
    ``(step, phase)``, so the captured snapshot carries the fault and
    the bisector must attribute the divergence to exactly this phase.
    ``factor`` scales the array; the default `nextafter` mode bumps
    every element by one ULP instead.
    """

    step: int
    phase: str
    array: str = "vx"
    factor: float | None = None  #: None -> one-ULP nextafter bump

    def apply(self, stepper) -> None:
        arr = stepper.particles[self.array]
        if self.factor is None:
            arr[:] = np.nextafter(arr, np.inf)
        else:
            arr[:] = arr * self.factor


@dataclass
class Divergence:
    """Where two runs first disagreed, and by how much."""

    step: int
    phase: str
    array: str
    max_abs: float
    max_rel: float

    def describe(self) -> str:
        return (
            f"step {self.step}, phase {self.phase!r}, array {self.array!r}: "
            f"max |diff| {self.max_abs:.3e} (rel {self.max_rel:.3e})"
        )


@dataclass
class PairResult:
    """One combo held against the baseline for a whole scenario."""

    combo: Combo
    relation: str  #: "bitwise" — the only promise the matrix makes
    ok: bool
    divergence: Divergence | None = None

    def describe(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        msg = f"{self.combo.label()} [{self.relation}] {status}"
        if self.divergence is not None:
            msg += f" — {self.divergence.describe()}"
        return msg


@dataclass
class ScenarioReport:
    scenario: Scenario
    baseline: Combo
    pairs: list[PairResult]
    #: None when the scenario never sorts; else True iff every sort
    #: was an exact permutation of the pre-sort particle multiset
    sort_permutation_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs) and self.sort_permutation_ok is not False

    def describe(self) -> str:
        lines = [self.scenario.label()]
        for p in self.pairs:
            lines.append("  " + p.describe())
        if self.sort_permutation_ok is not None:
            lines.append(
                "  sort-permutation "
                + ("ok" if self.sort_permutation_ok else "VIOLATED")
            )
        return "\n".join(lines)


class _Run:
    """A live stepper plus its per-phase snapshots for the current step."""

    def __init__(self, scenario: Scenario, combo: Combo,
                 perturbation: Perturbation | None = None):
        self.combo = combo
        self.perturbation = perturbation
        cfg = scenario.config(backend=combo.backend, workers=combo.workers)
        #: particle arrays captured at every phase checkpoint (the cell
        #: coordinates are a function of ``icell``)
        self.arrays = particle_fields(scenario.dims, store_coords=False)
        if scenario.dims == 3:
            from repro.pic3d.stepper3d import PICStepper3D

            self.stepper = PICStepper3D(
                scenario.grid3d(), scenario.case3d(), scenario.n_particles,
                dt=scenario.dt, config=cfg,
            )
        else:
            self.stepper = PICStepper(
                scenario.grid(), cfg,
                case=scenario.case(), n_particles=scenario.n_particles,
                dt=scenario.dt, seed=scenario.seed, quiet=True,
            )
        self.stepper.phase_hook = self._hook
        self.phase_states: dict[str, dict[str, np.ndarray]] = {}
        self.step_index = 0

    def _snapshot(self, phase: str) -> dict[str, np.ndarray]:
        st = self.stepper
        state = {name: np.array(st.particles[name]) for name in self.arrays}
        if phase in ("accumulate", "solve"):
            state["rho_raw"] = np.array(st.fields.rho_1d)
        if phase == "solve":
            state["rho_grid"] = np.array(st.rho_grid)
            state["ex_grid"] = np.array(st.ex_grid)
            state["ey_grid"] = np.array(st.ey_grid)
            ez = getattr(st, "ez_grid", None)
            if ez is not None:
                state["ez_grid"] = np.array(ez)
        return state

    def _hook(self, phase: str, stepper) -> None:
        p = self.perturbation
        if p is not None and p.step == self.step_index and p.phase == phase:
            p.apply(stepper)
        self.phase_states[phase] = self._snapshot(phase)

    def step(self) -> None:
        self.phase_states.clear()
        self.stepper.step()
        self.step_index += 1

    def close(self) -> None:
        self.stepper.close()


def _max_diffs(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    scale = max(
        float(np.max(np.abs(a))) if a.size else 0.0,
        float(np.max(np.abs(b))) if b.size else 0.0,
        np.finfo(np.float64).tiny,
    )
    mx = float(np.max(d)) if d.size else 0.0
    return mx, mx / scale


class DifferentialRunner:
    """Execute scenarios across every available combo and compare.

    Parameters
    ----------
    include_mp:
        Include the ``numpy-mp`` combo when importable.  On by
        default; the CLI exposes ``--no-mp`` because worker-pool
        startup dominates tiny runs.
    mp_workers:
        Worker count for the first ``numpy-mp`` combo of a
        scenario; a second runs at the flipped count (4, or 2 when
        ``mp_workers`` is 4), so every scenario pins two different
        histogram cuts against the serial deposit.
    """

    def __init__(self, include_mp: bool = True, mp_workers: int = 2):
        self.include_mp = include_mp
        self.mp_workers = int(mp_workers)

    # -- combo enumeration --------------------------------------------
    def combos(self, scenario: Scenario) -> list[tuple[Combo, str]]:
        """(combo, promised relation) pairs for one scenario.

        The baseline (numpy) is not included; every returned combo is
        compared against it.
        """
        avail = set(available_backends())
        combos: list[tuple[Combo, str]] = []
        if "numpy-mp" in avail and self.include_mp:
            # worker-count flip: two pools cut the cell rows at
            # different histogram-balanced positions, and every cut
            # must reproduce the serial deposit
            for workers in (self.mp_workers, 2 if self.mp_workers == 4 else 4):
                combos.append((Combo("numpy-mp", workers=workers), "bitwise"))
        if "c" in avail:
            combos.append((Combo("c"), "bitwise"))
        return combos

    # -- comparison ---------------------------------------------------
    def _compare_states(self, a: dict, b: dict):
        """First array that differs by a bit between two snapshots, or
        None."""
        for name in sorted(set(a) & set(b)):
            x, y = a[name], b[name]
            if x.tobytes() != y.tobytes():
                mx, rel = _max_diffs(x, y)
                return name, mx, rel
        return None

    # -- the lockstep drive -------------------------------------------
    def run_scenario(self, scenario: Scenario,
                     perturbation: Perturbation | None = None) -> ScenarioReport:
        """Advance all combos in lockstep; stop a pair at first divergence.

        ``perturbation`` (tests only) is injected into every non-
        baseline run, so the report must localize it.
        """
        baseline_combo = Combo("numpy")
        base = _Run(scenario, baseline_combo)
        pairs = [
            (combo, rel, _Run(scenario, combo, perturbation))
            for combo, rel in self.combos(scenario)
        ]
        results = {id(r): PairResult(c, rel, ok=True)
                   for c, rel, r in pairs}
        sort_ok: bool | None = None
        prev_particles: dict[str, np.ndarray] | None = None
        try:
            for step in range(scenario.n_steps):
                if scenario.sort_period and step and step % scenario.sort_period == 0:
                    prev_particles = {
                        name: np.array(base.stepper.particles[name])
                        for name in base.arrays
                    }
                else:
                    prev_particles = None
                base.step()
                if prev_particles is not None:
                    good = _is_permutation(
                        prev_particles, base.phase_states["sort"],
                        names=base.arrays,
                    )
                    sort_ok = good if sort_ok is None else (sort_ok and good)
                for combo, rel, run in pairs:
                    res = results[id(run)]
                    if not res.ok:
                        continue  # already diverged; stop driving it
                    run.step()
                    div = self._first_divergence(base, run, step)
                    if div is not None:
                        res.ok = False
                        res.divergence = div
        finally:
            base.close()
            for _, _, run in pairs:
                run.close()
        return ScenarioReport(
            scenario=scenario,
            baseline=baseline_combo,
            pairs=[results[id(r)] for _, _, r in pairs],
            sort_permutation_ok=sort_ok,
        )

    def _first_divergence(self, base: _Run, other: _Run,
                          step: int) -> Divergence | None:
        """Bisect the just-completed step down to phase + array."""
        for phase in _PHASE_ORDER:
            bad = self._compare_states(
                base.phase_states[phase], other.phase_states[phase]
            )
            if bad is not None:
                name, mx, rel = bad
                return Divergence(step, phase, name, mx, rel)
        return None

    def run(self, scenarios: list[Scenario]) -> list[ScenarioReport]:
        return [self.run_scenario(s) for s in scenarios]


def _is_permutation(before: dict[str, np.ndarray],
                    after: dict[str, np.ndarray],
                    names: tuple[str, ...]) -> bool:
    """True iff ``after`` is exactly a reordering of ``before``.

    Rows are particle tuples over ``names``; both sides are brought to
    the same canonical row order by a stable lexsort and compared
    bitwise — the counting sort must move particles, never touch them.
    """
    names = list(names)

    def canonical(state):
        keys = tuple(state[n] for n in reversed(names))
        order = np.lexsort(keys)
        return [state[n][order] for n in names]

    ca, cb = canonical(before), canonical(after)
    return all(x.tobytes() == y.tobytes() for x, y in zip(ca, cb))
