"""High-level simulation façade: build, run, record history.

:class:`Simulation` wraps :class:`~repro.core.stepper.PICStepper` with
per-step diagnostic recording, which is what the examples and the
physics-validation tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.diagnostics import mode_amplitude
from repro.core.stepper import PICStepper
from repro.grid.spec import GridSpec
from repro.particles.initializers import InitialCondition

__all__ = ["Simulation", "SimulationHistory"]

#: the recorded diagnostic series, in the order documents carry them
_SERIES = ("times", "field_energy", "kinetic_energy", "mode_amplitude")


@dataclass
class SimulationHistory:
    """Per-step diagnostic series (index 0 is the initial state).

    ``step_timings`` holds one wall-clock record per *completed* step
    (so it has one entry fewer than the diagnostic series, which
    include the initial state): the per-phase seconds and particle
    count measured by :class:`repro.perf.instrument.Instrumentation`.
    """

    times: list[float] = field(default_factory=list)
    field_energy: list[float] = field(default_factory=list)
    kinetic_energy: list[float] = field(default_factory=list)
    mode_amplitude: list[float] = field(default_factory=list)
    step_timings: list[dict] = field(default_factory=list)

    @property
    def total_energy(self) -> np.ndarray:
        return np.asarray(self.field_energy) + np.asarray(self.kinetic_energy)

    def energy_drift(self) -> float:
        """Max relative deviation of total energy from its initial value."""
        tot = self.total_energy
        return float(np.max(np.abs(tot - tot[0])) / abs(tot[0]))

    def as_arrays(self) -> dict[str, np.ndarray]:
        arrays = {name: np.asarray(getattr(self, name)) for name in _SERIES}
        arrays["total_energy"] = self.total_energy
        return arrays

    def as_dict(self) -> dict[str, list[float]]:
        """The diagnostic series as JSON-compatible lists; inverse of
        :meth:`from_dict`.

        Values are Python floats: JSON's shortest-repr round trip is
        exact for float64, so a history restored from its document
        continues bit for bit.  ``step_timings`` (wall-clock
        bookkeeping) is not part of the document.
        """
        return {name: [float(v) for v in getattr(self, name)]
                for name in _SERIES}

    @classmethod
    def from_dict(cls, doc: dict) -> "SimulationHistory":
        """Rebuild from :meth:`as_dict` output (other keys ignored)."""
        return cls(**{name: [float(v) for v in doc[name]]
                      for name in _SERIES})

    def truncate(self, n_entries: int) -> None:
        """Drop diagnostic entries beyond the first ``n_entries``.

        Used by the run supervisor when rolling back to a checkpoint:
        entries recorded for the steps being rolled back (possibly
        already poisoned by the fault) are discarded, and the re-run
        steps append fresh ones.  ``step_timings`` is wall-clock
        bookkeeping, not physics — rolled-back step records are kept
        (honest accounting of time actually spent)."""
        n = max(0, int(n_entries))
        for name in _SERIES:
            del getattr(self, name)[n:]


class Simulation:
    """A configured PIC run with diagnostics.

    Parameters mirror :class:`~repro.core.stepper.PICStepper`;
    ``mode_x``/``mode_y`` pick the spatial mode tracked in the history
    (defaults to the first x mode, the one the test cases perturb).

    A simulation is *engine-drivable*: besides :meth:`run`, the
    single-step unit :meth:`step` is public, an :attr:`on_step`
    observer fires after every recorded step (how the job engine in
    :mod:`repro.service` streams per-step diagnostics), and
    :meth:`from_stepper` wraps an already-built stepper — e.g. one
    restored by :func:`repro.core.checkpoint.load_checkpoint` — so a
    parked job resumes without re-running initialization.
    """

    def __init__(
        self,
        grid: GridSpec,
        case: InitialCondition,
        n_particles: int,
        config: OptimizationConfig | None = None,
        *,
        dt: float = 0.05,
        seed: int | None = 0,
        quiet: bool = False,
        mode_x: int = 1,
        mode_y: int = 0,
        **stepper_kwargs,
    ):
        self.config = config if config is not None else OptimizationConfig()
        self._closed = False
        self.stepper = PICStepper(
            grid,
            self.config,
            case=case,
            n_particles=n_particles,
            dt=dt,
            seed=seed,
            quiet=quiet,
            **stepper_kwargs,
        )
        self.mode_x = mode_x
        self.mode_y = mode_y
        self.history = SimulationHistory()
        #: optional ``observer(sim)`` called after each completed and
        #: recorded step.  Observers must not mutate simulation state
        #: and must not raise: under a
        #: :class:`~repro.resilience.supervisor.SupervisedRun` an
        #: observer exception is indistinguishable from a step failure
        #: and triggers a rollback.
        self.on_step = None
        try:
            self._record()
        except BaseException:
            # never leak the stepper's backend resources (worker pool,
            # /dev/shm segments) when construction dies after the
            # stepper came up
            self.close()
            raise

    @classmethod
    def from_stepper(
        cls,
        stepper,
        *,
        history: SimulationHistory | None = None,
        mode_x: int = 1,
        mode_y: int = 0,
    ) -> "Simulation":
        """Wrap an existing stepper without re-running initialization.

        The entry point for checkpoint resume: pass the stepper
        returned by :func:`repro.core.checkpoint.load_checkpoint` and,
        to continue an interrupted run seamlessly, the
        :class:`SimulationHistory` accumulated before the interruption
        (its entries must end at the stepper's current iteration).
        With no ``history`` (or an empty one) the current state is
        recorded as the initial entry, exactly as ``__init__`` does.

        The simulation takes ownership of the stepper: :meth:`close`
        closes it.
        """
        sim = cls.__new__(cls)
        sim.config = stepper.config
        sim._closed = False
        sim.stepper = stepper
        sim.mode_x = mode_x
        sim.mode_y = mode_y
        sim.history = history if history is not None else SimulationHistory()
        sim.on_step = None
        if not sim.history.times:
            try:
                sim._record()
            except BaseException:
                sim.close()
                raise
        return sim

    # ------------------------------------------------------------------
    def _record(self) -> None:
        st = self.stepper
        self.history.times.append(st.iteration * st.dt)
        self.history.field_energy.append(st.field_energy())
        self.history.kinetic_energy.append(st.kinetic_energy())
        self.history.mode_amplitude.append(
            mode_amplitude(st.rho_grid, self.mode_x, self.mode_y)
        )
        last = st.instrumentation.last_step
        if last is not None and len(self.history.step_timings) < st.timings.steps:
            self.history.step_timings.append(last)

    def step(self) -> None:
        """Advance one time step and record its diagnostics.

        The single-step unit :meth:`run` iterates — exposed so the run
        supervisor (:mod:`repro.resilience.supervisor`) can interleave
        guard checks and checkpoints between steps while executing
        *exactly* the same code path (supervised and unsupervised runs
        must stay bitwise identical when no fault fires).
        """
        self.stepper.step()
        self._record()
        if self.on_step is not None:
            self.on_step(self)

    def run(self, n_steps: int) -> SimulationHistory:
        """Advance ``n_steps``, recording diagnostics after each step."""
        for _ in range(n_steps):
            self.step()
        return self.history

    # ------------------------------------------------------------------
    @property
    def particles(self):
        return self.stepper.particles

    @property
    def grid(self):
        return self.stepper.grid

    @property
    def timings(self):
        return self.stepper.timings

    @property
    def instrumentation(self):
        return self.stepper.instrumentation

    def timings_json(self, **dumps_kwargs) -> str:
        """Cumulative + per-step wall-clock timings as a JSON string."""
        return self.stepper.instrumentation.to_json(**dumps_kwargs)

    def close(self) -> None:
        """Release backend resources (worker pools, shared memory).

        Idempotent, and safe on every exit path: ``__exit__`` invokes
        it whether the ``with`` body completed or raised (e.g. a guard
        aborting mid-step), so the ``numpy-mp`` worker pool and its
        ``/dev/shm`` segments are torn down either way.
        """
        if self._closed:
            return
        self._closed = True
        stepper = getattr(self, "stepper", None)
        if stepper is not None:
            stepper.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
