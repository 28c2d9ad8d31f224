"""Runtime invariant guards: cheap structural checks between steps.

A long PIC run dies in recognisable ways — a NaN sneaks into the
velocities and metastasises through the deposit and solve, a buggy or
degraded kernel scatters particles outside the allocated cell range,
charge stops summing to ``q·w·N``, the leap-frog's bounded energy
oscillation turns into a secular blow-up.  Each guard here detects one
of those failure shapes *structurally* (no physics interpretation
required) and reports it as a :class:`GuardViolation`, so the run
supervisor (:mod:`repro.resilience.supervisor`) can roll back to the
last good checkpoint instead of writing hours of garbage.

Guards only **read** simulation state — running them any number of
times perturbs nothing, which is what keeps a supervised fault-free
run bitwise identical to an unsupervised one.

The standard set:

========  ==========================================================
name      invariant
========  ==========================================================
finite    no NaN/Inf in particle attributes or grid field arrays
cells     ``icell`` within the allocated cell range, offsets in [0, 1]
charge    ``|Σρ·A − q·w·N| ≤ tol·|q·w·N|`` (deposit conserves charge)
energy    total-energy drift below a relative ceiling
========  ==========================================================

Build a suite from a spec string (the CLI's ``--guards``)::

    suite = GuardSuite.from_spec("finite,cells,charge:1e-8")
    violations = suite.check(stepper, history, step)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GuardViolation",
    "Guard",
    "FiniteGuard",
    "CellBoundsGuard",
    "ChargeConservationGuard",
    "EnergyDriftGuard",
    "GuardSuite",
    "DEFAULT_GUARD_SPEC",
]

#: the ``--guards`` default: every structural invariant, no physics
#: ceiling (energy drift is case-dependent; opt in with ``energy[:c]``)
DEFAULT_GUARD_SPEC = "finite,cells,charge"


@dataclass(frozen=True)
class GuardViolation:
    """One invariant breach, machine-readable.

    ``value``/``threshold`` quantify the breach where a scalar makes
    sense (drift vs ceiling, charge error vs tolerance); counts-style
    guards put the offender count in ``value``.
    """

    guard: str
    step: int
    message: str
    value: float | None = None
    threshold: float | None = None

    def as_dict(self) -> dict:
        return {
            "guard": self.guard,
            "step": self.step,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
        }


def _nonfinite(arr) -> int:
    """How many elements of ``arr`` are NaN or ±inf.

    One reduction, no N-sized temporary, on the clean path: NaN and
    ±inf propagate through a sum, so a finite sum proves every element
    finite.  Only a non-finite sum (a poisoned array, or finite values
    whose sum overflows) pays for the exact count."""
    arr = np.asarray(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return 0
    return arr.size - int(np.count_nonzero(np.isfinite(arr)))


def _outside(arr, hi) -> int:
    """How many elements of ``arr`` lie outside ``[0, hi]`` (NaN is
    not counted).

    One reduction, no N-sized temporary, on the clean path: read as
    unsigned integers of the same width, the bit patterns of ``[+0,
    hi]`` are exactly those up to ``hi``'s own — a negative int or
    float sets the sign bit, and NaN, ``-0.0`` and anything above
    ``hi`` read larger too — so ``max() <= bits(hi)`` proves the whole
    array in bounds.  Anything else pays for the exact count, which
    leaves out NaN (and ``-0.0``, which is in bounds)."""
    arr = np.asarray(arr)
    bits = np.dtype(f"u{arr.dtype.itemsize}")
    top = np.asarray(hi, arr.dtype).view(bits)
    if not arr.size or arr.view(bits).max() <= top:
        return 0
    return int(np.count_nonzero((arr < 0) | (arr > hi)))


class Guard:
    """One invariant check.  Subclasses set :attr:`name` and implement
    :meth:`check` returning ``None`` (ok) or a :class:`GuardViolation`."""

    name: str = "?"

    def check(self, stepper, history, step: int) -> GuardViolation | None:
        raise NotImplementedError

    def _violation(self, step, message, value=None, threshold=None):
        return GuardViolation(self.name, int(step), message,
                              None if value is None else float(value),
                              None if threshold is None else float(threshold))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class FiniteGuard(Guard):
    """No NaN/Inf anywhere in the particle or field state.

    Scans the particle phase space (``dx``, ``dy``, ``vx``, ``vy``) and
    the grid-level field arrays (``ex_grid``, ``ey_grid``, ``rho_grid``)
    — every array a poisoned value must pass through within one step of
    appearing, so a per-step scan catches corruption before it spreads
    into a checkpoint.
    """

    name = "finite"

    _PARTICLE_ARRAYS = ("dx", "dy", "vx", "vy")
    _GRID_ARRAYS = ("ex_grid", "ey_grid", "rho_grid")

    def check(self, stepper, history, step):
        p = stepper.particles
        for attr in self._PARTICLE_ARRAYS:
            bad = _nonfinite(getattr(p, attr))
            if bad:
                return self._violation(
                    step, f"{bad} non-finite value(s) in particles.{attr}",
                    value=bad,
                )
        for attr in self._GRID_ARRAYS:
            bad = _nonfinite(getattr(stepper, attr))
            if bad:
                return self._violation(
                    step, f"{bad} non-finite value(s) in {attr}", value=bad,
                )
        return None


class CellBoundsGuard(Guard):
    """Every particle sits in an allocated cell with offsets in [0, 1].

    ``icell ∈ [0, ncells_allocated)`` and ``dx, dy ∈ [0, 1]`` — the
    invariant every kernel relies on for its unchecked indexed writes;
    a violation here means the *next* deposit would scribble outside
    the ρ rows (or fault), so it must be caught before that happens.
    """

    name = "cells"

    def check(self, stepper, history, step):
        p = stepper.particles
        nalloc = stepper.ordering.ncells_allocated
        bad = _outside(p.icell, nalloc - 1)
        if bad:
            return self._violation(
                step,
                f"{bad} particle(s) outside the allocated cell range "
                f"[0, {nalloc})",
                value=bad, threshold=nalloc,
            )
        for attr in ("dx", "dy"):
            # NaN is never counted: non-finite offsets are the finite
            # guard's finding, not a bounds breach
            bad = _outside(getattr(p, attr), 1.0)
            if bad:
                return self._violation(
                    step,
                    f"{bad} particle(s) with {attr} outside [0, 1]",
                    value=bad,
                )
        return None


class ChargeConservationGuard(Guard):
    """The deposited charge matches the particles carrying it.

    The CiC weights of one particle sum to 1, so the folded grid
    density must satisfy ``Σρ·A = q·w·N`` up to accumulation roundoff
    — a relative tolerance of a few ULP-equivalents (default 1e-8)
    flags lost or duplicated deposit contributions (e.g. a torn
    parallel reduction) without tripping on float noise.
    """

    name = "charge"

    def __init__(self, tol: float = 1e-8):
        self.tol = float(tol)

    def check(self, stepper, history, step):
        expected = stepper.particles.total_charge(stepper.q)
        total = float(np.sum(stepper.rho_grid)) * stepper.grid.cell_area
        scale = max(abs(expected), 1e-300)
        err = abs(total - expected) / scale
        if not np.isfinite(total) or err > self.tol:
            return self._violation(
                step,
                f"deposited charge {total:.15e} vs expected {expected:.15e} "
                f"(relative error {err:.3e} > {self.tol:.1e})",
                value=err, threshold=self.tol,
            )
        return None


class EnergyDriftGuard(Guard):
    """Total-energy drift below a relative ceiling.

    The leap-frog conserves a shadow energy, so |E(t) − E(0)|/|E(0)|
    stays bounded and small for a sane run; a secular blow-up (bad dt,
    corrupted state that passed the structural guards) crosses any
    fixed ceiling quickly.  The ceiling is physics- and dt-dependent —
    this guard is opt-in (``energy:0.1``) with a lenient default.
    """

    name = "energy"

    def __init__(self, ceiling: float = 0.25):
        self.ceiling = float(ceiling)

    def check(self, stepper, history, step):
        if history is None or len(history.field_energy) < 2:
            return None
        e0 = history.field_energy[0] + history.kinetic_energy[0]
        e1 = history.field_energy[-1] + history.kinetic_energy[-1]
        if e0 == 0.0:
            return None
        drift = abs(e1 - e0) / abs(e0)
        if not np.isfinite(drift) or drift > self.ceiling:
            return self._violation(
                step,
                f"total-energy drift {drift:.3e} exceeds ceiling "
                f"{self.ceiling:.3e}",
                value=drift, threshold=self.ceiling,
            )
        return None


#: registry for spec parsing: name -> (factory, takes_param)
_GUARD_FACTORIES = {
    "finite": (FiniteGuard, False),
    "cells": (CellBoundsGuard, False),
    "charge": (ChargeConservationGuard, True),
    "energy": (EnergyDriftGuard, True),
}


@dataclass
class GuardSuite:
    """A configured set of guards, run after every step.

    :meth:`check` is the supervisor-facing entry point: it returns the
    list of violations (possibly from several guards), ``[]`` when the
    state is clean.
    """

    guards: list[Guard] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "GuardSuite":
        """Parse a ``--guards`` spec: comma-separated ``name[:param]``.

        ``"default"`` expands to :data:`DEFAULT_GUARD_SPEC`, ``"all"``
        to every registered guard, ``"none"``/``""`` to no guards.
        The optional ``:param`` sets the guard's tolerance/ceiling
        (``charge:1e-6``, ``energy:0.1``).
        """
        spec = (spec or "").strip().lower()
        if spec in ("none", "off", ""):
            return cls([])
        if spec == "default":
            spec = DEFAULT_GUARD_SPEC
        elif spec == "all":
            spec = ",".join(_GUARD_FACTORIES)
        guards: list[Guard] = []
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, param = item.partition(":")
            entry = _GUARD_FACTORIES.get(name)
            if entry is None:
                raise ValueError(
                    f"unknown guard {name!r}; known: "
                    f"{', '.join(_GUARD_FACTORIES)}"
                )
            factory, takes_param = entry
            if param and not takes_param:
                raise ValueError(f"guard {name!r} takes no parameter")
            guards.append(factory(float(param)) if param else factory())
        return cls(guards)

    @classmethod
    def default(cls) -> "GuardSuite":
        return cls.from_spec(DEFAULT_GUARD_SPEC)

    # ------------------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.guards)

    def check(self, stepper, history, step: int) -> list[GuardViolation]:
        """All violations at ``step``; [] when clean."""
        out = []
        for guard in self.guards:
            v = guard.check(stepper, history, step)
            if v is not None:
                out.append(v)
        return out
