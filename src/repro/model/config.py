"""The priced configuration: a run config plus the layout axes of the
paper's baselines, and the cumulative stack of Table IV.

A :class:`ModelConfig` is an
:class:`~repro.core.config.OptimizationConfig` — the model still runs
it through :class:`~repro.core.simulation.Simulation` to harvest real
particle states — with six more axes the model prices and no stepper
executes: the point-based field layout, AoS particles, the single
particle loop, un-hoisted units, the in-place sort and the position
update's wrap — and, as a property, the paper's §IV-B rule for the
cell coordinates (:attr:`ModelConfig.effective_store_coords`).  Every
run stores redundant rows and SoA columns with the coordinates, runs
the split loops, keeps hoisted units, sorts out of place and wraps
the way its grid allows whatever they say
(``tests/test_layout_axes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import OptimizationConfig

__all__ = ["ModelConfig"]

_FIELD_LAYOUTS = ("standard", "redundant")
_PARTICLE_LAYOUTS = ("soa", "aos")
_LOOP_MODES = ("fused", "split")
_SORT_VARIANTS = ("out-of-place", "in-place")
_POSITION_UPDATES = ("branch", "modulo", "bitwise")


@dataclass(frozen=True)
class ModelConfig(OptimizationConfig):
    """An :class:`~repro.core.config.OptimizationConfig` with the model
    axes.

    Parameters
    ----------
    field_layout:
        ``"standard"`` point-based 2D arrays (Table IV's baseline
        rows), or ``"redundant"`` cell-based corner arrays (4x memory,
        vectorizable accumulate).
    particle_layout:
        ``"soa"`` or ``"aos"``.
    loop_mode:
        ``"fused"`` — one loop doing interpolate / update-v / update-x
        per particle (Table IV's baseline row); ``"split"`` — three
        full passes (§IV-A, enables vectorizing update-x).
    hoisting:
        ``True`` — velocities and field stored pre-scaled to grid units,
        so the particle loops carry no per-particle multiplies (§IV-D,
        Table IV row 2); ``False`` — physical units, a multiply per
        axis in update-v and update-x.
    sort_variant:
        ``"out-of-place"`` — every particle record gathered once into
        fresh memory (§V-B1, measured twice as fast); ``"in-place"`` —
        the O(1)-memory cycle walk, ~3 moves per displaced record.
    position_update:
        ``"branch"`` — test-and-wrap (the ``if`` version, Table IV's
        baseline); ``"modulo"`` — unconditional floor + modulo
        (§IV-C2); ``"bitwise"`` — cast-based floor and ``& (nc-1)``
        wrap (§IV-C3, power-of-two extents).  A run executes
        :func:`repro.core.kernels.wrap_for`'s wrap whatever this says.
    """

    field_layout: str = "redundant"
    particle_layout: str = "soa"
    loop_mode: str = "split"
    hoisting: bool = True
    sort_variant: str = "out-of-place"
    position_update: str = "bitwise"

    def __post_init__(self):
        super().__post_init__()
        if self.field_layout not in _FIELD_LAYOUTS:
            raise ValueError(f"field_layout must be one of {_FIELD_LAYOUTS}")
        if self.particle_layout not in _PARTICLE_LAYOUTS:
            raise ValueError(f"particle_layout must be one of {_PARTICLE_LAYOUTS}")
        if self.loop_mode not in _LOOP_MODES:
            raise ValueError(f"loop_mode must be one of {_LOOP_MODES}")
        if self.sort_variant not in _SORT_VARIANTS:
            raise ValueError(f"sort_variant must be one of {_SORT_VARIANTS}")
        if self.position_update not in _POSITION_UPDATES:
            raise ValueError(f"position_update must be one of {_POSITION_UPDATES}")

    @property
    def effective_store_coords(self) -> bool:
        """Whether the priced particle record holds ``ix``/``iy``: the
        paper's §IV-B rule — stored for every ordering except
        row-major and column-major, whose decode is a single
        operation.  (Every run stores them: the division that decode
        takes keeps the compiled push scalar.)"""
        return self.ordering not in ("row-major", "column-major")

    # ------------------------------------------------------------------
    # The cumulative stack of Table IV.  Each named constructor is the
    # previous one plus exactly one optimization.
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls) -> "ModelConfig":
        """Table IV row 1: standard 2d arrays, AoS, single loop, branchy."""
        return cls(
            field_layout="standard",
            ordering="row-major",
            particle_layout="aos",
            loop_mode="fused",
            position_update="branch",
            hoisting=False,
        )

    @classmethod
    def with_hoisting(cls) -> "ModelConfig":
        """Table IV row 2: + loop hoisting."""
        return cls.baseline().with_(hoisting=True)

    @classmethod
    def with_loop_splitting(cls) -> "ModelConfig":
        """Table IV row 3: + loop splitting (3 particle loops)."""
        return cls.with_hoisting().with_(loop_mode="split")

    @classmethod
    def with_redundant_arrays(cls) -> "ModelConfig":
        """Table IV row 4: + redundant cell-based E and rho (row-major)."""
        return cls.with_loop_splitting().with_(field_layout="redundant")

    @classmethod
    def with_soa(cls) -> "ModelConfig":
        """Table IV row 5: + structure of arrays for the particles."""
        return cls.with_redundant_arrays().with_(particle_layout="soa")

    @classmethod
    def with_space_filling_curve(cls, ordering: str = "morton", **kw):
        """Table IV row 6: + space-filling-curve ordering of E and rho."""
        return cls.with_soa().with_(ordering=ordering, ordering_kwargs=kw)

    @classmethod
    def fully_optimized(cls, ordering: str = "morton", **kw):
        """Table IV row 7: + optimized (branchless, bitwise) update-x."""
        return cls.with_space_filling_curve(ordering, **kw).with_(
            position_update="bitwise"
        )

    @classmethod
    def table4_stack(cls) -> list[tuple[str, "ModelConfig"]]:
        """The seven (label, config) rows of Table IV, in order."""
        return [
            ("Baseline", cls.baseline()),
            ("+ Loop Hoisting", cls.with_hoisting()),
            ("+ Loop Splitting", cls.with_loop_splitting()),
            ("+ Redundant arrays (E and rho)", cls.with_redundant_arrays()),
            ("+ Structure of Arrays (particles)", cls.with_soa()),
            ("+ Space-filling curves (E and rho)", cls.with_space_filling_curve()),
            ("+ Optimized update-positions loop", cls.fully_optimized()),
        ]
