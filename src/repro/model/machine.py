"""Machine descriptions for the performance substrate.

A :class:`MachineSpec` carries everything the cache simulator, the
cost model, and the bandwidth model need: cache geometry, SIMD width,
per-operation issue costs, miss penalties, memory channels.

Two presets mirror the paper's testbeds:

* :meth:`MachineSpec.haswell` — the "Icps" node: Xeon E5-2650 v3
  @2.3 GHz, AVX2 (4 doubles/vector), 32 KiB L1 / 256 KiB L2 / 25 MiB
  L3, 2 memory channels per socket, 10 cores.
* :meth:`MachineSpec.sandybridge` — the Curie node: Xeon E5-2680
  @2.7 GHz, AVX (4 doubles), 32 KiB/256 KiB/20 MiB, 4 channels, 8
  cores per socket.

Python-scale experiments cannot stream 50M particles, so
:meth:`MachineSpec.scaled` shrinks every cache capacity by a factor
while keeping line size and associativity — preserving the
*ratio* of working-set size to cache size, which is what the miss
behaviour depends on.  Benchmarks print the scaling they use.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CacheLevelSpec", "OpCosts", "MachineSpec"]


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry and miss penalty of one cache level."""

    name: str
    capacity_bytes: int
    line_bytes: int
    associativity: int
    #: extra cycles an access pays when it misses this level and hits
    #: the next one (the last level's penalty is the DRAM latency)
    miss_penalty_cycles: float

    def __post_init__(self):
        if self.capacity_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("capacity and line size must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                f"{self.name}: capacity must be a multiple of line*associativity"
            )

    @property
    def n_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class OpCosts:
    """Issue costs (reciprocal-throughput cycles) for the cost model.

    These are rough per-element costs of *scalar* instructions on the
    modeled core; vectorizable work divides by the SIMD width.  The
    absolute values matter less than the ratios (divide ≫ multiply,
    misprediction ≫ bitwise-and), which drive every code-variant
    comparison in the paper.
    """

    flop: float = 1.0  # add/mul/FMA-class float op
    int_op: float = 1.0  # integer add/shift/and
    int_div: float = 20.0  # integer divide / non-power-of-two modulo
    float_floor_call: float = 8.0  # libm-style floor() call (unvectorized)
    float_floor_inline: float = 2.0  # cast-and-correct floor
    load_store: float = 0.5  # L1-hit memory op
    gather_element: float = 0.6  # strided/gathered element (AoS access)
    branch: float = 1.0  # correctly predicted branch
    branch_miss: float = 15.0  # misprediction rollback
    func_call: float = 10.0  # unvectorized function-call overhead


@dataclass(frozen=True)
class MachineSpec:
    """A modeled machine (one socket unless noted)."""

    name: str
    freq_ghz: float
    simd_width_doubles: int
    #: sustained scalar instructions per cycle (superscalar issue)
    scalar_ipc: float
    #: realized speedup of an auto-vectorized loop over its scalar form
    #: (well below simd_width_doubles: memory ops and shuffles don't
    #: scale with the vector width)
    simd_gain: float
    levels: tuple[CacheLevelSpec, ...]
    cores_per_socket: int
    mem_channels: int
    #: saturated socket bandwidth (STREAM-like), GB/s
    peak_bandwidth_gbs: float
    #: bandwidth one core can draw on its own, GB/s
    per_core_bandwidth_gbs: float
    ops: OpCosts = OpCosts()

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one cache level")
        line = self.levels[0].line_bytes
        if any(lv.line_bytes != line for lv in self.levels):
            raise ValueError("all levels must share one line size")
        caps = [lv.capacity_bytes for lv in self.levels]
        if caps != sorted(caps):
            raise ValueError("levels must be ordered smallest (L1) first")

    # ------------------------------------------------------------------
    @property
    def line_bytes(self) -> int:
        return self.levels[0].line_bytes

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz

    def scaled(self, factor: int, name_suffix: str | None = None) -> "MachineSpec":
        """Shrink all cache capacities by ``factor`` (geometry otherwise kept).

        Associativity is preserved; the set count shrinks.  Raises if a
        level would drop below one set.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        new_levels = []
        for lv in self.levels:
            cap = lv.capacity_bytes // factor
            min_cap = lv.line_bytes * lv.associativity
            if cap < min_cap:
                raise ValueError(
                    f"{lv.name}: scaling by {factor} leaves less than one set"
                )
            cap -= cap % min_cap
            new_levels.append(replace(lv, capacity_bytes=cap))
        suffix = name_suffix if name_suffix is not None else f"/{factor}"
        return replace(self, name=self.name + suffix, levels=tuple(new_levels))

    # ------------------------------------------------------------------
    @classmethod
    def haswell(cls) -> "MachineSpec":
        """The paper's local "Icps" machine (per socket)."""
        return cls(
            name="haswell",
            freq_ghz=2.3,
            simd_width_doubles=4,  # AVX2, 256-bit
            scalar_ipc=2.4,
            simd_gain=2.6,
            levels=(
                # Haswell's deeper OoO window and better L2/L3 latencies
                # (vs Sandy Bridge) carry the paper's Table V ratio
                CacheLevelSpec("L1", 32 * 1024, 64, 8, 8.0),
                CacheLevelSpec("L2", 256 * 1024, 64, 8, 18.0),
                CacheLevelSpec("L3", 25 * 1024 * 1024, 64, 20, 100.0),
            ),
            cores_per_socket=10,
            mem_channels=2,
            peak_bandwidth_gbs=34.0,
            per_core_bandwidth_gbs=14.0,
        )

    @classmethod
    def sandybridge(cls) -> "MachineSpec":
        """One socket of a Curie node."""
        return cls(
            name="sandybridge",
            freq_ghz=2.7,
            simd_width_doubles=4,  # AVX, 256-bit
            scalar_ipc=1.8,
            simd_gain=2.0,
            levels=(
                CacheLevelSpec("L1", 32 * 1024, 64, 8, 10.0),
                CacheLevelSpec("L2", 256 * 1024, 64, 8, 25.0),
                CacheLevelSpec("L3", 20 * 1024 * 1024, 64, 20, 140.0),
            ),
            cores_per_socket=8,
            mem_channels=4,
            peak_bandwidth_gbs=51.2,  # the paper's quoted theoretical peak
            per_core_bandwidth_gbs=13.0,
        )

    @classmethod
    def tiny_test(cls) -> "MachineSpec":
        """A miniature machine for unit tests (fast, easy to reason about)."""
        return cls(
            name="tiny",
            freq_ghz=1.0,
            simd_width_doubles=4,
            scalar_ipc=2.0,
            simd_gain=2.0,
            levels=(
                CacheLevelSpec("L1", 512, 64, 2, 10.0),
                CacheLevelSpec("L2", 2048, 64, 4, 25.0),
            ),
            cores_per_socket=4,
            mem_channels=2,
            peak_bandwidth_gbs=10.0,
            per_core_bandwidth_gbs=4.0,
        )
