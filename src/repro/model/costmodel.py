"""Per-loop timing model: instruction term + cache-stall term.

Substitute for wall-clock timing of the paper's compiled C loops.  A
loop variant's time per particle is::

    cycles = op_cycles(variant) / throughput(variant)
           + stall_overlap * sum_l misses_l * penalty_l

``op_cycles`` is an operation count priced by
:class:`~repro.model.machine.OpCosts`.  ``throughput`` captures the
paper's whole single-core story — which variants vectorize and how
well::

    throughput = scalar_ipc * max(1, simd_gain / penalties)

where ``simd_gain`` applies only to vectorizable loops and is divided
by structural penalties:

* AoS particles (``aos_penalty``): strided record access; GNU refuses
  to vectorize, Intel emits slow gathers (§IV-C1).
* Fused single loop (``fused_penalty``): the mixed field/charge/
  particle body mostly defeats the auto-vectorizer (§IV-A).
* ``branch`` update-x: the wrap `if` blocks vectorization entirely and
  adds misprediction penalties (§IV-C2).
* standard-layout field gathers / charge scatters: not vectorizable
  (§IV-B, Fig. 2) — the redundant layout's contiguous rows are.
* Hilbert encode: a serial O(log n) bit loop, never vectorized — why
  Table III discards Hilbert.

The stall term takes per-particle per-level miss counts (from the
cache simulator on a scaled replica — see the benchmarks) times the
level miss penalties, derated by ``stall_overlap`` because out-of-order
cores overlap most miss latency with work.  The default 0.25 is
calibrated so the Morton-vs-row-major stall delta matches Table III
given Table II's miss deltas.

Two queries on the model live next to it: :func:`tune_sort_period_model`
(the paper's §IV-E future work — "an automatic finding of this optimal
number" of iterations between sorts — answered analytically: the sort
amortizes as ``C_sort / T`` while the stall cost of disorder ramps with
the period, the Fig. 5 sawtooth) and :func:`fit_stall_overlap` (pull
``stall_overlap`` and a host frequency scale toward a measured
``--timings-json`` record — ``repro calibrate``).  Both read
:data:`FRESH_SORT_MISSES` when the caller has no measured miss table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.model.config import ModelConfig
from repro.model.machine import MachineSpec

__all__ = [
    "LoopKind",
    "LoopCosts",
    "LoopCostModel",
    "FRESH_SORT_MISSES",
    "TuneResult",
    "tune_sort_period_model",
    "fit_stall_overlap",
]


class LoopKind(enum.Enum):
    """The three particle loops of Fig. 1 the model prices."""

    UPDATE_V = "update_v"
    UPDATE_X = "update_x"
    ACCUMULATE = "accumulate"


#: Per-particle misses of each loop right after a sort (Table II
#: shape): what ``repro tune-sort`` ramps from and what ``repro
#: calibrate`` assumes when the caller brings no measured table.
FRESH_SORT_MISSES = {
    LoopKind.UPDATE_V: {"L1": 1.1, "L2": 0.11, "L3": 0.03},
    LoopKind.UPDATE_X: {"L1": 0.9},
    LoopKind.ACCUMULATE: {"L1": 0.76, "L2": 0.06, "L3": 0.02},
}


#: (icell-encode op cycles, vectorizable) per ordering; Hilbert's cost
#: is per bit plane and multiplied by log2(grid side) at use site.
_ENCODE = {
    "row-major": (2.0, True),
    "column-major": (2.0, True),
    "l4d": (6.0, True),  # shift/mask closed form of §IV-B
    "morton": (12.0, True),  # Raman & Wise Algorithm 5 (12 ops)
    "hilbert": (12.0, False),  # per bit plane; serial rotations
}


@dataclass(frozen=True)
class LoopCosts:
    """Cost breakdown for one loop variant, per particle."""

    kind: LoopKind
    #: op cycles already divided by the throughput factor
    instr_cycles: float
    stall_cycles: float
    #: the divisor applied (scalar_ipc x realized SIMD gain)
    throughput: float

    @property
    def cycles_per_particle(self) -> float:
        """Instruction plus stall cycles."""
        return self.instr_cycles + self.stall_cycles

    def seconds(self, n_particles: int, machine: MachineSpec) -> float:
        """Time for one pass over ``n_particles``."""
        return self.cycles_per_particle * n_particles / (machine.freq_ghz * 1e9)

    def ns_per_particle(self, machine: MachineSpec) -> float:
        """Nanoseconds per particle at the machine's clock."""
        return self.cycles_per_particle / machine.freq_ghz


class LoopCostModel:
    """Prices the three particle loops of a configuration.

    Parameters
    ----------
    machine:
        Supplies op costs, IPC/SIMD factors, frequency, miss penalties.
    p_escape:
        Fraction of particles crossing the domain boundary per step
        along each axis (drives the branch variant's mispredictions).
    stall_overlap:
        Fraction of raw miss latency *not* hidden by out-of-order
        execution (1.0 = fully exposed).
    aos_penalty, fused_penalty:
        Divisors applied to the SIMD gain when the particle layout is
        AoS / the loop is the fused single loop.
    fused_scalar_malus:
        IPC divisor for loops that end up *scalar inside the fused
        loop*.  1.0 (off) for single-core estimates; the thread-scaling
        model raises it (see ThreadScalingModel.fused_thread_malus):
        under full-socket load the fused body's larger live working set
        contends for the shared L3/ring, a per-thread slowdown with no
        single-core counterpart — this is what makes Table VII's
        "AoS, 1 loop" the worst variant on 8 threads.
    log_grid_side:
        log2 of the grid side: the Hilbert encode's round count.
    """

    def __init__(
        self,
        machine: MachineSpec,
        p_escape: float = 0.02,
        stall_overlap: float = 0.25,
        aos_penalty: float = 1.8,
        fused_penalty: float = 2.0,
        fused_scalar_malus: float = 1.0,
        log_grid_side: int = 7,
    ):
        if not 0.0 <= p_escape <= 1.0:
            raise ValueError("p_escape must be in [0, 1]")
        self.machine = machine
        self.p_escape = float(p_escape)
        self.stall_overlap = float(stall_overlap)
        self.aos_penalty = float(aos_penalty)
        self.fused_penalty = float(fused_penalty)
        self.fused_scalar_malus = float(fused_scalar_malus)
        self.log_grid_side = int(log_grid_side)

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def _encode_cost(self, ordering: str) -> tuple[float, bool]:
        try:
            cyc, vec = _ENCODE[ordering]
        except KeyError:
            raise KeyError(f"no encode-cost entry for ordering {ordering!r}") from None
        if ordering == "hilbert":
            # serial rotation loop over the bit planes plus call overhead
            return cyc * self.log_grid_side + self.machine.ops.func_call, vec
        return cyc, vec

    def _throughput(self, config: ModelConfig, loop_vectorizable: bool) -> float:
        """Effective op-cycles divisor after the layout/loop-shape gates."""
        m = self.machine
        fused = config.loop_mode == "fused"
        if not loop_vectorizable:
            ipc = m.scalar_ipc / (self.fused_scalar_malus if fused else 1.0)
            return ipc
        gain = m.simd_gain
        if config.particle_layout == "aos":
            gain /= self.aos_penalty
        if fused:
            gain /= self.fused_penalty
        if gain <= 1.0 and fused:
            # the fused body blocked vectorization entirely: AoS records
            # additionally wreck the scalar schedule (the malus); a pure
            # SoA fused loop still runs at plain scalar IPC
            if config.particle_layout == "aos":
                return m.scalar_ipc / self.fused_scalar_malus
            return m.scalar_ipc
        return m.scalar_ipc * max(1.0, gain)

    def _particle_mem(self, config: ModelConfig, n_attrs: int) -> float:
        """Op cycles for ``n_attrs`` particle-attribute accesses."""
        ops = self.machine.ops
        per = ops.gather_element if config.particle_layout == "aos" else ops.load_store
        return n_attrs * per

    # ------------------------------------------------------------------
    # per-loop op counts (cycles before the throughput divisor)
    # ------------------------------------------------------------------
    def _update_v_ops(self, config: ModelConfig) -> tuple[float, bool, float]:
        """Returns (divisible ops, vectorizable, serial extra)."""
        ops = self.machine.ops
        # weights: 4 corners x ((c + s*d) x (c + s*d)) = 5 flops each;
        # two 4-term dot products (7 flops each); the two v += adds
        flops = 4 * 5 + 2 * 7 + 2
        if not config.hoisting:
            flops += 2  # v += coef * E needs the coef multiplies
        mem = self._particle_mem(config, 7)  # icell,dx,dy,vx,vy loads + v stores
        if config.field_layout == "redundant":
            mem += 8 * ops.load_store  # one contiguous 64-byte row
        else:
            # 4 corners x (Ex, Ey): vector *gather* loads — legal for the
            # vectorizer (it's the scatter side that is not), just slower;
            # this is why Table III shows the redundant layout roughly
            # tied with the standard one on update-velocities
            mem += 8 * ops.gather_element
            if not config.effective_store_coords:
                flops += 2  # decode icell -> (ix, iy)
        return flops * ops.flop + mem, True, 0.0

    def _update_x_ops(self, config: ModelConfig) -> tuple[float, bool, float]:
        ops = self.machine.ops
        n_attrs = 5 + (4 if config.effective_store_coords else 0)
        mem = self._particle_mem(config, n_attrs)
        flops = 4.0  # x = i + dx + v, per axis
        if not config.hoisting:
            flops += 2.0  # v * (dt/spacing) per axis
        int_cycles = 0.0
        serial = 0.0
        variant = config.position_update
        if variant == "branch":
            # 2 compares + branch per axis; escaped particles mispredict
            # and pay a float modulo (~2 divides); then a floor call
            serial = 2 * (
                2 * ops.branch + self.p_escape * (ops.branch_miss + 2 * ops.int_div)
            )
            int_cycles += 2 * ops.float_floor_call
            vectorizable = False
        elif variant == "modulo":
            # unconditional: floor() call + power-of-two integer modulo
            int_cycles += 2 * (ops.float_floor_call + ops.int_op)
            vectorizable = True
        else:  # bitwise
            # cast, compare, subtract, and — cheap vector int ops
            int_cycles += 2 * (ops.float_floor_inline + 2 * ops.int_op)
            vectorizable = True
        enc_cycles, enc_vec = self._encode_cost(config.ordering)
        if not config.effective_store_coords:
            enc_cycles += 2.0  # decode at loop top (row-major family)
        if not enc_vec:
            vectorizable = False
        return flops * ops.flop + mem + int_cycles + enc_cycles, vectorizable, serial

    def _accumulate_ops(self, config: ModelConfig) -> tuple[float, bool, float]:
        ops = self.machine.ops
        flops = 4 * 5 + 4  # weights + the += adds
        mem = self._particle_mem(config, 3)  # icell, dx, dy
        if config.field_layout == "redundant":
            mem += 8 * ops.load_store  # contiguous 4-element row, ld+st
            vectorizable = True
        else:
            mem += 8 * ops.gather_element  # 4 scattered points, ld+st
            vectorizable = False  # scatter with possible conflicts
            if not config.effective_store_coords:
                flops += 2
        return flops * ops.flop + mem, vectorizable, 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def loop_costs(
        self,
        kind: LoopKind,
        config: ModelConfig,
        misses_per_particle: dict[str, float] | None = None,
    ) -> LoopCosts:
        """Cost of one loop; ``misses_per_particle`` maps level name ->
        simulated misses per particle for this loop (omit for a
        no-stall estimate)."""
        if kind is LoopKind.UPDATE_V:
            op_cycles, vec, serial = self._update_v_ops(config)
        elif kind is LoopKind.UPDATE_X:
            op_cycles, vec, serial = self._update_x_ops(config)
        elif kind is LoopKind.ACCUMULATE:
            op_cycles, vec, serial = self._accumulate_ops(config)
        else:  # pragma: no cover - enum is closed
            raise ValueError(kind)
        throughput = self._throughput(config, vec)
        stall = 0.0
        if misses_per_particle:
            by_name = {lv.name: lv.miss_penalty_cycles for lv in self.machine.levels}
            for name, mpp in misses_per_particle.items():
                stall += mpp * by_name[name]
            stall *= self.stall_overlap
        return LoopCosts(kind, op_cycles / throughput + serial, stall, throughput)

    def sort_seconds_per_call(
        self, n_particles: int, config: ModelConfig
    ) -> float:
        """Memory-bound estimate of one counting-sort pass.

        Out-of-place: read keys + read/write every record once
        (~3 x record bytes of traffic); in-place pays ~3 moves per
        displaced record instead of 1 (§V-B1: measured twice slower).
        """
        record = 8 * (7 if config.effective_store_coords else 5)
        passes = 3.0 if config.sort_variant == "out-of-place" else 6.0
        traffic = n_particles * record * passes
        return traffic / (self.machine.per_core_bandwidth_gbs * 1e9)

    def iteration_seconds(
        self,
        config: ModelConfig,
        n_particles: int,
        misses: dict[LoopKind, dict[str, float]] | None = None,
    ) -> dict[str, float]:
        """Modeled seconds per iteration, broken down by phase.

        ``misses`` maps each loop to its per-particle miss dict.  The
        sort cost is amortized over ``config.sort_period``.
        """
        misses = misses or {}
        out: dict[str, float] = {}
        for kind in LoopKind:
            costs = self.loop_costs(kind, config, misses.get(kind))
            out[kind.value] = costs.seconds(n_particles, self.machine)
        if config.sort_period:
            out["sort"] = (
                self.sort_seconds_per_call(n_particles, config) / config.sort_period
            )
        else:
            out["sort"] = 0.0
        out["total"] = sum(out.values())
        return out


@dataclass(frozen=True)
class TuneResult:
    """Outcome of a sort-period tuning run."""

    best_period: int
    #: mapping period -> modeled seconds per iteration
    costs: dict

    def cost_of(self, period: int) -> float:
        """Modeled per-iteration cost of one candidate period."""
        return self.costs[period]


def tune_sort_period_model(
    model: LoopCostModel,
    config: ModelConfig,
    n_particles: int,
    base_misses: dict[LoopKind, dict[str, float]],
    miss_growth_per_iter: float = 0.08,
    candidates=(1, 2, 5, 10, 20, 30, 50, 75, 100, 150),
) -> TuneResult:
    """Pick the sort period minimizing modeled time per iteration.

    ``base_misses`` is the freshly-sorted per-particle miss table;
    ``miss_growth_per_iter`` is the fractional growth of the irregular
    loops' misses per un-sorted iteration (the sawtooth slope of
    Fig. 5, measurable with
    :class:`repro.model.experiments.MissExperiment`).  Averaging the
    ramp over a period of T iterations multiplies the stall term by
    ``1 + g*(T-1)/2``; the sort itself costs ``C_sort / T`` per
    iteration.  The optimum shifts the way the paper observed (cheaper
    memory / pricier misses -> sort more often: Haswell 20 vs Sandy
    Bridge 50).

    Deterministic: a pure function of the model and its arguments —
    identical inputs give the identical result — and the chosen period
    never changes the physics (sorting is a pure reordering), only the
    machine behaviour.  Thread-safety: no shared state, safe to call
    concurrently.
    """
    if miss_growth_per_iter < 0:
        raise ValueError("miss growth must be non-negative")
    costs = {}
    sort_cost = model.sort_seconds_per_call(n_particles, config)
    for period in candidates:
        ramp = 1.0 + miss_growth_per_iter * (period - 1) / 2.0
        total = sort_cost / period
        for kind in LoopKind:
            mpp = {
                lv: m * ramp for lv, m in base_misses.get(kind, {}).items()
            }
            total += model.loop_costs(kind, config, mpp).seconds(
                n_particles, model.machine
            )
        costs[period] = total
    best = min(costs, key=costs.get)
    return TuneResult(best, costs)


def fit_stall_overlap(
    record: dict,
    machine: MachineSpec | None = None,
    config: ModelConfig | None = None,
    misses: dict[LoopKind, dict[str, float]] | None = None,
    grid_points: int = 101,
) -> dict:
    """Fit the cost model's stall parameters to measured phase seconds.

    ``record`` is a ``--timings-json`` document — either the
    :meth:`repro.perf.instrument.Instrumentation.as_record` shape
    (phase seconds under ``"cumulative"``) or a bare
    :meth:`repro.perf.instrument.StepTimings.as_record`.  The model
    says a loop's run time is ``(instr + stall_overlap * raw_stall)
    * particle_steps / freq``; this routine grid-searches
    ``stall_overlap`` over ``[0, 1]`` (``grid_points`` samples) and,
    for each candidate, solves the least-squares host ``freq_scale``
    in closed form over the three particle loops, keeping the
    candidate with the smallest residual.  ``misses`` is the per-loop
    per-particle miss table (default :data:`FRESH_SORT_MISSES`).
    Deterministic by construction — no randomness, no wall clock — so
    the same record, machine and misses always yield the bit-identical
    calibration (``repro calibrate`` run twice writes equivalent
    documents).  Thread-safety: pure function of its arguments (builds
    private model objects, shares nothing), safe to call concurrently
    from any thread or process.
    """
    if machine is None:
        machine = MachineSpec.haswell()
    if config is None:
        config = ModelConfig.fully_optimized()
    if misses is None:
        misses = FRESH_SORT_MISSES
    cum = record.get("cumulative", record)
    particle_steps = int(cum.get("particle_steps", 0))
    if particle_steps <= 0:
        raise ValueError("record carries no particle_steps to calibrate on")
    measured = {
        kind.value: float(cum.get(kind.value, 0.0)) for kind in LoopKind
    }
    if all(v <= 0.0 for v in measured.values()):
        raise ValueError("record carries no particle-loop seconds")

    # decompose each loop into its overlap-independent and
    # overlap-linear second terms (stall_overlap enters linearly)
    hz = machine.freq_ghz * 1e9
    base_model = LoopCostModel(machine, stall_overlap=0.0)
    full_model = LoopCostModel(machine, stall_overlap=1.0)
    instr_s, stall_s = {}, {}
    for kind in LoopKind:
        m = misses.get(kind)
        instr_s[kind.value] = (
            base_model.loop_costs(kind, config, m).cycles_per_particle
            * particle_steps / hz
        )
        stall_s[kind.value] = (
            full_model.loop_costs(kind, config, m).stall_cycles
            * particle_steps / hz
        )

    best = None
    for s in np.linspace(0.0, 1.0, int(grid_points)):
        model = {k: instr_s[k] + s * stall_s[k] for k in measured}
        num = sum(measured[k] * model[k] for k in measured)
        den = sum(model[k] ** 2 for k in measured)
        scale = num / den if den > 0 else 0.0
        resid = sum((measured[k] - scale * model[k]) ** 2 for k in measured)
        if best is None or resid < best[0]:
            best = (resid, float(s), float(scale), model)
    resid, stall_overlap, freq_scale, model = best
    return {
        "stall_overlap": stall_overlap,
        "freq_scale": freq_scale,
        "residual_rms_s": float(np.sqrt(resid / len(measured))),
        "machine": machine.name,
        "particle_steps": particle_steps,
        "steps": int(cum.get("steps", 0)),
        "loops": {
            k: {
                "measured_s": measured[k],
                "modeled_s": freq_scale * model[k],
                "instr_s": instr_s[k],
                "stall_s_at_full_overlap": stall_s[k],
            }
            for k in sorted(measured)
        },
        "misses_assumed": {
            kind.value: dict(misses[kind]) for kind in LoopKind if kind in misses
        },
    }
