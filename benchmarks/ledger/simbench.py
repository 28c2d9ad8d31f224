"""The four simulation workloads: set-up, timed window, correctness
checks and — in the traced pass — phase spans and layer probes.

All measurement is done from here, outside the program: step wall
times around ``step()``, phase spans from the public
``stepper.phase_hook``, and probes that time direct calls into each
layer's public functions on the state the window left behind.  Every
duration is reported at nominal host speed (see ``reference.py``).
"""

from __future__ import annotations

import gc
import math
import os
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from reference import Reference, factor
from stats import block_seconds, median
from workloads import SORT_PERIOD, WARMUP_STEPS, SimWorkload

from repro.core import OptimizationConfig, Simulation
from repro.core.backends import get_backend, resolve_backend_name
from repro.core.checkpoint import (
    load_checkpoint,
    load_checkpoint_3d,
    save_checkpoint,
    save_checkpoint_3d,
)
from repro.core.diagnostics import field_energy, kinetic_energy, mode_amplitude
from repro.grid import GridSpec
from repro.parallel.executor import MultiprocessBackend, WorkerPool
from repro.parallel.partition import balance_ratio
from repro.particles import LandauDamping
from repro.particles.initializers import load_particles
from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D
from repro.verify.golden import state_digest

#: iteration at which the 2D workloads hash their state, so that
#: ``dense2d`` and ``dense2d_mp2`` of one seed can be compared bitwise
#: whatever their window lengths: the warm-up plus one full sort period
DIGEST_ITERATION = WARMUP_STEPS + SORT_PERIOD

#: steps after which ``dense2d_mp2`` compares itself with an in-process
#: serial twin (a single run cannot see another workload's digest)
TWIN_STEPS = 2

_DOMAIN = (0.0, 4 * math.pi)


class WorkloadUnavailable(RuntimeError):
    """The host cannot run this workload (recorded as a hole)."""


@dataclass
class Bench:
    """What one pass measures with: the host-speed reference, how
    often to repeat, and where files may go."""

    ref: Reference
    workdir: pathlib.Path
    setup_reps: int = 3
    probe_reps: int = 7
    #: repeats of the slow probes (particle init, checkpoints, pool
    #: start, engine jobs, interpreter start)
    heavy_reps: int = 3

    def bracket(self, measure) -> float:
        """``measure()`` returns wall seconds; the same at nominal host
        speed, from a reference sample on either side of it."""
        ref_before = self.ref.sample()
        wall = measure()
        return wall * factor(ref_before, self.ref.sample())

    def probe(self, fn, *, heavy: bool = False, reps: int | None = None,
              before=None) -> float:
        """Median seconds of repeated calls of ``fn`` (``before`` runs
        untimed ahead of each), at nominal host speed."""
        reps = reps or (self.heavy_reps if heavy else self.probe_reps)

        def measure():
            times = []
            for _ in range(reps):
                if before is not None:
                    before()
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return median(times)

        return self.bracket(measure)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    #: unbounded ``{name: {value, unit}}`` printed and stored beside
    #: the metrics
    info: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def tally(self, name: str, attempted: int, failed: int, detail: str) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        self.checks.append(Check(name, failed == 0, detail))
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.tally(name, 1, 0 if ok else 1, detail)


# ----------------------------------------------------------------------
# The two steppers behind one small interface
# ----------------------------------------------------------------------
class Run2D:
    """A 2D ``Simulation`` (diagnostics recorded every step)."""

    def __init__(self, sim: Simulation, case, seed):
        self.sim = sim
        self.case = case
        self.seed = seed
        self.stepper = sim.stepper
        self.n = sim.stepper.particles.n
        self.sort_period = sim.config.sort_period

    @classmethod
    def build(cls, wl: SimWorkload, seed: int, *, backend: str | None = None):
        case = LandauDamping(alpha=wl.alpha)
        cfg = OptimizationConfig(
            backend=backend or wl.backend,
            workers=wl.workers if backend is None else None,
        )
        grid = GridSpec(wl.cells, wl.cells, *_DOMAIN, *_DOMAIN)
        return cls(Simulation(grid, case, wl.particles, cfg, dt=wl.dt, seed=seed),
                   case, seed)

    def step(self) -> None:
        self.sim.step()

    def close(self) -> None:
        self.sim.close()

    def energy_drift(self) -> float:
        return self.sim.history.energy_drift()

    def particle_arrays(self) -> dict:
        p = self.stepper.particles
        return {k: np.asarray(getattr(p, k)) for k in ("icell", "dx", "dy", "vx", "vy")}

    def field_arrays(self) -> dict:
        st = self.stepper
        return {"rho": st.rho_grid, "ex": st.ex_grid, "ey": st.ey_grid}

    def charge_error(self) -> float:
        st = self.stepper
        expected = st.q * st.particles.weight * self.n
        got = float(np.sum(st.rho_grid)) * st.grid.cell_area
        return abs(got - expected) / abs(expected)


class Run3D:
    """A bare ``PICStepper3D``.  Its quiet start ignores seeds, so the
    seed picks the perturbation amplitude within ±10% instead."""

    def __init__(self, stepper: PICStepper3D, case):
        self.stepper = stepper
        self.case = case
        self.n = stepper.n
        self.sort_period = stepper.sort_period
        self.energy0 = stepper.total_energy()

    @classmethod
    def build(cls, wl: SimWorkload, seed: int, *, backend: str | None = None):
        alpha = wl.alpha * (0.9 + 0.2 * np.random.default_rng(seed).random())
        case = LandauDamping3D(alpha=alpha)
        grid = GridSpec3D(wl.cells, wl.cells, wl.cells, *_DOMAIN, *_DOMAIN, *_DOMAIN)
        return cls(PICStepper3D(grid, case, wl.particles, dt=wl.dt,
                                backend=backend or wl.backend), case)

    def step(self) -> None:
        self.stepper.step()

    def close(self) -> None:
        self.stepper.close()

    def energy_drift(self) -> float:
        return abs(self.stepper.total_energy() - self.energy0) / abs(self.energy0)

    def particle_arrays(self) -> dict:
        return dict(self.stepper.particles)

    def field_arrays(self) -> dict:
        st = self.stepper
        return {"rho": st.rho_grid, "ex": st.ex_grid, "ey": st.ey_grid, "ez": st.ez_grid}

    def charge_error(self) -> float:
        st = self.stepper
        expected = st.q * st.weight * self.n
        got = float(np.sum(st.rho_grid)) * st.grid.cell_volume
        return abs(got - expected) / abs(expected)


def build(wl: SimWorkload, seed: int, **kw):
    return (Run3D if wl.dims == 3 else Run2D).build(wl, seed, **kw)


# ----------------------------------------------------------------------
# Timed window
# ----------------------------------------------------------------------
@dataclass
class StepRecord:
    #: wall seconds of ``step()``
    wall: float
    #: what the reference samples before and after the step make of a
    #: wall second (``reference.factor``)
    factor: float
    is_sort: bool
    traced: bool
    #: ``[(phase, wall seconds)]`` in hook order, then ``("other", ...)``
    phases: list

    @property
    def seconds(self) -> float:
        """The step at nominal host speed."""
        return self.wall * self.factor

    def phase_seconds(self, name: str) -> float:
        return self.factor * sum(s for p, s in self.phases if p == name)


class PhaseMarks:
    """Timestamps taken from ``stepper.phase_hook`` (one per phase end)."""

    def __init__(self):
        self.marks: list = []

    def __call__(self, phase, _stepper) -> None:
        self.marks.append((phase, time.perf_counter()))


def timed_window(run, ref: Reference, seconds: float, *, trace: bool,
                 on_iteration=None, min_steps: int | None = None,
                 steps_per_sample: int = 1) -> list:
    """Step for ``seconds`` and at least ``min_steps`` steps (default:
    one sort period, which from the warmed-up state holds one sort
    step), timing each step, with a reference sample after every
    ``steps_per_sample`` steps (more than one only for steps far
    shorter than a sample, which would otherwise run on the caches the
    sample left cold).

    In the traced pass two steps in three — and every sort step — carry
    the phase hook; the third runs bare, so the hook's cost is measured
    inside the same window."""
    stepper = run.stepper
    period = run.sort_period
    if min_steps is None:
        min_steps = period
    records: list[StepRecord] = []
    marks = PhaseMarks()
    deadline = time.perf_counter() + seconds
    ref_before = ref.sample()
    sampled = 0  # records[:sampled] have their factor
    done = False
    while not done:
        k = len(records)
        is_sort = stepper.iteration > 0 and stepper.iteration % period == 0
        traced = trace and (is_sort or k % 3 != 0)
        stepper.phase_hook = marks if traced else None
        marks.marks = []
        t0 = time.perf_counter()
        run.step()
        t1 = time.perf_counter()
        phases, prev = [], t0
        for name, t in marks.marks:
            phases.append((name, t - prev))
            prev = t
        if traced:
            phases.append(("other", t1 - prev))
        records.append(StepRecord(t1 - t0, 0.0, is_sort, traced, phases))
        if on_iteration is not None:
            on_iteration(stepper.iteration)
        done = len(records) >= min_steps and t1 >= deadline
        if done or len(records) - sampled == steps_per_sample:
            ref_after = ref.sample()
            for record in records[sampled:]:
                record.factor = factor(ref_before, ref_after)
            sampled = len(records)
            ref_before = ref_after
    stepper.phase_hook = None
    return records


def end_to_end(records, n_particles: int, period: int) -> tuple[dict, dict]:
    """The window's end-to-end numbers, and the informational ones.

    A "job" of a simulation workload is one sort period of ``period``
    steps (``stats.block_seconds``).  It has no queue and no poll, and
    a window holds two or three of them, too few for a percentile of
    their own, so both latency percentiles report the composed block.
    The raw wall-clock median is kept beside them, unbounded."""
    step_s = [r.seconds for r in records]
    block = block_seconds(step_s, [r.is_sort for r in records], period)
    bounded = {
        "particle_steps_per_s": n_particles * period / block,
        "step_ms_p50": 1e3 * median(step_s),
        "job_latency_p50_s": block,
        "job_latency_p90_s": block,
    }
    informational = {
        "wall_step_ms_p50": {"value": 1e3 * median(r.wall for r in records), "unit": "ms"},
    }
    return bounded, informational


# ----------------------------------------------------------------------
# Traced pass: spans -> per-layer metrics, then probes
# ----------------------------------------------------------------------
PHASES = ("sort", "update_v", "update_x", "accumulate", "solve", "other")


def span_metrics(records, n: int, period: int, other_key: str) -> dict:
    """Per-layer numbers from the hook spans of the traced steps."""
    traced = [r for r in records if r.traced and not r.is_sort]
    sort_steps = [r for r in records if r.is_sort]

    def phase_median(recs, name):
        return median(r.phase_seconds(name) for r in recs) if recs else 0.0

    ns_pp = 1e9 / n
    out = {
        "core.phase_update_v_ns_pp": phase_median(traced, "update_v") * ns_pp,
        "core.phase_update_x_ns_pp": phase_median(traced, "update_x") * ns_pp,
        "core.phase_accumulate_ns_pp": phase_median(traced, "accumulate") * ns_pp,
        "core.phase_sort_ns_pp": phase_median(sort_steps, "sort") * ns_pp / period,
        "core.phase_solve_ms": phase_median(traced, "solve") * 1e3,
        other_key: phase_median(traced, "other") * 1e3,
    }
    # each bare step against the hooked steps on either side of it, so
    # that a drift across the window cancels
    ratios = [(before.seconds + after.seconds) / (2.0 * r.seconds)
              for before, r, after in zip(records, records[1:], records[2:])
              if not r.traced and before.traced and after.traced
              and not (before.is_sort or after.is_sort)]
    if ratios:
        out["perf.trace_overhead_pct"] = 100.0 * (median(ratios) - 1.0)
    # consistency: medians of the parts against the median of the whole
    parts = sum(phase_median(traced, p) for p in PHASES)
    whole = median(r.seconds for r in traced) if traced else 0.0
    out["_span_sum_over_step"] = parts / whole if whole else 0.0
    return out


def spans_of(records, workload: str) -> list:
    """Flat span list (offsets in wall seconds from the window start,
    the reference samples between steps left out): one parent span per
    traced step, carrying its host-speed ``factor``, one child per
    phase."""
    spans, clock = [], 0.0
    for i, r in enumerate(records):
        if r.traced:
            step_id = f"{workload}/step-{i}"
            spans.append({"id": step_id, "name": "step", "parent": None,
                          "start": clock, "end": clock + r.wall,
                          "sort": r.is_sort, "factor": r.factor})
            t = clock
            for name, secs in r.phases:
                spans.append({"id": f"{step_id}/{name}", "name": name,
                              "parent": step_id, "start": t, "end": t + secs})
                t += secs
        clock += r.wall
    return spans


def probes_2d(bench: Bench, stepper, case, seed) -> dict:
    """Direct calls into core / particles / grid / curves on a 2D state.

    Kernels go through the in-process backend ``"auto"`` resolves to —
    for ``dense2d_mp2`` that is the body each worker shard runs."""
    b = get_backend(resolve_backend_name("auto"))
    p, f, g, cfg = stepper.particles, stepper.fields, stepper.grid, stepper.config
    n = p.n
    ns_pp = 1e9 / n
    charge = stepper.q * p.weight / g.cell_area
    probe = bench.probe
    out = {}

    ex_p, ey_p = b.interpolate_redundant(f.e_1d, p.icell, p.dx, p.dy)
    out["core.interpolate_ns_pp"] = ns_pp * probe(
        lambda: b.interpolate_redundant(f.e_1d, p.icell, p.dx, p.dy))
    vx, vy = np.array(p.vx), np.array(p.vy)
    out["core.kick_ns_pp"] = ns_pp * probe(
        lambda: b.update_velocities(vx, vy, ex_p, ey_p, 1.0, 1.0))
    # a zero displacement does the full floor / wrap / re-encode /
    # write-back work and leaves the state as it was
    out["core.push_ns_pp"] = ns_pp * probe(
        lambda: b.push_positions(p, g.ncx, g.ncy, stepper.ordering,
                                 cfg.position_update, 0.0, 0.0))
    rho = np.zeros_like(f.rho_1d)
    out["core.deposit_ns_pp"] = ns_pp * probe(
        lambda: b.accumulate_redundant(rho, p.icell, p.dx, p.dy, charge),
        before=lambda: rho.fill(0.0))
    out["curves.encode_ns_pp"] = ns_pp * probe(
        lambda: stepper.ordering.encode(p.ix, p.iy))

    ncells = stepper.ordering.ncells_allocated
    perm = b.counting_sort_permutation(p.icell, ncells)
    out["particles.sort_perm_ns_pp"] = ns_pp * probe(
        lambda: b.counting_sort_permutation(p.icell, ncells))
    buf = p.clone_empty()
    out["particles.sort_apply_ns_pp"] = ns_pp * probe(
        lambda: p.reorder(perm, out=buf))
    del buf
    out["particles.init_s"] = probe(
        lambda: load_particles(
            g, stepper.ordering, case, n, layout=cfg.particle_layout, seed=seed,
            quiet=seed is None, store_coords=cfg.effective_store_coords),
        heavy=True)

    rho_grid = f.rho_grid()
    out["grid.rho_reduce_ms"] = 1e3 * probe(f.rho_grid)
    _, ex, ey = stepper.solver.solve(rho_grid)
    out["grid.poisson_ms"] = 1e3 * probe(lambda: stepper.solver.solve(rho_grid))
    e_saved = f.e_1d.copy()
    out["grid.field_scatter_ms"] = 1e3 * probe(
        lambda: f.set_field_from_grid(ex, ey))
    f.e_1d[...] = e_saved

    def diagnostics():
        pvx, pvy = stepper.physical_velocities()
        field_energy(stepper.ex_grid, stepper.ey_grid, g.cell_area, stepper.eps0)
        kinetic_energy(pvx, pvy, p.weight, stepper.m)
        mode_amplitude(stepper.rho_grid, 1, 0)

    out["core.diagnostics_ms"] = 1e3 * probe(diagnostics)
    out.update(_checkpoint_probes(bench, stepper, save_checkpoint, load_checkpoint))
    return out


def probes_3d(bench: Bench, run: Run3D) -> dict:
    """Direct calls into pic3d (through the stepper's backend) on the
    3D state."""
    st = run.stepper
    b, p, f, g = st.backend, st.particles, st.fields, st.grid
    ns_pp = 1e9 / run.n
    charge = st.q * st.weight / g.cell_volume
    probe = bench.probe
    out = {}
    out["pic3d.interpolate_ns_pp"] = ns_pp * probe(
        lambda: b.interpolate_redundant_3d(
            f.e_1d, p["icell"], p["dx"], p["dy"], p["dz"]))
    out["pic3d.push_ns_pp"] = ns_pp * probe(
        lambda: b.push_positions_3d(
            p, g.shape, st.ordering, scale=(0.0, 0.0, 0.0),
            variant=st.config.position_update))
    rho = np.zeros_like(f.rho_1d)
    out["pic3d.deposit_ns_pp"] = ns_pp * probe(
        lambda: b.accumulate_redundant_3d(
            rho, p["icell"], p["dx"], p["dy"], p["dz"], charge),
        before=lambda: rho.fill(0.0))
    e_saved = f.e_1d.copy()

    def poisson():
        _, ex, ey, ez = st.solver.solve(f.reduce_rho_to_grid())
        f.load_field_from_grid(ex, ey, ez)

    out["pic3d.poisson_ms"] = 1e3 * probe(poisson)
    f.e_1d[...] = e_saved
    out["particles.init_s"] = probe(lambda: run.case.sample(run.n, g), heavy=True)
    out["core.diagnostics_ms"] = 1e3 * probe(st.total_energy)
    out.update(_checkpoint_probes(bench, st, save_checkpoint_3d, load_checkpoint_3d))
    return out


def _checkpoint_probes(bench: Bench, stepper, save, load) -> dict:
    path = os.path.join(bench.workdir, "probe-ckpt.npz")
    written = save(stepper, path)
    try:
        out = {
            "core.checkpoint_save_ms": 1e3 * bench.probe(
                lambda: save(stepper, path), heavy=True),
            "core.checkpoint_mb": os.path.getsize(written) / 2**20,
            "core.checkpoint_load_ms": 1e3 * bench.probe(
                lambda: load(written).close(), heavy=True),
        }
    finally:
        os.unlink(written)
    return out


def probes_parallel(bench: Bench, run: Run2D, window: dict) -> dict:
    """The live ``numpy-mp`` engine: dispatch round-trip, the four
    kernels through the pool on the shared arrays, pool start-up, and
    how busy and how balanced the workers were over the window."""
    st = run.stepper
    b, p, f, g, cfg = st.backend, st.particles, st.fields, st.grid, st.config
    eng = b.engine_for(st)
    ns_pp = 1e9 / run.n
    charge = st.q * p.weight / g.cell_area
    probe = bench.probe
    out = {"parallel.dispatch_rtt_ms": 1e3 * probe(eng.ping)}
    ex_p, ey_p = b.interpolate_redundant(f.e_1d, p.icell, p.dx, p.dy)
    out["parallel.interpolate_ns_pp"] = ns_pp * probe(
        lambda: b.interpolate_redundant(f.e_1d, p.icell, p.dx, p.dy))
    saved = np.array(p.vx), np.array(p.vy)
    out["parallel.kick_ns_pp"] = ns_pp * probe(
        lambda: b.update_velocities(p.vx, p.vy, ex_p, ey_p, 1.0, 1.0))
    p.vx[:], p.vy[:] = saved
    out["parallel.push_ns_pp"] = ns_pp * probe(
        lambda: b.push_positions(p, g.ncx, g.ncy, st.ordering,
                                 cfg.position_update, 0.0, 0.0))
    out["parallel.deposit_ns_pp"] = ns_pp * probe(
        lambda: b.accumulate_redundant(f.rho_1d, p.icell, p.dx, p.dy, charge),
        before=f.reset_rho)

    def pool_start():
        pool = WorkerPool(eng.nworkers)
        try:
            pool.ping()
        finally:
            pool.close()

    out["parallel.pool_start_s"] = probe(pool_start, heavy=True)
    hist = np.bincount(np.asarray(p.icell), minlength=f.rho_1d.shape[0])
    out["parallel.balance_ratio"] = balance_ratio(eng.grid_shared.cell_ranges, hist)
    out["parallel.worker_busy_share"] = window["worker_seconds"] / (
        eng.nworkers * window["phase_wall"])
    out["parallel.fallbacks"] = window["fallbacks"]
    return out


def _worker_seconds(timings) -> float:
    return sum(sum(per.values()) for per in timings.worker_phases.values())


# ----------------------------------------------------------------------
# One run of one simulation workload
# ----------------------------------------------------------------------
def set_up(wl: SimWorkload, seed: int, bench: Bench, **kw):
    """Construct the simulation and take its first step; returns it
    and the seconds that took (the workload's ``setup_s`` sample)."""
    ref_before = bench.ref.sample()
    t0 = time.perf_counter()
    run = build(wl, seed, **kw)
    try:
        run.step()
    except BaseException:
        run.close()
        raise
    wall = time.perf_counter() - t0
    return run, wall * factor(ref_before, bench.ref.sample())


def run_sim(wl: SimWorkload, seed: int, seconds: float, trace: bool,
            bench: Bench) -> Outcome:
    out = Outcome()
    ref = bench.ref
    mp = wl.backend == "numpy-mp"
    if mp and not MultiprocessBackend.is_available():
        raise WorkloadUnavailable("MultiprocessBackend.is_available() is false")
    out.detail["backend"] = {"requested": wl.backend,
                             "resolved": resolve_backend_name(wl.backend)}
    digests = {}
    if mp:
        twin, _ = set_up(wl, seed, bench, backend="auto")
        try:
            while twin.stepper.iteration < TWIN_STEPS:
                twin.step()
            digests["twin"] = state_digest(twin.stepper)
        finally:
            twin.close()
        del twin

    # set up several times (the traced pass reports no set-up time, so
    # once); the window is timed on the last one
    setups, run = [], None
    for _ in range(1 if trace else bench.setup_reps):
        if run is not None:
            run.close()
            run = None
            gc.collect()
        run, seconds_taken = set_up(wl, seed, bench)
        setups.append(seconds_taken)
    out.detail["setup_samples"] = setups
    try:
        while run.stepper.iteration < WARMUP_STEPS:
            run.step()
            if mp and run.stepper.iteration == TWIN_STEPS:
                digests["mp"] = state_digest(run.stepper)

        def on_iteration(it):
            if wl.dims == 2 and it == DIGEST_ITERATION:
                digests["fixed"] = state_digest(run.stepper)

        timings = run.stepper.timings
        before = (_worker_seconds(timings), timings.kernel_total, timings.fallbacks)
        try:
            records = timed_window(run, ref, seconds, trace=trace,
                                   on_iteration=on_iteration)
        except Exception as exc:  # a step that raises is a failed operation
            out.check("steps", False, f"{type(exc).__name__}: {exc}")
            return out
        out.tally("steps", len(records), 0, f"{len(records)} timed steps completed")
        window = {
            "worker_seconds": _worker_seconds(timings) - before[0],
            "phase_wall": timings.kernel_total - before[1],
            "fallbacks": timings.fallbacks - before[2],
        }

        # ---- correctness -------------------------------------------
        arrays = {**run.particle_arrays(), **run.field_arrays()}
        bad = [k for k, a in arrays.items() if not np.all(np.isfinite(a))]
        out.check("finite", not bad, f"non-finite arrays: {bad or 'none'}")
        err = run.charge_error()
        out.check("charge", err < 1e-9, f"relative charge error {err:.3e} (< 1e-9)")
        drift = run.energy_drift()
        out.check("energy", drift < 1e-2, f"energy drift {drift:.3e} (< 1e-2)")
        if mp:
            out.check("twin_digest", digests["mp"] == digests["twin"],
                      f"state after {TWIN_STEPS} steps equals the serial twin's bitwise")
            out.check("fallbacks", window["fallbacks"] == 0,
                      f"{window['fallbacks']} shard(s) fell back to the parent")
        out.detail.update(
            digest=digests.get("fixed"), digest_iteration=DIGEST_ITERATION,
            steps=len(records), sort_steps=sum(r.is_sort for r in records),
            particles=run.n, energy_drift=drift, charge_error=err,
            step_s=[r.seconds for r in records],
            step_wall_s=[r.wall for r in records],
        )

        e2e, out.info = end_to_end(records, run.n, run.sort_period)
        if not trace:
            out.metrics.update(e2e)
            out.metrics["setup_s"] = min(setups)
            return out
        other = "pic3d.step_other_ms" if wl.dims == 3 else "core.step_other_ms"
        layer = span_metrics(records, run.n, run.sort_period, other)
        out.detail["span_sum_over_step"] = layer.pop("_span_sum_over_step")
        out.metrics.update(layer)
        out.spans = spans_of(records, wl.name)
        if wl.dims == 3:
            out.metrics.update(probes_3d(bench, run))
        else:
            out.metrics.update(probes_2d(bench, run.stepper, run.case, seed))
        if mp:
            out.metrics.update(probes_parallel(bench, run, window))
    finally:
        run.close()
    return out
