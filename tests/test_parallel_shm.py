"""Tests for the real shared-memory multiprocessing engine (numpy-mp).

The contract under test (docs/parallelism.md): running the three §V
particle loops across worker processes is *bitwise* identical to the
serial numpy backend — same ρ, same E, same particle state — at any
worker count, run after run, and even when workers are killed mid-step
(the parent recomputes the lost shards serially).  The bitwise matrix
and the kill-mid-phase cases run on both kernel bodies the workers can
have: ``c``, and ``numpy`` — what a host without a compiler gets.
"""

from __future__ import annotations

import functools
import logging
import os

import numpy as np
import pytest

from repro.core.backends import CBackend, get_backend
from repro.core.config import OptimizationConfig
from repro.core.simulation import Simulation
from repro.curves import get_ordering
from repro.grid.spec import GridSpec
from repro.model.config import ModelConfig
from repro.parallel.executor import MultiprocessBackend, WorkerPool
from repro.parallel.shm import SharedParticleStorage
from repro.particles.initializers import LandauDamping
from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D, TwoStream3D

pytestmark = pytest.mark.skipif(
    not MultiprocessBackend.is_available(),
    reason="POSIX shared memory / multiprocessing unavailable",
)

#: small enough to be quick, sorts twice within the run
N_PARTICLES = 2000
N_STEPS = 7
SORT_PERIOD = 3


class _Run3D:
    """The slice of ``Simulation``'s surface these tests use, over a
    bare 3D stepper."""

    def __init__(self, stepper):
        self.stepper = stepper
        self.run = stepper.run
        self.timings = stepper.timings

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stepper.close()


def _make_sim(backend, workers=None, ndim=2, config_cls=OptimizationConfig,
              **cfg_kw):
    if ndim == 3:
        cfg = OptimizationConfig(
            backend=backend, workers=workers, sort_period=SORT_PERIOD, **cfg_kw
        )
        grid = GridSpec3D(8, 4, 4, xmax=4 * np.pi, ymax=2 * np.pi, zmax=2 * np.pi)
        return _Run3D(
            PICStepper3D(grid, TwoStream3D(), N_PARTICLES, dt=0.1, config=cfg)
        )
    cfg = config_cls(
        backend=backend,
        workers=workers,
        sort_period=SORT_PERIOD,
        **cfg_kw,
    )
    grid = GridSpec(16, 16)
    return Simulation(grid, LandauDamping(), N_PARTICLES, cfg, dt=0.05, seed=7)


def _state(sim):
    """Bitwise-comparable snapshot: fields + particle attribute arrays."""
    st = sim.stepper
    out = {
        name: getattr(st, name).copy()
        for name in ("rho_grid", "ex_grid", "ey_grid", "ez_grid")
        if hasattr(st, name)
    }
    out.update(st.particles.as_dict())
    return out


def _assert_bitwise_equal(sa, sb):
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), f"{key} differs bitwise"


def _engine(sim):
    return sim.stepper.backend.engine_for(sim.stepper)


@pytest.fixture(params=["c", "numpy"])
def body(request, monkeypatch):
    """The kernels the engine gives its workers: ``c`` where it builds;
    ``numpy`` once ``c`` is made unavailable, as on a host without a
    compiler."""
    if request.param == "c" and not CBackend.is_available():
        pytest.skip("no C compiler")
    if request.param == "numpy":
        monkeypatch.setattr(CBackend, "is_available", classmethod(lambda cls: False))
    return request.param


@functools.lru_cache(maxsize=None)
def _serial_state(ndim, ordering, steps):
    """The serial NumPy state after ``steps`` steps (read-only: shared
    by every worker count and body of the matrix)."""
    with _make_sim("numpy", ndim=ndim, ordering=ordering) as ref:
        ref.run(steps)
        return _state(ref)


#: (ndim, ordering) of the bitwise matrix.  A 3D stepper maps every
#: space-filling curve's name to Morton, so L4D and Hilbert have no 3D
#: column of their own.
MATRIX_CURVES = [
    (2, "row-major"), (2, "morton"), (2, "l4d"), (2, "hilbert"),
    (3, "row-major"), (3, "morton"),
]


# ----------------------------------------------------------------------
# Bitwise equivalence with the serial backend
# ----------------------------------------------------------------------
class TestBitwiseEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_numpy_backend(self, workers):
        with _make_sim("numpy") as ref, _make_sim("numpy-mp", workers) as mp:
            assert _engine(mp) is not None, "engine should be active"
            ref.run(N_STEPS)
            mp.run(N_STEPS)
            assert mp.timings.fallbacks == 0
            _assert_bitwise_equal(_state(ref), _state(mp))

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("ndim,ordering", MATRIX_CURVES)
    def test_ownership_matrix_25_steps(self, body, ndim, ordering, workers):
        """Whole corner columns (up to ``ncorner`` workers: 1, 2, 4 even,
        3 uneven; 5 and 8 too in 3D) and columns cut into two cell
        ranges (5, 8 in 2D), through 8 sorts, on either kernel body."""
        with _make_sim("numpy-mp", workers, ndim=ndim, ordering=ordering) as mp:
            eng = _engine(mp)
            assert eng.body.name == body
            assert len(eng.grid_shared.cell_ranges) == -(-workers // (1 << ndim))
            mp.run(25)
            assert mp.timings.fallbacks == 0
            _assert_bitwise_equal(_serial_state(ndim, ordering, 25), _state(mp))

    def test_repeated_runs_are_deterministic(self):
        with _make_sim("numpy-mp", 2) as a, _make_sim("numpy-mp", 2) as b:
            a.run(N_STEPS)
            b.run(N_STEPS)
            _assert_bitwise_equal(_state(a), _state(b))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_update_v_runs_on_the_workers(self, ndim, monkeypatch):
        """Update-v goes to the pool every step — not a loop in the
        parent: an unhooked step as one ``advance`` op (two dispatches
        a step with the deposit), a hooked step as one ``update_v`` and
        one ``push`` op — with serial ``c``'s bits after 25 steps."""
        serial = "c" if CBackend.is_available() else "numpy"
        with _make_sim("numpy-mp", 2, ndim=ndim) as mp, \
                _make_sim(serial, ndim=ndim) as ref:
            eng = _engine(mp)
            ops, run = [], eng._run

            def counted(phase, op, *args):
                ops.append(op)
                return run(phase, op, *args)

            monkeypatch.setattr(eng, "_run", counted)
            busy = 0.0
            for step in range(25):
                hooked = step % 2 == 1
                mp.stepper.phase_hook = (lambda phase, st: None) if hooked else None
                ops.clear()
                mp.run(1)
                want = ["update_v", "push"] if hooked else ["advance"]
                assert ops == [*want, "deposit"], ops
                now = sum(per["update_v"]
                          for per in mp.timings.worker_phases.values())
                assert now > busy
                busy = now
            assert mp.timings.fallbacks == 0
            ref.run(25)
            _assert_bitwise_equal(_state(ref), _state(mp))

    def test_worker_phase_timings_recorded(self):
        with _make_sim("numpy-mp", 2) as mp:
            mp.run(2)
            phases = mp.timings.worker_phases
            assert sorted(phases) == ["worker0", "worker1"]
            # every worker did real work in each particle loop
            for per in phases.values():
                assert per["update_v"] > 0.0
                assert per["update_x"] > 0.0
                assert per["accumulate"] > 0.0
            rec = mp.timings.as_record()
            assert rec["fallbacks"] == 0
            assert sorted(rec["workers"]) == ["worker0", "worker1"]


# ----------------------------------------------------------------------
# Fault tolerance
# ----------------------------------------------------------------------
class TestFaultTolerance:
    #: bounds the damage if recovery ever regresses: a dispatch that
    #: loses track of a shard costs seconds, not the 60s default
    TIMEOUT_KW = {"mp_task_timeout": 10.0}

    def test_killed_worker_falls_back_serially_bitwise(self):
        with (
            _make_sim("numpy") as ref,
            _make_sim("numpy-mp", 2, **self.TIMEOUT_KW) as mp,
        ):
            ref.run(N_STEPS)
            eng = _engine(mp)
            mp.run(2)
            eng.pool.kill_worker(0)
            mp.run(1)  # crash detected here; shards recomputed serially
            mp.run(N_STEPS - 3)
            assert mp.timings.fallbacks > 0
            assert eng.pool.restarts >= 1
            _assert_bitwise_equal(_state(ref), _state(mp))

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("op", ["update_v", "push", "advance", "deposit"])
    def test_worker_dying_mid_write_retries_bitwise(self, body, op, ndim):
        """Kill a worker as the phase is dispatched, after scribbling
        over everything the phase writes — what a worker that died
        half-way through its shard leaves behind.  The inputs are
        untouched (they are the other buffer), so the parent's retry
        reproduces the serial bits — through the one engine, in both
        dimensions, on either kernel body.  The split loops run under a
        no-op phase hook."""
        with (
            _make_sim("numpy", ndim=ndim) as ref,
            _make_sim("numpy-mp", 2, ndim=ndim, **self.TIMEOUT_KW) as mp,
        ):
            ref.run(N_STEPS)
            eng = _engine(mp)
            assert eng.body.name == body
            if op in ("update_v", "push"):
                mp.stepper.phase_hook = lambda phase, st: None
            mp.run(2)
            run_shards, fired = eng.pool.run_shards, []

            def dying(shards, timeout=None):
                if shards[0][1]["op"] == op and not fired:
                    fired.append(op)
                    for _name, arr in eng.back.items():
                        arr[...] = -1 if arr.dtype.kind == "i" else np.nan
                    eng.grid_shared.slab[...] = np.nan
                    eng.pool.kill_worker(0)
                return run_shards(shards, timeout)

            eng.pool.run_shards = dying
            mp.run(N_STEPS - 2)
            assert fired == [op]
            assert mp.timings.fallbacks >= 1
            _assert_bitwise_equal(_state(ref), _state(mp))

    def test_dead_workers_shard_fails_without_waiting(self):
        """The wait is on the process sentinel too: a worker found dead
        costs no poll interval and no timeout."""
        import time

        pool = WorkerPool(2, timeout=30.0)
        try:
            assert pool.ping() == [True, True]
            pool.kill_worker(0)
            pool._workers[0].proc.join(timeout=5.0)
            t0 = time.perf_counter()
            done, failed = pool.run_shards(
                [(0, {"op": "ping"}), (1, {"op": "ping"})]
            )
            # the clock stops before the replacement is forked; this
            # bound includes it and still sits far below any timeout
            elapsed = time.perf_counter() - t0
            assert [wid for (wid, _m), _s in done] == [1]
            assert [wid for wid, _m in failed] == [0]
            assert elapsed < 0.1, f"took {elapsed * 1e3:.1f} ms"
            assert pool.restarts == 1 and pool.ping() == [True, True]
        finally:
            pool.close()

    def test_heartbeat_reports_and_recovers(self):
        with _make_sim("numpy-mp", 2, **self.TIMEOUT_KW) as mp:
            eng = _engine(mp)
            assert eng.ping() == [True, True]
            eng.pool.kill_worker(1)
            eng.ping()  # detects the corpse and respawns it
            assert eng.ping() == [True, True]

    def test_pool_timeout_kills_hung_worker(self):
        pool = WorkerPool(2, timeout=0.25)
        try:
            done, failed = pool.run_shards(
                [(0, {"op": "sleep", "seconds": 30.0}), (1, {"op": "ping"})]
            )
            assert [wid for (wid, _m), _s in done] == [1]
            assert [wid for wid, _m in failed] == [0]
            assert pool.restarts == 1
            assert pool.ping() == [True, True]  # replacement is healthy
        finally:
            pool.close()


def test_log_line_and_info_name_the_workers_kernels(body, caplog, capsys):
    from repro.cli import main

    with caplog.at_level(logging.INFO, logger="repro.parallel.executor"):
        with _make_sim("numpy-mp", 2):
            pass
    assert f"numpy-mp engine: 2 workers running the {body} kernels" in caplog.text
    assert main(["info"]) == 0
    assert f"(numpy-mp available, workers run {body};" in capsys.readouterr().out


def test_ordering_spec_resolves_two_or_three_extents():
    """One resolver, one registry, one small picklable tuple per shard
    message — naming the ordering the stepper built, with its own
    kwargs: a 3D run configured as ``l4d`` ships ``morton``, no
    ``size``."""
    import pickle

    from repro.parallel.executor import _ordering_from_spec

    cfg = OptimizationConfig(ordering="l4d", ordering_kwargs={"size": 8})
    grid3 = GridSpec3D(8, 4, 4)
    st = PICStepper3D(grid3, LandauDamping3D(), 64, config=cfg)
    spec3 = st.ordering.spec
    st.close()
    assert spec3 == ("morton", (8, 4, 4), ())
    spec2 = get_ordering("l4d", 16, 16, size=8).spec
    assert spec2 == ("l4d", (16, 16), (("size", 8),))
    cache = {}
    two = _ordering_from_spec(pickle.loads(pickle.dumps(spec2)), cache)
    three = _ordering_from_spec(pickle.loads(pickle.dumps(spec3)), cache)
    assert (type(two).__name__, two.shape, two.size) == ("L4DOrdering", (16, 16), 8)
    assert (type(three).__name__, three.shape) == ("MortonOrdering", (8, 4, 4))
    assert _ordering_from_spec(spec3, cache) is three  # built once per worker
    assert len(pickle.dumps(spec3)) < 100


# ----------------------------------------------------------------------
# The flip commit
# ----------------------------------------------------------------------
class TestFlipCommit:
    NAMES = ("icell", "dx", "dy", "vx", "vy", "ix", "iy")

    @staticmethod
    def _bindings(storage):
        return {k: storage[k] for k in TestFlipCommit.NAMES}

    def test_step_commits_by_exchanging_bindings(self):
        """After a step the live arrays *are* the former back-buffer
        arrays (and vice versa): nothing was copied in the parent."""
        with _make_sim("numpy-mp", 2, ordering="morton") as mp:
            st, eng = mp.stepper, _engine(mp)
            front, back = st.particles, eng.back
            assert isinstance(front, SharedParticleStorage)
            assert isinstance(back, SharedParticleStorage)
            was_front, was_back = self._bindings(front), self._bindings(back)
            mp.run(1)
            assert st.particles is front and eng.back is back
            arena = eng.arena
            for key in self.NAMES:
                live, staged = getattr(front, key), getattr(back, key)
                assert live is was_back[key] and staged is was_front[key], key
                assert np.shares_memory(live, was_back[key])
                assert not np.shares_memory(live, was_front[key])
                assert arena.owns(live, staged)

    def test_one_back_buffer_is_staging_and_sort_buffer(self):
        """14 particle-sized shared arrays (7 front, 7 back: no gather
        scratch), and a sort step allocates nothing."""
        with _make_sim("numpy-mp", 2, ordering="morton") as mp:
            eng = _engine(mp)

            def particle_sized():
                return sum(
                    spec[2] == (N_PARTICLES,)
                    for _arr, spec in eng.arena._arrays.values()
                )

            assert particle_sized() == 14
            mp.run(SORT_PERIOD + 1)  # through a sort
            assert particle_sized() == 14
            assert eng.back is mp.stepper.particles.back

    @pytest.mark.parametrize("sort_variant", ["out-of-place", "in-place"])
    def test_flips_interleave_with_the_sort_swap(self, sort_variant):
        """Across sorts and commits — unhooked steps (advance and
        deposit dispatches), then hooked ones (update-v, push and
        deposit) — the arrays keep flipping between the front and the
        engine's back buffer, the sort's flips included, while neither
        store object changes and every array stays the arena's; every
        step ends on the serial state.  The sort variant is a model
        axis: a ModelConfig naming either one runs the one sort."""
        kw = {"sort_variant": sort_variant, "ordering": "morton",
              "config_cls": ModelConfig}
        with _make_sim("numpy", **kw) as ref, _make_sim("numpy-mp", 2, **kw) as mp:
            st, eng = mp.stepper, _engine(mp)
            front, back = st.particles, eng.back
            for step in range(4 * SORT_PERIOD + 2):
                if step == 2 * SORT_PERIOD + 1:
                    st.phase_hook = lambda phase, stepper: None
                ref.run(1)
                mp.run(1)
                assert st.particles is front and eng.back is back, step
                assert eng.arena.owns(*dict(front).values(), *dict(back).values())
                _assert_bitwise_equal(_state(ref), _state(mp))

    def test_arrays_that_are_not_live_take_the_in_place_kernel(self):
        """A kick or an update-v on copies — or on the back buffer's
        arrays — must not flip anything: it is the caller's arrays that
        get updated."""
        with _make_sim("numpy-mp", 2) as mp:
            st, eng = mp.stepper, _engine(mp)
            p, back = st.particles, eng.back
            live_vx, live_vy, staged_vx = p.vx, p.vy, back.vx
            ex_p, ey_p = st.backend.interpolate_redundant(
                st.fields.e_1d, p.icell, p.dx, p.dy
            )
            before = np.array(p.vx), np.array(p.vy)
            want = before[0] + ex_p
            copies = np.array(p.vx), np.array(p.vy)
            for vx, vy in ((back.vx, back.vy), copies):
                for update in (
                    lambda: st.backend.update_velocities(vx, vy, ex_p, ey_p),
                    lambda: st.backend.update_v(
                        (vx, vy), st.fields.e_1d, p.icell, (p.dx, p.dy)),
                ):
                    vx[:], vy[:] = before
                    update()
                    assert np.array_equal(vx, want)
                    assert p.vx is live_vx and p.vy is live_vy
                    assert back.vx is staged_vx
                    assert np.array_equal(p.vx, before[0])
            assert eng.fallbacks == 0


# ----------------------------------------------------------------------
# Resource lifecycle
# ----------------------------------------------------------------------
class TestResourceLifecycle:
    def test_close_unlinks_all_shared_segments(self):
        sim = _make_sim("numpy-mp", 2)
        eng = _engine(sim)
        segs = list(eng.arena.segment_names)
        assert segs, "engine should have allocated shared segments"
        sim.run(2)
        sim.close()
        if os.path.isdir("/dev/shm"):
            left = [s for s in segs if os.path.exists("/dev/shm/" + s)]
            assert left == [], f"leaked shared-memory segments: {left}"
        # idempotent: a second close must not raise
        sim.close()

    def test_release_detaches_engine(self):
        sim = _make_sim("numpy-mp", 2)
        backend = sim.stepper.backend
        stepper = sim.stepper
        sim.close()
        assert backend.engine_for(stepper) is None


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
class TestFallbackPaths:
    def test_plain_arrays_use_serial_kernels(self, rng):
        """Direct kernel calls on non-shared arrays match numpy exactly."""
        npb = get_backend("numpy")
        mpb = get_backend("numpy-mp")
        n, ncells = 500, 64
        e_1d = rng.random((ncells, 8))
        icell = rng.integers(0, ncells, n)
        dx, dy = rng.random(n), rng.random(n)
        ex_a, ey_a = npb.interpolate_redundant(e_1d, icell, dx, dy)
        ex_b, ey_b = mpb.interpolate_redundant(e_1d, icell, dx, dy)
        assert np.array_equal(ex_a, ex_b) and np.array_equal(ey_a, ey_b)
        rho_a = np.zeros((ncells, 4))
        rho_b = np.zeros((ncells, 4))
        npb.accumulate_redundant(rho_a, icell, dx, dy)
        mpb.accumulate_redundant(rho_b, icell, dx, dy)
        assert np.array_equal(rho_a, rho_b)

    @pytest.mark.skipif(not CBackend.is_available(), reason="no C compiler")
    def test_standard_aos_config_runs_on_the_engine(self):
        """A model config naming the point-based field layout and AoS
        particles is no longer refused (it logged a warning and ran
        serially): every stepper keeps redundant rows and SoA columns,
        so the engine takes the run, and through a sort its state is
        serial ``c``'s, bit for bit."""
        layouts = dict(field_layout="standard", particle_layout="aos",
                       config_cls=ModelConfig)
        with _make_sim("numpy-mp", workers=2, **layouts) as sim, \
                _make_sim("c", **layouts) as ref:
            assert _engine(sim) is not None
            sim.run(SORT_PERIOD + 1)
            ref.run(SORT_PERIOD + 1)
            _assert_bitwise_equal(_state(sim), _state(ref))

    @pytest.mark.skipif(not CBackend.is_available(), reason="no C compiler")
    def test_loop_mode_fused_runs_on_the_engine(self):
        """A model config's ``loop_mode="fused"`` is no longer refused (it logged a
        warning and ran serially): the engine takes the run, and through
        a sort its state is serial ``c``'s, bit for bit."""
        fused = dict(loop_mode="fused", config_cls=ModelConfig)
        with _make_sim("numpy-mp", workers=2, **fused) as sim, \
                _make_sim("c", **fused) as ref:
            assert _engine(sim) is not None
            sim.run(SORT_PERIOD + 1)
            ref.run(SORT_PERIOD + 1)
            _assert_bitwise_equal(_state(sim), _state(ref))

    def test_config_rejects_bad_worker_counts(self):
        with pytest.raises(ValueError):
            OptimizationConfig(workers=0)
        with pytest.raises(ValueError):
            OptimizationConfig(mp_task_timeout=0.0)
