"""The ``c`` backend's thread team: bitwise equal to one thread.

A stepper on ``c`` runs update-v, the push and the sort's gathers on ``config.workers`` threads over particle shards
(:mod:`repro.core.team`).  These tests pin that

* the shard cut and the thread-count rule (``taskset`` honoured);
* every 2D ordering, wrap variant and step shape (one-pass ``advance``
  and a hooked step's two loops), across a sort, at 1–8 threads, gives
  the serial ``numpy`` run's bits phase by phase, and so do 3D Morton
  and row-major;
* a bad cell raises the serial error before any shard writes, a
  trapped kernel gives the serial failure report, and no thread
  outlives its stepper;
* ``numpy`` and ``numpy-mp`` (parent and workers) never get a team.

The population is ``3 * BLOCK + 17`` particles under a block size
patched down to 64, so up to four uneven shards run in milliseconds.
"""

import gc
import hashlib
import os
import signal
import threading
import time

import numpy as np
import pytest

import repro.core.kernels as kernels
import repro.core.team as team_mod
from repro.core import OptimizationConfig, PICStepper, Simulation
from repro.core.backends import CBackend
from repro.core.team import ThreadTeam, shard_slices, usable_cpus
from repro.grid import GridSpec
from repro.model.config import ModelConfig
from repro.particles import LandauDamping
from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D
from repro.resilience import FaultInjector, SupervisedRun

pytestmark = pytest.mark.skipif(not CBackend.is_available(),
                                reason="no C compiler")

B = 64
N = 3 * B + 17
ORDERINGS_2D = ["row-major", "column-major", "morton", "l4d", "hilbert"]
VARIANTS = ["branch", "modulo", "bitwise"]
THREADS = list(range(1, 9))


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK", B)


@pytest.fixture(autouse=True)
def no_stray_teams():
    """Collect the steppers earlier tests dropped unclosed (their teams
    stop when collected), so the counts below see this test's only."""
    gc.collect()
    for t in _team_threads():
        t.join(timeout=10)
    assert _team_threads() == []


def _team_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-team") and t.is_alive()]


def _stepper_2d(backend, workers, ordering="morton", variant="bitwise",
                n=N, sort_period=3):
    cfg = OptimizationConfig(ordering=ordering, position_update=variant,
                             backend=backend, workers=workers,
                             sort_period=sort_period)
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    return PICStepper(grid, cfg, case=LandauDamping(alpha=0.05),
                      n_particles=n, dt=0.1, seed=1)


def _stepper_3d(backend, workers, ordering, sort_variant):
    """A 3D stepper; ``sort_variant`` is a model axis, and either value
    runs the one sort (on the team, split by row range)."""
    cfg = ModelConfig(ordering=ordering, backend=backend,
                      workers=workers, sort_period=3,
                      sort_variant=sort_variant)
    grid = GridSpec3D(8, 8, 4, xmax=4 * np.pi, ymax=4 * np.pi, zmax=2 * np.pi)
    return PICStepper3D(grid, LandauDamping3D(alpha=0.05), N, dt=0.1,
                        config=cfg)


def _state(st) -> str:
    h = hashlib.sha256()
    for _name, col in st.particles.items():
        h.update(np.ascontiguousarray(col).tobytes())
    for name in ("rho_grid", "ex_grid", "ey_grid", "ez_grid"):
        if hasattr(st, name):
            h.update(np.ascontiguousarray(getattr(st, name)).tobytes())
    return h.hexdigest()


def _trail(st, steps=5, hooked=False) -> list:
    """The state digest after every step, and after every phase of a
    hooked step; closes ``st``."""
    trail = []
    if hooked:
        st.phase_hook = lambda phase, s: trail.append((phase, _state(s)))
    try:
        for _ in range(steps):
            st.step()
            trail.append(("step", _state(st)))
    finally:
        st.close()
    return trail


# ----------------------------------------------------------------------
# Shards and the thread-count rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, B, B + 1, N, 8 * B + 3, 100 * B])
@pytest.mark.parametrize("size", THREADS)
def test_shards_cover_on_multiples_of_eight(n, size):
    shards = shard_slices(n, size)
    assert len(shards) == min(size, -(-n // B))
    assert shards[0].start == 0 and shards[-1].stop == n
    for a, b in zip(shards, shards[1:]):
        assert a.stop == b.start and a.stop % 8 == 0
    lengths = [s.stop - s.start for s in shards]
    assert min(lengths) > 0 and max(lengths) - min(lengths) <= 8 * len(shards)


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert usable_cpus() == 3
    # a stepper with workers unset sizes its team from the mask
    st = _stepper_2d("c", None)
    try:
        assert st._team.size == 3
        st.step()
        assert len(_team_threads()) == 2
    finally:
        st.close()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    st = _stepper_2d("c", None)
    assert st._team is None
    st.close()


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    def unsupported(pid):
        raise OSError("no affinity here")

    monkeypatch.setattr(os, "sched_getaffinity", unsupported, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cpus() == 5
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_the_mp_engine_and_repro_info_size_from_the_same_helper(
        monkeypatch, capsys):
    from repro import cli
    from repro.parallel import executor

    assert executor.usable_cpus is usable_cpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert cli.main(["info"]) == 0
    assert "cpus     : 3 usable" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The bitwise promise matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hooked", [False, True], ids=["advance", "hooked"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("ordering", ORDERINGS_2D)
@pytest.mark.parametrize("threads", THREADS)
def test_team_equals_serial_numpy_2d(threads, ordering, variant, hooked):
    want = _trail(_stepper_2d("numpy", None, ordering, variant), hooked=hooked)
    st = _stepper_2d("c", threads, ordering, variant)
    assert len(st._shards()) == (min(threads, 4) if threads > 1 else 0)
    got = _trail(st, hooked=hooked)
    assert [p for p, _ in got] == [p for p, _ in want]
    for (phase, a), (_, b) in zip(got, want):
        assert a == b, f"{phase} differs"


@pytest.mark.parametrize("sort_variant", ["out-of-place", "in-place"])
@pytest.mark.parametrize("hooked", [False, True], ids=["advance", "hooked"])
@pytest.mark.parametrize("ordering", ["morton", "row-major"])
@pytest.mark.parametrize("threads", THREADS)
def test_team_equals_serial_numpy_3d(threads, ordering, hooked, sort_variant):
    want = _trail(_stepper_3d("numpy", None, ordering, sort_variant),
                  hooked=hooked)
    st = _stepper_3d("c", threads, ordering, sort_variant)
    assert len(st._shards()) == (min(threads, 4) if threads > 1 else 0)
    assert _trail(st, hooked=hooked) == want


def test_team_map_runs_item_zero_on_the_caller_and_keeps_order():
    team = ThreadTeam(3)
    try:
        names = team.map(lambda k: (k, threading.current_thread().name),
                         range(3))
        assert names[0] == (0, threading.current_thread().name)
        assert [k for k, _ in names] == [0, 1, 2]
        assert all(name.startswith("repro-team") for _, name in names[1:])
        assert team.map(lambda k: -k, [5]) == [-5]
    finally:
        team.close()


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "thread"])
def test_an_error_reaches_the_caller_after_every_item_finished(failing):
    team = ThreadTeam(3)
    finished = []

    def body(k):
        if k == failing:
            raise KeyError(f"shard {k}")
        time.sleep(0.05)
        finished.append(k)
        return k

    try:
        with pytest.raises(KeyError, match=f"shard {failing}"):
            team.map(body, range(3))
        assert sorted(finished) == sorted({0, 1, 2} - {failing})
        assert team.map(lambda k: k, range(3)) == [0, 1, 2]  # still usable
    finally:
        team.close()


def test_an_interrupt_during_the_wait_is_raised_after_every_item_finished():
    """A signal handler's exception (Ctrl-C) while the caller waits for
    the threads is held back until they are done, so the next map
    cannot overlap a thread still writing the previous one's shard."""
    team = ThreadTeam(2)
    finished = []

    def body(k):
        if k == 1:
            time.sleep(0.3)
            finished.append(k)
        return k

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(KeyboardInterrupt):
            team.map(body, range(2))
        assert finished == [1]
        assert team.map(lambda k: k, range(2)) == [0, 1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        team.close()


# ----------------------------------------------------------------------
# Errors and lifecycle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("hooked", [False, True], ids=["advance", "hooked"])
def test_bad_cell_in_shard_one_raises_the_serial_error_and_writes_nothing(hooked):
    sts = {t: _stepper_2d("c", t) for t in (1, 2)}
    try:
        at = sts[2]._shards()[1].start + 5
        ncell = len(sts[2].fields.e_1d)
        for bad in (ncell, -1, np.iinfo(np.int64).min):
            errors = {}
            for threads, st in sts.items():
                st.phase_hook = (lambda *a: None) if hooked else None
                st.particles.icell[at] = bad
                before = st.particles.as_dict()
                with pytest.raises(IndexError, match=f"particle {at}:") as ei:
                    st.step()
                errors[threads] = str(ei.value)
                for name, want in before.items():
                    np.testing.assert_array_equal(st.particles[name], want,
                                                  err_msg=name)
                st.particles.icell[at] = 0
            assert errors[1] == errors[2]
    finally:
        for st in sts.values():
            st.close()


def _supervised_report(threads):
    base = threading.active_count()
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    cfg = OptimizationConfig(backend="c", workers=threads, sort_period=3)
    sim = Simulation(grid, LandauDamping(alpha=0.05), N, cfg, dt=0.1, seed=1)
    assert (sim.stepper._team is not None) == (threads > 1)
    inj = FaultInjector().add_kernel_raise(step=4, kernel="advance",
                                           backend="c")
    with SupervisedRun(sim, checkpoint_every=3, max_retries=1,
                       injector=inj) as sup:
        history = sup.run(8)
        assert sup.sim.stepper.backend.name == "numpy"
        # the degraded run owns no team, and the c stepper's is gone
        assert threading.active_count() == base
        return sup.report.as_dict(), history.field_energy, inj.log


def test_injected_fault_gives_the_serial_failure_report():
    serial = _supervised_report(1)
    assert serial[0]["failures"] and serial[0]["degradations"]
    assert _supervised_report(2) == serial


def test_no_thread_outlives_close():
    base = threading.active_count()
    st = _stepper_2d("c", 4)
    st.step()
    assert threading.active_count() == base + 3
    st.close()
    assert threading.active_count() == base
    st.close()  # idempotent


def test_no_thread_outlives_a_failed_construction(monkeypatch):
    base = threading.active_count()

    def fail(self):
        assert self._team is not None and self._team.size == 4
        raise RuntimeError("init failed")

    monkeypatch.setattr(PICStepper, "_init_fields_and_stagger", fail)
    with pytest.raises(RuntimeError, match="init failed"):
        _stepper_2d("c", 4)
    assert threading.active_count() == base


def test_an_unclosed_stepper_stops_its_threads_when_collected():
    st = _stepper_2d("c", 3)
    st.step()  # the threads have run work that closes over the stepper
    threads = _team_threads()
    assert len(threads) == 2
    del st
    gc.collect()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()


def test_one_shard_starts_no_thread():
    base = threading.active_count()
    for st in (_stepper_2d("c", 8, n=B), _stepper_2d("c", 1)):
        assert st._team is None and st._shards() == []
        assert threading.active_count() == base
        st.step()
        st.close()


# ----------------------------------------------------------------------
# Backends without a team
# ----------------------------------------------------------------------
def test_numpy_gets_no_team():
    st = _stepper_2d("numpy", 4)
    try:
        assert st._team is None and _team_threads() == []
    finally:
        st.close()


def test_numpy_mp_on_the_c_body_starts_no_team_anywhere(monkeypatch):
    """Neither the parent's stepper nor a forked worker builds a team:
    the workers inherit a ``ThreadTeam`` that refuses construction, and
    the run still finishes with the serial bits and no fallback."""
    want = _trail(_stepper_2d("numpy", None))

    def refuse(self, size):
        raise AssertionError("a numpy-mp run built a thread team")

    monkeypatch.setattr(team_mod.ThreadTeam, "__init__", refuse)
    st = _stepper_2d("numpy-mp", 2)
    engine = st.backend.engine_for(st)
    assert engine.body.name == "c"
    assert st._team is None and _team_threads() == []
    assert _trail(st) == want
    assert st.timings.fallbacks == 0
