"""Tests for the multi-job engine (`repro.service`).

Covers the satellite checklist of the service PR: submit/cancel,
priority ordering, preempt-then-resume bitwise equality with an
uninterrupted run, crashed-job isolation, and the ``/dev/shm`` leak
scan after engine shutdown.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.core.backends import CBackend
from repro.resilience.faultinject import FaultInjector
from repro.service import (
    JobEngine,
    JobState,
    PICJob,
    UnknownJobError,
)

SHM_DIR = pathlib.Path("/dev/shm")


def shm_entries() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}


def small_job(**overrides) -> PICJob:
    base = dict(case="landau", grid=(16, 16), n_particles=1500, steps=20,
                dt=0.05, backend="numpy", checkpoint_every=8)
    base.update(overrides)
    return PICJob(**base)


# ----------------------------------------------------------------------
# PICJob: validation and serialization
# ----------------------------------------------------------------------
class TestPICJob:
    def test_defaults_valid(self):
        job = PICJob()
        assert job.case == "landau" and job.steps == 100

    @pytest.mark.parametrize("bad", [
        dict(case="nope"),
        dict(ordering="zigzag"),
        dict(backend="gpu"),
        dict(steps=0),
        dict(n_particles=0),
        dict(dt=0.0),
        dict(checkpoint_every=0),
        dict(grid=(16,)),
        dict(domain=(0.0, 0.0, 0.0, 1.0)),
        dict(workers=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            PICJob(**bad)

    def test_dict_round_trip(self):
        job = small_job(priority=3, seed=7, alpha=0.1,
                        domain=(0.0, 1.0, 0.0, 2.0))
        assert PICJob.from_dict(job.as_dict()) == job

    @pytest.mark.parametrize("loop_mode", ["split", "fused", "auto"])
    def test_from_dict_drops_a_retired_loop_mode(self, loop_mode):
        """Journals and spool documents written while jobs carried a
        ``loop_mode`` still load, whatever it held; any other unknown
        key is still refused."""
        job = small_job(seed=7)
        assert PICJob.from_dict({**job.as_dict(), "loop_mode": loop_mode}) == job
        with pytest.raises(TypeError):
            PICJob.from_dict({**job.as_dict(), "block_size": 64})

    def test_builders_match_cli_conventions(self):
        job = small_job(ordering="hilbert")
        cfg = job.make_config()
        assert cfg.ordering == "hilbert"
        assert cfg.backend == "numpy"
        grid = job.make_grid()
        assert (grid.ncx, grid.ncy) == (16, 16)

    def test_state_machine_predicates(self):
        assert JobState.QUEUED.runnable and not JobState.QUEUED.terminal
        assert JobState.PREEMPTED.runnable
        assert not JobState.RUNNING.terminal
        for s in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED):
            assert s.terminal and not s.runnable


# ----------------------------------------------------------------------
# Submit / result / status
# ----------------------------------------------------------------------
class TestSubmitResult:
    def test_two_jobs_complete(self):
        with JobEngine(max_workers=2) as engine:
            a = engine.submit(small_job())
            b = engine.submit(small_job(case="two-stream", steps=15))
            ra = engine.result(a, timeout=60)
            rb = engine.result(b, timeout=60)
        assert ra.ok and rb.ok
        assert ra.steps_done == 20 and rb.steps_done == 15
        # history: initial entry + one per step
        assert len(ra.history.times) == 21
        assert np.isfinite(ra.energy_drift())
        # per-job ledger carries the engine scheduling context
        assert ra.timings["engine"]["job_id"] == a
        assert ra.timings["engine"]["segments"] == 1
        assert ra.timings["cumulative"]["total"] > 0
        # supervisor accounting aggregated into the result
        assert ra.supervisor["checkpoints_written"] >= 1
        assert ra.supervisor["rollbacks"] == 0

    def test_engine_matches_plain_simulation(self):
        """A fault-free engine run is bitwise identical to Simulation.run."""
        job = small_job()
        with job.build_simulation() as ref:
            ref.run(job.steps)
            with JobEngine(max_workers=1) as engine:
                res = engine.result(engine.submit(job), timeout=60)
            assert np.array_equal(res.history.field_energy,
                                  ref.history.field_energy)
            assert np.array_equal(res.history.mode_amplitude,
                                  ref.history.mode_amplitude)

    def test_status_and_listing(self):
        with JobEngine(max_workers=1, autostart=False) as engine:
            a = engine.submit(small_job(priority=2))
            info = engine.status(a)
            assert info.state is JobState.QUEUED
            assert info.priority == 2 and info.steps_total == 20
            assert [i.job_id for i in engine.list_jobs()] == [a]
            with pytest.raises(UnknownJobError):
                engine.status("job-9999")

    def test_result_timeout(self):
        with JobEngine(max_workers=1, autostart=False) as engine:
            a = engine.submit(small_job())
            with pytest.raises(TimeoutError):
                engine.result(a, timeout=0.05)

    def test_submit_after_close_raises(self):
        engine = JobEngine(max_workers=1)
        engine.close()
        from repro.service import EngineClosedError

        with pytest.raises(EngineClosedError):
            engine.submit(small_job())

    def test_stats_counters(self):
        with JobEngine(max_workers=2) as engine:
            ids = [engine.submit(job)
                   for job in (small_job(), small_job(steps=10))]
            assert engine.join(timeout=60)
            stats = engine.stats
        assert stats.submitted == 2 and stats.succeeded == 2
        assert sorted(stats.completed_order) == sorted(ids)
        assert any(s["event"] == "submit" for s in stats.queue_depth)
        assert set(stats.per_job_phases) == set(ids)


# ----------------------------------------------------------------------
# Priority scheduling
# ----------------------------------------------------------------------
class TestPriority:
    def test_dispatch_order_by_priority_then_fifo(self):
        with JobEngine(max_workers=1, autostart=False) as engine:
            low = engine.submit(small_job(steps=5, priority=0))
            high = engine.submit(small_job(steps=5, priority=5))
            mid1 = engine.submit(small_job(steps=5, priority=1))
            mid2 = engine.submit(small_job(steps=5, priority=1))
            engine.start()
            assert engine.join(timeout=120)
            assert engine.stats.started_order == [high, mid1, mid2, low]

    def test_higher_priority_arrival_preempts(self):
        with JobEngine(max_workers=1) as engine:
            slow = engine.submit(small_job(steps=400, priority=0))
            # wait until the low-priority job is provably running
            stream = engine.stream(slow, timeout=60)
            for _ in range(3):
                next(stream)
            urgent = engine.submit(small_job(steps=5, priority=10))
            r_urgent = engine.result(urgent, timeout=120)
            r_slow = engine.result(slow, timeout=120)
        assert r_urgent.ok and r_slow.ok
        assert r_slow.preemptions >= 1 and r_slow.segments >= 2
        order = engine.stats.completed_order
        assert order.index(urgent) < order.index(slow)

    def test_equal_priority_never_preempts(self):
        with JobEngine(max_workers=1) as engine:
            first = engine.submit(small_job(steps=60, priority=3))
            stream = engine.stream(first, timeout=60)
            next(stream)
            second = engine.submit(small_job(steps=5, priority=3))
            r1 = engine.result(first, timeout=120)
            engine.result(second, timeout=120)
        assert r1.preemptions == 0 and r1.segments == 1


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancel:
    def test_cancel_queued_job_never_runs(self):
        with JobEngine(max_workers=1, autostart=False) as engine:
            a = engine.submit(small_job())
            assert engine.cancel(a)
            engine.start()
            res = engine.result(a, timeout=30)
        assert res.state is JobState.CANCELLED
        assert res.steps_done == 0 and res.segments == 0
        assert not engine.cancel(a)  # terminal: no-op

    def test_cancel_running_job_keeps_partial_history(self):
        with JobEngine(max_workers=1) as engine:
            a = engine.submit(small_job(steps=400))
            stream = engine.stream(a, timeout=60)
            for _ in range(3):
                next(stream)
            assert engine.cancel(a)
            res = engine.result(a, timeout=60)
        assert res.state is JobState.CANCELLED
        assert 3 <= res.steps_done < 400
        assert len(res.history.times) == res.steps_done + 1

    def test_cancelled_job_does_not_block_others(self):
        with JobEngine(max_workers=1, autostart=False) as engine:
            a = engine.submit(small_job(steps=400))
            b = engine.submit(small_job(steps=10))
            engine.cancel(a)
            engine.start()
            rb = engine.result(b, timeout=60)
        assert rb.ok


# ----------------------------------------------------------------------
# Preemption / resume
# ----------------------------------------------------------------------
class TestPreemptResume:
    def test_preempt_then_resume_bitwise_equals_uninterrupted(self):
        """The headline guarantee: park/restore costs zero ULPs.

        The same job config runs once uninterrupted and once through
        the engine with two forced preemptions; the final particle
        phase space and grids must be bitwise identical (numpy
        backend), and the diagnostic history must match entry for
        entry.
        """
        job = small_job(steps=30, checkpoint_every=7)
        with job.build_simulation() as ref:
            ref.run(job.steps)
            with JobEngine(max_workers=1) as engine:
                jid = engine.submit(job)
                seen = 0
                for _ in engine.stream(jid, timeout=60):
                    seen += 1
                    if seen in (6, 14):  # park twice, mid-flight
                        engine.preempt(jid)
                res = engine.result(jid, timeout=120)

                assert res.ok
                assert res.segments >= 3 and res.preemptions >= 2
                assert np.array_equal(res.history.field_energy,
                                      ref.history.field_energy)
                assert np.array_equal(res.history.kinetic_energy,
                                      ref.history.kinetic_energy)

                # entry-for-entry identical series, same length
                assert len(res.history.times) == len(ref.history.times)

    def test_preempted_final_particles_bitwise(self, tmp_path):
        """Directly compare final particle arrays, not just the series.

        Exercises the exact park/restore path the engine uses
        (checkpoint at a step boundary, ``Simulation.from_stepper``
        with the accumulated history, run to the same target) against
        an uninterrupted run of the same job.
        """
        job = small_job(steps=24, checkpoint_every=5, case="two-stream")

        with job.build_simulation() as ref:
            ref.run(job.steps)
            ref_state = {
                "icell": np.array(ref.particles.icell),
                "dx": np.array(ref.particles.dx),
                "dy": np.array(ref.particles.dy),
                "vx": np.array(ref.particles.vx),
                "vy": np.array(ref.particles.vy),
                "rho": np.array(ref.stepper.rho_grid),
                "ex": np.array(ref.stepper.ex_grid),
            }

        from repro.core.checkpoint import load_checkpoint, save_checkpoint
        from repro.core.simulation import Simulation

        with job.build_simulation() as sim:
            sim.run(10)
            park = save_checkpoint(sim.stepper, tmp_path / "park.npz")
            hist = sim.history
        stepper = load_checkpoint(park, job.make_config())
        resumed = Simulation.from_stepper(stepper, history=hist)
        try:
            resumed.run(job.steps - 10)
            assert np.array_equal(resumed.particles.icell,
                                  ref_state["icell"])
            for attr in ("dx", "dy", "vx", "vy"):
                assert np.array_equal(
                    np.asarray(getattr(resumed.particles, attr)),
                    ref_state[attr]), attr
            assert np.array_equal(resumed.stepper.rho_grid, ref_state["rho"])
            assert np.array_equal(resumed.stepper.ex_grid, ref_state["ex"])
        finally:
            resumed.close()

    def test_preempt_non_running_is_noop(self):
        with JobEngine(max_workers=1, autostart=False) as engine:
            a = engine.submit(small_job())
            assert not engine.preempt(a)

    def test_shutdown_parks_running_job(self):
        engine = JobEngine(max_workers=1)
        a = engine.submit(small_job(steps=400))
        stream = engine.stream(a, timeout=60)
        for _ in range(2):
            next(stream)
        engine.close()
        info = engine.status(a)
        assert info.state is JobState.PREEMPTED
        assert 0 < info.steps_done < 400


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
class TestFailureIsolation:
    def test_crashed_job_fails_alone(self):
        """A permanently faulting job dies; its neighbours don't notice."""
        inj = FaultInjector().add_kernel_raise(step=3, once=False)
        with JobEngine(max_workers=2) as engine:
            bad = engine.submit(small_job(max_retries=1), injector=inj)
            good = engine.submit(small_job(case="two-stream", steps=15))
            r_bad = engine.result(bad, timeout=120)
            r_good = engine.result(good, timeout=120)
            # the engine survives and accepts new work
            again = engine.submit(small_job(steps=5))
            r_again = engine.result(again, timeout=60)
        assert r_bad.state is JobState.FAILED
        assert "permanent failure" in r_bad.error
        assert r_bad.supervisor["rollbacks"] >= 1
        assert r_good.ok and r_again.ok
        assert engine.stats.failed == 1 and engine.stats.succeeded == 2

    def test_transient_fault_recovers_and_succeeds(self):
        inj = FaultInjector(seed=3).add_nan(step=5, array="vx", count=4)
        with JobEngine(max_workers=1) as engine:
            a = engine.submit(small_job(), injector=inj)
            res = engine.result(a, timeout=120)
        assert res.ok
        assert res.supervisor["rollbacks"] >= 1
        assert res.timings["cumulative"]["rollbacks"] >= 1

    def test_unbuildable_job_fails_cleanly(self):
        # morton ordering requires power-of-two dims; 12x12 cannot build
        with JobEngine(max_workers=1) as engine:
            a = engine.submit(small_job(grid=(12, 12)))
            ok = engine.submit(small_job(steps=5))
            ra = engine.result(a, timeout=60)
            rok = engine.result(ok, timeout=60)
        assert ra.state is JobState.FAILED and ra.error
        assert rok.ok


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------
class TestStreaming:
    def test_stream_covers_every_step(self):
        with JobEngine(max_workers=1) as engine:
            a = engine.submit(small_job(steps=12))
            events = list(engine.stream(a, timeout=60))
        steps = [e["step"] for e in events]
        assert set(steps) == set(range(1, 13))  # at-least-once per step
        for key in ("t", "field_energy", "kinetic_energy",
                    "mode_amplitude", "phase_seconds", "segment"):
            assert key in events[0]

    def test_stream_after_completion_replays_then_ends(self):
        with JobEngine(max_workers=1) as engine:
            a = engine.submit(small_job(steps=8))
            engine.result(a, timeout=60)
            events = list(engine.stream(a))
        assert len(events) >= 8


# ----------------------------------------------------------------------
# The scenario zoo, served: walls, Boris and the drive ride the
# checkpoint metadata through park, resume and recovery
# ----------------------------------------------------------------------
ZOO_FLAGS = ["--grid", "16", "16", "--particles", "1500", "--steps", "120",
             "--dt", "0.05", "--backend", "numpy", "--checkpoint-every", "25"]


def job_of_run_command(case: str) -> PICJob:
    """The PICJob ``repro run --case <case> ZOO_FLAGS`` steps."""
    from repro.cli import _job_from_args, build_parser

    args = build_parser().parse_args(["run", "--case", case, *ZOO_FLAGS])
    return _job_from_args(args)


@pytest.fixture
def final_digests(monkeypatch):
    """``{iteration: state_digest}`` of every simulation closed while
    the fixture is live — the engine closes a job's simulation itself,
    so this is where its final particle and grid bits can be read."""
    from repro.core.simulation import Simulation
    from repro.verify.golden import state_digest

    seen = {}
    close = Simulation.close

    def recording_close(sim):
        if not sim._closed:
            seen[sim.stepper.iteration] = state_digest(sim.stepper)
        close(sim)

    monkeypatch.setattr(Simulation, "close", recording_close)
    return seen


class TestZooThroughTheService:
    @pytest.mark.parametrize("case", ["exb-drift", "bounded-wall"])
    def test_preempted_zoo_job_equals_repro_run(self, case, final_digests):
        job = job_of_run_command(case)
        assert job == small_job(case=case, steps=120, checkpoint_every=25)
        with job.build_simulation() as ref:  # what `repro run` steps
            ref.run(job.steps)
        want = final_digests.pop(job.steps)

        with JobEngine(max_workers=1) as engine:
            jid = engine.submit(job)
            for event in engine.stream(jid, timeout=60):
                if event["step"] == 11:
                    assert engine.preempt(jid)
            res = engine.result(jid, timeout=120)
        assert res.ok and res.preemptions == 1 and res.segments == 2
        assert res.history.as_dict() == ref.history.as_dict()
        assert final_digests[job.steps] == want
        # the parked segment really ended mid-run, on a zoo stepper
        assert any(0 < it < job.steps for it in final_digests)

    def test_parked_zoo_job_recovers_bitwise(self, tmp_path, final_digests):
        job = small_job(case="bounded-wall", steps=400, checkpoint_every=25)
        with job.build_simulation() as ref:
            ref.run(job.steps)
        want = final_digests.pop(job.steps)

        with JobEngine(max_workers=1, data_dir=tmp_path) as engine:
            jid = engine.submit(job)
            for event in engine.stream(jid, timeout=60):
                if event["step"] >= job.checkpoint_every:
                    break
        assert engine.status(jid).state is JobState.PREEMPTED  # parked

        with JobEngine.recover(tmp_path, max_workers=1) as engine:
            res = engine.result(jid, timeout=120)
            assert engine.stats.recovered == 1 and engine.stats.resumes == 1
        assert res.ok
        assert res.history.as_dict() == ref.history.as_dict()
        assert final_digests[job.steps] == want


class TestDefaultBackend:
    """A job that names no backend runs ``auto``: ``c`` where it builds,
    ``numpy`` where it does not — the same bits either way."""

    @staticmethod
    def default_job() -> PICJob:
        job = dataclasses.replace(small_job(), backend=PICJob.backend)
        assert job.backend == "auto"
        return job

    @staticmethod
    def served(job: PICJob, final_digests):
        with JobEngine(max_workers=1) as engine:
            res = engine.result(engine.submit(job), timeout=60)
        assert res.ok
        return res, final_digests.pop(job.steps)

    def test_default_job_runs_on_c(self, final_digests):
        if not CBackend.is_available():
            pytest.skip("no C compiler")
        res, _ = self.served(self.default_job(), final_digests)
        assert res.supervisor["backend_history"] == ["c"]

    def test_default_job_bitwise_equals_numpy(self, final_digests):
        job = self.default_job()
        res, digest = self.served(job, final_digests)
        ref, want = self.served(dataclasses.replace(job, backend="numpy"),
                                final_digests)
        assert ref.supervisor["backend_history"] == ["numpy"]
        assert res.history.as_dict() == ref.history.as_dict()
        assert digest == want

    def test_default_job_without_a_compiler_runs_numpy(self, monkeypatch,
                                                       final_digests):
        monkeypatch.setattr(CBackend, "is_available",
                            classmethod(lambda cls: False))
        res, _ = self.served(self.default_job(), final_digests)
        assert res.supervisor["backend_history"] == ["numpy"]


# ----------------------------------------------------------------------
# Resource hygiene
# ----------------------------------------------------------------------
class TestResourceHygiene:
    def test_no_dev_shm_leak_after_engine_shutdown(self):
        """An mp-backed job's arena dies with the engine, not the
        interpreter (the chaos gate's leak scan, engine edition)."""
        before = shm_entries()
        with JobEngine(max_workers=1) as engine:
            a = engine.submit(small_job(
                backend="numpy-mp", workers=2, steps=6, n_particles=1200,
            ))
            res = engine.result(a, timeout=180)
        assert res.ok
        assert shm_entries() == before

    def test_data_dir_checkpoints_cleaned_for_finished_jobs(self, tmp_path):
        data = tmp_path / "engine-data"
        with JobEngine(max_workers=1, data_dir=data) as engine:
            a = engine.submit(small_job(steps=10))
            engine.result(a, timeout=60)
            assert not (data / a).exists()  # settled job's rotation removed
        assert data.exists()  # caller-owned dir survives close
