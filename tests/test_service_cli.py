"""Tests for the service front-ends: the spool protocol, the
``repro serve`` / ``repro submit`` CLI pair, and the link-checker's
anchor validation (the docs half of the service PR)."""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time

import pytest

from repro.cli import build_parser, main
from repro.service import (
    PICJob,
    gc_spool,
    read_result,
    serve_spool,
    submit_to_spool,
    wait_for_result,
    write_json_atomic,
)
from repro.service import spool as spool_mod
from repro.service.spool import spool_dirs, wake_server
from tests.conftest import load_tool

REPO = pathlib.Path(__file__).resolve().parent.parent


def fast_args(**overrides):
    base = dict(grid=(16, 16), n_particles=1500, steps=12, backend="numpy")
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# Spool protocol
# ----------------------------------------------------------------------
class TestSpool:
    def test_round_trip(self, tmp_path):
        spool = tmp_path / "spool"
        a = submit_to_spool(spool, PICJob(**fast_args()))
        b = submit_to_spool(spool, PICJob(**fast_args(case="two-stream",
                                                      priority=4)))
        assert read_result(spool, a) is None
        settled = serve_spool(spool, max_workers=2, drain=True, poll=0.05)
        assert settled == 2
        doc_a = read_result(spool, a)
        doc_b = read_result(spool, b)
        assert doc_a["state"] == "succeeded" and doc_b["state"] == "succeeded"
        assert doc_a["steps_done"] == 12
        assert doc_a["energy_drift"] is not None
        assert len(doc_a["series"]["times"]) == 13
        assert "timings" in doc_a and "engine" in doc_a
        # spool hygiene: queue and claimed both drained
        assert not list((spool / "queue").glob("*.json"))
        assert not list((spool / "claimed").glob("*.json"))

    def test_wait_for_result_timeout(self, tmp_path):
        spool = tmp_path / "spool"
        jid = submit_to_spool(spool, PICJob(**fast_args()))
        with pytest.raises(TimeoutError):
            wait_for_result(spool, jid, timeout=0.2, poll=0.05)

    def test_unparsable_document_rejected_not_fatal(self, tmp_path):
        spool = tmp_path / "spool"
        good = submit_to_spool(spool, PICJob(**fast_args(steps=6)))
        (spool / "queue" / "garbage.json").write_text("{not json")
        (spool / "queue" / "badjob.json").write_text(
            json.dumps({"id": "badjob", "job": {"case": "nope"}}))
        settled = serve_spool(spool, max_workers=1, drain=True, poll=0.05)
        assert settled == 1
        assert read_result(spool, good)["state"] == "succeeded"
        rejected = {p.name for p in (spool / "claimed").glob("*.rejected")}
        assert rejected == {"garbage.rejected", "badjob.rejected"}

    def test_document_with_a_retired_loop_mode_runs(self, tmp_path):
        """An older ``repro submit`` wrote the job's ``loop_mode``; a
        queued document carrying one — ``"fused"`` included — is claimed
        and run, not quarantined as ``*.rejected``."""
        spool = tmp_path / "spool"
        jid = submit_to_spool(spool, PICJob(**fast_args(steps=6)))
        path = spool / "queue" / f"{jid}.json"
        doc = json.loads(path.read_text())
        doc["job"]["loop_mode"] = "fused"
        write_json_atomic(path, doc)
        assert serve_spool(spool, max_workers=1, drain=True, poll=0.05) == 1
        assert read_result(spool, jid)["state"] == "succeeded"
        assert not list((spool / "claimed").glob("*.rejected"))

    def test_failed_job_settles_with_error(self, tmp_path):
        spool = tmp_path / "spool"
        # 12x12 cannot build a Morton ordering: permanent build failure
        jid = submit_to_spool(spool, PICJob(**fast_args(grid=(12, 12))))
        serve_spool(spool, max_workers=1, drain=True, poll=0.05)
        doc = read_result(spool, jid)
        assert doc["state"] == "failed"
        assert doc["error"]

    def test_max_jobs_limits_claims(self, tmp_path):
        spool = tmp_path / "spool"
        for _ in range(3):
            submit_to_spool(spool, PICJob(**fast_args(steps=5)))
        settled = serve_spool(spool, max_workers=1, drain=True,
                              max_jobs=2, poll=0.05)
        assert settled == 2
        assert len(list((spool / "queue").glob("*.json"))) == 1


# ----------------------------------------------------------------------
# Wake-ups: the event path, and the poll timeout it degrades to
# ----------------------------------------------------------------------
@contextlib.contextmanager
def running_server(spool, **kwargs):
    """``serve_spool`` on a thread, started and (on exit) stopped;
    yields a dict that holds ``settled`` and ``stats`` afterwards."""
    stop = threading.Event()
    out = {"stats": {}}

    def serve():
        out["settled"] = serve_spool(spool, stop=stop.is_set,
                                     stats=out["stats"], **kwargs)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield out
    finally:
        stop.set()
        wake_server(spool)
        thread.join(timeout=60)
        assert not thread.is_alive()


def wait_until_idle(spool):
    """Return once the server is past its first turn, blocked in a wait."""
    deadline = time.monotonic() + 30
    while not (pathlib.Path(spool) / "wake").exists():
        assert time.monotonic() < deadline, "server never opened its FIFO"
        time.sleep(0.01)
    time.sleep(0.3)


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestWakeups:
    def test_idle_server_settles_a_job_without_waiting_for_the_poll(
            self, tmp_path):
        with running_server(tmp_path, poll=5.0) as server:
            wait_until_idle(tmp_path)
            t0 = time.monotonic()
            jid = submit_to_spool(tmp_path, PICJob(**fast_args()))
            doc = wait_for_result(tmp_path, jid, timeout=30, poll=5.0)
            assert time.monotonic() - t0 < 2.0
        stamps = doc["spool"]
        assert stamps["woke_by"] != "poll"
        assert (stamps["submitted_at"] <= stamps["claimed_at"]
                <= stamps["settled_at"])
        wakes = server["stats"]["wakes"]
        assert wakes["nudge"] >= 1 and wakes["engine"] >= 1

    @pytest.mark.parametrize("lose", ["nudges", "fifo"])
    def test_lost_wakeups_fall_back_to_the_poll(self, tmp_path, monkeypatch,
                                                lose):
        if lose == "nudges":
            monkeypatch.setattr(spool_mod, "_nudge", lambda fifo: None)
        with running_server(tmp_path, poll=0.05):
            wait_until_idle(tmp_path)
            if lose == "fifo":
                (tmp_path / "wake").unlink()
            ids = [submit_to_spool(tmp_path, PICJob(**fast_args(steps=5)))
                   for _ in range(3)]
            for jid in ids:
                doc = wait_for_result(tmp_path, jid, timeout=30, poll=0.05)
                assert doc["state"] == "succeeded"

    def test_orphaned_fifo_never_blocks_a_submitter(self, tmp_path):
        spool_dirs(tmp_path)
        os.mkfifo(tmp_path / "wake")  # what a SIGKILLed server leaves
        t0 = time.monotonic()
        jid = submit_to_spool(tmp_path, PICJob(**fast_args(steps=5)))
        assert time.monotonic() - t0 < 0.05
        # the next server finds the job on its first turn, not a poll later
        t0 = time.monotonic()
        assert serve_spool(tmp_path, max_workers=1, drain=True,
                           poll=5.0) == 1
        assert time.monotonic() - t0 < 4.0
        assert read_result(tmp_path, jid)["state"] == "succeeded"

    def test_burst_costs_leases_per_job_not_per_wakeup(self, tmp_path):
        n = 20  # one worker: every job's settling is a turn of its own
        with running_server(tmp_path, poll=2.0, max_workers=1) as server:
            wait_until_idle(tmp_path)
            ids = [submit_to_spool(tmp_path, PICJob(**fast_args(steps=30)))
                   for _ in range(n)]
            for jid in ids:
                doc = wait_for_result(tmp_path, jid, timeout=60, poll=2.0)
                assert doc["state"] == "succeeded"
        assert server["settled"] == n
        # one lease per claim plus a heartbeat per live claim per poll
        # period; a heartbeat per turn would write n + ~n*n/2 (251 here)
        assert n <= server["stats"]["lease_writes"] <= 3 * n

    def test_two_servers_on_one_spool_claim_each_job_once(self, tmp_path):
        ids = {submit_to_spool(tmp_path, PICJob(**fast_args(steps=5)))
               for _ in range(6)}
        seen, counts = [], []

        def serve():
            counts.append(serve_spool(
                tmp_path, max_workers=1, drain=True, poll=0.05,
                on_settle=lambda job_id, doc: seen.append(job_id)))

        threads = [threading.Thread(target=serve) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert sorted(seen) == sorted(ids) and sum(counts) == len(ids)

    def test_idle_server_writes_nothing_and_scans_once_per_poll(
            self, tmp_path, monkeypatch):
        calls = {"claim": 0, "sweep": 0, "write": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spool_mod, "_claim",
                            counting("claim", spool_mod._claim))
        monkeypatch.setattr(spool_mod, "reclaim_stale",
                            counting("sweep", spool_mod.reclaim_stale))
        monkeypatch.setattr(spool_mod, "write_json_atomic",
                            counting("write", spool_mod.write_json_atomic))
        with running_server(tmp_path, poll=0.2):
            time.sleep(1.0)
        assert calls["write"] == 0
        assert 2 <= calls["claim"] <= 8 and calls["sweep"] <= 8

    def test_serve_and_wait_leave_no_fds_and_no_fifos(self, tmp_path):
        _, _, results = spool_dirs(tmp_path)
        before = open_fds()
        jid = submit_to_spool(tmp_path, PICJob(**fast_args(steps=5)))
        assert serve_spool(tmp_path, max_workers=1, drain=True,
                           poll=0.05) == 1
        wait_for_result(tmp_path, jid, timeout=5)
        with pytest.raises(TimeoutError):
            wait_for_result(tmp_path, "never", timeout=0.1, poll=0.05)
        assert open_fds() == before
        assert not list(results.glob("*.wait"))

    def test_waiter_wakes_on_the_servers_nudge(self, tmp_path):
        _, _, results = spool_dirs(tmp_path)

        def settle():
            time.sleep(0.2)
            write_json_atomic(results / "late.json", {"state": "succeeded"})
            spool_mod._nudge(results / "late.wait")

        t = threading.Thread(target=settle)
        t.start()
        t0 = time.monotonic()
        try:
            doc = wait_for_result(tmp_path, "late", timeout=30, poll=5.0)
        finally:
            t.join()
        assert doc["state"] == "succeeded" and time.monotonic() - t0 < 2.0

    def test_wait_reads_once_more_at_the_deadline(self, tmp_path):
        """A result that lands during the last wait (no nudge) is
        returned, and the deadline is not overshot by a poll period."""
        _, _, results = spool_dirs(tmp_path)
        t = threading.Timer(0.1, write_json_atomic,
                            (results / "quiet.json", {"state": "succeeded"}))
        t.start()
        t0 = time.monotonic()
        try:
            doc = wait_for_result(tmp_path, "quiet", timeout=0.4, poll=5.0)
        finally:
            t.join()
        assert doc["state"] == "succeeded" and time.monotonic() - t0 < 2.0

    def test_gc_collects_an_orphaned_wait_fifo(self, tmp_path):
        _, _, results = spool_dirs(tmp_path)
        for name, age in (("dead.wait", 3600), ("live.wait", 0)):
            os.mkfifo(results / name)
            stamp = time.time() - age
            os.utime(results / name, (stamp, stamp))
        assert gc_spool(tmp_path, 60.0) == 1
        assert [p.name for p in results.iterdir()] == ["live.wait"]


# ----------------------------------------------------------------------
# CLI: parsing and end-to-end
# ----------------------------------------------------------------------
class TestServiceCLI:
    def test_parser_accepts_serve_and_submit(self):
        p = build_parser()
        a = p.parse_args(["serve", "--spool", "/tmp/x", "--drain",
                          "--max-workers", "3", "--max-jobs", "5"])
        assert a.command == "serve" and a.max_workers == 3 and a.drain
        b = p.parse_args(["submit", "--spool", "/tmp/x", "--case",
                          "two-stream", "--priority", "7", "--wait",
                          "--timeout", "30"])
        assert b.command == "submit" and b.priority == 7 and b.wait

    def test_submit_then_serve_then_wait(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        rc = main(["submit", "--spool", spool, "--case", "landau",
                   "--grid", "16", "16", "--particles", "1500",
                   "--steps", "10", "--job-id", "cli-a"])
        assert rc == 0
        assert "submitted cli-a" in capsys.readouterr().out
        rc = main(["serve", "--spool", spool, "--max-workers", "1",
                   "--drain", "--poll", "0.05"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "settled cli-a: succeeded 10/10" in out
        assert "served 1 job(s) (wakes: nudge " in out
        # --wait on an already-settled job returns its summary
        rc = main(["submit", "--spool", spool, "--job-id", "cli-a",
                   "--wait", "--timeout", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "result   : succeeded" in out
        assert "latency  : " in out and " / settle " in out

    def test_submit_wait_settles_a_zoo_case_on_a_live_server(self, tmp_path,
                                                            capsys):
        """`submit --help` always listed the zoo; until the job and the
        CLI shared one case table the submission exited 2."""
        spool = str(tmp_path / "spool")
        with running_server(spool, max_workers=1, poll=0.05) as server:
            rc = main(["submit", "--spool", spool, "--case", "exb-drift",
                       "--grid", "16", "16", "--particles", "1500",
                       "--steps", "10", "--job-id", "zoo", "--wait",
                       "--timeout", "60"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "submitted zoo: exb-drift 16x16" in out
        assert "result   : succeeded (10/10 steps" in out
        assert server["settled"] == 1
        assert read_result(spool, "zoo")["state"] == "succeeded"

    def test_wait_reads_a_result_without_the_spool_block(self, tmp_path,
                                                         capsys):
        """What a server from before the wake-ups wrote."""
        _, _, results = spool_dirs(tmp_path)
        write_json_atomic(results / "old.json", {
            "id": "old", "state": "succeeded", "steps_done": 5,
            "steps_total": 5, "preemptions": 0, "segments": 1,
            "energy_drift": 1e-4, "engine": {"run_seconds": 0.1}})
        rc = main(["submit", "--spool", str(tmp_path), "--job-id", "old",
                   "--wait", "--timeout", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "result   : succeeded" in out and "latency" not in out

    def test_submit_validation_error_is_exit_2(self, tmp_path, capsys):
        rc = main(["submit", "--spool", str(tmp_path / "s"),
                   "--steps", "0"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_parser_accepts_durability_flags(self):
        p = build_parser()
        a = p.parse_args(["serve", "--spool", "/tmp/x", "--recover",
                          "--data-dir", "/tmp/d", "--lease-ttl", "5",
                          "--owner", "me", "--gc-older-than", "2h",
                          "--gc-every", "10"])
        assert a.recover and a.lease_ttl == 5.0 and a.owner == "me"
        assert a.gc_older_than == "2h" and a.gc_every == 10
        b = p.parse_args(["submit", "--spool", "/tmp/x",
                          "--deadline", "30", "--retry-backoff", "0.5",
                          "--max-retries", "5"])
        assert b.deadline == 30.0 and b.retry_backoff == 0.5
        assert b.max_retries == 5
        c = p.parse_args(["spool", "gc", "--spool", "/tmp/x",
                          "--older-than", "1d"])
        assert c.command == "spool" and c.spool_command == "gc"
        assert c.older_than == "1d"

    def test_serve_recover_without_data_dir_is_exit_2(self, tmp_path,
                                                      capsys):
        rc = main(["serve", "--spool", str(tmp_path / "s"), "--recover",
                   "--drain"])
        assert rc == 2
        assert "data-dir" in capsys.readouterr().err

    def test_spool_gc_end_to_end(self, tmp_path, capsys):
        import os
        import time as _time

        from repro.service import write_json_atomic
        from repro.service.spool import spool_dirs

        _, _, results = spool_dirs(tmp_path)
        write_json_atomic(results / "old.json", {"state": "succeeded"})
        stamp = _time.time() - 7200
        os.utime(results / "old.json", (stamp, stamp))
        write_json_atomic(results / "new.json", {"state": "succeeded"})
        rc = main(["spool", "gc", "--spool", str(tmp_path),
                   "--older-than", "1h"])
        assert rc == 0
        assert "removed 1" in capsys.readouterr().out
        assert not (results / "old.json").exists()
        assert (results / "new.json").exists()

    def test_spool_gc_bad_age_is_exit_2(self, tmp_path, capsys):
        rc = main(["spool", "gc", "--spool", str(tmp_path),
                   "--older-than", "whenever"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# check_links: anchor-fragment validation
# ----------------------------------------------------------------------
class TestCheckLinksAnchors:
    @pytest.fixture(scope="class")
    def cl(self):
        return load_tool("check_links")

    def test_duplicate_heading_suffixes(self, cl):
        slugs = cl.slug_sequence(["Knobs", "Other", "Knobs", "Knobs"])
        assert slugs == {"knobs", "other", "knobs-1", "knobs-2"}

    def test_anchor_checking_end_to_end(self, cl, tmp_path, monkeypatch):
        page = tmp_path / "page.md"
        page.write_text(
            "# Title\n## Knobs\n## Knobs\n"
            "[ok](#knobs)\n[ok2](#knobs-1)\n[bad](#knobs-2)\n"
            "[ok3](other.md#there)\n[bad2](other.md#missing)\n"
        )
        (tmp_path / "other.md").write_text("# There\n")
        monkeypatch.setattr(cl, "REPO", tmp_path)
        errors = cl.check_file(page)
        assert len(errors) == 2
        assert any("#knobs-2" in e for e in errors)
        assert any("#missing" in e for e in errors)

    def test_code_fences_ignored(self, cl, tmp_path, monkeypatch):
        page = tmp_path / "page.md"
        page.write_text(
            "# Title\n```md\n[fake](#nowhere)\n## Fake Heading\n```\n"
            "[real](#title)\n")
        monkeypatch.setattr(cl, "REPO", tmp_path)
        assert cl.check_file(page) == []

    def test_repo_docs_have_no_broken_links(self, cl):
        """The committed docs must pass the checker (mirrors
        ``make docs-check`` so the failure shows up in pytest too)."""
        errors = []
        for pattern in cl.DOC_GLOBS:
            for path in sorted(cl.REPO.glob(pattern)):
                errors.extend(cl.check_file(path))
        assert errors == []
