"""File-spool front-end: how ``repro submit`` talks to ``repro serve``.

The service layer's process boundary is a plain directory — no
sockets, no daemons to misconfigure, works over any shared
filesystem.  Layout::

    <spool>/
      wake                             FIFO: submitters nudge the server
      queue/     job-*.json            submitted, not yet claimed
      claimed/   job-*.json            claimed by a serving engine
                 job-*.json.lease      claim ownership + heartbeat
                 *.rejected            quarantined unparsable documents
                 *.rejected.json       forensics sidecar (error + time)
      results/   job-*.json            terminal outcome (summary record)
                 job-*.wait            FIFO: the server nudges a waiter

``repro submit`` writes a job document into ``queue/`` atomically
(tmp + fsync + rename, the checkpoint module's crash-safety idiom — a
reader never sees a torn document).  ``repro serve`` runs a
:class:`~repro.service.engine.JobEngine`, scans ``queue/``, claims
documents by renaming them into ``claimed/`` (an atomic rename: two
servers on one spool never double-claim a job), and writes each
job's :meth:`~repro.service.job.JobResult.summary` into ``results/``
when it settles.  ``repro submit --wait`` reads ``results/``.

Nobody waits on a timer (wake-ups)
----------------------------------
Server and waiter each block in one ``poll(2)`` whose timeout is the
``poll`` period, and are woken early by a byte: the submitter writes
one into ``<spool>/wake`` after its rename, the engine writes one into
the server's self-pipe the moment a job turns terminal, and the server
writes one into ``results/<id>.wait`` after the result's rename.  The
byte carries nothing — the directories stay the only truth, every
nudge is non-blocking and best-effort (:func:`_nudge`), and a nudge
that is lost, a filesystem without FIFOs, a second server draining the
same FIFO or a submitter on another host all leave the timeout, which
is exactly the polling protocol this grew out of.

Crash tolerance (the at-least-once contract)
--------------------------------------------
Every claim carries a ``*.lease`` sidecar naming its owner, rewritten
(heartbeat) every ``poll`` seconds.  A server that dies — SIGKILL
included — stops heartbeating, and *any* server sweeping the spool
moves claims whose lease is stale past ``lease_ttl`` back into
``queue/`` (:func:`reclaim_stale`), so the job is re-run elsewhere.
Execution is therefore **at-least-once**; results stay effectively
exactly-once because result writes are atomic and a server that finds
a result already settled by someone else skips its own write (the
physics is deterministic, so both copies would be bitwise identical
anyway).  The same server restarted with ``--recover`` instead
*adopts* its old claims (re-leases them under its new identity) and
resumes the jobs from their journal + checkpoints — see
:meth:`~repro.service.engine.JobEngine.recover`.

Job documents are ``{"job": <PICJob.as_dict()>, "id": ...,
"submitted_at": ...}``; result documents are the summary dict plus the
full diagnostic series and a ``spool`` block (``submitted_at``,
``claimed_at``, ``settled_at`` wall-clock stamps and ``woke_by``, what
ended the server's wait before it settled the job).
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import pathlib
import select
import time
import uuid

from repro.service.engine import JobEngine
from repro.service.job import PICJob
from repro.service.journal import read_json_tolerant, write_json_atomic

__all__ = ["submit_to_spool", "read_result", "wait_for_result",
           "serve_spool", "spool_dirs", "reclaim_stale", "gc_spool",
           "parse_age", "wake_server"]

logger = logging.getLogger("repro.service")

#: test hook (see :func:`repro.resilience.faultinject.lease_clock_skew`):
#: seconds added to this process's view of the lease clock
_CLOCK_SKEW = 0.0

#: default seconds without a heartbeat before a claim is reclaimable
DEFAULT_LEASE_TTL = 30.0


def _lease_now() -> float:
    """The lease clock: wall time plus the (test-only) skew."""
    return time.time() + _CLOCK_SKEW


def spool_dirs(spool) -> tuple[pathlib.Path, pathlib.Path, pathlib.Path]:
    """Ensure and return the spool's (queue, claimed, results) dirs."""
    root = pathlib.Path(spool)
    dirs = (root / "queue", root / "claimed", root / "results")
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    return dirs


def default_owner() -> str:
    """A unique identity for one serving process (host-pid-nonce)."""
    import socket

    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:6]}")


# ----------------------------------------------------------------------
# Wake-ups
# ----------------------------------------------------------------------
def _nudge(fifo: pathlib.Path) -> None:
    """Wake whoever blocks on ``fifo`` with one byte; never blocks.

    No FIFO (``ENOENT``), nobody holding it open (``ENXIO`` — a
    SIGKILLed server leaves one behind) or a full buffer (``EAGAIN``:
    a wake-up is pending already) all mean there is nothing to do: the
    other side's ``poll`` timeout finds the work regardless.
    """
    with contextlib.suppress(OSError):
        fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        try:
            os.write(fd, b"\0")
        finally:
            os.close(fd)


def wake_server(spool) -> None:
    """End the current wait of the server(s) on ``spool`` early."""
    _nudge(pathlib.Path(spool) / "wake")


def _open_fifo(path: pathlib.Path) -> int | None:
    """Create (if missing) and open the reading side of a wake FIFO.

    ``O_RDWR`` keeps a writer on it, so the open never blocks and a
    departing nudger never reads as end-of-file.  ``None`` where the
    filesystem has no FIFOs: the timeout alone paces the wait then.
    """
    try:
        with contextlib.suppress(FileExistsError):
            os.mkfifo(path)
        return os.open(path, os.O_RDWR | os.O_NONBLOCK)
    except OSError:
        return None


def _wait_readable(fds, timeout: float) -> list[int]:
    """Block until one of the non-blocking ``fds`` has bytes or
    ``timeout`` seconds pass; returns the ones that had, emptied — so
    a burst of nudges is one wake-up, not one per byte."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    ready = [fd for fd, _ in poller.poll(1e3 * max(0.0, timeout))]
    for fd in ready:
        with contextlib.suppress(BlockingIOError):
            while os.read(fd, 4096):
                pass
    return ready


def submit_to_spool(spool, job: PICJob, *, job_id: str | None = None) -> str:
    """Write a job document into the spool's queue and nudge the
    server; returns the job's id."""
    queue, _, _ = spool_dirs(spool)
    if job_id is None:
        job_id = f"job-{uuid.uuid4().hex[:12]}"
    doc = {"id": job_id, "job": job.as_dict(), "submitted_at": time.time()}
    write_json_atomic(queue / f"{job_id}.json", doc)
    wake_server(spool)
    return job_id


def read_result(spool, job_id: str) -> dict | None:
    """The result document for ``job_id``, or ``None`` if not settled.

    Torn or unreadable documents also return ``None`` — only possible
    for writers bypassing the atomic idiom, and indistinguishable from
    "not settled yet" to a poller, which is the safe interpretation.
    """
    _, _, results = spool_dirs(spool)
    return read_json_tolerant(results / f"{job_id}.json")


def wait_for_result(spool, job_id: str, *, timeout: float | None = None,
                    poll: float = 0.2) -> dict:
    """Block until the job's result document exists and return it;
    raises :class:`TimeoutError` after ``timeout`` seconds.

    The wait is on a ``results/<id>.wait`` FIFO the server nudges
    right after the result's rename; ``poll`` is only its timeout (the
    re-read period when no nudge arrives).  The FIFO exists before the
    first read — a result landing in between is found by that read —
    and is unlinked on every way out.
    """
    _, _, results = spool_dirs(spool)
    fifo = results / f"{job_id}.wait"
    deadline = None if timeout is None else time.monotonic() + timeout
    fd = _open_fifo(fifo)
    try:
        while True:
            doc = read_result(spool, job_id)
            if doc is not None:
                return doc
            wait = poll
            if deadline is not None:
                wait = min(poll, deadline - time.monotonic())
                if wait <= 0:
                    raise TimeoutError(
                        f"no result for {job_id} after {timeout}s")
            _wait_readable(() if fd is None else (fd,), wait)
    finally:
        if fd is not None:
            os.close(fd)
        fifo.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
def _lease_path(claim: pathlib.Path) -> pathlib.Path:
    return claim.with_name(claim.name + ".lease")


def _write_lease(claim: pathlib.Path, owner: str) -> None:
    """(Re)assert ownership of a claim — the heartbeat."""
    write_json_atomic(_lease_path(claim), {
        "owner": owner, "ts": _lease_now(), "pid": os.getpid(),
    })


def _lease_age(claim: pathlib.Path) -> tuple[float, str | None]:
    """Seconds since the claim's last heartbeat, and its owner.

    Falls back to the claim file's mtime when the lease sidecar is
    missing or unreadable (a pre-lease claim, or a server killed
    between the rename and the lease write) — the claim is still
    reclaimable, just on the coarser clock.
    """
    lease = read_json_tolerant(_lease_path(claim))
    if lease is not None and isinstance(lease.get("ts"), (int, float)):
        return _lease_now() - float(lease["ts"]), lease.get("owner")
    try:
        return _lease_now() - claim.stat().st_mtime, None
    except OSError:
        return 0.0, None  # claim vanished mid-scan: nothing to reclaim


def _claim_docs(claimed: pathlib.Path) -> list[pathlib.Path]:
    """Claimed job documents (excluding forensics sidecars)."""
    return sorted(p for p in claimed.glob("*.json")
                  if not p.name.endswith(".rejected.json"))


def reclaim_stale(queue: pathlib.Path, claimed: pathlib.Path, *,
                  owner: str, lease_ttl: float = DEFAULT_LEASE_TTL,
                  ) -> list[str]:
    """Move claims with stale leases back into ``queue/``.

    A claim is stale when its lease heartbeat (or, lacking a lease,
    the claim file's mtime) is older than ``lease_ttl`` seconds and it
    is not owned by ``owner``.  Returns the reclaimed document names.
    The move is the same atomic rename as claiming, so two sweepers
    racing on one stale claim cannot duplicate it.
    """
    reclaimed = []
    for claim in _claim_docs(claimed):
        age, lease_owner = _lease_age(claim)
        if lease_owner == owner or age <= lease_ttl:
            continue
        try:
            os.replace(claim, queue / claim.name)
        except OSError:
            continue  # another sweeper won the race
        _lease_path(claim).unlink(missing_ok=True)
        reclaimed.append(claim.name)
    return reclaimed


# ----------------------------------------------------------------------
# Claiming
# ----------------------------------------------------------------------
def _claim(queue: pathlib.Path, claimed: pathlib.Path,
           limit: int | None = None, *, owner: str | None = None,
           ) -> list[dict]:
    """Atomically claim up to ``limit`` queued documents (all when
    ``None``); returns the parsed docs.

    Each parsed doc carries its job id under ``"id"``, the parsed job
    under ``"job"`` and the claimed file's path under ``"path"`` (the
    file name is the submitter's choice and may differ from the inner
    id — settling must unlink the actual file).  When ``owner`` is
    set, a lease sidecar is written for every successful claim.

    Unparsable documents are renamed to ``*.rejected`` in place with a
    ``*.rejected.json`` forensics sidecar (exception text + timestamp)
    rather than crashing the server or being retried forever.
    Documents beyond ``limit`` are left in ``queue/`` for another
    server.
    """
    docs = []
    for path in sorted(queue.glob("*.json")):
        if path.name.endswith(".rejected.json"):
            continue  # a forensics sidecar someone moved; not a job
        if limit is not None and len(docs) >= limit:
            break
        target = claimed / path.name
        try:
            os.replace(path, target)  # atomic claim: losers skip
        except OSError:
            continue
        try:
            doc = json.loads(target.read_text(encoding="utf-8"))
            doc["job"] = PICJob.from_dict(doc["job"])
            if "id" not in doc:
                raise KeyError("id")
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            logger.warning("rejecting unparsable job document %s: %s",
                           target.name, exc)
            rejected = target.with_suffix(".rejected")
            os.replace(target, rejected)
            write_json_atomic(rejected.with_name(rejected.name + ".json"), {
                "name": target.name,
                "error": str(exc),
                "error_type": type(exc).__name__,
                "ts": time.time(),
            })
            continue
        doc["path"] = target
        if owner is not None:
            _write_lease(target, owner)
        docs.append(doc)
    return docs


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
def parse_age(text: str) -> float:
    """``"90"``/``"30s"``/``"5m"``/``"2h"``/``"1d"`` → seconds."""
    text = str(text).strip().lower()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    factor = 1.0
    if text and text[-1] in units:
        factor = units[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unparsable age {text!r} "
                         "(want e.g. 90, 30s, 5m, 2h, 1d)") from None
    if value < 0:
        raise ValueError("age must be >= 0")
    return value * factor


def gc_spool(spool, older_than_s: float, *, now: float | None = None) -> int:
    """Remove settled/quarantined spool litter older than a cutoff.

    Collects result documents and ``*.wait`` FIFOs (a SIGKILLed
    waiter's orphan) in ``results/`` and rejected documents (plus
    their forensics sidecars) in ``claimed/`` whose mtime is more
    than ``older_than_s`` seconds before ``now``.  Queued and
    claimed *job* documents — in-flight work — are never touched, so
    gc can run at any cadence without losing jobs.  Returns the number
    of files removed.
    """
    _, claimed, results = spool_dirs(spool)
    if now is None:
        now = time.time()
    cutoff = now - float(older_than_s)
    removed = 0
    candidates = [*results.glob("*.json"), *results.glob("*.wait")]
    candidates += [p for p in claimed.iterdir()
                   if p.name.endswith((".rejected", ".rejected.json"))]
    for path in candidates:
        try:
            if path.stat().st_mtime >= cutoff:
                continue
            path.unlink()
        except OSError:
            continue  # raced with a concurrent collector or settle
        removed += 1
    if removed:
        logger.info("spool gc removed %d document(s) older than %.0fs",
                    removed, older_than_s)
    return removed


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class _Wakeups:
    """What the serve loop blocks on: the spool's ``wake`` FIFO
    (submitters) and a self-pipe the engine's terminal listener writes
    (:meth:`on_terminal`).  ``counts`` tallies what ended each wait."""

    def __init__(self, fifo: pathlib.Path):
        self.counts = {"nudge": 0, "engine": 0, "poll": 0}
        self._pipe_r, self._pipe_w = os.pipe()
        os.set_blocking(self._pipe_r, False)
        os.set_blocking(self._pipe_w, False)
        self._sources = {self._pipe_r: "engine"}
        fifo_fd = _open_fifo(fifo)
        if fifo_fd is not None:
            self._sources[fifo_fd] = "nudge"

    def on_terminal(self, _job_id: str) -> None:
        with contextlib.suppress(BlockingIOError):  # full = one is pending
            os.write(self._pipe_w, b"\0")

    def wait(self, timeout: float) -> str:
        """Block for at most ``timeout`` seconds; returns what woke
        the loop — ``"engine"``, ``"nudge"`` or ``"poll"`` (timeout)."""
        woke = {self._sources[fd]
                for fd in _wait_readable(self._sources, timeout)}
        for source in woke or ("poll",):
            self.counts[source] += 1
        return ("engine" if "engine" in woke
                else "nudge" if woke else "poll")

    def close(self) -> None:
        for fd in (*self._sources, self._pipe_w):
            os.close(fd)


class _Chores:
    """The serve loop's timed housekeeping — sweep stale claims back
    into the queue, heartbeat the live ones, every ``gc_every``-th
    round collect old litter — at most once per ``poll`` seconds,
    however often wake-ups turn the loop."""

    def __init__(self, spool, *, owner: str, poll: float, lease_ttl: float,
                 gc_older_than: float | None, gc_every: int):
        self.spool, self.owner, self.poll = spool, owner, poll
        self.queue, self.claimed, _ = spool_dirs(spool)
        self.lease_ttl = lease_ttl
        self.gc_older_than, self.gc_every = gc_older_than, gc_every
        self.heartbeats = 0
        self._rounds = 0
        self._due = time.monotonic()

    def remaining(self) -> float:
        """Seconds until the next round is due: the loop's timeout."""
        return max(0.0, self._due - time.monotonic())

    def run(self, live_claims) -> None:
        if self.remaining() > 0:
            return
        self._due = time.monotonic() + self.poll
        self._rounds += 1
        for name in reclaim_stale(self.queue, self.claimed, owner=self.owner,
                                  lease_ttl=self.lease_ttl):
            logger.warning("reclaimed stale claim %s into queue", name)
        for claim in live_claims:
            if claim.exists():
                _write_lease(claim, self.owner)
                self.heartbeats += 1
        if (self.gc_older_than is not None and self.gc_every > 0
                and self._rounds % self.gc_every == 0):
            gc_spool(self.spool, self.gc_older_than)


def serve_spool(spool, *, max_workers: int = 2, poll: float = 0.2,
                drain: bool = False, max_jobs: int | None = None,
                data_dir=None, on_settle=None,
                lease_ttl: float = DEFAULT_LEASE_TTL,
                owner: str | None = None, recover: bool = False,
                gc_older_than: float | None = None, gc_every: int = 50,
                stop=None, stats: dict | None = None) -> int:
    """Run a :class:`JobEngine` against a spool directory.

    Claims queued job documents, submits them, and writes a result
    document as each settles.  Returns the number of jobs settled.

    One loop — claim, settle, wait — whose wait ends on a submitter's
    nudge, on a job turning terminal, or after ``poll`` seconds,
    whichever is first (see the module docstring).

    ``poll``:
        The longest the server waits before it looks at the spool
        again without having been woken — what a lost nudge costs —
        and the period of the housekeeping (lease heartbeats, the
        stale-claim sweep).
    ``drain``:
        Exit once the queue is empty, every claimed job is terminal
        and no other server holds a claim (a killed server's claim
        returns to the queue once its lease is stale past
        ``lease_ttl``, and is run here) — the batch-campaign mode
        (``repro serve --drain``);
        without it the server serves forever (SIGTERM/Ctrl-C to stop;
        running jobs are parked by the engine's shutdown).
    ``max_jobs``:
        Stop claiming after this many jobs and exit once they settle.
    ``on_settle``:
        Optional ``callback(job_id, result_dict)`` after each result
        document is written (the CLI prints a line per job).
    ``lease_ttl`` / ``owner``:
        Claim-lease parameters: every claim this server holds is
        heartbeat every ``poll`` seconds under ``owner`` (default: a
        unique host-pid-nonce string), and claims owned by *other*
        servers whose lease is stale past ``lease_ttl`` seconds are
        swept back into ``queue/`` at the same cadence (see
        :func:`reclaim_stale`).
    ``recover``:
        Rebuild the engine from ``data_dir``'s journal
        (:meth:`JobEngine.recover`) instead of starting empty, and
        adopt the previous server's claims: interrupted jobs resume
        from their checkpoints rather than being re-queued by a lease
        sweep.  Requires a persistent ``data_dir``; ignored when the
        journal does not exist yet.
    ``gc_older_than`` / ``gc_every``:
        When set, run :func:`gc_spool` with this age (seconds) every
        ``gc_every * poll`` seconds.
    ``stop``:
        Optional zero-argument callable checked once per loop turn;
        when it returns true the server stops claiming, parks running
        jobs (engine close) and returns — the graceful-drain hook the
        CLI wires to SIGTERM/SIGINT.  Follow a change of its answer
        with :func:`wake_server`, or it is seen up to ``poll`` later.
    ``stats``:
        Optional dict filled in on return: ``wakes`` (how many waits
        ended by ``nudge`` / ``engine`` / ``poll``) and
        ``lease_writes`` (claims + adoptions + heartbeats).
    """
    queue, claimed, results = spool_dirs(spool)
    if owner is None:
        owner = default_owner()
    live: dict[str, tuple[pathlib.Path, dict]] = {}  # id -> claim, stamps
    settled = claimed_count = leases = 0
    journal_path = (None if data_dir is None
                    else pathlib.Path(data_dir) / "journal.jsonl")
    chores = _Chores(spool, owner=owner, poll=poll, lease_ttl=lease_ttl,
                     gc_older_than=gc_older_than, gc_every=gc_every)
    wakeups = _Wakeups(pathlib.Path(spool) / "wake")
    try:
        if recover and journal_path is not None and journal_path.exists():
            engine = JobEngine.recover(data_dir, max_workers=max_workers)
        else:
            engine = JobEngine(max_workers=max_workers, data_dir=data_dir)
        with engine:  # closed (workers joined) before the pipe it writes
            # a job settling from here on wakes the loop; one that
            # settled earlier is found by the first turn's own look
            engine.add_terminal_listener(wakeups.on_terminal)
            # adopt recovered jobs: they are ours again, so re-lease their
            # claims under our identity *before* the first stale sweep —
            # otherwise a short TTL could bounce our own claims through
            # queue/ and into a duplicate submit
            for info in engine.list_jobs():
                claim = claimed / f"{info.job_id}.json"
                submitted_at = (read_json_tolerant(claim) or {}).get(
                    "submitted_at")
                live[info.job_id] = (claim, {"submitted_at": submitted_at,
                                             "claimed_at": time.time()})
                if claim.exists():
                    _write_lease(claim, owner)
                    leases += 1
                logger.info("adopted recovered job %s (%s)", info.job_id,
                            info.state.value)
            claimed_count = len(live)
            woke = "poll"  # the first turn looks unprompted
            while True:
                if stop is not None and stop():
                    logger.info("stop requested; parking running jobs")
                    return settled
                chores.run(claim for claim, _ in live.values())
                if max_jobs is None or claimed_count < max_jobs:
                    limit = (None if max_jobs is None
                             else max_jobs - claimed_count)
                    for doc in _claim(queue, claimed, limit, owner=owner):
                        spool_id = doc["id"]
                        job = doc["job"]
                        leases += 1
                        try:
                            engine.submit(job, job_id=spool_id)
                        except ValueError as exc:  # duplicate id resubmitted
                            logger.warning(
                                "settling duplicate submission %s: %s",
                                spool_id, exc)
                            _settle_duplicate(results, spool_id,
                                              doc["path"], exc)
                            continue
                        live[spool_id] = (doc["path"], {
                            "submitted_at": doc.get("submitted_at"),
                            "claimed_at": time.time()})
                        claimed_count += 1
                        logger.info("claimed %s: %s", spool_id,
                                    job.describe())
                for spool_id, (claim, stamps) in list(live.items()):
                    if not engine.status(spool_id).state.terminal:
                        continue
                    doc = engine.result(spool_id).summary()
                    doc["id"] = spool_id
                    doc["spool"] = dict(stamps, settled_at=time.time(),
                                        woke_by=woke)
                    existing = read_result(spool, spool_id)
                    if existing is None or existing.get("state") == "duplicate":
                        write_json_atomic(results / f"{spool_id}.json", doc)
                        _nudge(results / f"{spool_id}.wait")
                    else:
                        # another server settled it first (at-least-once
                        # re-run); determinism makes the docs identical,
                        # so skipping the write is the idempotent choice
                        doc = existing
                    del live[spool_id]
                    settled += 1
                    _lease_path(claim).unlink(missing_ok=True)
                    claim.unlink(missing_ok=True)
                    if on_settle is not None:
                        on_settle(spool_id, doc)
                done_claiming = (max_jobs is not None
                                 and claimed_count >= max_jobs)
                # draining waits out other servers' claims too: a dead
                # one's comes back through the stale sweep, and runs here
                if not live and (done_claiming or (drain and not any(
                        p for p in queue.glob("*.json")
                        if not p.name.endswith(".rejected.json"))
                        and not _claim_docs(claimed))):
                    return settled
                woke = wakeups.wait(chores.remaining())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        logger.info("interrupted; parking running jobs")
        return settled
    finally:
        wakeups.close()
        if stats is not None:
            stats.update(wakes=wakeups.counts,
                         lease_writes=leases + chores.heartbeats)


def _settle_duplicate(results: pathlib.Path, spool_id: str,
                      claim: pathlib.Path, exc: Exception) -> None:
    """Settle a duplicate-id submission instead of stranding its claim.

    The claim document would otherwise sit in ``claimed/`` forever (no
    engine job will ever settle it).  A ``duplicate`` result document
    is written only when no result exists yet — the canonical run's
    result (present or future) always wins.
    """
    if read_json_tolerant(results / f"{spool_id}.json") is None:
        write_json_atomic(results / f"{spool_id}.json", {
            "id": spool_id,
            "job_id": spool_id,
            "state": "duplicate",
            "error": str(exc),
        })
        _nudge(results / f"{spool_id}.wait")
    _lease_path(claim).unlink(missing_ok=True)
    claim.unlink(missing_ok=True)
