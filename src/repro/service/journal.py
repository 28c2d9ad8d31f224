"""The durable job journal: what lets a dead engine's jobs survive it.

A :class:`JobJournal` is an append-only JSONL file of job lifecycle
transitions — one JSON document per line, one line per event — living
at ``<data_dir>/journal.jsonl`` next to the per-job checkpoint
directories.  The :class:`~repro.service.engine.JobEngine` appends a
record at every transition (``submitted`` / ``running`` /
``preempted`` / ``recovered`` / ``terminal`` / ``shutdown``), and
:meth:`JobEngine.recover` replays the file to rebuild the queue after
the serving process died — including by SIGKILL.

Crash-safety model
------------------
Appends are flushed and fsynced per record, so every acknowledged
transition is on disk before the engine acts on it.  A crash can tear
at most the *last* line mid-write; :meth:`JobJournal.replay` therefore
parses conservatively and stops at the first unparsable line (a torn
tail is indistinguishable from a truncated file), never raising on
garbage.  Whole-document artifacts that must never be seen torn — the
per-job ``history.json`` diagnostic sidecars, spool leases and result
documents — instead go through :func:`write_json_atomic`, the
tmp + fsync + ``os.replace`` writer of :mod:`repro.core.checkpoint`
(:func:`~repro.core.checkpoint.write_atomic`).

The journal is the *scheduling* truth (which jobs exist, what state
they were last seen in, how many times they were retried, where their
checkpoints live); the *physics* truth stays in the per-job checkpoint
rotation and its history sidecar, so a replayed journal plus a
loadable checkpoint reproduces an interrupted job bit-for-bit.  The
record format is documented for operators in ``docs/service.md``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.checkpoint import write_atomic

__all__ = ["JobJournal", "write_json_atomic", "read_json_tolerant"]

#: journal states that mean "this job will never run again"
TERMINAL_STATES = ("succeeded", "failed", "cancelled")


def write_json_atomic(path, payload: dict) -> pathlib.Path:
    """Write ``payload`` as JSON at ``path`` atomically and durably.

    The checkpoint module's crash-safety idiom,
    :func:`repro.core.checkpoint.write_atomic`: write a ``.tmp``
    sibling, flush, fsync, then :func:`os.replace` over the final name
    (plus a best-effort directory fsync), so a reader never observes a
    torn document and a crash mid-write leaves at worst a stale
    ``.tmp`` sibling.
    """
    text = json.dumps(payload, indent=2)
    return write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def read_json_tolerant(path) -> dict | None:
    """Parse a JSON document, returning ``None`` for anything unusable.

    ``None`` covers a missing file, a concurrent writer that has not
    finished (only possible for non-atomic writers), and plain
    corruption — the polling readers (:func:`repro.service.spool.
    read_result`, lease scans) treat all three as "not there yet".
    """
    try:
        doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


class JobJournal:
    """Append-only JSONL journal of job lifecycle transitions.

    Every :meth:`append` writes one ``{"event": ..., "ts": ...}``
    line, flushed and fsynced before returning, so an acknowledged
    transition survives the death of the writing process.  The engine
    serializes appends under its own lock; the journal itself adds no
    locking.

    Record vocabulary (see ``docs/service.md`` for the field tables):

    * ``submitted`` — ``job_id``, ``seq``, ``priority`` and the full
      serialized :class:`~repro.service.job.PICJob` (the journal alone
      suffices to rebuild the queue);
    * ``running`` — a scheduling segment started (``segment``,
      ``resumed``);
    * ``preempted`` — the job parked (``iteration``, ``checkpoint``);
    * ``recovered`` — a later engine adopted the job from this journal
      (``resumed`` says whether a checkpoint was found);
    * ``terminal`` — the job settled (``state``, ``steps_done``,
      ``retries``, ``error``);
    * ``shutdown`` — the engine closed cleanly (its absence after the
      last record is how an operator spots a crash).
    """

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, event: str, **fields) -> None:
        """Durably append one event record (flush + fsync)."""
        record = {"event": event, "ts": time.time(), **fields}
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    @staticmethod
    def read_records(path) -> list[dict]:
        """Every parsable record, stopping at the first torn line.

        A SIGKILL mid-append can leave a half-written final line;
        parsing stops there rather than raising, so recovery always
        sees a consistent prefix of the history.
        """
        path = pathlib.Path(path)
        records: list[dict] = []
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail (or worse): trust only the prefix
            if isinstance(record, dict) and "event" in record:
                records.append(record)
        return records

    @classmethod
    def replay(cls, path) -> dict[str, dict]:
        """Fold the journal into one view per job id.

        Returns ``{job_id: view}`` where ``view`` carries the last
        observed lifecycle ``state`` (``"queued"`` / ``"running"`` /
        ``"preempted"`` / a terminal state), the serialized ``job``
        description, ``priority``, the original submission ``seq``
        (recovery preserves FIFO-within-priority order), the last
        known ``iteration``/``checkpoint`` and the ``retries`` count.
        Events for ids that never logged ``submitted`` are ignored —
        without the job description there is nothing to rebuild.
        """
        view: dict[str, dict] = {}
        for record in cls.read_records(path):
            event = record.get("event")
            job_id = record.get("job_id")
            if event == "submitted" and job_id is not None:
                view[job_id] = {
                    "state": "queued",
                    "job": record.get("job"),
                    "priority": record.get("priority", 0),
                    "seq": record.get("seq", len(view) + 1),
                    "iteration": 0,
                    "checkpoint": None,
                    "retries": 0,
                }
                continue
            entry = view.get(job_id)
            if entry is None:
                continue
            if event == "running":
                entry["state"] = "running"
            elif event == "preempted":
                entry["state"] = "preempted"
                entry["iteration"] = record.get("iteration", entry["iteration"])
                entry["checkpoint"] = record.get("checkpoint",
                                                 entry["checkpoint"])
            elif event == "recovered":
                entry["state"] = "queued"
            elif event == "terminal":
                entry["state"] = record.get("state", "failed")
                entry["retries"] = record.get("retries", entry["retries"])
        return view
