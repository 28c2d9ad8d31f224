"""Tests of the benchmark harness itself (not part of tier-1: the
repository's ``testpaths`` is ``tests/``).  Run them with

    PYTHONPATH=src python3 -m pytest -q benchmarks/ledger/tests

``smoke_run`` runs the whole command once at smoke size and hands its
result documents to every test that needs real output.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent.parent
ROOT = LEDGER.parent.parent
sys.path.insert(0, str(LEDGER))


def shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def serve_processes() -> list:
    """Command lines of live ``repro serve`` processes working inside
    the ledger's work directory."""
    out = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                cmd = pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                continue
            if b"serve" in cmd and str(LEDGER / ".work").encode() in cmd:
                out.append(cmd.replace(b"\0", b" ").decode())
    return out


@pytest.fixture(scope="session")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def smoke_run():
    label = f"smoke-test-{os.getpid()}"
    shm_before = shm_names()
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--smoke", "--seed", "5",
         "--label", label],
        capture_output=True, text=True, timeout=300,
    )
    bench = LEDGER / "results" / f"BENCH_{label}.json"
    trace = LEDGER / "results" / f"TRACE_{label}.json"
    try:
        assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
        yield {
            "stdout": proc.stdout,
            "bench": json.loads(bench.read_text(encoding="utf-8")),
            "trace": json.loads(trace.read_text(encoding="utf-8")),
            "shm_before": shm_before,
        }
    finally:
        bench.unlink(missing_ok=True)
        trace.unlink(missing_ok=True)
