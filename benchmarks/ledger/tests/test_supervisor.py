"""``run.run_supervised``: a pass returns only when everything it
started has ended — also what it orphaned, such as the
``multiprocessing`` resource tracker, which notices its parent's exit
only after the fact."""

import os
import pathlib
import subprocess
import sys
import textwrap
import time
import uuid

import pytest

from conftest import LEDGER


def supervise(script: str, patience: float = 10.0):
    """``run_supervised`` on ``python -c script``, from a process of its
    own (it makes its caller a subreaper, which pytest should not be)."""
    caller = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(LEDGER)!r})
        import run
        run.STRAGGLER_PATIENCE_S = {patience}
        sys.exit(run.run_supervised([sys.executable, "-c", {script!r}]))
    """)
    return subprocess.run([sys.executable, "-c", caller], capture_output=True,
                          text=True, timeout=60)


def test_it_waits_for_what_the_command_orphaned(tmp_path):
    mark = tmp_path / "orphan-ended"
    orphan = f"import time, pathlib; time.sleep(0.5); pathlib.Path({str(mark)!r}).write_text('x')"
    proc = supervise(
        f"import subprocess, sys; subprocess.Popen([sys.executable, '-c', {orphan!r}]); sys.exit(7)")
    assert proc.returncode == 7, proc.stderr
    assert mark.exists()
    assert "killed" not in proc.stderr


def test_it_kills_what_does_not_end_even_in_a_session_of_its_own(tmp_path):
    pid_file = tmp_path / "pid"
    orphan = (f"import os, time, pathlib; pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()));"
              " time.sleep(120)")
    started = time.monotonic()
    proc = supervise(
        "import subprocess, sys, time, os\n"
        f"subprocess.Popen([sys.executable, '-c', {orphan!r}], start_new_session=True)\n"
        f"while not os.path.exists({str(pid_file)!r}): time.sleep(0.01)\n",
        patience=0.3)
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - started < 30
    assert "killed 1 process(es)" in proc.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def tagged_processes(tag: str) -> list:
    """Command lines of the live processes that carry ``tag`` in their
    environment (every descendant of a pass inherits it)."""
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            env = pathlib.Path(f"/proc/{pid}/environ").read_bytes()
            cmd = pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if tag.encode() in env:
            out.append(cmd.replace(b"\0", b" ").decode())
    return out


@pytest.mark.parametrize("workload", ["dense2d", "dense2d_mp2", "serve_jobs"])
def test_no_process_outlives_a_pass(workload, tmp_path):
    tag = uuid.uuid4().hex
    # output to files: a pipe would make ``wait`` last until the last
    # straggler has closed it, and hide the very thing looked for
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
            env=dict(os.environ, LEDGER_TEST_TAG=tag), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True)
        code = proc.wait(timeout=120)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert tagged_processes(tag) == []
    assert code == 0, (tmp_path / "err").read_text()
    assert "killed" not in (tmp_path / "err").read_text()
