#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads, end-to-end and
per-layer metrics for the PIC engine and the job service.

Two ways to run it (see ``README.md``):

``python3 benchmarks/ledger/run.py [--seed S] [--label L] [--smoke]``
    Every workload, each in a fresh subprocess, an untraced pass (the
    end-to-end metrics) then a traced pass (the per-layer metrics).
    Prints every metric by name with its unit, checks the outputs, and
    writes ``results/BENCH_<label>.json`` and ``results/TRACE_<label>.json``.
    Exits non-zero if any correctness check failed.

``... run.py --workload W --seed N --seconds S --trace 0|1``
    One pass of one workload.  The last line of standard output is one
    JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
    the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or
    its ``per_layer`` metrics (``--trace 1``).

The names, units and bounds of the metrics live in ``BENCHMARK.json``
at the root of the repository; this file reads them from there.

A pass runs in a child of the process the caller started
(``run_supervised``), which returns only once that child and every
process it started — the server, the numpy-mp workers, the
``multiprocessing`` resource trackers that outlive their parents by a
moment — have ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import resource
import shutil
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"
SCHEMA = "repro-ledger/1"

#: exit code of a single pass whose workload the host cannot run
EXIT_UNAVAILABLE = 3

#: seconds a pass's left-over processes get to end by themselves
STRAGGLER_PATIENCE_S = 10.0

# <linux/prctl.h>
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one pass of this workload only")
    ap.add_argument("--seed", type=int, default=1,
                    help="particle-sampling seed and base of the serve job seeds")
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed window (default: run_seconds "
                    "of BENCHMARK.json; 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced pass, per-layer metrics (single workload only)")
    ap.add_argument("--label", default=None,
                    help="name of the result files (default: local, or smoke)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at ~1/20 size, for the harness tests")
    ap.add_argument("--out", default=None,
                    help="also write this pass's full record (checks, holes, "
                    "samples, spans) to this JSON file")
    ap.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def window_seconds(args, spec) -> float:
    if args.seconds is not None:
        return args.seconds
    return 1.0 if args.smoke else float(spec["run_seconds"])


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (the server, or a numpy-mp worker), in MiB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def remove_work(directory) -> None:
    """Remove this run's work directory, and ``.work`` itself once the
    last run using it has gone."""
    shutil.rmtree(directory, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still has its directory there


def leftover_shm() -> set:
    """Names in ``/dev/shm`` (numpy-mp segments must not outlive a run)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Nothing outlives a pass
# ----------------------------------------------------------------------
def prctl(option: int, value: int) -> bool:
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False  # not Linux: the process-group check below still holds


def run_supervised(cmd, timeout: float | None = None) -> int:
    """Run ``cmd`` in a process group of its own and return its exit
    status once it *and everything it started* has ended.

    This process becomes a subreaper, so a process orphaned by ``cmd``
    (a resource tracker notices its parent's exit only after the fact)
    is handed to it and waited for here.  What has not ended
    ``STRAGGLER_PATIENCE_S`` after ``cmd`` — or ``cmd`` itself at
    ``timeout`` — is killed.  SIGTERM and SIGINT are passed on, and the
    wait goes on."""
    prctl(PR_SET_CHILD_SUBREAPER, 1)
    child, early = None, []

    def forward(signum, _frame):
        if child is None:
            early.append(signum)
        elif child.poll() is None:
            child.send_signal(signum)

    previous = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        child = subprocess.Popen(cmd, start_new_session=True)
        for signum in early:
            child.send_signal(signum)
        try:
            code = child.wait(timeout)
        except subprocess.TimeoutExpired:
            print(f"timed out after {timeout:g} s: {' '.join(cmd)}", file=sys.stderr)
            os.killpg(child.pid, signal.SIGKILL)
            code = child.wait()
        left = reap_group(child.pid)
        if left:
            print(f"killed {left} process(es) left running by: {' '.join(cmd)}",
                  file=sys.stderr)
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return code if code >= 0 else 128 - code


def reap_group(pgid: int) -> int:
    """Wait until this process has no child left and process group
    ``pgid`` no member; returns how many had to be killed for that."""
    deadline = time.monotonic() + STRAGGLER_PATIENCE_S
    killed = set()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG) != (0, 0):
                pass
            children = True
        except ChildProcessError:
            children = False
        try:
            os.killpg(pgid, 0)
            group = True
        except ProcessLookupError:
            group = False
        if not (children or group):
            return len(killed)
        if time.monotonic() > deadline:
            for pid in stragglers(pgid):
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def stragglers(pgid: int) -> list:
    """Pids of the live processes that are members of process group
    ``pgid`` or children of this process."""
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        state, ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        if state != "Z" and (int(pgrp) == pgid or int(ppid) == os.getpid()):
            out.append(int(pid))
    return out


# ----------------------------------------------------------------------
# One pass of one workload
# ----------------------------------------------------------------------
def run_one(args, spec) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import host
    from repro.core.backends import (
        available_backends,
        known_backend_names,
        resolve_backend_name,
    )
    from reference import Reference
    from simbench import Bench, WorkloadUnavailable, run_sim
    from workloads import WORKLOADS, ServeWorkload, smoke

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    seconds = window_seconds(args, spec)
    trace = bool(args.trace)

    # a terminated run must still reap its server and remove its files,
    # and so must one whose supervisor was killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    shm_before = leftover_shm()
    reps = {}
    if args.smoke:
        wl = smoke(wl)
        reps = dict(setup_reps=1, probe_reps=2, heavy_reps=1)
    bench = Bench(Reference(), workdir, **reps)
    try:
        if isinstance(wl, ServeWorkload):
            from servebench import run_serve as runner
        else:
            runner = run_sim
        fingerprint = host.fingerprint(workdir)
        fingerprint["auto_backend"] = resolve_backend_name("auto")
        fingerprint["backends"] = {
            b: "available" if b in available_backends()
            else "skipped(dependencies not installed)"
            for b in known_backend_names()}
        try:
            outcome = runner(wl, args.seed, seconds, trace, bench)
        except WorkloadUnavailable as exc:
            print(f"{args.workload}: skipped({exc})")
            return EXIT_UNAVAILABLE
    finally:
        remove_work(workdir)

    leaked = sorted(leftover_shm() - shm_before)
    outcome.check("shm_clean", not leaked,
                  f"/dev/shm segments left behind: {leaked or 'none'}")
    if not trace:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.info["host_speed"] = {"value": bench.ref.host_speed(), "unit": "ratio"}

    metrics, holes = {}, {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = outcome.metrics.get(m["name"])
        if value is None:
            # a layer this workload does not exercise: reported as 0 so
            # that every pass prints every name, and listed as a hole
            value = 0
            holes[m["name"]] = "skipped(not exercised by this workload)"
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = outcome.failed == 0
    name = args.workload
    for key, m in metrics.items():
        note = "   [hole]" if key in holes else ""
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}{note}")
    for key, m in outcome.info.items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}   [informational, not bounded]")
    share = outcome.failed / outcome.attempted
    print(f"{name}  failed_share = {share:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)")
    for key in ("span_sum_over_step", "latency_parts_over_p50"):
        if key in outcome.detail:
            print(f"{name}  consistency {key} = {outcome.detail[key]:.4f} ratio")
    for c in outcome.checks:
        print(f"{name}  check {c.name}: {'ok' if c.ok else 'FAILED'} — {c.detail}")
    if holes and not trace:
        # only a run cut short by a failed operation lacks one; there
        # is no result to report
        sys.exit(f"{name}: end-to-end metrics not measured: {', '.join(holes)}")

    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    if args.out:
        record = dict(result, workload=name, trace=trace, seed=args.seed,
                      seconds=seconds, smoke=args.smoke, failed_share=share,
                      holes=holes, host=fingerprint, informational=outcome.info,
                      checks=[vars(c) for c in outcome.checks],
                      detail=outcome.detail, spans=outcome.spans)
        pathlib.Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Every workload, both passes
# ----------------------------------------------------------------------
def run_all(args, spec) -> int:
    label = args.label or ("smoke" if args.smoke else "local")
    names = [w["name"] for w in spec["workloads"]]
    workdir = WORK / f"all-{os.getpid()}"
    workdir.mkdir(parents=True)
    records: dict = {}
    statuses: dict = {}
    seconds = window_seconds(args, spec)
    try:
        for name in names:
            for trace in (0, 1):
                out = workdir / f"pass-{name}-{trace}.json"
                # the traced pass is the shorter one: half the window
                cmd = [sys.executable, str(HERE / "run.py"), "--supervised",
                       "--workload", name,
                       "--seed", str(args.seed), "--trace", str(trace),
                       "--seconds", str(seconds / 2 if trace else seconds),
                       "--out", str(out)]
                if args.smoke:
                    cmd.append("--smoke")
                print(f"== {name} ({'traced' if trace else 'untraced'} pass)", flush=True)
                returncode = run_supervised(cmd, timeout=600)
                if out.exists():
                    records[name, trace] = json.loads(out.read_text(encoding="utf-8"))
                    out.unlink()
                if returncode == EXIT_UNAVAILABLE:
                    statuses[name] = "skipped(host cannot run it; see output above)"
                    break
                if (name, trace) not in records:
                    statuses[name] = f"failed(pass exited {returncode} without a result)"
                    break
            else:
                statuses[name] = "ran"
    finally:
        remove_work(workdir)

    doc, spans = assemble(spec, label, args, records, statuses)
    RESULTS.mkdir(exist_ok=True)
    bench_path = RESULTS / f"BENCH_{label}.json"
    bench_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    trace_path = RESULTS / f"TRACE_{label}.json"
    trace_path.write_text(json.dumps(
        {"schema": SCHEMA, "label": label, "seed": args.seed, "spans": spans}) + "\n",
        encoding="utf-8")

    print("== summary")
    for name in names:
        w = doc["workloads"][name]
        print(f"{name}: {w['status']}"
              + (f", correct={w['correct']}, failed_share={w['failed_share']:.6g}"
                 if w["status"] == "ran" else ""))
    for key, d in doc["derived"].items():
        print(f"derived  {key} = {d['value']:.4g} {d['unit']} ({d['base']})")
    for c in doc["cross_checks"]:
        print(f"cross-check {c['name']}: {'ok' if c['ok'] else 'FAILED'} — {c['detail']}")
    print(f"wrote {bench_path.relative_to(ROOT)} and {trace_path.relative_to(ROOT)}")
    ok = (all(w["status"] != "ran" or w["correct"] for w in doc["workloads"].values())
          and not any(s.startswith("failed") for s in statuses.values())
          and all(c["ok"] for c in doc["cross_checks"]))
    return 0 if ok else 1


def assemble(spec, label, args, records, statuses):
    """Fold the per-pass records into one result document."""
    workloads, spans, host_info = {}, {}, None
    for w in spec["workloads"]:
        name = w["name"]
        entry = {"status": statuses[name], "why": w["why"]}
        untraced, traced = records.get((name, 0)), records.get((name, 1))
        if statuses[name] == "ran":
            host_info = host_info or untraced["host"]
            entry.update(
                correct=untraced["correct"] and traced["correct"],
                attempted=untraced["attempted"] + traced["attempted"],
                failed=untraced["failed"] + traced["failed"],
                end_to_end=untraced["metrics"],
                informational=untraced["informational"],
                per_layer=traced["metrics"],
                holes=traced["holes"],
                backend=untraced["detail"].get("backend"),
                checks={"untraced": untraced["checks"], "traced": traced["checks"]},
                samples={"untraced": untraced["detail"], "traced": traced["detail"]},
                seconds=untraced["seconds"],
            )
            entry["failed_share"] = entry["failed"] / entry["attempted"]
            spans[name] = traced["spans"]
        workloads[name] = entry

    derived, cross = {}, []
    a, b = workloads.get("dense2d", {}), workloads.get("dense2d_mp2", {})
    if a.get("status") == b.get("status") == "ran":
        base, mp = (x["end_to_end"]["particle_steps_per_s"]["value"] for x in (a, b))
        derived["dense2d_mp2_over_dense2d"] = {
            "value": mp / base, "unit": "ratio",
            "base": f"{mp:.6g} / {base:.6g} particle-steps/s"}
        da, db = (x["samples"]["untraced"].get("digest") for x in (a, b))
        it = a["samples"]["untraced"].get("digest_iteration")
        cross.append({"name": "mp2_state_digest", "ok": bool(da) and da == db,
                      "detail": f"state_digest at iteration {it}: dense2d "
                                f"{str(da)[:12]}… vs dense2d_mp2 {str(db)[:12]}…"})
    doc = {
        "schema": SCHEMA, "label": label, "seed": args.seed, "smoke": args.smoke,
        "host": host_info, "workloads": workloads, "derived": derived,
        "cross_checks": cross,
        "end_to_end_spec": spec["end_to_end"],
    }
    return doc, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        sys.exit(f"{SRC}/repro not found: the benchmark measures the engine "
                 "in this checkout and there is none")
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.workload and not args.supervised:
        return run_supervised(
            [sys.executable, str(HERE / "run.py"), "--supervised",
             *(sys.argv[1:] if argv is None else argv)])
    if args.workload:
        return run_one(args, spec)
    if args.trace or args.out:
        sys.exit("--trace and --out apply to a single --workload pass")
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
