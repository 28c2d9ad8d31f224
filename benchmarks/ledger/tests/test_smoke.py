"""The whole command at smoke size: schema of what it writes, the
contract of a single pass, sample counts, and clean-up."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from conftest import LEDGER, ROOT, serve_processes, shm_names

SIMS = ("dense2d", "dense2d_mp2", "sparse2d", "dense3d")


def test_result_document_schema(smoke_run, spec):
    doc = smoke_run["bench"]
    assert doc["schema"] == "repro-ledger/1" and doc["smoke"] is True
    assert doc["end_to_end_spec"] == spec["end_to_end"]
    for key in ("nproc", "cpu_model", "caches", "python", "numpy", "numba",
                "workdir_filesystem"):
        assert key in doc["host"]
    assert list(doc["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, w in doc["workloads"].items():
        assert w["status"] == "ran", (name, w["status"])
        assert w["correct"] is True and w["failed"] == 0 and w["failed_share"] == 0
        assert w["attempted"] >= 1
        assert set(w["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(w["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for metric, m in {**w["end_to_end"], **w["per_layer"]}.items():
            assert m["unit"] == units[metric]
            assert isinstance(m["value"], (int, float))
        assert all(m["value"] > 0 for m in w["end_to_end"].values()), name
        assert "host_speed" in w["informational"]
        assert all(set(m) == {"value", "unit"} for m in w["informational"].values())
        assert w["backend"]["resolved"] in ("numpy", "numba", "numpy-mp")


def test_a_hole_is_visible_never_a_silent_pass(smoke_run):
    for name, w in smoke_run["bench"]["workloads"].items():
        for metric, reason in w["holes"].items():
            assert reason.startswith("skipped(") and w["per_layer"][metric]["value"] == 0
        layers = {m.split(".")[0] for m in w["per_layer"] if m not in w["holes"]}
        if name == "dense3d":
            assert "pic3d" in layers and "parallel" not in layers
        if name == "dense2d_mp2":
            assert "parallel" in layers
        if name == "serve_jobs":
            assert {"service", "resilience", "cli", "core"} <= layers
        if name == "dense2d":
            assert layers == {"core", "particles", "grid", "curves", "perf"}


def test_every_metric_is_printed_by_name_with_its_unit(smoke_run, spec):
    out = smoke_run["stdout"]
    for w in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert f"{w['name']}  {m['name']} = " in out
        assert f"{w['name']}  failed_share = 0 ratio" in out


def test_sample_counts_are_stated_and_consistent(smoke_run):
    ws = smoke_run["bench"]["workloads"]
    for name in SIMS:
        s = ws[name]["samples"]["untraced"]
        assert s["steps"] == len(s["step_s"]) >= 20 and s["sort_steps"] >= 1
    serve = ws["serve_jobs"]["samples"]["untraced"]
    # a job the generator submitted 50 ms or more late is left out
    late = sum(x >= 0.050 for x in serve["lateness_s"])
    assert serve["stream_jobs"] == len(serve["lateness_s"])
    assert len(serve["latency_s"]) == serve["stream_jobs"] - late
    assert serve["late_jobs"] == late <= serve["stream_jobs"] // 4


def test_mp2_state_equals_dense2d_bitwise(smoke_run):
    (check,) = smoke_run["bench"]["cross_checks"]
    assert check["name"] == "mp2_state_digest" and check["ok"], check
    ws = smoke_run["bench"]["workloads"]
    digests = {ws[n]["samples"]["untraced"]["digest"] for n in ("dense2d", "dense2d_mp2")}
    assert len(digests) == 1 and None not in digests
    assert smoke_run["bench"]["derived"]["dense2d_mp2_over_dense2d"]["value"] > 0


def test_traced_spans_nest_and_add_up(smoke_run):
    spans = smoke_run["trace"]["spans"]
    for name in SIMS:
        by_id = {s["id"]: s for s in spans[name]}
        steps = [s for s in spans[name] if s["name"] == "step"]
        assert steps
        for step in steps:
            kids = [s for s in spans[name] if s["parent"] == step["id"]]
            assert {"sort", "update_v", "update_x", "accumulate", "solve", "other"} \
                == {k["name"] for k in kids}
            assert sum(k["end"] - k["start"] for k in kids) == pytest.approx(
                step["end"] - step["start"])
        assert all(s["parent"] is None or s["parent"] in by_id for s in spans[name])
        ratio = smoke_run["bench"]["workloads"][name]["samples"]["traced"]["span_sum_over_step"]
        assert 0.9 < ratio < 1.1
    jobs = [s for s in spans["serve_jobs"] if s["name"] == "job"]
    assert jobs
    for job in jobs:
        parts = [s for s in spans["serve_jobs"]
                 if s["parent"] == job["id"] and s["name"] != "submit"]
        assert [p["name"] for p in parts] == ["claim_wait", "queue_wait", "run", "settle_wait"]
        assert sum(p["end"] - p["start"] for p in parts) == pytest.approx(
            job["end"] - job["start"])


def test_nothing_is_left_behind(smoke_run):
    assert not (LEDGER / ".work").exists()
    assert serve_processes() == []
    assert shm_names() <= smoke_run["shm_before"]


def run_pass(*args, **kw):
    return subprocess.run([sys.executable, str(LEDGER / "run.py"), *args],
                          capture_output=True, text=True, timeout=120, **kw)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_single_pass_contract(spec, trace, key):
    proc = run_pass("--workload", "sparse2d", "--seed", "9", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert set(result["metrics"][m["name"]]) == {"value", "unit"}
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    digests = []
    for seed in ("9", "9", "10"):
        out = tmp_path / f"pass-{len(digests)}.json"
        proc = run_pass("--workload", "dense2d", "--seed", seed, "--seconds", "1",
                        "--smoke", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(out.read_text())["detail"]["digest"])
    assert digests[0] == digests[1] != digests[2]


def test_without_the_engine_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "dense2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_sigterm_reaps_the_server_and_removes_the_work_directory():
    shm_before = shm_names()
    proc = subprocess.Popen(
        [sys.executable, str(LEDGER / "run.py"), "--workload", "serve_jobs",
         "--smoke", "--seconds", "20"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not serve_processes():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)  # let it get into the stream phase
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert serve_processes() == []
    assert not list((LEDGER / ".work").glob(f"serve_jobs-{proc.pid}"))
    assert shm_names() <= shm_before
