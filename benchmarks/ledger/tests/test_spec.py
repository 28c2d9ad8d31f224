"""``BENCHMARK.json`` against the benchmark contract, and against the
harness that has to honour it."""

import pathlib
import re

from conftest import LEDGER, ROOT
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_keys_and_sizes(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128


def test_command_and_paths_stay_inside_the_benchmark(spec):
    assert spec["paths"] == ["benchmarks/ledger"]
    for p in spec["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    assert 1 <= len(spec["command"]) <= 32
    for arg in spec["command"]:
        assert len(arg) <= 200 and not arg.startswith("/") and ".." not in arg
    assert spec["command"][-1] == "benchmarks/ledger/run.py"


def test_names_units_and_keys(spec):
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names)), "a name is used once"


def test_setup_s_is_there_with_the_largest_bound(spec):
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_are_the_harnesses(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_layer_of_a_per_layer_metric_is_a_package(spec):
    packages = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()}
    packages.add("cli")  # a module, not a package
    assert {m["name"].split(".")[0] for m in spec["per_layer"]} <= packages


def test_no_harness_file_looks_like_a_pytest_benchmark():
    # python_files = test_*.py bench_*.py: `make bench` would collect it
    assert not list(pathlib.Path(LEDGER).rglob("bench_*.py"))
