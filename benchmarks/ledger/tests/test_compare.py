"""``compare.py``: verdicts, the derived ratio, and the exit status."""

import json

import pytest

import compare

SPEC = [
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.05},
    {"name": "particle_steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
]


def doc(step_ms, pps, failed_share=0.0, ratio=1.3):
    e2e = {"step_ms_p50": {"value": step_ms, "unit": "ms"},
           "particle_steps_per_s": {"value": pps, "unit": "1/s"}}
    return {"schema": "repro-ledger/1", "end_to_end_spec": SPEC,
            "workloads": {"dense2d": {"status": "ran", "failed_share": failed_share,
                                      "end_to_end": e2e}},
            "derived": {"dense2d_mp2_over_dense2d": {"value": ratio}}}


def verdicts(a, b):
    rows, derived = compare.compare(a, b)
    return {r["metric"]: r["verdict"] for r in rows}, derived


def test_same_numbers_are_unchanged():
    a = [doc(100, 1e6), doc(101, 0.99e6)]
    v, derived = verdicts(a, a)
    assert v == {"step_ms_p50": "unchanged", "particle_steps_per_s": "unchanged",
                 "failed_share": "unchanged"}
    assert len(derived) == 2 and "1.3" in derived[0] and "2 run(s)" in derived[0]


def test_worse_than_the_bound_is_regressed_in_either_direction():
    a = [doc(100, 1e6), doc(101, 1.01e6), doc(99, 0.99e6)]
    b = [doc(108, 0.9e6), doc(109, 0.91e6), doc(107, 0.89e6)]
    v, _ = verdicts(a, b)
    assert v["step_ms_p50"] == "regressed" and v["particle_steps_per_s"] == "regressed"


def test_every_run_better_is_improved():
    a = [doc(100, 1e6), doc(101, 1.01e6), doc(99, 0.99e6)]
    b = [doc(90, 1.1e6), doc(91, 1.11e6), doc(89, 1.09e6)]
    v, _ = verdicts(a, b)
    assert v["step_ms_p50"] == "improved" and v["particle_steps_per_s"] == "improved"


def test_one_run_a_side_is_never_called_improved():
    v, _ = verdicts([doc(100, 1e6)], [doc(90, 1.1e6)])
    assert v["step_ms_p50"] == "unchanged" and v["particle_steps_per_s"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    a = [doc(100, 1e6), doc(120, 1e6), doc(90, 1e6), doc(110, 1e6)]
    b = [doc(104, 1e6), doc(118, 1e6), doc(92, 1e6), doc(111, 1e6)]
    v, _ = verdicts(a, b)
    assert v["step_ms_p50"] == "unresolved"
    assert v["particle_steps_per_s"] == "unchanged"


def test_any_failed_operation_in_the_change_is_a_regression():
    v, _ = verdicts([doc(100, 1e6)], [doc(100, 1e6, failed_share=0.01)])
    assert v["failed_share"] == "regressed"


def test_exit_status_and_table(tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(doc(100, 1e6)))
    bad.write_text(json.dumps(doc(120, 1e6)))
    assert compare.main([str(good), "--", str(good)]) == 0
    assert compare.main([str(good), "--", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "dense2d_mp2 / dense2d" in out and "(1)" in out
    with pytest.raises(SystemExit):
        compare.main([str(good)])
