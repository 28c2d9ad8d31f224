"""CLI tests (driving main() in-process, capturing stdout)."""

import pathlib

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.particles import CASE_NAMES

#: written by ``repro run --timings-json`` with the loop mode ``auto`` at commit
#: adb824f (12 steps, 2000 particles): ``cumulative`` and the step-9
#: record carry the retired tuner's ``autotune`` list
LEGACY_TIMINGS = (
    pathlib.Path(__file__).parent / "data" / "timings_loop_mode_auto_pr16.json"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_case(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--case", "tokamak"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.case == "landau"
        assert args.ordering == "morton"
        assert args.seed is None


class TestInfo:
    def test_lists_orderings_and_machines(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        for token in ("morton", "hilbert", "haswell", "sandybridge", "channels"):
            assert token in out


class TestOrderings:
    def test_morton_map(self, capsys):
        code, out = run_cli(capsys, "orderings", "--ordering", "morton", "--size", "4")
        assert code == 0
        # 4x4 morton contains indices 0..15, first row "0 1 4 5"
        assert "0 1 4 5" in out.replace("  ", " ").replace("  ", " ")

    def test_l4d_tile_param(self, capsys):
        code, out = run_cli(
            capsys, "orderings", "--ordering", "l4d", "--size", "8", "--l4d-size", "2"
        )
        assert code == 0
        assert "allocated 64" in out


class TestLocality:
    def test_reports_all_orderings(self, capsys):
        code, out = run_cli(capsys, "locality", "--size", "16")
        assert code == 0
        for name in ("row-major", "l4d", "morton", "hilbert"):
            assert name in out
        # row-major is the 50% anchor
        assert "50.0%" in out


class TestTuneSort:
    @pytest.mark.parametrize("machine", ["haswell", "sandybridge"])
    def test_reports_best(self, capsys, machine):
        code, out = run_cli(capsys, "tune-sort", "--machine", machine,
                            "--particles", "1000000")
        assert code == 0
        assert "<- best" in out

    def test_growth_changes_optimum(self, capsys):
        _, out_lo = run_cli(capsys, "tune-sort", "--growth", "0.01")
        _, out_hi = run_cli(capsys, "tune-sort", "--growth", "0.8")

        def best_period(text):
            for line in text.splitlines():
                if "<- best" in line:
                    return int(line.split("sort every")[1].split(":")[0])
            raise AssertionError("no best line")

        assert best_period(out_hi) <= best_period(out_lo)


class TestMisses:
    def test_reports_requested_orderings(self, capsys):
        code, out = run_cli(
            capsys, "misses", "--orderings", "row-major", "morton",
            "--particles", "4000", "--iterations", "3", "--grid-side", "32",
            "--sort-period", "2",
        )
        assert code == 0
        assert "row-major" in out and "morton" in out
        assert "scaled machine" in out

    def test_single_ordering(self, capsys):
        code, out = run_cli(
            capsys, "misses", "--orderings", "l4d",
            "--particles", "2000", "--iterations", "2", "--grid-side", "16",
        )
        assert code == 0
        assert "l4d" in out


class TestRun:
    def test_landau_quickrun(self, capsys):
        code, out = run_cli(
            capsys, "run", "--case", "landau", "--particles", "5000",
            "--steps", "5", "--grid", "16", "8", "--every", "5",
        )
        assert code == 0
        assert "energy drift" in out
        assert "throughput" in out

    def test_seeded_run_deterministic(self, capsys):
        argv = ["run", "--case", "landau", "--particles", "3000",
                "--steps", "3", "--grid", "16", "8", "--seed", "7"]
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)

        def physics_lines(text):  # drop the wall-clock output (throughput
            # line and per-phase breakdown), which differs run to run
            lines = text.splitlines()
            return lines[: lines.index(next(l for l in lines if "throughput" in l))]

        assert physics_lines(out1) == physics_lines(out2)

    def test_hilbert_ordering_switches_update(self, capsys):
        # hilbert runs the default bitwise update, like every ordering
        code, out = run_cli(
            capsys, "run", "--particles", "2000", "--steps", "2",
            "--grid", "16", "8", "--ordering", "hilbert",
        )
        assert code == 0
        assert "ordering=hilbert" in out

    def test_checkpoint_written(self, capsys, tmp_path):
        ck = tmp_path / "state.npz"
        code, out = run_cli(
            capsys, "run", "--particles", "2000", "--steps", "2",
            "--grid", "16", "8", "--checkpoint", str(ck),
        )
        assert code == 0
        assert ck.exists()
        from repro.core.checkpoint import load_checkpoint

        st = load_checkpoint(ck)
        assert st.iteration == 2

    def test_bump_on_tail_case(self, capsys):
        code, out = run_cli(
            capsys, "run", "--case", "bump-on-tail", "--particles", "4000",
            "--steps", "3", "--grid", "16", "8",
        )
        assert code == 0
        assert "case=bump-on-tail" in out

    def test_gaussian_bump_case_with_partition(self, capsys):
        code, out = run_cli(
            capsys, "run", "--case", "gaussian-bump", "--particles", "4000",
            "--steps", "3", "--grid", "16", "16",
            "--backend", "numpy-mp", "--workers", "2",
        )
        assert code == 0
        assert "case=gaussian-bump" in out

    @pytest.mark.parametrize("flag,value", [
        ("--block-size", "64"),
        ("--deposit-threads", "2"),
        ("--partition", "curve-balanced"),
        ("--repartition-every", "2"),
        ("--rebalance-threshold", "1.1"),
    ])
    def test_rejects_retired_flags(self, flag, value):
        """The tiled-deposit and partition knobs are gone, not hidden."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, value])

    @pytest.mark.parametrize("verb", ["run", "submit"])
    def test_backend_choices_are_the_registry(self, capsys, verb):
        """``numba`` went with its backend: an ordinary invalid choice,
        answered with the names the registry holds."""
        with pytest.raises(SystemExit) as exc:
            main([verb, "--backend", "numba"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'numba'" in err
        assert "'auto', 'numpy', 'c', 'numpy-mp'" in err


class TestCalibrateCommand:
    def test_calibrate_roundtrip_is_deterministic(self, capsys, tmp_path):
        tj = tmp_path / "timings.json"
        code, _ = run_cli(
            capsys, "run", "--particles", "3000", "--steps", "4",
            "--grid", "16", "8", "--timings-json", str(tj),
        )
        assert code == 0
        out1 = tmp_path / "cal1.json"
        out2 = tmp_path / "cal2.json"
        for out_path in (out1, out2):
            code, text = run_cli(
                capsys, "calibrate", "--timings", str(tj),
                "--output", str(out_path),
            )
            assert code == 0
            assert "stall_overlap" in text
        assert out1.read_text() == out2.read_text()
        import json

        cal = json.loads(out1.read_text())
        assert 0.0 <= cal["stall_overlap"] <= 1.0
        assert set(cal["loops"]) == {"update_v", "update_x", "accumulate"}


    def test_accepts_a_record_saved_under_loop_mode_auto(self, capsys):
        """A ``--timings-json`` file the parent of PR 19 wrote with
        the loop mode ``auto`` (committed bytes; carries the retired
        ``autotune`` lists, a ``fused`` phase and ``loop_paths``) still
        calibrates, to the document it always printed."""
        import hashlib

        code, text = run_cli(capsys, "calibrate", "--timings", str(LEGACY_TIMINGS))
        assert code == 0
        assert '"particle_steps": 24000' in text
        assert "stall_overlap=" in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4fd5ba907099007ed2acd4084794a93adf3d01d9d0727d7ed370a5b6cf9cdba7"
        )


class TestSupervisedRunCommand:
    def test_supervised_run_reports(self, capsys, tmp_path):
        tj = tmp_path / "timings.json"
        code, out = run_cli(
            capsys, "run", "--particles", "2000", "--steps", "6",
            "--grid", "16", "8", "--supervise", "--checkpoint-every", "2",
            "--timings-json", str(tj),
        )
        assert code == 0
        assert "supervised=[default]" in out
        assert "supervisor  :" in out and "0 rollback(s)" in out
        import json

        rec = json.loads(tj.read_text())
        assert rec["supervisor"]["checkpoints_written"] >= 1
        assert rec["supervisor"]["guards"] == ["finite", "cells", "charge"]

    def test_checkpoint_dir_kept(self, capsys, tmp_path):
        ckdir = tmp_path / "rot"
        code, _ = run_cli(
            capsys, "run", "--particles", "2000", "--steps", "4",
            "--grid", "16", "8", "--supervise", "--checkpoint-every", "2",
            "--keep-checkpoints", "2", "--checkpoint-dir", str(ckdir),
        )
        assert code == 0
        assert list(ckdir.glob("ckpt-*.npz"))

    def test_bad_guard_spec_rejected(self, capsys):
        code, _ = run_cli(
            capsys, "run", "--particles", "1000", "--steps", "2",
            "--grid", "16", "8", "--supervise", "--guards", "entropy",
        )
        assert code == 2


# ----------------------------------------------------------------------
# One front door: a run is a PICJob, whichever verb describes it
# ----------------------------------------------------------------------
DATA = pathlib.Path(__file__).parent / "data"


def verb_parser(verb):
    return build_parser()._subparsers._group_actions[0].choices[verb]


def flag_table(parser) -> dict:
    """Every optional flag of one verb, as the fixture recorded it."""
    table = {}
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        default = action.default
        table[action.dest] = {
            "flags": list(action.option_strings),
            "default": list(default) if isinstance(default, tuple) else default,
            "choices": (sorted(action.choices)
                        if action.choices is not None else None),
            "nargs": action.nargs,
            "type": getattr(action.type, "__name__", None),
            "required": action.required,
        }
    return table


class TestOneFrontDoor:
    @pytest.mark.parametrize("verb", ["run", "submit", "serve"])
    def test_flags_and_defaults_are_the_parents(self, verb):
        """No verb gained, lost or re-defaulted a flag when `run` and
        `submit` moved their ten shared flags to one argparse parent
        (fixture: the same table dumped at the PR 22 commit).  One value
        has moved since, on purpose: `submit.backend.default` is `auto`,
        the one backend default `run`, `submit` and `PICJob` share."""
        import json

        recorded = json.loads((DATA / "cli_flags_pr22.json").read_text())
        assert flag_table(verb_parser(verb)) == recorded[verb]

    def test_one_backend_default(self):
        from repro.cli import _job_from_args
        from repro.service import PICJob

        for argv in (["run"], ["submit", "--spool", "s"]):
            args = build_parser().parse_args(argv)
            assert _job_from_args(args).backend == PICJob().backend == "auto"

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_every_case_on_every_front_door(self, name):
        """(The nine names themselves are pinned by the flag fixture.)"""
        from repro.service import PICJob

        for verb in ("run", "submit"):
            assert name in verb_parser(verb).format_help()
            argv = [verb, "--case", name] + (
                ["--spool", "s"] if verb == "submit" else [])
            assert build_parser().parse_args(argv).case == name
        assert PICJob(case=name).case == name
        job = PICJob(case=name, n_particles=2000, steps=3, backend="numpy")
        with job.build_simulation() as sim:
            sim.run(3)
            assert sim.stepper.iteration == 3
            assert np.all(np.isfinite(sim.history.total_energy))

    @pytest.mark.parametrize("name, argv", [
        ("landau_quiet", ["--case", "landau"]),
        ("two_stream_seed3", ["--case", "two-stream", "--seed", "3"]),
        ("bounded_wall_supervised", ["--case", "bounded-wall", "--supervise"]),
    ])
    def test_run_transcript_matches_parent(self, capsys, name, argv):
        """`repro run`, now stepping `PICJob.build_simulation()`, prints
        the physics lines the PR 22 commit printed, byte for byte."""

        def physics(text):
            wall_clock = ("throughput", "phase breakdown", "timings")
            return [line for line in text.splitlines()
                    if not line.startswith(wall_clock)
                    and not line.endswith("%)")]  # the breakdown's rows

        code, out = run_cli(capsys, "run", *argv, "--backend", "numpy",
                            "--steps", "20", "--particles", "20000")
        assert code == 0
        recorded = (DATA / "run_transcripts_pr22" / f"{name}.txt").read_text()
        assert physics(out) == physics(recorded)
        assert len(physics(out)) >= 6

    def test_mp_timeout_reaches_the_config(self, monkeypatch):
        """The one `run` flag that is no PICJob field still lands in
        the stepper's config, on top of the job's own recipe."""
        from repro.service import PICJob

        seen = []
        real = PICJob.build_simulation

        def spy(job, config=None):
            seen.append((job, config))
            return real(job, config)

        monkeypatch.setattr(PICJob, "build_simulation", spy)
        assert main(["run", "--particles", "1000", "--steps", "1", "--grid",
                     "16", "8", "--backend", "numpy", "--mp-timeout", "7.5"]) == 0
        (job, config), = seen
        assert config == job.make_config().with_(mp_task_timeout=7.5)
