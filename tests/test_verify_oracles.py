"""Tests for the physics acceptance oracles (repro.verify.oracles).

The quantitative pass/fail assertions run the real calibrated oracle
profiles on the numpy backend — the same code paths the ``repro verify
--oracles`` CLI executes — plus structural checks on the result type
and on the CLI plumbing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify.oracles import (
    THEORY_LANDAU_RATE,
    THEORY_TWO_STREAM_RATE,
    OracleResult,
    landau_damping_oracle,
    momentum_oracle,
    run_all_oracles,
    two_stream_oracle,
)

ROOT = Path(__file__).resolve().parents[1]


class TestOracleResult:
    def test_describe_reports_status(self):
        ok = OracleResult("x", "numpy", 1.0, 1.0, 0.1, passed=True)
        bad = OracleResult("x", "numpy", 9.0, 1.0, 0.1, passed=False,
                           detail="way off")
        assert ok.describe().startswith("PASS")
        assert bad.describe().startswith("FAIL")
        assert "way off" in bad.describe()

    def test_theory_constants(self):
        # k=0.5, vth=1 Landau rate and the cold-beam gamma_max
        assert THEORY_LANDAU_RATE == pytest.approx(-0.1533)
        assert THEORY_TWO_STREAM_RATE == pytest.approx(0.35355, rel=1e-4)


class TestOraclesOnNumpy:
    @pytest.mark.slow
    def test_landau_damping_oracle_passes(self):
        result = landau_damping_oracle("numpy")
        assert result.passed, result.describe()
        # the measured rate must actually be damping, not just in-band
        assert result.measured < -0.1

    @pytest.mark.slow
    def test_two_stream_oracle_passes(self):
        result = two_stream_oracle("numpy")
        assert result.passed, result.describe()
        assert result.measured > 0.2
        assert "amplified" in result.detail

    def test_momentum_oracle_passes(self):
        result = momentum_oracle("numpy")
        assert result.passed, result.describe()

    @pytest.mark.verify_full
    def test_full_battery_passes(self):
        results = run_all_oracles("numpy")
        assert [r.name for r in results] == [
            "landau-damping-rate", "two-stream-growth-rate",
            "energy-drift", "momentum-conservation",
            "bump-on-tail-growth-rate", "beam-plasma-growth-rate",
            "bounded-plasma-confinement", "exb-drift-velocity",
            "two-stream-growth-rate-3d",
        ]
        assert all(r.passed for r in results), "\n".join(
            r.describe() for r in results if not r.passed
        )


class TestVerifyCLI:
    def test_verify_subcommand_passes(self):
        """Acceptance criterion: `repro verify --seed 0 --samples 2`
        reports zero divergences (small sample for tier-1 speed; the
        full --samples 16 sweep runs under `make verify-full`)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "verify",
             "--seed", "0", "--samples", "2", "--no-mp"],
            capture_output=True, text=True,
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verify: PASS" in proc.stdout

    def test_verify_golden_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "verify",
             "--samples", "0", "--golden",
             "--golden-dir", str(ROOT / "golden")],
            capture_output=True, text=True,
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "golden" in proc.stdout
