"""Tests for the differential-verification subsystem (repro.verify).

Covers the three layers the subsystem promises:

* the seeded config-space sampler is deterministic and produces legal
  scenarios;
* the differential runner passes the promise matrix on real backends,
  and its bisector pinpoints an injected single-phase perturbation to
  the exact step/phase/array;
* the scalar :class:`~repro.core.reference.ReferenceStepper` is the
  bitwise baseline: it reproduces the numpy backend exactly over a
  50-step run including counting sorts;
* the golden gate fails on a corrupted digest and on a one-ULP series
  perturbation, and skips cleanly for non-importable backends.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.kernels import wrap_for
from repro.core.reference import ReferenceStepper
from repro.core.stepper import PICStepper
from repro.grid.spec import GridSpec
from repro.model.config import ModelConfig
from repro.particles.initializers import LandauDamping
from repro.verify import (
    DifferentialRunner,
    Perturbation,
    Scenario,
    ScenarioSampler,
    check_golden,
    generate_golden,
    golden_cases,
    load_golden,
    modulo_scenario,
)

ROOT = Path(__file__).resolve().parents[1]

#: ``ScenarioSampler(0).sample(16)`` as the sampler with a loop mode
#: axis, a field-layout axis, a hoisting axis, a sort-variant axis and a
#: push-wrap axis drew it (the hoisting, sort-variant and push-wrap
#: draws dropped): (ncx, ncy, ncz, n_particles, n_steps, case, ordering,
#: sort period, seed)
SEED_0_SCENARIOS = [
    (16, 4, 4, 2000, 6, 'landau', 'row-major', 0, 1746484540),
    (32, 4, 1, 2000, 10, 'exb-drift', 'morton', 2, 1440696408),
    (32, 8, 1, 9000, 10, 'landau', 'morton', 5, 1162779116),
    (32, 8, 1, 2000, 6, 'gaussian-bump', 'row-major', 3, 552547096),
    (32, 4, 1, 2000, 6, 'exb-drift', 'hilbert', 3, 1478428096),
    (32, 8, 1, 9000, 6, 'bounded-wall', 'morton', 2, 1543657889),
    (8, 4, 4, 9000, 10, 'landau', 'morton', 2, 1545136977),
    (16, 16, 1, 2000, 10, 'gaussian-bump', 'column-major', 3, 180421576),
    (32, 4, 1, 2000, 10, 'two-stream', 'column-major', 3, 1231901276),
    (32, 4, 1, 2000, 10, 'beam-plasma', 'morton', 2, 426303516),
    (8, 4, 4, 2000, 10, 'two-stream', 'row-major', 5, 428456153),
    (8, 8, 4, 500, 6, 'two-stream', 'row-major', 5, 1991049241),
    (32, 8, 1, 2000, 10, 'two-stream', 'l4d', 2, 1296558497),
    (8, 4, 4, 2000, 10, 'two-stream', 'row-major', 3, 494452713),
    (8, 4, 4, 2000, 6, 'two-stream', 'morton', 5, 396530696),
    (16, 8, 1, 9000, 10, 'exb-drift', 'morton', 5, 2107100304),
]


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
class TestScenarioSampler:
    def test_deterministic_for_same_seed(self):
        a = ScenarioSampler(seed=7).sample(12)
        b = ScenarioSampler(seed=7).sample(12)
        assert a == b

    def test_different_seeds_differ(self):
        a = ScenarioSampler(seed=0).sample(12)
        b = ScenarioSampler(seed=1).sample(12)
        assert a != b

    def test_seed_0_names_the_scenarios_it_always_named(self):
        """Scenario k of seed 0 is the configuration it was before the
        split/fused, field-layout, hoisting, sort-variant and push-wrap
        axes retired (recorded
        from the samplers that still drew them), in every remaining
        field: the draws they made are still consumed in place."""
        got = [
            (s.ncx, s.ncy, s.ncz, s.n_particles, s.n_steps, s.case_name,
             s.ordering, s.sort_period, s.seed)
            for s in ScenarioSampler(0).sample(16)
        ]
        assert got == SEED_0_SCENARIOS

    def test_scenarios_are_constructible(self):
        # every sampled scenario must produce a valid grid + config on
        # every backend-independent axis (pow2 grid => every ordering legal)
        for s in ScenarioSampler(seed=3).sample(20):
            grid = s.grid()
            assert wrap_for(grid.shape) == "bitwise"
            cfg = s.config(backend="numpy")
            assert cfg.ordering == s.ordering
            assert s.case() is not None

    def test_population_straddles_chunk_size(self):
        """The sampled populations sit on both sides of one kernel
        block (the chunk every NumPy kernel works in)."""
        from repro.core.kernels import BLOCK
        from repro.verify.configspace import _N_PARTICLES_POOL as pools

        assert min(pools) <= BLOCK < max(pools)


def _small_scenario(**overrides) -> Scenario:
    params = dict(
        index=0, ncx=32, ncy=8, n_particles=1500, n_steps=6,
        case_name="landau", ordering="morton",
        sort_period=2,
        seed=11,
    )
    params.update(overrides)
    return Scenario(**params)


# ----------------------------------------------------------------------
# Differential runner
# ----------------------------------------------------------------------
class TestDifferentialRunner:
    def test_promise_matrix_small_sample(self):
        """Fast tier-1 smoke: 3 sampled scenarios, zero divergences."""
        runner = DifferentialRunner(include_mp=False)
        reports = runner.run(ScenarioSampler(seed=0).sample(3))
        for report in reports:
            assert report.ok, report.describe()

    def test_modulo_scenario_wraps_by_modulo_on_every_combo(self):
        """The fixed scenario ``repro verify`` runs after the sampled
        ones: a 24 x 16 grid, whose push no sampled scenario runs."""
        scenario = modulo_scenario(8)
        assert scenario.index == 8
        assert wrap_for(scenario.grid().shape) == "modulo"
        report = DifferentialRunner(include_mp=True, mp_workers=2).run_scenario(
            scenario)
        assert report.pairs and report.sort_permutation_ok
        assert report.ok, report.describe()

    def test_mp_combo_is_bitwise(self):
        runner = DifferentialRunner(include_mp=True, mp_workers=2)
        report = runner.run_scenario(_small_scenario())
        mp = [p for p in report.pairs if p.combo.backend == "numpy-mp"]
        assert mp and mp[0].relation == "bitwise"
        assert report.ok, report.describe()

    @pytest.mark.parametrize("dims", [2, 3])
    def test_every_combo_is_promised_and_found_bitwise(self, dims):
        """The matrix has no tolerance row: in either dimension every
        combo — ``c`` included — is promised bitwise and holds it."""
        from repro.core.backends import available_backends

        scenario = _small_scenario(
            **({"dims": 3, "ncx": 8, "ncy": 4, "ncz": 4} if dims == 3 else {})
        )
        runner = DifferentialRunner(include_mp=True)
        combos = runner.combos(scenario)
        assert {rel for _combo, rel in combos} == {"bitwise"}
        labels = {combo.label() for combo, _rel in combos}
        assert {"numpy-mp/w2", "numpy-mp/w4"} <= labels
        if "c" in available_backends():
            assert "c" in labels
        assert not hasattr(runner, "rtol")
        report = runner.run_scenario(scenario)
        assert report.ok, report.describe()

    def test_bisection_pinpoints_injected_phase(self):
        """A one-ULP bump at (step 2, update_v, vx) must be attributed
        to exactly that step, phase and array."""
        from repro.core.backends import available_backends

        runner = DifferentialRunner(include_mp="c" not in available_backends())
        report = runner.run_scenario(
            _small_scenario(),
            perturbation=Perturbation(step=2, phase="update_v", array="vx"),
        )
        assert report.pairs, "expected a combo in the matrix"
        for diverged in report.pairs:
            assert not diverged.ok
            assert diverged.divergence.step == 2
            assert diverged.divergence.phase == "update_v"
            assert diverged.divergence.array == "vx"

    def test_injection_at_accumulate_localizes_to_accumulate(self):
        runner = DifferentialRunner(include_mp=False)
        report = runner.run_scenario(
            _small_scenario(sort_period=0),
            perturbation=Perturbation(step=1, phase="accumulate",
                                      array="dx", factor=1.0 + 1e-9),
        )
        bad = [p for p in report.pairs if not p.ok]
        assert bad, "perturbation must be detected"
        assert all(p.divergence.step == 1 for p in bad)
        assert all(p.divergence.phase == "accumulate" for p in bad)

    def test_sort_permutation_check_runs(self):
        runner = DifferentialRunner(include_mp=False)
        report = runner.run_scenario(_small_scenario(sort_period=2))
        assert report.sort_permutation_ok is True
        report_nosort = runner.run_scenario(_small_scenario(sort_period=0))
        assert report_nosort.sort_permutation_ok is None

    @pytest.mark.verify_full
    def test_promise_matrix_full(self):
        """The full 16-sample matrix with the mp combo included."""
        runner = DifferentialRunner(include_mp=True, mp_workers=2)
        reports = runner.run(ScenarioSampler(seed=0).sample(16))
        assert all(r.ok for r in reports), "\n".join(
            r.describe() for r in reports if not r.ok
        )


# ----------------------------------------------------------------------
# ReferenceStepper: the bitwise baseline (full step incl. counting sort)
# ----------------------------------------------------------------------
class TestReferenceBaseline:
    def test_reference_matches_numpy_bitwise_50_steps(self):
        grid = GridSpec(32, 8, xmax=4 * np.pi, ymax=2 * np.pi)
        case = LandauDamping(alpha=0.1, vth=1.0)
        cfg = OptimizationConfig(ordering="morton", sort_period=10,
                                 backend="numpy")
        fast = PICStepper(grid, cfg, case=case, n_particles=300,
                          seed=3, quiet=True)
        ref = ReferenceStepper(grid, cfg, case=case, n_particles=300,
                               seed=3, quiet=True)
        try:
            for step in range(50):
                fast.step()
                ref.step()
                for name in ("icell", "dx", "dy", "vx", "vy"):
                    a = np.asarray(getattr(fast.particles, name))
                    b = getattr(ref, name)
                    assert a.tobytes() == b.tobytes(), (step, name)
                assert np.asarray(fast.rho_grid).tobytes() == \
                    ref.rho_grid.tobytes(), step
                assert np.asarray(fast.ex_grid).tobytes() == \
                    ref.ex_grid.tobytes(), step
        finally:
            fast.close()

    @pytest.mark.parametrize("layout,push,hoist", [
        ("standard", "branch", False),
        ("redundant", "modulo", True),
    ])
    def test_reference_matches_other_variants(self, layout, push, hoist):
        grid = GridSpec(16, 8, xmax=4 * np.pi, ymax=2 * np.pi)
        case = LandauDamping(alpha=0.1, vth=1.0)
        cfg = ModelConfig(
            field_layout=layout, ordering="row-major", loop_mode="split",
            position_update=push, hoisting=hoist, sort_period=4,
            backend="numpy",
        )
        fast = PICStepper(grid, cfg, case=case, n_particles=200,
                          seed=5, quiet=True)
        ref = ReferenceStepper(grid, cfg, case=case, n_particles=200,
                               seed=5, quiet=True)
        try:
            fast.run(12)
            ref.run(12)
            for name in ("icell", "dx", "dy", "vx", "vy"):
                a = np.asarray(getattr(fast.particles, name))
                assert a.tobytes() == getattr(ref, name).tobytes(), name
            assert np.asarray(fast.rho_grid).tobytes() == \
                ref.rho_grid.tobytes()
        finally:
            fast.close()

    def test_reference_matches_numpy_on_a_modulo_grid(self):
        """24 x 8 cells: the reference and the stepper take the modulo
        wrap from the same rule, and agree bitwise across sorts."""
        from repro.core.kernels import wrap_for

        grid = GridSpec(24, 8, xmax=4 * np.pi, ymax=2 * np.pi)
        assert wrap_for(grid.shape) == "modulo"
        case = LandauDamping(alpha=0.1, vth=1.0)
        cfg = OptimizationConfig(ordering="row-major", sort_period=4,
                                 backend="numpy")
        fast = PICStepper(grid, cfg, case=case, n_particles=200,
                          seed=5, quiet=True)
        ref = ReferenceStepper(grid, cfg, case=case, n_particles=200,
                               seed=5, quiet=True)
        try:
            fast.run(12)
            ref.run(12)
            for name in ("icell", "dx", "dy", "vx", "vy"):
                a = np.asarray(getattr(fast.particles, name))
                assert a.tobytes() == getattr(ref, name).tobytes(), name
            assert np.asarray(fast.rho_grid).tobytes() == \
                ref.rho_grid.tobytes()
        finally:
            fast.close()


# ----------------------------------------------------------------------
# Golden gate
# ----------------------------------------------------------------------
class TestGoldenGate:
    @pytest.fixture(scope="class")
    def landau_doc(self):
        path = ROOT / "golden" / "GOLDEN_landau.json"
        return load_golden(path)

    def test_committed_golden_passes_on_numpy(self, landau_doc):
        result = check_golden(landau_doc, "numpy")
        assert result.ok, result.describe()

    def test_corrupted_digest_fails(self, landau_doc):
        bad = copy.deepcopy(landau_doc)
        digest = bad["digests"][20]
        bad["digests"][20] = ("0" if digest[0] != "0" else "1") + digest[1:]
        result = check_golden(bad, "numpy")
        assert not result.ok
        assert any("digest" in m for m in result.mismatches)

    def test_one_ulp_series_perturbation_fails(self, landau_doc):
        bad = copy.deepcopy(landau_doc)
        v = bad["series"]["field_energy"][10]
        bad["series"]["field_energy"][10] = float(np.nextafter(v, np.inf))
        result = check_golden(bad, "numpy")
        assert not result.ok
        assert any("field_energy" in m for m in result.mismatches)

    def test_gate_tool_fails_on_corrupted_golden(self, landau_doc, tmp_path):
        import sys

        sys.path.insert(0, str(ROOT / "tools"))
        try:
            import verify_gate
        finally:
            sys.path.pop(0)
        # corrupt one digest of one case, leave the other intact
        for name in golden_cases():
            src = ROOT / "golden" / f"GOLDEN_{name}.json"
            (tmp_path / src.name).write_text(src.read_text())
        bad = copy.deepcopy(landau_doc)
        digest = bad["digests"][5]
        bad["digests"][5] = ("f" if digest[0] != "f" else "e") + digest[1:]
        (tmp_path / "GOLDEN_landau.json").write_text(json.dumps(bad))
        rc = verify_gate.main(
            ["--golden-dir", str(tmp_path), "--backend", "numpy"]
        )
        assert rc == 1

    def test_gate_tool_skips_unimportable_backend(self, tmp_path, capsys,
                                                  monkeypatch):
        import sys

        sys.path.insert(0, str(ROOT / "tools"))
        try:
            import verify_gate
        finally:
            sys.path.pop(0)
        from repro.core.backends import CBackend

        # a host without a C compiler
        monkeypatch.setattr(CBackend, "is_available", classmethod(lambda cls: False))
        for name in golden_cases():
            src = ROOT / "golden" / f"GOLDEN_{name}.json"
            (tmp_path / src.name).write_text(src.read_text())
        rc = verify_gate.main(
            ["--golden-dir", str(tmp_path), "--backend", "c"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "SKIP" in out
        assert "gate-status: verify-gate/c skipped(no cc)" in out

    def test_missing_golden_reports_error(self, tmp_path):
        import sys

        sys.path.insert(0, str(ROOT / "tools"))
        try:
            import verify_gate
        finally:
            sys.path.pop(0)
        rc = verify_gate.main(
            ["--golden-dir", str(tmp_path / "nowhere"), "--backend", "numpy"]
        )
        assert rc == 2

    @pytest.mark.verify_full
    def test_regenerated_matches_committed(self):
        """Regeneration is reproducible: fresh documents equal committed."""
        for name in golden_cases():
            committed = load_golden(ROOT / "golden" / f"GOLDEN_{name}.json")
            fresh = generate_golden(name)
            assert fresh["digests"] == committed["digests"], name
            assert fresh["series"] == committed["series"], name
