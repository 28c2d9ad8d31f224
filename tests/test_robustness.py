"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.core import OptimizationConfig, PICStepper, Simulation
from repro.core.backends import CBackend, get_backend
from repro.core.kernels import (
    accumulate_rows,
    interpolate_rows,
)
from repro.curves import get_ordering
from repro.grid import GridSpec, RedundantFields
from repro.particles import LandauDamping, ParticleSoA
from repro.particles.sorting import counting_sort_permutation
from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D


def push_positions_bitwise(s, ncx, ncy, ordering):
    """The in-place push of the NumPy kernels (bitwise on these
    power-of-two grids)."""
    get_backend("numpy").push(s, (ncx, ncy), ordering, (1.0, 1.0))


class TestEmptyAndTiny:
    def test_kernels_accept_empty_populations(self):
        o = get_ordering("morton", 8, 8)
        rho = np.zeros((o.ncells_allocated, 4))
        empty_i = np.array([], dtype=np.int64)
        empty_f = np.array([])
        accumulate_rows(rho, empty_i, (empty_f, empty_f))
        assert rho.sum() == 0
        ex, ey = interpolate_rows(np.zeros((64, 8)), empty_i, (empty_f, empty_f))
        assert len(ex) == 0

    def test_push_empty_storage(self):
        o = get_ordering("morton", 8, 8)
        s = ParticleSoA(0)
        push_positions_bitwise(s, 8, 8, o)  # must not raise
        assert s.n == 0

    def test_sort_empty_and_single(self):
        for n in (0, 1):
            s = ParticleSoA(n)
            if n:
                s.set_state(np.array([3]), np.array([0.5]), np.array([0.5]),
                            np.array([1.0]), np.array([0.0]), np.array([1]),
                            np.array([1]))
            perm = counting_sort_permutation(s.icell, 64)
            assert s.reorder(perm, out=s.clone_empty()).n == n
            assert s.reorder(perm) is s

    def test_single_particle_simulation(self):
        grid = GridSpec(8, 8, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        sim = Simulation(
            grid, LandauDamping(alpha=0.0), 1,
            OptimizationConfig(), dt=0.1, quiet=True, seed=None,
        )
        sim.run(10)
        # a single particle with a neutralizing background: E ~ self-field
        assert np.isfinite(sim.history.total_energy).all()


class TestExtremeMotion:
    def test_multi_box_crossings_per_step(self, rng):
        """Particles crossing many periods per step stay consistent —
        the general case §IV-C insists on handling (contrast with the
        move-at-most-one-cell tricks the paper rejects)."""
        o = get_ordering("morton", 16, 16)
        n = 500
        s = ParticleSoA(n)
        ix = rng.integers(0, 16, n)
        iy = rng.integers(0, 16, n)
        s.set_state(o.encode(ix, iy), rng.random(n), rng.random(n),
                    rng.normal(0, 300, n), rng.normal(0, 300, n), ix, iy)
        push_positions_bitwise(s, 16, 16, o)
        assert np.asarray(s.ix).min() >= 0 and np.asarray(s.ix).max() < 16
        assert np.asarray(s.dx).min() >= 0 and np.asarray(s.dx).max() <= 1.0

    def test_large_dt_remains_stable_numerically(self):
        """A CFL-violating dt gives bad physics but must not corrupt
        the data structures (finite values, valid indices)."""
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        st = PICStepper(
            grid, OptimizationConfig(),
            case=LandauDamping(alpha=0.3), n_particles=2000,
            dt=5.0, quiet=True, seed=None,
        )
        st.run(10)
        assert np.isfinite(np.asarray(st.particles.dx)).all()
        assert np.isfinite(st.ex_grid).all()
        icell = np.asarray(st.particles.icell)
        assert icell.min() >= 0 and icell.max() < st.ordering.ncells_allocated

    @pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
    def test_nonpositive_dt_is_refused(self, dt):
        """Hoisted units divide by ``dt``: both steppers refuse one that
        is not positive, as a submitted job does."""
        with pytest.raises(ValueError, match="dt must be positive"):
            PICStepper(GridSpec(16, 16), OptimizationConfig(),
                       case=LandauDamping(), n_particles=100, dt=dt)
        with pytest.raises(ValueError, match="dt must be positive"):
            PICStepper3D(GridSpec3D(8, 4, 4), LandauDamping3D(), 100, dt=dt)


class TestConservationUnderStress:
    @pytest.mark.parametrize("ordering", ["row-major", "morton"])
    def test_charge_conserved_with_fast_particles(self, rng, ordering):
        o = get_ordering(ordering, 16, 16)
        fields_grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        fields = RedundantFields(fields_grid, o)
        n = 3000
        s = ParticleSoA(n)
        ix = rng.integers(0, 16, n)
        iy = rng.integers(0, 16, n)
        s.set_state(o.encode(ix, iy), rng.random(n), rng.random(n),
                    rng.normal(0, 40, n), rng.normal(0, 40, n), ix, iy)
        for _ in range(5):
            push_positions_bitwise(s, 16, 16, o)
            accumulate_rows(fields.rho_1d, s.icell, (s.dx, s.dy), 1.0)
            assert fields.rho_1d.sum() == pytest.approx(n, rel=1e-12)

    def test_all_particles_in_one_cell(self):
        """Pathological clustering (every particle in cell 0)."""
        o = get_ordering("morton", 8, 8)
        n = 1000
        rho = np.zeros((o.ncells_allocated, 4))
        accumulate_rows(
            rho, np.zeros(n, dtype=np.int64),
            (np.full(n, 0.25), np.full(n, 0.75)), 1.0,
        )
        assert rho.sum() == pytest.approx(n)
        assert np.count_nonzero(rho.sum(axis=1)) == 1


class TestSolverRobustness:
    def test_poisson_with_delta_rho(self, rng):
        from repro.grid import SpectralPoissonSolver

        g = GridSpec(32, 32, 0.0, 2 * np.pi, 0.0, 2 * np.pi)
        rho = np.zeros((32, 32))
        rho[5, 7] = 1000.0
        phi, ex, ey = SpectralPoissonSolver(g).solve(rho)
        assert np.isfinite(phi).all() and np.isfinite(ex).all()
        # the field points away from the positive charge nearby
        assert ex[6, 7] > 0 and ex[4, 7] < 0

    def test_poisson_extreme_magnitudes(self):
        from repro.grid import SpectralPoissonSolver

        g = GridSpec(16, 16)
        rho = np.full((16, 16), 1e12)
        rho[0, 0] += 1e12
        phi, *_ = SpectralPoissonSolver(g).solve(rho)
        assert np.isfinite(phi).all()


# ----------------------------------------------------------------------
# Resilience layer: guards, fault injection, supervised runs
# ----------------------------------------------------------------------
import os

from repro.grid import GridSpec as _GridSpec  # noqa: E402 (section-local)
from repro.resilience import (
    FaultInjector,
    GuardSuite,
    InjectedKernelError,
    SupervisedRun,
    SupervisionError,
    truncate_file,
)
from repro.resilience.guards import (  # noqa: E402
    CellBoundsGuard,
    FiniteGuard,
    GuardViolation,
)


def _landau_sim(backend="numpy", n=2000, **cfg_kw):
    grid = _GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    cfg = OptimizationConfig(backend=backend, **cfg_kw)
    return Simulation(grid, LandauDamping(alpha=0.05), n, cfg, dt=0.05, seed=7)


def _clean_history(n_steps):
    with _landau_sim() as sim:
        sim.run(n_steps)
        return sim.history


class TestGuards:
    def test_clean_run_passes_default_suite(self):
        suite = GuardSuite.default()
        with _landau_sim() as sim:
            sim.run(3)
            assert suite.check(sim.stepper, sim.history, 3) == []

    def test_finite_guard_flags_nan(self):
        suite = GuardSuite.from_spec("finite")
        with _landau_sim() as sim:
            np.asarray(sim.particles.vx)[5] = np.nan
            (v,) = suite.check(sim.stepper, sim.history, 1)
            assert v.guard == "finite" and "vx" in v.message

    def test_cells_guard_flags_out_of_range(self):
        suite = GuardSuite.from_spec("cells")
        with _landau_sim() as sim:
            np.asarray(sim.particles.icell)[0] = (
                sim.stepper.ordering.ncells_allocated + 5
            )
            (v,) = suite.check(sim.stepper, sim.history, 1)
            assert v.guard == "cells" and v.value == 1

    def test_charge_guard_flags_lost_deposit(self):
        suite = GuardSuite.from_spec("charge:1e-8")
        with _landau_sim() as sim:
            sim.stepper.rho_grid *= 0.5
            (v,) = suite.check(sim.stepper, sim.history, 1)
            assert v.guard == "charge" and v.value > v.threshold

    def test_spec_parsing(self):
        assert GuardSuite.from_spec("none").guards == []
        assert GuardSuite.from_spec("default").names == (
            "finite", "cells", "charge",
        )
        assert "energy" in GuardSuite.from_spec("all").names
        suite = GuardSuite.from_spec("charge:1e-4,energy:0.5")
        assert suite.guards[0].tol == 1e-4
        assert suite.guards[1].ceiling == 0.5
        with pytest.raises(ValueError, match="unknown guard"):
            GuardSuite.from_spec("entropy")
        with pytest.raises(ValueError, match="no parameter"):
            GuardSuite.from_spec("finite:3")


def _exact_finite(stepper, step):
    """The finite guard's verdict by a mask count over every array."""
    scans = [(stepper.particles, FiniteGuard._PARTICLE_ARRAYS, "particles."),
             (stepper, FiniteGuard._GRID_ARRAYS, "")]
    for owner, attrs, prefix in scans:
        for attr in attrs:
            arr = np.asarray(getattr(owner, attr))
            bad = arr.size - int(np.isfinite(arr).sum())
            if bad:
                return GuardViolation(
                    "finite", step,
                    f"{bad} non-finite value(s) in {prefix}{attr}", float(bad))
    return None


def _exact_cells(stepper, step):
    """The cells guard's verdict by a mask count over every column."""
    p = stepper.particles
    nalloc = stepper.ordering.ncells_allocated
    icell = np.asarray(p.icell)
    bad = int(((icell < 0) | (icell >= nalloc)).sum())
    if bad:
        return GuardViolation(
            "cells", step,
            f"{bad} particle(s) outside the allocated cell range "
            f"[0, {nalloc})",
            float(bad), float(nalloc))
    for attr in ("dx", "dy"):
        off = np.asarray(getattr(p, attr))
        bad = int(((off < 0.0) | (off > 1.0)).sum())
        if bad:
            return GuardViolation(
                "cells", step, f"{bad} particle(s) with {attr} outside [0, 1]",
                float(bad))
    return None


#: plants for every finite-guard array: (name, values), put at
#: positions 3 and 200 of the flattened array
_FINITE_PLANTS = [
    ("nan", [np.nan]),
    ("+inf", [np.inf]),
    ("-inf", [-np.inf]),
    ("+inf,-inf", [np.inf, -np.inf]),
    ("overflowing-sum", [1e308, 1e308]),
]

#: plants for the cells guard's columns; ``"nalloc"`` stands for the
#: ordering's ``ncells_allocated``
_CELL_PLANTS = [
    ("icell", "-1", [-1]),
    ("icell", "nalloc", ["nalloc"]),
    ("icell", "both-ends", [-1, "nalloc"]),
    *[(col, name, vals) for col in ("dx", "dy") for name, vals in [
        ("-1e-17", [-1e-17]),
        ("1+ulp", [1.0 + 2.0 ** -52]),
        ("nan", [np.nan]),
        ("-nan", [-np.nan]),
        ("-0.0", [-0.0]),
        ("+inf", [np.inf]),
        ("overflowing-sum", [1e308, 1e308]),
    ]],
]


class TestGuardFastPath:
    """``finite`` and ``cells`` settle a clean state with one reduction
    per array; whatever the planted value, their verdict (name, step,
    value, threshold, message) is the exact mask count's."""

    STEP = 4

    def _plant_and_check(self, owner, attr, vals):
        with _landau_sim() as sim:
            sim.run(2)
            owner = sim.stepper if owner == "stepper" else sim.particles
            arr = np.asarray(getattr(owner, attr))
            nalloc = sim.stepper.ordering.ncells_allocated
            vals = [nalloc if v == "nalloc" else v for v in vals]
            np.put(arr, [3, 200][:len(vals)], vals)
            st = sim.stepper
            got = {g.name: g.check(st, sim.history, self.STEP)
                   for g in (FiniteGuard(), CellBoundsGuard())}
            want = {"finite": _exact_finite(st, self.STEP),
                    "cells": _exact_cells(st, self.STEP)}
            assert got == want
            return got

    def test_clean_state_passes_both(self):
        with _landau_sim() as sim:
            sim.run(2)
            assert _exact_finite(sim.stepper, 0) is None
            assert _exact_cells(sim.stepper, 0) is None
            assert FiniteGuard().check(sim.stepper, sim.history, 0) is None
            assert CellBoundsGuard().check(sim.stepper, sim.history, 0) is None

    @pytest.mark.parametrize("plant", _FINITE_PLANTS, ids=lambda p: p[0])
    @pytest.mark.parametrize("attr", [*FiniteGuard._PARTICLE_ARRAYS,
                                      *FiniteGuard._GRID_ARRAYS])
    def test_finite_plants(self, attr, plant):
        name, vals = plant
        particle = attr in FiniteGuard._PARTICLE_ARRAYS
        owner = "particles" if particle else "stepper"
        got = self._plant_and_check(owner, attr, vals)
        if name == "overflowing-sum":  # finite values: the guard is silent
            assert got["finite"] is None
        else:
            assert got["finite"].value == len(vals)
            assert attr in got["finite"].message

    @pytest.mark.parametrize("col, name, vals", _CELL_PLANTS,
                             ids=[f"{c}-{n}" for c, n, _ in _CELL_PLANTS])
    def test_cell_plants(self, col, name, vals):
        got = self._plant_and_check("particles", col, vals)
        if name in ("nan", "-nan"):  # the finite guard's, not a bounds breach
            assert got["cells"] is None and got["finite"].value == 1
        elif name == "-0.0":  # in bounds: -0.0 == 0.0
            assert got == {"cells": None, "finite": None}
        else:
            assert got["cells"].value == len(vals)


class TestFaultInjector:
    def test_nan_poison_is_deterministic(self):
        masks = []
        for _ in range(2):
            with _landau_sim() as sim:
                FaultInjector(seed=42).add_nan(step=0, array="vx", count=6) \
                    .before_step(sim.stepper, 0)
                masks.append(np.isnan(np.asarray(sim.particles.vx)).copy())
        assert masks[0].sum() == 6
        np.testing.assert_array_equal(masks[0], masks[1])

    def test_kernel_trap_raises_and_delegates(self):
        inj = FaultInjector().add_kernel_raise(
            step=2, kernel="kick", once=True,
        )
        with _landau_sim() as sim:
            real = sim.stepper.backend
            inj.before_step(sim.stepper, 0)  # before the armed step
            assert sim.stepper.backend is real
            inj.before_step(sim.stepper, 2)
            assert sim.stepper.backend is not real
            assert sim.stepper.backend.name == real.name  # delegation
            with pytest.raises(InjectedKernelError):
                sim.stepper.backend.kick((), (), ())
            # once=True: the next before_step removes the spent trap
            inj.before_step(sim.stepper, 3)
            assert sim.stepper.backend is real

    @pytest.mark.skipif(not CBackend.is_available(), reason="no C compiler")
    @pytest.mark.parametrize("kernel", ["update_v", "push", "interpolate_rows",
                                        "kick"])
    def test_trap_on_a_loop_fires_on_the_one_pass_c_step(self, kernel):
        """An unhooked ``c`` step runs update-v and the push as one
        ``advance`` call: a trap on either loop, or on a half of
        update-v, fires there, before the pass writes anything."""
        with _landau_sim("c") as sim:
            before = sim.particles.as_dict()
            FaultInjector().add_kernel_raise(step=0, kernel=kernel) \
                .before_step(sim.stepper, 0)
            assert sim.stepper.phase_hook is None
            with pytest.raises(InjectedKernelError, match="'advance'"):
                sim.stepper.step()
            for name, want in before.items():
                np.testing.assert_array_equal(
                    np.asarray(sim.particles[name]), want, err_msg=name)

    def test_unknown_kernel_name_is_refused_at_arm_time(self):
        # a name no stepper fetches would never fire
        for name in ("update_velocities", "accumulate_redundant", "kcik"):
            with pytest.raises(ValueError, match="cannot trap"):
                FaultInjector().add_kernel_raise(step=2, kernel=name)

    def test_truncate_file(self, tmp_path):
        p = tmp_path / "blob.bin"
        p.write_bytes(b"x" * 1000)
        assert truncate_file(p, fraction=0.5) == 500
        assert p.stat().st_size == 500


class TestSupervisedRun:
    def test_nan_fault_rolls_back_and_recovers(self):
        clean = _clean_history(20)
        inj = FaultInjector(seed=3).add_nan(step=12, array="vx", count=5)
        with SupervisedRun(
            _landau_sim(), checkpoint_every=5, injector=inj,
        ) as sup:
            h = sup.run(20)
            assert sup.sim.stepper.iteration == 20
            assert sup.report.rollbacks >= 1
            assert sup.report.recoveries == len(sup.report.failures) >= 1
            assert sup.report.failures[0]["error"] == "GuardTrippedError"
            # the rolled-back steps re-run bit-identically
            assert h.field_energy == clean.field_energy
            assert h.kinetic_energy == clean.kinetic_energy

    def test_no_fault_supervised_is_bitwise_identical(self):
        clean = _clean_history(15)
        with SupervisedRun(_landau_sim(), checkpoint_every=4) as sup:
            h = sup.run(15)
            assert sup.report.rollbacks == 0 and not sup.report.failures
            assert h.times == clean.times
            assert h.field_energy == clean.field_energy
            assert h.kinetic_energy == clean.kinetic_energy
            assert h.mode_amplitude == clean.mode_amplitude

    def test_persistent_fault_exhausts_retries_and_raises(self):
        # numpy is the end of the degradation chain, so a fault that
        # never clears must surface as SupervisionError, with the
        # report attached
        inj = FaultInjector().add_kernel_raise(step=2, once=False)
        with SupervisedRun(
            _landau_sim(), checkpoint_every=2, max_retries=2, injector=inj,
        ) as sup:
            with pytest.raises(SupervisionError) as ei:
                sup.run(10)
            assert ei.value.report is sup.report
            assert len(sup.report.failures) > 2

    def test_torn_checkpoint_is_discarded_during_rollback(self, tmp_path):
        clean = _clean_history(10)
        inj = FaultInjector(seed=1).add_nan(step=5, count=3)
        with SupervisedRun(
            _landau_sim(), checkpoint_dir=tmp_path, checkpoint_every=2,
            keep_checkpoints=5, injector=inj,
        ) as sup:
            sup.run(5)  # checkpoints at 0, 2, 4
            truncate_file(tmp_path / "ckpt-00000004.npz", fraction=0.3)
            sup.run(5)  # NaN at 5 -> rollback skips the torn archive
            assert sup.report.checkpoints_discarded >= 1
            assert sup.report.rollbacks >= 1
            assert sup.sim.stepper.iteration == 10
            assert sup.sim.history.field_energy == clean.field_energy
        # user-supplied rotation dir survives close; no temp litter
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob("ckpt-*.npz"))

    def test_rotation_keeps_newest_k(self, tmp_path):
        with SupervisedRun(
            _landau_sim(), checkpoint_dir=tmp_path, checkpoint_every=2,
            keep_checkpoints=2,
        ) as sup:
            sup.run(10)
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.npz"))
        assert names == ["ckpt-00000006.npz", "ckpt-00000008.npz"]

    def test_degrades_numpy_mp_to_numpy(self):
        clean = _clean_history(12)
        inj = FaultInjector().add_kernel_raise(
            step=4, kernel="kick", backend="numpy-mp",
        )
        sim = _landau_sim("numpy-mp", workers=2)
        segs = list(sim.stepper.backend.engine_for(sim.stepper).arena.segment_names)
        with SupervisedRun(
            sim, checkpoint_every=3, max_retries=1, injector=inj,
        ) as sup:
            h = sup.run(12)
            assert sup.report.degradations == [
                {"step": 4, "from": "numpy-mp", "to": "numpy"}
            ]
            assert sup.backend_name == "numpy"
            assert sim.stepper.backend.name == "numpy"
            assert h.field_energy == clean.field_energy
        if os.path.isdir("/dev/shm"):
            left = [s for s in segs if os.path.exists("/dev/shm/" + s)]
            assert left == [], f"leaked shared-memory segments: {left}"

    @staticmethod
    def _assert_push_trap_degrades_to_numpy_bitwise(backend):
        """A supervised ``backend`` run whose push raises from step 4
        finishes on ``numpy`` with an undisturbed ``numpy`` run's bits."""
        with _landau_sim(n=1200, sort_period=3) as clean:
            clean.run(12)
            clean_hist = clean.history
            clean_state = clean.particles.as_dict()
        inj = FaultInjector().add_kernel_raise(
            step=4, kernel="push", backend=backend,
        )
        sim = _landau_sim(backend, n=1200, sort_period=3)
        with SupervisedRun(
            sim, checkpoint_every=3, max_retries=1, injector=inj,
        ) as sup:
            h = sup.run(12)
            assert sup.report.degradations == [
                {"step": 4, "from": backend, "to": "numpy"}
            ]
            assert sup.sim.stepper.backend.name == "numpy"
            assert h.field_energy == clean_hist.field_energy
            assert h.kinetic_energy == clean_hist.kinetic_energy
            for name, want in clean_state.items():
                np.testing.assert_array_equal(
                    np.asarray(sup.sim.particles[name]), want, err_msg=name
                )

    def test_custom_backend_degrades_to_numpy_bitwise(self):
        """A registered backend of its own that degrades to ``numpy``."""
        import repro.core.backends as B

        @B.register_backend
        class Custom(B.NumpyBackend):
            name = "custom-numpy"
            priority = -5  # never auto-picked
            degrades_to = "numpy"

        try:
            self._assert_push_trap_degrades_to_numpy_bitwise("custom-numpy")
        finally:
            B._REGISTRY.pop(Custom.name, None)
            B._INSTANCES.pop(Custom.name, None)

    @pytest.mark.skipif(
        not CBackend.is_available(), reason="no C compiler"
    )
    def test_degrades_c_to_numpy_bitwise(self):
        self._assert_push_trap_degrades_to_numpy_bitwise("c")

    def test_report_published_into_timings_json(self):
        import json

        inj = FaultInjector(seed=2).add_nan(step=3)
        with SupervisedRun(
            _landau_sim(), checkpoint_every=2, injector=inj,
        ) as sup:
            sup.run(6)
            rec = json.loads(sup.timings_json())
            assert rec["supervisor"]["rollbacks"] == sup.report.rollbacks >= 1
            assert rec["cumulative"]["rollbacks"] >= 1


class TestCloseIdempotency:
    @pytest.mark.parametrize("backend", ["numpy", "numpy-mp"])
    def test_close_is_idempotent_on_exception_paths(self, backend):
        kw = {"workers": 2} if backend == "numpy-mp" else {}
        sim = _landau_sim(backend, **kw)
        segs = []
        if backend == "numpy-mp":
            segs = list(
                sim.stepper.backend.engine_for(sim.stepper).arena.segment_names
            )
        with pytest.raises(RuntimeError, match="boom"):
            with sim:
                sim.run(2)
                raise RuntimeError("boom")
        sim.close()  # second close: no-op, no raise
        sim.close()
        if segs and os.path.isdir("/dev/shm"):
            left = [s for s in segs if os.path.exists("/dev/shm/" + s)]
            assert left == [], f"leaked shared-memory segments: {left}"

    def test_supervisor_close_is_idempotent(self, tmp_path):
        sup = SupervisedRun(_landau_sim(), checkpoint_every=3)
        sup.run(3)
        tmp_rotation = sup.rotation.directory
        sup.close()
        sup.close()
        assert not tmp_rotation.exists()  # private temp dir removed
