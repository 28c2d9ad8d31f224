"""The fused single-pass particle loop and the cell-ownership deposit.

Covers the dispatch plumbing (split / fused-backend),
bitwise equivalence of the fused path against the split numpy oracle
across every position-update variant and both field layouts, the
thread-count invariance of the model's cell-ownership deposit, and
the supervisor degrading a fused-capable backend down the chain.

The composite test backend renders ``fused_rows`` / ``fused_standard`` by
composing the split numpy kernels, so it is bitwise-identical to the
split path *by construction* — that isolates the stepper dispatch and
bookkeeping under test from the compiled kernel itself, which the
tests at the bottom exercise on the ``c`` backend.
"""

import numpy as np
import pytest

import repro.core.backends as B
from repro.core import OptimizationConfig, Simulation
from repro.core.backends import CBackend, NumpyBackend, register_backend
from repro.core.kernels import accumulate_rows
from repro.curves import get_ordering
from repro.grid import GridSpec
from repro.model.openmp import cellwise_accumulate_redundant
from repro.particles import LandauDamping
from repro.resilience import FaultInjector, SupervisedRun


class _FusedComposite(NumpyBackend):
    """Numpy backend whose fused kernel is the split kernels run back
    to back on the full arrays — bitwise-equal to the plain numpy
    rendering, so any mismatch a test sees is the stepper's fault, not
    the kernel's.
    """

    name = "fused-composite"
    priority = -5  # never auto-picked
    degrades_to = "numpy"
    def fused_rows(self, e_1d, particles, extents, ordering, variant,
                   coefs, scales):
        p = particles
        e_p = self.interpolate_rows(e_1d, p.icell, (p.dx, p.dy))
        self.kick((p.vx, p.vy), e_p, coefs)
        self.push(p, extents, ordering, variant, scales)

    def fused_standard(self, ex, ey, particles, ordering, variant,
                       coefs, scales):
        p = particles
        if p.store_coords:
            ix, iy = p.ix, p.iy
        else:
            ix, iy = ordering.decode(p.icell)
        e_p = self.interpolate_standard(ex, ey, ix, iy, p.dx, p.dy)
        self.kick((p.vx, p.vy), e_p, coefs)
        self.push(p, ex.shape, ordering, variant, scales)


@pytest.fixture(scope="module", autouse=True)
def _composite_registered():
    register_backend(_FusedComposite)
    try:
        yield
    finally:
        B._REGISTRY.pop(_FusedComposite.name, None)
        B._INSTANCES.pop(_FusedComposite.name, None)


GRID = dict(ncx=16, ncy=16)


def _sim(cfg_kw, n=1500, steps=None, seed=11):
    grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    cfg = OptimizationConfig.fully_optimized().with_(**cfg_kw)
    sim = Simulation(grid, LandauDamping(alpha=0.05), n, cfg, dt=0.05, seed=seed)
    if steps:
        sim.run(steps)
    return sim


def _assert_bitwise_equal_states(a, b):
    for attr in ("icell", "dx", "dy", "vx", "vy"):
        np.testing.assert_array_equal(
            np.asarray(getattr(a.particles, attr)),
            np.asarray(getattr(b.particles, attr)),
            err_msg=attr,
        )
    np.testing.assert_array_equal(a.stepper.rho_grid, b.stepper.rho_grid)
    np.testing.assert_array_equal(a.stepper.ex_grid, b.stepper.ex_grid)
    assert a.history.field_energy == b.history.field_energy


class TestLoopPathDispatch:
    def test_split_path_on_any_backend(self):
        with _sim({"loop_mode": "split", "backend": "fused-composite"},
                  steps=3) as sim:
            t = sim.timings
            assert t.loop_paths == {"split": 3}
            assert t.update_v > 0 and t.fused == 0.0

    def test_fused_on_numpy_runs_backend_kernel(self):
        with _sim({"loop_mode": "fused", "backend": "numpy"}, steps=3) as sim:
            t = sim.timings
            assert t.loop_paths == {"fused-backend": 3}
            assert t.fused > 0 and t.update_v == 0.0 and t.update_x == 0.0

    def test_fused_with_capability_uses_backend_kernel(self):
        with _sim({"loop_mode": "fused", "backend": "fused-composite"},
                  steps=3) as sim:
            t = sim.timings
            assert t.loop_paths == {"fused-backend": 3}
            assert t.fused > 0 and t.update_v == 0.0 and t.update_x == 0.0
            # the deposit still runs, as its own phase
            assert t.accumulate > 0
            rates = t.phase_particles_per_second()
            assert rates["fused"] > 0 and rates["update_v"] == 0.0


class TestFusedBitwiseEquivalence:
    """fused-backend vs the split numpy oracle: identical bits.

    Runs cross a sort step (``sort_period=3``) so the equivalence holds
    through the permutation as well.
    """

    STEPS = 7

    @pytest.mark.parametrize("variant", ["branch", "modulo", "bitwise"])
    @pytest.mark.parametrize("layout", ["redundant", "standard"])
    def test_composite_fused_matches_split_numpy(self, variant, layout):
        base = {"position_update": variant, "field_layout": layout,
                "sort_period": 3}
        with _sim({**base, "loop_mode": "split", "backend": "numpy"},
                  steps=self.STEPS) as split_sim, \
             _sim({**base, "loop_mode": "fused", "backend": "fused-composite"},
                  steps=self.STEPS) as fused_sim:
            assert fused_sim.timings.loop_paths == {"fused-backend": self.STEPS}
            _assert_bitwise_equal_states(fused_sim, split_sim)

    def test_fused_matches_split_without_hoisting(self):
        # non-unit kick coefficients and position scales
        base = {"hoisting": False, "sort_period": 3}
        with _sim({**base, "loop_mode": "split", "backend": "numpy"},
                  steps=self.STEPS) as split_sim, \
             _sim({**base, "loop_mode": "fused", "backend": "fused-composite"},
                  steps=self.STEPS) as fused_sim:
            _assert_bitwise_equal_states(fused_sim, split_sim)


class TestCellwiseParallelDeposit:
    """§V-B private copies + reduction: bitwise thread invariance."""

    def _random_deposit_inputs(self, rng, n=5000):
        o = get_ordering("morton", 16, 16)
        ncells = o.ncells_allocated
        icell = rng.integers(0, ncells, n).astype(np.int64)
        return ncells, icell, rng.random(n), rng.random(n)

    @pytest.mark.parametrize("nthreads", [1, 2, 4, 7])
    def test_bitwise_equal_to_serial_for_any_thread_count(self, rng, nthreads):
        ncells, icell, dx, dy = self._random_deposit_inputs(rng)
        serial = np.zeros((ncells, 4))
        accumulate_rows(serial, icell, (dx, dy), 0.37)
        par = np.zeros((ncells, 4))
        cellwise_accumulate_redundant(par, icell, dx, dy, 0.37, nthreads)
        np.testing.assert_array_equal(par, serial)

    def test_accumulates_into_existing_density(self, rng):
        """The modelled deposit adds its private copies into what
        ``rho_1d`` held (the kernel it calls writes its own target):
        ``base`` plus the serial deposit, bitwise."""
        ncells, icell, dx, dy = self._random_deposit_inputs(rng, n=800)
        base = rng.random((ncells, 4))
        serial = np.zeros((ncells, 4))
        accumulate_rows(serial, icell, (dx, dy), -1.5)
        par = base.copy()
        cellwise_accumulate_redundant(par, icell, dx, dy, -1.5, 4)
        np.testing.assert_array_equal(par, base + serial)


class TestSupervisorDegradesFusedBackend:
    def test_fused_backend_degrades_to_numpy_bitwise(self):
        # numpy's blocked fused sweep is bitwise-equal to the
        # composite's fused kernel — so the clean run, the
        # pre-degradation steps and the post-degradation steps must all
        # agree exactly
        cfg_kw = {"loop_mode": "fused", "sort_period": 3}
        with _sim({**cfg_kw, "backend": "numpy"}, n=1200, seed=7) as clean:
            clean.run(12)
            clean_hist = clean.history

        inj = FaultInjector().add_kernel_raise(
            step=4, kernel="fused_rows", backend="fused-composite",
        )
        sim = _sim({**cfg_kw, "backend": "fused-composite"}, n=1200, seed=7)
        with SupervisedRun(
            sim, checkpoint_every=3, max_retries=1, injector=inj,
        ) as sup:
            h = sup.run(12)
            assert sup.report.degradations == [
                {"step": 4, "from": "fused-composite", "to": "numpy"}
            ]
            assert sup.backend_name == "numpy"
            assert sup.sim.stepper.backend.name == "numpy"
            # the rebuilt stepper runs numpy's own fused kernel
            assert set(sup.sim.timings.loop_paths) == {"fused-backend"}
            assert h.field_energy == clean_hist.field_energy
            assert h.kinetic_energy == clean_hist.kinetic_energy


# ----------------------------------------------------------------------
# The compiled kernels: ckernels.c's fused sweep and cursor sort
# ----------------------------------------------------------------------
@pytest.mark.skipif(not CBackend.is_available(), reason="no C compiler")
class TestCFusedKernels:
    STEPS = 7

    @pytest.mark.parametrize("variant", ["branch", "modulo", "bitwise"])
    @pytest.mark.parametrize("layout", ["redundant", "standard"])
    def test_c_fused_bitwise_matches_split_numpy(self, variant, layout):
        base = {"position_update": variant, "field_layout": layout,
                "sort_period": 3}
        with _sim({**base, "loop_mode": "split", "backend": "numpy"},
                  steps=self.STEPS) as split_sim, \
             _sim({**base, "loop_mode": "fused", "backend": "c"},
                  steps=self.STEPS) as fused_sim:
            assert fused_sim.timings.loop_paths == {"fused-backend": self.STEPS}
            _assert_bitwise_equal_states(fused_sim, split_sim)

    def test_c_fused_matches_split_without_hoisting(self):
        # non-unit kick coefficients and position scales
        base = {"hoisting": False, "sort_period": 3}
        with _sim({**base, "loop_mode": "split", "backend": "numpy"},
                  steps=self.STEPS) as split_sim, \
             _sim({**base, "loop_mode": "fused", "backend": "c"},
                  steps=self.STEPS) as fused_sim:
            _assert_bitwise_equal_states(fused_sim, split_sim)

    def test_c_counting_sort_matches_reference(self, rng):
        from repro.core.backends import get_backend
        from repro.particles.sorting import counting_sort_permutation_reference

        keys = rng.integers(0, 97, 4000).astype(np.int64)
        perm = get_backend("c").counting_sort_permutation(keys, 97)
        np.testing.assert_array_equal(
            perm, counting_sort_permutation_reference(keys, 97)
        )

    def test_c_degrades_to_numpy_bitwise(self):
        """A supervised ``c`` run that loses its fused kernel mid-run
        finishes on ``numpy`` with an undisturbed ``numpy`` run's bits."""
        cfg_kw = {"loop_mode": "fused", "sort_period": 3}
        with _sim({**cfg_kw, "backend": "numpy"}, n=1200, seed=7) as clean:
            clean.run(12)
            clean_hist = clean.history
            clean_state = clean.particles.as_dict()

        inj = FaultInjector().add_kernel_raise(
            step=4, kernel="fused_rows", backend="c",
        )
        sim = _sim({**cfg_kw, "backend": "c"}, n=1200, seed=7)
        with SupervisedRun(
            sim, checkpoint_every=3, max_retries=1, injector=inj,
        ) as sup:
            h = sup.run(12)
            assert sup.report.degradations == [
                {"step": 4, "from": "c", "to": "numpy"}
            ]
            assert sup.sim.stepper.backend.name == "numpy"
            assert h.field_energy == clean_hist.field_energy
            assert h.kinetic_energy == clean_hist.kinetic_energy
            for name, want in clean_state.items():
                np.testing.assert_array_equal(
                    np.asarray(sup.sim.particles[name]), want, err_msg=name
                )
