"""Cross-backend equivalence: every registered backend vs the oracles.

Every backend the registry knows (and whose dependencies are
installed) must reproduce the scalar reference kernels of
:mod:`repro.core.reference` on float64 to tight tolerance — the same
oracle discipline `tests/test_core_kernels.py` applies to the numpy
kernels, now applied uniformly through the backend interface.  The
compiler-less path (registry still lists `c`, `get_backend` refuses
politely, "auto" falls back) is covered by masking the compiler, so it
runs on every host; the `c`-vs-`numpy` bitwise matrix is in
`tests/test_ckernels.py`.
"""

import numpy as np
import pytest

from repro.core import OptimizationConfig, Simulation
from repro.core.backends import (
    AUTO,
    BackendUnavailableError,
    CBackend,
    KernelBackend,
    available_backends,
    get_backend,
    known_backend_names,
    resolve_backend_name,
)
from repro.core.reference import (
    accumulate_redundant_ref,
    interpolate_redundant_ref,
    push_axis_ref,
    push_axis_variant_ref,
)
from repro.curves import get_ordering
from repro.grid import GridSpec
from repro.particles import LandauDamping
from tests.conftest import random_particle_arrays

NCX = NCY = 16
N = 300


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A host with no C compiler and nothing cached: ``PATH`` and the
    cache directories point at empty directories, and the instance
    the registry may already hold is set aside."""
    import repro.core.backends as B

    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    monkeypatch.delitem(B._INSTANCES, "c", raising=False)


@pytest.fixture(params=sorted(available_backends()))
def backend(request):
    """Each backend whose dependencies are installed."""
    return get_backend(request.param)


# ----------------------------------------------------------------------
# Registry behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_registry_lists_exactly_three(self):
        assert known_backend_names() == ("numpy", "c", "numpy-mp")

    def test_surface_is_ten_kernels_three_hooks_seven_adapters(self):
        """What a backend can override is the abstract set — the
        particle loops over redundant rows (update-v and the push as
        one pass among them), that layout's two per-cell loops and the
        energies' sum of squares; the axis-spelled names the
        frozen ledger calls are adapters defined once on the base
        class, and no registered backend overrides one."""
        import repro.core.backends as B

        kernels = {
            "interpolate_rows", "accumulate_rows", "kick", "update_v",
            "push", "counting_sort_permutation", "reduce_rows",
            "broadcast_rows", "sum_squares", "advance",
        }
        hooks = {"is_available", "prepare_stepper", "release_stepper"}
        adapters = {
            "interpolate_redundant", "interpolate_redundant_3d",
            "accumulate_redundant", "accumulate_redundant_3d",
            "update_velocities", "push_positions", "push_positions_3d",
        }
        assert KernelBackend.__abstractmethods__ == kernels
        public = {
            name for name, value in vars(KernelBackend).items()
            if not name.startswith("_") and callable(getattr(KernelBackend, name))
        }
        assert public == kernels | hooks | adapters
        for name in known_backend_names():
            for adapter in adapters:
                assert (getattr(B._REGISTRY[name], adapter)
                        is getattr(KernelBackend, adapter)), (name, adapter)

    def test_c_always_registered(self, no_compiler):
        # registered even when it cannot build: the name is known, the
        # instantiation is what's gated
        assert "c" in known_backend_names()
        assert "c" not in available_backends()

    def test_auto_resolves_to_available(self):
        assert resolve_backend_name(AUTO) in available_backends()

    def test_explicit_name_resolves_to_itself(self):
        assert resolve_backend_name("numpy") == "numpy"

    def test_unknown_backend_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown kernel backend"):
            get_backend("not-a-backend")

    def test_get_backend_is_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_config_validates_backend_names(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            OptimizationConfig(backend="fortran")
        for name in (AUTO, *known_backend_names()):
            assert OptimizationConfig(backend=name).backend == name

    def test_config_resolved_backend(self):
        assert resolve_backend_name(OptimizationConfig().backend) in available_backends()
        assert resolve_backend_name(OptimizationConfig(backend="numpy").backend) == "numpy"

    def test_c_without_compiler_raises_unavailable(self, no_compiler):
        with pytest.raises(BackendUnavailableError, match="C compiler on PATH"):
            get_backend("c")

    def test_auto_falls_back_to_numpy_without_compiler(self, no_compiler):
        assert resolve_backend_name(AUTO) == "numpy"
        assert get_backend(AUTO).name == "numpy"

    @pytest.mark.skipif(not CBackend.is_available(), reason="no C compiler")
    def test_auto_prefers_c_where_it_builds(self):
        assert resolve_backend_name(AUTO) == "c"

    def test_retired_numba_name_is_rejected(self):
        from repro.service import PICJob

        with pytest.raises(KeyError, match="unknown kernel backend"):
            get_backend("numba")
        with pytest.raises(ValueError, match="backend must be one of"):
            OptimizationConfig(backend="numba")
        with pytest.raises(ValueError, match="backend must be one of"):
            PICJob(backend="numba")


# ----------------------------------------------------------------------
# Kernel equivalence vs the scalar oracles (parametrized over backends)
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    def test_accumulate_redundant(self, backend, rng):
        ix, iy, dx, dy, _, _ = random_particle_arrays(rng, N, NCX, NCY)
        ordering = get_ordering("morton", NCX, NCY)
        icell = ordering.encode(ix, iy)
        ncells = ordering.ncells_allocated
        rho = np.zeros((ncells, 4))
        ref = np.zeros((ncells, 4))
        backend.accumulate_redundant(rho, icell, dx, dy, charge=1.3)
        accumulate_redundant_ref(ref, icell, dx, dy, charge=1.3)
        np.testing.assert_allclose(rho, ref, atol=1e-12)

    def test_interpolate_redundant(self, backend, rng):
        ix, iy, dx, dy, _, _ = random_particle_arrays(rng, N, NCX, NCY)
        ordering = get_ordering("morton", NCX, NCY)
        icell = ordering.encode(ix, iy)
        e_1d = rng.random((ordering.ncells_allocated, 8))
        got = backend.interpolate_redundant(e_1d, icell, dx, dy)
        want = interpolate_redundant_ref(e_1d, icell, dx, dy)
        np.testing.assert_allclose(got[0], want[0], atol=1e-13)
        np.testing.assert_allclose(got[1], want[1], atol=1e-13)

    def test_update_velocities(self, backend, rng):
        for coef in (1.0, -0.37):
            vx = rng.normal(size=N)
            vy = rng.normal(size=N)
            ex_p = rng.normal(size=N)
            ey_p = rng.normal(size=N)
            want_x = vx + coef * ex_p
            want_y = vy + coef * ey_p
            backend.update_velocities(vx, vy, ex_p, ey_p, coef, coef)
            np.testing.assert_allclose(vx, want_x, atol=1e-14)
            np.testing.assert_allclose(vy, want_y, atol=1e-14)

    @staticmethod
    def _at_rest(x, y, ncx, ncy):
        """A population whose push lands it at ``(x, y)``: everyone in
        cell (0, 0) at offset 0, the whole move in the velocity."""
        from repro.particles import ParticleSoA

        n = len(x)
        zi, zf = np.zeros(n, dtype=np.int64), np.zeros(n)
        s = ParticleSoA(n)
        s.set_state(zi, zf, zf, x, y, zi, zi)
        return s, get_ordering("row-major", ncx, ncy)

    @pytest.mark.parametrize("variant", ["branch", "modulo", "bitwise"])
    def test_push_axis_vs_reference(self, backend, rng, variant):
        """Through the ledger's adapter, whatever wrap it is handed,
        on a power-of-two grid (bitwise) and one that is not (modulo)."""
        for nc in (NCX, 12):
            # positions up to several periods outside the box, both signs
            x = rng.uniform(-3 * nc, 4 * nc, 500)
            s, ordering = self._at_rest(x, x[::-1].copy(), nc, nc)
            backend.push_positions(s, nc, nc, ordering, variant, 1.0, 1.0)
            for x_a, i, off in ((x, s.ix, s.dx), (x[::-1], s.iy, s.dy)):
                assert np.all((0 <= i) & (i < nc))
                assert np.all((0.0 <= off) & (off < 1.0))
                for p in range(len(x_a)):
                    ri, roff = push_axis_ref(float(x_a[p]), nc)
                    # both wraps land the reference's position modulo the box
                    got = (i[p] + off[p]) % nc
                    want = (ri + roff) % nc
                    assert got == pytest.approx(want, abs=1e-9)
            np.testing.assert_array_equal(s.icell, ordering.encode(s.ix, s.iy))

    def test_push_axis_bitwise_requires_pow2(self, backend):
        """The bitwise wrap needs power-of-two extents, so a 12 x 12
        grid runs the modulo wrap: the scalar modulo's bits."""
        x = np.array([1.5, -0.25, 12.0, -12.0, 40.75, -3.0])
        s, ordering = self._at_rest(x, x[::-1].copy(), 12, 12)
        backend.push(s, (12, 12), ordering, (1.0, 1.0))
        for x_a, i, off in ((x, s.ix, s.dx), (x[::-1], s.iy, s.dy)):
            want = [push_axis_variant_ref(float(v), 12, "modulo") for v in x_a]
            assert list(i) == [w[0] for w in want]
            assert list(off) == [w[1] for w in want]

    def test_push_positions_matches_numpy_backend(self, backend, rng):
        from repro.particles import ParticleSoA

        numpy_backend = get_backend("numpy")
        ordering = get_ordering("morton", NCX, NCY)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, N, NCX, NCY)
        icell = ordering.encode(ix, iy)

        def fresh():
            s = ParticleSoA(N)
            s.set_state(icell.copy(), dx.copy(), dy.copy(),
                        vx.copy(), vy.copy(), ix.copy(), iy.copy())
            return s

        a, b = fresh(), fresh()
        backend.push_positions(a, NCX, NCY, ordering, "bitwise", 1.0, 1.0)
        numpy_backend.push_positions(b, NCX, NCY, ordering, "bitwise", 1.0, 1.0)
        np.testing.assert_array_equal(np.asarray(a.icell), np.asarray(b.icell))
        np.testing.assert_allclose(np.asarray(a.dx), np.asarray(b.dx), atol=1e-12)
        np.testing.assert_allclose(np.asarray(a.dy), np.asarray(b.dy), atol=1e-12)


class TestKernelEquivalence3D:
    NC = 8

    def _cells(self, rng, n):
        from repro.curves import MortonOrdering

        o = MortonOrdering(self.NC, self.NC, self.NC)
        ix = rng.integers(0, self.NC, n)
        iy = rng.integers(0, self.NC, n)
        iz = rng.integers(0, self.NC, n)
        return o, o.encode(ix, iy, iz)

    def test_accumulate_redundant_3d(self, backend, rng):
        from repro.core.kernels import accumulate_rows

        n = 200
        o, icell = self._cells(rng, n)
        dx, dy, dz = rng.random(n), rng.random(n), rng.random(n)
        rho = np.zeros((o.ncells_allocated, 8))
        ref = np.zeros((o.ncells_allocated, 8))
        backend.accumulate_redundant_3d(rho, icell, dx, dy, dz, charge=0.9)
        accumulate_rows(ref, icell, (dx, dy, dz), charge=0.9)
        np.testing.assert_array_equal(rho, ref)
        assert rho.sum() == pytest.approx(0.9 * n, rel=1e-12)

    def test_interpolate_redundant_3d(self, backend, rng):
        from repro.core.kernels import interpolate_rows

        n = 200
        o, icell = self._cells(rng, n)
        dx, dy, dz = rng.random(n), rng.random(n), rng.random(n)
        e_1d = rng.random((o.ncells_allocated, 24))
        got = backend.interpolate_redundant_3d(e_1d, icell, dx, dy, dz)
        want = interpolate_rows(e_1d, icell, (dx, dy, dz))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


# ----------------------------------------------------------------------
# Whole-simulation equivalence: identical physics across backends
# ----------------------------------------------------------------------
class TestSimulationEquivalence:
    @pytest.mark.skipif(
        len(available_backends()) < 2, reason="only one backend installed"
    )
    def test_backends_produce_identical_physics(self, small_grid):
        histories = {}
        for name in available_backends():
            cfg = OptimizationConfig(backend=name)
            sim = Simulation(
                small_grid, LandauDamping(0.05), 4000, cfg,
                dt=0.1, quiet=True, seed=None,
            )
            sim.run(8)
            histories[name] = sim.history.as_arrays()
        base = histories.pop("numpy")
        for name, h in histories.items():
            np.testing.assert_allclose(
                h["field_energy"], base["field_energy"], rtol=1e-10,
                err_msg=f"backend {name} diverged from numpy",
            )
            np.testing.assert_allclose(
                h["total_energy"], base["total_energy"], rtol=1e-10,
                err_msg=f"backend {name} diverged from numpy",
            )

    def test_custom_backend_registers_and_runs(self, small_grid):
        """Third-party backends plug in through the decorator."""
        from repro.core.backends import NumpyBackend, register_backend

        @register_backend
        class TracingBackend(NumpyBackend):
            name = "tracing-test"
            priority = -1  # never auto-selected
            calls = []

            def accumulate_rows(self, *a, **kw):
                type(self).calls.append("accumulate_rows")
                return super().accumulate_rows(*a, **kw)

        try:
            assert "tracing-test" in known_backend_names()
            cfg = OptimizationConfig(backend="tracing-test")
            sim = Simulation(
                small_grid, LandauDamping(0.05), 1000, cfg,
                dt=0.1, quiet=True, seed=None,
            )
            sim.run(2)
            assert TracingBackend.calls  # kernels actually dispatched through it
            assert sim.history.energy_drift() < 1e-2
        finally:
            # unregister so other tests see the pristine registry
            from repro.core import backends as B

            B._REGISTRY.pop("tracing-test", None)
            B._INSTANCES.pop("tracing-test", None)

    def test_backend_surface_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()  # abstract methods must be implemented
