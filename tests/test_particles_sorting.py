"""Sorting tests: the counting-sort permutation, and the store applying
it — to its own columns (the one sort every stepper runs) or into a
second store."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core import OptimizationConfig, PICStepper
from repro.grid import GridSpec
from repro.particles import (
    LandauDamping,
    counting_sort_permutation,
    counting_sort_permutation_reference,
    make_storage,
)


def _sort(s, ncells=32, **kw):
    """The counting sort of ``s`` by cell, applied by the store."""
    return s.reorder(counting_sort_permutation(s.icell, ncells), **kw)


class TestCountingSortPermutation:
    def test_sorts_keys(self, rng):
        keys = rng.integers(0, 32, 500)
        perm = counting_sort_permutation(keys, 32)
        assert np.all(np.diff(keys[perm]) >= 0)

    def test_is_permutation(self, rng):
        keys = rng.integers(0, 8, 100)
        perm = counting_sort_permutation(keys, 8)
        assert sorted(perm) == list(range(100))

    def test_stability(self):
        keys = np.array([2, 1, 2, 1, 2])
        perm = counting_sort_permutation(keys, 3)
        # equal keys keep input order
        np.testing.assert_array_equal(perm, [1, 3, 0, 2, 4])

    def test_matches_reference(self, rng):
        """One radix pass up to 2**16 cells, two past it: random and
        nearly sorted keys (one in ten moved by a cell), both ends of
        the key range present."""
        for ncells in (16, 1, 3, 1 << 16, (1 << 16) + 1, 1 << 20):
            for nearly_sorted in (False, True):
                keys = np.concatenate(
                    [[ncells - 1, 0], rng.integers(0, ncells, 3000)])
                if nearly_sorted:
                    keys.sort()
                    moved = rng.random(keys.size) < 0.1
                    keys[moved] = (keys[moved]
                                   + rng.integers(-1, 2, moved.sum())) % ncells
                fast = counting_sort_permutation(keys, ncells)
                assert fast.dtype == np.int64
                np.testing.assert_array_equal(
                    fast, counting_sort_permutation_reference(keys, ncells),
                    err_msg=f"{ncells} cells, nearly sorted: {nearly_sorted}")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            counting_sort_permutation(np.array([0, 5]), 4)
        with pytest.raises(ValueError):
            counting_sort_permutation(np.array([-1, 2]), 4)

    def test_empty(self):
        assert len(counting_sort_permutation(np.array([], dtype=int), 4)) == 0


@pytest.mark.parametrize("layout", ["soa"])
class TestStorageSorting:
    def _storage(self, layout, rng, n=200, ncells=32):
        s = make_storage(layout, n, store_coords=True)
        s.set_state(
            rng.integers(0, ncells, n),
            rng.random(n),
            rng.random(n),
            rng.normal(size=n),
            rng.normal(size=n),
            rng.integers(0, 8, n),
            rng.integers(0, 4, n),
        )
        return s

    def test_out_of_place_sorts(self, layout, rng):
        s = self._storage(layout, rng)
        before = s.as_dict()
        out = _sort(s, out=s.clone_empty())
        assert np.all(np.diff(np.asarray(out.icell)) >= 0)
        # attribute tuples move together: total content preserved
        order = np.argsort(before["icell"], kind="stable")
        np.testing.assert_array_equal(np.asarray(out.vx), before["vx"][order])

    def test_out_of_place_reuses_buffer(self, layout, rng):
        s = self._storage(layout, rng)
        buf = s.clone_empty()
        out = _sort(s, out=buf)
        assert out is buf

    def test_in_place_sorts(self, layout, rng):
        s = self._storage(layout, rng)
        before = s.as_dict()
        assert _sort(s) is s
        assert np.all(np.diff(np.asarray(s.icell)) >= 0)
        order = np.argsort(before["icell"], kind="stable")
        for k in before:
            np.testing.assert_array_equal(
                np.asarray(getattr(s, k)), before[k][order], err_msg=k
            )

    def test_in_place_equals_out_of_place(self, layout, rng):
        s1 = self._storage(layout, rng)
        s2 = make_storage(layout, s1.n, store_coords=True)
        s2.set_state(**s1.as_dict())
        out = _sort(s1, out=s1.clone_empty())
        _sort(s2)
        for k in ("icell", "dx", "vx", "iy"):
            np.testing.assert_array_equal(
                np.asarray(getattr(out, k)), np.asarray(getattr(s2, k))
            )

    def test_already_sorted_is_identity(self, layout, rng):
        s = self._storage(layout, rng)
        _sort(s)
        snapshot = s.as_dict()
        _sort(s)
        for k, v in snapshot.items():
            np.testing.assert_array_equal(np.asarray(getattr(s, k)), v)

    def test_custom_perm_fn_is_routed(self, layout, monkeypatch):
        """The stepper's sort takes its permutation from its backend
        (the C cursor loop on ``c``): any stable counting sort must be
        accepted."""
        calls = []

        def perm_fn(keys, ncells):
            calls.append(ncells)
            return counting_sort_permutation_reference(keys, ncells)

        st = PICStepper(GridSpec(8, 8), OptimizationConfig(backend="numpy"),
                        case=LandauDamping(), n_particles=200, seed=1)
        try:
            assert type(st.particles) is type(make_storage(layout, 0))
            monkeypatch.setattr(st.backend, "counting_sort_permutation", perm_fn)
            st._phase_sort()
            assert calls == [st.ordering.ncells_allocated]
            assert np.all(np.diff(np.asarray(st.particles.icell)) >= 0)
        finally:
            st.close()


_NO_SCIPY_PROBE = """
import sys
import repro.core, repro.service, repro.cli
from repro.service import PICJob

sim = PICJob(grid=(16, 16), n_particles=2000, seed=1).build_simulation()
try:
    sim.run(5)
finally:
    sim.close()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_a_job_never_loads_scipy():
    """The permutation is NumPy's own: importing the engine, the
    service and the CLI and running a job load no SciPy module."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE], capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
