"""Sorting tests: the counting-sort variants."""

import numpy as np
import pytest

from repro.particles import (
    counting_sort_permutation,
    counting_sort_permutation_reference,
    make_storage,
    sort_in_place,
    sort_out_of_place,
)


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
        keys = rng.integers(0, 16, 300)
        fast = counting_sort_permutation(keys, 16)
        ref = counting_sort_permutation_reference(keys, 16)
        np.testing.assert_array_equal(fast, ref)

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
        out = sort_out_of_place(s, 32)
        assert np.all(np.diff(np.asarray(out.icell)) >= 0)
        # attribute tuples move together: total content preserved
        order = np.argsort(before["icell"], kind="stable")
        np.testing.assert_array_equal(np.asarray(out.vx), before["vx"][order])

    def test_out_of_place_reuses_buffer(self, layout, rng):
        s = self._storage(layout, rng)
        buf = s.clone_empty()
        out = sort_out_of_place(s, 32, buffer=buf)
        assert out is buf

    def test_in_place_sorts(self, layout, rng):
        s = self._storage(layout, rng)
        before = s.as_dict()
        sort_in_place(s, 32)
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
        out = sort_out_of_place(s1, 32)
        sort_in_place(s2, 32)
        for k in ("icell", "dx", "vx", "iy"):
            np.testing.assert_array_equal(
                np.asarray(getattr(out, k)), np.asarray(getattr(s2, k))
            )

    def test_already_sorted_is_identity(self, layout, rng):
        s = self._storage(layout, rng)
        out1 = sort_out_of_place(s, 32)
        snapshot = out1.as_dict()
        sort_in_place(out1, 32)
        for k, v in snapshot.items():
            np.testing.assert_array_equal(np.asarray(getattr(out1, k)), v)

    def test_custom_perm_fn_is_routed(self, layout, rng):
        # the stepper passes the backend's counting sort through
        # perm_fn; any stable-sort implementation must be accepted
        calls = []

        def perm_fn(keys, ncells):
            calls.append(ncells)
            return counting_sort_permutation_reference(keys, ncells)

        s = self._storage(layout, rng)
        out = sort_out_of_place(s, 32, perm_fn=perm_fn)
        sort_in_place(out, 32, perm_fn=perm_fn)
        assert calls == [32, 32]
        assert np.all(np.diff(np.asarray(out.icell)) >= 0)

