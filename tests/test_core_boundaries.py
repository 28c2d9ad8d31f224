"""Tests for the reflecting/absorbing boundary extensions (§VI)."""

import numpy as np
import pytest

from repro.core.boundaries import (
    absorb_axis_mask,
    compact_particles,
    push_positions_absorbing,
    push_positions_reflecting,
    reflect_axis,
)
from repro.curves import get_ordering
from repro.particles import make_storage
from tests.conftest import random_particle_arrays

NC = 16


class TestReflectAxis:
    def test_interior_unchanged(self, rng):
        x = rng.uniform(0, NC, 1000)
        i, off, flip = reflect_axis(x, NC)
        np.testing.assert_allclose(i + off, x, atol=1e-12)
        assert np.all(flip == 1.0)

    def test_single_bounce_left(self):
        i, off, flip = reflect_axis(np.array([-0.3]), NC)
        assert float(i[0] + off[0]) == pytest.approx(0.3)
        assert flip[0] == -1.0

    def test_single_bounce_right(self):
        i, off, flip = reflect_axis(np.array([NC + 0.7]), NC)
        assert float(i[0] + off[0]) == pytest.approx(NC - 0.7)
        assert flip[0] == -1.0

    def test_double_bounce_restores_velocity_sign(self):
        # crossing the box twice: 2L + 0.4 folds to 0.4 with no flip
        i, off, flip = reflect_axis(np.array([2 * NC + 0.4]), NC)
        assert float(i[0] + off[0]) == pytest.approx(0.4)
        assert flip[0] == 1.0

    def test_many_periods_out(self, rng):
        x = rng.uniform(-100, 100, 5000)
        i, off, flip = reflect_axis(x, NC)
        pos = i + off
        assert pos.min() >= 0.0 and pos.max() <= NC
        assert i.min() >= 0 and i.max() < NC
        assert set(np.unique(flip)) <= {-1.0, 1.0}

    def test_fold_is_involution_consistent(self, rng):
        """Folding an already-folded position changes nothing."""
        x = rng.uniform(-50, 50, 2000)
        i1, o1, _ = reflect_axis(x, NC)
        i2, o2, f2 = reflect_axis(i1 + o1, NC)
        np.testing.assert_allclose(i1 + o1, i2 + o2, atol=1e-12)
        assert np.all(f2 == 1.0)

    def test_wall_parking(self):
        i, off, _ = reflect_axis(np.array([float(NC)]), NC)
        assert i[0] == NC - 1 and off[0] == 1.0


class TestReflectingPush:
    def _particles(self, rng, ordering, n=500, v_scale=10.0):
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, n, NC, NC)
        s = make_storage("soa", n, store_coords=True)
        s.set_state(ordering.encode(ix, iy), dx, dy, v_scale * vx, v_scale * vy, ix, iy)
        return s

    def test_positions_stay_inside(self, rng):
        o = get_ordering("morton", NC, NC)
        s = self._particles(rng, o)
        for _ in range(5):
            push_positions_reflecting(s, NC, NC, o)
        x = np.asarray(s.ix) + np.asarray(s.dx)
        assert x.min() >= 0.0 and x.max() <= NC

    def test_velocity_flip_consistency(self, rng):
        """A particle that bounced once moves back toward the interior."""
        o = get_ordering("row-major", NC, NC)
        s = make_storage("soa", 1, store_coords=True)
        s.set_state(
            o.encode(np.array([NC - 1]), np.array([0])),
            np.array([0.9]), np.array([0.5]),
            np.array([0.5]), np.array([0.0]),  # heading right, will bounce
            np.array([NC - 1]), np.array([0]),
        )
        push_positions_reflecting(s, NC, NC, o)
        assert float(s.vx[0]) == -0.5
        assert float(s.ix[0] + s.dx[0]) == pytest.approx(NC - 0.4)

    def test_energy_preserved_by_reflection(self, rng):
        o = get_ordering("morton", NC, NC)
        s = self._particles(rng, o)
        ke_before = np.sum(np.asarray(s.vx) ** 2 + np.asarray(s.vy) ** 2)
        push_positions_reflecting(s, NC, NC, o)
        ke_after = np.sum(np.asarray(s.vx) ** 2 + np.asarray(s.vy) ** 2)
        assert ke_after == pytest.approx(ke_before, rel=1e-12)

    def test_icell_consistent(self, rng):
        o = get_ordering("l4d", NC, NC, size=4)
        s = self._particles(rng, o)
        push_positions_reflecting(s, NC, NC, o)
        np.testing.assert_array_equal(
            np.asarray(s.icell), o.encode(np.asarray(s.ix), np.asarray(s.iy))
        )

    def test_interior_matches_periodic_kernel(self, rng):
        """Slow particles that never touch a wall move identically under
        reflecting and periodic updates."""
        from repro.core.kernels import AXIS_KERNELS, push_blocked

        o = get_ordering("morton", NC, NC)
        sr = self._particles(rng, o, v_scale=0.01)
        sp = make_storage("soa", sr.n, store_coords=True)
        sp.set_state(**sr.as_dict())
        push_positions_reflecting(sr, NC, NC, o)
        push_blocked(sp, (NC, NC), o, AXIS_KERNELS["bitwise"], (1.0, 1.0))
        np.testing.assert_allclose(
            np.asarray(sr.ix) + np.asarray(sr.dx),
            np.asarray(sp.ix) + np.asarray(sp.dx),
            atol=1e-12,
        )


class TestAbsorbing:
    def test_mask_detects_escapes(self):
        assert absorb_axis_mask(np.array([-0.1]), NC)[0]
        assert absorb_axis_mask(np.array([float(NC)]), NC)[0]
        assert not absorb_axis_mask(np.array([NC - 0.5]), NC)[0]

    def test_push_reports_absorbed(self, rng):
        o = get_ordering("row-major", NC, NC)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, 2000, NC, NC)
        s = make_storage("soa", 2000, store_coords=True)
        s.set_state(o.encode(ix, iy), dx, dy, 5 * vx, 5 * vy, ix, iy)
        x_pred = ix + dx + 5 * vx
        y_pred = iy + dy + 5 * vy
        expected = (
            (x_pred < 0) | (x_pred >= NC) | (y_pred < 0) | (y_pred >= NC)
        )
        absorbed = push_positions_absorbing(s, NC, NC, o)
        np.testing.assert_array_equal(absorbed, expected)

    def test_survivors_updated_correctly(self, rng):
        o = get_ordering("row-major", NC, NC)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, 1000, NC, NC)
        s = make_storage("soa", 1000, store_coords=True)
        s.set_state(o.encode(ix, iy), dx, dy, vx, vy, ix, iy)
        absorbed = push_positions_absorbing(s, NC, NC, o)
        keep = ~absorbed
        x_new = (np.asarray(s.ix) + np.asarray(s.dx))[keep]
        x_pred = (ix + dx + vx)[keep]
        np.testing.assert_allclose(x_new, x_pred, atol=1e-12)

    def test_absorbed_entries_remain_valid(self, rng):
        o = get_ordering("morton", NC, NC)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, 500, NC, NC)
        s = make_storage("soa", 500, store_coords=True)
        s.set_state(o.encode(ix, iy), dx, dy, 20 * vx, 20 * vy, ix, iy)
        push_positions_absorbing(s, NC, NC, o)
        icell = np.asarray(s.icell)
        assert icell.min() >= 0 and icell.max() < o.ncells_allocated
        assert np.asarray(s.dx).min() >= 0 and np.asarray(s.dx).max() < 1.0 + 1e-12


class TestCompaction:
    def test_compact_keeps_order_and_content(self, rng):
        o = get_ordering("row-major", NC, NC)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, 300, NC, NC)
        s = make_storage("soa", 300, weight=0.5, store_coords=True)
        s.set_state(o.encode(ix, iy), dx, dy, vx, vy, ix, iy)
        keep = rng.random(300) > 0.4
        out = compact_particles(s, keep)
        assert out.n == int(keep.sum())
        assert out.weight == 0.5
        np.testing.assert_array_equal(np.asarray(out.vx), vx[keep])

    def test_compact_empty(self, rng):
        s = make_storage("soa", 10, store_coords=False)
        s.set_state(np.zeros(10, dtype=int), *(rng.random(10) for _ in range(4)))
        out = compact_particles(s, np.zeros(10, dtype=bool))
        assert out.n == 0

    def test_compact_keeps_survivor_order(self, rng):
        s = make_storage("soa", 50, store_coords=True)
        s.set_state(
            np.arange(50), rng.random(50), rng.random(50),
            rng.random(50), rng.random(50),
            np.arange(50) % NC, np.arange(50) // NC,
        )
        out = compact_particles(s, np.arange(50) % 2 == 0)
        assert out.n == 25
        np.testing.assert_array_equal(np.asarray(out.icell), np.arange(0, 50, 2))


class TestAbsorptionPhysics:
    def test_population_decays_to_zero_eventually(self, rng):
        """Free-streaming particles in an absorbing box all leave."""
        o = get_ordering("row-major", NC, NC)
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, 2000, NC, NC)
        # ensure nonzero drift for everyone
        vx = np.where(np.abs(vx) < 0.1, 0.5, vx)
        s = make_storage("soa", 2000, store_coords=True)
        s.set_state(o.encode(ix, iy), dx, dy, vx, vy, ix, iy)
        for _ in range(200):
            if s.n == 0:
                break
            absorbed = push_positions_absorbing(s, NC, NC, o)
            s = compact_particles(s, ~absorbed)
        assert s.n == 0
