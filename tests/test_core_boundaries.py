"""The reflecting wall (§VI outlook): the push's ``"reflect"`` wrap.

:func:`repro.core.kernels._axis_reflect` folds one axis between the
walls; :func:`repro.core.kernels.push_blocked` runs it under
``wrap="reflect"`` (what :func:`~repro.core.kernels.wrap_for` names for
a ``boundary="reflecting"`` case) and flips the velocity of every
bounced axis.  ``tests/test_ckernels.py`` holds ``c`` to these bits.
"""

import numpy as np
import pytest

from repro.core.kernels import _axis_reflect, push_blocked
from repro.curves import get_ordering
from repro.particles import ParticleSoA
from tests.conftest import random_particle_arrays

NC = 16


def _reflect(s, ordering):
    push_blocked(s, (NC, NC), ordering, (1.0, 1.0), "reflect")


class TestReflectAxis:
    def test_interior_unchanged(self, rng):
        x = rng.uniform(0, NC, 1000)
        i, off, flip = _axis_reflect(x, NC)
        np.testing.assert_allclose(i + off, x, atol=1e-12)
        assert np.all(flip == 1.0)

    def test_single_bounce_left(self):
        i, off, flip = _axis_reflect(np.array([-0.3]), NC)
        assert float(i[0] + off[0]) == pytest.approx(0.3)
        assert flip[0] == -1.0

    def test_single_bounce_right(self):
        i, off, flip = _axis_reflect(np.array([NC + 0.7]), NC)
        assert float(i[0] + off[0]) == pytest.approx(NC - 0.7)
        assert flip[0] == -1.0

    def test_double_bounce_restores_velocity_sign(self):
        # crossing the box twice: 2L + 0.4 folds to 0.4 with no flip
        i, off, flip = _axis_reflect(np.array([2 * NC + 0.4]), NC)
        assert float(i[0] + off[0]) == pytest.approx(0.4)
        assert flip[0] == 1.0

    def test_many_periods_out(self, rng):
        x = rng.uniform(-100, 100, 5000)
        i, off, flip = _axis_reflect(x, NC)
        pos = i + off
        assert pos.min() >= 0.0 and pos.max() <= NC
        assert i.min() >= 0 and i.max() < NC
        assert set(np.unique(flip)) <= {-1.0, 1.0}

    def test_fold_is_involution_consistent(self, rng):
        """Folding an already-folded position changes nothing."""
        x = rng.uniform(-50, 50, 2000)
        i1, o1, _ = _axis_reflect(x, NC)
        i2, o2, f2 = _axis_reflect(i1 + o1, NC)
        np.testing.assert_allclose(i1 + o1, i2 + o2, atol=1e-12)
        assert np.all(f2 == 1.0)

    def test_wall_parking(self):
        i, off, _ = _axis_reflect(np.array([float(NC)]), NC)
        assert i[0] == NC - 1 and off[0] == 1.0


class TestReflectingPush:
    def _particles(self, rng, ordering, n=500, v_scale=10.0):
        ix, iy, dx, dy, vx, vy = random_particle_arrays(rng, n, NC, NC)
        s = ParticleSoA(n)
        s.set_state(ordering.encode(ix, iy), dx, dy, v_scale * vx, v_scale * vy, ix, iy)
        return s

    def test_positions_stay_inside(self, rng):
        o = get_ordering("morton", NC, NC)
        s = self._particles(rng, o)
        for _ in range(5):
            _reflect(s, o)
        x = np.asarray(s.ix) + np.asarray(s.dx)
        assert x.min() >= 0.0 and x.max() <= NC

    def test_velocity_flip_consistency(self, rng):
        """A particle that bounced once moves back toward the interior."""
        o = get_ordering("row-major", NC, NC)
        s = ParticleSoA(1)
        s.set_state(
            o.encode(np.array([NC - 1]), np.array([0])),
            np.array([0.9]), np.array([0.5]),
            np.array([0.5]), np.array([0.0]),  # heading right, will bounce
            np.array([NC - 1]), np.array([0]),
        )
        _reflect(s, o)
        assert float(s.vx[0]) == -0.5
        assert float(s.ix[0] + s.dx[0]) == pytest.approx(NC - 0.4)

    def test_energy_preserved_by_reflection(self, rng):
        o = get_ordering("morton", NC, NC)
        s = self._particles(rng, o)
        ke_before = np.sum(np.asarray(s.vx) ** 2 + np.asarray(s.vy) ** 2)
        _reflect(s, o)
        ke_after = np.sum(np.asarray(s.vx) ** 2 + np.asarray(s.vy) ** 2)
        assert ke_after == pytest.approx(ke_before, rel=1e-12)

    def test_icell_consistent(self, rng):
        o = get_ordering("l4d", NC, NC, size=4)
        s = self._particles(rng, o)
        _reflect(s, o)
        np.testing.assert_array_equal(
            np.asarray(s.icell), o.encode(np.asarray(s.ix), np.asarray(s.iy))
        )

    def test_interior_matches_periodic_kernel(self, rng):
        """Slow particles that never touch a wall move identically under
        reflecting and periodic updates."""
        o = get_ordering("morton", NC, NC)
        sr = self._particles(rng, o, v_scale=0.01)
        sp = ParticleSoA(sr.n)
        sp.set_state(**sr.as_dict())
        _reflect(sr, o)
        push_blocked(sp, (NC, NC), o, (1.0, 1.0))
        np.testing.assert_allclose(
            np.asarray(sr.ix) + np.asarray(sr.dx),
            np.asarray(sp.ix) + np.asarray(sp.dx),
            atol=1e-12,
        )
