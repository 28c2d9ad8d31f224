"""Cross-module property-based tests (hypothesis): core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.kernels import (
    _axis_bitwise,
    _axis_branch,
    _axis_modulo,
    accumulate_rows,
    accumulate_standard,
    corner_weights,
    interpolate_rows,
)
from repro.curves import get_ordering
from repro.particles.sorting import (
    counting_sort_permutation,
    counting_sort_permutation_reference,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    dx=st.floats(0, 1, exclude_max=True),
    dy=st.floats(0, 1, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_corner_weights_partition_of_unity(dx, dy):
    w = corner_weights((np.array([dx]), np.array([dy])))
    assert abs(w.sum() - 1.0) < 1e-12
    assert w.min() >= 0.0


@given(
    x=finite_floats,
    nc_log=st.integers(1, 10),
)
@settings(max_examples=300, deadline=None)
def test_axis_wraps_agree_for_any_float(x, nc_log):
    nc = 1 << nc_log
    arr = np.array([x])
    positions = []
    for fn in (_axis_branch, _axis_modulo, _axis_bitwise):
        i, d = fn(arr, nc)
        assert 0 <= int(i[0]) < nc
        assert 0.0 <= float(d[0]) <= 1.0
        positions.append((float(i[0]) + float(d[0])) % nc)
    assert abs(positions[0] - positions[1]) % nc < 1e-6 or abs(
        abs(positions[0] - positions[1]) - nc
    ) < 1e-6
    assert abs(positions[0] - positions[2]) % nc < 1e-6 or abs(
        abs(positions[0] - positions[2]) - nc
    ) < 1e-6


@given(
    n=st.integers(1, 200),
    seed=st.integers(0, 2**31 - 1),
    name=st.sampled_from(["row-major", "l4d", "morton", "hilbert"]),
)
@settings(max_examples=50, deadline=None)
def test_charge_conserved_any_ordering(n, seed, name):
    """sum(rho_1d) == charge * n for every layout and ordering."""
    rng = np.random.default_rng(seed)
    o = get_ordering(name, 16, 16)
    ix = rng.integers(0, 16, n)
    iy = rng.integers(0, 16, n)
    dx = rng.random(n)
    dy = rng.random(n)
    rho = np.zeros((o.ncells_allocated, 4))
    accumulate_rows(rho, o.encode(ix, iy), (dx, dy), charge=1.25)
    assert abs(rho.sum() - 1.25 * n) < 1e-9 * max(n, 1)


@given(
    n=st.integers(1, 100),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_standard_and_redundant_deposits_equal(n, seed):
    rng = np.random.default_rng(seed)
    from repro.grid import GridSpec, RedundantFields

    grid = GridSpec(8, 8)
    o = get_ordering("morton", 8, 8)
    fields = RedundantFields(grid, o)
    ix = rng.integers(0, 8, n)
    iy = rng.integers(0, 8, n)
    dx = rng.random(n)
    dy = rng.random(n)
    accumulate_rows(fields.rho_1d, o.encode(ix, iy), (dx, dy))
    std = np.zeros((8, 8))
    accumulate_standard(std, ix, iy, dx, dy)
    np.testing.assert_allclose(fields.reduce_rho_to_grid(), std, atol=1e-10)


@given(
    keys=st.lists(st.integers(0, 31), min_size=0, max_size=300),
)
@settings(max_examples=100, deadline=None)
def test_counting_sort_matches_reference(keys):
    keys = np.asarray(keys, dtype=np.int64)
    fast = counting_sort_permutation(keys, 32)
    ref = counting_sort_permutation_reference(keys, 32)
    np.testing.assert_array_equal(fast, ref)


@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_interpolation_bounded_by_field_extrema(n, seed):
    """CiC interpolation is a convex combination: results stay within
    [min(E), max(E)]."""
    rng = np.random.default_rng(seed)
    o = get_ordering("row-major", 8, 8)
    from repro.grid import GridSpec, RedundantFields

    fields = RedundantFields(GridSpec(8, 8), o)
    ex = rng.normal(size=(8, 8))
    ey = rng.normal(size=(8, 8))
    fields.load_field_from_grid(ex, ey)
    ix = rng.integers(0, 8, n)
    iy = rng.integers(0, 8, n)
    fx, fy = interpolate_rows(
        fields.e_1d, o.encode(ix, iy), (rng.random(n), rng.random(n))
    )
    assert fx.min() >= ex.min() - 1e-12 and fx.max() <= ex.max() + 1e-12
    assert fy.min() >= ey.min() - 1e-12 and fy.max() <= ey.max() + 1e-12


@given(seed=st.integers(0, 2**31 - 1), nc_log=st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_cache_hit_on_immediate_reaccess(seed, nc_log):
    from repro.model.cache import CacheHierarchy
    from repro.model.machine import CacheLevelSpec

    rng = np.random.default_rng(seed)
    h = CacheHierarchy(
        (CacheLevelSpec("L1", 1 << (nc_log + 7), 64, 4, 1.0),), prefetch=False
    )
    addr = int(rng.integers(0, 1 << 20)) * 64
    h.simulate(np.array([addr]))
    r = h.simulate(np.array([addr]))
    assert r.misses_by_name()["L1"] == 0
