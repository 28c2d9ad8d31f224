"""Property-based tests (hypothesis) for the space-filling curves."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.curves import (
    L4DOrdering,
    MortonOrdering,
    get_ordering,
    hilbert_decode_2d,
    hilbert_encode_2d,
)

pow2 = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128])
pow2_small = st.sampled_from([2, 4, 8, 16, 32])


@st.composite
def grid_and_coords(draw, names):
    name = draw(st.sampled_from(names))
    ncx = draw(pow2_small)
    ncy = draw(pow2_small)
    n = draw(st.integers(1, 64))
    ix = draw(
        st.lists(st.integers(0, ncx - 1), min_size=n, max_size=n).map(np.array)
    )
    iy = draw(
        st.lists(st.integers(0, ncy - 1), min_size=n, max_size=n).map(np.array)
    )
    return name, ncx, ncy, ix, iy


@given(grid_and_coords(["row-major", "column-major", "l4d", "morton", "hilbert"]))
@settings(max_examples=80, deadline=None)
def test_decode_encode_roundtrip(case):
    name, ncx, ncy, ix, iy = case
    o = get_ordering(name, ncx, ncy)
    jx, jy = o.decode(o.encode(ix, iy))
    np.testing.assert_array_equal(ix, jx)
    np.testing.assert_array_equal(iy, jy)


@given(grid_and_coords(["row-major", "column-major", "l4d", "morton", "hilbert"]))
@settings(max_examples=80, deadline=None)
def test_encode_in_allocated_range(case):
    name, ncx, ncy, ix, iy = case
    o = get_ordering(name, ncx, ncy)
    icell = np.asarray(o.encode(ix, iy))
    assert icell.min() >= 0
    assert icell.max() < o.ncells_allocated


@given(
    ncx=pow2_small,
    ncy=pow2_small,
    size=st.integers(1, 16),
)
@settings(max_examples=60, deadline=None)
def test_l4d_injective_any_tile_size(ncx, ncy, size):
    o = L4DOrdering(ncx, ncy, size=size)
    m = o.index_map()
    assert len(np.unique(m)) == ncx * ncy
    assert m.max() < o.ncells_allocated


@given(
    ix=st.integers(0, (1 << 16) - 1),
    iy=st.integers(0, (1 << 16) - 1),
)
@settings(max_examples=200, deadline=None)
def test_morton_monotone_in_blocks(ix, iy):
    # clearing the low bit of iy can only decrease the code
    o = MortonOrdering(1 << 16, 1 << 16)
    code = int(o.encode(ix, iy))
    code2 = int(o.encode(ix, iy & ~1))
    assert code2 <= code


@given(order=st.integers(1, 8), d=st.integers(0, 2**16 - 1))
@settings(max_examples=200, deadline=None)
def test_hilbert_roundtrip_by_index(order, d):
    d = d % (1 << (2 * order))
    x, y = hilbert_decode_2d(order, np.array([d]))
    d2 = hilbert_encode_2d(order, x, y)
    assert int(d2[0]) == d


@given(order=st.integers(1, 6), d=st.integers(0, 2**12 - 2))
@settings(max_examples=150, deadline=None)
def test_hilbert_adjacency(order, d):
    side = 1 << order
    d = d % (side * side - 1)
    x, y = hilbert_decode_2d(order, np.array([d, d + 1]))
    manhattan = abs(int(x[1]) - int(x[0])) + abs(int(y[1]) - int(y[0]))
    assert manhattan == 1
