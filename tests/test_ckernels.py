"""The C rendering: ``ckernels.c`` through ``CBackend``.

Three promises, each with its own class:

* **NumPy's bits** — every ``c`` kernel equals its ``numpy`` twin with
  ``np.array_equal``, over both dimensions, populations around the NumPy
  block size, all three wraps, every ordering, sampled and decoded
  coordinates, scales 0 / 1 / other and particles several periods
  outside the box; update-v in one loop equals the gather then the
  kick; the ρ fold
  and the field broadcast equal NumPy's byte for byte on every
  ordering, non-square and non-power-of-two grids and NaN / ±inf /
  −0.0 entries; every deposit ignores what its target held.
* **Defined on every input** — non-finite positions, cell indices
  outside the grid (of a particle or of the grid loops' cell map),
  empty and one-particle populations, columns that do not fit the C
  ABI.  ``tools/c_sanitize_gate.py`` runs these two classes and the
  next against a ``-fsanitize=undefined`` build.
* **One statement, two clones** — the object built without
  ``target_clones`` (the baseline body every host without AVX-512 runs)
  gives the same bytes as the one this host loads, kernel by kernel.
* **The build** — concurrent builders, a refused cache directory, a
  failing compiler, an object that does not load, cache hits.
"""

import json
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.core.backends as B
from repro.core import OptimizationConfig, Simulation, cbuild
from repro.core.backends import (
    BackendUnavailableError,
    CBackend,
    get_backend,
)
from repro.core.diagnostics import field_energy
from repro.core.kernels import BLOCK, Drive, _axis_reflect
from repro.curves import get_ordering
from repro.grid import GridSpec, RedundantFields
from repro.model.config import ModelConfig
from repro.particles import LandauDamping
from repro.particles.storage import ParticleSoA
from repro.pic3d import GridSpec3D
from repro.resilience import FaultInjector, SupervisedRun

SRC = str(Path(__file__).resolve().parents[1] / "src")
needs_cc = pytest.mark.skipif(
    not CBackend.is_available(), reason="no C compiler"
)

#: around the vector width of the x86-64-v4 clone (8 doubles) and its
#: unroll, so that every vector body meets each remainder its epilogue
#: handles
LANES = [7, 8, 9, 15, 16, 17, 63, 64, 65]
SIZES = [0, 1, *LANES, BLOCK - 1, 2 * BLOCK + 17]
#: the particle block of ``ckernels.c``'s ``advance`` (a C constant)
C_BLOCK = int(re.search(
    r"^#define BLOCK (\d+)$",
    (Path(SRC) / "repro" / "core" / "ckernels.c").read_text(), re.M,
).group(1))
#: around the block edges of ``advance``, and the vector remainders
ADVANCE_SIZES = [0, 1, *LANES, C_BLOCK - 1, C_BLOCK, C_BLOCK + 1,
                 2 * C_BLOCK + 17]
#: the values of the priced ``position_update`` axis, which the frozen
#: ledger's push adapters are handed and ignore: the grid picks the wrap
VARIANTS = ["branch", "modulo", "bitwise"]
#: (ndim, ordering label) — every 2D curve of the registry, both 3D
#: ones (labelled ``-3d``: the same classes over three extents), on
#: power-of-two extents (the bitwise wrap); and the curves that take any
#: extents again on extents that are not (``@<shape>``: the modulo wrap)
CURVES = [
    (2, "row-major"), (2, "column-major"), (2, "morton"), (2, "l4d"),
    (2, "hilbert"), (3, "row-major-3d"), (3, "morton-3d"),
    (2, "row-major@24x16"), (2, "column-major@24x16"), (2, "l4d@24x16"),
    (3, "row-major-3d@12x8x8"),
]


def _ordering(ndim, label):
    name, _, dims = label.partition("@")
    if dims:
        shape = tuple(int(d) for d in dims.split("x"))
    elif ndim == 3:
        shape = (8, 4, 16)
    else:
        # rectangular where the curve allows it: Morton's surplus bits
        shape = (16, 16) if name == "hilbert" else (16, 8)
    return get_ordering(name.removesuffix("-3d"), *shape), shape


def _adapter_push(backend, p, shape, ordering, variant, scales):
    """The push through the frozen ledger's adapter of ``len(shape)``
    axes, handed one value of the priced wrap axis."""
    if len(shape) == 2:
        backend.push_positions(p, *shape, ordering, variant, *scales)
    else:
        backend.push_positions_3d(p, shape, ordering, scales, variant)


#: (ndim, ordering, grid shape, ordering kwargs) of the grid loops:
#: every curve, non-square and non-power-of-two extents where the curve
#: allows them, and an L4D tile that leaves padding rows
GRIDS = [
    (2, "row-major", (24, 40), {}), (2, "column-major", (24, 40), {}),
    (2, "morton", (16, 8), {}), (2, "l4d", (24, 40), {"size": 7}),
    (2, "hilbert", (16, 16), {}), (3, "row-major-3d", (12, 8, 20), {}),
    (3, "morton-3d", (8, 4, 16), {}),
]

#: the inputs no double -> int64 conversion may meet unguarded
BAD = (np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**63, -(2.0**63))

#: the scenario zoo's update-v stages: the field alone, the rotation
#: alone (a −0.0 entry of the gathered field must stay −0.0: nothing is
#: added), both, and neither
DRIVES = {
    "field": Drive(field=(0.013, -0.002)),
    "rotation": Drive(rotation=(-0.025, -0.04996876951905059),
                      scales=(7.853981633974483, 15.707963267948966)),
    "both": Drive((0.013, -0.0), (0.31, 0.56), (0.5, 2.0)),
    "none": Drive(),
}

#: the values a fold or a broadcast must carry with NumPy's bits
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e308)


def _fields(ndim, name, shape, kw, body):
    """A field store whose fold and broadcast run ``body``."""
    grid = (GridSpec if ndim == 2 else GridSpec3D)(*shape)
    f = RedundantFields(grid, get_ordering(name.removesuffix("-3d"), *shape, **kw))
    f.body = body
    return f


def _with_specials(a):
    """``a`` with every seventh entry one of :data:`SPECIAL`."""
    flat = a.reshape(-1)
    flat[::7] = np.resize(SPECIAL, len(flat[::7]))
    return a


def _population(rng, ndim, n, ordering, shape, stored):
    """A random population whose velocities carry it several periods
    outside the box.  Its cell coordinates are the sampled ones
    (``stored``), or — as the checkpoint loader restores an archive of a
    writer that recomputed them — decoded from ``icell``."""
    coords = [rng.integers(0, nc, n) for nc in shape]
    cols = {"icell": ordering.encode(*coords)}
    if not stored:
        coords = ordering.decode(cols["icell"])
    for a, c, nc in zip("xyz", coords, shape):
        cols["d" + a] = rng.random(n)
        cols["v" + a] = rng.normal(0.0, 3.0 * nc, n)
        cols["i" + a] = c
    p = ParticleSoA(n, 1.0, ndim)
    p.set_state(**cols)
    return p


def _copy(p):
    q = ParticleSoA(p.n, p.weight, p.ndim)
    q.set_state(**p.as_dict())
    return q


def _poison(cols, bad=BAD):
    """Every third entry of each column one of ``bad`` (cycled, and
    shifted per column so that the poisons meet and miss each other)."""
    for j, col in enumerate(cols):
        picks = np.resize(np.roll(bad, j), len(col[j % 3::3]))
        col[j % 3::3] = picks
    return cols


def _assert_same(p, q, what):
    for name in p.keys():
        assert np.array_equal(p[name], q[name]), (what, name)


def _advance_pair(c, split, state, e_1d, shape, ordering):
    """``c.advance`` on one copy of ``state`` and ``split``'s update-v
    then push (every scale 1: hoisted units) on another: both stores,
    after asserting the returned loop seconds are two non-negative
    numbers."""
    axes = "xyz"[: len(shape)]
    one, two = _copy(state), _copy(state)
    seconds = c.advance(one, e_1d, shape, ordering)
    assert len(seconds) == 2 and min(seconds) >= 0.0
    split.update_v(tuple(two["v" + a] for a in axes), e_1d, two.icell,
                   tuple(two["d" + a] for a in axes))
    split.push(two, shape, ordering, (1.0,) * len(shape))
    return one, two


def _bits(x) -> bytes:
    """The bytes of a float64 scalar."""
    return np.float64(x).tobytes()


#: sizes of the sum-of-squares sweep: every size to 299 (both sides of
#: the 8-term unroll, of the 128-term pairwise leaf and of its first
#: splits), NumPy's block edges, a size whose halves are not multiples
#: of 8 at every level, and a million
SUM_SIZES = [*range(300), 4095, 4096, 4097, 8191, 8192, 8193, 100003, 10**6]


def _sum_squares_mismatches(backends, ncol, sizes=SUM_SIZES, seed=0):
    """``(n, k)`` for every size ``n`` where ``backends[k].sum_squares``
    differs in a bit from ``np.sum`` over the explicit terms (``ncol``
    columns, scales other than 1)."""
    rng = np.random.default_rng(seed)
    scales = (0.37, 1.9, 3e-3)[:ncol]
    out = []
    for n in sizes:
        cols = [rng.normal(size=n) for _ in range(ncol)]
        terms = np.square(cols[0] * scales[0])
        for col, scale in zip(cols[1:], scales[1:]):
            terms += np.square(col * scale)
        want = _bits(np.sum(terms))
        out += [(n, k) for k, b in enumerate(backends)
                if _bits(b.sum_squares(cols, scales)) != want]
    return out


# ----------------------------------------------------------------------
# NumPy's bits
# ----------------------------------------------------------------------
@needs_cc
class TestEquivalence:
    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "recomputed"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ndim,curve", CURVES)
    def test_kernels_equal_numpy(self, ndim, curve, n, variant, stored):
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(n + ndim)
        ordering, shape = _ordering(ndim, curve)
        axes = "xyz"[:ndim]
        state = _population(rng, ndim, n, ordering, shape, stored)
        ncell = ordering.ncells_allocated
        e_1d = rng.normal(size=(ncell, ndim << ndim))
        offsets = tuple(state["d" + a] for a in axes)

        # gather
        got = c.interpolate_rows(e_1d, state.icell, offsets)
        want = numpy.interpolate_rows(e_1d, state.icell, offsets)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

        # deposit, onto garbage that both ignore: rho = sum, bitwise
        # what a deposit onto zeros leaves
        rho = _with_specials(rng.normal(size=(ncell, 1 << ndim)))
        rho_c, rho_n, rho_0 = rho.copy(), rho.copy(), np.zeros_like(rho)
        c.accumulate_rows(rho_c, state.icell, offsets, -0.37)
        numpy.accumulate_rows(rho_n, state.icell, offsets, -0.37)
        numpy.accumulate_rows(rho_0, state.icell, offsets, -0.37)
        assert rho_c.tobytes() == rho_n.tobytes() == rho_0.tobytes()

        # push: the ledger's zero displacement, unit and other scales;
        # through the ledger's adapter, whatever wrap it is handed
        for scales in ((0.0,) * ndim, (1.0,) * ndim, (0.37, 1.9, 0.5)[:ndim]):
            p, q, r = _copy(state), _copy(state), _copy(state)
            c.push(p, shape, ordering, scales)
            numpy.push(q, shape, ordering, scales)
            _adapter_push(c, r, shape, ordering, variant, scales)
            _assert_same(p, q, ("push", scales))
            _assert_same(r, q, ("adapter push", scales))

        # sort permutation
        assert np.array_equal(
            c.counting_sort_permutation(state.icell, ncell),
            numpy.counting_sort_permutation(state.icell, ncell),
        )

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_update_v_and_kinetic_terms_equal_numpy(self, ndim, n):
        """Update-v in one C pass has the bits of NumPy's gather then
        kick, and the kinetic energy's sum of squares those of NumPy's
        blocked pairwise fold."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(n + ndim)
        ordering, shape = _ordering(ndim, "morton" if ndim == 2 else "morton-3d")
        axes = "xyz"[:ndim]
        state = _population(rng, ndim, n, ordering, shape, True)
        e_1d = rng.normal(size=(ordering.ncells_allocated, ndim << ndim))
        offsets = tuple(state["d" + a] for a in axes)
        vs = tuple(state["v" + a] for a in axes)
        got, want, two_pass = ([v.copy() for v in vs] for _ in range(3))
        c.update_v(got, e_1d, state.icell, offsets)
        numpy.update_v(want, e_1d, state.icell, offsets)
        numpy.kick(two_pass, numpy.interpolate_rows(e_1d, state.icell, offsets),
                   (1.0,) * ndim)
        for g, w, t in zip(got, want, two_pass):
            assert g.tobytes() == w.tobytes() == t.tobytes()

        for scales in ((1.0,) * ndim, (0.37, 1.9, 3e-3)[:ndim]):
            got, want = (b.sum_squares(vs, scales) for b in (c, numpy))
            assert _bits(got) == _bits(want), scales

    @pytest.mark.parametrize("ncol", [2, 3])
    def test_sum_squares_is_numpys_pairwise_sum(self, ncol):
        """The energies' sum of squares, on ``c`` and on ``numpy``, is
        ``np.sum`` over the explicit terms bit for bit at every size of
        :data:`SUM_SIZES`."""
        assert _sum_squares_mismatches(
            [get_backend("c"), get_backend("numpy")], ncol) == []

    @pytest.mark.parametrize("shape", [(128, 128), (512, 512), (24, 16), (7, 9)])
    def test_field_energy_is_the_numpy_expression(self, shape):
        """``field_energy`` through either backend (or none) has the
        bits of ``0.5 * eps0 * np.sum(ex*ex + ey*ey) * dA``."""
        rng = np.random.default_rng(shape[0])
        ex, ey = rng.normal(size=shape), rng.normal(size=shape)
        want = 0.5 * 1.3 * float(np.sum(ex * ex + ey * ey)) * 0.07
        for b in (get_backend("c"), get_backend("numpy"), None):
            got = field_energy(ex, ey, 0.07, 1.3, backend=b)
            assert _bits(got) == _bits(want), b

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "recomputed"])
    @pytest.mark.parametrize("n", ADVANCE_SIZES)
    @pytest.mark.parametrize("ndim,curve", CURVES)
    def test_advance_equals_update_v_then_push(self, ndim, curve, n, stored):
        """The strip-mined pass has the bits of update-v over the whole
        population followed by the push — ``c``'s and NumPy's — on
        either side of every block edge, for both wraps, every ordering
        (L4D and Hilbert encoded after the last block), stored and
        recomputed coordinates."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(n + ndim)
        ordering, shape = _ordering(ndim, curve)
        state = _population(rng, ndim, n, ordering, shape, stored)
        e_1d = rng.normal(size=(ordering.ncells_allocated, ndim << ndim))
        for split in (c, numpy):
            one, two = _advance_pair(c, split, state, e_1d, shape, ordering)
            for k in state.keys():
                assert one[k].tobytes() == two[k].tobytes(), (split.name, k)

    @pytest.mark.parametrize("drive", list(DRIVES))
    @pytest.mark.parametrize("n", ADVANCE_SIZES)
    @pytest.mark.parametrize("curve", [c for d, c in CURVES if d == 2])
    def test_wall_and_drive_equal_numpy(self, curve, n, drive):
        """The scenario zoo inside the kernels: update-v through each
        drive, the push through the reflecting wall (particles several
        box widths out, velocities flipped) and the strip-mined pass
        through both have NumPy's bits on ``c``, on either side of
        every block edge, for every 2D ordering; the pass equals
        update-v then the push."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(n)
        ordering, shape = _ordering(2, curve)
        state = _population(rng, 2, n, ordering, shape, curve != "row-major")
        e_1d = rng.normal(size=(ordering.ncells_allocated, 8))
        e_1d.reshape(-1)[::7] = -0.0
        dr = DRIVES[drive]
        offsets, vs = (state.dx, state.dy), (state.vx, state.vy)
        got, want = ([v.copy() for v in vs] for _ in range(2))
        c.update_v(got, e_1d, state.icell, offsets, dr)
        numpy.update_v(want, e_1d, state.icell, offsets, dr)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), drive

        p, q = _copy(state), _copy(state)
        c.push(p, shape, ordering, (1.0, 1.0), "reflect")
        numpy.push(q, shape, ordering, (1.0, 1.0), "reflect")
        _assert_same(p, q, "reflect push")
        assert ((p.dx >= 0.0) & (p.dx <= 1.0)).all()

        one, two = _copy(state), _copy(state)
        c.advance(one, e_1d, shape, ordering, "reflect", dr)
        numpy.update_v((two.vx, two.vy), e_1d, two.icell, (two.dx, two.dy), dr)
        numpy.push(two, shape, ordering, (1.0, 1.0), "reflect")
        _assert_same(one, two, ("advance", drive))

    @pytest.mark.parametrize("stored", [True, False], ids=["stored", "recomputed"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("ndim,curve", CURVES)
    def test_staged_push_equals_numpy(self, ndim, curve, variant, stored):
        """The ``numpy-mp`` worker's push: particles ``[lo, hi)`` of the
        non-velocity columns copied from a front into a back buffer and
        pushed there by the body's in-place push (for L4D and Hilbert,
        ``ordering.encode`` runs on the slice).  The front is untouched,
        the back buffer outside the slice too, and the slice holds, on
        the ``c`` body as on ``numpy``, what the whole in-place push
        leaves — whatever wrap the ledger's adapter is handed for the
        whole push."""
        from repro.parallel.executor import _exec_push

        c, numpy = get_backend("c"), get_backend("numpy")
        n = 2 * BLOCK + 17
        rng = np.random.default_rng(ndim)
        ordering, shape = _ordering(ndim, curve)
        state = _population(rng, ndim, n, ordering, shape, stored)
        staged = [k for k in state.keys() if k[0] != "v"]
        scales = (0.37, 1.9, 0.5)[:ndim]
        in_place = _copy(state)
        _adapter_push(c, in_place, shape, ordering, variant, scales)
        for lo, hi in ((0, n), (BLOCK - 3, n - 5)):
            dsts = []
            for backend in (c, numpy):
                src = _copy(state)
                dst = {k: np.full(n, 7, dtype=state[k].dtype) for k in staged}
                _exec_push(backend, dict(src), dst, lo, hi, shape, ordering,
                           scales)
                _assert_same(src, state, "source")
                dsts.append(dst)
            for k in staged:
                assert np.array_equal(dsts[0][k], dsts[1][k]), (lo, k)
                assert (dsts[0][k][:lo] == 7).all() and (dsts[0][k][hi:] == 7).all()
                assert np.array_equal(dsts[0][k][lo:hi], in_place[k][lo:hi]), k

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_column_deposit_equals_numpy(self, ndim):
        """``accumulate_rows(..., corners=)`` — any subset of the
        columns (the others are NULL to the C loop and untouched), onto
        garbage the owned columns ignore, row-major and through the
        transposed corner-major slab the ``numpy-mp`` worker passes,
        whole and on a cell sub-range of it with range-relative keys."""
        c, numpy = get_backend("c"), get_backend("numpy")
        nc, n, ncell = 1 << ndim, 2 * BLOCK + 17, 64
        rng = np.random.default_rng(ndim)
        icell = rng.integers(0, ncell, n)
        offsets = tuple(rng.random(n) for _ in range(ndim))
        lo, hi = 13, 41
        sel = np.flatnonzero((icell >= lo) & (icell < hi))
        sub = (icell[sel] - lo, tuple(o[sel] for o in offsets))
        for corners in ([0], [nc - 1], [1, 2], list(range(0, nc, 2)),
                        list(range(nc))):
            others = [k for k in range(nc) if k not in corners]
            rho = rng.normal(size=(ncell, nc))
            slab = rng.normal(size=(nc, ncell))
            got, want = [], []
            for backend, out in ((c, got), (numpy, want)):
                r, s = rho.copy(), slab.copy()
                backend.accumulate_rows(r, icell, offsets, -0.37, corners=corners)
                backend.accumulate_rows(s.T, icell, offsets, -0.37, corners=corners)
                backend.accumulate_rows(s.T[lo:hi], *sub, 0.5, corners=corners)
                out += [r, s]
            for g, w in zip(got, want):
                assert np.array_equal(g, w), corners
            assert np.array_equal(got[0][:, others], rho[:, others])
            assert np.array_equal(got[1][others], slab[others])
            full = np.zeros((ncell, nc))
            numpy.accumulate_rows(full, icell, offsets, -0.37)
            assert np.array_equal(got[0][:, corners], full[:, corners])

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("ndim,curve,shape,kw", GRIDS)
    def test_grid_loops_equal_numpy(self, ndim, curve, shape, kw):
        """The ρ fold and the field broadcast through the cell map,
        against NumPy's gathers through the corner maps, byte for byte
        — NaN, ±inf and −0.0 included — at unit and other scales.  Rows
        no cell maps to (L4D padding) are not read: NaN there does not
        reach the fold, and the broadcast leaves them exactly zero."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(ndim)
        fc, fn = (_fields(ndim, curve, shape, kw, b) for b in (c, numpy))
        nalloc = fc.ordering.ncells_allocated
        padding = np.setdiff1d(np.arange(nalloc), fc.cell_index_map())
        assert (len(padding) > 0) == (curve == "l4d")

        rho = _with_specials(rng.normal(size=(nalloc, 1 << ndim)))
        rho[padding] = np.nan
        fc.rho_1d[...] = fn.rho_1d[...] = rho
        got, want = fc.reduce_rho_to_grid(), fn.reduce_rho_to_grid()
        assert got.shape == shape and got.tobytes() == want.tobytes()
        assert fc._corner_cell is None and fn._corner_cell is not None

        for scales in ((1.0,) * ndim, (-0.37, 2.5, 1e-3)[:ndim]):
            comps = [_with_specials(rng.normal(size=shape)) for _ in shape]
            c.broadcast_rows(fc, comps, scales)
            numpy.broadcast_rows(fn, comps, scales)
            assert fc.e_1d.tobytes() == fn.e_1d.tobytes(), scales
            assert not fc.e_1d[padding].tobytes().strip(b"\0")
        assert fc._corner_point is None

    @pytest.mark.parametrize("backend", ["c", "numpy", "numpy-mp"])
    def test_corner_maps_are_built_by_the_numpy_body_only(self, backend):
        """The two index maps (16 MiB at 512²) exist for NumPy's
        gathers: a ``c`` run — and a ``numpy-mp`` run, whose parent
        folds and broadcasts on its ``c`` body — never allocates them."""
        grid = GridSpec(64, 64, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        cfg = OptimizationConfig(backend=backend, workers=2, sort_period=2)
        with Simulation(grid, LandauDamping(alpha=0.05), 4096, cfg,
                        dt=0.05, seed=1) as sim:
            sim.run(3)
            f = sim.stepper.fields
            maps = (f._corner_cell, f._corner_point)
        built = backend == "numpy"
        assert [m is not None for m in maps] == [built, built]

    @staticmethod
    def _assert_run_has_numpy_bits(**cfg_kw):
        """Seven steps through a sort on ``c`` and ``numpy``: the same
        particle columns and the same ρ, bit for bit.  A
        :class:`ModelConfig` takes the model axes too."""
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
        states = {}
        for backend in ("c", "numpy"):
            cfg = ModelConfig(sort_period=3, backend=backend, **cfg_kw)
            with Simulation(grid, LandauDamping(alpha=0.05), 1500, cfg,
                            dt=0.05, seed=11) as sim:
                sim.run(7)
                states[backend] = (
                    sim.particles.as_dict(), sim.stepper.rho_grid.copy())
        for name, want in states["numpy"][0].items():
            assert np.array_equal(states["c"][0][name], want), name
        assert np.array_equal(states["c"][1], states["numpy"][1])

    def test_aos_run_has_numpy_bits(self):
        """A model config naming AoS particles stores SoA columns, which fit
        the C ABI: the compiled loops run, with NumPy's bits."""
        self._assert_run_has_numpy_bits(particle_layout="aos")

    @pytest.mark.parametrize("layout", ["redundant", "standard"])
    def test_unhoisted_run_has_numpy_bits(self, layout):
        """A model config naming un-hoisted units (and either field
        layout) runs the hoisted loops: the compiled loops run, with
        NumPy's bits."""
        self._assert_run_has_numpy_bits(field_layout=layout, hoisting=False)

    def test_c_counting_sort_matches_reference(self, rng):
        from repro.particles.sorting import counting_sort_permutation_reference

        keys = rng.integers(0, 97, 4000).astype(np.int64)
        perm = get_backend("c").counting_sort_permutation(keys, 97)
        np.testing.assert_array_equal(
            perm, counting_sort_permutation_reference(keys, 97)
        )


def test_exports_are_the_signature_table():
    """Every function ``ckernels.c`` exports is bound in
    ``_C_SIGNATURES`` and every binding names one: a kernel whose
    caller goes cannot outlive it unnoticed."""
    src = (Path(SRC) / "repro" / "core" / "ckernels.c").read_text()
    # definitions start in column 0; the static ones (INLINE
    # included) are not exported
    exported = {
        m.group(1) for m in re.finditer(
            r"^(?!static\b|INLINE\b)[A-Za-z_][\w \t*]*?\b(\w+)\(",
            src, re.M)
    }
    assert exported == set(B._C_SIGNATURES)


# ----------------------------------------------------------------------
# Defined on every input
# ----------------------------------------------------------------------
@needs_cc
class TestDefinedOnEveryInput:
    def _poisoned(self, stored=True, curve="morton"):
        rng = np.random.default_rng(0)
        ordering, shape = _ordering(2, curve)
        p = _population(rng, 2, 64, ordering, shape, stored)
        p.vx[:] = rng.normal(size=64)
        p.vy[:] = rng.normal(size=64)
        p.vx[: len(BAD)] = BAD
        p.vy[8 : 8 + len(BAD)] = BAD
        return p, ordering, shape

    def test_bitwise_push_of_non_finite_positions(self):
        """``icoord`` stays a coordinate and the offset carries the
        poison out, for the supervisor's finite guard to find."""
        p, ordering, shape = self._poisoned()
        get_backend("c").push(p, shape, ordering, (1.0, 1.0))
        bad = slice(0, 3)  # nan, +inf, -inf
        assert not np.isfinite(p.dx[bad]).any()
        assert np.isnan(p.dx[0]) and p.dx[1] == np.inf and p.dx[2] == -np.inf
        assert ((0 <= p.ix) & (p.ix < shape[0])).all()
        assert ((0 <= p.icell) & (p.icell < ordering.ncells_allocated)).all()
        clean = slice(16, None)
        assert np.isfinite(p.dx[clean]).all() and np.isfinite(p.dy[clean]).all()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_finite_push_has_x86_numpy_bits(self, variant):
        """``kernels._to_int64`` and ``ckernels.c::to_int64`` define the
        out-of-range cast to the same value (the one x86's cvttsd2si
        produces), on every host and without a NumPy cast warning — so
        the guard trips at the same step on either backend, under both
        wraps (a Morton and a 24 x 16 row-major grid), whatever wrap the
        ledger's adapter is handed."""
        for curve in ("morton", "row-major@24x16"):
            p, ordering, shape = self._poisoned(curve=curve)
            q = _copy(p)
            _adapter_push(get_backend("c"), p, shape, ordering, variant,
                          (1.0, 1.0))
            with warnings.catch_warnings():
                warnings.filterwarnings("error", message=".*encountered in cast")
                # mod(inf) and inf - inf are NaN by IEEE, and say so
                warnings.filterwarnings(
                    "ignore", message=".*encountered in (remainder|subtract)")
                get_backend("numpy").push(q, shape, ordering, (1.0, 1.0))
            for name in ("dx", "dy", "ix", "iy"):
                np.testing.assert_array_equal(p[name], q[name],
                                              err_msg=(curve, name))

    def test_reflect_push_of_every_input(self):
        """The wall's fold casts through ``to_int64`` / ``_to_int64``:
        positions NaN, ±inf, ±1e300, beyond int64, exact hits on 0 and
        on the far wall, offsets and velocities of −0.0 give NumPy's
        bits on ``c`` with no cast warning.  A non-finite position keeps
        a non-finite offset, at coordinate ``INT64_MIN`` as under the
        modulo wrap, for the finite guard to find; every other lands
        inside, a hit on the far wall in the last cell at offset 1.0;
        nothing unbounced flips."""
        c, numpy = get_backend("c"), get_backend("numpy")
        ordering, shape = _ordering(2, "morton")
        nc = float(shape[0])
        x = np.array([*BAD, 0.0, nc, 2 * nc, -0.0, 3.5, -2.5, nc + 0.5])
        n = len(x)
        p = ParticleSoA(n, 1.0, 2)
        p.set_state(icell=ordering.encode(np.zeros(n, int), np.zeros(n, int)),
                    dx=np.where(x == 0.0, -0.0, 0.0), dy=np.full(n, 0.25),
                    vx=x, vy=np.full(n, -0.0),
                    ix=np.zeros(n, int), iy=np.zeros(n, int))
        q = _copy(p)
        c.push(p, shape, ordering, (1.0, 1.0), "reflect")
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*encountered in cast")
            warnings.filterwarnings(
                "ignore", message=".*encountered in (remainder|subtract)")
            numpy.push(q, shape, ordering, (1.0, 1.0), "reflect")
        for name in p.keys():
            assert p[name].tobytes() == q[name].tobytes(), name
        assert not np.isfinite(p.dx[:3]).any()
        assert (p.ix[:3] == np.iinfo(np.int64).min).all()
        assert ((0 <= p.ix[3:]) & (p.ix[3:] < shape[0])).all()
        hit = slice(len(BAD), len(BAD) + 4)  # 0, nc, 2 nc, -0.0
        assert list(p.ix[hit]) == [0, shape[0] - 1, 0, 0]
        assert list(p.dx[hit]) == [0.0, 1.0, 0.0, 0.0]
        assert p.vx[hit].tobytes() == x[hit].tobytes()
        assert list(p.vx[-3:]) == [3.5, 2.5, -(nc + 0.5)]
        assert p.vy.tobytes() == np.full(n, -0.0).tobytes()
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*encountered in cast")
            warnings.filterwarnings("ignore", message=".*encountered in remainder")
            i, off, flip = _axis_reflect(np.array([np.nan, np.inf, 1e300, -0.0]), 8)
        assert i[0] == i[1] == np.iinfo(np.int64).min and np.isnan(off[:2]).all()
        assert 0 <= i[2] < 8 and (i[3], off[3], flip[3]) == (0, 0.0, 1.0)

    def test_drive_adds_no_zero(self):
        """A drive without a field adds nothing: on a −0.0 field the
        velocity −0.0 stays −0.0 on both backends (``+ 0.0`` would make
        it +0.0)."""
        ordering, shape = _ordering(2, "morton")
        n = 17
        state = _population(np.random.default_rng(0), 2, n, ordering, shape, True)
        e_1d = np.full((ordering.ncells_allocated, 8), -0.0)
        for backend in (get_backend("c"), get_backend("numpy")):
            for dr in (None, Drive()):
                vs = (np.full(n, -0.0), np.full(n, -0.0))
                backend.update_v(vs, e_1d, state.icell, (state.dx, state.dy), dr)
                assert all(np.signbit(v).all() for v in vs), (backend.name, dr)

    def test_update_v_and_kinetic_terms_of_non_finite_inputs(self):
        """NaN, ±inf and beyond-int64 offsets and velocities carry
        through update-v and the kinetic energy's sum of squares with
        NumPy's bits; neither converts a double to an integer."""
        c, numpy = get_backend("c"), get_backend("numpy")
        p, ordering, _shape = self._poisoned()
        p.dx[8 : 8 + len(BAD)] = BAD
        p.dy[: len(BAD)] = BAD
        rng = np.random.default_rng(1)
        e_1d = rng.normal(size=(ordering.ncells_allocated, 8))
        got, want = ([p.vx.copy(), p.vy.copy()] for _ in range(2))
        c.update_v(got, e_1d, p.icell, (p.dx, p.dy))
        with np.errstate(all="ignore"):
            numpy.update_v(want, e_1d, p.icell, (p.dx, p.dy))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert np.isnan(got[0][8]) and np.isnan(got[1][0])
        no_nan = tuple(np.nan_to_num(v, nan=0.0, posinf=np.inf, neginf=-np.inf)
                       for v in (p.vx, p.vy))
        for vs, want in (((p.vx, p.vy), np.nan), (no_nan, np.inf)):
            with np.errstate(all="ignore"):
                got, ref = (b.sum_squares(vs, (2.0, 0.5)) for b in (c, numpy))
            assert _bits(got) == _bits(ref)
            np.testing.assert_equal(got, want)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 8193])
    def test_sum_squares_of_non_finite_inputs(self, n):
        """±inf anywhere gives +inf and NaN (with or without an inf)
        gives NaN, on ``c``, on ``numpy`` and in ``np.sum`` alike."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(n)
        for poisons, want in (((np.inf,), np.inf), ((-np.inf,), np.inf),
                              ((np.nan,), np.nan), ((np.inf, np.nan), np.nan)):
            for at in sorted({0, n // 2, n - 1}):
                cols = [rng.normal(size=n) for _ in range(3)]
                for j, poison in enumerate(poisons):
                    cols[j][(at + 5 * j) % n] = poison
                with np.errstate(all="ignore"):
                    ref = np.sum(sum(np.square(col) for col in cols))
                    for b in (c, numpy):
                        np.testing.assert_equal(
                            b.sum_squares(cols, (1.0, 0.5, 2.0)), want)
                np.testing.assert_equal(ref, want)

    @pytest.mark.parametrize("n", LANES)
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_non_finite_inputs_at_lane_remainders(self, ndim, n):
        """Populations around the vector width, a third of every offset
        and velocity column poisoned: both wraps of the push (Morton
        and row-major extents that are not powers of two), update-v,
        the strip-mined pass and the
        kinetic energy's sum of squares keep NumPy's bits through the vector bodies
        and their epilogues."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(n)
        axes = "xyz"[:ndim]
        scales = (1.0, 0.37, 1.9)[:ndim]
        modulo = "row-major@24x16" if ndim == 2 else "row-major-3d@12x8x8"
        for curve in ("morton" if ndim == 2 else "morton-3d", modulo):
            ordering, shape = _ordering(ndim, curve)
            p = _population(rng, ndim, n, ordering, shape, True)
            _poison([p["v" + a] for a in axes])
            e_1d = rng.normal(size=(ordering.ncells_allocated, ndim << ndim))
            q, r = _copy(p), _copy(p)
            c.push(q, shape, ordering, scales)
            with warnings.catch_warnings():
                warnings.filterwarnings("error", message=".*encountered in cast")
                warnings.filterwarnings(
                    "ignore", message=".*encountered in (remainder|subtract|add)")
                numpy.push(r, shape, ordering, scales)
                one, two = _advance_pair(c, numpy, p, e_1d, shape, ordering)
                for k in p.keys():
                    assert one[k].tobytes() == two[k].tobytes(), (curve, k)
            for k in r.keys():
                assert q[k].tobytes() == r[k].tobytes(), (curve, k)

        offsets = _poison([p["d" + a].copy() for a in axes])
        vs = [p["v" + a] for a in axes]
        got, want = ([v.copy() for v in vs] for _ in range(2))
        c.update_v(got, e_1d, p.icell, offsets)
        with np.errstate(all="ignore"):
            numpy.update_v(want, e_1d, p.icell, offsets)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        with np.errstate(all="ignore"):
            want = numpy.sum_squares(vs, (2.0, 0.5, 3.0)[:ndim])
        got = c.sum_squares(vs, (2.0, 0.5, 3.0)[:ndim])
        assert _bits(got) == _bits(want)

    def test_advance_of_a_cell_outside_the_grid_raises_and_touches_nothing(self):
        """The cell check runs over every particle before the first
        block: a bad cell in the second block leaves the first block's
        velocities and positions as they were."""
        c = get_backend("c")
        rng = np.random.default_rng(0)
        n = 2 * C_BLOCK + 17
        ordering, shape = _ordering(2, "morton")
        e_1d = rng.normal(size=(ordering.ncells_allocated, 8))
        for at in (0, C_BLOCK + 5, n - 1):
            for bad in (ordering.ncells_allocated, -1, np.iinfo(np.int64).min):
                p = _population(rng, 2, n, ordering, shape, True)
                p.icell[at] = bad
                before = _copy(p)
                with pytest.raises(IndexError, match=f"particle {at}:"):
                    c.advance(p, e_1d, shape, ordering)
                _assert_same(p, before, (at, bad))

    def test_guard_trips_at_the_same_step_as_numpy(self):
        def failures(backend):
            grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
            cfg = OptimizationConfig(backend=backend, workers=2)
            sim = Simulation(grid, LandauDamping(alpha=0.05), 1500, cfg,
                             dt=0.05, seed=11)
            inj = FaultInjector(seed=3).add_nan(step=7, array="vx", count=5)
            with SupervisedRun(sim, checkpoint_every=5, injector=inj) as sup:
                history = sup.run(12)
                return ([(f["step"], f["error"]) for f in sup.report.failures],
                        history.field_energy)

        want = failures("numpy")
        assert want[0] and want[0][0][1] == "GuardTrippedError"
        assert failures("c") == want
        assert failures("numpy-mp") == want

    def test_cell_outside_the_grid_raises_and_touches_nothing(self):
        c = get_backend("c")
        rng = np.random.default_rng(0)
        n, ncell = 100, 64
        icell = rng.integers(0, ncell, n)
        d = (rng.random(n), rng.random(n))
        rho = rng.normal(size=(ncell, 4))
        before = rho.copy()
        vs = (rng.normal(size=n), rng.normal(size=n))
        v_before = b"".join(v.tobytes() for v in vs)
        for bad in (ncell, -1, np.iinfo(np.int64).min):
            icell[37] = bad
            for corners in (None, [1, 2]):
                with pytest.raises(IndexError, match="particle 37"):
                    c.accumulate_rows(rho, icell, d, 1.0, corners=corners)
                assert np.array_equal(rho, before)
            with pytest.raises(IndexError, match="particle 37"):
                c.update_v(vs, rng.normal(size=(ncell, 8)), icell, d)
            assert b"".join(v.tobytes() for v in vs) == v_before
            with pytest.raises(IndexError, match="particle 37"):
                c.interpolate_rows(rng.normal(size=(ncell, 8)), icell, d)
            with pytest.raises(ValueError, match="keys out of range"):
                c.counting_sort_permutation(icell, ncell)

    def test_cell_outside_the_grid_in_a_worker_shard_raises(self):
        """``numpy-mp`` on the ``c`` body: the worker's gather refuses
        the cell, the parent's serial retry raises serial ``c``'s
        ``IndexError`` (the index counted within the shard), and closing
        the run leaves no shared segment behind."""
        from repro.parallel.executor import MultiprocessBackend

        if not MultiprocessBackend.is_available():
            pytest.skip("POSIX shared memory unavailable")
        grid = GridSpec(16, 16, 0.0, 4 * np.pi, 0.0, 4 * np.pi)

        def poisoned_step(backend):
            cfg = OptimizationConfig(backend=backend, workers=2,
                                     mp_task_timeout=10.0)
            with Simulation(grid, LandauDamping(alpha=0.05), 2000, cfg,
                            dt=0.05, seed=11) as sim:
                st = sim.stepper
                sim.step()
                st.particles.icell[1500] = ncell = st.ordering.ncells_allocated
                segments = ()
                if backend == "numpy-mp":
                    engine = st.backend.engine_for(st)
                    assert engine.body.name == "c"
                    segments = engine.arena.segment_names
                with pytest.raises(IndexError) as exc:
                    sim.step()
                if segments:
                    assert st.timings.fallbacks == 1
            return str(exc.value), ncell, segments

        want, ncell, _ = poisoned_step("c")
        got, _, segments = poisoned_step("numpy-mp")
        assert want == f"particle 1500: cell index {ncell} outside [0, {ncell})"
        assert got == f"particle 500: cell index {ncell} outside [0, {ncell})"
        if os.path.isdir("/dev/shm"):
            assert not [s for s in segments if os.path.exists("/dev/shm/" + s)]

    @pytest.mark.parametrize("ndim,curve,shape,kw", [GRIDS[0], GRIDS[3], GRIDS[5]])
    def test_grid_loop_cell_outside_raises_and_writes_nothing(
        self, ndim, curve, shape, kw
    ):
        c = get_backend("c")
        rng = np.random.default_rng(0)
        f = _fields(ndim, curve, shape, kw, c)
        f.rho_1d[...] = rng.normal(size=f.rho_1d.shape)
        comps = [rng.normal(size=shape) for _ in shape]
        f.load_field_from_grid(*comps)
        before = f.e_1d.copy()
        nalloc, flat = len(f.rho_1d), f._cell_index_map.reshape(-1)
        for bad in (nalloc, -1, np.iinfo(np.int64).min):
            flat[37] = bad
            with pytest.raises(IndexError, match="grid point 37"):
                f.reduce_rho_to_grid()
            with pytest.raises(IndexError, match="grid point 37"):
                c.broadcast_rows(f, comps, (0.5,) * ndim)
            assert f.e_1d.tobytes() == before.tobytes()

    def test_grid_loop_arguments_that_do_not_fit_take_the_numpy_kernel(self):
        """Fortran-order, strided, float32 or list components: NumPy's
        bits; the wrong count or shape: NumPy's ValueError."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(0)
        fc, fn = (_fields(*GRIDS[0], b) for b in (c, numpy))
        shape = fc.grid.shape
        ex, ey = rng.normal(size=shape), rng.normal(size=shape)
        frozen = ey.copy()
        frozen.flags.writeable = False
        for comps in (
            (np.asfortranarray(ex), ey), (ex, frozen),
            (ex.astype(np.float32), ey), (ex.tolist(), ey),
            (np.repeat(ex, 2, axis=1)[:, ::2], ey),
        ):
            c.broadcast_rows(fc, comps, (0.5, 2.0))
            numpy.broadcast_rows(fn, comps, (0.5, 2.0))
            assert fc.e_1d.tobytes() == fn.e_1d.tobytes()
        for bad in ((ex,), (ex, ey[:, :-1]), (ex, ey, ey)):
            with pytest.raises(ValueError):
                fc.load_field_from_grid(*bad)
        with pytest.raises(ValueError):
            c.broadcast_rows(fc, (ex, ey), (1.0,))

    def test_arguments_that_do_not_fit_take_the_numpy_kernel(self):
        """Lists, int32 indices, strided views and read-only arrays:
        NumPy's answer, not a bad pointer."""
        c, numpy = get_backend("c"), get_backend("numpy")
        rng = np.random.default_rng(0)
        n, ncell = 50, 64
        e_1d = rng.normal(size=(ncell, 8))
        icell = rng.integers(0, ncell, n)
        dx, dy = rng.random(2 * n)[::2], rng.random(n)
        frozen = rng.random(n)
        frozen.flags.writeable = False
        for args in (
            (e_1d, icell.astype(np.int32), (dy, dy)),
            (e_1d, list(icell), (dy, dy)),
            (e_1d, icell, (dx, dy)),
            (e_1d, icell, (frozen, dy)),
            (np.asfortranarray(e_1d), icell, (dy, dy)),
        ):
            for g, w in zip(c.interpolate_rows(*args),
                            numpy.interpolate_rows(*args)):
                assert np.array_equal(g, w)
            vc, vn = ([dy.copy(), frozen.copy()] for _ in range(2))
            c.update_v(vc, *args)
            numpy.update_v(vn, *args)
            assert np.array_equal(vc, vn)


# ----------------------------------------------------------------------
# One statement, two clones
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def baseline():
    """``ckernels.c`` built without clones — the baseline body alone —
    with the extra flags the ``c`` instance of this process carries
    (the sanitize gate's, under ``make csan``)."""
    extra = get_backend("c").build_info.flags[len(cbuild.FLAGS):]
    return CBackend(extra_flags=(*extra, "-DCKERNELS_NO_CLONES"))


@needs_cc
class TestClones:
    def test_build_info_names_the_clone(self, baseline):
        assert baseline.build_info.isa == "single"
        assert get_backend("c").build_info.isa in ("x86-64-v4", "default", "single")

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("n", [*LANES, 2 * BLOCK + 17])
    @pytest.mark.parametrize("ndim,curve", CURVES)
    def test_every_kernel_has_the_bits_of_the_baseline_build(
        self, baseline, ndim, curve, n
    ):
        """Push (the curve's extents' wrap, stored and recomputed
        coordinates), the strip-mined pass (the same), update-v, the
        deposit (rows and columns), the gather, the sum of squares,
        the sort and the grid loops: byte for byte the baseline
        build's, on populations poisoned with NaN, ±inf and
        beyond-int64 values."""
        c = get_backend("c")
        rng = np.random.default_rng(n + ndim)
        ordering, shape = _ordering(ndim, curve)
        axes = "xyz"[:ndim]
        ncell = ordering.ncells_allocated
        e_1d = rng.normal(size=(ncell, ndim << ndim))
        scales = (0.37, 1.9, 0.5)[:ndim]
        for stored in (True, False):
            state = _population(rng, ndim, n, ordering, shape, stored)
            _poison([state["v" + a] for a in axes])
            pushed = []
            for b in (c, baseline):
                p = _copy(state)
                b.push(p, shape, ordering, scales)
                a = _copy(state)
                b.advance(a, e_1d, shape, ordering)
                pushed.append((p, a))
            (p, a), (q, a_q) = pushed
            for k in p.keys():
                assert p[k].tobytes() == q[k].tobytes(), (stored, k)
                assert a[k].tobytes() == a_q[k].tobytes(), (stored, k)

        state = _population(rng, ndim, n, ordering, shape, True)
        offsets = tuple(state["d" + a] for a in axes)
        vs = _poison([state["v" + a].copy() for a in axes])
        got = {}
        for b in (c, baseline):
            out = got.setdefault(b.build_info.isa, [])
            v = [a.copy() for a in vs]
            b.update_v(v, e_1d, state.icell, offsets)
            out += v
            out += b.interpolate_rows(e_1d, state.icell, offsets)
            rho = np.full((ncell, 1 << ndim), np.nan)
            b.accumulate_rows(rho, state.icell, offsets, -0.37)
            slab = np.full((1 << ndim, ncell), np.nan)
            b.accumulate_rows(slab.T, state.icell, offsets, 0.5, corners=[0, 1])
            out += [rho, slab]
            out.append(np.float64(b.sum_squares(vs, (0.37, 1.9, 3e-3)[:ndim])))
            out.append(b.counting_sort_permutation(state.icell, ncell))
        want, have = got.values()
        assert len(want) == len(have)
        for i, (g, w) in enumerate(zip(want, have)):
            assert g.tobytes() == w.tobytes(), i

    @pytest.mark.parametrize("ncol", [2, 3])
    def test_sum_squares_of_both_builds_is_numpys_sum(self, baseline, ncol):
        """The clone this host binds and the baseline body both give
        ``np.sum``'s bits over :data:`SUM_SIZES`."""
        assert _sum_squares_mismatches([get_backend("c"), baseline], ncol) == []

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("ndim,curve,shape,kw", GRIDS)
    def test_grid_loops_have_the_bits_of_the_baseline_build(
        self, baseline, ndim, curve, shape, kw
    ):
        rng = np.random.default_rng(ndim)
        fc, fb = (_fields(ndim, curve, shape, kw, b)
                  for b in (get_backend("c"), baseline))
        fc.rho_1d[...] = fb.rho_1d[...] = _with_specials(
            rng.normal(size=fc.rho_1d.shape))
        assert fc.reduce_rho_to_grid().tobytes() == fb.reduce_rho_to_grid().tobytes()
        comps = [_with_specials(rng.normal(size=shape)) for _ in shape]
        fc.body.broadcast_rows(fc, comps, (-0.37, 2.5, 1e-3)[:ndim])
        fb.body.broadcast_rows(fb, comps, (-0.37, 2.5, 1e-3)[:ndim])
        assert fc.e_1d.tobytes() == fb.e_1d.tobytes()


#: NumPy's AVX-512 dispatch off (its baseline and AVX2 loops run)
NO_AVX512 = ("X86_V4,AVX512_ICL,AVX512_SPR,AVX512_CLX,AVX512_CNL,"
             "AVX512_SKX")


@needs_cc
class TestNumpyDispatch:
    def test_sum_squares_is_numpys_sum_with_avx512_dispatch_off(self):
        """``c`` renders NumPy's pairwise fold, not one dispatch of it:
        the sweep of :data:`SUM_SIZES` still holds, on ``c`` and on
        ``numpy``, in a process where NumPy runs without its AVX-512
        loops."""
        child = (
            "from numpy._core._multiarray_umath import (\n"
            "    __cpu_dispatch__ as targets, __cpu_features__ as on)\n"
            "from repro.core.backends import get_backend\n"
            "from tests.test_ckernels import _sum_squares_mismatches\n"
            "b = [get_backend('c'), get_backend('numpy')]\n"
            "print([t for t in targets if on.get(t) and t in %r.split(',')])\n"
            "print([_sum_squares_mismatches(b, k) for k in (2, 3)])\n"
        ) % NO_AVX512
        env = dict(os.environ, PYTHONPATH=SRC, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
        out = subprocess.run([sys.executable, "-c", child], env=env,
                             cwd=Path(SRC).parent, capture_output=True, text=True)
        assert out.stdout.splitlines() == ["[]", "[[], []]"], out.stderr


# ----------------------------------------------------------------------
# The build
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Empty cache candidates under ``tmp_path``; the registry's cached
    ``c`` instance is set aside for the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    monkeypatch.delitem(B._INSTANCES, "c", raising=False)
    return tmp_path / "xdg" / "repro"


def _stub_compiler(tmp_path, monkeypatch, script):
    bindir = tmp_path / "bin"
    bindir.mkdir()
    cc = bindir / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bindir))


class TestBuild:
    @needs_cc
    def test_first_build_logs_once_then_hits_the_cache(self, fresh_cache, caplog):
        with caplog.at_level(logging.INFO, logger="repro.backends"):
            first = CBackend().build_info
            second = CBackend().build_info
        assert first.compiled and not second.compiled
        assert first.path == second.path and first.path.parent == fresh_cache
        assert first.flags == cbuild.FLAGS and "-ffast-math" not in first.flags
        lines = [r for r in caplog.records if "compiled the C kernels" in r.message]
        assert len(lines) == 1
        assert fresh_cache.stat().st_mode & 0o777 == 0o700
        assert not list(fresh_cache.glob("*.tmp"))

    @needs_cc
    def test_two_processes_building_at_once_both_load(self, tmp_path):
        script = (
            "from repro.core.backends import CBackend\n"
            "import numpy as np\n"
            "b = CBackend()\n"
            "perm = b.counting_sort_permutation(np.array([2, 0, 1, 0]), 3)\n"
            "assert perm.tolist() == [1, 3, 2, 0]\n"
            "print(b.build_info.path)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path))
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        assert outs[0][0] == outs[1][0]
        left = sorted(f.name for f in (tmp_path / "repro").iterdir())
        assert len(left) == 1 and left[0].endswith(".so"), left

    @needs_cc
    def test_cache_directory_others_can_write_is_refused(self, fresh_cache, caplog):
        fresh_cache.mkdir(parents=True)
        fresh_cache.chmod(0o777)
        planted = fresh_cache / f"ckernels-{cbuild._source_key(cbuild.FLAGS)}-0.so"
        planted.write_bytes(b"not an object")
        assert cbuild.cached_objects() == []
        with caplog.at_level(logging.WARNING, logger="repro.backends"):
            info = CBackend().build_info
        assert info.path.parent != fresh_cache
        assert info.path.parent.name == f"repro-{os.getuid()}"
        assert any("refusing" in r.message for r in caplog.records)
        assert sorted(fresh_cache.iterdir()) == [planted]

    @needs_cc
    @pytest.mark.skipif(os.getuid() != 0, reason="needs chown")
    def test_cache_directory_of_another_user_is_refused(self, fresh_cache):
        fresh_cache.mkdir(parents=True, mode=0o700)
        os.chown(fresh_cache, 12345, -1)
        assert CBackend().build_info.path.parent != fresh_cache
        assert not list(fresh_cache.iterdir())

    def test_failing_compiler_falls_back_to_numpy_with_one_warning(
        self, fresh_cache, tmp_path, monkeypatch, caplog
    ):
        _stub_compiler(tmp_path, monkeypatch, "exit 1\n")
        assert CBackend.is_available()
        with pytest.raises(BackendUnavailableError, match="exited 1"):
            get_backend("c")
        with caplog.at_level(logging.WARNING, logger="repro.backends"):
            assert get_backend("auto").name == "numpy"
        warned = [r for r in caplog.records
                  if "failed to initialize" in r.getMessage()]
        assert len(warned) == 1
        assert not fresh_cache.exists() or not list(fresh_cache.iterdir())

    @needs_cc
    def test_object_that_does_not_load_raises(
        self, fresh_cache, tmp_path, monkeypatch
    ):
        # under another directory: the loader would hand back the
        # object this process has already mapped for a path it knows
        name = CBackend().build_info.path.name
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
        (tmp_path / "other" / "repro").mkdir(parents=True, mode=0o700)
        (tmp_path / "other" / "repro" / name).write_bytes(b"\x7fELF garbage")
        with pytest.raises(BackendUnavailableError, match="cannot load"):
            CBackend()

    @needs_cc
    def test_cached_object_serves_a_host_without_compiler(
        self, fresh_cache, tmp_path, monkeypatch
    ):
        built = CBackend().build_info.path
        monkeypatch.setenv("PATH", str(tmp_path))
        assert cbuild.find_compiler() is None and CBackend.is_available()
        info = CBackend().build_info
        assert info.path == built and info.cc is None and not info.compiled


    @needs_cc
    def test_closed_run_returns_its_memory(self):
        """Nothing the backend allocates for good may land on the heap
        above the particle arrays, or glibc cannot return them when the
        run is closed: a ``c`` run leaves the arena as small as a
        ``numpy`` one.  (It held 125 MB more while a cache hit still ran
        ``cc --version`` — the ``subprocess`` machinery's first use —
        and made its ``ctypes`` array types at the first kernel call.)"""
        script = (
            "import ctypes, gc, sys\n"
            "import numpy as np\n"
            "from repro.core import OptimizationConfig, Simulation\n"
            "from repro.grid import GridSpec\n"
            "from repro.particles import LandauDamping\n"
            "libc = ctypes.CDLL(None)\n"
            "if not hasattr(libc, 'mallinfo2'):\n"
            "    sys.exit(77)\n"
            "class Info(ctypes.Structure):\n"
            "    _fields_ = [(str(i), ctypes.c_size_t) for i in range(10)]\n"
            "libc.mallinfo2.restype = Info\n"
            "grid = GridSpec(64, 64, 0.0, 4 * np.pi, 0.0, 4 * np.pi)\n"
            "sim = Simulation(grid, LandauDamping(alpha=0.05), 1_000_000,\n"
            "                 OptimizationConfig(backend=sys.argv[1]), dt=0.1, seed=1)\n"
            "sim.run(3)\n"
            "sim.close(); del sim; gc.collect()\n"
            "print(getattr(libc.mallinfo2(), '0') / 2**20)\n"  # .arena
        )
        arena = {}
        for backend in ("numpy", "c"):
            proc = subprocess.run(
                [sys.executable, "-c", script, backend], capture_output=True,
                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
            if proc.returncode == 77:
                pytest.skip("no mallinfo2 (not glibc >= 2.33)")
            assert proc.returncode == 0, proc.stderr
            arena[backend] = float(proc.stdout)
        assert arena["c"] < arena["numpy"] + 16, arena


# ----------------------------------------------------------------------
# What the user sees
# ----------------------------------------------------------------------
@needs_cc
class TestObservability:
    def test_info_names_the_compiler_and_the_object(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        info = get_backend("c").build_info
        assert "(auto -> c)" in out
        assert info.cc in out and str(info.path) in out
        assert "-ffp-contract=off" in out
        assert "cache hit" in out or "compiled by this process" in out

    def test_run_records_the_backend_as_c(self, capsys, tmp_path):
        from repro.cli import main

        tj = tmp_path / "timings.json"
        assert main(["run", "--particles", "2000", "--steps", "4",
                     "--grid", "16", "8", "--supervise",
                     "--timings-json", str(tj)]) == 0
        assert "backend=c" in capsys.readouterr().out
        doc = json.loads(tj.read_text())
        assert doc["supervisor"]["backend_history"] == ["c"]
