"""Cache blocking of the NumPy kernels: invisible in the bits.

Three guards on the block loop of :mod:`repro.core.kernels` (which the
kernels of both dimensions, the push body and the ``numpy-mp``
shard bodies all run through):

* every blocked kernel equals the same kernel run as a single block,
  bitwise, on populations that end exactly on, one short of, and one
  past a block boundary;
* state digests of runs longer than one block, **recorded from an
  earlier commit**, are reproduced by numpy, ``numpy-mp`` at 2 and 4
  workers and ``c`` at 1, 2, 4 and 8 threads — the 2D
  one from before the kernels were blocked, the 3D one from the ``c``
  backend of the commit before NumPy's 3D gather became the left fold
  ``ckernels.c`` already was (EXPERIMENTS.md, "PR 22");
* the transient memory of the blocked kernels does not grow with the
  population (a ``tracemalloc`` byte count, identical on every host).
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import repro.core.kernels as kernels
from repro.core import OptimizationConfig, Simulation
from repro.core.backends import CBackend, get_backend
from repro.curves import get_ordering
from repro.grid import GridSpec
from repro.grid.fields import RedundantFields
from repro.particles import LandauDamping
from repro.particles.storage import ParticleSoA
from repro.pic3d import GridSpec3D, LandauDamping3D, PICStepper3D
from repro.verify.golden import state_digest

#: block size the boundary tests run under (the shipped 8192 would only
#: make them slow; the loop is the same loop)
B = 64
SIZES = [1, B - 1, B, B + 1, 2 * B + 17]
#: the values of the priced ``position_update`` axis, handed to the
#: frozen ledger's push adapters, which ignore them: the grid picks
#: the wrap
VARIANTS = ["branch", "modulo", "bitwise"]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Blocked == single block, bitwise
# ----------------------------------------------------------------------
def _kernels_2d(n, variant, sort, rho0, shape=(8, 8), curve="morton"):
    """Run interpolate, kick+push and the deposit on one seeded random
    state; return every output's bytes."""
    rng = np.random.default_rng(n)
    ncx, ncy = shape
    grid = GridSpec(ncx, ncy, 0.0, 1.0, 0.0, 1.0)
    ordering = get_ordering(curve, ncx, ncy)
    b = get_backend("numpy")
    ix, iy = rng.integers(0, ncx, n), rng.integers(0, ncy, n)
    icell = ordering.encode(ix, iy)
    if sort:
        order = np.argsort(icell, kind="stable")
        ix, iy, icell = ix[order], iy[order], icell[order]
    state = (icell, rng.random(n), rng.random(n),
             rng.normal(0, 2, n), rng.normal(0, 2, n), ix, iy)
    fields = RedundantFields(grid, ordering)
    fields.load_field_from_grid(rng.normal(size=shape), rng.normal(size=shape))
    p = ParticleSoA(n)
    p.set_state(*state)

    e_p = b.interpolate_rows(fields.e_1d, p.icell, (p.dx, p.dy))
    rho = np.full_like(fields.rho_1d, rho0)
    b.accumulate_rows(rho, p.icell, (p.dx, p.dy), -0.37)
    out = [*e_p, rho]
    b.kick((p.vx, p.vy), e_p, (0.7, 1.0))
    b.push_positions(p, ncx, ncy, ordering, variant, 1.0, 0.5)
    out += dict(p).values()
    return _digest(out)


@pytest.mark.parametrize("rho0", [0.0, 0.25], ids=["rho-zero", "rho-nonzero"])
@pytest.mark.parametrize("sort", [False, True], ids=["unsorted", "sorted"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", SIZES)
def test_blocked_kernels_equal_single_block_2d(monkeypatch, n, variant, sort, rho0):
    args = (n, variant, sort, rho0)
    monkeypatch.setattr(kernels, "BLOCK", 10**9)
    whole = _kernels_2d(*args)
    monkeypatch.setattr(kernels, "BLOCK", B)
    assert _kernels_2d(*args) == whole


def _kernels_3d(n, variant, sort, rho0, shape=(4, 4, 2), curve="morton"):
    rng = np.random.default_rng(n)
    grid = GridSpec3D(*shape)
    ordering = get_ordering(curve, *shape)
    b = get_backend("numpy")
    coords = [rng.integers(0, nc, n) for nc in shape]
    icell = ordering.encode(*coords)
    order = np.argsort(icell, kind="stable") if sort else np.arange(n)
    state = {"icell": icell[order]}
    state.update({"i" + a: c[order] for a, c in zip("xyz", coords)})
    state.update({"d" + a: rng.random(n) for a in "xyz"})
    state.update({"v" + a: rng.normal(0, 2, n) for a in "xyz"})
    fields = RedundantFields(grid, ordering)
    fields.load_field_from_grid(*(rng.normal(size=shape) for _ in range(3)))

    p = {k: v.copy() for k, v in state.items()}
    offsets = (p["dx"], p["dy"], p["dz"])
    e_p = b.interpolate_rows(fields.e_1d, p["icell"], offsets)
    rho = np.full_like(fields.rho_1d, rho0)
    b.accumulate_rows(rho, p["icell"], offsets, -0.37)
    out = [*e_p, rho]
    for a, e in zip("xyz", e_p):
        p["v" + a] += e
    b.push_positions_3d(p, shape, ordering, (1.0,) * 3, variant)
    out += p.values()
    return _digest(out)


@pytest.mark.parametrize("rho0", [0.0, 0.25], ids=["rho-zero", "rho-nonzero"])
@pytest.mark.parametrize("sort", [False, True], ids=["unsorted", "sorted"])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", SIZES)
def test_blocked_kernels_equal_single_block_3d(monkeypatch, n, variant, sort, rho0):
    monkeypatch.setattr(kernels, "BLOCK", 10**9)
    whole = _kernels_3d(n, variant, sort, rho0)
    monkeypatch.setattr(kernels, "BLOCK", B)
    assert _kernels_3d(n, variant, sort, rho0) == whole


@pytest.mark.parametrize("ndim,shape", [(2, (12, 8)), (3, (6, 4, 2))],
                         ids=["12x8", "6x4x2"])
@pytest.mark.parametrize("rho0", [0.0, 0.25], ids=["rho-zero", "rho-nonzero"])
@pytest.mark.parametrize("sort", [False, True], ids=["unsorted", "sorted"])
@pytest.mark.parametrize("n", SIZES)
def test_blocked_kernels_equal_single_block_on_a_modulo_grid(
    monkeypatch, n, sort, rho0, ndim, shape
):
    """Row-major extents that are not powers of two: the modulo wrap."""
    assert kernels.wrap_for(shape) == "modulo"
    run = _kernels_2d if ndim == 2 else _kernels_3d
    args = (n, "modulo", sort, rho0, shape, "row-major")
    monkeypatch.setattr(kernels, "BLOCK", 10**9)
    whole = run(*args)
    monkeypatch.setattr(kernels, "BLOCK", B)
    assert run(*args) == whole


# ----------------------------------------------------------------------
# Digests recorded at the parent commit (whole-array kernels)
# ----------------------------------------------------------------------
#: 2D Landau, 32x32, 20,000 particles, seed 1, dt 0.1, defaults (sort
#: at step 20), after 25 steps — ``state_digest`` as commit c47188a
#: recorded it (b14541c8…bb64), re-pinned once when the 2D field became
#: the spectral derivative of phi_hat, the form 3D always had (every
#: combo below printed the new value; docs/verification.md)
PARENT_DIGEST_2D = "ba99a38fea98c9d6c1924cdc1ebf5f3744354dc5be10a5a5c20d0ec57366e22a"
#: 3D Landau, 16x8x8, 40,000 particles, dt 0.1, sort every 5, after 8
#: steps — particles + rho/E grids as the ``c`` backend of commit
#: bf17aec produced them (277da2c7…8dca; ``numpy`` printed
#: de284d30…fbc30 there: its gather was an ``einsum``, whose association
#: follows NumPy's SIMD build), re-pinned once when 3D took 2D's t=0
#: velocity conversion ``v * (dt / h)`` for ``v * dt / h``: a copy of
#: the previous commit with only that expression changed printed the
#: new value on every combo below (docs/verification.md)
PARENT_DIGEST_3D = "9359e4eeac76fa45e4438548d08a18d5e6e82124b38c0da3281e03ecaf65a91e"

_needs_cc = pytest.mark.skipif(
    not CBackend.is_available(), reason="no C compiler"
)
COMBOS = [
    pytest.param("numpy", None, id="numpy"),
    pytest.param("numpy-mp", 2, id="numpy-mp-w2"),
    pytest.param("numpy-mp", 4, id="numpy-mp-w4"),
    pytest.param("c", None, id="c", marks=_needs_cc),
    # the thread team: 2D runs 3 shards at most, 3D 5
    pytest.param("c", 2, id="c-t2", marks=_needs_cc),
    pytest.param("c", 4, id="c-t4", marks=_needs_cc),
    pytest.param("c", 8, id="c-t8", marks=_needs_cc),
]


@pytest.mark.parametrize("backend,workers", COMBOS)
def test_parent_digest_beyond_one_block_2d(backend, workers):
    cfg = OptimizationConfig(backend=backend, workers=workers)
    grid = GridSpec(32, 32, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    with Simulation(grid, LandauDamping(alpha=0.05), 20_000, cfg,
                    dt=0.1, seed=1) as sim:
        assert sim.stepper.particles.n > 2 * kernels.BLOCK
        sim.run(25)
        assert state_digest(sim.stepper) == PARENT_DIGEST_2D


@pytest.mark.parametrize("backend,workers", COMBOS)
def test_parent_digest_beyond_one_block_3d(backend, workers):
    cfg = OptimizationConfig(backend=backend, workers=workers, sort_period=5)
    grid = GridSpec3D(16, 8, 8, xmax=4 * np.pi, ymax=2 * np.pi, zmax=2 * np.pi)
    st = PICStepper3D(grid, LandauDamping3D(alpha=0.05), 40_000, dt=0.1, config=cfg)
    try:
        st.run(8)
        # the column order the digest was recorded in
        recorded = ("icell", "ix", "iy", "iz", "dx", "dy", "dz", "vx", "vy", "vz")
        digest = _digest(
            [st.particles[k] for k in recorded]
            + [st.rho_grid, st.ex_grid, st.ey_grid, st.ez_grid]
        )
    finally:
        st.close()
    assert digest == PARENT_DIGEST_3D


# ----------------------------------------------------------------------
# No temporary larger than a block
# ----------------------------------------------------------------------
def _transient_bytes(fn, output_bytes):
    """Peak bytes ``fn`` allocates beyond the outputs it returns."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - output_bytes


def _interp_2d(n):
    rng = np.random.default_rng(0)
    e_1d = rng.random((256, 8))
    icell, dx, dy = rng.integers(0, 256, n), rng.random(n), rng.random(n)
    return (lambda: kernels.interpolate_rows(e_1d, icell, (dx, dy))), 2 * 8 * n


def _push_2d(n):
    rng = np.random.default_rng(0)
    ordering = get_ordering("morton", 16, 16)
    p = ParticleSoA(n)
    ix, iy = rng.integers(0, 16, n), rng.integers(0, 16, n)
    p.set_state(ordering.encode(ix, iy), rng.random(n), rng.random(n),
                rng.normal(size=n), rng.normal(size=n), ix, iy)
    b = get_backend("numpy")
    return (lambda: b.push(p, (16, 16), ordering, (1.0, 1.0))), 0


def _interp_3d(n):
    rng = np.random.default_rng(0)
    e_1d = rng.random((512, 24))
    icell = rng.integers(0, 512, n)
    d = [rng.random(n) for _ in range(3)]
    return (lambda: kernels.interpolate_rows(e_1d, icell, d)), 3 * 8 * n


@pytest.mark.parametrize("kernel", [_interp_2d, _push_2d, _interp_3d])
def test_transient_memory_does_not_grow_with_population(kernel):
    """Eight blocks need no more scratch than one: every temporary is
    block-sized.  (A whole-array kernel needs eight times as much.)"""
    block = kernels.BLOCK
    one = _transient_bytes(*kernel(block))
    eight = _transient_bytes(*kernel(8 * block))
    assert one > 0
    assert eight <= 1.5 * one
