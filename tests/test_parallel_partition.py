"""Tests for histogram-balanced shard partitioning.

The contract under test (docs/parallelism.md, §V-B): cutting the
redundant ``rho_1d`` cell rows along *any* contiguous curve segments —
equal cells (no histogram) or histogram-balanced — never changes the
deposit result, because each row has exactly one owner and each owner
visits its particles in global order.  So the bitwise promise must
hold for both cuts at every worker count, while the histogram cut must
*measurably* improve the max/mean particle load on a skewed density.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.core.config import OptimizationConfig
from repro.core.simulation import Simulation
from repro.curves import get_ordering
from repro.grid.spec import GridSpec
from repro.parallel.partition import (
    PartitionPlanner,
    balance_ratio,
    corner_tasks,
    partition_cells,
    partition_range,
)
from repro.particles.initializers import GaussianBump
from repro.perf.instrument import StepTimings


def _skewed_histogram(nalloc: int, n: int, hot_cells: int = 8) -> np.ndarray:
    """90% of ``n`` particles piled into the first ``hot_cells`` cells."""
    rng = np.random.default_rng(99)
    hot = rng.integers(0, hot_cells, size=int(0.9 * n))
    cold = rng.integers(0, nalloc, size=n - hot.size)
    return np.bincount(np.concatenate([hot, cold]), minlength=nalloc)


#: the two cuts of ``partition_cells``: without a histogram (equal
#: cells) and with one (~equal particles along the curve)
CUTS = pytest.mark.parametrize("balanced", [
    pytest.param(False, id="flat"),
    pytest.param(True, id="curve-balanced"),
])


def _coverage_ok(ranges, nalloc):
    """Slices tile [0, nalloc) contiguously with empties trailing only."""
    assert ranges[0].start == 0
    assert ranges[-1].stop == nalloc
    seen_empty = False
    for a, b in zip(ranges, ranges[1:]):
        assert a.stop == b.start
    for sl in ranges:
        assert sl.stop >= sl.start
        if sl.stop == sl.start:
            seen_empty = True
        else:
            assert not seen_empty, "empty range before a non-empty one"


class TestPartitionCells:
    @CUTS
    @pytest.mark.parametrize("nparts", [1, 2, 3, 5, 7, 16])
    def test_covers_exactly(self, balanced, nparts):
        nalloc = 64
        hist = _skewed_histogram(nalloc, 1000) if balanced else None
        ranges = partition_cells(nalloc, nparts, hist)
        assert len(ranges) == nparts
        _coverage_ok(ranges, nalloc)

    @CUTS
    def test_more_parts_than_cells_trails_empties(self, balanced):
        hist = np.array([50, 1, 1], dtype=np.int64) if balanced else None
        ranges = partition_cells(3, 7, hist)
        _coverage_ok(ranges, 3)
        nonempty = [sl for sl in ranges if sl.stop > sl.start]
        assert len(nonempty) == 3
        assert all(sl.stop - sl.start == 1 for sl in nonempty)

    @CUTS
    def test_zero_cells(self, balanced):
        hist = np.zeros(0, np.int64) if balanced else None
        ranges = partition_cells(0, 4, hist)
        assert len(ranges) == 4
        assert all(sl.start == 0 and sl.stop == 0 for sl in ranges)

    def test_flat_sizes_differ_by_at_most_one(self):
        ranges = partition_cells(100, 7)
        sizes = [sl.stop - sl.start for sl in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_balanced_strictly_improves_skew(self):
        nalloc = 256
        hist = _skewed_histogram(nalloc, 20_000)
        for nparts in (2, 3, 5, 7):
            flat = partition_cells(nalloc, nparts)
            bal = partition_cells(nalloc, nparts, hist)
            r_flat = balance_ratio(flat, hist)
            r_bal = balance_ratio(bal, hist)
            # the skew puts ~90% of particles in worker 0's flat range
            assert r_flat > 1.5
            assert r_bal < r_flat
            assert abs(r_bal - 1.0) < abs(r_flat - 1.0)
            # bounded: no worker more than ~2x the mean after balancing
            assert r_bal <= 2.0

    def test_balanced_without_histogram_falls_back_to_flat(self):
        """An empty histogram carries no balance signal: equal cells."""
        zeros = np.zeros(64, np.int64)
        assert partition_cells(64, 4, zeros) == partition_cells(64, 4)

    def test_uniform_histogram_degenerates_to_flat(self):
        """On a uniform plasma the histogram cut *is* the equal-cell cut
        (why it can be the engine's only policy)."""
        uniform = np.full(64, 10, np.int64)
        for nparts in (2, 4, 8):
            assert partition_cells(64, nparts, uniform) == \
                partition_cells(64, nparts)

    @CUTS
    def test_deterministic(self, balanced):
        hist = _skewed_histogram(128, 5000) if balanced else None
        assert partition_cells(128, 5, hist) == partition_cells(128, 5, hist)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            partition_cells(64, 0)
        with pytest.raises(ValueError):
            partition_cells(-1, 2)


class TestBalanceRatio:
    def test_perfect_balance_is_one(self):
        hist = np.full(8, 10, np.int64)
        ranges = partition_cells(8, 4)
        assert balance_ratio(ranges, hist) == pytest.approx(1.0)

    def test_idle_workers_count_as_imbalance(self):
        hist = np.array([100, 0, 0, 0], np.int64)
        ranges = partition_cells(4, 4)
        # one worker has all load, mean divides by 4 -> ratio 4
        assert balance_ratio(ranges, hist) == pytest.approx(4.0)

    def test_empty_histogram_is_one(self):
        ranges = partition_cells(4, 2)
        assert balance_ratio(ranges, np.zeros(4, np.int64)) == 1.0
        assert balance_ratio([], np.array([5])) == 1.0


class TestPartitionRange:
    """Contract of the static equal-count split."""

    def test_covers_exactly(self):
        _coverage_ok(partition_range(100, 7), 100)

    def test_rejects_bad_threads(self):
        with pytest.raises(ValueError):
            partition_range(10, 0)

    def test_more_threads_than_items_trails_empties(self):
        ranges = partition_range(3, 8)
        assert len(ranges) == 8
        _coverage_ok(ranges, 3)
        assert [sl.stop - sl.start for sl in ranges[:3]] == [1, 1, 1]
        assert all(sl.stop == sl.start for sl in ranges[3:])

    def test_zero_items(self):
        ranges = partition_range(0, 4)
        assert all(sl.start == 0 and sl.stop == 0 for sl in ranges)

    def test_matches_flat_partition_cells(self):
        assert partition_range(100, 7) == partition_cells(100, 7)


class TestPartitionPlanner:
    def _skew(self, nalloc=64, n=5000):
        return _skewed_histogram(nalloc, n)

    def test_every_zero_freezes_partition(self):
        p = PartitionPlanner(nalloc=64, nparts=4, repartition_every=0)
        first = list(p.initial(self._skew()))
        assert not p.wants_histogram()
        for _ in range(5):
            assert p.maybe_repartition(self._skew()) is None
        assert p.current == first

    def test_repartitions_only_on_cadence(self):
        p = PartitionPlanner(nalloc=64, nparts=4,
                             repartition_every=3, rebalance_threshold=1.1)
        p.initial()  # flat-equivalent: no histogram yet -> imbalanced
        hist = self._skew()
        assert not p.wants_histogram()  # call 1 is not a multiple of 3
        assert p.maybe_repartition(hist) is None
        assert p.maybe_repartition(hist) is None  # call 2
        assert p.wants_histogram()  # call 3 is due
        moved = p.maybe_repartition(hist)
        assert moved is not None
        assert p.current == moved
        assert len(p.events) == 1
        ev = p.events[0]
        assert ev["call"] == 3
        assert ev["balance_after"] < ev["balance_before"]

    def test_hysteresis_blocks_balanced_repartition(self):
        hist = self._skew()
        p = PartitionPlanner(nalloc=64, nparts=4,
                             repartition_every=1, rebalance_threshold=1.5)
        p.initial(hist)  # already balanced against this histogram
        assert p.maybe_repartition(hist) is None
        assert p.events == []

    def test_threshold_guard(self):
        uniform = np.full(64, 10, np.int64)
        p = PartitionPlanner(nalloc=64, nparts=4,
                             repartition_every=1, rebalance_threshold=1.5)
        p.initial()
        # perfectly uniform load never crosses the threshold
        for _ in range(4):
            assert p.maybe_repartition(uniform) is None

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            PartitionPlanner(nalloc=8, nparts=2, repartition_every=-1)
        with pytest.raises(ValueError):
            PartitionPlanner(nalloc=8, nparts=2, rebalance_threshold=0.5)


class TestBitwiseOwnershipDeposit:
    """Cell-ownership deposit over any partition == serial, bit for bit.

    Uses extreme density skew (90% of particles in one spatial corner)
    under each curve ordering, the combination where the balanced cuts
    diverge most from the flat ones.
    """

    def _skewed_particles(self, ordering, n=6000, seed=42):
        rng = np.random.default_rng(seed)
        ncx, ncy = ordering.ncx, ordering.ncy
        n_hot = int(0.9 * n)
        ix = np.concatenate([
            rng.integers(0, max(1, ncx // 4), size=n_hot),
            rng.integers(0, ncx, size=n - n_hot),
        ])
        iy = np.concatenate([
            rng.integers(0, max(1, ncy // 4), size=n_hot),
            rng.integers(0, ncy, size=n - n_hot),
        ])
        icell = ordering.encode(ix, iy)
        dx = rng.random(n)
        dy = rng.random(n)
        return icell.astype(np.int64), dx, dy

    @pytest.mark.parametrize("curve", ["row-major", "morton", "hilbert"])
    @pytest.mark.parametrize("nworkers", [2, 3, 5, 7])
    def test_bitwise_identity_all_modes(self, curve, nworkers):
        ordering = get_ordering(curve, 16, 16)
        nalloc = ordering.ncells_allocated
        icell, dx, dy = self._skewed_particles(ordering)
        backend = get_backend("numpy")

        rho_ref = np.zeros((nalloc, 4))
        backend.accumulate_redundant(rho_ref, icell, dx, dy, 1.0)

        hist = np.bincount(icell, minlength=nalloc)
        for cut, histogram in (("flat", None), ("balanced", hist)):
            ranges = partition_cells(nalloc, nworkers, histogram)
            rho = np.zeros((nalloc, 4))
            for sl in ranges:
                if sl.stop <= sl.start:
                    continue
                mine = np.nonzero((icell >= sl.start) & (icell < sl.stop))[0]
                if mine.size == 0:
                    continue
                backend.accumulate_redundant(
                    rho[sl.start:sl.stop], icell[mine] - sl.start,
                    dx[mine], dy[mine], 1.0,
                )
            assert np.array_equal(rho, rho_ref), (
                f"{cut} partition broke bitwise identity "
                f"({curve}, {nworkers} workers)"
            )

    def test_balanced_beats_flat_on_skew(self):
        ordering = get_ordering("morton", 16, 16)
        icell, _, _ = self._skewed_particles(ordering)
        hist = np.bincount(icell, minlength=ordering.ncells_allocated)
        for nworkers in (2, 3, 5, 7):
            flat = partition_cells(len(hist), nworkers)
            bal = partition_cells(len(hist), nworkers, hist)
            assert balance_ratio(bal, hist) < balance_ratio(flat, hist)


class TestNumpyMpPartitionIntegration:
    """Real worker-pool runs beyond ``ncorner`` workers, where the
    deposit's columns are cut into histogram-balanced cell ranges."""

    pytestmark = pytest.mark.skipif(
        not pytest.importorskip(
            "repro.parallel.executor"
        ).MultiprocessBackend.is_available(),
        reason="POSIX shared memory / multiprocessing unavailable",
    )

    N, STEPS = 2000, 6
    #: 9 workers over 4 corners -> 3 cell ranges per column
    WORKERS, RANGES = 9, 3

    def _run(self, backend, *, eager_planner=False, **cfg_kw):
        cfg = OptimizationConfig(backend=backend, sort_period=3, **cfg_kw)
        grid = GridSpec(16, 16)
        sim = Simulation(grid, GaussianBump(), self.N, cfg, dt=0.05, seed=7)
        if eager_planner:
            # the engine's own cadence (every 10 deposits, 1.5x) never
            # fires in a 6-step run; tighten it so the cuts move mid-run
            planner = get_backend(backend).engine_for(sim.stepper).planner
            planner.repartition_every = 2
            planner.rebalance_threshold = 1.05
        sim.run(self.STEPS)
        st = sim.stepper
        state = {
            "rho": st.rho_grid.copy(),
            "ex": st.ex_grid.copy(),
            "vx": st.particles.vx.copy(),
            "icell": st.particles.icell.copy(),
        }
        return state, sim

    @pytest.mark.parametrize("eager_planner", [
        pytest.param(False, id="static-cut"),
        pytest.param(True, id="repartitioning"),
    ])
    def test_histogram_cut_bitwise_vs_serial(self, eager_planner):
        ref, _ = self._run("numpy")
        got, sim = self._run(
            "numpy-mp", workers=self.WORKERS, eager_planner=eager_planner
        )
        for key in ref:
            assert np.array_equal(ref[key], got[key]), f"{key} diverged"
        planner = get_backend("numpy-mp").engine_for(sim.stepper).planner
        if not eager_planner:
            assert planner.events == []

    def test_initial_cut_is_histogram_balanced(self):
        """The engine cuts from the t=0 histogram, not into equal cells."""
        cfg = OptimizationConfig(backend="numpy-mp", workers=self.WORKERS)
        with Simulation(GridSpec(16, 16), GaussianBump(), self.N, cfg,
                        dt=0.05, seed=7) as sim:
            st = sim.stepper
            ranges = get_backend("numpy-mp").engine_for(st).grid_shared.cell_ranges
            nalloc = st.fields.rho_1d.shape[0]
            hist = np.bincount(np.asarray(st.particles.icell), minlength=nalloc)
        assert ranges == partition_cells(nalloc, self.RANGES, hist)
        assert balance_ratio(ranges, hist) < \
            balance_ratio(partition_range(nalloc, self.RANGES), hist)

    def test_curve_balanced_repartitions_on_skew(self):
        _, sim = self._run(
            "numpy-mp", workers=self.WORKERS, eager_planner=True
        )
        planner = get_backend("numpy-mp").engine_for(sim.stepper).planner
        # the bump keeps the load skewed enough to trip the threshold
        assert len(planner.events) >= 1

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_up_to_ncorner_workers_take_no_histogram(self, workers):
        """Whole columns only: one range, no cuts — and
        equal column counts whenever ``workers`` divides ``ncorner``."""
        _, sim = self._run("numpy-mp", workers=workers, eager_planner=True)
        eng = get_backend("numpy-mp").engine_for(sim.stepper)
        assert eng.grid_shared.cell_ranges == [slice(0, eng.planner.nalloc)]
        assert eng.planner.events == []
        owned = [
            sum(len(corners) for _lo, _hi, corners in groups)
            for groups in corner_tasks(eng.grid_shared.cell_ranges, 4, workers)
        ]
        assert sum(owned) == 4
        if 4 % workers == 0:
            assert len(set(owned)) == 1


class TestCornerTasks:
    def test_every_task_dealt_exactly_once(self):
        for ncorner, nworkers, ranges in [
            (4, 1, partition_range(64, 1)), (4, 3, partition_range(64, 1)),
            (4, 5, partition_range(64, 2)), (8, 9, partition_range(64, 2)),
            (4, 9, partition_range(2, 3)),  # trailing empty range dropped
        ]:
            dealt = corner_tasks(ranges, ncorner, nworkers)
            assert len(dealt) == nworkers
            tasks = sorted(
                (lo, hi, c) for groups in dealt
                for lo, hi, corners in groups for c in corners
            )
            assert tasks == sorted(
                (r.start, r.stop, c) for r in ranges if r.stop > r.start
                for c in range(ncorner)
            )
            sizes = [sum(len(g[2]) for g in groups) for groups in dealt]
            assert max(sizes) - min(sizes) <= 1  # round-robin


class TestTimingsRecordsOfTheParent:
    def test_record_with_datamove_block_still_loads(self):
        """``as_record`` wrote a ``datamove`` block until PR 24; a
        stored record that carries one loads, the block ignored."""
        t = StepTimings(update_v=1.5, steps=3, particle_steps=1500)
        rec = t.as_record()
        assert "datamove" not in rec
        rec["datamove"] = {
            "samples": 2,
            "last": {"mode": "curve-balanced", "particles": 500,
                     "total_bytes": 123456, "balance_ratio": 1.25},
        }
        back = StepTimings.from_json(json.dumps(rec))
        assert back == t
        assert back.as_record() == t.as_record()
