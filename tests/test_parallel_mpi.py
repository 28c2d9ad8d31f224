"""Simulated-MPI tests: collectives, determinism, failure handling."""

import numpy as np
import pytest

from repro.model.mpi import CollectiveCostModel, SimMPI


class TestAllreduce:
    def test_sums_across_ranks(self):
        def fn(comm):
            local = np.full(4, float(comm.rank + 1))
            return comm.allreduce(local)

        results = SimMPI(4).run(fn)
        for r in results:
            np.testing.assert_array_equal(r, np.full(4, 10.0))

    def test_identical_on_all_ranks_bitwise(self):
        def fn(comm):
            rng = np.random.default_rng(comm.rank)
            return comm.allreduce(rng.random(100))

        results = SimMPI(5).run(fn)
        for r in results[1:]:
            np.testing.assert_array_equal(r, results[0])

    def test_matches_serial_rank_order_sum(self):
        arrays = [np.random.default_rng(r).random(50) for r in range(3)]

        def fn(comm):
            return comm.allreduce(arrays[comm.rank])

        out = SimMPI(3).run(fn)[0]
        expected = arrays[0].copy()
        expected += arrays[1]
        expected += arrays[2]
        np.testing.assert_array_equal(out, expected)

    def test_repeated_allreduce(self):
        def fn(comm):
            total = 0.0
            for i in range(5):
                total += comm.allreduce(np.array([float(comm.rank + i)]))[0]
            return total

        results = SimMPI(2).run(fn)
        # per round: (0+i)+(1+i) = 1+2i; sum over i=0..4: 5 + 2*10 = 25
        assert results == [25.0, 25.0]

    def test_single_rank(self):
        out = SimMPI(1).run(lambda c: c.allreduce(np.array([3.0])))
        assert out[0][0] == 3.0


class TestOtherCollectives:
    def test_bcast(self):
        def fn(comm):
            data = np.arange(5.0) if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        for r in SimMPI(3).run(fn):
            np.testing.assert_array_equal(r, np.arange(5.0))

    def test_bcast_requires_root_data(self):
        def fn(comm):
            return comm.bcast(None, root=0)

        with pytest.raises(ValueError):
            SimMPI(2).run(fn)

    def test_gather(self):
        def fn(comm):
            return comm.gather(comm.rank * 10, root=1)

        results = SimMPI(3).run(fn)
        assert results[1] == [0, 10, 20]
        assert results[0] is None and results[2] is None

    def test_allgather(self):
        results = SimMPI(3).run(lambda c: c.allgather(c.rank**2))
        assert all(r == [0, 1, 4] for r in results)

    def test_barrier_orders_phases(self):
        log = []

        def fn(comm):
            log.append(("before", comm.rank))
            comm.barrier()
            log.append(("after", comm.rank))

        SimMPI(3).run(fn)
        phases = [p for p, _ in log]
        assert phases.index("after") >= 3  # all befores precede any after


class TestPointToPoint:
    def test_send_recv(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send({"x": 42}, dest=1)
                return None
            return comm.recv(source=0)

        results = SimMPI(2).run(fn)
        assert results[1] == {"x": 42}

    def test_tags_separate_channels(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            # receive in reverse tag order
            b = comm.recv(source=0, tag=2)
            a = comm.recv(source=0, tag=1)
            return (a, b)

        assert SimMPI(2).run(fn)[1] == ("a", "b")

    def test_ring_pass(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(comm.rank, dest=right)
            return comm.recv(source=left)

        results = SimMPI(4).run(fn)
        assert results == [3, 0, 1, 2]


class TestRuntime:
    def test_rejects_bad_rank_count(self):
        with pytest.raises(ValueError):
            SimMPI(0)

    def test_rank_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 exploded")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            SimMPI(3).run(fn)

    def test_results_in_rank_order(self):
        results = SimMPI(6).run(lambda c: c.rank)
        assert results == list(range(6))


class TestCollectiveCostModel:
    def test_single_rank_free(self):
        assert CollectiveCostModel().allreduce_seconds(1, 1 << 20) == 0.0

    def test_grows_with_ranks(self):
        m = CollectiveCostModel()
        costs = [m.allreduce_seconds(p, 131072, 1.0) for p in (2, 8, 64, 512, 8192)]
        assert costs == sorted(costs)

    def test_grows_with_bytes(self):
        m = CollectiveCostModel()
        assert m.allreduce_seconds(16, 1 << 22) > m.allreduce_seconds(16, 1 << 10)

    def test_skew_scales_with_compute(self):
        m = CollectiveCostModel()
        slow = m.allreduce_seconds(64, 1024, compute_iter_seconds=1.0)
        fast = m.allreduce_seconds(64, 1024, compute_iter_seconds=0.01)
        assert slow > fast

    def test_fig7_anchor_pure_mpi_8192(self):
        """At Fig. 7's scale the skew term dominates: ~2 s per call at
        8192 ranks with ~1.1 s/iter compute."""
        m = CollectiveCostModel()
        t = m.allreduce_seconds(8192, 128 * 128 * 8, compute_iter_seconds=1.1)
        assert 1.0 < t < 4.0
