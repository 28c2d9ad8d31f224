"""The collective cost model: the price of §V-A's per-step allreduce."""

from repro.model.mpi import CollectiveCostModel


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
