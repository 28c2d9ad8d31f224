"""Tests for the domain-decomposition counterfactual model (§V-A)."""

import pytest

from repro.model.domain_decomp import (
    DomainDecompositionModel,
    compare_schemes,
)


class TestPatchGeometry:
    @pytest.mark.parametrize("p,expect", [(4, (2, 2)), (16, (4, 4)), (8, (2, 4)), (6, (2, 3)), (7, (1, 7))])
    def test_near_square_factorization(self, p, expect):
        assert DomainDecompositionModel().patch_grid(p) == expect


class TestCostComponents:
    @pytest.fixture
    def dd(self):
        return DomainDecompositionModel()

    def test_halo_shrinks_with_more_ranks(self, dd):
        # per-rank halo edges get shorter as patches shrink
        assert dd.halo_seconds(64, 256, 256) < dd.halo_seconds(4, 256, 256)

    def test_migration_grows_with_rank_count(self, dd):
        # smaller patches -> larger crossing fraction (at fixed load)
        a = dd.migration_seconds(1_000_000, 4, 256)
        b = dd.migration_seconds(1_000_000, 64, 256)
        assert b > a

    def test_migration_fraction_capped(self, dd):
        # absurdly small patches can't migrate more than everything
        t = dd.migration_seconds(1000, 65536, 16)
        full = 8 * dd.latency_s + 1000 * dd.particle_bytes / (dd.bandwidth_gbs * 1e9)
        assert t <= full + 1e-12

    def test_imbalance_scales_compute(self, dd):
        base = dd.iteration_seconds(1.0, 16, 256, 256, 1e6, imbalance=0.0)
        skew = dd.iteration_seconds(1.0, 16, 256, 256, 1e6, imbalance=0.5)
        assert skew - base == pytest.approx(0.5, rel=0.05)

    def test_rejects_negative_imbalance(self, dd):
        with pytest.raises(ValueError):
            dd.iteration_seconds(1.0, 4, 64, 64, 1e5, imbalance=-0.1)


class TestComparison:
    def test_balanced_small_scale_dd_competitive(self):
        """With a uniform plasma and few ranks, DD's tiny halos beat the
        global allreduce — the reason DD is the 'state of the art'."""
        rows = compare_schemes([256], 1.0, 128, 128, 5e7, imbalance=0.0)
        assert rows[0].dd_seconds < rows[0].no_dd_seconds * 1.5

    def test_imbalance_flips_the_verdict(self):
        """The paper's §V-A point: once the plasma bunches, the no-DD
        scheme's automatic balance wins."""
        balanced = compare_schemes([64], 1.0, 128, 128, 5e7, imbalance=0.0)[0]
        skewed = compare_schemes([64], 1.0, 128, 128, 5e7, imbalance=1.0)[0]
        assert skewed.ratio > balanced.ratio
        assert skewed.winner == "no-DD"

    def test_ratio_and_winner_consistent(self):
        for row in compare_schemes([4, 64, 1024], 0.5, 128, 128, 1e7, 0.3):
            if row.ratio > 1:
                assert row.winner == "no-DD"
            else:
                assert row.winner == "DD"

    def test_no_dd_cost_grows_with_ranks(self):
        rows = compare_schemes([4, 64, 1024], 1.0, 128, 128, 1e7, 0.0)
        no_dd = [r.no_dd_seconds for r in rows]
        assert no_dd == sorted(no_dd)

    def test_problem_independence_of_no_dd(self):
        """The no-DD time is unchanged by imbalance of the *particle
        distribution in space* — every rank keeps its own particles."""
        a = compare_schemes([64], 1.0, 128, 128, 1e7, imbalance=0.0)[0]
        b = compare_schemes([64], 1.0, 128, 128, 1e7, imbalance=2.0)[0]
        assert b.no_dd_seconds == pytest.approx(a.no_dd_seconds)
        assert b.dd_seconds > 2.0 * a.dd_seconds
