"""Locality-metric tests: the quantitative §IV-B arguments."""

import numpy as np
import pytest

from repro.curves import (
    get_ordering,
    index_distance_histogram,
    mean_neighbor_distance,
    neighbor_locality_report,
)


class TestUnitMoveStatistics:
    def test_row_major_y_moves_all_close(self):
        o = get_ordering("row-major", 64, 64)
        h = index_distance_histogram(o, 0, 1)
        assert h["<=1"] == 1.0

    def test_row_major_x_moves_all_far(self):
        o = get_ordering("row-major", 64, 64)
        h = index_distance_histogram(o, 1, 0)
        assert h["<=8"] == 0.0
        assert h["<=64"] == 1.0  # all exactly ncy away

    def test_l4d_seven_eighths_of_x_moves_close(self):
        # paper: with SIZE=8, 7/8 of horizontal moves give icell+SIZE...
        # vertical moves: 7/8 give icell+1
        o = get_ordering("l4d", 64, 64, size=8)
        hv = index_distance_histogram(o, 0, 1)
        # 7 of every 8 vertical steps stay inside a band; with the 63
        # interior steps per column that is 56/63
        assert hv["<=1"] == pytest.approx(56 / 63)
        hh = index_distance_histogram(o, 1, 0)
        assert hh["<=8"] == pytest.approx(1.0)  # always exactly SIZE

    def test_morton_half_of_y_moves_unit(self):
        o = get_ordering("morton", 64, 64)
        h = index_distance_histogram(o, 0, 1)
        assert h["<=1"] == pytest.approx(0.5, abs=0.02)

    def test_mean_distance_row_major(self):
        o = get_ordering("row-major", 32, 32)
        assert mean_neighbor_distance(o, 0, 1) == 1.0
        assert mean_neighbor_distance(o, 1, 0) == 32.0


class TestLocalityReport:
    @pytest.fixture(scope="class")
    def reports(self):
        names = ["row-major", "l4d", "morton", "hilbert"]
        return {
            n: neighbor_locality_report(get_ordering(n, 64, 64)) for n in names
        }

    def test_row_major_half_close(self, reports):
        # y moves close, x moves far -> 0.5 isotropic
        assert reports["row-major"].frac_close_isotropic == pytest.approx(0.5, abs=0.01)

    def test_nonlinear_layouts_beat_row_major(self, reports):
        rm = reports["row-major"].frac_close_isotropic
        for name in ("l4d", "morton", "hilbert"):
            assert reports[name].frac_close_isotropic > rm + 0.15, name

    def test_l4d_best_close_fraction(self, reports):
        # the paper's 7/8-close argument makes L4D the strongest on
        # this metric (~15/16 of unit moves land within SIZE)
        assert reports["l4d"].frac_close_isotropic > 0.9

    def test_report_fields(self, reports):
        r = reports["morton"]
        assert r.ordering_name == "morton"
        assert r.close_threshold == 8
        assert 0 <= r.frac_close_dx <= 1
        assert 0 <= r.frac_close_dy <= 1

    def test_hilbert_bounded_mean(self, reports):
        # Hilbert's worst moves are rare; its mean jump, over both move
        # directions, stays below row-major's
        def mean(r):
            return r.mean_dx + r.mean_dy

        assert mean(reports["hilbert"]) < 2 * mean(reports["row-major"])


class TestHistogramEdgeCases:
    def test_histogram_keys(self):
        o = get_ordering("row-major", 8, 8)
        h = index_distance_histogram(o, 0, 1, bins=(1, np.inf))
        assert set(h) == {"<=1", "<=inf"}
        assert h["<=inf"] == 1.0

    def test_cumulative_monotone(self):
        o = get_ordering("morton", 16, 16)
        h = index_distance_histogram(o, 1, 0)
        vals = list(h.values())
        assert vals == sorted(vals)
