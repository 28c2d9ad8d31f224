"""The estimators: block time, percentiles, spread, host-speed factor."""

import statistics

import numpy as np
import pytest

from reference import NOMINAL_S, Reference, factor
from stats import block_seconds, iqr_share, percentile


def series(n_blocks, period=20, plain=0.100, sort=0.150, first_sort=15):
    step_s, is_sort = [], []
    for i in range(n_blocks * period):
        s = i % period == first_sort
        step_s.append(sort if s else plain)
        is_sort.append(s)
    return step_s, is_sort


def test_block_is_period_minus_one_plain_steps_plus_one_sort_step():
    step_s, is_sort = series(3)
    assert block_seconds(step_s, is_sort, 20) == pytest.approx(19 * 0.100 + 0.150)


def test_block_survives_an_injected_stall_where_the_block_mean_does_not():
    step_s, is_sort = series(2)
    clean = block_seconds(step_s, is_sort, 20)
    step_s[7] += 0.500  # one scheduler stall, a quarter of a block long
    assert block_seconds(step_s, is_sort, 20) == pytest.approx(clean)
    per_block = [sum(step_s[:20]), sum(step_s[20:])]
    assert statistics.median(per_block) > 1.10 * clean  # median of two is a mean


def test_block_needs_a_sort_step():
    with pytest.raises(ValueError, match="at least one sort step"):
        block_seconds([0.1] * 10, [False] * 10, 20)


@pytest.mark.parametrize("n", [1, 2, 7, 20, 48])
@pytest.mark.parametrize("q", [50, 90, 99])
def test_percentile_is_numpys_linear_rule(n, q):
    rng = np.random.default_rng(n * 100 + q)
    xs = rng.random(n).tolist()
    assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)))


def test_iqr_share_is_the_quartile_distance_over_the_median():
    xs = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert iqr_share(xs) == pytest.approx((q3 - q1) / statistics.median(xs))
    assert iqr_share([3.0]) == 0.0


def test_a_host_that_runs_everything_slower_reports_the_same_seconds():
    # the step and the reference both take 1.4x as long in a slow phase
    quiet = 0.250 * factor(0.012, 0.012)
    slow = (1.4 * 0.250) * factor(1.4 * 0.012, 1.4 * 0.012)
    assert slow == pytest.approx(quiet)
    assert 1.0 * factor(NOMINAL_S) == pytest.approx(1.0)


def test_reference_kernel_repeats_and_records_its_samples():
    ref = Reference()
    assert ref._kernel() == Reference()._kernel()  # fixed seed, fixed code
    first = ref.sample()
    settled = ref.settled_sample()
    assert first > 0 and settled > 0
    assert len(ref.samples) == 12 and ref.samples[0] == first
    assert ref.host_speed() == pytest.approx(
        NOMINAL_S / statistics.median(ref.samples))
