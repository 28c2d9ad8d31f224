"""Table II + Figs. 5/6: cache misses per ordering, per iteration.

Replays exact per-loop address traces of a real (scaled) simulation
through the scaled Haswell cache hierarchy.  Paper values (50M
particles, 128x128, caches 32K/256K/25M):

    Table II (M misses/iter):   L1      L2     L3
        row-major               95.4    43.3   4.94
        L4D                     92.0    27.8   3.14
        Morton                  91.1    27.0   3.20
        Hilbert                 90.9    27.1   3.29
        improvement             -3.5%   -36%   -36%

Shapes to reproduce: L1 flat; non-canonical orderings clustered well
below row-major at L2/L3; sawtooth per-iteration series dropping at
every sort (Figs. 5/6).
"""

import numpy as np

from repro.model.costmodel import LoopKind

from conftest import (
    BENCH_ITERATIONS,
    BENCH_PARTICLES,
    BENCH_SORT_PERIOD,
    ORDERINGS,
    run_once,
    write_result,
)

#: Table II, in millions of misses/iteration (update-v + accumulate)
PAPER_TABLE2 = {
    "row-major": (95.4, 43.3, 4.94),
    "l4d": (92.0, 27.8, 3.14),
    "morton": (91.1, 27.0, 3.20),
    "hilbert": (90.9, 27.1, 3.29),
}


def _avg_uv_acc(series, level):
    """Average misses/iter over the update-v + accumulate pair only."""
    tot = (
        series.totals[LoopKind.UPDATE_V].misses_by_name()[level]
        + series.totals[LoopKind.ACCUMULATE].misses_by_name()[level]
    )
    return tot / series.n_iterations


def test_table2_average_misses(benchmark, ordering_miss_series):
    def table():
        lines = [
            "Table II — misses per iteration (update-v + accumulate loops)",
            f"scaled case: {BENCH_PARTICLES} particles, 64x64 grid, "
            f"{BENCH_ITERATIONS} iters, sort every {BENCH_SORT_PERIOD}",
            "",
            f"{'ordering':11s} {'L1 (k)':>9s} {'L2 (k)':>9s} {'L3 (k)':>9s}"
            f"   {'paper L1/L2/L3 (M)':>22s}",
        ]
        for name in ORDERINGS:
            s = ordering_miss_series[name]
            p = PAPER_TABLE2[name]
            lines.append(
                f"{name:11s} "
                f"{_avg_uv_acc(s, 'L1') / 1e3:9.1f} "
                f"{_avg_uv_acc(s, 'L2') / 1e3:9.1f} "
                f"{_avg_uv_acc(s, 'L3') / 1e3:9.1f}   "
                f"{p[0]:8.1f}/{p[1]:.1f}/{p[2]:.2f}"
            )
        rm = ordering_miss_series["row-major"]
        lines.append("")
        lines.append("improvement vs row-major (paper: L1 -3.5%, L2 -36%, L3 -36%):")
        for name in ORDERINGS[1:]:
            s = ordering_miss_series[name]
            lines.append(
                f"{name:11s} "
                + "  ".join(
                    f"{lv} {100 * (_avg_uv_acc(s, lv) / _avg_uv_acc(rm, lv) - 1):+6.1f}%"
                    for lv in ("L1", "L2", "L3")
                )
            )
        return "\n".join(lines)

    text = run_once(benchmark, table)
    write_result("table2_cache_misses", text)

    rm = ordering_miss_series["row-major"]
    for name in ("l4d", "morton", "hilbert"):
        s = ordering_miss_series[name]
        # L1 flat (within 5%), L2 substantially better, L3 better
        assert abs(_avg_uv_acc(s, "L1") / _avg_uv_acc(rm, "L1") - 1) < 0.05
        assert _avg_uv_acc(s, "L2") < 0.8 * _avg_uv_acc(rm, "L2")
        assert _avg_uv_acc(s, "L3") < _avg_uv_acc(rm, "L3")


def _series_text(ordering_miss_series, level, fig):
    lines = [
        f"Fig. {fig} — {level} misses per iteration (update-v + accumulate)",
        f"sort every {BENCH_SORT_PERIOD} iterations -> sawtooth",
        "",
        f"{'iter':>4s} " + " ".join(f"{n:>10s}" for n in ORDERINGS),
    ]
    for it in range(BENCH_ITERATIONS):
        row = [f"{it:4d}"]
        for name in ORDERINGS:
            m = ordering_miss_series[name].misses_per_iteration(level)[it]
            row.append(f"{m / 1e3:10.1f}")
        lines.append(" ".join(row) + "   (k misses)")
    return "\n".join(lines)


def test_fig5_l2_series(benchmark, ordering_miss_series):
    text = run_once(benchmark, lambda: _series_text(ordering_miss_series, "L2", 5))
    write_result("fig5_l2_miss_series", text)
    # sawtooth: row-major misses grow within a sort period and drop at
    # the sort; non-canonical curves stay below row-major throughout
    rm = ordering_miss_series["row-major"].misses_per_iteration("L2")
    assert rm[BENCH_SORT_PERIOD - 1] > rm[1]
    assert rm[BENCH_SORT_PERIOD + 1] < rm[BENCH_SORT_PERIOD - 1]
    mo = ordering_miss_series["morton"].misses_per_iteration("L2")
    assert np.mean(mo[2:]) < np.mean(rm[2:])


def test_fig6_l3_series(benchmark, ordering_miss_series):
    text = run_once(benchmark, lambda: _series_text(ordering_miss_series, "L3", 6))
    write_result("fig6_l3_miss_series", text)
    rm = ordering_miss_series["row-major"].misses_per_iteration("L3")
    mo = ordering_miss_series["morton"].misses_per_iteration("L3")
    assert np.mean(mo) < np.mean(rm)
