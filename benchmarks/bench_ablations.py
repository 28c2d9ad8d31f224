"""Ablation studies for the design choices DESIGN.md calls out.

Three knobs the paper discusses but does not tabulate:

* **L4D tile height** — §IV-B: "we have to choose carefully the SIZE
  number depending of the cache sizes.  In our tests, SIZE=8 led to the
  best times"; SIZE=ncy degenerates to row-major.
* **Sort period** — §IV-E: "the optimal number of iterations between
  two sorting steps is 50 on Sandy Bridge ... 20 on Haswell ...
  an automatic finding of this optimal number ... is left for future
  work" — regenerated here with the autotuner.
* **Domain decomposition** — §V-A's rejected alternative, priced head
  to head against the paper's no-DD scheme at increasing load
  imbalance.
"""

import numpy as np

from repro.model.config import ModelConfig
from repro.model.costmodel import LoopCostModel, tune_sort_period_model
from repro.model.domain_decomp import compare_schemes
from repro.model.experiments import MissExperiment, default_scaled_machine
from repro.model.machine import MachineSpec

from conftest import BENCH_GRID, run_once, write_result


def test_ablation_l4d_tile_size(benchmark, scaled_machine):
    """Sweep the L4D SIZE: small tiles behave like column-major, huge
    tiles like row-major; the sweet spot sits in between (paper: 8)."""

    def sweep():
        rows = {}
        for size in (1, 2, 4, 8, 16, 64):
            cfg = ModelConfig.fully_optimized("l4d", size=size).with_(
                sort_period=10
            )
            s = MissExperiment(
                cfg, BENCH_GRID, 30_000, 12, machine=scaled_machine
            ).run()
            rows[size] = s.average_misses("L2")
        return rows

    rows = run_once(benchmark, sweep)
    lines = [
        "Ablation — L4D tile height vs L2 misses/iteration "
        "(64x64 grid, 30k particles, scaled Haswell)",
        "",
        f"{'SIZE':>6s} {'L2 misses (k)':>14s}",
    ]
    for size, l2 in rows.items():
        note = "  <- row-major limit" if size == 64 else ""
        lines.append(f"{size:6d} {l2 / 1e3:14.1f}{note}")
    write_result("ablation_l4d_size", "\n".join(lines))

    # the interior optimum beats the row-major degenerate case ...
    best_size = min(rows, key=rows.get)
    assert rows[best_size] < rows[64]
    # ... and sits at a moderate tile height (paper: 8)
    assert 2 <= best_size <= 16


def test_ablation_sort_period_autotune(benchmark, resident_miss_data):
    """The paper's future-work autotuner: Haswell should prefer sorting
    at least as often as Sandy Bridge (paper: 20 vs 50)."""

    def tune():
        results = {}
        for name in ("haswell", "sandybridge"):
            machine = getattr(MachineSpec, name)()
            model = LoopCostModel(machine)
            cfg = ModelConfig.fully_optimized()
            results[name] = tune_sort_period_model(
                model, cfg, 50_000_000, resident_miss_data,
                miss_growth_per_iter=0.08,
            )
        return results

    results = run_once(benchmark, tune)
    lines = [
        "Ablation — automatic sort-period tuning (paper §IV-E future work)",
        "paper's measured optima: Haswell 20, Sandy Bridge 50",
        "",
    ]
    for name, res in results.items():
        series = "  ".join(
            f"T={p}:{1e9 * c / 50_000_000:.2f}ns" for p, c in sorted(res.costs.items())
        )
        lines.append(f"{name:12s} best period = {res.best_period}")
        lines.append(f"  per-particle cost by period: {series}")
    write_result("ablation_sort_period", "\n".join(lines))

    for res in results.values():
        periods = sorted(res.costs)
        # interior optimum: sorting every step and never sorting both lose
        assert res.costs[res.best_period] < res.costs[periods[0]]
        assert res.costs[res.best_period] < res.costs[periods[-1]]


def test_ablation_domain_decomposition(benchmark, resident_miss_data):
    """§V-A executable: DD wins on a perfectly uniform plasma at scale,
    loses once the plasma bunches (the paper's reason to reject it)."""
    model = LoopCostModel(MachineSpec.sandybridge())
    cfg = ModelConfig.fully_optimized().with_(sort_period=50)
    compute = model.iteration_seconds(cfg, 50_000_000, resident_miss_data)["total"]

    def compare():
        out = {}
        for imbalance in (0.0, 0.25, 1.0):
            out[imbalance] = compare_schemes(
                [16, 128, 1024], compute, 128, 128, 50_000_000, imbalance
            )
        return out

    out = run_once(benchmark, compare)
    lines = [
        "Ablation — no-domain-decomposition (paper) vs domain decomposition",
        f"(per-iteration seconds; balanced per-rank compute = {compute:.3f}s)",
        "",
        f"{'imbalance':>10s} {'ranks':>6s} {'no-DD':>8s} {'DD':>8s} {'winner':>7s}",
    ]
    for imbalance, rows in out.items():
        for r in rows:
            lines.append(
                f"{imbalance:10.2f} {r.nranks:6d} {r.no_dd_seconds:7.3f}s "
                f"{r.dd_seconds:7.3f}s {r.winner:>7s}"
            )
    write_result("ablation_domain_decomp", "\n".join(lines))

    # uniform plasma: DD's cheap halos beat the global allreduce at scale
    assert out[0.0][-1].winner == "DD"
    # bunched plasma: the paper's scheme wins everywhere it matters
    assert all(r.winner == "no-DD" for r in out[1.0])
    # no-DD is imbalance-independent
    assert out[0.0][0].no_dd_seconds == out[1.0][0].no_dd_seconds
