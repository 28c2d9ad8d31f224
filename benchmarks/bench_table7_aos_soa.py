"""Table VII: AoS/SoA x fused/split loops on 8 threads.

Paper (128x128 grid, 50M particles, 100 iterations, Sandy Bridge):

    AoS, 1 loop   AoS, 3 loops   SoA, 1 loop   SoA, 3 loops
      30.9 s         22.7 s         23.1 s        18.3 s

Shape: AoS + fused is the worst (its giant scalar body defeats both
the vectorizer and the scheduler); SoA beats AoS throughout.  Each
variant's stall data comes from a cache simulation of its own layout
(fused variants use the fused-loop trace); row-major ordering keeps
the particle record at the paper's five fields.

Known deviation (see EXPERIMENTS.md): the model prices the two SoA
variants within ~2% of each other (the single-sweep memory advantage
of the fused loop nearly cancels its vectorization loss), where the
paper measures the split form 21% faster.  The AoS ordering, the
overall worst (AoS fused), and the SoA-beats-AoS relations all hold.
"""

from repro.model.config import ModelConfig
from repro.model.machine import MachineSpec
from repro.model.openmp import ThreadScalingModel

from conftest import PAPER_ITERS, PAPER_N, run_once, write_result

PAPER_TABLE7 = {
    ("aos", "fused"): 30.9,
    ("aos", "split"): 22.7,
    ("soa", "fused"): 23.1,
    ("soa", "split"): 18.3,
}


def test_table7_aos_soa_loops(benchmark, table7_miss_data):
    model = ThreadScalingModel(MachineSpec.sandybridge())

    def table():
        results = {}
        for (pl, lm), misses in table7_miss_data.items():
            cfg = ModelConfig.fully_optimized("row-major").with_(
                particle_layout=pl, loop_mode=lm, sort_period=50
            )
            t = model.iteration_seconds(cfg, PAPER_N, 8, misses)["total"]
            results[(pl, lm)] = t * PAPER_ITERS
        lines = [
            "Table VII — time on 8 threads (pure OpenMP, modeled), "
            f"{PAPER_N // 10**6}M particles x {PAPER_ITERS} iters",
            "",
            f"{'variant':16s} {'modeled':>9s} {'paper':>7s}",
        ]
        for (pl, lm), t in results.items():
            label = f"{pl.upper()}, {'1 loop' if lm == 'fused' else '3 loops'}"
            lines.append(f"{label:16s} {t:8.1f}s {PAPER_TABLE7[(pl, lm)]:6.1f}s")
        return lines, results

    lines, results = run_once(benchmark, table)
    write_result("table7_aos_soa", "\n".join(lines))

    # AoS + 1 loop is the worst variant (the paper's headline)
    worst = max(results, key=results.get)
    assert worst == ("aos", "fused")
    # SoA beats AoS at equal loop structure
    assert results[("soa", "split")] < results[("aos", "split")]
    assert results[("soa", "fused")] < results[("aos", "fused")]
    # SoA split is best or within 5% of best (model deviation documented
    # in the module docstring; paper has it strictly best)
    best_t = min(results.values())
    assert results[("soa", "split")] <= 1.05 * best_t
    # the spread is material (paper: 30.9 vs 18.3 = 1.69x)
    assert results[("aos", "fused")] > 1.15 * min(results.values())
