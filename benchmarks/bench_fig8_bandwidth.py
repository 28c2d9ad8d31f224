"""Fig. 8: per-loop memory bandwidth vs the STREAM triad, 1-8 threads.

Paper (Sandy Bridge socket, theoretical peak 51.2 GB/s):

* STREAM triad speedups x2 / x3.9 / x4 at 2/4/8 threads — the 4
  channels saturate at 4 threads;
* update-positions reaches the same bandwidth as STREAM (and therefore
  "cannot be further fastened when using 8 threads");
* update-velocities and accumulation sit far below the peak (their
  speedups keep growing to 8 threads: x7.4 / x7.2 — latency-bound,
  not bandwidth-bound).
"""

from repro.model.bandwidth import BandwidthModel
from repro.model.config import ModelConfig
from repro.model.costmodel import LoopKind
from repro.model.machine import MachineSpec
from repro.model.openmp import ThreadScalingModel

from conftest import PAPER_N, run_once, write_result

THREADS = (1, 2, 4, 8)


def test_fig8_memory_bandwidth(benchmark, resident_miss_data):
    machine = MachineSpec.sandybridge()
    model = ThreadScalingModel(machine)
    bw = BandwidthModel(machine)
    cfg = ModelConfig.fully_optimized().with_(sort_period=50)
    misses = resident_miss_data

    def series():
        rows = {"stream": {p: bw.bandwidth_gbs(p) for p in THREADS}}
        for kind in LoopKind:
            rows[kind.value] = {
                p: model.loop_bandwidth_gbs(kind, cfg, PAPER_N, p, misses.get(kind))
                for p in THREADS
            }
        return rows

    rows = run_once(benchmark, series)

    lines = [
        "Fig. 8 — achieved memory bandwidth (GB/s) on one Sandy Bridge socket",
        f"(theoretical peak {machine.peak_bandwidth_gbs} GB/s; "
        "speedup vs 1 thread in parentheses)",
        "",
        f"{'loop':12s} " + " ".join(f"{p:>14d}thr" for p in THREADS),
    ]
    for name, series_ in rows.items():
        base = series_[1]
        lines.append(
            f"{name:12s} "
            + " ".join(f"{series_[p]:8.1f} (x{series_[p] / base:4.2f})" for p in THREADS)
        )
    write_result("fig8_bandwidth", "\n".join(lines))

    # STREAM saturates: x2 at 2 threads, ~x3.9 at 4, flat at 8
    s = rows["stream"]
    assert s[2] / s[1] > 1.95
    assert 3.5 < s[4] / s[1] < 4.0
    assert s[8] / s[4] < 1.15
    # update-x rides the bandwidth roof: ~STREAM bandwidth at 8 threads
    ux = rows["update_x"]
    assert ux[8] > 0.85 * s[8]
    # the irregular loops sit below the streaming roof at 8 threads
    # (paper: well below; our latency-bound model puts update-v closer
    # to it because its traffic is mostly the genuinely-streamed record)
    assert rows["update_v"][8] < 0.9 * s[8]
    assert rows["accumulate"][8] < 0.8 * s[8]
    # ... while still scaling well past the 4-channel knee (paper: x7.4, x7.2)
    for name in ("update_v", "accumulate"):
        assert rows[name][8] / rows[name][1] > 5.0, name
