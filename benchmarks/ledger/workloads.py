"""The five workloads: what each one runs, at full and at smoke size.

Everything not listed here is the shipped default
(``OptimizationConfig()``, ``PICStepper3D`` defaults, ``repro serve``
defaults), so the numbers are what a user of ``repro run`` /
``repro serve`` gets.  The one-line reasons live in ``BENCHMARK.json``
(the ``why`` of each workload) and at length in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: steps between sorts in every simulation workload (the shipped
#: default of ``OptimizationConfig.sort_period``); the throughput
#: estimator is defined per block of this many steps
SORT_PERIOD = 20

#: steps taken (the first one inside ``setup_s``) before timing starts
WARMUP_STEPS = 5


@dataclass(frozen=True)
class SimWorkload:
    """A simulation stepped in-process."""

    name: str
    dims: int
    cells: int  # per axis
    particles: int
    backend: str = "auto"
    workers: int | None = None
    dt: float = 0.1
    alpha: float = 0.05


@dataclass(frozen=True)
class ServeWorkload:
    """``python -m repro serve`` driven through its spool directory."""

    name: str
    grid: tuple[int, int] = (32, 16)
    #: sized so that a served job runs for ~0.1 s, half the server's
    #: poll period: the server settles on its poll, so a run time near
    #: a whole period makes every latency jump by 0.2 s whenever the
    #: host slows a little
    particles: int = 4_000
    steps: int = 50
    #: open-loop spacing; incommensurate with the server's 0.2 s poll
    #: so successive jobs sweep the claim phase evenly
    spacing_s: float = 0.33
    #: share of ``--seconds`` the stream phase lasts
    stream_share: float = 0.9
    #: traced pass: burst jobs per second of ``--seconds``, submitted at
    #: once after the stream
    burst_jobs_per_s: float = 3.0
    #: distinct job seeds per run; each is verified against an
    #: in-process run of the same job
    distinct_seeds: int = 6


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("dense2d", dims=2, cells=128, particles=1_000_000),
        SimWorkload("dense2d_mp2", dims=2, cells=128, particles=1_000_000,
                    backend="numpy-mp", workers=2),
        SimWorkload("sparse2d", dims=2, cells=512, particles=262_144),
        SimWorkload("dense3d", dims=3, cells=32, particles=400_000),
        ServeWorkload("serve_jobs"),
    )
}


def smoke(workload):
    """The same workload at roughly 1/20 size (``run.py --smoke``)."""
    if isinstance(workload, ServeWorkload):
        return replace(workload, particles=1_000, steps=40, distinct_seeds=2)
    cells = {128: 32, 512: 128, 32: 16}[workload.cells]
    return replace(workload, cells=cells, particles=workload.particles // 20)
