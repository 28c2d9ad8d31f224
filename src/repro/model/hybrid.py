"""Distributed PIC on the simulated MPI (no domain decomposition).

Implements §V-A exactly: every rank keeps a fixed subset of the
particles and the *whole* grid; each iteration every rank accumulates
its local charge density, the densities are summed with one allreduce,
and every rank solves the identical Poisson problem redundantly.  No
particle ever migrates, so load balance is automatic and communication
volume is independent of the particle dynamics.

Because :class:`~repro.model.mpi.SimComm.allreduce` sums in rank
order deterministically, a distributed run is *bitwise identical* to a
serial run over the concatenated particle population (up to the
floating-point grouping of the per-rank partial sums, which the
allreduce reproduces exactly) — the integration tests assert this.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OptimizationConfig
from repro.core.simulation import Simulation
from repro.core.stepper import PICStepper
from repro.grid.spec import GridSpec
from repro.model.mpi import SimComm, SimMPI
from repro.particles.initializers import InitialCondition, LandauDamping
from repro.particles.storage import ParticleStorage

__all__ = ["DistributedPICStepper", "run_distributed_landau"]


class DistributedPICStepper(PICStepper):
    """A :class:`PICStepper` whose charge density is allreduced.

    ``particles`` must hold only this rank's share, with ``weight``
    computed from the *global* population (the caller divides the
    density among ranks; see :func:`split_population`).
    """

    def __init__(self, comm: SimComm, *args, **kwargs):
        # the base constructor runs the initial deposit+solve, which
        # already needs the communicator
        self.comm = comm
        super().__init__(*args, **kwargs)

    def _fold_rho(self) -> np.ndarray:
        return self.comm.allreduce(super()._fold_rho())


def split_population(particles: ParticleStorage, nranks: int) -> list[dict]:
    """Slice a particle population into per-rank attribute dicts.

    Rank ``r`` gets the contiguous block ``[r*n/P, (r+1)*n/P)``; the
    weight is unchanged (it was set from the global count).
    """
    n = particles.n
    bounds = np.linspace(0, n, nranks + 1).astype(np.int64)
    shares = []
    src = particles.as_dict()
    for r in range(nranks):
        sl = slice(int(bounds[r]), int(bounds[r + 1]))
        shares.append({k: v[sl].copy() for k, v in src.items()})
    return shares


def run_distributed_landau(
    nranks: int,
    n_particles: int,
    n_steps: int,
    grid: GridSpec | None = None,
    case: InitialCondition | None = None,
    config: OptimizationConfig | None = None,
    dt: float = 0.1,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Run a Landau-damping case on ``nranks`` simulated MPI ranks.

    Returns the rank-0 history (field energy and rho-mode series) —
    identical on every rank by construction.  Used by the example and
    the MPI integration tests.
    """
    from repro.curves.base import get_ordering
    from repro.particles.initializers import load_particles
    from repro.particles.storage import make_storage

    grid = grid or GridSpec(32, 8, 0.0, 4 * np.pi, 0.0, 4 * np.pi)
    case = case or LandauDamping(alpha=0.05)
    config = config or OptimizationConfig.fully_optimized()
    ordering = get_ordering(config.ordering, grid.ncx, grid.ncy, **config.ordering_kwargs)
    # sample the global population once, then shard it
    global_parts = load_particles(
        grid,
        ordering,
        case,
        n_particles,
        layout=config.particle_layout,
        seed=seed,
        store_coords=config.effective_store_coords,
    )
    shares = split_population(global_parts, nranks)

    def rank_fn(comm: SimComm):
        share = shares[comm.rank]
        local = make_storage(
            config.particle_layout,
            len(share["icell"]),
            weight=global_parts.weight,
            store_coords=config.effective_store_coords,
        )
        local.set_state(**share)
        stepper = DistributedPICStepper(
            comm, grid, config, particles=local, dt=dt
        )
        fe = []
        mode = []
        for _ in range(n_steps):
            fe.append(0.5 * float(np.sum(stepper.ex_grid**2 + stepper.ey_grid**2)) * grid.cell_area)
            mode.append(float(np.abs(np.fft.fft2(stepper.rho_grid)[1, 0])) / grid.ncells)
            stepper.step()
        return {"field_energy": np.asarray(fe), "mode": np.asarray(mode)}

    results = SimMPI(nranks).run(rank_fn)
    return results[0]
