"""The price of §V-A's one collective: the charge-density allreduce.

In the paper's scheme every MPI rank keeps a fixed share of the
particles and a copy of the whole grid, and ρ is summed across ranks
once per step.  That decomposition is *executed* by the ``numpy-mp``
engine (:mod:`repro.parallel`), bitwise equal to the serial run at any
worker count; this module only prices it.  :class:`CollectiveCostModel`
is a LogP-flavored tree model plus a synchronization-skew term, used by
:mod:`repro.model.scaling` and :mod:`repro.model.domain_decomp` for the
weak/strong scaling curves of Figs. 7 and 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CollectiveCostModel"]


@dataclass(frozen=True)
class CollectiveCostModel:
    """Timing of the charge-density allreduce at scale.

    ``T(P, n) = S*alpha + (n/BW)*S + skew * P**skew_exp``   (S = ceil(log2 P))

    The first two terms are the textbook binomial-tree latency and
    bandwidth costs.  They are *not* what dominates the paper's
    measured communication times: a 131 KB allreduce costing ~2 s at
    8192 ranks (Fig. 7: 56% of ~350 s over 100 iterations) is three
    orders of magnitude above wire time — it is synchronization skew
    (rank arrival jitter, OS noise, load imbalance charged to MPI).
    The ``skew * P**0.75`` term models that; its constants are
    calibrated on Fig. 7's two annotated anchors (hybrid P=512 -> ~28%
    comm, pure P=8192 -> ~56% comm).  This is why running one rank per
    socket (hybrid, 16x fewer ranks per core count) beats pure MPI.
    """

    latency_s: float = 3e-6
    bandwidth_gbs: float = 3.0
    #: fraction of the per-iteration compute time that reappears as
    #: arrival skew at the collective, per unit of P**skew_exp
    imbalance_coeff: float = 0.0093
    skew_exp: float = 0.6

    def allreduce_seconds(
        self, nranks: int, nbytes: int, compute_iter_seconds: float = 0.0
    ) -> float:
        """Cost of one allreduce.

        ``compute_iter_seconds`` is the per-iteration compute time of
        one rank — the skew term scales with it because what the
        waiting ranks absorb is the *spread* of the others' compute
        (this is why the paper's Fig. 9 strong-scaling comm time per
        call shrinks as ranks get fewer particles, while Fig. 7's
        weak-scaling comm per call keeps growing).
        """
        if nranks <= 1:
            return 0.0
        stages = math.ceil(math.log2(nranks))
        bw_term = nbytes / (self.bandwidth_gbs * 1e9)
        return (
            stages * self.latency_s
            + bw_term * stages
            + self.imbalance_coeff * compute_iter_seconds * nranks**self.skew_exp
        )
