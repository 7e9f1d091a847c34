"""The paper's primary contribution: staged simulated-annealing DAG scheduling.

At every assignment epoch an :class:`~repro.core.packet.AnnealingPacket` is
built from the ready tasks and the idle processors and compiled into a
:class:`~repro.core.kernel.PacketKernel` — dense integer-indexed levels and
communication-cost tables; a short simulated annealing run
(:class:`~repro.core.packet_annealer.PacketAnnealer`) explores partial
mappings of ready tasks onto idle processors under the normalized
load-balancing + communication cost of :mod:`repro.core.cost` (equations 3–6)
and the move/swap neighbourhood of :mod:`repro.core.moves`; the best mapping
found becomes the epoch's assignment.  The inner walk runs in one of three
bit-identical tiers (reference / kernel / array — see
:mod:`repro.core.array_annealer` and ``SAConfig.walk``); multi-replica and
portfolio runs (``SAConfig.replicas`` / ``SAConfig.portfolio``) step one
array walk per lane, one temperature at a time.  The whole staged policy is
exposed as
:class:`~repro.core.sa_scheduler.SAScheduler`, a drop-in
:class:`~repro.schedulers.base.SchedulingPolicy` with an index-space
``fast_assign`` kernel for the compiled simulation engine.
"""

from repro.core.config import SAConfig
from repro.core.packet import AnnealingPacket, PacketMapping
from repro.core.cost import PacketCostFunction, CostBreakdown
from repro.core.kernel import PacketKernel
from repro.core.moves import propose_move
from repro.core.array_annealer import (
    anneal_array,
    anneal_replicas_batched,
    anneal_replicas_scalar,
    compile_fast_packet,
)
from repro.core.packet_annealer import PacketAnnealer, PacketAnnealingOutcome
from repro.core.sa_scheduler import SAScheduler, PacketStats

__all__ = [
    "SAConfig",
    "AnnealingPacket",
    "PacketMapping",
    "PacketCostFunction",
    "PacketKernel",
    "CostBreakdown",
    "propose_move",
    "anneal_array",
    "anneal_replicas_batched",
    "anneal_replicas_scalar",
    "compile_fast_packet",
    "PacketAnnealer",
    "PacketAnnealingOutcome",
    "SAScheduler",
    "PacketStats",
]
