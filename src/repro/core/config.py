"""Configuration of the simulated-annealing scheduler.

:class:`SAConfig` gathers every tunable of the paper's algorithm: the cost
weights ``w_b``/``w_c`` (eq. 6), the cooling schedule, the acceptance rule,
the per-packet iteration budget and stall patience (§6a), the initial mapping
strategy and the random seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.annealing.acceptance import AcceptanceRule, BoltzmannSigmoidAcceptance
from repro.annealing.cooling import CoolingSchedule, GeometricCooling
from repro.annealing.portfolio import PortfolioConfig
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedLike

__all__ = ["SAConfig"]

_INIT_CHOICES = ("hlf", "random", "empty")


@dataclass
class SAConfig:
    """Tunables of the staged simulated-annealing scheduler.

    Attributes
    ----------
    weight_balance, weight_comm:
        The cost weights ``w_b`` and ``w_c`` of equation 6.  They must be
        non-negative and sum to 1 (the paper uses 0.5 / 0.5 for Figure 1 and
        tunes them per program for the best speedup).
    initial_temperature:
        Starting temperature of each packet annealing.  The packet cost is
        normalized to order 1, so the default of 1.0 starts with nearly
        random acceptance and the geometric schedule brings it down quickly.
    cooling:
        Cooling schedule (default geometric, alpha = 0.9).
    acceptance:
        Acceptance rule (default the paper's sigmoid Boltzmann, eq. 1).
    moves_per_temperature:
        Inner-loop proposals per temperature step.  ``None`` scales with the
        packet size (roughly two proposals per candidate, between 8 and 64),
        staying close to the per-packet iteration economy visible in the
        paper's Figure 1.
    max_temperature_steps:
        The preset maximum number of outer iterations ``N_I``.
    stall_patience:
        Stop a packet's annealing after this many consecutive temperature
        steps without cost change (the paper uses 5).
    initial_mapping:
        ``"hlf"`` — seed with the greedy highest-level-first mapping (default;
        guarantees the annealer starts from the baseline's choice and can only
        improve its packet cost), ``"random"`` — a random injective mapping,
        ``"empty"`` — start with no task selected.
    seed:
        Seed for all stochastic decisions of the scheduler (packet RNGs are
        spawned from it so results are reproducible end-to-end).
    record_trajectories:
        Keep the full cost trajectory of every packet (needed only for the
        Figure-1 reproduction; off by default to keep memory small).
    compiled:
        Anneal over the precompiled packet kernel (dense cost tables; the
        default) with the array walks of :mod:`repro.core.array_annealer`,
        or with the generic loop for acceptance rules other than the sigmoid.
        ``False`` selects the original per-call cost evaluation —
        bit-identical results, kept as the reference for equivalence tests
        and as an escape hatch for exotic cost models.
    replicas:
        Number of independent annealing replicas per packet (multi-start
        chains).  ``1`` (default) is the single-chain walk; ``B > 1`` runs B
        replicas with per-replica child streams
        (:func:`repro.utils.rng.split`), each an array walk stepped one
        temperature at a time as a lane, and commits the best replica's
        mapping, reporting per-replica statistics for variance studies.
    portfolio:
        Anytime portfolio mode (:class:`repro.annealing.portfolio.PortfolioConfig`,
        or an ``int`` lane count for the default axes).  Runs heterogeneous
        lanes (cooling x initial assignment x temperature scale), each an
        array walk stepped one temperature at a time, with
        successive-halving racing over the recorded per-temperature costs;
        culled lanes donate their remaining draw budget to the survivors.
        Mutually exclusive with ``replicas > 1`` and with
        ``record_trajectories``; requires the compiled sigmoid array walk
        (the walk that pauses between temperature steps for the racing
        controller).
    """

    weight_balance: float = 0.5
    weight_comm: float = 0.5
    initial_temperature: float = 1.0
    cooling: CoolingSchedule = field(default_factory=lambda: GeometricCooling(alpha=0.9))
    acceptance: AcceptanceRule = field(default_factory=BoltzmannSigmoidAcceptance)
    moves_per_temperature: Optional[int] = None
    max_temperature_steps: int = 40
    stall_patience: int = 5
    initial_mapping: str = "hlf"
    seed: SeedLike = None
    record_trajectories: bool = False
    compiled: bool = True
    replicas: int = 1
    portfolio: Optional[Union[int, PortfolioConfig]] = None

    def __post_init__(self) -> None:
        if self.weight_balance < 0 or self.weight_comm < 0:
            raise ConfigurationError(
                f"cost weights must be non-negative, got w_b={self.weight_balance}, "
                f"w_c={self.weight_comm}"
            )
        total = self.weight_balance + self.weight_comm
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"cost weights must sum to 1 (paper constraint w_b + w_c = 1), got {total}"
            )
        if self.initial_temperature <= 0:
            raise ConfigurationError(
                f"initial_temperature must be > 0, got {self.initial_temperature}"
            )
        if self.moves_per_temperature is not None and self.moves_per_temperature < 1:
            raise ConfigurationError(
                f"moves_per_temperature must be >= 1 or None, got {self.moves_per_temperature}"
            )
        if self.max_temperature_steps < 1:
            raise ConfigurationError(
                f"max_temperature_steps must be >= 1, got {self.max_temperature_steps}"
            )
        if self.stall_patience < 1:
            raise ConfigurationError(
                f"stall_patience must be >= 1, got {self.stall_patience}"
            )
        if self.initial_mapping not in _INIT_CHOICES:
            raise ConfigurationError(
                f"initial_mapping must be one of {_INIT_CHOICES}, got {self.initial_mapping!r}"
            )
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.portfolio is not None:
            if isinstance(self.portfolio, int):
                self.portfolio = PortfolioConfig(lanes=self.portfolio)
            elif not isinstance(self.portfolio, PortfolioConfig):
                raise ConfigurationError(
                    f"portfolio must be a PortfolioConfig, an int lane count "
                    f"or None, got {self.portfolio!r}"
                )
            if self.replicas > 1:
                raise ConfigurationError(
                    "portfolio and replicas > 1 are mutually exclusive "
                    "(a portfolio already runs multiple lanes)"
                )
            if type(self.acceptance) is not BoltzmannSigmoidAcceptance:
                raise ConfigurationError(
                    "portfolio mode requires the sigmoid acceptance rule "
                    "(the array walk inlines only that rule)"
                )
            if not self.compiled:
                raise ConfigurationError(
                    "portfolio mode requires compiled=True (only the array "
                    "walk pauses between temperature steps for the racing "
                    "controller)"
                )
            if self.record_trajectories:
                raise ConfigurationError(
                    "portfolio mode records no trajectories (its racing "
                    "lanes keep only per-temperature costs); drop "
                    "record_trajectories or the portfolio"
                )

    def moves_for_packet(self, n_ready: int, n_idle: int) -> int:
        """Inner-loop proposals per temperature for a packet of the given size.

        The default scales with the packet size but stays close to the
        paper's economy (Figure 1 shows on the order of 100–150 proposals for
        a 15-candidate packet): one to two proposals per candidate per
        temperature step.
        """
        if self.moves_per_temperature is not None:
            return self.moves_per_temperature
        return max(8, min(2 * max(n_ready, n_idle), 64))

    def with_weights(self, weight_balance: float, weight_comm: float) -> "SAConfig":
        """Return a copy with different cost weights (used by the weight ablation)."""
        return replace(self, weight_balance=weight_balance, weight_comm=weight_comm)

    def with_replicas(self, replicas: int) -> "SAConfig":
        """Return a copy annealing *replicas* multi-start chains per packet."""
        return replace(self, replicas=replicas)

    def with_portfolio(
        self, portfolio: Union[int, PortfolioConfig]
    ) -> "SAConfig":
        """Return a copy running the anytime lane portfolio per packet."""
        return replace(self, portfolio=portfolio, replicas=1)

    @classmethod
    def paper_defaults(cls, seed: SeedLike = None) -> "SAConfig":
        """The configuration used for the paper-reproduction experiments.

        Equal weights (as in Figure 1), sigmoid acceptance, geometric cooling,
        the paper's five-iteration stall rule and a packet-size-scaled inner
        loop.
        """
        return cls(
            weight_balance=0.5,
            weight_comm=0.5,
            initial_temperature=1.0,
            cooling=GeometricCooling(alpha=0.9),
            acceptance=BoltzmannSigmoidAcceptance(),
            moves_per_temperature=None,
            max_temperature_steps=40,
            stall_patience=5,
            initial_mapping="hlf",
            seed=seed,
        )
