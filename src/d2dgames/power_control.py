"""Noncooperative power control among co-channel links.

Each player transmits with the minimum power that meets its SINR target given
what everyone else is doing; iterating that best response from zero converges
monotonically to the componentwise-minimal feasible power vector whenever the
targets are jointly feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from d2dgames import radio

# relative shortfall below an SINR target still counted as meeting it
SINR_SLACK = 1e-6


@dataclass(frozen=True)
class PowerConfig:
    """The ``[power]`` section: game size, SINR target and iteration stop rule."""

    players: int = 4
    sinr_target_db: float = 10.0
    tol_w: float = 1e-9
    max_iters: int = 1000

    def __post_init__(self):
        if self.players < 0:
            raise ValueError(f"power players must be >= 0, got {self.players}")
        if not math.isfinite(self.sinr_target_db):
            raise ValueError(f"sinr_target_db must be finite, got {self.sinr_target_db}")
        if not radio.is_positive_finite_db(self.sinr_target_db):
            raise ValueError(
                "sinr_target_db must give a positive, finite linear target, "
                f"got {self.sinr_target_db}"
            )
        if not (math.isfinite(self.tol_w) and self.tol_w > 0):
            raise ValueError(f"tol_w must be finite and > 0, got {self.tol_w}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class PowerGameInstance:
    """Gain matrix form of the game.

    ``gains[i, j]`` is the linear power gain from transmitter j to receiver i,
    so the diagonal holds the direct link gains. ``noise_w`` bundles thermal
    noise and any interference from transmitters outside the game. The
    instance keeps a read-only copy of ``gains`` and reads its diagonal once.
    """

    gains: np.ndarray
    targets: np.ndarray
    noise_w: np.ndarray
    p_max_w: float
    _direct: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.gains = np.array(self.gains, dtype=float)
        self.gains.flags.writeable = False
        self.targets = np.asarray(self.targets, dtype=float)
        self.noise_w = np.asarray(self.noise_w, dtype=float)
        n = self.n_players
        if self.gains.shape != (n, n):
            raise ValueError(f"gain matrix must be square, got {self.gains.shape}")
        self._direct = self.gains.diagonal()
        if self.n_players and not np.all(self._direct > 0):
            raise ValueError("every direct link gain must be > 0")
        # written so that a NaN fails them
        if not np.all(self.gains >= 0):
            raise ValueError("gains must be >= 0")
        if not np.all(self.targets > 0):
            raise ValueError("SINR targets must be > 0")
        if not np.all(self.noise_w > 0):
            raise ValueError("noise-plus-external-interference must be > 0 W")
        if not self.p_max_w > 0:
            raise ValueError(f"p_max_w must be > 0, got {self.p_max_w}")

    @property
    def n_players(self) -> int:
        return len(self.targets)

    def interference_w(self, p: np.ndarray) -> np.ndarray:
        return self.noise_w + self.gains @ p - self._direct * p

    def sinr(self, p: np.ndarray) -> np.ndarray:
        return self._direct * p / self.interference_w(p)


@dataclass
class PowerTrace:
    iterates: list[np.ndarray] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def best_response_step(instance: PowerGameInstance, p: np.ndarray) -> np.ndarray:
    """One synchronous update: p_i' = min(p_max, target_i * I_i(p) / g_ii).

    For p_i > 0 this equals (target_i / sinr_i(p)) * p_i; the interference form
    also covers p_i = 0 without a special case.
    """
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > instance.p_max_w):
        raise ValueError("power vector out of [0, p_max]")
    wanted = instance.targets * instance.interference_w(p) / instance._direct
    return np.minimum(wanted, instance.p_max_w)


def run_power_game(instance: PowerGameInstance, config: PowerConfig = PowerConfig()) -> PowerTrace:
    """Iterate best responses from zero power until an update moves less than ``config.tol_w``.

    At most ``config.max_iters`` updates are made. ``converged`` requires both a
    settled power vector and all SINR targets met within a relative
    :data:`SINR_SLACK`; an infeasible instance pins players at p_max with unmet
    targets and reports converged=False instead of raising.
    """
    n = instance.n_players
    p = np.zeros(n)
    trace = PowerTrace(iterates=[p.copy()])
    if n == 0:
        trace.converged = True
        return trace
    for it in range(1, config.max_iters + 1):
        p_next = best_response_step(instance, p)
        trace.iterates.append(p_next.copy())
        trace.iterations = it
        if np.max(np.abs(p_next - p)) < config.tol_w:
            ok = np.all(instance.sinr(p_next) >= instance.targets * (1.0 - SINR_SLACK))
            trace.converged = bool(ok)
            return trace
        p = p_next
    trace.converged = False
    return trace


def power_game_from_radio(
    gains: radio.GainTensor,
    params: radio.RadioParams,
    rb: int,
    pair_indices: list[int],
    config: PowerConfig = PowerConfig(),
) -> PowerGameInstance:
    """Build the co-channel game for a set of D2D pairs sharing one RB at ``config``'s target."""
    target = 10.0 ** (config.sinr_target_db / 10.0)
    n = len(pair_indices)
    sigma = radio.effective_noise_w(params)
    cell_tx = radio.cellular_tx_node(params, rb)
    p_cell = radio.default_power_w(params, cell_tx)
    drx = [("drx", a) for a in pair_indices]
    # g[a, b]: pair b's tx at pair a's rx
    g = [[gains.get(("dtx", b), rx, rb) for b in pair_indices] for rx in drx]
    noise = [sigma + p_cell * gains.get(cell_tx, rx, rb) for rx in drx]
    return PowerGameInstance(
        gains=np.array(g, dtype=float).reshape(n, n),
        targets=np.full(n, target),
        noise_w=noise,
        p_max_w=params.p_d2d_w,
    )
