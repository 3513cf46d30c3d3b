"""Noncooperative power control among co-channel links.

Each player transmits with the minimum power that meets its SINR target given
what everyone else is doing; iterating that best response from zero converges
monotonically to the componentwise-minimal feasible power vector whenever the
targets are jointly feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from d2dgames import radio

# relative shortfall below an SINR target still counted as meeting it
SINR_SLACK = 1e-6


@dataclass
class PowerGameInstance:
    """Gain matrix form of the game.

    ``gains[i, j]`` is the linear power gain from transmitter j to receiver i,
    so the diagonal holds the direct link gains. ``noise_w`` bundles thermal
    noise and any interference from transmitters outside the game.
    """

    gains: np.ndarray
    targets: np.ndarray
    noise_w: np.ndarray
    p_max_w: float

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        self.noise_w = np.asarray(self.noise_w, dtype=float)
        n = self.n_players
        if self.gains.shape != (n, n):
            raise ValueError(f"gain matrix must be square, got {self.gains.shape}")
        if self.n_players and not np.all(np.diag(self.gains) > 0):
            raise ValueError("every direct link gain must be > 0")
        if np.any(self.gains < 0):
            raise ValueError("gains must be >= 0")
        if np.any(self.targets <= 0):
            raise ValueError("SINR targets must be > 0")
        if np.any(self.noise_w <= 0):
            raise ValueError("noise-plus-external-interference must be > 0 W")
        if not self.p_max_w > 0:
            raise ValueError(f"p_max_w must be > 0, got {self.p_max_w}")

    @property
    def n_players(self) -> int:
        return len(self.targets)

    def interference_w(self, p: np.ndarray) -> np.ndarray:
        return self.noise_w + self.gains @ p - np.diag(self.gains) * p

    def sinr(self, p: np.ndarray) -> np.ndarray:
        return np.diag(self.gains) * p / self.interference_w(p)


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
    wanted = instance.targets * instance.interference_w(p) / np.diag(instance.gains)
    return np.minimum(wanted, instance.p_max_w)


def run_power_game(
    instance: PowerGameInstance, max_iters: int = 1000, tol: float = 1e-9
) -> PowerTrace:
    """Iterate best responses from zero power until the update moves less than ``tol`` (W).

    ``converged`` requires both a settled power vector and all SINR targets met
    within a relative :data:`SINR_SLACK`; an infeasible instance pins players at
    p_max with unmet targets and reports converged=False instead of raising.
    """
    n = instance.n_players
    p = np.zeros(n)
    trace = PowerTrace(iterates=[p.copy()])
    if n == 0:
        trace.converged = True
        return trace
    for it in range(1, max_iters + 1):
        p_next = best_response_step(instance, p)
        trace.iterates.append(p_next.copy())
        trace.iterations = it
        if np.max(np.abs(p_next - p)) < tol:
            ok = np.all(instance.sinr(p_next) >= instance.targets * (1.0 - SINR_SLACK))
            trace.converged = bool(ok)
            return trace
        p = p_next
    trace.converged = False
    return trace


def power_game_from_radio(
    topology: radio.Topology,
    gains: radio.GainTensor,
    params: radio.RadioParams,
    rb: int,
    pair_indices: list[int],
    target_db: float = 10.0,
) -> PowerGameInstance:
    """Build the co-channel game for a set of D2D pairs sharing one RB."""
    n = len(pair_indices)
    sigma = radio.effective_noise_w(params)
    cell_tx, _, p_cell = radio.cellular_links(gains, params, [rb])
    dtx = gains.tx_indices([("dtx", j) for j in pair_indices])
    drx = gains.rx_indices([("drx", i) for i in pair_indices])
    g = gains.gather(dtx, drx[:, None], rb)  # g[a, b]: pair b's tx at pair a's rx
    noise = sigma + p_cell[0] * gains.gather(cell_tx[0], drx, rb)
    target = 10.0 ** (target_db / 10.0)
    return PowerGameInstance(
        gains=g,
        targets=np.full(n, target),
        noise_w=noise,
        p_max_w=params.p_d2d_w,
    )
