"""Leader-follower pricing game on a single resource block.

The cellular user (leader) charges the D2D user (follower) per unit of
transmit power. The follower's problem is concave in its power, so its best
response has a water-filling style closed form; the leader picks the price by
exhaustive grid search because its utility need not be concave in the price.

The best response and both utilities take a float or an array of prices or
powers, so the whole price grid is priced in one array pass. A float in
gives a Python float out. ``log2`` is ``math.log2`` applied element by
element: ``np.log2`` may differ from it in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from d2dgames import radio

LN2 = math.log(2.0)


def _log2(x):
    """``math.log2`` of a float, or of each element of a float array."""
    if isinstance(x, np.ndarray) and x.ndim:
        return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return math.log2(x)


@dataclass(frozen=True)
class StackelbergConfig:
    """The ``[stackelberg]`` section: the price grid and the pair and RB it prices."""

    lambda_points: int = 2000
    pair: int = 0
    rb: int = 0  # 0 <= rb < m_cue, checked by ExperimentConfig, which knows m_cue

    def __post_init__(self):
        if self.lambda_points < 2:
            raise ValueError(f"lambda_points must be >= 2, got {self.lambda_points}")
        if self.pair < 0:
            raise ValueError(f"stackelberg pair must be >= 0, got {self.pair}")


@dataclass
class StackelbergInstance:
    g_dd: float            # D2D transmitter -> D2D receiver
    g_db: float            # D2D transmitter -> cellular receiver
    g_cc: float            # cellular transmitter -> cellular receiver
    g_cd: float            # cellular transmitter -> D2D receiver
    p_c_w: float
    sigma_w: float
    p_max_w: float
    lambda_min: float = 0.0
    lambda_max: float | None = None   # defaults to g_dd / (sigma * ln 2)
    lambda_points: int = StackelbergConfig.lambda_points

    def __post_init__(self):
        for name in ("g_dd", "g_db", "g_cc", "g_cd"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.p_c_w < 0 or self.p_max_w < 0:
            raise ValueError("powers must be >= 0")
        if self.sigma_w <= 0:
            raise ValueError(f"sigma_w must be > 0, got {self.sigma_w}")
        if self.lambda_max is None:
            self.lambda_max = self.g_dd / (self.sigma_w * LN2)
        if not (self.lambda_min >= 0 and self.lambda_max > self.lambda_min):
            raise ValueError("price range must satisfy 0 <= lambda_min < lambda_max")
        if self.lambda_points < 2:
            raise ValueError(f"lambda_points must be >= 2, got {self.lambda_points}")

    def lambda_grid(self) -> np.ndarray:
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_points)

    @property
    def follower_interference_w(self) -> float:
        return self.sigma_w + self.p_c_w * self.g_cd

    def follower_utility(self, p_w, lam):
        return _log2(1.0 + p_w * self.g_dd / self.follower_interference_w) - lam * p_w

    def leader_utility(self, lam, p_w):
        own = _log2(1.0 + self.p_c_w * self.g_cc / (self.sigma_w + p_w * self.g_db))
        return own + lam * p_w


@dataclass
class StackelbergOutcome:
    lambda_star: float
    p_star_w: float
    u_leader: float
    u_follower: float


def follower_best_response(instance: StackelbergInstance, lam):
    """Power maximizing throughput minus payment: clamp(1/(lam ln2) - I/g, 0, p_max).

    ``lam`` is a price or an array of prices; a zero price gets ``p_max``.
    """
    lams = np.asarray(lam, dtype=float)
    if np.any(lams < 0):
        raise ValueError(f"price must be >= 0, got {lams.min()}")
    with np.errstate(divide="ignore"):
        p = 1.0 / (lams * LN2) - instance.follower_interference_w / instance.g_dd
    p = np.where(lams == 0.0, instance.p_max_w, np.minimum(np.maximum(p, 0.0), instance.p_max_w))
    return p if p.ndim else float(p)


def price_sweep(instance: StackelbergInstance) -> list[tuple[float, float, float, float]]:
    """``(lambda, p_star_w, u_leader, u_follower)`` per grid price, the follower best-responding."""
    lams = instance.lambda_grid()
    p = follower_best_response(instance, lams)
    u_l = instance.leader_utility(lams, p)
    u_f = instance.follower_utility(p, lams)
    return list(zip(lams.tolist(), p.tolist(), u_l.tolist(), u_f.tolist()))


def leader_optimize(instance: StackelbergInstance) -> StackelbergOutcome:
    """Grid search the price; ties break toward the smaller price."""
    lam, p, u_l, u_f = max(price_sweep(instance), key=lambda row: row[2])
    return StackelbergOutcome(lambda_star=lam, p_star_w=p, u_leader=u_l, u_follower=u_f)


def verify_equilibrium(
    instance: StackelbergInstance, outcome: StackelbergOutcome, eps: float = 1e-9
) -> bool:
    """Check no grid deviation improves either side by more than ``eps``.

    Follower deviations range over a 1001-point power grid at the
    equilibrium price; leader deviations range over :func:`price_sweep`.
    """
    u_f_star = instance.follower_utility(outcome.p_star_w, outcome.lambda_star)
    powers = np.linspace(0.0, instance.p_max_w, 1001)
    if np.any(instance.follower_utility(powers, outcome.lambda_star) > u_f_star + eps):
        return False
    return not any(u_l > outcome.u_leader + eps for _, _, u_l, _ in price_sweep(instance))


def choose_channel(instances: list[StackelbergInstance]) -> tuple[int, StackelbergOutcome]:
    """Follower-side channel selection: best follower utility across candidate RBs."""
    if not instances:
        raise ValueError("no candidate channels")
    outcomes = [leader_optimize(inst) for inst in instances]
    best = max(range(len(instances)), key=lambda i: (outcomes[i].u_follower, -i))
    return best, outcomes[best]


def stackelberg_from_radio(
    gains: radio.GainTensor,
    params: radio.RadioParams,
    config: StackelbergConfig = StackelbergConfig(),
) -> StackelbergInstance:
    """Pricing instance of ``config.pair`` on ``config.rb`` from a channel realization."""
    pair, rb = config.pair, config.rb
    cell_tx = radio.cellular_tx_node(params, rb)
    cell_rx = radio.cellular_rx_node(params, rb)
    return StackelbergInstance(
        g_dd=gains.get(("dtx", pair), ("drx", pair), rb),
        g_db=gains.get(("dtx", pair), cell_rx, rb),
        g_cc=gains.get(cell_tx, cell_rx, rb),
        g_cd=gains.get(cell_tx, ("drx", pair), rb),
        p_c_w=radio.default_power_w(params, cell_tx),
        sigma_w=radio.effective_noise_w(params),
        p_max_w=params.p_d2d_w,
        lambda_points=config.lambda_points,
    )
