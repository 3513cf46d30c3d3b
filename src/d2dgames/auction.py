"""Reverse iterative combinatorial auction over D2D pairs, plus baselines.

Resource-block owners act as bidders and compete for packages of D2D pairs
(the items) under ascending per-item clock prices: every item demanded by two
or more bidders gets its price raised by epsilon, and the auction stops as
soon as no item is over-demanded. Winner packages then transmit on the
winning bidder's RB; undemanded pairs stay silent.

Demand is the exact surplus-maximizing package (exhaustive over all subsets)
up to ``exact_cap`` items, and a greedy marginal-surplus construction beyond
that. A bidder whose demanded items saw no price change keeps its demand: a
price rise elsewhere can only lower competing packages' surpluses, so the
cached argmax (and the greedy path) is unchanged. This keeps big instances
cheap without altering the outcome.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from d2dgames import radio

Package = frozenset


@dataclass
class AuctionInstance:
    items: tuple[int, ...]
    bidders: tuple[int, ...]
    valuation: Callable[[int, Package], float]
    epsilon: float
    p0: float = 0.0
    exact_cap: int = 12
    # optional vectorized valuation: (bidder, masks (B, n_items) of 0/1) -> (B,)
    batch_valuation: Optional[Callable[[int, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.p0 < 0:
            raise ValueError(f"p0 must be >= 0, got {self.p0}")
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate items")
        if len(set(self.bidders)) != len(self.bidders):
            raise ValueError("duplicate bidders")

    @property
    def n_items(self) -> int:
        return len(self.items)


@dataclass
class AuctionState:
    items: tuple[int, ...]
    prices: dict[int, float]
    demand: dict[int, Package]
    rounds: int
    valuation_calls: int
    per_round_calls: list[int]
    assignment: dict[int, Optional[int]]
    terminated: bool
    price_history: list[np.ndarray] = field(default_factory=list)


class _DemandEngine:
    """Caches valuations and computes surplus-maximizing demands."""

    def __init__(self, instance: AuctionInstance):
        self.inst = instance
        self.n = instance.n_items
        self.exact = self.n <= instance.exact_cap
        self.calls = 0
        self._tables: dict[int, np.ndarray] = {}
        self._single_cache: dict[tuple[int, int], float] = {}
        if self.exact and self.n > 0:
            bits = (np.arange(2**self.n)[:, None] >> np.arange(self.n)) & 1
            self._masks = bits.astype(float)
            self._sizes = self._masks.sum(axis=1)
        elif self.exact:
            self._masks = np.zeros((1, 0))
            self._sizes = np.zeros(1)

    def _package(self, mask: int) -> Package:
        return frozenset(
            self.inst.items[i] for i in range(self.n) if (mask >> i) & 1
        )

    def _eval_masks(self, bidder: int, masks: np.ndarray) -> np.ndarray:
        if self.inst.batch_valuation is not None:
            return np.asarray(self.inst.batch_valuation(bidder, masks), dtype=float)
        out = np.empty(len(masks))
        for r, row in enumerate(masks):
            pkg = frozenset(
                self.inst.items[i] for i in range(self.n) if row[i] > 0.5
            )
            out[r] = self.inst.valuation(bidder, pkg)
        return out

    def _table(self, bidder: int) -> np.ndarray:
        tab = self._tables.get(bidder)
        if tab is None:
            tab = self._eval_masks(bidder, self._masks)
            self._tables[bidder] = tab
            self.calls += 2**self.n - 1  # non-empty packages evaluated
        return tab

    def value_of_mask(self, bidder: int, mask_row: np.ndarray) -> float:
        key = (bidder, int(mask_row @ (1 << np.arange(self.n))) if self.n else 0)
        v = self._single_cache.get(key)
        if v is None:
            v = float(self._eval_masks(bidder, mask_row[None, :])[0])
            self._single_cache[key] = v
            if mask_row.sum() > 0:
                self.calls += 1
        return v

    def demand(self, bidder: int, prices: np.ndarray) -> Package:
        if self.exact:
            return self._demand_exact(bidder, prices)
        return self._demand_greedy(bidder, prices)

    def _demand_exact(self, bidder: int, prices: np.ndarray) -> Package:
        surplus = self._table(bidder) - self._masks @ prices
        best = surplus.max()
        candidates = np.flatnonzero(surplus == best)
        if len(candidates) > 1:
            # smaller package first, then lexicographically smallest item tuple
            def key(mask):
                pkg = sorted(self._package(int(mask)))
                return (len(pkg), pkg)

            chosen = min(candidates, key=key)
        else:
            chosen = candidates[0]
        return self._package(int(chosen))

    def _demand_greedy(self, bidder: int, prices: np.ndarray) -> Package:
        mask = np.zeros(self.n)
        value = self.value_of_mask(bidder, mask)
        while True:
            out_idx = [i for i in range(self.n) if mask[i] < 0.5]
            if not out_idx:
                break
            cand = np.repeat(mask[None, :], len(out_idx), axis=0)
            for r, i in enumerate(out_idx):
                cand[r, i] = 1.0
            vals = self._eval_masks(bidder, cand)
            self.calls += len(out_idx)
            marginals = vals - value - prices[out_idx]
            best = int(np.argmax(marginals))  # first max = smallest item index
            if marginals[best] <= 0.0:
                break
            mask[out_idx[best]] = 1.0
            value = vals[best]
        return frozenset(self.inst.items[i] for i in range(self.n) if mask[i] > 0.5)


def bidder_demand(instance: AuctionInstance, prices, bidder: int) -> Package:
    """Surplus-maximizing package for one bidder at the given per-item prices."""
    prices = np.asarray(
        [prices[item] for item in instance.items]
        if isinstance(prices, dict)
        else prices,
        dtype=float,
    )
    if np.any(prices < 0):
        raise ValueError("prices must be >= 0")
    engine = getattr(instance, "_engine", None)
    if engine is None:
        engine = _DemandEngine(instance)
        object.__setattr__(instance, "_engine", engine)
    return engine.demand(bidder, prices)


def run_auction(instance: AuctionInstance, max_rounds: int = 1_000_000) -> AuctionState:
    """Ascending clock rounds until no item is demanded by two or more bidders.

    Returns an :class:`AuctionState` whose ``terminated`` flag is False when
    ``max_rounds`` was exhausted; callers must check it before using the
    assignment.
    """
    engine = _DemandEngine(instance)
    n = instance.n_items
    items = instance.items
    pos = {item: i for i, item in enumerate(items)}
    prices = np.full(n, float(instance.p0))
    demands: dict[int, Package] = {}
    stale = set(instance.bidders)
    history: list[np.ndarray] = []
    per_round_calls: list[int] = []
    rounds = 0
    terminated = False
    while rounds < max_rounds:
        rounds += 1
        before = engine.calls
        for b in instance.bidders:
            if b in stale:
                demands[b] = engine.demand(b, prices)
        per_round_calls.append(engine.calls - before)
        history.append(prices.copy())
        counts = Counter()
        for pkg in demands.values():
            counts.update(pkg)
        over = [item for item, c in counts.items() if c >= 2]
        if not over:
            terminated = True
            break
        for item in over:
            prices[pos[item]] += instance.epsilon
        raised = set(over)
        stale = {b for b, pkg in demands.items() if pkg & raised}

    assignment: dict[int, Optional[int]] = {item: None for item in items}
    if terminated:
        for b in instance.bidders:
            for item in demands.get(b, frozenset()):
                assignment[item] = b
    return AuctionState(
        items=items,
        prices={item: float(prices[pos[item]]) for item in items},
        demand=dict(demands),
        rounds=rounds,
        valuation_calls=engine.calls,
        per_round_calls=per_round_calls,
        assignment=assignment,
        terminated=terminated,
        price_history=history,
    )


def allocation_from_auction(state: AuctionState, topology: radio.Topology) -> radio.Allocation:
    """Winning packages transmit on their bidder's RB; unassigned pairs stay silent."""
    if not state.terminated:
        raise ValueError("auction did not terminate; no allocation available")
    rb_of_d2d = {
        item: bidder for item, bidder in state.assignment.items() if bidder is not None
    }
    return radio.Allocation(rb_of_d2d=rb_of_d2d)


def random_allocation(topology: radio.Topology, rng_seed: int) -> radio.Allocation:
    """Assign every D2D pair a uniformly random RB, independently per pair."""
    rng = np.random.default_rng(rng_seed)
    rb_of_d2d = {
        j: int(rng.integers(0, topology.rb_count)) for j in range(topology.n_pairs)
    }
    return radio.Allocation(rb_of_d2d=rb_of_d2d)


def all_cellular_allocation(topology: radio.Topology) -> radio.Allocation:
    """Carry every D2D flow as a two-hop cellular relay on its nearest CUE's RB."""
    rb_of_d2d = {}
    for j, (tx, _) in enumerate(topology.d2d_pairs):
        dists = [math.hypot(tx[0] - c[0], tx[1] - c[1]) for c in topology.cue]
        rb_of_d2d[j] = int(np.argmin(dists))
    return radio.Allocation(
        rb_of_d2d=rb_of_d2d, relay_d2d=frozenset(range(topology.n_pairs))
    )


def auction_instance_from_radio(
    topology: radio.Topology,
    gains: radio.GainTensor,
    params: radio.RadioParams,
    c0: float = 0.05,
    epsilon: float | None = None,
    p0: float = 0.0,
    exact_cap: int = 12,
    items: tuple[int, ...] | None = None,
    bidders: tuple[int, ...] | None = None,
) -> AuctionInstance:
    """Build the auction whose valuations are co-channel sum rates minus signaling.

    A bidder (RB) values a package as: the rate of its own cellular link under
    the package's interference, plus each package member's D2D rate on that RB,
    minus ``c0`` per member for signaling overhead. When ``epsilon`` is None it
    defaults to 1% of the mean positive standalone item value.
    """
    if items is None:
        items = tuple(range(topology.n_pairs))
    if bidders is None:
        bidders = tuple(range(topology.rb_count))
    sigma = radio.effective_noise_w(params)
    n = len(items)

    rbs = np.asarray(bidders, dtype=np.intp)
    cell_tx, cell_rx, p_cell = radio.cellular_links(gains, params, bidders)
    dtx = gains.tx_indices([("dtx", j) for j in items])
    drx = gains.rx_indices([("drx", j) for j in items])
    p_d = params.p_d2d_w
    # one row per bidder: cellular signal, package members' interference at
    # the cellular receiver, direct D2D signals, cross-tier interference at the
    # D2D receivers, and member-to-member interference m[k, a, b] (a's tx at b's rx)
    s_c = p_cell * gains.gather(cell_tx, cell_rx, rbs)
    w = p_d * gains.gather(dtx, cell_rx[:, None], rbs[:, None])
    direct = p_d * gains.gather(dtx, drx, rbs[:, None])
    cross = p_cell[:, None] * gains.gather(cell_tx[:, None], drx, rbs[:, None])
    m = p_d * gains.gather(dtx[:, None], drx, rbs[:, None, None])
    m[:, np.arange(n), np.arange(n)] = 0.0
    per_bidder = {
        rb: (float(s_c[k]), w[k], direct[k], cross[k], m[k]) for k, rb in enumerate(bidders)
    }

    def batch_valuation(bidder: int, masks: np.ndarray) -> np.ndarray:
        s_c, w, direct, cross, m = per_bidder[bidder]
        masks = np.asarray(masks, dtype=float)
        cell = np.log2(1.0 + s_c / (sigma + masks @ w))
        i_d2d = masks @ m
        with np.errstate(divide="ignore"):
            member_rates = np.log2(1.0 + direct / (sigma + cross + i_d2d))
        d2d = (member_rates * masks).sum(axis=1)
        return cell + d2d - c0 * masks.sum(axis=1)

    item_pos = {j: i for i, j in enumerate(items)}

    def valuation(bidder: int, package: Package) -> float:
        mask = np.zeros(n)
        for j in package:
            mask[item_pos[j]] = 1.0
        return float(batch_valuation(bidder, mask[None, :])[0])

    if epsilon is None:
        single = []
        eye = np.eye(n)
        for rb in bidders:
            empty_v = float(batch_valuation(rb, np.zeros((1, n)))[0])
            if n:
                vals = batch_valuation(rb, eye)
                single.extend(max(v - empty_v, 0.0) for v in vals)
        mean_standalone = float(np.mean(single)) if single else 0.0
        epsilon = max(0.01 * mean_standalone, 1e-6)

    return AuctionInstance(
        items=items,
        bidders=bidders,
        valuation=valuation,
        epsilon=epsilon,
        p0=p0,
        exact_cap=exact_cap,
        batch_valuation=batch_valuation,
    )
